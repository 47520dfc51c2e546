"""In-memory span tracer for the traced benchmark run.

The tracer replaces each traced entry point with a wrapper, at every name
it is bound to: the defining module, each g0wb module that imported it by
name, the package namespace, and, for methods, the class (once for each
operator alias such as ``__mul__`` and ``__rmul__``).  Calls made through
any of those names therefore enter a span.

A span records its name, start, end, parent span and job id.  Consecutive
calls of one entry point under the same parent span are folded into one
span record carrying a call count, so that the millions of coefficient
operations of a ``classify`` job cost a few records per series product
rather than one record each.  A record's self time is its total duration
minus the durations of its child records.

The time the tracer spends on its own bookkeeping (entering and leaving
spans, and the per-call counters) is measured and subtracted from every
enclosing span, so the self times describe the program rather than the
tracer.  What cannot be subtracted shows in ``trace.overhead_ratio``.
"""

from __future__ import annotations

import functools
import json
import math
import sys
import time

_clock = time.perf_counter

# Span record fields (records are plain lists to keep them small).
NAME, PARENT, JOB, START, END, COUNT, TOTAL, CHILD = range(8)


class Tracer:
    """Collects span records and per-layer counters for one traced run."""

    def __init__(self):
        self.records: list[list] = []
        self._fold: dict[tuple, int] = {}
        self._stack: list[int] = []
        self.job = -1
        self.lost = 0.0
        self.origin = _clock()
        self.counters: dict[str, float] = {}
        self._patched: list[tuple[object, str, object]] = []

    # -- spans --------------------------------------------------------------

    def _enter(self, name: str, now: float) -> int:
        parent = self._stack[-1] if self._stack else None
        key = (parent if parent is not None else ("job", self.job), name)
        rid = self._fold.get(key)
        if rid is None:
            rid = len(self.records)
            virtual = now - self.lost - self.origin
            self.records.append([name, parent, self.job, virtual, virtual, 0, 0.0, 0.0])
            self._fold[key] = rid
        self._stack.append(rid)
        return rid

    def _leave(self, rid: int, duration: float, now: float) -> None:
        self._stack.pop()
        rec = self.records[rid]
        rec[COUNT] += 1
        rec[TOTAL] += duration
        rec[END] = now - self.lost - self.origin
        if rec[PARENT] is not None:
            self.records[rec[PARENT]][CHILD] += duration

    def count(self, key: str, amount: float = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    def maximum(self, key: str, value: float) -> None:
        if value > self.counters.get(key, 0):
            self.counters[key] = value

    def wrap(self, name: str, fn, before=None, after=None):
        """A traced version of fn.  ``before(args)`` runs at entry and
        ``after(args, result, raised)`` at exit; both are bookkeeping and
        their time is subtracted from the spans."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            t0 = _clock()
            if before is not None:
                before(args)
            rid = tracer._enter(name, t0)
            t1 = _clock()
            tracer.lost += t1 - t0
            lost_at_start = tracer.lost
            raised = True
            result = None
            try:
                result = fn(*args, **kwargs)
                raised = False
                return result
            finally:
                t2 = _clock()
                tracer._leave(rid, (t2 - t1) - (tracer.lost - lost_at_start), t2)
                if after is not None:
                    after(args, result, raised)
                tracer.lost += _clock() - t2

        return traced

    # -- installation --------------------------------------------------------

    def patch(self, owner, attr: str, replacement) -> None:
        self._patched.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def restore(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # -- results --------------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for rec in self.records:
            out[rec[NAME]] = out.get(rec[NAME], 0.0) + rec[TOTAL] - rec[CHILD]
        return out

    def call_counts(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for rec in self.records:
            out[rec[NAME]] = out.get(rec[NAME], 0) + rec[COUNT]
        return out

    def write(self, path: str, header: dict) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(header, sort_keys=True) + "\n")
            for rid, rec in enumerate(self.records):
                fh.write(json.dumps({
                    "id": rid, "name": rec[NAME], "parent": rec[PARENT],
                    "job": rec[JOB], "start": round(rec[START], 9),
                    "end": round(rec[END], 9), "count": rec[COUNT],
                    "total_s": round(rec[TOTAL], 9),
                    "self_s": round(rec[TOTAL] - rec[CHILD], 9)}) + "\n")


# -- what is traced ------------------------------------------------------------

# Module-level entry points: (module, function name, span name).  Every one
# is replaced in its defining module and in every g0wb module (and the
# package) that bound the same function object under the same name.  Entry
# points that feed no metric are listed too, so that their time is charged
# to their own layer rather than to the caller's.
FUNCTIONS = (
    ("exactnum", "parse_cyclotomic", "exactnum.parse"),
    ("qseries", "substitute_coset", "qseries.substitute"),
    ("qseries", "parse_qexp", "qseries.parse"),
    ("qseries", "emit_qexp", "qseries.emit"),
    ("qseries", "compare_to_order", "qseries.compare"),
    ("modeq", "build_modular_polynomial", "modeq.build"),
    ("modeq", "verify_modular_equation", "modeq.verify"),
    ("modeq", "express_in_generator", "modeq.express"),
    ("modeq", "average_sum", "modeq.average"),
    ("modeq", "parse_mpoly", "modeq.mpoly_io"),
    ("modeq", "emit_mpoly", "modeq.mpoly_io"),
    ("hauptmodul", "classify", "hauptmodul.classify"),
    ("hauptmodul", "bootstrap_extend", "hauptmodul.bootstrap"),
    ("hauptmodul", "check_replication", "hauptmodul.replicate"),
    ("hauptmodul", "congruence_membership", "hauptmodul.member"),
    ("braid", "lift_braid", "braid.lift"),
    ("braid", "extended_mul", "braid.extended_mul"),
    ("braid", "burau", "braid.burau"),
    ("braid", "degree", "braid.degree"),
    ("braid", "braid_multiplier", "braid.multiplier"),
    ("braid", "dedekind_sum", "braid.dedekind"),
    ("braid", "eta_multiplier_matrix", "braid.eta_multiplier"),
    ("braid", "quilt_orbit", "braid.quilt"),
    ("braid", "parse_group_table", "braid.table_io"),
    ("braid", "cyclic_group", "braid.builtin_group"),
    ("braid", "dihedral_group", "braid.builtin_group"),
    ("braid", "symmetric_group_3", "braid.builtin_group"),
    ("matrices", "parse_matrix", "matrices.parse"),
    ("numeric", "eval_series", "numeric.eval"),
    ("numeric", "eta_eval", "numeric.eta"),
    ("numeric", "eisenstein_eval", "numeric.eisenstein"),
    ("numeric", "check_weight_law", "numeric.law"),
    ("numeric", "select_eta_kappa", "numeric.kappa"),
    ("corpus", "load_entry", "corpus.load"),
    ("corpus", "ingest", "corpus.load"),
    ("corpus", "normalized_j", "corpus.oracle"),
    ("corpus", "eta_quotient_level2", "corpus.oracle"),
    ("corpus", "eta_product_series", "corpus.oracle"),
    ("report", "render", "report.render"),
    ("report", "provenance_footnotes", "report.footnotes"),
    ("cli", "main", "cli.main"),
)

# Methods: (module, class, attribute, span name).  Operator aliases are
# separate class attributes, so each one is listed.
METHODS = (
    ("exactnum", "CyclotomicNumber", "__mul__", "exactnum.mul"),
    ("exactnum", "CyclotomicNumber", "__rmul__", "exactnum.mul"),
    ("exactnum", "CyclotomicNumber", "__add__", "exactnum.add"),
    ("exactnum", "CyclotomicNumber", "__radd__", "exactnum.add"),
    ("exactnum", "CyclotomicNumber", "inverse", "exactnum.inverse"),
    ("exactnum", "CyclotomicNumber", "__truediv__", "exactnum.inverse"),
    ("exactnum", "CyclotomicNumber", "__rtruediv__", "exactnum.inverse"),
    ("qseries", "PuiseuxSeries", "__mul__", "qseries.mul"),
    ("qseries", "PuiseuxSeries", "__rmul__", "qseries.mul"),
    ("qseries", "PuiseuxSeries", "__add__", "qseries.add"),
    ("qseries", "PuiseuxSeries", "__radd__", "qseries.add"),
    ("modeq", "ModularPolynomial", "evaluate", "modeq.evaluate"),
    ("modeq", "ModularPolynomial", "derivative", "modeq.derivative"),
    ("braid", "GroupTable", "__post_init__", "braid.table"),
    ("braid", "BraidWord", "parse", "braid.parse"),
    ("matrices", "IntMatrix", "__mul__", "matrices.mul"),
)


def _conductor(value) -> int:
    return getattr(value, "conductor", 1)


def _has_cyclotomic(series) -> bool:
    return any(c.conductor != 1 and not c.is_rational() for c in series.coeffs.values())


def _in_bound_pairs(a, b, product) -> int:
    """Pairs (u, v) of stored exponents with u + v <= the product's trunc."""
    d = math.lcm(a.denom, b.denom, product.denom)
    fa, fb = d // a.denom, d // b.denom
    top = product.trunc * (d // product.denom)
    right = sorted(v * fb for v in b.coeffs)
    total = 0
    j = len(right)
    for u in sorted(u * fa for u in a.coeffs):
        while j and u + right[j - 1] > top:
            j -= 1
        if not j:
            break
        total += j
    return total


def _hooks(tracer: Tracer, name: str):
    """Entry and exit bookkeeping that feeds the per-layer counters."""
    if name == "exactnum.mul":
        def before(args):
            a, b = args[0], args[1]
            ca, cb = _conductor(a), _conductor(b)
            kind = "calls_rat" if ca == 1 and cb == 1 else "calls_cyc"
            tracer.count(f"exactnum.mul.{kind}")
            tracer.maximum("exactnum.max_conductor", max(ca, cb))
        return before, None
    if name == "exactnum.inverse":
        def before(args):
            # a cyclotomic division inverts through ``inverse``: count once
            stack = tracer._stack
            if not stack or tracer.records[stack[-1]][NAME] != "exactnum.inverse":
                tracer.count("exactnum.inverse.calls")
        return before, None
    if name == "qseries.mul":
        def after(args, result, raised):
            a, b = args[0], args[1]
            if raised or not hasattr(b, "coeffs") or not hasattr(result, "coeffs"):
                return
            tracer.count("qseries.mul.series_products")
            tracer.count("qseries.mul.pairs", len(a.coeffs) * len(b.coeffs))
            tracer.count("qseries.mul.in_bound", _in_bound_pairs(a, b, result))
            if _has_cyclotomic(a) or _has_cyclotomic(b):
                tracer.count("qseries.mul.cyc_products")
        return None, after
    if name == "modeq.build":
        def after(args, result, raised):
            if raised:
                tracer.count("modeq.build.fail")
        return None, after
    if name == "hauptmodul.bootstrap":
        def before(args):
            prefix, target = args[0], args[3]
            tracer.count("hauptmodul.bootstrap.steps", max(0, target - prefix.trunc))
        return before, None
    if name == "numeric.eisenstein":
        def after(args, result, raised):
            if not raised:
                tracer.count("numeric.eisenstein.points", result.terms_used)
        return None, after
    if name == "cli.main":
        def after(args, result, raised):
            if raised or result != 0:
                tracer.count("cli.main.fail")
        return None, after
    return None, None


def install(tracer: Tracer) -> None:
    """Wrap every listed entry point at every place it is bound."""
    modules = [mod for key, mod in list(sys.modules.items())
               if mod is not None and (key == "g0wb" or key.startswith("g0wb."))]
    for modname, fname, span in FUNCTIONS:
        original = getattr(sys.modules[f"g0wb.{modname}"], fname)
        traced = tracer.wrap(span, original, *_hooks(tracer, span))
        for mod in modules:
            if mod.__dict__.get(fname) is original:
                tracer.patch(mod, fname, traced)
    for modname, cname, attr, span in METHODS:
        cls = getattr(sys.modules[f"g0wb.{modname}"], cname)
        original = cls.__dict__[attr]
        static = isinstance(original, staticmethod)
        traced = tracer.wrap(span, original.__func__ if static else original,
                             *_hooks(tracer, span))
        tracer.patch(cls, attr, staticmethod(traced) if static else traced)


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """The per-layer metric values of a finished traced run."""
    selfs = tracer.self_times()
    calls = tracer.call_counts()
    c = tracer.counters
    qmul_calls = calls.get("qseries.mul", 0)
    series_products = c.get("qseries.mul.series_products", 0)
    pairs = c.get("qseries.mul.pairs", 0)
    out = {
        "exactnum.mul.calls_rat": c.get("exactnum.mul.calls_rat", 0),
        "exactnum.mul.calls_cyc": c.get("exactnum.mul.calls_cyc", 0),
        "exactnum.mul.self_s": selfs.get("exactnum.mul", 0.0),
        "exactnum.add.calls": calls.get("exactnum.add", 0),
        "exactnum.add.self_s": selfs.get("exactnum.add", 0.0),
        "exactnum.inverse.calls": c.get("exactnum.inverse.calls", 0),
        "exactnum.max_conductor": c.get("exactnum.max_conductor", 0),
        "qseries.mul.calls": qmul_calls,
        "qseries.mul.self_s": selfs.get("qseries.mul", 0.0),
        "qseries.mul.pairs": pairs,
        "qseries.mul.in_bound_ratio": (c.get("qseries.mul.in_bound", 0) / pairs) if pairs else 0.0,
        "qseries.mul.cyc_share": (c.get("qseries.mul.cyc_products", 0) / series_products
                                  if series_products else 0.0),
        "qseries.add.calls": calls.get("qseries.add", 0),
        "qseries.add.self_s": selfs.get("qseries.add", 0.0),
        "qseries.substitute.calls": calls.get("qseries.substitute", 0),
        "qseries.substitute.self_s": selfs.get("qseries.substitute", 0.0),
        "qseries.parse.self_s": selfs.get("qseries.parse", 0.0),
        "qseries.emit.self_s": selfs.get("qseries.emit", 0.0),
        "modeq.mpoly_io.self_s": selfs.get("modeq.mpoly_io", 0.0),
        "modeq.build.calls": calls.get("modeq.build", 0),
        "modeq.build.self_s": selfs.get("modeq.build", 0.0),
        "modeq.build.fail": c.get("modeq.build.fail", 0),
        "modeq.express.calls": calls.get("modeq.express", 0),
        "modeq.express.self_s": selfs.get("modeq.express", 0.0),
        "modeq.verify.calls": calls.get("modeq.verify", 0),
        "modeq.verify.self_s": selfs.get("modeq.verify", 0.0),
        "modeq.evaluate.calls": calls.get("modeq.evaluate", 0),
        "modeq.evaluate.self_s": selfs.get("modeq.evaluate", 0.0),
        "hauptmodul.classify.self_s": selfs.get("hauptmodul.classify", 0.0),
        "hauptmodul.bootstrap.self_s": selfs.get("hauptmodul.bootstrap", 0.0),
        "hauptmodul.bootstrap.steps": c.get("hauptmodul.bootstrap.steps", 0),
        "braid.lift.calls": calls.get("braid.lift", 0),
        "braid.lift.self_s": selfs.get("braid.lift", 0.0),
        "braid.extended_mul.calls": calls.get("braid.extended_mul", 0),
        "braid.table.calls": calls.get("braid.table", 0),
        "braid.table.self_s": selfs.get("braid.table", 0.0),
        "braid.quilt.self_s": selfs.get("braid.quilt", 0.0),
        "braid.dedekind.self_s": selfs.get("braid.dedekind", 0.0),
        "matrices.mul.calls": calls.get("matrices.mul", 0),
        "numeric.eisenstein.calls": calls.get("numeric.eisenstein", 0),
        "numeric.eisenstein.self_s": selfs.get("numeric.eisenstein", 0.0),
        "numeric.eisenstein.points": c.get("numeric.eisenstein.points", 0),
        "numeric.eta.self_s": selfs.get("numeric.eta", 0.0),
        "numeric.eval.self_s": selfs.get("numeric.eval", 0.0),
        "corpus.load.self_s": selfs.get("corpus.load", 0.0),
        "corpus.oracle.self_s": selfs.get("corpus.oracle", 0.0),
        "report.render.calls": calls.get("report.render", 0),
        "report.render.self_s": selfs.get("report.render", 0.0),
        "cli.main.self_s": selfs.get("cli.main", 0.0),
        "cli.main.fail": c.get("cli.main.fail", 0),
    }
    return out


