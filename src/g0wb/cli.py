"""Command-line front end.

Every subcommand is a thin adapter over the library: identical inputs give
identical machine-block values through either route.  Each handler returns
its report and exit code, and ``main`` alone writes stdout, so a refusal
leaves stdout empty and only --out writes a file.  Exit codes: 0 for
success, 1 for a mathematically meaningful failure (an inconsistent
verification, a fiction mismatch, a failed law), 2 for a UsageError or an
argparse error, 3 for file or data problems.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from fractions import Fraction
from itertools import compress
from operator import itemgetter

from . import braid as braidmod
from . import corpus as corpusmod
from .errors import (BootstrapStalled, ExpressFailure, G0wbError, Inconsistent, ParseError,
                     UsageError)
from .exactnum import format_rational
from .hauptmodul import bootstrap_extend, check_replication, classify, congruence_membership
from .matrices import parse_matrix
from .modeq import (
    average_sum,
    build_modular_polynomial,
    emit_mpoly,
    express_in_generator,
    parse_mpoly,
    verify_modular_equation,
)
from .numeric import (
    ETA_LAW_TOLERANCE,
    UpperHalfPoint,
    check_weight_law,
    eisenstein_eval,
    eisenstein_evaluator,
    eta_eval,
    eta_evaluator,
    eval_series,
    select_eta_kappa,
)
from .qseries import PuiseuxSeries, emit_qexp, parse_qexp
from .report import _with_machine_block, provenance_footnotes, render

EXIT_OK = 0
EXIT_FAILED = 1
EXIT_USAGE = 2
EXIT_DATA = 3


def _read_input(path: str, kind: str) -> str:
    """The text of a --series/--modpoly file, tried literally, then by
    basename under G0WB_DATA."""
    override = corpusmod.data_directory()
    tries = [path] if override is None else [path, os.path.join(override, os.path.basename(path))]
    for candidate in tries:
        if os.path.exists(candidate):
            return corpusmod._read_text(candidate)
    raise OSError(f"no such {kind} file: {path}")


def _load_series(path: str) -> tuple[PuiseuxSeries, str, tuple[str, ...]]:
    """A bundled name that is not an existing path goes through the corpus
    loader, which reads the override too and re-checks the published prefix."""
    stem = os.path.splitext(os.path.basename(path))[0]
    if stem in corpusmod.PUBLISHED_PREFIXES and not os.path.exists(path):
        entry = corpusmod.load_entry(stem)
        return entry.series, entry.meta.label, provenance_footnotes(entry)
    series, label = parse_qexp(_read_input(path, "series"))
    return series, label, ()


def _parse_tau(text: str) -> UpperHalfPoint:
    parts = text.split(",")
    if len(parts) != 2:
        raise ParseError(f"tau must be RE,IM, got {text!r}")
    try:
        return UpperHalfPoint(float(parts[0]), float(parts[1]))
    except ValueError as exc:
        raise ParseError(f"bad tau {text!r}: {exc}") from exc


def _fmt_complex(z: complex) -> str:
    return f"{z.real:.12g}{z.imag:+.12g}i"


def _report(body: str, machine: list[tuple[str, str]], code: int = EXIT_OK) -> tuple[str, int]:
    return _with_machine_block(body, machine), code


def _emit_value(name: str, result, terms: bool = False) -> tuple[str, int]:
    """The value report of eval, eta and eisenstein; ``terms`` adds the
    number of terms summed."""
    count = f", {result.terms_used} terms" if terms else ""
    return _report(
        f"{name} = {_fmt_complex(result.value)}  (tail {result.tail_estimate:.3e}{count})",
        [("value_re", f"{result.value.real:.16g}"), ("value_im", f"{result.value.imag:.16g}"),
         ("tail", f"{result.tail_estimate:.6e}")]
        + ([("terms", str(result.terms_used))] if terms else []))


def _entries(mat) -> str:
    return ",".join(map(format_rational, mat.entries()))


def _written(text: str, out: str | None, summary: str,
             machine: list[tuple[str, str]]) -> tuple[str, int]:
    """The report of modpoly and bootstrap: the text itself, or with --out
    the text written there and a summary report."""
    if out is None:
        return text, EXIT_OK
    with open(out, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)
    return _report(summary, machine)


# -- subcommand handlers ------------------------------------------------------

def _cmd_modpoly(args) -> tuple[str, int]:
    series, label, _ = _load_series(args.series)
    poly = build_modular_polynomial(series, args.order,
                                    generalised=args.generalised)
    return _written(emit_mpoly(poly), args.out,
                    f"order-{args.order} polynomial for {label} written to {args.out}",
                    [("order", str(args.order)), ("degx", str(poly.degx)),
                     ("degy", str(poly.degy)), ("out", args.out)])


def _cmd_verify(args) -> tuple[str, int]:
    series, _, notes = _load_series(args.series)
    poly = parse_mpoly(_read_input(args.modpoly, "polynomial"))
    rep = verify_modular_equation(series, poly, args.order,
                                  generalised=args.generalised)
    return (render(rep, footnotes=notes).text(),
            EXIT_FAILED if rep.status == "inconsistent" else EXIT_OK)


def _cmd_classify(args) -> tuple[str, int]:
    series, _, notes = _load_series(args.series)
    try:
        orders = [int(tok) for tok in args.orders.split(",") if tok]
    except ValueError as exc:
        raise UsageError(*exc.args) from exc
    result = classify(series, orders)
    return (render(result, footnotes=notes).text(),
            EXIT_FAILED if result.verdict == "inconsistent" else EXIT_OK)


def _cmd_bootstrap(args) -> tuple[str, int]:
    series, label, _ = _load_series(args.series)
    poly = parse_mpoly(_read_input(args.modpoly, "polynomial"))
    extended = bootstrap_extend(series, poly, args.order, args.target)
    return _written(emit_qexp(extended, label), args.out,
                    f"{label} extended to q^{args.target} and written to {args.out}",
                    [("target", str(args.target)), ("trunc", str(extended.trunc)),
                     ("out", args.out)])


def _cmd_replicate(args) -> tuple[str, int]:
    series, _, _ = _load_series(args.series)
    square, _, _ = _load_series(args.square)
    # a --k-max below 1 reaches check_replication's own refusal
    ks = range(1, args.k_max + 1) or [args.k_max]
    holds = [(k, check_replication(series, square, k)) for k in ks]
    all_ok = all(ok for _, ok in holds)
    return _report("\n".join(f"k = {k}: {'holds' if ok else 'FAILS'}" for k, ok in holds),
                   [(f"k_{k}", "true" if ok else "false") for k, ok in holds]
                   + [("all", "true" if all_ok else "false")],
                   EXIT_OK if all_ok else EXIT_FAILED)


def _cmd_avg(args) -> tuple[str, int]:
    series, label, _ = _load_series(args.series)
    averaged = average_sum(series, args.prime)
    machine: list[tuple[str, str]] = [("prime", str(args.prime)),
                                      ("trunc", str(averaged.trunc))]
    body = emit_qexp(averaged, f"{label}_avg_{args.prime}").rstrip("\n")
    if args.express:
        poly = express_in_generator(averaged, series)
        body += f"\nexpressed in generator: {poly}"
        machine.append(("expressed", str(poly)))
    return _report(body, machine)


def _cmd_member(args) -> tuple[str, int]:
    mat = parse_matrix(args.matrix)
    ok = congruence_membership(mat, args.level, args.flavor)
    return _report(f"{mat} in {args.flavor}({args.level}): {'yes' if ok else 'no'}",
                   [("member", "true" if ok else "false"),
                    ("level", str(args.level)), ("flavor", args.flavor)])


def _cmd_eval(args) -> tuple[str, int]:
    series, label, _ = _load_series(args.series)
    tau = _parse_tau(args.tau)
    return _emit_value(f"{label}({args.tau})", eval_series(series, tau), terms=True)


def _cmd_eta(args) -> tuple[str, int]:
    tau = _parse_tau(args.tau)
    if not args.law:
        return _emit_value(f"eta({args.tau})", eta_eval(tau, args.terms))
    if args.matrix is None:
        raise ParseError("--law needs --matrix a,b,c,d")
    mat = parse_matrix(args.matrix)
    mu = braidmod.eta_multiplier_matrix(mat)
    residual = check_weight_law(eta_evaluator(args.terms), mat, Fraction(1, 2), mu, tau)
    ok = residual < ETA_LAW_TOLERANCE
    return _report(f"weight-1/2 law for {mat} at tau={args.tau}: residual {residual:.3e} "
                   f"(tolerance {ETA_LAW_TOLERANCE:.1e}) {'pass' if ok else 'FAIL'}",
                   [("residual", f"{residual:.6e}"), ("tolerance", f"{ETA_LAW_TOLERANCE:.1e}"),
                    ("kappa", str(braidmod.DEFAULT_ETA_KAPPA)),
                    ("law", "pass" if ok else "fail")],
                   EXIT_OK if ok else EXIT_FAILED)


def _cmd_eisenstein(args) -> tuple[str, int]:
    tau = _parse_tau(args.tau)
    if not args.law:
        return _emit_value(f"E{args.k}({args.tau})", eisenstein_eval(args.k, tau, args.radius))
    if args.matrix is None:
        raise ParseError("--law needs --matrix a,b,c,d")
    mat = parse_matrix(args.matrix)
    # the law and its tolerance read the same two lattice sums
    f = functools.cache(eisenstein_evaluator(args.k, args.radius))
    residual = check_weight_law(f, mat, args.k, 1.0, tau)
    t = tau.as_complex()
    image = UpperHalfPoint.of(mat.moebius(t))
    tolerance = (f(image).tail_estimate
                 + abs((mat.c * t + mat.d) ** args.k) * f(tau).tail_estimate)
    ok = residual < tolerance
    return _report(f"weight-{args.k} law for {mat} at tau={args.tau}: residual {residual:.3e} "
                   f"(combined tails {tolerance:.3e}) {'pass' if ok else 'FAIL'}",
                   [("residual", f"{residual:.6e}"), ("tolerance", f"{tolerance:.6e}"),
                    ("law", "pass" if ok else "fail")],
                   EXIT_OK if ok else EXIT_FAILED)


def _cmd_braid(args) -> tuple[str, int]:
    word = braidmod.BraidWord.parse(args.word)
    if args.action == "degree":
        d = format_rational(braidmod.degree(word))
        return _report(f"degree({word}) = {d}", [("degree", d)])
    if args.action == "burau":
        mat = braidmod.burau(word)
        return _report(f"projection({word}) = {mat}", [("matrix", _entries(mat))])
    if args.action == "multiplier":
        mu = braidmod.braid_multiplier(word)
        return _report(f"multiplier({word}) = {mu.literal()} (conductor 24)",
                       [("multiplier", mu.literal()), ("conductor", "24")])
    lifted = braidmod.lift_braid(word)
    mat = lifted.matrix
    n = format_rational(lifted.n)
    return _report(f"lift({word}) = ({mat}, n={n})", [("matrix", _entries(mat)), ("n", n)])


_BUILTIN_GROUPS = {
    "z2": lambda: braidmod.cyclic_group(2),
    "s3": braidmod.symmetric_group_3,
    "d4": lambda: braidmod.dihedral_group(4),
}


def _cmd_quilt(args) -> tuple[str, int]:
    if args.group in _BUILTIN_GROUPS and not os.path.exists(args.group):
        table = _BUILTIN_GROUPS[args.group]()
    else:
        table = braidmod.parse_group_table(corpusmod._read_text(args.group))
    start = [part.strip() for part in args.start.split(",")]
    if len(start) != 2:
        raise ParseError("--start must be g,h with element labels")
    try:
        g, h = map(table.index, start)
    except KeyError as exc:
        raise UsageError(exc.args[0]) from exc
    n, labels = table.order, table.labels
    marks = bytearray(n * n)
    size = len(braidmod._close(g * n + h, table, marks))
    # rows in "(g," order, each read in "h)" order: the sorted "(g,h)" texts, as no
    # label has a comma.  The trailing 0 keeps a tuple at n = 1 (compress drops it),
    # and a row joins as " (g,x) (g,y)" for its pairs in the orbit, or as ""
    cols = sorted(range(n), key=lambda h: labels[h] + ")")
    by_col = itemgetter(*cols, 0)
    tails = [labels[h] + ")" for h in cols]
    rows = []
    for g in sorted(range(n), key=lambda g: "(" + labels[g] + ","):
        rows.append(f" ({labels[g]},".join(["", *compress(tails, by_col(marks[g * n:g * n + n]))]))
    elements = "".join(rows)[1:]
    return _report(f"orbit of ({start[0]},{start[1]}): size {size}\n{elements}",
                   [("orbit_size", str(size)), ("elements", elements)])


def _cmd_kappa(args) -> tuple[str, int]:
    selection = select_eta_kappa(terms=args.terms)
    return render(selection).text(), EXIT_OK if selection.winner is not None else EXIT_FAILED


_REQUIRED = {"required": True}
_INT = {"type": int, "required": True}
_FLAG = {"action": "store_true"}

# subcommand, help, handler, and its arguments in the order they are added
_COMMANDS = (
    ("modpoly", "build the order-m modular polynomial of a series", _cmd_modpoly,
     [("--series", _REQUIRED), ("--order", _INT), ("--out", {}), ("--generalised", _FLAG)]),
    ("verify", "check a series against a modular polynomial", _cmd_verify,
     [("--series", _REQUIRED), ("--modpoly", _REQUIRED), ("--order", _INT),
      ("--generalised", _FLAG)]),
    ("classify", "fiction / candidate / inconsistent screening", _cmd_classify,
     [("--series", _REQUIRED),
      ("--orders", {"required": True, "help": "comma-separated orders, e.g. 2,3"})]),
    ("bootstrap", "extend a series prefix with its polynomial", _cmd_bootstrap,
     [("--series", _REQUIRED), ("--modpoly", _REQUIRED), ("--order", _INT),
      ("--target", _INT), ("--out", {})]),
    ("replicate", "coefficient recursions against the square series", _cmd_replicate,
     [("--series", _REQUIRED), ("--square", _REQUIRED),
      ("--k-max", {"type": int, "required": True, "dest": "k_max"})]),
    ("avg", "prime averaging operator", _cmd_avg,
     [("--series", _REQUIRED), ("--prime", _INT), ("--express", _FLAG)]),
    ("member", "congruence-subgroup membership", _cmd_member,
     [("--matrix", {"required": True, "help": "a,b,c,d"}), ("--level", _INT),
      ("--flavor", {"choices": ("gamma0", "gamma1", "full"), "required": True})]),
    ("eval", "numeric evaluation of a series", _cmd_eval,
     [("--series", _REQUIRED), ("--tau", {"required": True, "help": "RE,IM"})]),
    ("eta", "eta product value or its weight-1/2 law", _cmd_eta,
     [("--tau", _REQUIRED), ("--terms", {"type": int, "default": 120}), ("--law", _FLAG),
      ("--matrix", {})]),
    ("eisenstein", "lattice sum value or its weight-k law", _cmd_eisenstein,
     [("--k", _INT), ("--tau", _REQUIRED), ("--radius", _INT), ("--law", _FLAG),
      ("--matrix", {})]),
    ("braid", "word operations: projection, degree, multiplier, lift", _cmd_braid,
     [("action", {"choices": ("burau", "degree", "multiplier", "lift")}),
      ("--word", {"required": True, "help": 'e.g. "s1 s2^-1 s1"'})]),
    ("quilt", "orbit of a pair under the two-sided action", _cmd_quilt,
     [("--group", {"required": True, "help": "path to a Cayley-table file"}),
      ("--start", {"required": True, "help": "g,h element labels"})]),
    ("kappa", "select the eta-multiplier constant numerically", _cmd_kappa,
     [("--terms", {"type": int, "default": 120})]),
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="g0wb",
        description="exact workbench for q-series modular equations, "
                    "series screening, and the two-generator braid group")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, text, handler, arguments in _COMMANDS:
        p = sub.add_parser(name, help=text)
        for flag, options in arguments:
            p.add_argument(flag, **options)
        p.set_defaults(fn=handler)
    return parser


# built on the first call and shared afterwards: parsing never mutates the
# tree, and racing first calls only build equal ones
_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        text, code = args.fn(args)
        sys.stdout.write(text)
        return code
    except UsageError as exc:
        sys.stderr.write(f"usage error: {exc}\n")
        return EXIT_USAGE
    except (ExpressFailure, Inconsistent, BootstrapStalled) as exc:
        sys.stderr.write(f"failed: {exc}\n")
        return EXIT_FAILED
    except (OSError, G0wbError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_DATA


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
