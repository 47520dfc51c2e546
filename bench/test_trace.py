"""Checks of the traced run: no per-layer metric may silently read zero on
the workload that exercises its layer, and every count repeats exactly for
the same seed.

    python3 -m pytest bench/test_trace.py      (or: python3 bench/test_trace.py)

Each workload's traced run takes seconds to tens of seconds.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

# Per-layer metric -> the workloads on which it must be nonzero: the
# workloads each layer metric is predicted to move on (NOTES.md).
# ``classify`` never inverts a coefficient, so exactnum.inverse.calls is
# checked on extend, where every bootstrap step divides by the pivot
# coefficient.
MECHANISM = {
    "exactnum.mul.calls_rat": ("screen", "extend"),
    "exactnum.mul.calls_cyc": ("screen",),
    "exactnum.mul.self_s": ("screen",),
    "exactnum.add.calls": ("screen",),
    "exactnum.add.self_s": ("screen",),
    "exactnum.inverse.calls": ("extend",),
    "exactnum.max_conductor": ("screen",),
    "qseries.mul.calls": ("screen", "extend"),
    "qseries.mul.self_s": ("screen", "extend"),
    "qseries.mul.pairs": ("screen", "extend"),
    "qseries.mul.in_bound_ratio": ("screen", "extend"),
    "qseries.mul.cyc_share": ("screen", "extend"),
    "qseries.add.calls": ("screen",),
    "qseries.add.self_s": ("screen",),
    "qseries.substitute.calls": ("screen",),
    "qseries.substitute.self_s": ("screen",),
    "qseries.parse.self_s": ("extend",),
    "qseries.emit.self_s": ("extend",),
    "modeq.mpoly_io.self_s": ("extend",),
    "modeq.build.calls": ("screen", "extend"),
    "modeq.build.self_s": ("screen", "extend"),
    "modeq.build.fail": ("screen",),
    "modeq.express.calls": ("screen", "extend"),
    "modeq.express.self_s": ("screen", "extend"),
    "modeq.verify.calls": ("screen", "extend"),
    "modeq.verify.self_s": ("screen", "extend"),
    "modeq.evaluate.calls": ("extend",),
    "modeq.evaluate.self_s": ("extend",),
    "hauptmodul.classify.self_s": ("screen",),
    "hauptmodul.bootstrap.self_s": ("extend",),
    "hauptmodul.bootstrap.steps": ("extend",),
    "braid.lift.calls": ("group",),
    "braid.lift.self_s": ("group",),
    "braid.extended_mul.calls": ("group",),
    "braid.table.calls": ("group",),
    "braid.table.self_s": ("group",),
    "braid.quilt.self_s": ("group",),
    "braid.dedekind.self_s": ("group",),
    "matrices.mul.calls": ("group",),
    "numeric.eisenstein.calls": ("group",),
    "numeric.eisenstein.self_s": ("group",),
    "numeric.eisenstein.points": ("group",),
    "numeric.eta.self_s": ("group",),
    "numeric.eval.self_s": ("group",),
    "corpus.load.self_s": ("screen", "group"),
    "corpus.oracle.self_s": ("screen", "extend"),
    "report.render.calls": ("screen", "group"),
    "report.render.self_s": ("screen", "group"),
    "cli.main.self_s": ("screen", "extend", "group"),
    "cli.main.fail": ("screen", "group"),
    "trace.overhead_ratio": ("screen", "extend", "group"),
}

# Bypass predictions that hold exactly: the braid layer is never entered
# by the series workloads, and the series kernels never by group.
BYPASSED = {
    "screen": ("braid.lift.calls", "braid.extended_mul.calls", "braid.table.calls",
               "numeric.eisenstein.calls", "modeq.evaluate.calls"),
    "extend": ("braid.lift.calls", "braid.extended_mul.calls", "braid.table.calls",
               "numeric.eisenstein.calls"),
    "group": ("exactnum.mul.calls_cyc", "qseries.mul.calls", "modeq.verify.calls",
              "modeq.evaluate.calls"),
}

_CACHE: dict[tuple[str, int], dict] = {}


def traced(workload: str, seed: int = 7) -> dict:
    key = (workload, seed)
    if key not in _CACHE:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            rc = run.main(["--workload", workload, "--seed", str(seed),
                           "--seconds", "1", "--trace", "1"])
        assert rc == 0
        result = json.loads(out.getvalue().strip().split("\n")[-1])
        assert result["correct"], out.getvalue()
        _CACHE[key] = {k: v["value"] for k, v in result["metrics"].items()}
    return _CACHE[key]


def test_every_listed_metric_is_reported():
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        listed = {m["name"] for m in json.load(fh)["per_layer"]}
    assert listed == set(MECHANISM)
    assert set(traced("group")) == listed


def test_metrics_are_nonzero_on_their_mechanism_workload():
    zero = [(name, w) for name, workloads in MECHANISM.items()
            for w in workloads if not traced(w)[name] > 0]
    assert not zero, f"metrics reading zero where their layer runs: {zero}"


def test_bypassed_layers_read_zero():
    busy = [(w, name) for w, names in BYPASSED.items() for name in names if traced(w)[name]]
    assert not busy, f"layers entered by a workload that should bypass them: {busy}"


def test_counts_repeat_for_the_same_seed():
    for workload in ("screen", "extend", "group"):
        first = traced(workload)
        _CACHE.pop((workload, 7))
        second = traced(workload)
        counts = [name for name in first if run.per_layer_unit(name) == "count"]
        assert {n: first[n] for n in counts} == {n: second[n] for n in counts}, workload


if __name__ == "__main__":
    failed = 0
    for name, fn in sorted(globals().items()):
        if name.startswith("test_") and callable(fn):
            try:
                fn()
                print(f"PASS {name}")
            except AssertionError as exc:
                failed += 1
                print(f"FAIL {name}: {exc}")
    sys.exit(1 if failed else 0)
