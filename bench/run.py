#!/usr/bin/env python3
"""Benchmark driver for the g0wb command line.

    python3 bench/run.py --workload screen|extend|group --seed N --seconds S --trace 0|1

Run it from the root of a source checkout; it imports the package from
``src/``.  One process, one client, closed loop: each job is an in-process
call of ``g0wb.cli.main(argv)`` with stdout and stderr captured, and the
next job starts when the previous one returns.  The timed phase runs whole
blocks of jobs (see workloads.py) until ``--seconds`` have passed and at
least the workload's minimum number of blocks has run.  Every job's output
is checked as soon as it returns; the time spent checking is left out of
the timed phase.

With ``--trace 0`` the last line of stdout carries the end-to-end metrics;
with ``--trace 1`` it carries the per-layer metrics of a traced pass over a
fixed prefix of the job list (see tracer.py).  The lines before it give
provenance, job counts per kind, ``fail_ratio``, ``output_sha256`` and
every failed job.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import random
import resource
import shutil
import statistics
import sys
import time
from dataclasses import dataclass

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")
OUT = os.path.join(ROOT, ".bench_out")
SETUP_REPEATS = 5
# Blocks generated per set-up; a longer timed phase cycles through them.
GENERATED_BLOCKS = 12

sys.path.insert(0, HERE)
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

END_TO_END_UNITS = {
    "jobs_per_s": "jobs/s",
    "job_s_p50": "s",
    "job_s_p90": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def per_layer_unit(name: str) -> str:
    if name.endswith("self_s"):
        return "s"
    if name.endswith(("ratio", "share", "max_conductor")):
        return "1"
    return "count"


def _purge_package() -> None:
    for name in [n for n in sys.modules if n == "g0wb" or n.startswith("g0wb.")]:
        del sys.modules[name]


def set_up(workload: str, seed: int, workdir: str, blocks: int, tracer=None):
    """Import the package afresh and build the workload's inputs.

    Returns the fixture, the cli module and the seconds taken from just
    before ``import g0wb`` to the end of the set-up.
    """
    _purge_package()
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    t0 = time.perf_counter()
    import g0wb  # noqa: F401
    import g0wb.cli as cli
    if tracer is not None:
        tracing.install(tracer)
    try:
        fixture = workloads.WORKLOADS[workload](random.Random(seed), workdir, ROOT, blocks)
    finally:
        if tracer is not None:
            tracer.restore()
    return fixture, cli, time.perf_counter() - t0


def run_job(cli, job):
    out, err = io.StringIO(), io.StringIO()
    escaped = None
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(job.argv)
        except SystemExit as exc:  # argparse exits on a usage error
            rc = exc.code if isinstance(exc.code, int) else 0 if exc.code is None else 1
        except Exception as exc:  # an escaped exception is a counted failure
            rc, escaped = None, f"{type(exc).__name__}: {exc}"
    return time.perf_counter() - t0, rc, out.getvalue(), err.getvalue(), escaped


def judge(job, rc, out, err, escaped) -> str | None:
    """None for a correct job, else why it failed."""
    if escaped is not None:
        return f"exception escaped cli.main: {escaped}"
    if rc not in (0, 1, 2, 3):
        return f"exit code {rc} outside the 0/1/2/3 contract"
    if rc not in job.expect_rc:
        return f"exit code {rc}, expected {'/'.join(map(str, job.expect_rc))}"
    return job.check(rc, out, err)


@dataclass
class Pass:
    """What a run over whole blocks leaves once its outputs are judged."""

    durations: list[tuple[float, str]]  # (seconds, job kind) per job
    failures: list[tuple[workloads.Job, str]]
    digest: str
    wall: float
    blocks: int


def run_blocks(cli, fixture, count=None, seconds=0.0, tracer=None) -> Pass:
    """Run whole blocks: ``count`` of them, or until ``seconds`` have passed
    and at least ``fixture.min_blocks`` have run.

    Each job is judged as soon as it returns and its output is then dropped,
    so the harness holds no outputs; the judging time is left out of the
    wall time and of the deadline.
    """
    durations, failures = [], []
    digest = hashlib.sha256()
    judging = 0.0
    t0 = time.perf_counter()
    b = 0
    while (b < count) if count is not None else (
            b < fixture.min_blocks or time.perf_counter() - t0 - judging < seconds):
        for job in fixture.blocks[b % len(fixture.blocks)]:
            if tracer is not None:
                tracer.job = len(durations)
            dt, rc, out, err, escaped = run_job(cli, job)
            t1 = time.perf_counter()
            reason = judge(job, rc, out, err, escaped)
            if reason is not None:
                failures.append((job, reason))
            if b < fixture.min_blocks:
                digest.update(out.encode() + b"\0")
            durations.append((dt, job.kind))
            judging += time.perf_counter() - t1
        b += 1
    return Pass(durations, failures, digest.hexdigest(), time.perf_counter() - t0 - judging, b)


def git_sha() -> str:
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head, encoding="utf-8") as fh:
            ref = fh.read().strip()
        if not ref.startswith("ref: "):
            return ref
        with open(os.path.join(ROOT, ".git", ref[5:]), encoding="utf-8") as fh:
            return fh.read().strip()
    except OSError:
        return "unknown (not a git checkout)"


def source_sha256() -> str:
    """Digest of every file of the package, so a result names the program
    it measured even where there is no git metadata."""
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "g0wb")
    for dirpath, dirnames, filenames in sorted(os.walk(pkg)):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            h.update(os.path.relpath(path, pkg).encode() + b"\0")
            with open(path, "rb") as fh:
                h.update(fh.read() + b"\0")
    return h.hexdigest()


def report_failures(failures) -> bool:
    """Print every failure; True when each one is a documented defect."""
    for job, reason in failures[:50]:
        tag = f"known defect: {job.defect}" if job.defect else "UNDOCUMENTED"
        print(f"failed job [{tag}] {job.kind}: {' '.join(job.argv)[:160]} -- {reason}")
    if len(failures) > 50:
        print(f"... {len(failures) - 50} more failed jobs")
    return all(job.defect for job, _ in failures)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "g0wb", "cli.py")):
        sys.stderr.write(f"error: no g0wb sources under {SRC}; run from a source checkout\n")
        return 2
    sys.path.insert(0, SRC)
    os.chdir(ROOT)
    os.environ.pop("G0WB_DATA", None)
    workdir = os.path.join(WORK, f"{args.workload}-{os.getpid()}")
    try:
        if args.trace:
            return traced_run(args, workdir)
        return timed_run(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(WORK)


def provenance(args, traced: bool) -> dict:
    return {
        "python": platform.python_version(),
        "git_sha": git_sha(),
        "source_sha256": source_sha256(),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "traced": traced,
    }


def kind_counts(passes) -> dict[str, int]:
    counts: dict[str, int] = {}
    for p in passes:
        for _, kind in p.durations:
            counts[kind] = counts.get(kind, 0) + 1
    return dict(sorted(counts.items()))


def print_result(correct: bool, attempted: int, failed: int, metrics: dict, unit) -> None:
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": unit(k)} for k, v in metrics.items()},
    }))


def timed_run(args, workdir: str) -> int:
    setups = []
    for _ in range(SETUP_REPEATS):
        fixture, cli, seconds = set_up(args.workload, args.seed, workdir, GENERATED_BLOCKS)
        setups.append(seconds)
    run = run_blocks(cli, fixture, seconds=args.seconds)
    times = [d for d, _ in run.durations]
    attempted, failed = len(times), len(run.failures)
    metrics = {
        "jobs_per_s": (attempted - failed) / run.wall,
        "job_s_p50": statistics.median(times),
        "job_s_p90": statistics.quantiles(times, n=10)[-1],
        "setup_s": statistics.median(setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    correct = report_failures(run.failures)
    ranked = sorted(run.durations)
    detail = {
        "provenance": provenance(args, traced=False),
        "p50_kind": ranked[(attempted + 1) // 2 - 1][1],
        "p90_kind": ranked[min(attempted, int(0.9 * (attempted + 1))) - 1][1],
        "jobs_by_kind": kind_counts([run]),
        "blocks": run.blocks,
        "fail_ratio": failed / attempted,
        "output_sha256": run.digest,
        "output_sha256_blocks": fixture.min_blocks,
        "setup_s_samples": setups,
        "timed_wall_s": run.wall,
    }
    print("detail " + json.dumps(detail, sort_keys=True))
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {END_TO_END_UNITS[name]} ({attempted} jobs)")
    print(f"fail_ratio = {failed / attempted:.6g} 1 ({failed}/{attempted} jobs)")
    print_result(correct, attempted, failed, metrics, END_TO_END_UNITS.get)
    return 0


def traced_run(args, workdir: str) -> int:
    tracer = tracing.Tracer()
    fixture, cli, _ = set_up(args.workload, args.seed, workdir, GENERATED_BLOCKS, tracer)
    plain = run_blocks(cli, fixture, count=fixture.trace_blocks)
    tracing.install(tracer)
    try:
        traced = run_blocks(cli, fixture, count=fixture.trace_blocks, tracer=tracer)
    finally:
        tracer.restore()
    failures = plain.failures + traced.failures
    attempted = len(plain.durations) + len(traced.durations)
    metrics = tracing.layer_metrics(tracer)
    # both passes run the same jobs, so the ratio of rates is the wall ratio
    metrics["trace.overhead_ratio"] = plain.wall / traced.wall
    correct = report_failures(failures)
    os.makedirs(OUT, exist_ok=True)
    span_file = os.path.join(OUT, f"trace-{args.workload}.jsonl")
    header = {"provenance": provenance(args, traced=True),
              "jobs_by_kind": kind_counts([traced])}
    tracer.write(span_file, header)
    detail = dict(header, fail_ratio=len(failures) / attempted, output_sha256=traced.digest,
                  output_sha256_blocks=fixture.trace_blocks, spans=len(tracer.records),
                  span_file=os.path.relpath(span_file, ROOT))
    print("detail " + json.dumps(detail, sort_keys=True))
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {per_layer_unit(name)}")
    print_result(correct, attempted, len(failures), metrics, per_layer_unit)
    return 0


if __name__ == "__main__":
    sys.exit(main())
