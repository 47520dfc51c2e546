"""The argparse tree is built once and shared by every ``main`` call: the
shared parser must parse exactly as a fresh one, also from several threads
at once, and every subcommand must print and exit as with a fresh parser."""

import sys
import threading

import pytest

from g0wb import cli
from g0wb.cli import build_parser, main

ARGVS = [
    ["modpoly", "--series", "j.qexp", "--order", "2", "--generalised"],
    ["verify", "--series", "j.qexp", "--modpoly", "p.mpoly", "--order", "3"],
    ["classify", "--series", "g0_2.qexp", "--orders", "2,3"],
    ["bootstrap", "--series", "j.qexp", "--modpoly", "p.mpoly", "--order", "2",
     "--target", "40", "--out", "x.qexp"],
    ["replicate", "--series", "a", "--square", "b", "--k-max", "3"],
    ["avg", "--series", "j.qexp", "--prime", "5", "--express"],
    ["member", "--matrix", "1,0,2,1", "--level", "2", "--flavor", "gamma0"],
    ["eval", "--series", "j.qexp", "--tau", "0,1"],
    ["eta", "--tau", "0,1", "--terms", "40", "--law", "--matrix", "1,1,0,1"],
    ["eisenstein", "--k", "4", "--tau", "0,1", "--radius", "5"],
    ["braid", "lift", "--word", "s1 s2^-1"],
    ["quilt", "--group", "s3", "--start", "a,b"],
    ["kappa", "--terms", "30"],
]


def _serial():
    parser = build_parser()
    return [vars(parser.parse_args(argv)) for argv in ARGVS]


def test_threads_share_one_parser():
    expected = _serial()
    cli._parser.cache_clear()
    results = []
    barrier = threading.Barrier(4)

    def worker():
        barrier.wait()
        results.append([[vars(cli._parser().parse_args(argv)) for argv in ARGVS]
                        for _ in range(25)])

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
            assert not t.is_alive()
    finally:
        sys.setswitchinterval(interval)
    assert len(results) == 4
    for parsed in results:
        for namespaces in parsed:
            assert namespaces == expected


def _outcome(capsys, argv, fresh):
    if fresh:
        cli._parser.cache_clear()
    try:
        code = main(argv)
    except SystemExit as exc:
        code = ("exit", exc.code)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture()
def files(tmp_path, capsys):
    poly = tmp_path / "j2.mpoly"
    assert main(["modpoly", "--series", "data/j.qexp", "--order", "2",
                 "--out", str(poly)]) == 0
    capsys.readouterr()
    return {"poly": str(poly)}


def _jobs(files):
    return [
        ["modpoly", "--series", "data/j.qexp", "--order", "2"],
        ["verify", "--series", "data/j.qexp", "--modpoly", files["poly"], "--order", "2"],
        ["classify", "--series", "data/g0_2.qexp", "--orders", "2"],
        ["bootstrap", "--series", "data/j.qexp", "--modpoly", files["poly"],
         "--order", "2", "--target", "40"],
        ["replicate", "--series", "data/j.qexp", "--square", "data/j.qexp", "--k-max", "2"],
        ["avg", "--series", "data/j.qexp", "--prime", "3", "--express"],
        ["member", "--matrix", "1,0,2,1", "--level", "2", "--flavor", "gamma0"],
        ["eval", "--series", "data/j.qexp", "--tau", "0,1"],
        ["eta", "--tau", "0.1,1", "--terms", "40"],
        ["eisenstein", "--k", "4", "--tau", "0,1", "--radius", "4"],
        ["braid", "lift", "--word", "s1 s2^-1 s1"],
        ["quilt", "--group", "s3", "--start", "e,e"],
        ["kappa", "--terms", "30"],
        ["braid", "spin", "--word", "s1"],          # usage error from argparse
        ["member", "--matrix", "2,0,0,2", "--level", "2", "--flavor", "full"],
    ]


def test_every_subcommand_matches_a_fresh_parser(capsys, files):
    jobs = _jobs(files)
    assert {argv[0] for argv in jobs} == {name for name, *_ in cli._COMMANDS}
    for argv in jobs:
        fresh = _outcome(capsys, argv, fresh=True)
        shared = _outcome(capsys, argv, fresh=False)
        assert shared == fresh, argv
    assert _outcome(capsys, ["braid", "spin", "--word", "s1"], False)[0] == ("exit", 2)
