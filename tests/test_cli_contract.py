"""The command-line contract over all 13 subcommands: whatever the argv and
however an input file is corrupted, ``main`` exits 0, 1, 2 or 3 (argparse's
own usage exit is 2), writes at most one stderr line that starts with
``error: ``, ``failed: `` or ``usage error: `` and then nothing on stdout,
lets no exception escape, and never reports success with a NaN or an
infinity in its machine block."""

import contextlib
import io
import re

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from g0wb.braid import emit_group_table, symmetric_group_3
from g0wb.cli import main
from g0wb.corpus import normalized_j
from g0wb.errors import G0wbError, NonConvergent, NotUnimodular, UsageError
from g0wb.goldens import GOLDEN_ORDER2
from g0wb.modeq import emit_mpoly
from g0wb.qseries import emit_qexp

HUGE = "1" + "0" * 400
# the numbers every numeric option and matrix entry is drawn from, then a
# few small valid values so that the draws also reach the work itself
NUMBERS = ("0", "-1", "1e308", "inf", "nan", HUGE, "x")
SMALL = ("2", "3", "4")

_QEXP = emit_qexp(normalized_j(10), "J")


def _series_with(coefficient: str) -> str:
    return ("# qexp v1\nlabel: B\nconductor: 1\ndenom: 1\nlo: -1\ntrunc: 30\n"
            f"-1 1\n1 5\n22 {coefficient}\n")


# placeholder -> text of the input files every example can name; the three
# @BAD_* files are written per example from a corrupted copy of a good one
_FILES = {
    "@J": _QEXP,
    "@P": emit_mpoly(GOLDEN_ORDER2),
    "@S3": emit_group_table(symmetric_group_3()),
    "@BIG": _series_with("7" * 4300),
    "@BIG401": _series_with("9" * 401),
}
_CORRUPTED = {"@BAD_QEXP": "@J", "@BAD_MPOLY": "@P", "@BAD_TABLE": "@S3"}


@st.composite
def _corrupt(draw, text: str) -> bytes:
    lines = text.split("\n")
    i = draw(st.integers(0, len(lines) - 1))
    how = draw(st.sampled_from(("number", "junk", "drop", "bytes")))
    if how == "number":
        tokens = lines[i].split(" ")
        tokens[draw(st.integers(0, len(tokens) - 1))] = draw(st.sampled_from(NUMBERS))
        lines[i] = " ".join(tokens)
    elif how == "junk":
        lines[i] = draw(st.text(st.sampled_from("0123456789-+/z^: abc\t"), max_size=12))
    elif how == "drop":
        del lines[i]
    data = "\n".join(lines).encode()
    if how == "bytes":
        at = draw(st.integers(0, len(data)))
        data = data[:at] + b"\xff" + data[at:]
    return data


number = st.one_of(st.sampled_from(NUMBERS), st.sampled_from(SMALL))
series = st.sampled_from(("@J", "data/j.qexp", "@BAD_QEXP", "@BIG", "@BIG401", "missing.qexp"))
polynomial = st.sampled_from(("@P", "@BAD_MPOLY", "missing.mpoly"))
tau = st.tuples(number, number).map(",".join)
matrix = st.one_of(st.sampled_from(("0,-1,1,0", "1,1,0,1", "2,1,1,1", f"1,0,{HUGE},1")),
                   st.lists(number, min_size=3, max_size=5).map(",".join))
token = st.one_of(st.sampled_from(("s1", "s2", "s1^-1", "s3", "t")),
                  number.map(lambda n: f"s2^{n}"))
label = st.sampled_from(("e", "(12)", "(123)", "(13)", "x", ""))


def _opt(flag, values):
    return values.map(lambda v: [f"{flag}={v}"])


def _flag(name):
    return st.sampled_from(([], [name]))


def _command(name, *parts):
    """argv lists: the subcommand, then each part's list of words."""
    return st.tuples(*parts).map(lambda chosen: [name] + [w for part in chosen for w in part])


_SERIES = _opt("--series", series)
_ORDER = _opt("--order", number)
_LAW = st.one_of(st.just([]), st.just(["--law"]),
                 _opt("--matrix", matrix).map(lambda m: ["--law"] + m))

COMMANDS = st.one_of(
    _command("modpoly", _SERIES, _ORDER, _flag("--generalised")),
    _command("verify", _SERIES, _opt("--modpoly", polynomial), _ORDER, _flag("--generalised")),
    _command("classify", _SERIES, _opt("--orders", st.lists(number, max_size=3).map(",".join))),
    _command("bootstrap", _SERIES, _opt("--modpoly", polynomial), _ORDER, _opt("--target", number)),
    _command("replicate", _SERIES, _opt("--square", series), _opt("--k-max", number)),
    _command("avg", _SERIES, _opt("--prime", number), _flag("--express")),
    _command("member", _opt("--matrix", matrix), _opt("--level", number),
             _opt("--flavor", st.sampled_from(("gamma0", "gamma1", "full", "other")))),
    _command("eval", _SERIES, _opt("--tau", tau)),
    _command("eta", _opt("--tau", tau), st.one_of(st.just([]), _opt("--terms", number)), _LAW),
    _command("eisenstein", _opt("--k", number), _opt("--tau", tau), _opt("--radius", number),
             _LAW),
    _command("braid", st.sampled_from((["burau"], ["degree"], ["multiplier"], ["lift"])),
             _opt("--word", st.lists(token, max_size=4).map(" ".join))),
    _command("quilt", _opt("--group", st.sampled_from(("s3", "z2", "@S3", "@BAD_TABLE"))),
             _opt("--start", st.one_of(label, st.tuples(label, label).map(",".join)))),
    _command("kappa", st.one_of(st.just([]), _opt("--terms", number))),
)


@st.composite
def _cases(draw):
    return draw(COMMANDS), {name: draw(_corrupt(_FILES[good]))
                            for name, good in _CORRUPTED.items()}


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    root = tmp_path_factory.mktemp("contract")
    for name, text in _FILES.items():
        (root / name[1:]).write_text(text, encoding="utf-8")
    return root


def _machine_block(out: str) -> list[str]:
    lines = out.split("\n")
    return lines[len(lines) - lines[::-1].index("---"):] if "---" in lines else []


def _case(*argv):
    """An @example of an argv that uses only the uncorrupted files."""
    return {"case": (list(argv), {})}


@settings(max_examples=300, deadline=2000, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(case=_cases())
@example(**_case("eval", "--series", "data/j.qexp", "--tau=0,120"))
@example(**_case("eval", "--series", "@BIG401", "--tau=0,1"))
@example(**_case("eta", "--tau=0,1", "--law", f"--matrix=1,0,{HUGE},1"))
@example(**_case("eisenstein", "--k", "4", "--radius", "2", "--tau=0,1", "--law",
                      f"--matrix=1,0,{HUGE},1"))
@example(**_case("eta", "--tau=1e308,1"))
@example(**_case("eval", "--series", "data/j.qexp", "--tau=inf,1"))
@example(**_case("eval", "--series", "data/j.qexp", "--tau=nan,1"))
@example(**_case("eta", "--tau=inf,1"))
@example(**_case("eta", "--tau=nan,1"))
@example(**_case("eisenstein", "--k", "4", "--radius", "2", "--tau=1e308,1"))
@example(**_case("eisenstein", "--k", "4", "--radius", "2", "--tau=0,1e300"))
@example(**_case("avg", "--series", "@BIG", "--prime", "11"))
@example(**_case("classify", "--series", "@BIG", "--orders", "2"))
def test_every_subcommand_keeps_the_exit_contract(files, case):
    argv, corrupted = case
    for name, data in corrupted.items():
        (files / name[1:]).write_bytes(data)
    argv = [re.sub(r"(^|=)@(\w+)", lambda m: m.group(1) + str(files / m.group(2)), a)
            for a in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse refuses the argv itself
            assert exc.code == 2
            return
    out, err = out.getvalue(), err.getvalue()
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in err
    if err:
        assert err.count("\n") == 1 and err.endswith("\n")
        assert err.startswith(("error: ", "failed: ", "usage error: "))
        assert out == ""
    if code == 0:
        for line in _machine_block(out):
            assert not re.search(r"(?i)\b(nan|inf)\b", line), line


def test_usage_error_is_the_one_refusal_type():
    assert issubclass(UsageError, ValueError) and issubclass(UsageError, G0wbError)
    assert issubclass(NonConvergent, UsageError) and issubclass(NotUnimodular, UsageError)


@pytest.mark.parametrize("argv", [("classify", "--orders", "2", "--series"),
                                  ("quilt", "--start", "e,e", "--group"),
                                  ("classify", "--orders", "2", "--series", "data/j.qexp")],
                         ids=["series", "group table", "corpus override"])
def test_undecodable_file_is_a_data_error(tmp_path, capsys, monkeypatch, argv):
    (tmp_path / "j.qexp").write_bytes(_QEXP.encode().replace(b"label: J", b"label: \xff"))
    monkeypatch.setenv("G0WB_DATA", str(tmp_path))
    if argv[-1] != "data/j.qexp":
        argv += (str(tmp_path / "j.qexp"),)
    code = main(list(argv))
    out, err = capsys.readouterr()
    assert (code, out) == (3, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    assert err.endswith("j.qexp is not UTF-8 text: invalid start byte at byte 17\n")
