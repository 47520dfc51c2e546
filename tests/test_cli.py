import time
from importlib import resources

import pytest

from g0wb.braid import BraidWord, burau, emit_group_table, sigma_class, symmetric_group_3
from g0wb.cli import main
from g0wb.corpus import PUBLISHED_PREFIXES, load_entry, normalized_j
from g0wb.errors import ParseError
from g0wb.exactnum import CyclotomicNumber
from g0wb.goldens import GOLDEN_ORDER2
from g0wb.hauptmodul import classify
from g0wb.modeq import build_modular_polynomial, emit_mpoly, parse_mpoly
from g0wb.qseries import PuiseuxSeries, emit_qexp, parse_qexp
from g0wb.report import render


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def machine_block(out: str) -> dict:
    tail = out.rsplit("---\n", 1)[1]
    pairs = {}
    for line in tail.strip().split("\n"):
        key, _, value = line.partition("=")
        pairs[key] = value
    return pairs


@pytest.fixture()
def j_path(tmp_path):
    entry = load_entry("j")
    path = tmp_path / "j.qexp"
    path.write_text(emit_qexp(entry.series, entry.meta.label), encoding="utf-8")
    return str(path)


class TestClassify:
    def test_bundled_by_conventional_path(self, capsys):
        code, out, _ = run(capsys, "classify", "--series", "data/j.qexp",
                           "--orders", "2,3")
        assert code == 0
        assert machine_block(out)["verdict"] == "hauptmodul-candidate"

    def test_machine_block_matches_library(self, capsys, j_path, corpus_j):
        code, out, _ = run(capsys, "classify", "--series", j_path, "--orders", "2,3")
        assert code == 0
        expected = dict(render(classify(corpus_j, {2, 3})).machine)
        got = machine_block(out)
        for key, value in expected.items():
            assert got[key] == value

    def test_fiction_exit_zero(self, capsys, tmp_path):
        path = tmp_path / "f.qexp"
        path.write_text(emit_qexp(PuiseuxSeries.make({-1: 1, 1: 1}, trunc=40),
                                  "cosine"), encoding="utf-8")
        code, out, _ = run(capsys, "classify", "--series", str(path), "--orders", "2")
        assert code == 0
        assert machine_block(out)["verdict"] == "fiction"

    def test_inconsistent_exit_one(self, capsys, tmp_path):
        path = tmp_path / "x.qexp"
        path.write_text(emit_qexp(PuiseuxSeries.make({-1: 1, 1: 2}, trunc=40),
                                  "twoq"), encoding="utf-8")
        code, out, _ = run(capsys, "classify", "--series", str(path), "--orders", "2")
        assert code == 1
        assert machine_block(out)["verdict"] == "inconsistent"


class TestModpolyVerifyRoundtrip:
    def test_build_write_verify(self, capsys, tmp_path, j_path):
        out_path = str(tmp_path / "f2.mpoly")
        code, out, _ = run(capsys, "modpoly", "--series", j_path, "--order", "2",
                           "--out", out_path)
        assert code == 0
        with open(out_path, encoding="utf-8") as fh:
            text = fh.read()
        assert text == emit_mpoly(GOLDEN_ORDER2)
        code, out, _ = run(capsys, "verify", "--series", j_path,
                           "--modpoly", out_path, "--order", "2")
        assert code == 0
        assert machine_block(out)["status"] == "consistent"

    def test_modpoly_stdout_is_pure_format(self, capsys, j_path):
        code, out, _ = run(capsys, "modpoly", "--series", j_path, "--order", "2")
        assert code == 0
        assert out == emit_mpoly(GOLDEN_ORDER2)

    def test_verify_mismatch_exit_one(self, capsys, tmp_path, j_path):
        fiction_path = tmp_path / "fic.qexp"
        fiction_path.write_text(
            emit_qexp(PuiseuxSeries.make({-1: 1, 1: 1}, trunc=40), "cosine"),
            encoding="utf-8")
        poly_path = str(tmp_path / "f2.mpoly")
        run(capsys, "modpoly", "--series", j_path, "--order", "2", "--out", poly_path)
        code, out, _ = run(capsys, "verify", "--series", str(fiction_path),
                           "--modpoly", poly_path, "--order", "2")
        assert code == 1
        block = machine_block(out)
        assert block["status"] == "inconsistent"
        assert "failure_exponent" in block

    def test_shallow_series_is_data_error(self, capsys, tmp_path):
        path = tmp_path / "short.qexp"
        path.write_text(emit_qexp(PuiseuxSeries.moonshine([196884]), "stub"),
                        encoding="utf-8")
        code, _, err = run(capsys, "modpoly", "--series", str(path), "--order", "2")
        assert code == 3
        assert "q^17" in err


class TestFieldOfTheSeries:
    """modpoly declares its polynomial over the conductor of the series; to
    write it over a larger Q[xi_N], declare the series with conductor N."""

    @staticmethod
    def h3(depth=40):
        # xi_3 * J(tau + 1/3) = q^-1 + sum_k c_k(J) xi_3^(k+1) q^k
        return PuiseuxSeries.make(
            {k: c * CyclotomicNumber.root_of_unity(3, k + 1)
             for k, c in normalized_j(depth).coeffs.items()}, trunc=depth, conductor=3)

    def test_larger_declared_field_is_the_polynomials_field(self, capsys, tmp_path):
        h3 = self.h3()
        paths = {}
        for conductor in (3, 12):
            paths[conductor] = tmp_path / f"h3_{conductor}.qexp"
            paths[conductor].write_text(
                emit_qexp(h3.with_conductor(conductor), "h3"), encoding="utf-8")
        code, out, err = run(capsys, "modpoly", "--series", str(paths[12]), "--order", "4")
        assert (code, err) == (0, "")
        assert out.split("\n")[2] == "conductor: 12"
        poly = parse_mpoly(out)
        assert poly.conductor == 12
        assert poly == build_modular_polynomial(h3, 4)
        poly_path = tmp_path / "h3.mpoly"
        poly_path.write_text(out, encoding="utf-8")
        for path in paths.values():
            code, out, _ = run(capsys, "verify", "--series", str(path),
                               "--modpoly", str(poly_path), "--order", "4")
            assert code == 0
            assert machine_block(out)["status"] == "consistent"

    def test_conductor_flag_is_unrecognised(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["modpoly", "--series", "data/j.qexp", "--order", "2", "--conductor", "3"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "unrecognized arguments: --conductor 3" in err
        assert "Traceback" not in err


class TestBootstrap:
    def test_roundtrip_through_cli(self, capsys, tmp_path, j_path, corpus_j):
        seed_path = tmp_path / "seed.qexp"
        seed_path.write_text(
            emit_qexp(corpus_j.truncate(3), "J"), encoding="utf-8")
        poly_path = str(tmp_path / "f2.mpoly")
        run(capsys, "modpoly", "--series", j_path, "--order", "2", "--out", poly_path)
        out_path = str(tmp_path / "extended.qexp")
        code, _, _ = run(capsys, "bootstrap", "--series", str(seed_path),
                         "--modpoly", poly_path, "--order", "2",
                         "--target", "50", "--out", out_path)
        assert code == 0
        with open(out_path, encoding="utf-8") as fh:
            text = fh.read()
        series, label = parse_qexp(text)
        assert series.coefficient(50) == corpus_j.coefficient(50)
        # byte-exact round trip of the written artifact
        assert emit_qexp(series, label) == text

    def test_corrupted_seed_exit_one(self, capsys, tmp_path, j_path):
        seed_path = tmp_path / "bad.qexp"
        seed_path.write_text(
            emit_qexp(PuiseuxSeries.moonshine([196885, 21493760, 864299970]), "J"),
            encoding="utf-8")
        poly_path = str(tmp_path / "f2.mpoly")
        run(capsys, "modpoly", "--series", j_path, "--order", "2", "--out", poly_path)
        code, _, err = run(capsys, "bootstrap", "--series", str(seed_path),
                           "--modpoly", poly_path, "--order", "2",
                           "--target", "6")
        assert code == 1


class TestSmallCommands:
    def test_replicate(self, capsys, j_path):
        code, out, _ = run(capsys, "replicate", "--series", j_path,
                           "--square", j_path, "--k-max", "5")
        assert code == 0
        assert machine_block(out)["all"] == "true"

    def test_avg_express(self, capsys, j_path):
        code, out, _ = run(capsys, "avg", "--series", j_path, "--prime", "2",
                           "--express")
        assert code == 0
        assert machine_block(out)["expressed"] == "x^2-393768"

    def test_member(self, capsys):
        code, out, _ = run(capsys, "member", "--matrix", "1,0,2,1",
                           "--level", "2", "--flavor", "gamma0")
        assert code == 0 and machine_block(out)["member"] == "true"
        code, out, _ = run(capsys, "member", "--matrix", "0,-1,1,0",
                           "--level", "2", "--flavor", "gamma0")
        assert code == 0 and machine_block(out)["member"] == "false"

    def test_member_rejects_non_unimodular(self, capsys):
        code, _, err = run(capsys, "member", "--matrix", "2,0,0,2",
                           "--level", "2", "--flavor", "gamma0")
        assert code == 2

    def test_eval(self, capsys, j_path):
        # at the self-dual point the normalized generator takes the value
        # 1728 - 744 = 984
        code, out, _ = run(capsys, "eval", "--series", j_path, "--tau", "0,1")
        assert code == 0
        block = machine_block(out)
        assert abs(float(block["value_re"]) - 984.0) < 1e-6
        assert abs(float(block["value_im"])) < 1e-6

    def test_eta_law_pass(self, capsys):
        code, out, _ = run(capsys, "eta", "--tau", "0,1", "--law",
                           "--matrix", "1,0,1,1")
        assert code == 0 and machine_block(out)["law"] == "pass"

    def test_eisenstein_law(self, capsys):
        code, out, _ = run(capsys, "eisenstein", "--k", "4", "--tau", "0,2",
                           "--radius", "60", "--law", "--matrix", "0,-1,1,0")
        assert code == 0 and machine_block(out)["law"] == "pass"

    def test_braid_lift_example(self, capsys):
        code, out, _ = run(capsys, "braid", "lift", "--word",
                           "s1 s2 s1 s1 s2 s1 s1 s2 s1 s1 s2 s1")
        assert code == 0
        block = machine_block(out)
        assert block["matrix"] == "1,0,0,1"
        assert block["n"] == "4"

    def test_braid_burau_degree_multiplier(self, capsys):
        code, out, _ = run(capsys, "braid", "burau", "--word", "s1 s2 s1")
        assert machine_block(out)["matrix"] == "0,1,-1,0"
        code, out, _ = run(capsys, "braid", "degree", "--word", "s1 s2^-1")
        assert machine_block(out)["degree"] == "0"
        code, out, _ = run(capsys, "braid", "multiplier", "--word", "s1")
        assert machine_block(out)["multiplier"] == "z"

    def test_quilt_from_file(self, capsys, tmp_path):
        path = tmp_path / "s3.gtab"
        path.write_text(emit_group_table(symmetric_group_3()), encoding="utf-8")
        code, out, _ = run(capsys, "quilt", "--group", str(path),
                           "--start", "(12),(123)")
        assert code == 0
        assert machine_block(out)["orbit_size"] == "9"

    def test_quilt_unknown_label_is_usage_error(self, capsys):
        code, out, err = run(capsys, "quilt", "--group", "s3", "--start", "(12),(99)")
        assert code == 2
        assert out == ""
        assert err.startswith("usage error:") and err.count("\n") == 1
        assert "(99)" in err

    def test_braid_lift_huge_exponent_is_fast(self, capsys):
        start = time.perf_counter()
        code, out, _ = run(capsys, "braid", "lift", "--word", "s2^1000000000")
        elapsed = time.perf_counter() - start
        assert code == 0
        block = machine_block(out)
        projection = burau(BraidWord.parse("s2^1000000000"))
        assert block["matrix"] == f"{projection.a},{projection.b},{projection.c},{projection.d}"
        assert int(block["n"]) % 4 == sigma_class(projection)
        assert elapsed < 0.5

    def test_kappa_selection(self, capsys):
        code, out, _ = run(capsys, "kappa", "--terms", "80")
        assert code == 0
        assert machine_block(out)["winner"] == "1/4"


class TestErrors:
    def test_missing_file_is_data_error(self, capsys):
        code, _, err = run(capsys, "classify", "--series", "nope.qexp",
                           "--orders", "2")
        assert code == 3
        assert "no such series" in err

    def test_unknown_flag_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["classify", "--bogus"])
        assert exc.value.code == 2

    def test_data_dir_override(self, capsys, tmp_path, monkeypatch, corpus_j):
        (tmp_path / "mine.qexp").write_text(
            emit_qexp(corpus_j.truncate(20), "J"), encoding="utf-8")
        monkeypatch.setenv("G0WB_DATA", str(tmp_path))
        code, out, _ = run(capsys, "eval", "--series", "mine.qexp", "--tau", "0,1")
        assert code == 0


def _edit_line(text, index, line):
    lines = text.split("\n")
    lines[index] = line
    return "\n".join(lines)


def _series_with(coefficient):
    """q^-1 + 5q + c q^22, determined through q^30."""
    return ("# qexp v1\nlabel: B\nconductor: 1\ndenom: 1\nlo: -1\ntrunc: 30\n"
            f"-1 1\n1 5\n22 {coefficient}\n")


_MPOLY = emit_mpoly(GOLDEN_ORDER2)
_LAST_MONOMIAL = len(_MPOLY.split("\n")) - 2
_QEXP = emit_qexp(normalized_j(10), "J")
_S3 = emit_group_table(symmetric_group_3())
_J_QEXP = (resources.files("g0wb") / "data" / "j.qexp").read_text("utf-8")

# name -> text of each input file a refusal row reads
_REFUSAL_FILES = {
    "mp_magic.mpoly": _edit_line(_MPOLY, 0, "# mpoly v2"),
    "mp_header.mpoly": _edit_line(_MPOLY, 2, "cond: 1"),
    "mp_nonint.mpoly": _edit_line(_MPOLY, 3, "degx: three"),
    "mp_fields.mpoly": _edit_line(_MPOLY, 5, "0 1"),
    "mp_exponents.mpoly": _edit_line(_MPOLY, 5, "a 1 5"),
    "mp_duplicate.mpoly": _edit_line(_MPOLY, 6, _MPOLY.split("\n")[5]),
    "mp_outside.mpoly": _edit_line(_MPOLY, _LAST_MONOMIAL, "9 9 1"),
    "mp_zero.mpoly": _edit_line(_MPOLY, _LAST_MONOMIAL,
                                _MPOLY.split("\n")[_LAST_MONOMIAL].rsplit(" ", 1)[0] + " 0"),
    "wrong_degree.mpoly": _MPOLY.replace("order: 2", "order: 3"),
    "order2.mpoly": _MPOLY,
    # psi(4) = psi(5) = 6, so only the header tells this from an order-4 polynomial
    "order5.mpoly": emit_mpoly(build_modular_polynomial(load_entry("j").series, 5)),
    "q_blank.qexp": _edit_line(_QEXP, 7, ""),
    "q_fields.qexp": _edit_line(_QEXP, 7, "1"),
    "q_numerator.qexp": _edit_line(_QEXP, 7, "x 196884"),
    "q_below.qexp": _edit_line(_QEXP, 6, "-2 1"),
    "q_above.qexp": _edit_line(_QEXP, _QEXP.count("\n") - 1, "11 1"),
    "j1.qexp": emit_qexp(normalized_j(1), "J"),
    "nonmoonshine.qexp": emit_qexp(PuiseuxSeries.make({-2: 1, 1: 5}, trunc=40), "N"),
    "fractional.qexp": emit_qexp(PuiseuxSeries.make({-2: 1, 1: 5}, trunc=40, denom=2), "F"),
    "shallow.qexp": emit_qexp(normalized_j(6), "J"),
    "j3.qexp": emit_qexp(normalized_j(3), "J"),
    "g0_2_q5.qexp": emit_qexp(load_entry("g0_2").series.truncate(5), "J_Gamma0_2"),
    "g_header.table": _edit_line(_S3, 0, "n: 6"),
    "g_order.table": _edit_line(_S3, 0, "order: six"),
    "g_zero.table": _edit_line(_S3, 0, "order: 0"),
    "g_rows.table": "\n".join(_S3.split("\n")[:-2]),
    "g_entries.table": _edit_line(_S3, 2, _S3.split("\n")[2] + " e"),
    "g_distinct.table": _edit_line(_S3, 1, " ".join(["e"] * 6)),
    "g_label.table": _edit_line(_S3, 3, _S3.split("\n")[3].replace("e", "zz")),
    "g_inverse.table": "order: 2\ne a\na a\n",
    "g_associative.table": "order: 3\ne a b\na e a\nb b e\n",
    "j24.qexp": _J_QEXP.replace("conductor: 1\n", "conductor: 24\n"),
    "j24_xi.qexp": _J_QEXP.replace("conductor: 1\n", "conductor: 24\n").replace(
        "\n1 196884\n", "\n1 196884z\n"),
    "order2_24.mpoly": _edit_line(_MPOLY, 2, "conductor: 24"),
    "big.qexp": _series_with("7" * 4300),
    "big401.qexp": _series_with("9" * 401),
}

_VERIFY = ("verify", "--series", "data/j.qexp", "--order", "2", "--modpoly")
_CLASSIFY = ("classify", "--orders", "2", "--series")
_QUILT = ("quilt", "--start", "e,e", "--group")
_LAW = ("--tau", "0,1", "--law")


class TestRefusals:
    """Each malformed input or option is refused with one error line, an
    empty stdout and its documented exit code."""

    @pytest.mark.parametrize("argv, code, reason", [
        (_VERIFY + ("mp_magic.mpoly",), 3, "magic line"),
        (_VERIFY + ("mp_header.mpoly",), 3, "expected 'conductor:' header"),
        (_VERIFY + ("mp_nonint.mpoly",), 3, "bad integer in 'degx' header"),
        (_VERIFY + ("mp_fields.mpoly",), 3, "expected '<i> <j> <coefficient>'"),
        (_VERIFY + ("mp_exponents.mpoly",), 3, "bad monomial exponents"),
        (_VERIFY + ("mp_duplicate.mpoly",), 3, "out of order or duplicated"),
        (_VERIFY + ("mp_outside.mpoly",), 3, "outside declared degrees"),
        (_VERIFY + ("mp_zero.mpoly",), 3, "explicit zero"),
        (_VERIFY + ("missing.mpoly",), 3, "no such polynomial file"),
        (_CLASSIFY + ("q_blank.qexp",), 3, "blank line"),
        (_CLASSIFY + ("q_fields.qexp",), 3, "expected '<numerator> <coefficient>'"),
        (_CLASSIFY + ("q_numerator.qexp",), 3, "bad exponent numerator"),
        (_QUILT + ("g_header.table",), 3, "missing 'order: n' header"),
        (_QUILT + ("g_order.table",), 3, "bad order header"),
        (_QUILT + ("g_zero.table",), 3, "not positive"),
        (_QUILT + ("g_rows.table",), 3, "table rows"),
        (_QUILT + ("g_entries.table",), 3, "row has 7 entries"),
        (_QUILT + ("g_distinct.table",), 3, "distinct elements"),
        (_QUILT + ("g_label.table",), 3, "unknown label"),
        (_QUILT + ("g_inverse.table",), 3, "no inverse"),
        (_QUILT + ("g_associative.table",), 3, "not associative"),
        (("eval", "--series", "data/j.qexp", "--tau", "0"), 3, "tau must be RE,IM"),
        (("eval", "--series", "data/j.qexp", "--tau", "a,b"), 3, "bad tau"),
        (("eta",) + _LAW, 3, "--law needs --matrix"),
        (("eisenstein", "--k", "4", "--radius", "20") + _LAW, 3, "--law needs --matrix"),
        (("quilt", "--group", "s3", "--start", "e"), 3, "--start must be g,h"),
        (("eta",) + _LAW + ("--matrix", "1,0,1"), 3, "four entries"),
        (("member", "--matrix", "1,0,x,1", "--level", "4", "--flavor", "gamma0"), 3,
         "bad matrix entry"),
        (("member", "--matrix", "1,0,4,1", "--level", "0", "--flavor", "gamma0"), 2,
         "level must be >= 1"),
        (("eta", "--tau", "0,1", "--terms", "0"), 2, "product factor"),
        (("eisenstein", "--k", "4", "--tau", "0,1", "--radius", "0"), 2, "radius must be >= 1"),
        (("verify", "--series", "data/j.qexp", "--modpoly", "wrong_degree.mpoly",
          "--order", "3"), 3, "!= psi(3) = 4"),
        (("bootstrap", "--series", "shallow.qexp", "--modpoly", "wrong_degree.mpoly",
          "--order", "3", "--target", "30"), 3, "polynomial degrees (3, 3) != psi(3) = 4"),
        (("verify", "--series", "nonmoonshine.qexp", "--modpoly", "order2.mpoly",
          "--order", "2"), 3, "verification needs q^-1"),
        (("modpoly", "--series", "nonmoonshine.qexp", "--order", "2"), 3,
         "construction needs q^-1"),
        (("bootstrap", "--series", "nonmoonshine.qexp", "--modpoly", "order2.mpoly",
          "--order", "2", "--target", "30"), 3, "seed"),
        (("avg", "--series", "nonmoonshine.qexp", "--prime", "2", "--express"), 3,
         "generator must be q^-1"),
        (("avg", "--series", "fractional.qexp", "--prime", "2"), 3, "integral exponents"),
        (("eval", "--series", "data/j.qexp", "--tau", "0,120"), 2, "does not fit in a double"),
        (("eval", "--series", "big401.qexp", "--tau", "0,1"), 2, "does not fit in a double"),
        (("eta",) + _LAW + ("--matrix", f"1,0,{10**400},1"), 2, "does not fit in a double"),
        (("eisenstein", "--k", "4", "--radius", "2") + _LAW + ("--matrix", f"1,0,{10**400},1"),
         2, "does not fit in a double"),
        (("eta", "--tau", "1e308,1"), 2, "does not fit in a double"),
        (("eval", "--series", "data/j.qexp", "--tau", "inf,1"), 3, "bad tau"),
        (("eval", "--series", "data/j.qexp", "--tau", "nan,1"), 3, "bad tau"),
        (("eta", "--tau", "inf,1"), 3, "bad tau"),
        (("eta", "--tau", "nan,1"), 3, "bad tau"),
        (("eisenstein", "--k", "4", "--radius", "2", "--tau", "1e308,1"), 2,
         "does not fit in a double"),
        (("eisenstein", "--k", "4", "--radius", "2", "--tau", "0,1e300"), 2,
         "does not fit in a double"),
        (("avg", "--series", "big.qexp", "--prime", "11"), 3, "4300-digit limit"),
        (_CLASSIFY + ("big.qexp",), 3, "4300-digit limit"),
        (("braid", "degree", "--word", f"s1^{'9' * 4300} s2^{'9' * 4300}"), 3,
         "4300-digit limit"),
        (("classify", "--series", "data/j.qexp", "--orders", "a"), 2,
         "invalid literal for int()"),
        (("classify", "--series", "data/j.qexp", "--orders", "0"), 2,
         "order 0 is below the smallest supported order 2"),
        (("modpoly", "--series", "data/j.qexp", "--order", "1"), 2,
         "order 1 is below the smallest supported order 2"),
        (("modpoly", "--series", "data/j.qexp", "--order", "0"), 2,
         "order 0 is below the smallest supported order 2"),
        (("bootstrap", "--series", "data/j.qexp", "--modpoly", "order2.mpoly",
          "--order", "2", "--target=-5"), 2, "target -5 is below the smallest supported target 0"),
        (("bootstrap", "--series", "data/j.qexp", "--modpoly", "order2.mpoly",
          "--order", "2", "--target=-1"), 2, "target -1 is below the smallest supported target 0"),
        (("verify", "--series", "j24.qexp", "--modpoly", "order2_24.mpoly", "--order", "2",
          "--generalised"), 2, "twisted construction needs gcd(m, 24) = 1"),
        (("verify", "--series", "j24_xi.qexp", "--modpoly", "order2_24.mpoly", "--order", "2",
          "--generalised"), 2, "twisted construction needs gcd(m, 24) = 1"),
        (("modpoly", "--series", "j24.qexp", "--order", "2", "--generalised"), 2,
         "twisted construction needs gcd(m, 24) = 1"),
        (("verify", "--series", "data/j.qexp", "--modpoly", "order5.mpoly", "--order", "4"), 2,
         "polynomial of order 5 given for order 4"),
        (("bootstrap", "--series", "data/j.qexp", "--modpoly", "order5.mpoly", "--order", "4",
          "--target", "80"), 2, "polynomial of order 5 given for order 4"),
        (_CLASSIFY + ("q_below.qexp",), 3, "line 7: exponent -2 outside [-1, 10]"),
        (_CLASSIFY + ("q_above.qexp",), 3, "exponent 11 outside [-1, 10]"),
        (("avg", "--series", "j1.qexp", "--prime", "5", "--express"), 3,
         "residual not determined through the constant term"),
        # a seed is re-verified even when the target lies inside it
        (("bootstrap", "--series", "data/g0_2.qexp", "--modpoly", "order2.mpoly",
          "--order", "2", "--target", "30"), 1,
         "fails re-verification at q^-2: expected -552, actual -393768"),
        (("bootstrap", "--series", "j3.qexp", "--modpoly", "order2.mpoly",
          "--order", "2", "--target", "3"), 3, "re-verifies only through"),
        # beyond the seed, the first block finds the failure first
        (("bootstrap", "--series", "g0_2_q5.qexp", "--modpoly", "order2.mpoly",
          "--order", "2", "--target", "20"), 1,
         "relation already fails at q^-4 (coefficient -393216) before a_6 can act"),
    ])
    def test_refused_with_one_line(self, capsys, tmp_path, argv, code, reason):
        for name, text in _REFUSAL_FILES.items():
            (tmp_path / name).write_text(text, encoding="utf-8")
        argv = [str(tmp_path / a) if a in _REFUSAL_FILES or a == "missing.mpoly" else a
                for a in argv]
        got, out, err = run(capsys, *argv)
        assert (got, out) == (code, "")
        assert err.startswith({1: "failed: ", 2: "usage error: ", 3: "error: "}[code])
        assert err.count("\n") == 1 and reason in err and "Traceback" not in err

    def test_conductor_24_copy_verifies_untwisted(self, capsys, tmp_path):
        """The twist rows above are refused for the gcd alone: untwisted, the
        same series and polynomial are consistent."""
        for name in ("j24.qexp", "order2_24.mpoly"):
            (tmp_path / name).write_text(_REFUSAL_FILES[name], encoding="utf-8")
        code, out, err = run(capsys, "verify", "--series", str(tmp_path / "j24.qexp"),
                             "--modpoly", str(tmp_path / "order2_24.mpoly"), "--order", "2")
        assert (code, err) == (0, "")
        assert machine_block(out)["status"] == "consistent"

    @pytest.mark.parametrize("k_max", ["0", "-3"])
    def test_replicate_needs_a_positive_k_max(self, capsys, k_max):
        code, out, err = run(capsys, "replicate", "--series", "data/j.qexp",
                             "--square", "data/j.qexp", f"--k-max={k_max}")
        assert (code, out) == (2, "")
        assert err == "usage error: replication index k must be >= 1\n"


def _override_with(tmp_path, stem=None):
    """Copies of the packaged corpus in tmp_path, the published coefficient
    of ``stem`` at its first exponent above 1 bumped by one."""
    for name in PUBLISHED_PREFIXES:
        text = (resources.files("g0wb") / "data" / f"{name}.qexp").read_text("utf-8")
        if name == stem:
            series, label = parse_qexp(text)
            n = min(e for e in PUBLISHED_PREFIXES[name] if e > 1)
            coeffs = dict(series.coeffs)
            coeffs[n] = coeffs[n] + 1
            text = emit_qexp(PuiseuxSeries.make(coeffs, trunc=series.trunc), label)
        (tmp_path / f"{name}.qexp").write_text(text, encoding="utf-8")
    return n if stem else None


class TestOverriddenCorpus:
    """A bundled name is read through the corpus loader under G0WB_DATA too."""

    @pytest.mark.parametrize("stem", list(PUBLISHED_PREFIXES))
    def test_tampered_copy_is_a_data_error(self, capsys, tmp_path, monkeypatch, stem):
        n = _override_with(tmp_path, stem)
        monkeypatch.setenv("G0WB_DATA", str(tmp_path))
        code, out, err = run(capsys, "classify", "--series", f"data/{stem}.qexp",
                             "--orders", "2")
        expected = PUBLISHED_PREFIXES[stem][n]
        assert (code, out) == (3, "")
        assert err == (f"error: {stem}: coefficient of q^{n} is {expected + 1}, "
                       f"bundled reference says {expected}\n")

    @pytest.mark.parametrize("argv", [
        ("classify", "--series", "data/j.qexp", "--orders", "2"),
        ("classify", "--series", "data/g0_25.qexp", "--orders", "2"),
        ("verify", "--series", "data/g0_2.qexp", "--modpoly", "o.mpoly", "--order", "3"),
    ])
    def test_untampered_copy_prints_the_packaged_footnotes(self, capsys, tmp_path,
                                                           monkeypatch, argv):
        poly = build_modular_polynomial(load_entry("g0_2").series, 3)
        (tmp_path / "o.mpoly").write_text(emit_mpoly(poly), encoding="utf-8")
        argv = [str(tmp_path / a) if a == "o.mpoly" else a for a in argv]
        packaged = run(capsys, *argv)
        override = tmp_path / "data"
        override.mkdir()
        _override_with(override)
        monkeypatch.setenv("G0WB_DATA", str(override))
        assert run(capsys, *argv) == packaged
        assert packaged[0] == 0 and "published reference expansion" in packaged[1]


class TestQexpHeaderMessages:
    @pytest.mark.parametrize("text, message", [
        ("# qexp v1\nlabel: J\nconductor: 1\ndenom: 1\n", "line 5: expected 'lo:' header"),
        ("# qexp v1\nlabel: J\n", "line 3: expected 'conductor:' header"),
        ("# qexp v1\nlabel: J\nconductor: 1\ndenom: one\nlo: -1\ntrunc: 1\n-1 1\n",
         "line 4: bad integer in 'denom' header"),
        ("# qexp v1\nlabel: J\nconductor: 2.5\ndenom: 1\nlo: -1\ntrunc: 1\n-1 1\n",
         "line 3: bad integer in 'conductor' header"),
    ], ids=["four-keys", "one-key", "denom", "conductor"])
    def test_header_message(self, capsys, tmp_path, text, message):
        with pytest.raises(ParseError) as err:
            parse_qexp(text)
        assert str(err.value) == message
        (tmp_path / "h.qexp").write_text(text, encoding="utf-8")
        code, out, stderr = run(capsys, "classify", "--series", str(tmp_path / "h.qexp"),
                                "--orders", "2")
        assert (code, out, stderr) == (3, "", f"error: {message}\n")


class TestUnboundedInputs:
    """Inputs that once hung or wrote an unreadable file: each is refused
    with one usage-error line before any work."""

    @pytest.mark.parametrize("argv", [
        ("classify", "--series", "data/j.qexp", "--orders",
         "2,1000000000000000000000000000057"),
        ("modpoly", "--series", "data/j.qexp", "--order", "101"),
        ("bootstrap", "--series", "data/j.qexp", "--modpoly", "f.mpoly",
         "--order", "1000000000000000000000000000057", "--target", "10"),
    ])
    def test_order_above_the_cap(self, capsys, tmp_path, argv):
        (tmp_path / "f.mpoly").write_text(emit_mpoly(GOLDEN_ORDER2), encoding="utf-8")
        argv = [str(tmp_path / a) if a == "f.mpoly" else a for a in argv]
        start = time.perf_counter()
        code, out, err = run(capsys, *argv)
        assert time.perf_counter() - start < 2.0
        assert (code, out) == (2, "")
        assert err.startswith("usage error: ") and err.count("\n") == 1
        assert "largest supported order 100" in err

    @pytest.mark.parametrize("argv, message", [
        (("classify", "--series", "data/j.qexp", "--orders", ",".join(map(str, range(2, 101)))),
         "orders need sum psi(m)^2 = 831465, which exceeds the largest supported 46656"),
        (("bootstrap", "--series", "data/j.qexp", "--modpoly", "f.mpoly", "--order", "2",
          "--target", "100000"), "target 100000 exceeds the largest supported target 2000"),
    ])
    def test_work_above_the_cap(self, capsys, tmp_path, argv, message):
        (tmp_path / "f.mpoly").write_text(emit_mpoly(GOLDEN_ORDER2), encoding="utf-8")
        argv = [str(tmp_path / a) if a == "f.mpoly" else a for a in argv]
        start = time.perf_counter()
        code, out, err = run(capsys, *argv)
        assert time.perf_counter() - start < 1.0
        assert (code, out, err) == (2, "", f"usage error: {message}\n")

    @pytest.mark.parametrize("prime", ["1000003", "1009"])
    def test_prime_past_the_conductor_cap(self, capsys, prime):
        start = time.perf_counter()
        code, out, err = run(capsys, "avg", "--series", "data/j.qexp", "--prime", prime)
        assert time.perf_counter() - start < 2.0
        assert (code, out) == (2, "")
        assert err.startswith("usage error: ") and err.count("\n") == 1
        assert "> 1000" in err

    @pytest.mark.parametrize("argv, bound", [
        (("eta", "--tau", "0,1", "--terms", "1000000000000"), "terms 1000000"),
        (("eta", "--tau", "0,1", "--terms", "1000001", "--law", "--matrix", "0,-1,1,0"),
         "terms 1000000"),
        (("kappa", "--terms", "1000000000000"), "terms 1000000"),
        (("eisenstein", "--k", "4", "--tau", "0,1", "--radius", "1000000"), "radius 1000"),
        (("eisenstein", "--k", "4", "--tau", "0,1", "--radius", "1001", "--law",
          "--matrix", "0,-1,1,0"), "radius 1000"),
    ])
    def test_numeric_loop_above_the_cap(self, capsys, argv, bound):
        start = time.perf_counter()
        code, out, err = run(capsys, *argv)
        assert time.perf_counter() - start < 1.0
        assert (code, out) == (2, "")
        assert err.startswith("usage error: ") and err.count("\n") == 1
        assert err.endswith(f"largest supported {bound}\n")

    def test_largest_prime_below_the_cap_round_trips(self, capsys, tmp_path):
        code, out, _ = run(capsys, "avg", "--series", "data/j.qexp", "--prime", "997")
        assert code == 0
        path = tmp_path / "avg.qexp"
        path.write_text(out.split("---\n")[0], encoding="utf-8")
        series, _ = parse_qexp(path.read_text(encoding="utf-8"))
        assert series.conductor == 997
