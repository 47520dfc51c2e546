import importlib.util
import pathlib
from importlib import resources

import pytest

from g0wb.corpus import (
    PUBLISHED_DEPTH,
    PUBLISHED_PREFIXES,
    CorpusEntry,
    eta_quotient_level2,
    ingest,
    load_corpus,
    load_entry,
    normalized_j,
)
from g0wb.errors import CorruptCorpus, ParseError, ShapeError
from g0wb.exactnum import CyclotomicNumber
from g0wb.goldens import GOLDEN_ORDER2
from g0wb.hauptmodul import check_replication
from g0wb.modeq import build_modular_polynomial, verify_modular_equation
from g0wb.qseries import compare_to_order, emit_qexp


class TestPublishedLiterals:
    def test_j_prefix(self, corpus_j):
        assert corpus_j.coefficient(1) == 196884
        assert corpus_j.coefficient(2) == 21493760
        assert corpus_j.coefficient(3) == 864299970
        assert corpus_j.coefficient(0) == 0

    def test_g0_2_prefix(self, corpus_g0_2):
        values = [276, -2048, 11202, -49152, 184024]
        for n, expected in enumerate(values, start=1):
            assert corpus_g0_2.coefficient(n) == expected

    def test_g0_13_prefix(self, corpus_g0_13):
        expected = {1: -1, 2: 2, 3: 1, 4: 2, 5: -2, 6: 0, 7: -2, 8: -2, 9: 1}
        for n, value in expected.items():
            assert corpus_g0_13.coefficient(n) == value

    def test_g0_25_prefix(self, corpus_g0_25):
        assert corpus_g0_25.coefficient(2) == 0
        assert corpus_g0_25.coefficient(4) == 1
        assert corpus_g0_25.coefficient(26) == -1
        nonzero = {n for n, _ in corpus_g0_25.nonzero_items()}
        assert nonzero == {-1, 1, 4, 6, 11, 14, 21, 24, 26}

    def test_all_entries_load_with_provenance(self):
        entries = load_corpus()
        assert [e.meta.label for e in entries] == [
            "J", "J_Gamma0_2", "J_Gamma0_13", "J_Gamma0_25"]
        for entry in entries:
            assert entry.provenance[0].kind == "published"
            assert entry.provenance[0].hi == PUBLISHED_DEPTH[
                entry.meta.source.split(":")[1].split(".")[0]]

    def test_derived_ranges_name_their_oracle(self):
        for stem in ("j", "g0_2"):
            entry = load_entry(stem)
            derived = [r for r in entry.provenance if r.kind == "derived"]
            assert len(derived) == 1
            assert "bootstrap" in derived[0].oracle


class TestDerivedData:
    def test_j_replication_full_depth(self, corpus_j):
        for k in range(1, 11):
            assert check_replication(corpus_j, corpus_j, k)

    def test_j_modular_equations(self, corpus_j):
        assert verify_modular_equation(corpus_j, GOLDEN_ORDER2, 2).status == "consistent"
        poly3 = build_modular_polynomial(corpus_j, 3)
        assert verify_modular_equation(corpus_j, poly3, 3).status == "consistent"

    def test_j_matches_quotient_construction(self, corpus_j):
        reference = normalized_j(corpus_j.trunc)
        assert compare_to_order(corpus_j, reference, corpus_j.trunc).equal

    def test_g0_2_matches_eta_quotient(self, corpus_g0_2):
        reference = eta_quotient_level2(corpus_g0_2.trunc)
        assert compare_to_order(corpus_g0_2, reference, corpus_g0_2.trunc).equal

    def test_g0_2_satisfies_its_order3_equation(self, corpus_g0_2):
        poly3 = build_modular_polynomial(corpus_g0_2, 3)
        assert verify_modular_equation(corpus_g0_2, poly3, 3).status == "consistent"


class TestLoaderValidation:
    def test_tampered_file_detected(self, tmp_path, monkeypatch):
        entry = load_entry("j")
        coeffs = dict(entry.series.coeffs)
        coeffs[2] = coeffs[2] + 1
        from g0wb.qseries import PuiseuxSeries
        tampered = PuiseuxSeries.make(coeffs, trunc=entry.series.trunc)
        for stem in ("j", "g0_2", "g0_13", "g0_25"):
            source = load_entry(stem)
            (tmp_path / f"{stem}.qexp").write_text(
                emit_qexp(tampered if stem == "j" else source.series,
                          source.meta.label), encoding="utf-8")
        monkeypatch.setenv("G0WB_DATA", str(tmp_path))
        with pytest.raises(CorruptCorpus):
            load_entry("j")
        load_entry("g0_2")  # untampered entries still load

    def test_wrong_label_detected(self, tmp_path, monkeypatch):
        entry = load_entry("j")
        (tmp_path / "j.qexp").write_text(
            emit_qexp(entry.series, "WRONG"), encoding="utf-8")
        monkeypatch.setenv("G0WB_DATA", str(tmp_path))
        with pytest.raises(CorruptCorpus):
            load_entry("j")

    def test_truncated_below_published_depth(self, tmp_path, monkeypatch):
        entry = load_entry("g0_2")
        (tmp_path / "g0_2.qexp").write_text(
            emit_qexp(entry.series.truncate(3), entry.meta.label), encoding="utf-8")
        monkeypatch.setenv("G0WB_DATA", str(tmp_path))
        with pytest.raises(CorruptCorpus):
            load_entry("g0_2")


class TestIngest:
    def test_bundled_files_roundtrip_byte_identical(self):
        from importlib import resources
        for stem in PUBLISHED_PREFIXES:
            text = (resources.files("g0wb") / "data" / f"{stem}.qexp").read_text("utf-8")
            entry = ingest(text)
            assert emit_qexp(entry.series, entry.meta.label) == text

    def test_duplicate_exponent_rejected(self):
        text = ("# qexp v1\nlabel: x\nconductor: 1\ndenom: 1\nlo: -1\ntrunc: 2\n"
                "-1 1\n1 2\n1 3\n")
        with pytest.raises(ParseError):
            ingest(text)

    def test_cyclotomic_fixture(self, tmp_path):
        path = tmp_path / "twisted.qexp"
        path.write_text(
            "# qexp v1\nlabel: twisted\nconductor: 3\ndenom: 1\nlo: -1\ntrunc: 4\n"
            "-1 1\n1 z\n3 -1+2z\n", encoding="utf-8")
        entry = ingest(str(path))
        assert isinstance(entry, CorpusEntry)
        z3 = CyclotomicNumber.root_of_unity(3)
        assert entry.series.coefficient(1) == z3
        assert entry.series.coefficient(3) == -1 + 2 * z3
        assert entry.provenance[0].kind == "external"

    def test_moonshine_flag(self, tmp_path):
        path = tmp_path / "flat.qexp"
        path.write_text(
            "# qexp v1\nlabel: flat\nconductor: 1\ndenom: 1\nlo: 0\ntrunc: 3\n"
            "0 1\n", encoding="utf-8")
        with pytest.raises(ShapeError):
            ingest(str(path), require_moonshine=True)
        ingest(str(path))  # fine without the flag


class TestOracleConstructions:
    def test_quotient_prefix(self):
        series = normalized_j(5)
        assert series.coefficient(-1) == 1
        assert series.coefficient(0) == 0
        assert series.coefficient(1) == 196884
        assert series.coefficient(4) == 20245856256

    def test_eta_quotient_prefix(self):
        series = eta_quotient_level2(5)
        assert series.coefficient(0) == 0
        assert [int(series.coefficient(n).rational_value()) for n in range(1, 6)] == \
            [276, -2048, 11202, -49152, 184024]


def test_generator_script_reproduces_every_bundled_file():
    # the script is the oracle path for the bundled files, and make_j and
    # make_g0_2 bootstrap them from the published prefixes
    path = pathlib.Path(__file__).resolve().parents[1] / "scripts" / "generate_corpus.py"
    spec = importlib.util.spec_from_file_location("generate_corpus", path)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    entries = script.corpus_entries()
    assert sorted(entries) == ["g0_13", "g0_2", "g0_25", "j"]
    for stem, (series, label) in entries.items():
        bundled = resources.files("g0wb") / "data" / f"{stem}.qexp"
        assert emit_qexp(series, label) == bundled.read_text(encoding="utf-8"), stem
