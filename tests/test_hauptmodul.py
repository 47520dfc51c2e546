import random

import pytest

from g0wb.corpus import normalized_j
from g0wb.errors import (
    Inconsistent,
    InsufficientTruncation,
    NotUnimodular,
    ShapeError,
)
from g0wb.exactnum import CyclotomicNumber
from g0wb.goldens import GOLDEN_ORDER2
from g0wb.hauptmodul import (
    bootstrap_extend,
    check_replication,
    classify,
    congruence_membership,
    detect_fiction,
)
from g0wb.matrices import IDENTITY, IntMatrix
from g0wb.modeq import MAX_ORDER, MAX_ORDER_WORK, MAX_TARGET, build_modular_polynomial, psi
from g0wb.qseries import PuiseuxSeries, compare_to_order


def fiction(coeff, trunc=64, conductor=1):
    return PuiseuxSeries.make({-1: 1, 1: coeff}, trunc=trunc, conductor=conductor)


class TestDetectFiction:
    def test_bare_pole(self):
        xi = detect_fiction(PuiseuxSeries.monomial(-1, trunc=10))
        assert xi == 0

    def test_plus_q(self):
        assert detect_fiction(fiction(1)) == 1
        assert detect_fiction(fiction(-1)) == -1

    def test_corpus_j_is_not_degenerate(self, corpus_j):
        assert detect_fiction(corpus_j) is None

    def test_every_24th_root(self):
        for k in range(24):
            xi = CyclotomicNumber.root_of_unity(24, k)
            assert detect_fiction(fiction(xi, conductor=24)) == xi

    def test_requires_depth(self):
        with pytest.raises(InsufficientTruncation):
            detect_fiction(PuiseuxSeries.make({-1: 1, 1: 1}, trunc=1))

    def test_requires_shape(self):
        with pytest.raises(ShapeError):
            detect_fiction(PuiseuxSeries.make({-2: 1}, trunc=5))


class TestClassify:
    def test_corpus_j(self, corpus_j):
        result = classify(corpus_j, {2, 3})
        assert result.verdict == "hauptmodul-candidate"
        assert [m for m, _ in result.orders_tested] == [2, 3]
        assert all(rep.status == "consistent" for _, rep in result.orders_tested)

    def test_fiction_plus_q(self):
        result = classify(fiction(1), {2, 3})
        assert result.verdict == "fiction"
        assert result.fiction_xi == 1

    def test_fiction_root_of_unity(self):
        xi = CyclotomicNumber.root_of_unity(24, 5)
        result = classify(fiction(xi, conductor=24), {2})
        assert result.verdict == "fiction"
        assert result.fiction_xi == xi

    def test_two_q_is_inconsistent(self):
        result = classify(fiction(2), {2})
        assert result.verdict == "inconsistent"
        assert result.orders_tested[0][1].status == "inconsistent"

    def test_shallow_series_undetermined(self):
        shallow = PuiseuxSeries.moonshine([196884, 21493760, 864299970])
        result = classify(shallow, {2})
        assert result.verdict == "undetermined"
        assert "q^17" in result.notes

    def test_stability_under_deepening(self, corpus_j):
        # extending with bootstrap-consistent coefficients never flips a
        # candidate verdict at previously tested depth
        for depth in (30, 45, 60):
            result = classify(corpus_j.truncate(depth), {2, 3})
            assert result.verdict == "hauptmodul-candidate"

    def test_order_list_work_is_bounded(self, corpus_j):
        # the bound is the work of the costliest single order, so every single
        # order passes; a shallow series makes each order undetermined at once
        assert MAX_ORDER_WORK == max(psi(m) ** 2 for m in range(1, MAX_ORDER + 1)) == psi(90) ** 2
        shallow = corpus_j.truncate(10)
        for m in range(2, MAX_ORDER + 1):
            assert classify(shallow, [m]).verdict == "undetermined"
        assert sum(psi(m) ** 2 for m in range(2, 39)) <= MAX_ORDER_WORK
        assert classify(shallow, range(2, 39)).verdict == "undetermined"
        with pytest.raises(ValueError, match="sum psi\\(m\\)\\^2 = 48641, "):
            classify(shallow, range(2, 40))
        # a fiction is screened before any order is looked at
        assert classify(fiction(1), range(2, 101)).verdict == "fiction"


class TestBootstrap:
    def test_roundtrip_through_corpus(self, corpus_j):
        # truncate, re-extend, compare, at a spread of depths
        for depth in (3, 10, 17, 24, 38, 52, 59):
            seed = corpus_j.truncate(depth)
            rebuilt = bootstrap_extend(seed, GOLDEN_ORDER2, 2, 60)
            assert compare_to_order(rebuilt, corpus_j, 60).equal

    def test_fixed_point_of_monomial_fiction(self):
        q1 = PuiseuxSeries.monomial(-1, trunc=64)
        poly = build_modular_polynomial(q1, 2)
        seed = PuiseuxSeries.monomial(-1, trunc=0)
        extended = bootstrap_extend(seed, poly, 2, 10)
        assert extended.nonzero_items() == [(-1, CyclotomicNumber.one())]
        assert extended.trunc == 10

    def test_corrupted_seed_is_inconsistent(self):
        bad = PuiseuxSeries.moonshine([196885, 21493760, 864299970])
        with pytest.raises(Inconsistent):
            bootstrap_extend(bad, GOLDEN_ORDER2, 2, 6)

    def test_replication_identity_on_extended_data(self, corpus_j):
        seed = corpus_j.truncate(3)
        extended = bootstrap_extend(seed, GOLDEN_ORDER2, 2, 6)
        c = lambda n: extended.coefficient(n).rational_value()
        assert c(6) == c(4) + c(1) * c(2)
        assert c(6) == 20245856256 + 196884 * 21493760 == 4252023300096

    def test_target_below_seed_truncates(self, corpus_j):
        out = bootstrap_extend(corpus_j, GOLDEN_ORDER2, 2, 10)
        assert out.trunc == 10

    def test_target_above_the_cap_is_refused(self, corpus_j):
        with pytest.raises(ValueError, match=f"largest supported target {MAX_TARGET}$"):
            bootstrap_extend(corpus_j.truncate(3), GOLDEN_ORDER2, 2, MAX_TARGET + 1)

    def test_target_above_the_cap_is_refused_inside_a_deeper_seed(self):
        seed = normalized_j(MAX_TARGET + 1)
        with pytest.raises(ValueError, match=f"largest supported target {MAX_TARGET}$"):
            bootstrap_extend(seed, GOLDEN_ORDER2, 2, MAX_TARGET + 1)


class TestReplication:
    def test_corpus_j_small_k(self, corpus_j):
        for k in range(1, 11):
            assert check_replication(corpus_j, corpus_j, k)

    def test_fiction_identity(self):
        f = fiction(1, trunc=10)
        assert check_replication(f, f, 1)  # reads 0 = 0 + 1*0

    def test_detects_corruption(self, corpus_j):
        coeffs = dict(corpus_j.coeffs)
        coeffs[6] = coeffs[6] + 1
        tampered = PuiseuxSeries.make(coeffs, trunc=corpus_j.trunc)
        assert not check_replication(tampered, corpus_j, 1)

    def test_depth_requirements(self, corpus_j):
        with pytest.raises(InsufficientTruncation):
            check_replication(corpus_j.truncate(5), corpus_j, 1)
        with pytest.raises(InsufficientTruncation):
            check_replication(corpus_j, corpus_j.truncate(3), 1)


class TestCongruence:
    def test_unit_translation_in_gamma1(self):
        assert congruence_membership(IntMatrix(1, 1, 0, 1), 5, "gamma1")

    def test_gamma0_level2(self):
        assert congruence_membership(IntMatrix(1, 0, 2, 1), 2, "gamma0")

    def test_inversion_not_in_gamma0(self):
        assert not congruence_membership(IntMatrix(0, -1, 1, 0), 2, "gamma0")

    def test_full_level(self):
        assert congruence_membership(IntMatrix(-1, 0, 0, -1), 7, "full")
        assert congruence_membership(IntMatrix(1, 7, 0, 1), 7, "full")
        assert congruence_membership(IntMatrix(-1, -7, 0, -1), 7, "full")
        assert not congruence_membership(IntMatrix(1, 1, 0, 1), 7, "full")

    def test_requires_unimodular(self):
        with pytest.raises(NotUnimodular):
            congruence_membership(IntMatrix(2, 0, 0, 2), 3, "gamma0")

    def test_subgroup_chain_on_random_unimodular(self):
        rng = random.Random(20240811)
        T = IntMatrix(1, 1, 0, 1)
        S = IntMatrix(0, -1, 1, 0)
        samples = 0
        while samples < 400:
            mat = IDENTITY
            for _ in range(rng.randint(1, 12)):
                mat = mat * (T if rng.random() < 0.6 else S)
                if rng.random() < 0.3:
                    mat = mat * T.inverse()
            if max(abs(v) for v in mat.entries()) > 50:
                continue
            samples += 1
            for level in (2, 3, 5, 12):
                full = congruence_membership(mat, level, "full")
                g1 = congruence_membership(mat, level, "gamma1")
                g0 = congruence_membership(mat, level, "gamma0")
                assert (not full or g1) and (not g1 or g0)
