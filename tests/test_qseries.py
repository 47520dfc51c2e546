from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from g0wb.errors import InsufficientTruncation, NonIntegralInput, ParseError
from g0wb.exactnum import CyclotomicNumber
from g0wb.qseries import (
    PuiseuxSeries,
    compare_to_order,
    emit_qexp,
    parse_qexp,
    series_arith,
    substitute_coset,
)


class TestArithmetic:
    def test_monomial_square(self):
        q_inv = PuiseuxSeries.monomial(-1, trunc=10)
        assert (q_inv * q_inv).coefficient(-2) == 1

    def test_difference_of_squares(self):
        a = PuiseuxSeries.make({-1: 1, 1: 1}, trunc=10)
        b = PuiseuxSeries.make({-1: 1, 1: -1}, trunc=10)
        prod = series_arith(a, b, "mul")
        assert prod.coefficient(-2) == 1
        assert prod.coefficient(0) == 0
        assert prod.coefficient(2) == -1
        assert series_arith(a, b, "add") == PuiseuxSeries.make({-1: 2}, trunc=10)
        assert series_arith(a, b, "sub") == PuiseuxSeries.make({1: 2}, trunc=10)
        with pytest.raises(ValueError, match="unknown series operation 'div'"):
            series_arith(a, b, "div")

    def test_prefix_square_constant(self, corpus_j):
        prefix = corpus_j.truncate(2)
        square = prefix * prefix
        assert square.coefficient(0) == 393768  # 2 * 196884
        assert square.coefficient(1) == 2 * 21493760
        # the square of a series determined to q^2 is determined to q^1
        assert square.trunc_exponent() == 1

    def test_truncation_of_product_is_tight(self):
        a = PuiseuxSeries.make({-2: 1, 3: 5}, trunc=7)
        b = PuiseuxSeries.make({-1: 2}, trunc=9)
        prod = a * b
        assert prod.trunc_exponent() == min(7 + (-1), 9 + (-2))

    def test_add_aligns_grids(self):
        half = PuiseuxSeries.make({1: 1}, trunc=8, denom=2)   # q^(1/2)
        third = PuiseuxSeries.make({1: 1}, trunc=9, denom=3)  # q^(1/3)
        total = half + third
        assert total.coefficient(Fraction(1, 2)) == 1
        assert total.coefficient(Fraction(1, 3)) == 1

    def test_scalar_ops(self):
        a = PuiseuxSeries.make({-1: 1, 2: 3}, trunc=5)
        assert (a * 2).coefficient(2) == 6
        assert (a - a).is_zero()


class TestShift:
    @given(st.dictionaries(st.integers(-6, 12), st.integers(-9, 9), max_size=6),
           st.sampled_from([1, 2, 3, 4]), st.integers(-6, 14),
           st.integers(-12, 12), st.sampled_from([1, 2, 3, 6]))
    def test_equals_product_with_exact_monomial(self, coeffs, denom, trunc, num, den):
        series = PuiseuxSeries.make({n: c for n, c in coeffs.items() if n <= trunc},
                                    trunc=trunc, denom=denom)
        by = Fraction(num, den)
        # a monomial determined far beyond any exponent in play
        exact = PuiseuxSeries.monomial(num, trunc=10**6, denom=den)
        assert series.shift(by) == series * exact

    def test_integral_shift_keeps_grid_and_field(self):
        z = CyclotomicNumber.root_of_unity(3, 1)
        series = PuiseuxSeries.make({-3: 1, 1: z}, trunc=5, denom=2, conductor=3)
        moved = series.shift(2)
        assert (moved.denom, moved.lo, moved.trunc, moved.conductor) == (2, 1, 9, 3)
        assert moved.coefficient(Fraction(5, 2)) == z

    def test_fractional_shift_refines_grid(self):
        moved = PuiseuxSeries.make({-1: 1, 2: 7}, trunc=4).shift(Fraction(1, 3))
        assert moved.denom == 3
        assert moved.trunc_exponent() == Fraction(13, 3)
        assert moved.coefficient(Fraction(7, 3)) == 7


class TestSubstitution:
    def test_sign_flip_on_half_grid(self):
        h = PuiseuxSeries.monomial(-1, trunc=8)
        s = substitute_coset(h, 2, 2, 1)
        assert s.denom == 2
        assert s.coefficient(Fraction(-1, 2)) == -1

    def test_exponent_doubling(self):
        h = PuiseuxSeries.monomial(-1, trunc=8)
        s = substitute_coset(h, 2, 1, 0)
        assert s.denom == 1 and s.coefficient(-2) == 1

    def test_pure_stretch(self):
        h = PuiseuxSeries.make({-1: 1, 1: 1}, trunc=9)
        s = substitute_coset(h, 2, 2, 0)
        assert s.coefficient(Fraction(-1, 2)) == 1
        assert s.coefficient(Fraction(1, 2)) == 1

    def test_requires_integral_exponents(self):
        fractional = PuiseuxSeries.make({1: 1}, trunc=8, denom=2)
        with pytest.raises(NonIntegralInput):
            substitute_coset(fractional, 2, 2, 0)

    def test_rejects_non_divisor(self):
        h = PuiseuxSeries.monomial(-1, trunc=8)
        with pytest.raises(ValueError):
            substitute_coset(h, 2, 3, 0)

    def test_root_of_unity_cancellation(self):
        h = PuiseuxSeries.make({-1: 1, 1: 2, 2: 5, 3: -4}, trunc=12)
        total = substitute_coset(h, 3, 3, 0)
        for k in (1, 2):
            total = total + substitute_coset(h, 3, 3, k)
        # only source exponents divisible by 3 survive, landing at n/3
        assert total.denom == 1
        assert total.coefficient(1) == 3 * (-4)
        assert total.coefficient(-1) == 0 and total.coefficient(Fraction(2, 3)) == 0

    @given(st.dictionaries(st.integers(-2, 4), st.integers(-5, 5), max_size=4),
           st.dictionaries(st.integers(-2, 4), st.integers(-5, 5), max_size=4),
           st.sampled_from([(2, 2, 1), (2, 1, 0), (3, 3, 2), (4, 2, 1), (6, 3, 1)]))
    def test_substitution_is_multiplicative(self, da, db, mdk):
        m, d, k = mdk
        a = PuiseuxSeries.make(da or {0: 1}, trunc=8)
        b = PuiseuxSeries.make(db or {0: 1}, trunc=8)
        lhs = substitute_coset(a * b, m, d, k)
        rhs = substitute_coset(a, m, d, k) * substitute_coset(b, m, d, k)
        bound = min(lhs.trunc_exponent(), rhs.trunc_exponent())
        assert compare_to_order(lhs, rhs, bound).equal


class TestTruncationMonotonicity:
    @given(st.dictionaries(st.integers(-3, 6), st.integers(-9, 9), max_size=5),
           st.dictionaries(st.integers(-3, 6), st.integers(-9, 9), max_size=5),
           st.integers(5, 8))
    def test_retruncating_inputs_preserves_valid_range(self, da, db, cut):
        a = PuiseuxSeries.make(da or {0: 1}, trunc=10)
        b = PuiseuxSeries.make(db or {0: 1}, trunc=10)
        full = a * b
        cut_prod = a.truncate(cut) * b.truncate(cut)
        bound = cut_prod.trunc_exponent()
        assert compare_to_order(full.truncate(min(bound, full.trunc_exponent())),
                                cut_prod.truncate(bound), bound).equal


class TestCompare:
    def test_equal_prefixes(self, corpus_j):
        assert compare_to_order(corpus_j, corpus_j, 3).equal

    def test_first_mismatch(self):
        a = PuiseuxSeries.make({-1: 1, 1: 1}, trunc=5)
        b = PuiseuxSeries.make({-1: 1, 1: -1}, trunc=5)
        result = compare_to_order(a, b, 1)
        assert not result.equal
        assert result.exponent == 1
        assert result.left == 1 and result.right == -1

    def test_published_prefix(self, corpus_j):
        reference = PuiseuxSeries.moonshine([196884, 21493760, 864299970])
        assert compare_to_order(corpus_j, reference, 3).equal

    def test_insufficient(self):
        a = PuiseuxSeries.make({-1: 1}, trunc=3)
        with pytest.raises(InsufficientTruncation):
            compare_to_order(a, a, 10)


class TestShape:
    def test_moonshine_shape(self):
        assert PuiseuxSeries.moonshine([0, 5], trunc=6).is_moonshine_shape()

    def test_bad_leading_coefficient(self):
        assert not PuiseuxSeries.make({-1: 2, 1: 1}, trunc=5).is_moonshine_shape()

    def test_nonzero_constant(self):
        assert not PuiseuxSeries.make({-1: 1, 0: 3}, trunc=5).is_moonshine_shape()

    def test_pole_order(self):
        assert PuiseuxSeries.make({-3: 1, 1: 1}, trunc=5).pole_order() == 3
        assert PuiseuxSeries.make({2: 1}, trunc=5).pole_order() == 0


class TestQexpFormat:
    def test_roundtrip_with_cyclotomics(self):
        z3 = CyclotomicNumber.root_of_unity(3)
        series = PuiseuxSeries.make({-1: 1, 2: z3, 5: Fraction(3, 4)},
                                    trunc=7, conductor=3)
        text = emit_qexp(series, "demo")
        back, label = parse_qexp(text)
        assert label == "demo"
        assert back == series
        assert emit_qexp(back, label) == text

    def test_roundtrip_with_promoted_conductor(self):
        # a coefficient carried on a smaller basis (xi_3 inside a declared
        # conductor-6 series) must be rewritten on the declared basis, or
        # re-parsing would reinterpret the literal
        z3 = CyclotomicNumber.root_of_unity(3)
        series = PuiseuxSeries.make({-2: 1, 2: z3}, trunc=10, conductor=6)
        text = emit_qexp(series, "mixed")
        back, _ = parse_qexp(text)
        assert back.coefficient(2) == z3
        assert emit_qexp(back, "mixed") == text

    def test_declared_field_must_contain_coefficients(self):
        z4 = CyclotomicNumber.root_of_unity(4)
        with pytest.raises(ValueError):
            PuiseuxSeries.make({0: z4}, trunc=3, conductor=3)

    def test_duplicate_exponent_rejected(self):
        text = ("# qexp v1\nlabel: x\nconductor: 1\ndenom: 1\nlo: -1\ntrunc: 3\n"
                "-1 1\n1 2\n1 3\n")
        with pytest.raises(ParseError) as err:
            parse_qexp(text)
        assert err.value.line == 9

    def test_out_of_order_rejected(self):
        text = ("# qexp v1\nlabel: x\nconductor: 1\ndenom: 1\nlo: -1\ntrunc: 3\n"
                "1 2\n-1 1\n")
        with pytest.raises(ParseError):
            parse_qexp(text)

    def test_missing_magic(self):
        with pytest.raises(ParseError):
            parse_qexp("label: x\n")

    def test_explicit_zero_rejected(self):
        text = ("# qexp v1\nlabel: x\nconductor: 1\ndenom: 1\nlo: -1\ntrunc: 3\n"
                "-1 0\n")
        with pytest.raises(ParseError):
            parse_qexp(text)
