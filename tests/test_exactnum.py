import sys
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, strategies as st

from g0wb.errors import G0wbError, NotCoprime, ParseError, UsageError
from g0wb.exactnum import (
    CyclotomicNumber,
    cyclotomic_polynomial,
    euler_phi,
    format_rational,
    galois_apply,
    parse_cyclotomic,
)


def sympy_cyclotomic(n):
    poly = sympy.Poly(sympy.cyclotomic_poly(n, sympy.Symbol("x")))
    return tuple(int(c) for c in reversed(poly.all_coeffs()))


class TestCyclotomicPolynomial:
    def test_first(self):
        assert cyclotomic_polynomial(1) == (-1, 1)

    def test_fourth(self):
        assert cyclotomic_polynomial(4) == (1, 0, 1)

    def test_twelfth(self):
        # oracle: exact division of x^12 - 1 by the lower-order factors,
        # carried out independently by sympy
        assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1) == sympy_cyclotomic(12)

    @pytest.mark.parametrize("n", list(range(1, 40)) + [48, 60, 72, 105])
    def test_against_sympy(self, n):
        assert cyclotomic_polynomial(n) == sympy_cyclotomic(n)

    @pytest.mark.parametrize("n", range(1, 40))
    def test_monic_of_degree_phi(self, n):
        poly = cyclotomic_polynomial(n)
        assert poly[-1] == 1
        assert len(poly) - 1 == euler_phi(n)


class TestArithmetic:
    def test_i_squared(self):
        i = CyclotomicNumber.root_of_unity(4)
        assert i * i == -1

    def test_third_roots_sum_to_zero(self):
        w = CyclotomicNumber.root_of_unity(3)
        assert (1 + w) + w * w == 0

    def test_z24_to_the_twelfth(self):
        z = CyclotomicNumber.root_of_unity(24)
        assert z ** 12 == -1

    def test_division_roundtrip(self):
        z = CyclotomicNumber.root_of_unity(12)
        a = 1 + z + z ** 5
        b = 3 - z ** 7
        assert (a / b) * b == a

    def test_division_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            CyclotomicNumber.one() / CyclotomicNumber.zero()

    def test_mixed_conductor_product(self):
        i = CyclotomicNumber.root_of_unity(4)
        w = CyclotomicNumber.root_of_unity(3)
        # exp(2 pi i (1/4 + 1/3)) = exp(2 pi i 7/12)
        assert i * w == CyclotomicNumber.root_of_unity(12, 7)

    def test_canonical_zero(self):
        z = CyclotomicNumber.root_of_unity(8)
        a = 2 + 3 * z - z ** 3
        diff = a - a
        assert diff.is_zero()
        assert all(c == 0 for c in diff.coeffs)

    def test_rational_detection(self):
        z = CyclotomicNumber.root_of_unity(5)
        total = sum((z ** k for k in range(1, 5)), CyclotomicNumber.zero())
        assert total.is_rational()
        assert total.rational_value() == -1


class TestGalois:
    def test_definition(self):
        z = CyclotomicNumber.root_of_unity(12)
        assert galois_apply(5, z) == z ** 5

    def test_fixes_rationals(self):
        r = CyclotomicNumber.from_rational(Fraction(22, 7))
        assert galois_apply(5, r.promote(12)) == r

    def test_involution_mod_12(self):
        z = CyclotomicNumber.root_of_unity(12)
        assert galois_apply(5, galois_apply(5, z)) == z

    def test_not_coprime(self):
        z = CyclotomicNumber.root_of_unity(12)
        with pytest.raises(NotCoprime):
            z.galois(4)


small_rationals = st.fractions(min_value=-4, max_value=4, max_denominator=6)


def cyclotomics(conductor):
    phi = euler_phi(conductor)
    return st.lists(small_rationals, min_size=phi, max_size=phi).map(
        lambda cs: CyclotomicNumber(conductor, cs))


class TestGaloisProperties:
    @given(cyclotomics(12), cyclotomics(12),
           st.sampled_from([1, 5, 7, 11]))
    def test_field_automorphism(self, a, b, m):
        assert (a * b).galois(m) == a.galois(m) * b.galois(m)
        assert (a + b).galois(m) == a.galois(m) + b.galois(m)

    @given(cyclotomics(12), st.sampled_from([1, 5, 7, 11]),
           st.sampled_from([1, 5, 7, 11]))
    def test_composition(self, a, m, k):
        assert a.galois(m).galois(k) == a.galois((m * k) % 12)

    @given(small_rationals, small_rationals)
    def test_embedding_commutes(self, x, y):
        a = CyclotomicNumber.from_rational(x)
        b = CyclotomicNumber.from_rational(y)
        lifted = a.promote(6).promote(12) * b.promote(12)
        assert lifted == CyclotomicNumber.from_rational(x * y)

    @given(cyclotomics(8))
    def test_sub_self_is_canonical_zero(self, a):
        assert all(c == 0 for c in (a - a).coeffs)


class TestLiterals:
    @pytest.mark.parametrize("text,conductor", [
        ("3+2z^5-z^7", 24),
        ("-1/2+z", 8),
        ("7", 1),
        ("0", 1),
        ("z^11", 12),
        ("1/3", 5),
    ])
    def test_roundtrip(self, text, conductor):
        value = parse_cyclotomic(text, conductor)
        assert parse_cyclotomic(value.literal(), conductor) == value

    def test_canonical_emission_is_whitespace_free_ascending(self):
        z = CyclotomicNumber.root_of_unity(24)
        v = 3 + 2 * z ** 5 - z ** 7
        assert v.literal() == "3+2z^5-z^7"

    def test_rational_value_emits_rational(self):
        z = CyclotomicNumber.root_of_unity(6)
        v = (z + 1) - z  # rational 1 at conductor 6
        assert v.literal() == "1"

    def test_bad_literal(self):
        with pytest.raises(ParseError):
            parse_cyclotomic("2x^3", 8)
        with pytest.raises(ParseError):
            parse_cyclotomic("", 8)

    def test_format_rational(self):
        assert format_rational(Fraction(-3, 4)) == "-3/4"
        assert format_rational(Fraction(8, 2)) == "4"


class TestDecimalTextLimit:
    """Integers longer than Python's limit for decimal text are refused both
    ways, so every file the workbench writes reads back."""

    LIMIT = sys.get_int_max_str_digits()

    @pytest.mark.parametrize("value", [10 ** LIMIT, Fraction(1, 10 ** LIMIT), -(10 ** LIMIT)],
                             ids=["integer", "denominator", "negative"])
    def test_writer_refuses_as_a_data_error(self, value):
        with pytest.raises(G0wbError, match=f"{self.LIMIT}-digit limit") as err:
            format_rational(value)
        assert not isinstance(err.value, UsageError)

    def test_writer_keeps_the_longest_integer(self):
        assert format_rational(10 ** self.LIMIT - 1) == "9" * self.LIMIT

    @pytest.mark.parametrize("text", ["9" * (LIMIT + 1) + "z", "z^" + "9" * (LIMIT + 1),
                                      "1/" + "9" * (LIMIT + 1)],
                             ids=["coefficient", "power", "denominator"])
    def test_reader_refuses_as_a_parse_error(self, text):
        with pytest.raises(ParseError, match="bad rational literal"):
            parse_cyclotomic(text, 3)
