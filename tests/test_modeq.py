from fractions import Fraction

import pytest
import sympy

from g0wb.errors import (
    ExpressFailure,
    InsufficientTruncation,
)
from g0wb.corpus import normalized_j
from g0wb.exactnum import CyclotomicNumber
from g0wb.goldens import GOLDEN_ORDER2
from g0wb.modeq import (
    ModularPolynomial,
    UnivariatePoly,
    average_sum,
    build_modular_polynomial,
    coset_set,
    emit_mpoly,
    express_in_generator,
    parse_mpoly,
    psi,
    required_truncation,
    symmetry_check,
    verify_modular_equation,
)
from g0wb.qseries import PuiseuxSeries, compare_to_order, substitute_coset


def psi_by_factorization(m):
    """Independent: factorize, then m * prod (1 + 1/p) over distinct primes."""
    primes = set()
    rest, p = m, 2
    while p * p <= rest:
        while rest % p == 0:
            primes.add(p)
            rest //= p
        p += 1
    if rest > 1:
        primes.add(rest)
    value = Fraction(m)
    for p in primes:
        value *= Fraction(p + 1, p)
    assert value.denominator == 1
    return value.numerator


class TestCosetSet:
    def test_order_two(self):
        assert coset_set(2).pairs == ((1, 0), (2, 0), (2, 1))

    def test_order_three(self):
        assert coset_set(3).pairs == ((1, 0), (3, 0), (3, 1), (3, 2))

    def test_order_four_primitivity(self):
        cs = coset_set(4)
        assert cs.pairs == ((1, 0), (2, 1), (4, 0), (4, 1), (4, 2), (4, 3))
        assert (2, 0) not in cs.pairs
        assert len(cs) == psi(4) == 6

    @pytest.mark.parametrize("m", range(2, 201))
    def test_cardinality_law(self, m):
        assert len(coset_set(m)) == psi_by_factorization(m)

    @pytest.mark.parametrize("m", [2, 3, 5, 6, 10, 15, 30, 105])
    def test_squarefree_keeps_all_pairs(self, m):
        divisor_pairs = sum(d for d in range(1, m + 1) if m % d == 0)
        assert len(coset_set(m)) == divisor_pairs


class TestAverageSum:
    def test_monomial(self):
        f = PuiseuxSeries.monomial(-1, trunc=40)
        s = average_sum(f, 2)
        assert s.coefficient(-2) == 1 and len(s.coeffs) == 1

    def test_cosine_like(self):
        f = PuiseuxSeries.make({-1: 1, 1: 1}, trunc=40)
        s = average_sum(f, 2)
        # direct coset expansion: the half-integer images cancel in pairs,
        # leaving f(2 tau) = q^-2 + q^2
        assert s.coefficient(-2) == 1
        assert s.coefficient(2) == 1
        assert len(s.coeffs) == 2

    def test_corpus_average_expresses_as_square_shift(self, corpus_j):
        s = average_sum(corpus_j, 2)
        poly = express_in_generator(s, corpus_j)
        assert poly == UnivariatePoly.from_list([-393768, 0, 1])

    def test_integrality_for_random_series(self):
        f = PuiseuxSeries.make({-1: 1, 1: 7, 2: -3, 5: 11}, trunc=30)
        for p in (2, 3, 5):
            assert average_sum(f, p).denom == 1

    def test_rejects_composite(self):
        f = PuiseuxSeries.monomial(-1, trunc=10)
        with pytest.raises(ValueError):
            average_sum(f, 4)


class TestExpress:
    def test_identity(self):
        h = PuiseuxSeries.moonshine([1], trunc=20)
        assert express_in_generator(h, h) == UnivariatePoly.from_list([0, 1])

    def test_failure_keeps_residual(self):
        h = PuiseuxSeries.make({-1: 1, 1: 1}, trunc=10)
        gen = PuiseuxSeries.make({-1: 1}, trunc=10)
        with pytest.raises(ExpressFailure) as err:
            express_in_generator(h, gen)
        assert err.value.residual.coefficient(1) == 1

    def test_polynomial_evaluation_roundtrip(self, corpus_j):
        s = average_sum(corpus_j, 2)
        poly = express_in_generator(s, corpus_j)
        value = poly(corpus_j)
        bound = min(value.trunc_exponent(), s.trunc_exponent())
        assert compare_to_order(value, s, bound).equal

    @pytest.mark.parametrize("values, text", [
        ([0], "0"),
        ([0, 0, -1], "-x^2"),
        ([3, -2], "-2x+3"),
        ([1, CyclotomicNumber.root_of_unity(3, 1), 0, 1], "x^3+(z)x+1"),
        ([0, CyclotomicNumber.root_of_unity(3, 1) + 1], "(1+z)x"),
    ])
    def test_str(self, values, text):
        assert str(UnivariatePoly.from_list(values)) == text


def fiction(xi_conductor=None, xi_power=1, coeff=None, trunc=64):
    if coeff is not None:
        return PuiseuxSeries.make({-1: 1, 1: coeff}, trunc=trunc)
    xi = CyclotomicNumber.root_of_unity(xi_conductor, xi_power)
    return PuiseuxSeries.make({-1: 1, 1: xi}, trunc=trunc, conductor=xi_conductor)


class TestBuild:
    def test_golden_order2(self, corpus_j):
        poly = build_modular_polynomial(corpus_j, 2)
        assert poly == GOLDEN_ORDER2
        assert symmetry_check(poly)

    def test_monomial_fiction_all_small_orders(self):
        q1 = PuiseuxSeries.monomial(-1, trunc=64)
        # prime orders: the sign-normalized pair polynomial
        for m in (2, 3, 5):
            poly = build_modular_polynomial(q1, m)
            sign = -1 if m % 2 else 1
            base = {(m, m): 1, (m + 1, 0): -1, (0, m + 1): -1, (1, 1): 1}
            assert set(poly.coeffs) == set(base)
            for key, value in base.items():
                assert poly.coefficient(*key) == sign * value
            assert symmetry_check(poly)

    def test_monomial_fiction_order_four(self):
        # psi(4) = 6 forces the extra primitive-coset factor x + y: the
        # product form is -(x^4 - y)(x + y)(y^4 - x)
        q1 = PuiseuxSeries.monomial(-1, trunc=64)
        poly = build_modular_polynomial(q1, 4)
        expected = {(6, 0): 1, (5, 1): 1, (2, 1): -1, (1, 2): -1,
                    (5, 4): -1, (4, 5): -1, (1, 5): 1, (0, 6): 1}
        assert set(poly.coeffs) == set(expected)
        for key, value in expected.items():
            assert poly.coefficient(*key) == value
        assert symmetry_check(poly)

    def test_cosine_like_order2(self):
        h = PuiseuxSeries.make({-1: 1, 1: 1}, trunc=64)
        poly = build_modular_polynomial(h, 2)
        # (x^2 - 2 - y)(y^2 - x - 2), expanded
        expected = {(2, 2): 1, (3, 0): -1, (0, 3): -1, (1, 1): 1,
                    (2, 0): -2, (0, 2): -2, (1, 0): 2, (0, 1): 2, (0, 0): 4}
        assert set(poly.coeffs) == set(expected)
        for key, value in expected.items():
            assert poly.coefficient(*key) == value

    def test_rejects_non_invariant_series(self):
        h = fiction(coeff=2)
        with pytest.raises(ExpressFailure):
            build_modular_polynomial(h, 2)

    def test_insufficient_truncation_reports_bound(self, corpus_j):
        shallow = corpus_j.truncate(5)
        with pytest.raises(InsufficientTruncation) as err:
            build_modular_polynomial(shallow, 2)
        assert err.value.required == required_truncation(2) == 17

    def test_monic_accessor(self, corpus_j):
        poly = build_modular_polynomial(corpus_j, 2)
        assert poly.coefficient(0, 3) == -1
        assert poly.monic().coefficient(0, 3) == 1


class TestGeneralisedBuild:
    def test_conductor1_reduces_to_ordinary(self, corpus_j):
        plain = build_modular_polynomial(corpus_j, 2)
        twisted = build_modular_polynomial(corpus_j, 2, generalised=True)
        assert plain == twisted

    def test_galois_twisted_fiction(self):
        # q^-1 + xi_3 q satisfies no ordinary order-2 relation, but the
        # twisted one with sigma_2 applied to the generator exists
        h = fiction(3, 1)
        with pytest.raises(ExpressFailure):
            build_modular_polynomial(h, 2)
        poly = build_modular_polynomial(h, 2, generalised=True)
        z3 = CyclotomicNumber.root_of_unity(3)
        # hand expansion: the y^2 slice is e_1 = (sigma_2 h)^2 - 2 xi_3^2
        assert poly.coefficient(2, 2) == 1
        assert poly.coefficient(0, 2) == -2 * z3 ** 2
        assert symmetry_check(poly, generalised=True)
        assert not symmetry_check(poly)
        report = verify_modular_equation(h, poly, 2, generalised=True)
        assert report.status == "consistent"

    def test_requires_coprime_conductor(self):
        h = fiction(3, 1)
        with pytest.raises(ValueError):
            build_modular_polynomial(h, 3, generalised=True)

    def test_field_is_read_from_the_series(self):
        # the polynomial is declared over h.conductor; nothing overrides it
        with pytest.raises(TypeError):
            build_modular_polynomial(fiction(3, 1), 2, conductor=3)


class TestVerify:
    def test_golden_consistency(self, corpus_j):
        report = verify_modular_equation(corpus_j, GOLDEN_ORDER2, 2)
        assert report.status == "consistent"
        assert report.verified_to >= 20

    def test_monomial_all_orders(self):
        q1 = PuiseuxSeries.monomial(-1, trunc=64)
        for m in (2, 3, 4, 5):
            poly = build_modular_polynomial(q1, m)
            report = verify_modular_equation(q1, poly, m)
            assert report.status == "consistent"

    def test_build_verify_roundtrip_trio(self, corpus_j):
        cosine = PuiseuxSeries.make({-1: 1, 1: 1}, trunc=64)
        q1 = PuiseuxSeries.monomial(-1, trunc=64)
        for h in (q1, cosine, corpus_j):
            for m in (2, 3):
                poly = build_modular_polynomial(h, m)
                assert verify_modular_equation(h, poly, m).status == "consistent"

    def test_mismatch_reports_first_failure(self, corpus_j):
        h = PuiseuxSeries.make({-1: 1, 1: 1}, trunc=64)
        report = verify_modular_equation(h, GOLDEN_ORDER2, 2)
        assert report.status == "inconsistent"
        exponent, expected, actual = report.first_failure
        assert expected != actual

    def test_no_order2_relation_for_xi_2_by_linear_solve(self):
        # Independent oracle: an order-2 relation for q^-1 + 2q would be a
        # rational solution, normalized to y^3 coefficient -1, of the linear
        # system "F vanishes on every coset substitution"; sympy's exact rank
        # proves the system has no solution: rank [A | b] > rank A.
        h = PuiseuxSeries.make({-1: 1, 1: 2}, trunc=24)
        roots = [substitute_coset(h, 2, d, k) for d, k in coset_set(2).pairs]
        unknowns = [(i, j) for i in range(4) for j in range(4)]
        norm_index = unknowns.index((0, 3))
        x_powers = [PuiseuxSeries.monomial(0, 60)]
        for _ in range(3):
            x_powers.append(x_powers[-1] * h)
        rows, rhs = [], []
        for root in roots:
            y_powers = [PuiseuxSeries.monomial(0, 60)]
            for _ in range(3):
                y_powers.append(y_powers[-1] * root)
            monos = {key: x_powers[key[0]] * y_powers[key[1]] for key in unknowns}
            bound = min(m.trunc_exponent() for m in monos.values())
            grid = max(m.denom for m in monos.values())
            exponents = sorted({Fraction(n, grid)
                                for n in range(int(-8 * grid), int(bound * grid) + 1)})
            for e in exponents:
                full_row = [monos[key].coefficient(e) for key in unknowns]
                if all(c.is_zero() for c in full_row):
                    continue
                row = [c.rational_value() for i, c in enumerate(full_row)
                       if i != norm_index]
                rows.append(row)
                rhs.append(full_row[norm_index].rational_value())  # moved: F has -1 there
        a = sympy.Matrix(rows)
        assert a.row_join(sympy.Matrix(rhs)).rank() > a.rank()

    def test_insufficient_data(self):
        h = PuiseuxSeries.moonshine([196884], trunc=1)
        report = verify_modular_equation(h, GOLDEN_ORDER2, 2)
        assert report.status == "insufficient-data"


def hurwitz_class_number(n):
    """H(n), counted from the reduced forms (a, b, c) of discriminant -n:
    |b| <= a <= c, b >= 0 when |b| = a or a = c.  a(x^2 + y^2) weighs 1/2,
    a(x^2 + xy + y^2) weighs 1/3, every other form 1."""
    total, a = Fraction(0), 1
    while 3 * a * a <= n:
        for b in range(1 - a, a + 1):
            c, rest = divmod(b * b + n, 4 * a)
            if not rest and (c > a or c == a and b >= 0):
                total += Fraction(1, 2) if c == a and b == 0 else \
                    Fraction(1, 3) if a == b == c else 1
        a += 1
    return total


class TestClassNumberDegree:
    """deg F_m(X, X) = sum_{d^2 | m} mu(d) sum_{t^2 < 4m/d^2} H(4m/d^2 - t^2)
    for non-square m (Cox, Primes of the form x^2 + ny^2, section 13): an
    oracle for composite orders that shares nothing with the build."""

    @pytest.mark.parametrize("n, h", [(3, Fraction(1, 3)), (4, Fraction(1, 2)), (7, 1),
                                      (12, Fraction(4, 3)), (15, 2), (16, Fraction(3, 2)),
                                      (23, 3), (27, Fraction(4, 3))])
    def test_hurwitz_class_numbers(self, n, h):
        assert hurwitz_class_number(n) == h

    @pytest.mark.parametrize("m", [2, 3, 5, 6, 7, 8, 10, 11, 12, 13, 14, 15])
    def test_diagonal_degree_of_j(self, m):
        poly = build_modular_polynomial(normalized_j(required_truncation(m)), m)
        diagonal = {}
        for (i, j), c in poly.coeffs.items():
            diagonal[i + j] = diagonal.get(i + j, CyclotomicNumber.zero()) + c
        degree = max(k for k, c in diagonal.items() if not c.is_zero())
        assert degree == sum(
            sympy.mobius(d) * sum(hurwitz_class_number(4 * m // d**2 - t * t)
                                  for t in range(-2 * m, 2 * m + 1) if t * t < 4 * m // d**2)
            for d in range(1, m + 1) if m % (d * d) == 0)


class TestSymmetry:
    def test_asymmetric_input(self):
        poly = ModularPolynomial(2, 1, {
            (2, 1): CyclotomicNumber.from_rational(1),
            (1, 0): CyclotomicNumber.from_rational(-1),
        }, 2, 2)
        assert not symmetry_check(poly)

    def test_build_outputs_symmetric(self, corpus_j, corpus_g0_2):
        for series, m in ((corpus_j, 2), (corpus_j, 3), (corpus_g0_2, 3)):
            assert symmetry_check(build_modular_polynomial(series, m))


class TestMpolyFormat:
    def test_roundtrip(self, corpus_j):
        poly = build_modular_polynomial(corpus_j, 2)
        text = emit_mpoly(poly)
        back = parse_mpoly(text)
        assert back == poly
        assert emit_mpoly(back) == text

    def test_cyclotomic_coefficients_roundtrip(self):
        h = fiction(3, 1)
        poly = build_modular_polynomial(h, 2, generalised=True)
        text = emit_mpoly(poly)
        back = parse_mpoly(text)
        assert back == poly
        assert emit_mpoly(back) == text
