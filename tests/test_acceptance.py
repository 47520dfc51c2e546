"""Acceptance suite: one test per criterion, each printing a pass line with
its stated tolerance once its assertions have all held.  Run with

    pytest tests/test_acceptance.py -v -s
"""

import cmath
import math
import random
from fractions import Fraction

import pytest
import sympy

from g0wb.braid import (
    BraidWord,
    DEFAULT_ETA_KAPPA,
    ExtendedElement,
    braid_multiplier,
    burau,
    cyclic_group,
    dihedral_group,
    eta_multiplier_matrix,
    extended_mul,
    lift_braid,
    quilt_orbits,
    quilt_step,
    symmetric_group_3,
)
from g0wb.errors import Inconsistent
from g0wb.exactnum import CyclotomicNumber, euler_phi
from g0wb.goldens import GOLDEN_ORDER2
from g0wb.hauptmodul import bootstrap_extend, check_replication, classify
from g0wb.matrices import IDENTITY, IntMatrix
from g0wb.modeq import (
    UnivariatePoly,
    average_sum,
    build_modular_polynomial,
    coset_set,
    express_in_generator,
    symmetry_check,
    verify_modular_equation,
)
from g0wb.numeric import (
    UpperHalfPoint,
    check_weight_law,
    eisenstein_evaluator,
    eta_evaluator,
    eval_series,
    select_eta_kappa,
)
from g0wb.qseries import PuiseuxSeries, compare_to_order, substitute_coset
from g0wb.report import render


def series_evaluator(h):
    return lambda tau: eval_series(h, tau)


def announce(number: int, text: str) -> None:
    print(f"criterion {number:2d}: PASS - {text}")


def fiction(xi, conductor=1, trunc=64):
    return PuiseuxSeries.make({-1: 1, 1: xi}, trunc=trunc, conductor=conductor)


def classical_order2_reference():
    """Independent derivation of the golden polynomial: the classical
    order-2 polynomial of the j-invariant, shifted to the zero-constant
    normalization and flipped to the product-form sign."""
    x, y = sympy.symbols("x y")
    phi2 = (x ** 3 + y ** 3 - x ** 2 * y ** 2
            + 1488 * (x ** 2 * y + x * y ** 2) - 162000 * (x ** 2 + y ** 2)
            + 40773375 * x * y + 8748000000 * (x + y) - 157464000000000)
    shifted = sympy.expand(-phi2.subs({x: x + 744, y: y + 744}))
    return {monomial: int(c) for monomial, c
            in sympy.Poly(shifted, x, y).as_dict().items()}


def test_criterion_1_golden_order2(corpus_j):
    poly = build_modular_polynomial(corpus_j, 2)
    reference = classical_order2_reference()
    assert set(poly.coeffs) == set(reference)
    for key, value in reference.items():
        assert poly.coefficient(*key) == value
    assert poly == GOLDEN_ORDER2
    # the printed reference constants, where the printed source is correct:
    # 393768 on the squares, 40491318744 on the linear terms, and the xy
    # term as the product contribution 1 minus the printed 42987520.  The
    # printed absolute constant is garbled in the source; the value below
    # is fixed by three independent derivations (see the golden module).
    assert poly.coefficient(2, 0) == -393768
    assert poly.coefficient(0, 2) == -393768
    assert poly.coefficient(1, 0) == -40491318744
    assert poly.coefficient(0, 1) == -40491318744
    assert poly.coefficient(1, 1) == 1 - 42987520
    assert poly.coefficient(0, 0) == 121136760788544
    announce(1, "order-2 polynomial of the bundled series reproduced exactly "
                "(classical shift oracle + frozen goldens)")


def test_criterion_2_corpus_prefixes(corpus_j, corpus_g0_2, corpus_g0_13,
                                     corpus_g0_25):
    assert [int(corpus_j.coefficient(n).rational_value()) for n in (1, 2, 3)] == \
        [196884, 21493760, 864299970]
    assert [int(corpus_g0_2.coefficient(n).rational_value()) for n in range(1, 6)] == \
        [276, -2048, 11202, -49152, 184024]
    expected_13 = {-1: 1, 1: -1, 2: 2, 3: 1, 4: 2, 5: -2, 7: -2, 8: -2, 9: 1}
    assert {n: int(c.rational_value()) for n, c in corpus_g0_13.nonzero_items()} == \
        expected_13
    expected_25 = {-1: 1, 1: -1, 4: 1, 6: 1, 11: -1, 14: -1, 21: 1, 24: 1, 26: -1}
    assert {n: int(c.rational_value()) for n, c in corpus_g0_25.nonzero_items()} == \
        expected_25
    announce(2, "bundled prefixes match the published literals exactly")


def test_criterion_3_replication(corpus_j):
    for k in range(1, 11):
        assert check_replication(corpus_j, corpus_j, k), f"k = {k}"
    # closed identity at k = 1, reproduced by big-integer arithmetic
    c1 = corpus_j.coefficient(1).rational_value()
    c2 = corpus_j.coefficient(2).rational_value()
    c4 = corpus_j.coefficient(4).rational_value()
    c6 = corpus_j.coefficient(6).rational_value()
    assert c4 == 20245856256
    assert c4 + c1 * c2 == 4252023300096 == c6
    announce(3, "replication identities hold exactly for k = 1..10")


def test_criterion_4_averaging_identity(corpus_j):
    averaged = average_sum(corpus_j, 2)
    poly = express_in_generator(averaged, corpus_j)
    assert poly == UnivariatePoly.from_list([-393768, 0, 1])
    announce(4, "prime-2 average expressed exactly as x^2 - 393768")


def test_criterion_5_fiction_suite():
    for xi, expected in ((0, 0), (1, 1), (-1, -1)):
        result = classify(fiction(xi), {2, 3})
        assert result.verdict == "fiction"
        assert result.fiction_xi == expected
    q1 = PuiseuxSeries.monomial(-1, trunc=64)
    for m in (2, 3, 4, 5):
        poly = build_modular_polynomial(q1, m)
        assert poly.degx == poly.degy == len(coset_set(m))
        assert symmetry_check(poly)
        if m in (2, 3, 5):
            sign = -1 if m % 2 else 1
            base = {(m, m): 1, (m + 1, 0): -1, (0, m + 1): -1, (1, 1): 1}
            assert set(poly.coeffs) == set(base)
            for key, value in base.items():
                assert poly.coefficient(*key) == sign * value
        else:
            # psi(4) = 6: the naive two-factor pattern has bidegree 5 and
            # cannot be the answer; the product form carries the extra
            # primitive-coset factor (x + y)
            expected4 = {(6, 0): 1, (5, 1): 1, (2, 1): -1, (1, 2): -1,
                         (5, 4): -1, (4, 5): -1, (1, 5): 1, (0, 6): 1}
            assert set(poly.coeffs) == set(expected4)
            for key, value in expected4.items():
                assert poly.coefficient(*key) == value
        assert verify_modular_equation(q1, poly, m).status == "consistent"
    assert classify(fiction(2), {2}).verdict == "inconsistent"
    announce(5, "degenerate-series suite: fictions detected, fixed-point "
                "polynomials exact, xi = 2 rejected")


def test_criterion_6_coset_law():
    for m in range(2, 201):
        primes = set()
        rest, p = m, 2
        while p * p <= rest:
            while rest % p == 0:
                primes.add(p)
                rest //= p
            p += 1
        if rest > 1:
            primes.add(rest)
        psi_independent = Fraction(m)
        for p in primes:
            psi_independent *= Fraction(p + 1, p)
        assert len(coset_set(m)) == psi_independent
    announce(6, "coset-set cardinality equals the index formula for m = 2..200")


def test_criterion_7_bootstrap_roundtrip(corpus_j):
    seed = corpus_j.truncate(3)
    rebuilt = bootstrap_extend(seed, GOLDEN_ORDER2, 2, 50)
    assert rebuilt.trunc == 50
    assert compare_to_order(rebuilt, corpus_j, 50).equal
    corrupted = PuiseuxSeries.moonshine([196885, 21493760, 864299970])
    with pytest.raises(Inconsistent):
        bootstrap_extend(corrupted, GOLDEN_ORDER2, 2, 50)
    announce(7, "3-coefficient seed bootstraps to q^50 exactly; corrupted "
                "seed rejected")


def test_criterion_8_braid_suite():
    left = BraidWord.parse("s1 s2 s1")
    right = BraidWord.parse("s2 s1 s2")
    assert burau(left) == burau(right)
    assert lift_braid(left) == lift_braid(right)
    full_twist_sq = left ** 4
    assert lift_braid(full_twist_sq) == ExtendedElement(IDENTITY, 4)
    assert braid_multiplier(full_twist_sq) == -1
    rng = random.Random(0xB3)

    def random_word():
        return BraidWord.from_letters(
            (rng.choice([1, 2]), rng.choice([-2, -1, 1, 2]))
            for _ in range(rng.randint(0, 12)))

    for _ in range(10_000):
        x, y, z = (lift_braid(random_word()) for _ in range(3))
        assert extended_mul(extended_mul(x, y), z) == \
            extended_mul(x, extended_mul(y, z))
    announce(8, "braid relation, lifts, multiplier, and 10^4 associativity "
                "triples")


def test_criterion_9_quilt_suite():
    for table in (cyclic_group(2), symmetric_group_3(), dihedral_group(4)):
        n = table.order
        pairs = [(g, h) for g in range(n) for h in range(n)]
        for gen in ("s1", "s2"):
            image = {quilt_step(p, gen, table) for p in pairs}
            assert len(image) == n * n
            for p in pairs:
                assert quilt_step(quilt_step(p, gen, table), gen + "^-1", table) == p
        for p in pairs:
            via_left = p
            for gen in ("s1", "s2", "s1"):
                via_left = quilt_step(via_left, gen, table)
            via_right = p
            for gen in ("s2", "s1", "s2"):
                via_right = quilt_step(via_right, gen, table)
            assert via_left == via_right
        orbits = quilt_orbits(table)
        assert sum(len(o) for o in orbits) == n * n
        union = set()
        for orbit in orbits:
            assert not (orbit & union)
            union |= orbit
    announce(9, "quilt generators biject, satisfy the relation pointwise, "
                "and orbits partition G x G for the three test groups")


def test_criterion_10_numeric_laws(corpus_g0_2):
    i_point = UpperHalfPoint(0.0, 1.0)
    eta = eta_evaluator(120)
    translation = check_weight_law(eta, IntMatrix(1, 1, 0, 1), Fraction(1, 2),
                                   cmath.exp(1j * math.pi / 12), i_point)
    assert translation < 1e-8
    lower = IntMatrix(1, 0, 1, 1)
    inversion_law = check_weight_law(eta, lower, Fraction(1, 2),
                                     eta_multiplier_matrix(lower), i_point)
    assert inversion_law < 1e-8
    selection = select_eta_kappa()
    assert selection.winner == DEFAULT_ETA_KAPPA == Fraction(1, 4)
    by_candidate = {}
    for row in selection.panel.rows:
        key = row.label.split()[0]
        by_candidate[key] = by_candidate.get(key, True) and row.passed
    assert sum(by_candidate.values()) == 1
    assert any(not passed for passed in by_candidate.values())
    f4 = eisenstein_evaluator(4, 80)
    tau2 = UpperHalfPoint(0.0, 2.0)
    residual = check_weight_law(f4, IntMatrix(0, -1, 1, 0), 4, 1.0, tau2)
    combined = f4(UpperHalfPoint(0.0, 0.5)).tail_estimate \
        + 16 * f4(tau2).tail_estimate
    assert residual < combined
    assert len([n for n, _ in corpus_g0_2.nonzero_items() if n > 5]) >= 40
    ev = series_evaluator(corpus_g0_2)
    image = UpperHalfPoint.of(IntMatrix(1, 0, 2, 1).moebius(1j))
    assert abs(ev(i_point).value - ev(image).value) < 1e-6
    announce(10, "eta laws < 1e-8, constant selection unique (1/4), "
                 "weight-4 covariance within tails, level-2 invariance < 1e-6")


class TestCriterion11Batteries:
    CASES = 1000

    def test_galois_homomorphism(self):
        rng = random.Random(101)
        conductor = 12
        phi = euler_phi(conductor)
        units = [m for m in range(1, conductor) if math.gcd(m, conductor) == 1]

        def random_value():
            return CyclotomicNumber(conductor, [
                Fraction(rng.randint(-6, 6), rng.randint(1, 4))
                for _ in range(phi)])

        for _ in range(self.CASES):
            a, b = random_value(), random_value()
            m = rng.choice(units)
            k = rng.choice(units)
            assert (a * b).galois(m) == a.galois(m) * b.galois(m)
            assert (a + b).galois(m) == a.galois(m) + b.galois(m)
            assert a.galois(m).galois(k) == a.galois((m * k) % conductor)
        announce(11, f"galois battery: {self.CASES} randomized cases")

    def test_substitution_homomorphism(self):
        rng = random.Random(202)
        triples = [(2, 2, 1), (2, 1, 0), (3, 3, 1), (4, 2, 1), (4, 4, 3), (6, 3, 2)]

        def random_series():
            coeffs = {rng.randint(-2, 5): rng.randint(-9, 9)
                      for _ in range(rng.randint(1, 5))}
            return PuiseuxSeries.make(coeffs or {0: 1}, trunc=9)

        for _ in range(self.CASES):
            a, b = random_series(), random_series()
            m, d, k = rng.choice(triples)
            lhs = substitute_coset(a * b, m, d, k)
            rhs = substitute_coset(a, m, d, k) * substitute_coset(b, m, d, k)
            bound = min(lhs.trunc_exponent(), rhs.trunc_exponent())
            assert compare_to_order(lhs, rhs, bound).equal
        announce(11, f"substitution battery: {self.CASES} randomized cases")

    def test_truncation_monotonicity(self):
        rng = random.Random(303)
        for _ in range(self.CASES):
            a = PuiseuxSeries.make(
                {rng.randint(-3, 6): rng.randint(-9, 9) for _ in range(4)} or {0: 1},
                trunc=10)
            b = PuiseuxSeries.make(
                {rng.randint(-3, 6): rng.randint(-9, 9) for _ in range(4)} or {0: 1},
                trunc=10)
            cut = rng.randint(5, 9)
            full = a * b
            cut_prod = a.truncate(cut) * b.truncate(cut)
            bound = min(cut_prod.trunc_exponent(), full.trunc_exponent())
            assert compare_to_order(full.truncate(bound),
                                    cut_prod.truncate(bound), bound).equal
        announce(11, f"truncation battery: {self.CASES} randomized cases")

    def test_symmetry_of_built_polynomials(self, corpus_j):
        rng = random.Random(404)
        # families verified constructible: the bare pole at any small order,
        # xi = 1 at any small order, xi = -1 at odd orders, the bundled
        # series at order 2, and sixth-root twists at order 5
        plain = [(0, (2, 3, 4, 5)), (1, (2, 3, 4, 5)), (-1, (3, 5))]
        done = 0
        while done < self.CASES:
            roll = rng.random()
            if roll < 0.90:
                xi, orders = plain[rng.randrange(len(plain))]
                m = rng.choice(orders)
                poly = build_modular_polynomial(fiction(xi), m)
                assert symmetry_check(poly)
            elif roll < 0.97:
                poly = build_modular_polynomial(corpus_j, 2)
                assert symmetry_check(poly)
            else:
                j = rng.choice([1, 5, 7, 11])
                xi = CyclotomicNumber.root_of_unity(24, j)
                poly = build_modular_polynomial(
                    fiction(xi, conductor=24), 5, generalised=True)
                assert symmetry_check(poly, generalised=True)
            done += 1
        announce(11, f"symmetry battery: {self.CASES} built polynomials")

    def test_report_determinism(self):
        rng = random.Random(505)
        from g0wb.modeq import VerificationReport
        statuses = ["consistent", "inconsistent", "insufficient-data"]
        for _ in range(self.CASES):
            status = rng.choice(statuses)
            failure = None
            if status == "inconsistent":
                failure = (Fraction(rng.randint(-5, 20), rng.choice([1, 2, 3])),
                           CyclotomicNumber.from_rational(rng.randint(-9, 9)),
                           CyclotomicNumber.from_rational(rng.randint(-9, 9)))
            rep = VerificationReport(rng.choice([2, 3, 5]),
                                     Fraction(rng.randint(-3, 40)), status, failure)
            assert render(rep).text() == render(rep).text()
        announce(11, f"report determinism battery: {self.CASES} renders")
