import cmath
import math
from fractions import Fraction

import pytest

from g0wb.braid import DEFAULT_ETA_KAPPA, eta_multiplier_matrix
from g0wb.corpus import eta_product_series
from g0wb.errors import NonConvergent, UsageError
from g0wb.matrices import IntMatrix
from g0wb.numeric import (
    MAX_RADIUS,
    MAX_TERMS,
    EvalResult,
    KAPPA_PANEL,
    UpperHalfPoint,
    check_weight_law,
    complex_of,
    eisenstein_eval,
    eisenstein_evaluator,
    eta_eval,
    eta_evaluator,
    eval_series,
    _principal_power,
    select_eta_kappa,
)
from g0wb.exactnum import CyclotomicNumber
from g0wb.qseries import PuiseuxSeries

I_POINT = UpperHalfPoint(0.0, 1.0)


def series_evaluator(h):
    return lambda tau: eval_series(h, tau)


def lift_phi(f, k, mu, g):
    """Lift of a form to the group: phi(g) = f(g.i) * (c*i + d)^(-k) *
    conj(mu(g)).

    ``mu`` is the multiplier's value at g, or None for the trivial
    multiplier (used off the discrete group).
    """
    a, b, c, d = (float(x) for x in g)
    det = a * d - b * c
    if abs(det - 1.0) > 1e-9:
        raise UsageError(f"determinant {det} != 1")
    point = UpperHalfPoint.of((a * 1j + b) / (c * 1j + d))
    return (f(point).value * _principal_power(c * 1j + d, -float(k))
            * complex(1 if mu is None else mu).conjugate())


class TestEvalSeries:
    def test_single_pole_term(self):
        result = eval_series(PuiseuxSeries.monomial(-1, trunc=10), I_POINT)
        assert abs(result.value - math.exp(2 * math.pi)) < 1e-9

    def test_cosine_like(self):
        series = PuiseuxSeries.make({-1: 1, 1: 1}, trunc=10)
        expected = math.exp(2 * math.pi) + math.exp(-2 * math.pi)
        assert abs(eval_series(series, I_POINT).value - expected) < 1e-9

    def test_rejects_near_real_line(self):
        with pytest.raises(NonConvergent):
            eval_series(PuiseuxSeries.monomial(-1, trunc=10), UpperHalfPoint(0, 0.05))

    def test_self_dual_point(self, corpus_j):
        # tau = i is fixed by the inversion, so the two evaluations agree
        left = eval_series(corpus_j, I_POINT)
        inverted = UpperHalfPoint.of(-1 / complex(0, 1))
        right = eval_series(corpus_j, inverted)
        assert abs(left.value - right.value) <= left.tail_estimate + right.tail_estimate

    def test_cyclotomic_coefficients(self):
        z = CyclotomicNumber.root_of_unity(4)  # i
        series = PuiseuxSeries.make({0: z}, trunc=4, conductor=4)
        value = eval_series(series, I_POINT).value
        assert abs(value - 1j) < 1e-12

    def test_complex_of(self):
        z6 = CyclotomicNumber.root_of_unity(6)
        assert abs(complex_of(z6) - cmath.exp(2j * math.pi / 6)) < 1e-12


class TestEta:
    def test_real_positive_at_i(self):
        result = eta_eval(I_POINT, 80)
        assert result.value.real > 0
        assert abs(result.value.imag) < 1e-12
        known = math.gamma(0.25) / (2 * math.pi ** 0.75)
        assert abs(result.value.real - known) < 1e-10

    def test_translation_ratio(self):
        shifted = eta_eval(UpperHalfPoint(1.0, 1.0), 80).value
        base = eta_eval(I_POINT, 80).value
        assert abs(shifted / base - cmath.exp(1j * math.pi / 12)) < 1e-10

    def test_decreasing_magnitude_up_the_axis(self):
        assert abs(eta_eval(UpperHalfPoint(0, 2.0), 80).value) < \
            abs(eta_eval(I_POINT, 80).value)

    def test_matches_exact_product_expansion(self):
        # the exact 50-factor expansion of the product, evaluated as a series
        series = eta_product_series(50)
        for point in (I_POINT, UpperHalfPoint(1.0 / 3.0, 1.0)):
            via_series = eval_series(series, point).value
            direct = eta_eval(point, 50).value
            assert abs(via_series - direct) < 1e-10


class TestEisenstein:
    def test_periodicity(self):
        a = eisenstein_eval(4, I_POINT, 60)
        b = eisenstein_eval(4, UpperHalfPoint(1.0, 1.0), 60)
        assert abs(a.value - b.value) <= a.tail_estimate + b.tail_estimate

    def test_weight4_covariance_at_2i(self):
        f = eisenstein_evaluator(4, 80)
        tau = UpperHalfPoint(0.0, 2.0)
        residual = check_weight_law(f, IntMatrix(0, -1, 1, 0), 4, 1.0, tau)
        image = UpperHalfPoint(0.0, 0.5)
        combined = f(image).tail_estimate + 16 * f(tau).tail_estimate
        assert residual < combined

    def test_weight6_vanishing_at_i(self):
        result = eisenstein_eval(6, I_POINT, 40)
        assert abs(result.value) < result.tail_estimate

    def test_rejects_odd_or_small_weight(self):
        with pytest.raises(ValueError):
            eisenstein_eval(3, I_POINT, 10)
        with pytest.raises(ValueError):
            eisenstein_eval(2, I_POINT, 10)


class TestLoopBounds:
    """The product and the lattice sum run as many steps as asked, and q^n
    does not reach 0 to stop them early, so the step counts are capped."""

    def test_terms_above_the_cap(self):
        for terms in (MAX_TERMS + 1, 10**12):
            with pytest.raises(ValueError, match="largest supported"):
                eta_eval(I_POINT, terms)

    def test_radius_above_the_cap(self):
        for radius in (MAX_RADIUS + 1, 10**6):
            with pytest.raises(ValueError, match="largest supported"):
                eisenstein_eval(4, I_POINT, radius)

    def test_largest_allowed_values_run(self):
        # at Im tau = 0.1, |q| ~ 0.53 and q^n sticks at the smallest subnormal
        slow = UpperHalfPoint(0.0, 0.1)
        result = eta_eval(slow, MAX_TERMS)
        assert result.terms_used == MAX_TERMS
        assert abs(result.value - eta_eval(slow, 1000).value) < 1e-12
        lattice = eisenstein_eval(4, I_POINT, MAX_RADIUS)
        assert lattice.terms_used == (2 * MAX_RADIUS + 1) ** 2 - 1
        assert abs(lattice.value - eisenstein_eval(4, I_POINT, 80).value) \
            <= eisenstein_eval(4, I_POINT, 80).tail_estimate


class TestTailSelfConsistency:
    @pytest.mark.parametrize("im", [0.5, 1.0, 1.7, 3.0])
    def test_series_eval(self, corpus_j, im):
        point = UpperHalfPoint(0.3, im)
        base = eval_series(corpus_j, point)
        deeper = eval_series(corpus_j.truncate(30), point)
        # the two truncations differ by (much) less than the shallower tail
        assert abs(base.value - deeper.value) <= deeper.tail_estimate

    @pytest.mark.parametrize("im", [0.5, 1.0, 1.7, 3.0])
    def test_eta(self, im):
        point = UpperHalfPoint(-0.2, im)
        coarse = eta_eval(point, 40)
        fine = eta_eval(point, 80)
        assert abs(coarse.value - fine.value) <= coarse.tail_estimate

    @pytest.mark.parametrize("im", [0.5, 1.0, 1.7, 3.0])
    def test_eisenstein(self, im):
        point = UpperHalfPoint(0.1, im)
        coarse = eisenstein_eval(4, point, 25)
        fine = eisenstein_eval(4, point, 50)
        assert abs(coarse.value - fine.value) <= coarse.tail_estimate


class TestWeightLaws:
    def test_eta_translation(self):
        mu = cmath.exp(1j * math.pi / 12)
        residual = check_weight_law(eta_evaluator(90), IntMatrix(1, 1, 0, 1),
                                    Fraction(1, 2), mu, I_POINT)
        assert residual < 1e-8

    def test_eta_positive_c_with_selected_kappa(self):
        mat = IntMatrix(1, 0, 1, 1)
        mu = eta_multiplier_matrix(mat)
        residual = check_weight_law(eta_evaluator(90), mat, Fraction(1, 2), mu, I_POINT)
        assert residual < 1e-8

    def test_eta_panel_with_selected_kappa(self):
        for mat, point in KAPPA_PANEL:
            mu = eta_multiplier_matrix(mat)
            residual = check_weight_law(eta_evaluator(120), mat,
                                        Fraction(1, 2), mu, point)
            assert residual < 1e-8, str(mat)

    def test_kappa_selection_unique(self):
        selection = select_eta_kappa()
        assert selection.winner == Fraction(1, 4) == DEFAULT_ETA_KAPPA
        outcomes = {}
        for row in selection.panel.rows:
            key = row.label.split()[0]
            outcomes.setdefault(key, True)
            outcomes[key] &= row.passed
        # exactly one candidate passes, at least one is rejected
        assert sum(outcomes.values()) == 1
        assert any(not v for v in outcomes.values())


class TestHauptmodulInvariance:
    def test_level2_series_under_level2_matrix(self, corpus_g0_2):
        mat = IntMatrix(1, 0, 2, 1)
        from g0wb.hauptmodul import congruence_membership
        assert congruence_membership(mat, 2, "gamma0")
        ev = series_evaluator(corpus_g0_2)
        image = UpperHalfPoint.of(mat.moebius(1j))
        assert abs(ev(I_POINT).value - ev(image).value) < 1e-6


class TestLift:
    def test_identity_is_value_at_i(self):
        f = eta_evaluator(90)
        assert abs(lift_phi(f, Fraction(1, 2), None, (1, 0, 0, 1))
                   - eta_eval(I_POINT, 90).value) < 1e-12

    def test_rotation_covariance(self):
        f = eisenstein_evaluator(4, 60)
        base = lift_phi(f, 4, None, (1, 0, 0, 1))
        for theta in (0.3, 1.0, 2.2):
            c, s = math.cos(theta), math.sin(theta)
            value = lift_phi(f, 4, None, (c, -s, s, c))
            assert abs(value - base * cmath.exp(-4j * theta)) < 1e-6

    def test_group_invariance_for_eta(self):
        f = eta_evaluator(90)
        mu = cmath.exp(1j * math.pi / 12)
        base = lift_phi(f, Fraction(1, 2), None, (1, 0, 0, 1))
        shifted = lift_phi(f, Fraction(1, 2), mu, (1, 1, 0, 1))
        assert abs(shifted - base) < 1e-8

    def test_rejects_wrong_determinant(self):
        with pytest.raises(ValueError):
            lift_phi(eta_evaluator(50), Fraction(1, 2), None, (2, 0, 0, 1))


class TestEvalResultShape:
    def test_fields(self):
        result = eval_series(PuiseuxSeries.monomial(-1, trunc=5), I_POINT)
        assert isinstance(result, EvalResult)
        assert result.tail_estimate >= 0
        assert result.terms_used == 1

    def test_upper_half_validation(self):
        with pytest.raises(ValueError):
            UpperHalfPoint(0.0, -1.0)
