"""Differential tests of the class-power-sum construction of modular
equations against the coset product it replaced, kept here as an oracle:
substitute h into every coset (promoting coefficients to the cyclotomic
field of the substitution), expand the product one root at a time, and
project each coefficient back to the declared field.

Also: the Kronecker congruence F_p(X, Y) = (X^p - Y)(X - Y^p) mod p as an
independent oracle for built polynomials, the closed-form class weights
against the sums of roots of unity they stand for, and the header bound on
declared conductors."""

import cmath
import functools
import math
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from g0wb.cli import main
from g0wb.corpus import eta_quotient_level2, normalized_j
from g0wb.errors import (
    G0wbError,
    InsufficientTruncation,
    NonIntegralInput,
    ParseError,
    UsageError,
)
from g0wb.exactnum import MAX_CONDUCTOR, CyclotomicNumber, _fold, _power_table, parse_cyclotomic
from g0wb import qseries
from g0wb.modeq import (
    ModularPolynomial,
    VerificationReport,
    _class_power_sum,
    _class_weights,
    _coset_elementary,
    average_sum,
    build_modular_polynomial,
    coset_set,
    emit_mpoly,
    express_in_generator,
    parse_mpoly,
    psi,
    required_truncation,
    verify_modular_equation,
)
from g0wb.qseries import PuiseuxSeries, emit_qexp, parse_qexp, substitute_coset


# -- the coset-product oracle ---------------------------------------------------

class NotInvariant(G0wbError):
    """The oracle's input does not satisfy the modular equation being
    constructed.  The library has no such failure: a successful build has
    x-degree psi(m), since the leading terms of the psi(m) coset roots
    multiply to a root of unity times q^(-psi(m))."""


def _one():
    return PuiseuxSeries.make({0: 1}, trunc=10**9)


def oracle_roots(h, m):
    return [substitute_coset(h, m, d, k) for d, k in coset_set(m).pairs]


def oracle_elementary(h, m):
    """e_0..e_n of the coset roots, by the one-root-at-a-time recurrence."""
    es = [_one()]
    for r in oracle_roots(h, m):
        nxt = [es[0]]
        for j in range(1, len(es)):
            nxt.append(es[j] + r * es[j - 1])
        nxt.append(r * es[-1])
        es = nxt
    return es


def oracle_product_in_y(h, m):
    """Coefficients in Y of prod (root - Y), ascending powers of Y."""
    coeffs = [_one()]
    for r in oracle_roots(h, m):
        shifted = [c * r for c in coeffs]
        nxt = [shifted[0]]
        for t in range(1, len(coeffs)):
            nxt.append(shifted[t] - coeffs[t - 1])
        nxt.append(-coeffs[-1])
        coeffs = nxt
    return coeffs


def oracle_build(h, m, generalised=False):
    """build_modular_polynomial's checks and pole-killing on oracle e_j.

    The coset product carries e_j over Q(xi_lcm(N, d)), so the oracle's
    coefficients may sit on a larger basis than the build's; ``==``
    compares values."""
    field = h.conductor
    if generalised and math.gcd(m, field) != 1:
        raise ValueError("twisted construction needs gcd(m, field) = 1")
    need = required_truncation(m)
    if h.trunc < need:
        raise InsufficientTruncation("too shallow", required=need)
    elementary = oracle_elementary(h, m)
    degree = len(elementary) - 1
    generator = h if not generalised else h.map_coefficients(lambda c: c.galois(m))
    slices = {}
    for j, e_j in enumerate(elementary):
        if e_j.denom != 1:
            raise NotInvariant(f"e_{j} kept a fractional exponent")
        poly = express_in_generator(e_j, generator)
        sign = -1 if (degree - j) % 2 else 1
        for i, c in enumerate(poly.coeffs):
            if not c.is_zero():
                slices[(i, degree - j)] = c * sign
    if max((i for i, _ in slices), default=0) != degree:
        raise NotInvariant("x-degree != psi(m)")
    return ModularPolynomial(m, field, slices, degree, degree)


def oracle_verify(h, poly, m, generalised=False):
    """verify_modular_equation with the product side expanded root by root
    and the comparison written out."""
    product_side = oracle_product_in_y(h, m)
    generator = h if not generalised else h.map_coefficients(lambda c: c.galois(m))
    powers = [_one()]
    for _ in range(poly.degx):
        powers.append(powers[-1] * generator)
    verified_to = None
    for t, slice_map in enumerate(poly.y_slices()):
        lhs = product_side[t]
        rhs = PuiseuxSeries.make({}, trunc=10**9)
        for i, c in sorted(slice_map.items()):
            rhs = rhs + powers[i].scale(c)
        bound = min(lhs.trunc_exponent(), rhs.trunc_exponent())
        verified_to = bound if verified_to is None else min(verified_to, bound)
        if bound < 0:
            return VerificationReport(m, bound, "insufficient-data")
        denom = math.lcm(lhs.denom, rhs.denom)
        la = {n * (denom // lhs.denom): c for n, c in lhs.coeffs.items()}
        rb = {n * (denom // rhs.denom): c for n, c in rhs.coeffs.items()}
        top = math.floor(bound * denom)
        for n in sorted(set(la) | set(rb)):
            if n > top:
                break
            expected = la.get(n, CyclotomicNumber.zero())
            actual = rb.get(n, CyclotomicNumber.zero())
            if expected != actual:
                return VerificationReport(
                    m, verified_to, "inconsistent",
                    first_failure=(Fraction(n, denom), expected, actual))
    return VerificationReport(m, verified_to, "consistent")


def oracle_average(f, p):
    total = substitute_coset(f, p, 1, 0)
    for k in range(p):
        total = total + substitute_coset(f, p, p, k)
    return total


# -- strategies -----------------------------------------------------------------

def _coefficient(conductor):
    small = st.integers(-3, 3)
    if conductor == 1:
        return small
    return st.lists(small, min_size=conductor, max_size=conductor).map(
        lambda vec: sum((CyclotomicNumber.root_of_unity(conductor, p) * c
                         for p, c in enumerate(vec) if c), CyclotomicNumber.zero()))


@st.composite
def moonshine_series(draw, max_trunc=40):
    conductor = draw(st.sampled_from([1, 3, 4, 5, 12]))
    trunc = draw(st.integers(1, max_trunc))
    tail = draw(st.dictionaries(st.integers(1, trunc), _coefficient(conductor), max_size=4))
    return PuiseuxSeries.make({-1: 1, **tail}, trunc=trunc, conductor=conductor)


def _in_field_of(poly, h):
    """Every coefficient of poly lies in Q[xi_N], N = h.conductor."""
    return all(h.conductor % c.conductor == 0 for c in poly.coeffs.values())


def _outcome(fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except (G0wbError, ValueError) as exc:
        return type(exc)


@functools.lru_cache(maxsize=None)
def _monomial_poly(m):
    return build_modular_polynomial(PuiseuxSeries.monomial(-1, trunc=10**4), m)


# -- differential tests ---------------------------------------------------------

def _assert_agrees(new, old):
    """Same coefficients on the common determined range; the new series is
    determined at least as far as the oracle's."""
    assert new.trunc_exponent() >= old.trunc_exponent()
    bound = old.trunc_exponent()
    keys = {Fraction(n, new.denom) for n in new.coeffs}
    keys |= {Fraction(n, old.denom) for n in old.coeffs}
    for e in keys:
        if e <= bound:
            assert new.coefficient(e) == old.coefficient(e), e


class TestAgainstCosetProduct:
    @pytest.mark.parametrize("m", range(2, 8))
    def test_j_elementary_identical(self, m):
        h = normalized_j(required_truncation(m))
        new_es = list(_coset_elementary(h, m))
        assert new_es[0] == h ** 0
        for new, old in zip(new_es[1:], oracle_elementary(h, m)[1:], strict=True):
            assert (new.denom, new.lo, new.trunc) == (old.denom, old.lo, old.trunc)
            assert new == old

    @pytest.mark.parametrize("m", range(2, 6))
    def test_bundled_elementary_identical(self, m, corpus_j, corpus_g0_2,
                                          corpus_g0_13, corpus_g0_25):
        for h in (corpus_j, corpus_g0_2, corpus_g0_13, corpus_g0_25):
            new_es = list(_coset_elementary(h, m))
            assert new_es[0] == h ** 0
            for new, old in zip(new_es[1:], oracle_elementary(h, m)[1:], strict=True):
                assert (new.denom, new.lo, new.trunc) == (old.denom, old.lo, old.trunc)
                assert new == old

    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(moonshine_series(), st.integers(2, 9))
    def test_random_series(self, h, m):
        new_es = list(_coset_elementary(h, m))
        old_es = oracle_elementary(h, m)
        assert len(new_es) == len(old_es) == psi(m) + 1
        assert new_es[0] == h ** 0
        for new, old in zip(new_es[1:], old_es[1:]):
            assert new.denom == 1
            _assert_agrees(new, old)
        poly = _monomial_poly(m)
        assert verify_modular_equation(h, poly, m) == oracle_verify(h, poly, m)
        built = _outcome(build_modular_polynomial, h, m)
        expected = _outcome(oracle_build, h, m)
        if isinstance(built, ModularPolynomial):
            assert built == expected and built.conductor == expected.conductor
            assert _in_field_of(built, h)
            assert verify_modular_equation(h, built, m) == oracle_verify(h, built, m)
        else:
            assert built is expected

    @settings(max_examples=30, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(moonshine_series(), st.sampled_from([2, 3, 5, 7]))
    def test_random_average(self, f, p):
        new = average_sum(f, p)
        old = oracle_average(f, p)
        assert new.conductor == old.conductor
        assert (new.denom, new.lo, new.trunc) == (old.denom, old.lo, old.trunc)
        assert new == old

    def test_generalised_fiction(self):
        xi = CyclotomicNumber.root_of_unity(3)
        h = PuiseuxSeries.make({-1: 1, 1: xi}, trunc=64, conductor=3)
        for m in (2, 4, 5):
            new = build_modular_polynomial(h, m, generalised=True)
            assert new == oracle_build(h, m, generalised=True)
            assert _in_field_of(new, h)
            assert (verify_modular_equation(h, new, m, generalised=True)
                    == oracle_verify(h, new, m, generalised=True))

    def test_failure_report_is_written_in_the_field_of_h(self):
        # q^-1 + xi_3 q against its twisted polynomial, checked untwisted:
        # the coset product used to carry this coefficient over Q(xi_6),
        # where the same number reads "z"
        xi = CyclotomicNumber.root_of_unity(3)
        h = PuiseuxSeries.make({-1: 1, 1: xi}, trunc=30, conductor=3)
        poly = build_modular_polynomial(h, 2, generalised=True)
        report = verify_modular_equation(h, poly, 2)
        exponent, expected, actual = report.first_failure
        assert (exponent, expected.literal(), actual.literal()) == (-1, "1+z", "-2-5z")
        assert report == oracle_verify(h, poly, 2)

    def test_failure_report_reads_the_polynomial_side_on_its_basis(self):
        # the twisted polynomial of q^-1 + xi_3 q declared over Q(xi_12): both
        # sides of a failure are written on the basis of xi_12, the series'
        # side too, where -2 - 2 xi_3 reads -2z^2
        xi = CyclotomicNumber.root_of_unity(3)
        poly = build_modular_polynomial(
            PuiseuxSeries.make({-1: 1, 1: xi}, trunc=30, conductor=3), 2, generalised=True)
        wide = ModularPolynomial(2, 12, {k: c.promote(12) for k, c in poly.coeffs.items()},
                                 poly.degx, poly.degy)
        h = PuiseuxSeries.make({-1: 1, 1: xi + 1}, trunc=30, conductor=3)
        report = verify_modular_equation(h, wide, 2, generalised=True)
        exponent, expected, actual = report.first_failure
        assert (exponent, expected.literal(), actual.literal()) == (-2, "-2z^2", "2-2z^2")
        assert report == oracle_verify(h, wide, 2, generalised=True)


def _twisted_j(n, depth):
    """h_N = xi_N * J(tau + 1/N)."""
    return PuiseuxSeries.make(
        {k: c * CyclotomicNumber.root_of_unity(n, k + 1)
         for k, c in normalized_j(depth).coeffs.items()}, trunc=depth, conductor=n)


def _mixed_field_failure():
    """The twisted j of conductor 3 with 2 added at q^1, and the order-4
    polynomial of the unperturbed series, emitted with ``conductor: 12`` and
    read back."""
    h = _twisted_j(3, required_truncation(4))
    poly = build_modular_polynomial(h, 4)
    wide = parse_mpoly(emit_mpoly(ModularPolynomial(4, 12, poly.coeffs, poly.degx, poly.degy)))
    coeffs = dict(h.coeffs)
    coeffs[1] += 2
    return PuiseuxSeries.make(coeffs, trunc=h.trunc, conductor=3), wide


def oracle_first_difference(h, poly, m):
    """(e, d): the first y-slice of F(h, Y) minus the coset product that is
    not zero, at its lowest exponent e, with its coefficient d there."""
    powers = [_one()]
    for _ in range(poly.degx):
        powers.append(powers[-1] * h)
    for slice_map, lhs in zip(poly.y_slices(), oracle_product_in_y(h, m)):
        diff = -lhs
        for i, c in slice_map.items():
            diff = diff + powers[i].scale(c)
        if not diff.is_zero():
            e = diff.min_nonzero_exponent()
            return e, diff.coefficient(e)
    return None


class TestFailureOnOneField:
    """A conductor-3 series against a polynomial over Q(xi_12): both values
    of the first failure are literals on conductor 12, and their difference
    is the coefficient of F(h, Y) minus the coset product there."""

    def test_library_report(self):
        h, wide = _mixed_field_failure()
        report = verify_modular_equation(h, wide, 4)
        exponent, expected, actual = report.first_failure
        assert (exponent, expected.conductor, actual.conductor) == (-5, 12, 12)
        assert parse_cyclotomic(expected.literal(), 12) == expected
        assert parse_cyclotomic(actual.literal(), 12) == actual
        assert (exponent, actual - expected) == oracle_first_difference(h, wide, 4)

    def test_cli_report(self, tmp_path, capsys):
        h, wide = _mixed_field_failure()
        (tmp_path / "h3.qexp").write_text(emit_qexp(h, "h3"), encoding="utf-8")
        (tmp_path / "f4.mpoly").write_text(emit_mpoly(wide), encoding="utf-8")
        code = main(["verify", "--series", str(tmp_path / "h3.qexp"),
                     "--modpoly", str(tmp_path / "f4.mpoly"), "--order", "4"])
        out = capsys.readouterr().out
        machine = dict(line.split("=", 1) for line in out.split("---\n", 1)[1].splitlines())
        expected = parse_cyclotomic(machine["failure_expected"], 12)
        actual = parse_cyclotomic(machine["failure_actual"], 12)
        assert code == 1
        assert f"  expected {machine['failure_expected']}\n" in out
        assert (Fraction(machine["failure_exponent"]), actual - expected) == \
            oracle_first_difference(h, wide, 4)


class TestIntegrality:
    """Class power sums have integral exponents, so every e_j has denom 1;
    this is why the build needs no fractional-exponent check."""

    @settings(max_examples=80, deadline=None)
    @given(moonshine_series(max_trunc=20), st.integers(2, 12))
    def test_every_elementary_function_has_integral_exponents(self, h, m):
        assert all(e.denom == 1 for e in _coset_elementary(h, m))

    def test_average_rejects_fractional_input(self):
        f = PuiseuxSeries.make({-1: 1, 1: 1}, trunc=10, denom=2)
        with pytest.raises(NonIntegralInput):
            average_sum(f, 2)


# -- Kronecker congruence ---------------------------------------------------------

def _kronecker_reduced(p):
    """(X^p - Y)(X - Y^p) = X^(p+1) - X^p Y^p - X Y + Y^(p+1)."""
    return {(p + 1, 0): 1, (p, p): -1, (1, 1): -1, (0, p + 1): 1}


@pytest.mark.parametrize("series, p", [
    (normalized_j, 2), (normalized_j, 3), (normalized_j, 5), (normalized_j, 7),
    (eta_quotient_level2, 3), (eta_quotient_level2, 5), (eta_quotient_level2, 7),
])
def test_kronecker_congruence(series, p):
    poly = build_modular_polynomial(series(required_truncation(p)), p)
    expected = _kronecker_reduced(p)
    for key in set(poly.coeffs) | set(expected):
        c = poly.coefficient(*key).rational_value()
        assert c.denominator == 1
        assert (c.numerator - expected.get(key, 0)) % p == 0, key


# -- conductor header bound ------------------------------------------------------

def _qexp(conductor, coefficient="z"):
    return ("# qexp v1\nlabel: F\nconductor: %d\ndenom: 1\nlo: -1\ntrunc: 4\n"
            "-1 1\n1 %s\n" % (conductor, coefficient))


def _mpoly(conductor):
    return "# mpoly v1\norder: 2\nconductor: %d\ndegx: 3\ndegy: 3\n0 3 z\n" % conductor


def _deeper_qexp(conductor):
    return ("# qexp v1\nlabel: F\nconductor: %d\ndenom: 1\nlo: -1\ntrunc: 6\n"
            "-1 1\n1 z\n2 z^2\n4 z^4\n6 z\n" % conductor)


class TestConductorBound:
    @pytest.mark.parametrize("conductor", [10**9, MAX_CONDUCTOR + 1, 0, -5])
    def test_qexp_header_rejected(self, conductor):
        tables = _power_table.cache_info().misses
        with pytest.raises(ParseError) as err:
            parse_qexp(_qexp(conductor))
        assert err.value.line == 3
        assert _power_table.cache_info().misses == tables

    @pytest.mark.parametrize("conductor", [10**9, MAX_CONDUCTOR + 1, 0])
    def test_mpoly_header_rejected(self, conductor):
        tables = _power_table.cache_info().misses
        with pytest.raises(ParseError) as err:
            parse_mpoly(_mpoly(conductor))
        assert err.value.line == 3
        assert _power_table.cache_info().misses == tables

    def test_small_conductors_still_parse(self):
        assert parse_qexp(_qexp(24))[0].conductor == 24
        assert parse_mpoly(_mpoly(24)).conductor == 24

    def test_cli_exit_code(self, tmp_path, capsys):
        path = tmp_path / "huge.qexp"
        path.write_text(_qexp(10**9))
        assert main(["classify", "--series", str(path), "--orders", "2"]) == 3
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.count("\n") == 1

    def test_meeting_fields_beyond_the_bound_refused(self):
        with pytest.raises(UsageError, match=r"^field Q\[xi_988027\] exceeds the largest "
                                             f"supported conductor {MAX_CONDUCTOR}$"):
            CyclotomicNumber.root_of_unity(997) * CyclotomicNumber.root_of_unity(991)

    @pytest.mark.parametrize("argv, field", [
        (("verify", "--series", "97.qexp", "--modpoly", "89.mpoly", "--order", "2"), 8633),
        (("bootstrap", "--series", "97.qexp", "--modpoly", "89.mpoly", "--order", "2",
          "--target", "40"), 8633),
        (("replicate", "--series", "97.qexp", "--square", "89.qexp", "--k-max", "1"), 8633),
        (("replicate", "--series", "997.qexp", "--square", "991.qexp", "--k-max", "1"), 988027),
    ])
    def test_cli_meeting_fields_exit_two(self, tmp_path, capsys, argv, field):
        # each input's own conductor is within the bound; their lcm is not
        for n in (89, 97, 991, 997):
            (tmp_path / f"{n}.qexp").write_text(_deeper_qexp(n))
            (tmp_path / f"{n}.mpoly").write_text(_mpoly(n))
        argv = [str(tmp_path / a) if a.endswith((".qexp", ".mpoly")) else a for a in argv]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == (
            f"usage error: field Q[xi_{field}] exceeds the largest supported conductor "
            f"{MAX_CONDUCTOR}\n")


def test_class_weights_are_the_sums_of_roots_of_unity():
    # summed in floating point: each sum is an integer of size at most d
    for m in range(2, 61):
        for d in sorted({d for d, _ in coset_set(m).pairs}):
            ks = [k for e, k in coset_set(m).pairs if e == d]
            for r in range(d):
                total = sum(cmath.exp(2j * cmath.pi * k * r / d) for k in ks)
                assert abs(total - _class_weights(m, d)[r]) < 1e-9, (m, d, r)


def test_class_power_sum_folds_one_column_per_nonzero_weight_entry(monkeypatch):
    # an integer weight times xi^i is one column on the basis: the fold of
    # its multiplication matrix reads phi columns per nonzero weight, not
    # 2 phi - 1 per weight
    folded = []

    def counting(raw, *args):
        folded.append(sum(column is not None for column in raw))
        return _fold(raw, *args)

    z = CyclotomicNumber.root_of_unity(7)
    h = PuiseuxSeries.make({-1: 1, 1: z, 4: z * z, 8: 3 - z}, trunc=12, conductor=7)
    monkeypatch.setattr(qseries, "_fold", counting)
    total = _class_power_sum(h, 4, 4)  # w_4 = (4, 0, 0, 0): 4 sum c_4n q^n
    assert sum(folded) == 6
    assert total == PuiseuxSeries.make({1: 4 * z * z, 2: 12 - 4 * z}, trunc=3, conductor=7)
