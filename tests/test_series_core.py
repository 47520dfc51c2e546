"""Differential tests of the integer-vector series core against the
dict-of-CyclotomicNumber arithmetic it replaced, kept here as the oracle:
every coefficient is a CyclotomicNumber, products run the schoolbook loop
of ``CyclotomicNumber.__mul__`` (copied below), and canonical form is
re-derived from the mapping exactly as the old constructor did.

Each result must equal the oracle in coefficients, ``lo``, ``trunc``,
``denom`` and the declared ``conductor``.

The linear-combination kernel is checked the same way, directly and
through its three users with the most structure: ``ModularPolynomial.
evaluate`` (Horner in y over the powers of x), and Newton's identities and
the class product of ``_coset_elementary``.  Their oracles repeat the
algorithm's steps on the dict representation, each sum formed in one pass
and canonicalized once; ``CyclotomicNumber.__mul__`` is checked against
the schoolbook loop."""

import collections
import math
import sys
import threading
import time
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from g0wb.cli import main
from g0wb.errors import ParseError
from g0wb.exactnum import CyclotomicNumber, _power_table, euler_phi
from g0wb.modeq import ModularPolynomial, _coset_elementary, coset_set
from g0wb.qseries import (
    PuiseuxSeries,
    compare_to_order,
    _linear,
    emit_qexp,
    parse_qexp,
    substitute_coset,
)

CONDUCTORS = [1, 3, 4, 5, 8, 12, 24]
ZERO = CyclotomicNumber.zero()


# -- the oracle -------------------------------------------------------------------

def oracle_cyc_mul(a, b):
    """The schoolbook product of two cyclotomic numbers: multiply with
    exponents mod n (xi^n = 1), then fold powers >= phi(n) with the table."""
    n = math.lcm(a.conductor, b.conductor)
    a, b = a.promote(n), b.promote(n)
    phi = len(a.coeffs)
    raw = [Fraction(0)] * n
    for i, x in enumerate(a.coeffs):
        if x == 0:
            continue
        for j, y in enumerate(b.coeffs):
            if y == 0:
                continue
            raw[(i + j) % n] += x * y
    table = _power_table(n)
    acc = list(raw[:phi])
    for p in range(phi, n):
        c = raw[p]
        if c == 0:
            continue
        for j, r in enumerate(table[p]):
            if r:
                acc[j] += c * r
    return CyclotomicNumber(n, acc)


def canon(conductor, denom, lo, trunc, coeffs):
    """Canonical (conductor, denom, lo, trunc, coefficients) of a series."""
    clean = {n: c for n, c in coeffs.items() if not c.is_zero()}
    g = denom
    for n in clean:
        g = math.gcd(g, n)
    if g > 1:
        clean = {n // g: c for n, c in clean.items()}
        trunc //= g
        denom //= g
    lo = min(clean) if clean else trunc
    return (conductor, denom, lo, trunc, clean)


def scaled(o, d):
    conductor, denom, lo, trunc, coeffs = o
    f = d // denom
    return {n * f: c for n, c in coeffs.items()}, lo * f, trunc * f


def o_add(a, b):
    d = math.lcm(a[1], b[1])
    out, lo_a, trunc_a = scaled(a, d)
    bmap, lo_b, trunc_b = scaled(b, d)
    for n, c in bmap.items():
        out[n] = out[n] + c if n in out else c
    trunc = min(trunc_a, trunc_b)
    out = {n: c for n, c in out.items() if n <= trunc}
    return canon(math.lcm(a[0], b[0]), d, min(lo_a, lo_b, trunc), trunc, out)


def o_neg(a):
    return canon(a[0], a[1], a[2], a[3], {n: -c for n, c in a[4].items()})


def o_scale(a, factor):
    if factor.is_zero():
        return canon(a[0], a[1], a[3], a[3], {})
    return canon(math.lcm(a[0], factor.conductor), a[1], a[2], a[3],
                 {n: oracle_cyc_mul(c, factor) for n, c in a[4].items()})


def o_mul(a, b):
    d = math.lcm(a[1], b[1])
    amap, _, trunc_a = scaled(a, d)
    bmap, _, trunc_b = scaled(b, d)
    elo_a = min(amap) if amap else trunc_a + 1
    elo_b = min(bmap) if bmap else trunc_b + 1
    trunc = min(trunc_a + elo_b, trunc_b + elo_a)
    out = {}
    for u, x in amap.items():
        for v, y in bmap.items():
            if u + v <= trunc:
                p = oracle_cyc_mul(x, y)
                out[u + v] = out[u + v] + p if u + v in out else p
    return canon(math.lcm(a[0], b[0]), d, min(elo_a + elo_b, trunc), trunc, out)


def o_shift(a, by):
    d = math.lcm(a[1], by.denominator)
    coeffs, lo, trunc = scaled(a, d)
    s = by.numerator * (d // by.denominator)
    return canon(a[0], d, lo + s, trunc + s, {n + s: c for n, c in coeffs.items()})


def o_truncate(a, e):
    bound = math.floor(e * a[1])
    return canon(a[0], a[1], min(a[2], bound), bound,
                 {n: c for n, c in a[4].items() if n <= bound})


def o_substitute(a, m, d, k):
    g = math.gcd(d * d, m)
    stretch = m // g
    out = {n * stretch: oracle_cyc_mul(c, CyclotomicNumber.root_of_unity(d, k * n % d))
           for n, c in a[4].items()}
    return canon(math.lcm(a[0], d), d * d // g, a[2] * stretch, a[3] * stretch, out)


def o_compare(a, b, order):
    d = math.lcm(a[1], b[1])
    amap, _, _ = scaled(a, d)
    bmap, _, _ = scaled(b, d)
    top = math.floor(Fraction(order) * d)
    for n in sorted(set(amap) | set(bmap)):
        if n > top:
            break
        ca, cb = amap.get(n, ZERO), bmap.get(n, ZERO)
        if ca != cb:
            return (False, Fraction(n, d), ca, cb)
    return (True, None, None, None)


def o_constant_sum(constants):
    total = ZERO
    for c in constants:
        total = total + c
    return total


def o_linear(terms):
    """sum c * s_1 * ... * s_r over oracle terms (c, s_1, ..., s_r); a term
    without series is the exact constant c and never lowers the bound, a
    term with c = 0 is dropped, and without a series term the result is
    the number sum of the constants."""
    series, constants = [], []
    for c, *factors in terms:
        if c.is_zero():
            continue
        if factors:
            product = factors[0]
            for f in factors[1:]:
                product = o_mul(product, f)
            series.append(o_scale(product, c))
        else:
            constants.append(c)
    if not series:
        return o_constant_sum(constants)
    d = math.lcm(*(t[1] for t in series))
    trunc = min(t[3] * (d // t[1]) for t in series)
    out = {}
    for t in series:
        for n, c in scaled(t, d)[0].items():
            if n <= trunc:
                out[n] = out[n] + c if n in out else c
    if constants and trunc >= 0:
        c = o_constant_sum(constants)
        out[0] = out[0] + c if 0 in out else c
    conductor = math.lcm(*(t[0] for t in series), *(c.conductor for c in constants))
    return canon(conductor, d, trunc, trunc, out)


def o_is_series(value):
    return isinstance(value, tuple)


def o_evaluate(poly, x, y):
    """F(x, y) by Horner in y over the powers x, x*x, (x*x)*x, ... of x; a
    constant result is determined as far as x."""
    powers = [None, x]
    while len(powers) <= poly.degx:
        powers.append(o_mul(powers[-1], x))
    result = ZERO
    for slice_map in reversed(poly.y_slices()):
        terms = [(CyclotomicNumber.one(), result, y) if o_is_series(result) else (result, y)]
        terms += [(c, powers[i]) if i else (c,) for i, c in slice_map.items()]
        result = o_linear(terms)
    if o_is_series(result):
        return result
    return o_linear([(CyclotomicNumber.one(), o_scale(x, ZERO)), (result,)])


def o_class_power_sum(a, m, d):
    """q^n -> w_d(n) q^(n*m/d^2), w_d(n) the sum of xi_d^(k*n) over the
    offsets k paired with d in the coset set."""
    ks = [k for e, k in coset_set(m).pairs if e == d]
    g = math.gcd(d * d, m)
    out = {}
    for n, c in a[4].items():
        w = o_constant_sum(CyclotomicNumber.root_of_unity(d, k * n) for k in ks)
        out[n * (m // g)] = oracle_cyc_mul(c, w)
    return canon(a[0], d * d // g, a[2] * (m // g), a[3] * (m // g), out)


def o_elementary(h, m):
    """e_1..e_psi(m) by Newton's identities per class and the product of
    the class polynomials; e_0 = 1 is exact (no factor)."""
    sizes = collections.Counter(d for d, _ in coset_set(m).pairs)
    powers = [None, h]
    while len(powers) <= max(sizes.values()):
        powers.append(o_mul(powers[-1], h))
    total = [()]
    for d, size in sorted(sizes.items()):
        sums = [o_class_power_sum(powers[j], m, d) for j in range(1, size + 1)]
        es = [()]
        for k in range(1, size + 1):
            es.append((o_linear([(CyclotomicNumber.from_rational(Fraction((-1) ** (i - 1), k)),
                                  *es[k - i], sums[i - 1]) for i in range(1, k + 1)]),))
        total = [()] + [(o_linear([(CyclotomicNumber.one(), *total[a], *es[j - a])
                                   for a in range(max(0, j - size), min(j, len(total) - 1) + 1)]),)
                        for j in range(1, len(total) + size)]
    return [e for e, in total[1:]]


def o_emit(a, label):
    lines = ["# qexp v1", f"label: {label}", f"conductor: {a[0]}", f"denom: {a[1]}",
             f"lo: {a[2]}", f"trunc: {a[3]}"]
    for n, c in sorted(a[4].items()):
        lines.append(f"{n} {c.promote(a[0]).literal()}")
    return "\n".join(lines) + "\n"


def assert_matches(series, oracle):
    conductor, denom, lo, trunc, coeffs = oracle
    assert (series.conductor, series.denom, series.lo, series.trunc) == \
        (conductor, denom, lo, trunc)
    assert list(series.coeffs) == sorted(coeffs)
    for n, c in coeffs.items():
        assert series.coeffs[n] == c, n


# -- strategies -------------------------------------------------------------------

def _divisors(n):
    return [d for d in range(1, n + 1) if n % d == 0]


@st.composite
def numbers(draw, conductor):
    if draw(st.integers(0, 5)) == 0:
        return CyclotomicNumber.zero()
    sub = draw(st.sampled_from(_divisors(conductor)))
    vec = draw(st.lists(st.integers(-4, 4), min_size=euler_phi(sub),
                        max_size=euler_phi(sub)))
    den = draw(st.integers(1, 3))
    return CyclotomicNumber(sub, [Fraction(v, den) for v in vec])


@st.composite
def series(draw, conductor=None, max_terms=5):
    if conductor is None:
        conductor = draw(st.sampled_from(CONDUCTORS))
    denom = draw(st.integers(1, 4))
    trunc = draw(st.integers(-4, 12))
    lo = draw(st.integers(-6, trunc))
    keys = draw(st.lists(st.integers(lo, trunc), max_size=max_terms, unique=True))
    coeffs = {n: draw(numbers(conductor)) for n in keys}
    return PuiseuxSeries(conductor, denom, lo, trunc, coeffs), canon(
        conductor, denom, lo, trunc, coeffs)


def _same_field_pair():
    return st.sampled_from(CONDUCTORS).flatmap(
        lambda n: st.tuples(series(conductor=n), series(conductor=n)))


pairs = st.one_of(_same_field_pair(), st.tuples(series(), series()))
battery = settings(max_examples=120, deadline=None,
                   suppress_health_check=[HealthCheck.too_slow])


# -- the battery --------------------------------------------------------------------

class TestAgainstDictOracle:
    @battery
    @given(series())
    def test_construction(self, s):
        assert_matches(*s)

    @battery
    @given(pairs)
    def test_mul(self, ab):
        (a, oa), (b, ob) = ab
        assert_matches(a * b, o_mul(oa, ob))

    @battery
    @given(pairs)
    def test_add_and_sub(self, ab):
        (a, oa), (b, ob) = ab
        assert_matches(a + b, o_add(oa, ob))
        assert_matches(a - b, o_add(oa, o_neg(ob)))

    @battery
    @given(series())
    def test_neg(self, s):
        a, oa = s
        assert_matches(-a, o_neg(oa))

    @battery
    @given(st.sampled_from(CONDUCTORS).flatmap(
        lambda n: st.tuples(series(conductor=n), numbers(n))))
    def test_scale(self, case):
        (a, oa), factor = case
        assert_matches(a.scale(factor), o_scale(oa, factor))
        assert_matches(a * factor, o_scale(oa, factor))

    @battery
    @given(series(), st.integers(-7, 7), st.integers(1, 6))
    def test_shift(self, s, num, den):
        a, oa = s
        by = Fraction(num, den)
        assert_matches(a.shift(by), o_shift(oa, by))

    @battery
    @given(series(), st.integers(0, 40), st.integers(1, 4))
    def test_truncate(self, s, back, den):
        a, oa = s
        e = a.trunc_exponent() - Fraction(back, den)
        assert_matches(a.truncate(e), o_truncate(oa, e))

    @battery
    @given(series(), st.sampled_from([1, 2, 3, 5]))
    def test_with_conductor(self, s, k):
        a, oa = s
        n = a.conductor * k
        assert_matches(a.with_conductor(n), (n,) + oa[1:])

    @battery
    @given(pairs, st.integers(-10, 40), st.integers(1, 4))
    def test_compare_to_order(self, ab, num, den):
        (a, oa), (b, ob) = ab
        order = min(Fraction(num, den), a.trunc_exponent(), b.trunc_exponent())
        got = compare_to_order(a, b, order)
        assert (got.equal, got.exponent, got.left, got.right) == o_compare(oa, ob, order)
        assert compare_to_order(a, a, a.trunc_exponent()).equal

    @battery
    @given(series(), st.sampled_from([(2, 1), (2, 2), (3, 3), (4, 2), (6, 3), (6, 6),
                                      (8, 4), (12, 6)]), st.integers(0, 11))
    def test_substitute_coset(self, s, md, k):
        a, oa = s
        m, d = md
        if a.denom != 1:
            a = PuiseuxSeries(a.conductor, 1, a.lo, a.trunc, dict(a.coeffs))
            oa = canon(a.conductor, 1, a.lo, a.trunc, dict(a.coeffs))
        assert_matches(substitute_coset(a, m, d, k % d), o_substitute(oa, m, d, k % d))

    @battery
    @given(series())
    def test_qexp_round_trip(self, s):
        a, oa = s
        text = emit_qexp(a, "t")
        assert text == o_emit(oa, "t")
        back, label = parse_qexp(text)
        assert label == "t" and back == a
        assert_matches(back, oa)
        assert emit_qexp(back, "t") == text


KERNEL_CONDUCTORS = [1, 3, 4, 12, 24]


def assert_value_matches(got, want):
    """A series against its oracle tuple, or an exact number against the
    oracle's number (value and conductor)."""
    if o_is_series(want):
        assert_matches(got, want)
    else:
        assert not isinstance(got, PuiseuxSeries)
        assert got == want
        assert getattr(got, "conductor", 1) == want.conductor


@st.composite
def kernel_terms(draw):
    """Up to five terms (c, s_1, ..., s_r), r = 0..2, over one or several
    of the kernel conductors, with their oracle twins; the kernel's terms
    sometimes carry an extra exact factor 1, as a power ladder's x^0 does."""
    fields = draw(st.lists(st.sampled_from(KERNEL_CONDUCTORS), min_size=1, max_size=2))
    terms, oracles = [], []
    for _ in range(draw(st.integers(0, 5))):
        c = draw(numbers(draw(st.sampled_from(fields))))
        factors = [draw(series(conductor=draw(st.sampled_from(fields)), max_terms=4))
                   for _ in range(draw(st.integers(0, 2)))]
        one = (1,) if draw(st.booleans()) else ()
        terms.append((c, *(s for s, _ in factors), *one))
        oracles.append((c, *(o for _, o in factors)))
    return terms, oracles


@st.composite
def polynomials(draw, conductor):
    degx, degy = draw(st.integers(0, 3)), draw(st.integers(0, 3))
    coeffs = {}
    for key in draw(st.lists(st.tuples(st.integers(0, degx), st.integers(0, degy)),
                             max_size=6, unique=True)):
        c = draw(numbers(conductor))
        if not c.is_zero():
            coeffs[key] = c
    return ModularPolynomial(2, conductor, coeffs, degx, degy)


def integral(case):
    """The series of a strategy case moved onto the integral grid."""
    a, _ = case
    b = PuiseuxSeries(a.conductor, 1, a.lo, a.trunc, dict(a.coeffs))
    return b, canon(b.conductor, 1, b.lo, b.trunc, dict(b.coeffs))


class TestLinearKernelAgainstDictOracle:
    @battery
    @given(kernel_terms())
    def test_linear(self, case):
        terms, oracles = case
        assert_value_matches(_linear(terms), o_linear(oracles))

    @battery
    @given(st.sampled_from(KERNEL_CONDUCTORS).flatmap(
        lambda n: st.tuples(polynomials(n), series(conductor=n), series(conductor=n))))
    def test_evaluate_and_its_partial_derivatives(self, case):
        poly, (x, ox), (y, oy) = case
        for f in (poly, poly.derivative("x"), poly.derivative("y")):
            assert_matches(f.evaluate(x, y), o_evaluate(f, ox, oy))

    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(st.sampled_from(KERNEL_CONDUCTORS).flatmap(
        lambda n: series(conductor=n, max_terms=4)), st.sampled_from([2, 3, 4]))
    def test_coset_elementary(self, case, m):
        h, oh = integral(case)
        got = list(_coset_elementary(h, m))
        want = o_elementary(oh, m)
        assert len(got) == len(want) + 1
        for e, o in zip(got[1:], want):
            assert_matches(e, o)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.sampled_from(CONDUCTORS + [24]), min_size=2, max_size=2).flatmap(
    lambda ns: st.tuples(numbers(ns[0]), numbers(ns[1]))))
def test_cyclotomic_product_matches_the_schoolbook_loop(ab):
    a, b = ab
    got, want = a * b, oracle_cyc_mul(a, b)
    assert (got.conductor, got.coeffs) == (want.conductor, want.coeffs)


class TestExactConstants:
    def test_huge_bound_costs_nothing(self):
        h = PuiseuxSeries.moonshine(range(1, 60))
        one = PuiseuxSeries.make({0: 1}, trunc=10**9)
        start = time.perf_counter()
        total = one + h
        product = one * h
        assert time.perf_counter() - start < 1.0
        assert total.trunc == h.trunc and total.coefficient(0) == 1
        assert product == h

    def test_huge_bounds_and_spans_stay_cheap(self, tmp_path, capsys):
        one = PuiseuxSeries.make({0: 1}, trunc=10**9)
        start = time.perf_counter()
        assert (one * one).coefficient(0) == 1
        assert time.perf_counter() - start < 1.0
        # storage is dense between the extreme terms, so a sparse file with
        # a far term is refused as data instead of allocated
        path = tmp_path / "far.qexp"
        path.write_text("# qexp v1\nlabel: F\nconductor: 1\ndenom: 1\nlo: -1\n"
                        "trunc: 1000000000\n-1 1\n1000000000 1\n")
        with pytest.raises(ParseError):
            parse_qexp(path.read_text())
        assert main(["classify", "--series", str(path), "--orders", "2"]) == 3
        assert "span" in capsys.readouterr().err

    @pytest.mark.parametrize("conductor", CONDUCTORS)
    def test_scalar_addition_keeps_the_bound(self, conductor):
        xi = CyclotomicNumber.root_of_unity(conductor)
        h = PuiseuxSeries.make({-3: 1, 5: xi}, trunc=7, denom=2, conductor=conductor)
        moved = h + xi
        assert (moved.trunc, moved.denom) == (7, 2)
        assert moved.coefficient(0) == xi
        assert (h - xi) + xi == h


def test_caches_are_safe_to_share_across_threads():
    xi = CyclotomicNumber.root_of_unity(12)
    h = PuiseuxSeries.make({-1: 1, 1: xi, 2: Fraction(1, 3), 5: xi * 7}, trunc=30,
                           conductor=12)
    expected = (dict(PuiseuxSeries.make(dict(h.coeffs), trunc=30, conductor=12).coeffs),
                [h ** j for j in range(1, 7)])
    results = []
    barrier = threading.Barrier(4)

    def worker():
        barrier.wait()
        results.append((dict(h.coeffs), list(h._powers(6)[1:])))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
            assert not t.is_alive()
    finally:
        sys.setswitchinterval(interval)
    assert len(results) == 4
    for coeffs, powers in results:
        assert coeffs == expected[0] and powers == expected[1]
