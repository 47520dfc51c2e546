"""The build reads only what its verdict needs.

``modeq._build`` takes e_0, e_1, ... one at a time from the generator
``_coset_elementary`` and stops at the first e_j that is not a polynomial
in the generator, and it kills poles on powers of a generator cut to
q^(trunc // m + psi(m)).  The eager reference below is the build without
either shortcut: every e_j first, each expressed against the uncut
series.  The two must agree on every outcome: the polynomial and its
bound, or the exception with its message, exponent and coefficient.
"""

import math

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from g0wb.corpus import eta_quotient_level2, load_entry, normalized_j
from g0wb.errors import ExpressFailure, G0wbError, InsufficientTruncation, ShapeError, UsageError
from g0wb.exactnum import CyclotomicNumber
from g0wb.hauptmodul import classify
from g0wb.modeq import (
    ModularPolynomial,
    _build,
    _coset_elementary,
    _express,
    check_order,
    required_truncation,
)
from g0wb.qseries import PuiseuxSeries


def eager_build(h, m, generalised=False):
    """_build's checks, then all of e_0..e_psi(m), each expressed against
    the uncut generator."""
    if not h.is_moonshine_shape():
        raise ShapeError("modular polynomial construction needs q^-1 + O(q) input")
    if generalised and math.gcd(m, h.conductor) != 1:
        raise UsageError(f"twisted construction needs gcd(m, {h.conductor}) = 1")
    check_order(m)
    need = required_truncation(m)
    if h.trunc < need:
        raise InsufficientTruncation(
            f"order-{m} construction needs the input determined through q^{need}, "
            f"have q^{h.trunc}", required=need)
    elementary = list(_coset_elementary(h, m))
    degree = len(elementary) - 1
    generator = h if not generalised else h.map_coefficients(lambda c: c.galois(m))
    slices, bounds = {}, []
    for j, e_j in enumerate(elementary):
        try:
            poly, bound = _express(e_j, generator)
        except ExpressFailure as exc:
            raise ExpressFailure(f"e_{j} is not a polynomial in the generator (order {m})",
                                 residual=exc.residual) from exc
        bounds.append(bound)
        for i, c in enumerate(poly.coeffs):
            if not c.is_zero():
                slices[(i, degree - j)] = c * (-1 if (degree - j) % 2 else 1)
    return ModularPolynomial(m, h.conductor, slices, degree, degree), min(bounds)


def outcome(fn, h, m, generalised=False):
    try:
        poly, bound = fn(h, m, generalised)
    except G0wbError as exc:
        return (type(exc), str(exc), getattr(exc, "exponent", None),
                getattr(exc, "coefficient", None), getattr(exc, "required", None))
    return poly, poly.conductor, bound


def perturbed(h, exponent, delta=7):
    coeffs = dict(h.coeffs)
    coeffs[exponent] = coeffs.get(exponent, 0) + delta
    return PuiseuxSeries.make(coeffs, trunc=h.trunc, conductor=h.conductor)


def deep(stem):
    depth = max(required_truncation(m) for m in range(2, 8))
    return normalized_j(depth) if stem == "j" else eta_quotient_level2(depth)


def twisted_j(n, depth):
    """h_N = xi_N * J(tau + 1/N), the Galois-twisted family."""
    return PuiseuxSeries.make(
        {k: c * CyclotomicNumber.root_of_unity(n, k + 1)
         for k, c in normalized_j(depth).coeffs.items()}, trunc=depth, conductor=n)


def assert_same_outcome(h, m, generalised=False):
    got, want = outcome(_build, h, m, generalised), outcome(eager_build, h, m, generalised)
    assert got == want


@pytest.mark.parametrize("m", range(2, 8))
@pytest.mark.parametrize("stem", ["j", "g0_2"])
class TestAgainstEagerBuild:
    def test_bundled(self, stem, m):
        assert_same_outcome(load_entry(stem).series, m)

    def test_deep_enough_for_every_order(self, stem, m):
        assert_same_outcome(deep(stem), m)

    @pytest.mark.parametrize("exponent", range(1, 11))
    def test_one_coefficient_perturbed(self, stem, m, exponent):
        assert_same_outcome(perturbed(deep(stem), exponent), m)

    @pytest.mark.parametrize("offset", range(12))
    def test_perturbed_near_the_top(self, stem, m, offset):
        # these fail at e_1 .. e_psi(m), near the edge of each residual's bound
        h = deep(stem)
        assert_same_outcome(perturbed(h, h.trunc - offset), m)


@settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.integers(2, 7).flatmap(lambda m: st.tuples(
    st.just(m), st.sampled_from([1, 3, 4]),
    st.integers(required_truncation(m), required_truncation(m) + 12),
    st.dictionaries(st.integers(1, required_truncation(m)),
                    st.tuples(st.integers(-3, 3), st.integers(0, 11)), max_size=5))))
def test_sparse_random_series(case):
    m, conductor, trunc, tail = case
    h = PuiseuxSeries.make(
        {-1: 1, **{n: c * CyclotomicNumber.root_of_unity(conductor, p)
                   for n, (c, p) in tail.items()}}, trunc=trunc, conductor=conductor)
    assert_same_outcome(h, m)


@pytest.mark.parametrize("m", [2, 4, 5])
def test_twisted(m):
    h = twisted_j(3, required_truncation(m))
    assert_same_outcome(h, m, generalised=True)
    assert_same_outcome(perturbed(h, 2), m, generalised=True)


def test_first_failure_is_e1_on_bundled_g0_2_at_order_4():
    with pytest.raises(ExpressFailure, match=r"^e_1 is not"):
        _build(load_entry("g0_2").series, 4, False)


def test_inconsistent_classify_multiplies_out_no_power_of_its_input():
    h = load_entry("g0_2").series
    assert classify(h, [4]).verdict == "inconsistent"
    assert h._ladder == ()


def test_consistent_build_reads_powers_only_to_the_largest_class():
    h = load_entry("j").series
    _build(h, 5, False)
    assert len(h._ladder) == 5 - 1


@pytest.mark.parametrize("stem", ["j", "g0_2"])
def test_builds_in_turn_on_one_series(stem):
    # later builds cut powers that earlier builds cached on the series
    h, fresh = deep(stem), deep(stem)
    for m in (2, 3, 5, 4, 7, 2):
        assert outcome(_build, h, m) == outcome(eager_build, fresh, m)
    for m in (2, 3, 5):
        assert outcome(eager_build, h, m) == outcome(_build, deep(stem), m)
        assert outcome(_build, h, m) == outcome(_build, deep(stem), m)


@settings(max_examples=150, deadline=None)
@given(st.integers(-4, 3), st.sampled_from([1, -2, 3]),
       st.lists(st.integers(-3, 3), max_size=8), st.integers(0, 6), st.integers(2, 6),
       st.data())
def test_truncate_carries_the_powers_of_the_cut_series(lo, lead, tail, extra, top, data):
    x = PuiseuxSeries.make({lo: lead, **{lo + 1 + i: c for i, c in enumerate(tail)}},
                           trunc=lo + len(tail) + extra)
    x._powers(top)
    cut = x.truncate(data.draw(st.integers(lo, x.trunc)))
    assert len(cut._ladder) == top - 1
    fresh = PuiseuxSeries.make(dict(cut.coeffs), trunc=cut.trunc)
    for k, p in enumerate(cut._ladder, start=2):
        q = fresh._powers(k)[k]
        assert (p.lo, p.trunc) == (q.lo, q.trunc) and p == q
