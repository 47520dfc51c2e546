"""Differential tests of the block bootstrap against the order-by-order
solve it replaced, kept here as an oracle: one evaluation of F, F_x and F_y
per coefficient, each coefficient pinned by the lowest exponent of its own
linear form.  The block end is checked against the per-monomial scan it
replaced, one candidate end at a time."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from g0wb.cli import main
from g0wb.corpus import eta_quotient_level2, normalized_j
from g0wb.errors import (
    BootstrapStalled,
    Inconsistent,
    InsufficientSeed,
    InsufficientTruncation,
    ShapeError,
)
from g0wb.exactnum import CyclotomicNumber
from g0wb.goldens import GOLDEN_ORDER2
from g0wb.hauptmodul import _block_end, _solve_block, bootstrap_extend
from g0wb.modeq import (
    MAX_TARGET,
    ModularPolynomial,
    build_modular_polynomial,
    emit_mpoly,
    psi,
    required_truncation,
    verify_modular_equation,
)
from g0wb.qseries import PuiseuxSeries, emit_qexp, substitute_coset


def per_coefficient_bootstrap(h_prefix, poly, m, target):
    if not h_prefix.is_moonshine_shape():
        raise ShapeError("bootstrap needs a q^-1 + O(q) seed")
    if poly.degx != psi(m) or poly.degy != psi(m):
        raise ValueError(f"polynomial degrees != psi({m})")
    seed = h_prefix.truncate(min(h_prefix.trunc, MAX_TARGET))
    d_dx = poly.derivative("x")
    d_dy = poly.derivative("y")
    known = dict(seed.coeffs)
    checked_below = None
    for n in range(seed.trunc + 1, target + 1):
        h0 = PuiseuxSeries.make(known, trunc=n, conductor=seed.conductor)
        y0 = substitute_coset(h0, m, 1, 0)
        linear = d_dx.evaluate(h0, y0).shift(n) + d_dy.evaluate(h0, y0).shift(m * n)
        pivot = linear.min_nonzero_exponent()
        if pivot is None:
            raise BootstrapStalled(f"linear coefficient of a_{n} vanishes")
        value = poly.evaluate(h0, y0)
        if value.trunc_exponent() < pivot:
            raise InsufficientSeed(f"need q^{pivot} to solve for a_{n}")
        for e_num, c in sorted(value.coeffs.items()):
            e = Fraction(e_num, value.denom)
            if e >= pivot:
                break
            if checked_below is not None and e < checked_below:
                continue
            if not c.is_zero():
                raise Inconsistent(f"relation fails at q^{e} before a_{n} can act")
        checked_below = pivot
        a_n = -(value.coefficient(pivot) / linear.coefficient(pivot))
        if not a_n.is_zero():
            known[n] = a_n
    # the seed and what extends it are re-verified as one series
    result = PuiseuxSeries.make(known, trunc=max(seed.trunc, target), conductor=seed.conductor)
    status = verify_modular_equation(result, poly, m).status
    if status == "insufficient-data":
        raise InsufficientTruncation("series too shallow to re-verify")
    if status != "consistent":
        raise Inconsistent("series fails re-verification")
    return result.truncate(target)


def outcome(solver, seed, poly, m, target):
    """The emitted series, or the class of the exception raised."""
    try:
        return emit_qexp(solver(seed, poly, m, target), "x")
    except (BootstrapStalled, Inconsistent, InsufficientSeed, InsufficientTruncation) as exc:
        return type(exc)


def assert_same_outcome(seed, poly, m, target):
    expected = outcome(per_coefficient_bootstrap, seed, poly, m, target)
    assert outcome(bootstrap_extend, seed, poly, m, target) == expected
    return expected


def perturbed(series, depth, exponent, delta=1):
    seed = series.truncate(depth)
    coeffs = dict(seed.coeffs)
    coeffs[exponent] = seed.coefficient(exponent) + delta
    return PuiseuxSeries.make(coeffs, trunc=depth, conductor=seed.conductor)


def twisted_j(n, depth):
    """h_N = xi_N * J(tau + 1/N) = q^-1 + sum_k c_k(J) xi_N^(k+1) q^k, from
    the corpus oracle for J."""
    return PuiseuxSeries.make(
        {k: c * CyclotomicNumber.root_of_unity(n, k + 1)
         for k, c in normalized_j(depth).coeffs.items()}, trunc=depth, conductor=n)


_R = CyclotomicNumber.from_rational
# F = -y^3 + 3xy - 2x^2 at order 2: the linear form of a_2 cancels at its
# pole-order exponent, so its pivot lies one step above what a seed
# through q^1 determines.
SHALLOW_POLY = ModularPolynomial(2, 1, {(0, 3): _R(-1), (1, 1): _R(3), (2, 0): _R(-2)}, 3, 3)


@pytest.fixture(scope="module")
def poly3():
    return build_modular_polynomial(eta_quotient_level2(40), 3)


@pytest.fixture(scope="module")
def monomial_poly2():
    return build_modular_polynomial(PuiseuxSeries.monomial(-1, trunc=64), 2)


@pytest.mark.parametrize("depth,target", [(0, 25), (3, 60), (10, 41), (21, 60), (44, 51),
                                          (40, 20), (60, 0), (60, 60)])
def test_j_output_matches_per_coefficient_solve(corpus_j, depth, target):
    expected = assert_same_outcome(corpus_j.truncate(depth), GOLDEN_ORDER2, 2, target)
    assert expected == emit_qexp(corpus_j.truncate(target), "x")


@pytest.mark.parametrize("depth,target", [(0, 17), (5, 40), (12, 33), (27, 40), (40, 12)])
def test_g0_2_output_matches_per_coefficient_solve(corpus_g0_2, poly3, depth, target):
    expected = assert_same_outcome(corpus_g0_2.truncate(depth), poly3, 3, target)
    assert expected == emit_qexp(corpus_g0_2.truncate(target), "x")


@pytest.mark.parametrize("depth,exponent,target", [
    (3, 1, 20), (3, 3, 30), (20, 18, 45), (20, 20, 60), (8, 2, 40),
    (40, 10, 20), (40, 20, 20), (40, 30, 20), (60, 59, 0)])
def test_perturbed_j_seed_fails_alike(corpus_j, depth, exponent, target):
    seed = perturbed(corpus_j, depth, exponent)
    assert assert_same_outcome(seed, GOLDEN_ORDER2, 2, target) is Inconsistent


@pytest.mark.parametrize("depth,exponent,target", [(5, 4, 30), (12, 10, 30), (30, 4, 12),
                                                    (30, 25, 12)])
def test_perturbed_g0_2_seed_fails_alike(corpus_g0_2, poly3, depth, exponent, target):
    seed = perturbed(corpus_g0_2, depth, exponent, delta=-7)
    assert assert_same_outcome(seed, poly3, 3, target) is Inconsistent


@pytest.mark.parametrize("target", [0, 2, 3, 4])
def test_seed_too_shallow_to_reverify_fails_alike(corpus_j, target):
    # inside the seed or beyond it, q^3 of j cannot re-verify order 2
    seed = corpus_j.truncate(3)
    assert assert_same_outcome(seed, GOLDEN_ORDER2, 2, target) is InsufficientTruncation


def test_seed_too_shallow_for_first_pivot_fails_alike():
    seed = PuiseuxSeries.moonshine([3], trunc=1)
    assert assert_same_outcome(seed, SHALLOW_POLY, 2, 2) is InsufficientSeed


def test_block_sees_past_the_per_coefficient_refusal():
    # asked for more than one coefficient, the block determines G beyond
    # a_2's pivot and finds the relation failing already at q^-6 (the
    # leading term of -y^3), where the order-by-order solve gives up
    seed = PuiseuxSeries.moonshine([3], trunc=1)
    assert outcome(per_coefficient_bootstrap, seed, SHALLOW_POLY, 2, 10) is InsufficientSeed
    with pytest.raises(Inconsistent, match=r"q\^-6"):
        bootstrap_extend(seed, SHALLOW_POLY, 2, 10)


@pytest.mark.parametrize("depth", [0, 1, 3])
def test_monomial_fiction_behaves_alike(monomial_poly2, corpus_j, depth):
    bare = PuiseuxSeries.monomial(-1, trunc=depth)
    assert assert_same_outcome(bare, monomial_poly2, 2, 12) == \
        emit_qexp(PuiseuxSeries.monomial(-1, trunc=12), "x")
    # crossed: the fiction's seed against j's polynomial and back; from a
    # bare pole both sides solve, below a deeper seed both reject it
    crossed = (assert_same_outcome(bare, GOLDEN_ORDER2, 2, 12),
               assert_same_outcome(corpus_j.truncate(depth), monomial_poly2, 2, 12))
    if depth:
        assert crossed == (Inconsistent, Inconsistent)


def test_monomial_fiction_at_order_three_fails_alike():
    # both solvers extend q^-1 correctly; to q^10 the order-3 equation
    # cannot be re-verified (a depth error), to q^12 it can
    mono3 = build_modular_polynomial(PuiseuxSeries.monomial(-1, trunc=64), 3)
    bare = PuiseuxSeries.monomial(-1, trunc=2)
    assert assert_same_outcome(bare, mono3, 3, 10) is InsufficientTruncation
    assert assert_same_outcome(bare, mono3, 3, 12) == \
        emit_qexp(PuiseuxSeries.monomial(-1, trunc=12), "x")


# -- cyclotomic coefficients --------------------------------------------------

@pytest.fixture(scope="module")
def twisted_case():
    """(h_N to the depth of its order-m build, that polynomial), cached."""
    cache = {}

    def get(n, m):
        if (n, m) not in cache:
            h = twisted_j(n, required_truncation(m))
            cache[(n, m)] = h, build_modular_polynomial(h, m)
        return cache[(n, m)]
    return get


@pytest.mark.parametrize("n,m", [(3, 4), (4, 5), (3, 7), (6, 7)])
def test_cyclotomic_series_rebuilt_from_its_own_equation(twisted_case, n, m):
    # for m = 1 (mod N), h_N satisfies its own non-twisted order-m equation
    h, poly = twisted_case(n, m)
    assert assert_same_outcome(h.truncate(3), poly, m, h.trunc) == emit_qexp(h, "x")


def test_perturbed_cyclotomic_seed_fails_alike(twisted_case):
    h, poly = twisted_case(3, 4)
    seed = perturbed(h, 3, 2, CyclotomicNumber.root_of_unity(3))
    assert assert_same_outcome(seed, poly, 4, h.trunc) is Inconsistent


def test_target_too_shallow_to_reverify_is_a_depth_error(twisted_case):
    # every coefficient through q^20 is solved correctly, but the order-4
    # equation cannot be re-verified from a series that shallow
    h, poly = twisted_case(3, 4)
    with pytest.raises(InsufficientTruncation, match=r"reaches q\^20 .* through q\^-1"):
        bootstrap_extend(h.truncate(3), poly, 4, 20)
    assert assert_same_outcome(h.truncate(3), poly, 4, 20) is InsufficientTruncation


@pytest.mark.parametrize("target", [30, 37, 38])
def test_deep_enough_target_rebuilds_the_twisted_series(twisted_case, target):
    h, poly = twisted_case(3, 4)
    assert bootstrap_extend(h.truncate(3), poly, 4, target) == h.truncate(target)


def test_cli_target_too_shallow_to_reverify_exits_three(twisted_case, tmp_path, capsys):
    h, poly = twisted_case(3, 4)
    (tmp_path / "h3.qexp").write_text(emit_qexp(h.truncate(3), "h3"))
    (tmp_path / "h3.mpoly").write_text(emit_mpoly(poly))
    argv = ["bootstrap", "--series", str(tmp_path / "h3.qexp"),
            "--modpoly", str(tmp_path / "h3.mpoly"), "--order", "4", "--target"]
    assert main(argv + ["20"]) == 3
    out, err = capsys.readouterr()
    assert out == "" and err.count("\n") == 1 and err.startswith("error: ")
    assert main(argv + ["30"]) == 0
    assert capsys.readouterr().out == emit_qexp(h.truncate(30), "h3")


# -- the block end --------------------------------------------------------------

def lowest_reach(monomials, m, k, degree):
    """The per-monomial scan: lowest exponent reachable by the degree-
    ``degree`` terms in unknowns at q^k and above, from pole orders."""
    return min((-i - m * j + a * (k + 1) + (degree - a) * m * (k + 1)
                for i, j in monomials for a in range(degree + 1)
                if a <= i and degree - a <= j), default=math.inf)


@settings(max_examples=300, deadline=None)
@given(st.integers(2, 7), st.lists(st.tuples(st.integers(0, 8), st.integers(0, 8)),
                                   max_size=6, unique=True),
       st.integers(-1, 60), st.integers(0, 80))
def test_block_end_matches_the_scan(m, monomials, n, extra):
    target = n + extra
    floor = lowest_reach(monomials, m, n, 2)
    top = n
    while top < target and lowest_reach(monomials, m, top + 1, 1) < floor:
        top += 1
    assert _block_end(monomials, m, n, target) == (floor, top)


# -- the block solve on non-integral data ----------------------------------------

@st.composite
def fractional_blocks(draw):
    """G, F_x, F_y with fractional (and for N > 1 cyclotomic) coefficients:
    F_x from q^-3 and F_y from q^-6, so from a_4 on the pivot of a_k is
    k - 3, read off the leading term of F_x alone."""
    n = draw(st.sampled_from([1, 3, 4]))

    def number(nonzero=False):
        value = CyclotomicNumber(n, [Fraction(draw(st.integers(-9, 9)), draw(st.integers(1, 6)))
                                     for _ in range(len(CyclotomicNumber.root_of_unity(n).coeffs))])
        return CyclotomicNumber.one() if nonzero and value.is_zero() else value

    def series(lo, top, lead):
        coeffs = {e: number() for e in range(lo, top + 1)}
        coeffs[lo] = number(nonzero=True) if lead else coeffs[lo]
        return PuiseuxSeries.make(coeffs, trunc=top, conductor=n)

    first = draw(st.integers(4, 8))
    value = series(first - 3, first + draw(st.integers(0, 12)), lead=False)
    return first, value, series(-3, 40, lead=True), series(-6, 40, lead=True)


@settings(max_examples=60, deadline=None)
@given(fractional_blocks(), st.integers(0, 12))
def test_block_solve_matches_forward_substitution(case, extra):
    # each a_k solves its pivot equation, G + F_x delta + F_y delta(2 tau)
    # = 0 at q^(k - 3), with every earlier a_k' in place
    n, value, f_x, f_y = case
    h0 = PuiseuxSeries.make({-1: 1}, trunc=n + extra, conductor=value.conductor)
    solved = _solve_block(h0, n, 10**6, 2, value, f_x, f_y)
    assert solved.trunc == min(h0.trunc, value.trunc + 3)
    a = {}
    for k in range(n, solved.trunc + 1):
        p = k - 3
        total = value.coefficient(p)
        for j, c in a.items():
            total = total + c * (f_x.coefficient(p - j) + f_y.coefficient(p - 2 * j))
        a[k] = -(total / f_x.coefficient(-3))
        assert solved.coefficient(k) == a[k], k
