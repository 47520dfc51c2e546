"""Screening of formal series: degenerate (fiction) patterns, multi-order
modular-equation testing, coefficient bootstrap from a known modular
polynomial, replication recursions, and congruence-subgroup membership.

The classifier deliberately never asserts "is a Hauptmodul": the invariance
group of a truncated series is not computable, so the strongest positive
verdict is "candidate to the tested depth".
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from operator import add, mul
from typing import Iterable

from .errors import (
    BootstrapStalled,
    ExpressFailure,
    Inconsistent,
    InsufficientSeed,
    InsufficientTruncation,
    ShapeError,
    UsageError,
)
from .exactnum import CyclotomicNumber, _convolve, _fold, _power_table, _promote, euler_phi
from .matrices import IntMatrix
from .modeq import (MAX_ORDER_WORK, MAX_TARGET, ModularPolynomial, VerificationReport, _build,
                    check_order, verify_modular_equation)
from .qseries import PuiseuxSeries, _scalar, substitute_coset

@dataclass(frozen=True)
class Classification:
    """Verdict of the degenerate-vs-candidate screen.

    ``fiction_xi`` is present exactly for the fiction verdict, and is then
    zero or a root of unity; ``orders_tested`` pairs each tested order with
    its verification report.
    """

    verdict: str  # fiction | hauptmodul-candidate | inconsistent | undetermined
    fiction_xi: CyclotomicNumber | None = None
    orders_tested: tuple[tuple[int, VerificationReport], ...] = ()
    notes: str = ""


def detect_fiction(h: PuiseuxSeries) -> CyclotomicNumber | None:
    """The q-coefficient xi when h is exactly q^-1 + xi*q on its determined
    range (all other coefficients zero); None otherwise.

    Root-of-unity status of the returned value is the caller's business:
    the degenerate solutions have xi = 0 or xi a 24th root of unity.
    """
    if not h.is_moonshine_shape():
        raise ShapeError("fiction detection needs q^-1 + O(q) input")
    if h.trunc < 2:
        raise InsufficientTruncation(
            "fiction detection needs the series determined through q^2", required=2)
    # the moonshine shape fixes the q^-1 and q^0 blocks; nothing may follow q^1
    return h.coefficient(1) if len(h._vec) <= 3 * euler_phi(h._basis) else None


def _is_admissible_xi(xi: CyclotomicNumber) -> bool:
    """xi = 0 or xi^24 = 1, with no power taken: the 24th roots of unity in
    Q[xi_N] are the rows +-xi_N^(kN/g), g = gcd(N, 24), of the power table."""
    n = xi.conductor
    return xi.is_zero() or any(xi.coeffs in (row, tuple(-c for c in row))
                               for row in _power_table(n)[::n // math.gcd(n, 24)])


def classify(h: PuiseuxSeries, orders: Iterable[int]) -> Classification:
    """Screen h: degenerate pattern first, then one modular-equation
    construction and verification per requested order.

    All orders consistent -> candidate (to the tested depth); any failed
    construction or verification -> inconsistent; not enough coefficients
    for some order -> undetermined, with the required depth in the notes.
    Orders whose work, the sum of psi(m)^2, exceeds MAX_ORDER_WORK are
    refused before any build.
    """
    if not h.is_moonshine_shape():
        raise ShapeError("classification needs q^-1 + O(q) input")
    xi = detect_fiction(h)
    if xi is not None and _is_admissible_xi(xi):
        return Classification(
            verdict="fiction", fiction_xi=xi,
            notes=f"series is exactly q^-1 + ({xi.literal()})q on its determined range")
    notes: list[str] = []
    if xi is not None:
        notes.append(
            f"two-term series with xi = {xi.literal()}: xi^24 != 1, not a degenerate solution")
    order_list = sorted(set(int(m) for m in orders))
    work = sum(check_order(m) ** 2 for m in order_list)
    if work > MAX_ORDER_WORK:
        raise UsageError(f"orders need sum psi(m)^2 = {work}, which exceeds the largest "
                         f"supported {MAX_ORDER_WORK}")
    reports = [(m, _test_order(h, m, notes)) for m in order_list]
    statuses = [r.status for _, r in reports]
    if any(s == "inconsistent" for s in statuses):
        verdict = "inconsistent"
    elif any(s == "insufficient-data" for s in statuses):
        verdict = "undetermined"
    elif statuses:
        verdict = "hauptmodul-candidate"
        notes.append(
            f"consistent at orders {order_list} to the tested depth; "
            "no claim beyond that depth")
    else:
        verdict = "undetermined"
        notes.append("no orders requested")
    return Classification(verdict=verdict, fiction_xi=None,
                          orders_tested=tuple(reports), notes="; ".join(notes))


def _test_order(h: PuiseuxSeries, m: int, notes: list[str]) -> VerificationReport:
    # a built polynomial verifies against h to its lowest residual bound
    try:
        verified_to = _build(h, m, False)[1]
    except InsufficientTruncation as exc:
        notes.append(f"order {m}: need input determined through q^{exc.required}")
        return VerificationReport(m, h.trunc_exponent(), "insufficient-data")
    except ExpressFailure as exc:
        notes.append(f"order {m}: {exc}")
        return VerificationReport(
            m, h.trunc_exponent(), "inconsistent",
            first_failure=(exc.exponent, CyclotomicNumber.zero(), exc.coefficient))
    return VerificationReport(m, verified_to, "consistent")


def bootstrap_extend(h_prefix: PuiseuxSeries, poly: ModularPolynomial, m: int,
                     target: int) -> PuiseuxSeries:
    """Extend a series prefix to q^target using its order-m polynomial.

    Writes G = F(h(tau), h(m*tau)) and solves G = 0 a block of coefficients
    at a time.  With a_1..a_(n-1) fixed and the block's unknowns a_n..a_N
    set to zero, G, dF/dx and dF/dy are evaluated once per block, all three
    from one cached ladder of powers of h.  a_k enters G linearly through
    L_k = q^k * dF/dx + q^(mk) * dF/dy, and the lowest exponent where L_k
    is nonzero (its pivot) pins a_k by forward substitution.  L_k is never
    formed: its coefficients are read from dF/dx and dF/dy at the pivot
    exponents only.  The block ends before the first k whose pivot does
    not increase, lies beyond the determined range, or reaches the lowest
    exponent that a product of two unknowns can touch, so the linear
    solve is exact; a block of one coefficient is the order-by-order
    solve.  Every determined coefficient of G below a block's first pivot
    must vanish, else no extension exists; this also re-checks everything
    the previous block solved.  The seed cut to q^min(trunc, MAX_TARGET),
    extended while short of the target, is re-verified against the
    polynomial in full before its cut to q^target is returned; a series too
    shallow for that check raises InsufficientTruncation, and a target
    below 0 or above MAX_TARGET is refused before any work.
    """
    if not h_prefix.is_moonshine_shape():
        raise ShapeError("bootstrap needs a q^-1 + O(q) seed")
    check_order(m, poly)
    if target < 0:
        raise UsageError(f"target {target} is below the smallest supported target 0")
    if target > MAX_TARGET:
        raise UsageError(f"target {target} exceeds the largest supported target {MAX_TARGET}")
    d_dx = poly.derivative("x")
    d_dy = poly.derivative("y")
    monomials = [key for key, c in poly.coeffs.items() if not c.is_zero()]
    result = h_prefix.truncate(min(h_prefix.trunc, MAX_TARGET))
    while result.trunc < target:
        n = result.trunc + 1
        floor, top = _block_end(monomials, m, n, target)
        h0 = result._padded(top)
        y0 = substitute_coset(h0, m, 1, 0)
        result = _solve_block(h0, n, floor, m, poly.evaluate(h0, y0),
                              d_dx.evaluate(h0, y0), d_dy.evaluate(h0, y0))
    report = verify_modular_equation(result, poly, m)
    if report.status == "insufficient-data":
        raise InsufficientTruncation(
            f"series reaches q^{result.trunc} but re-verifies only through "
            f"q^{report.verified_to}; ask for a deeper target")
    if report.status != "consistent":
        e, expected, actual = report.first_failure
        raise Inconsistent(f"series fails re-verification at q^{e}: "
                           f"expected {expected.literal()}, actual {actual.literal()}")
    return result.truncate(target)


def _block_end(monomials: list[tuple[int, int]], m: int, n: int, target: int):
    """(floor, top) of the block from a_n, from pole orders alone.  h ~ q^-1
    and h(m*tau) ~ q^-m, and an unknown at q^k or above in place of a factor
    h (of h(m*tau)) raises the exponent by k + 1 (by m(k + 1)), so a term of
    F(h, h(m*tau)) of degree r in the unknowns reaches no lower than
    b + w*(k + 1) for its pair (b, w).  The floor is the lowest such bound
    for r = 2 at k = n; top is the last k <= target whose lowest r = 1 bound
    (the lowest pivot of a_k) lies below the floor.  The bounds grow with k,
    so top is the largest ceil((floor - b) / w) - 2."""
    def terms(r):
        return [(-i - m * j, a + (r - a) * m) for i, j in monomials for a in range(r + 1)
                if a <= i and r - a <= j]
    floor = min((b + w * (n + 1) for b, w in terms(2)), default=math.inf)
    if floor == math.inf:
        return floor, target if terms(1) else n
    return floor, min(target, max([n] + [-((b - floor) // w) - 2 for b, w in terms(1)]))


def _solve_block(h0: PuiseuxSeries, n: int, floor, m: int, value: PuiseuxSeries,
                 f_x: PuiseuxSeries, f_y: PuiseuxSeries) -> PuiseuxSeries:
    """Solve a_n, a_(n+1), ... (at most through h0's bound) from G =
    ``value`` and the partial derivatives at the block's zero point h0;
    returns h0 with the solved coefficients, determined through the last.
    G, F_x and F_y are read as integer xi-columns over one denominator and
    the a_k are kept as integer columns over another, so the coefficient of
    L_k at e is read off F_x at e - k and F_y at e - mk, and the residual
    G + F_x delta + F_y delta(m tau) at a pivot is a set of integer dot
    products.  delta = sum a_k q^k becomes a series once, at the end."""
    basis = math.lcm(h0._basis, value._basis, f_x._basis, f_y._basis)
    phi, den = euler_phi(basis), math.lcm(value._den, f_x._den, f_y._den)
    g, x, y = (_columns(s, basis, den) for s in (value, f_x, f_y))
    solved, scale = [[] for _ in range(phi)], 1  # a_k = solved[r][k - n] / scale
    last = determined = inverted = None
    for k in range(n, h0.trunc + 1):
        forms = ((f_x, k), (f_y, m * k))  # L_k = q^k F_x + q^(mk) F_y
        bound = min(f_x.trunc + k, f_y.trunc + m * k)
        start = min((a.lo + b for a, b in forms if not a.is_zero()), default=bound + 1)
        # past the first unknown, a pivot beyond these bounds ends the block
        stop = bound if k == n else min(bound, determined, floor - 1)
        pivot, slope = next(((e, c) for e in range(start, stop + 1)
                             if any(c := list(map(add, _read(x, e - k), _read(y, e - m * k))))),
                            (None, None))
        if k == n:
            if pivot is None:
                raise BootstrapStalled(
                    f"linear coefficient of a_{n} vanishes on the determined range")
            if value.trunc < pivot:
                raise InsufficientSeed(
                    f"seed determines the relation only through q^{value.trunc}, "
                    f"need q^{pivot} to solve for a_{n}")
            first = value.min_nonzero_exponent()
            if first is not None and first < pivot:
                raise Inconsistent(
                    f"relation already fails at q^{first} (coefficient "
                    f"{value.coefficient(first)}) before a_{n} can act")
            determined = min(value.trunc, bound)
        elif pivot is None or pivot <= last or pivot > determined or pivot >= floor:
            break
        # the forms of later unknowns vanish below their own, higher pivots
        raw = [0] * (2 * phi - 1)
        for r, (xr, yr) in enumerate(zip(x[1], y[1])):
            for t, a in enumerate(solved):
                raw[r + t] += (_dot(xr, pivot - n - x[0], 1, a)
                               + _dot(yr, pivot - m * n - y[0], m, a))
        residual = list(map(add, _fold([[c] for c in raw], phi, basis, 1),
                            map(mul, _read(g, pivot), itertools.repeat(scale))))
        if slope != inverted:  # the pivot slope mostly repeats within a block
            inverted, (_, inverse, inverse_den) = slope, _scalar(
                CyclotomicNumber(basis, slope).inverse())
        # a_k = -residual / (scale * slope) = a_k / d in lowest terms
        a_k = [-c for c in _fold([[c] for c in _convolve(residual, inverse, 2 * phi - 1)],
                                 phi, basis, 1)]
        common = math.gcd(scale * inverse_den, *a_k)
        a_k, d = [c // common for c in a_k], scale * inverse_den // common
        if scale % d:
            grow, scale = math.lcm(scale, d) // scale, math.lcm(scale, d)
            solved = [[c * grow for c in column] for column in solved]
        for column, c in zip(solved, a_k):
            column.append(c * (scale // d))
        last = pivot
    delta = PuiseuxSeries._new(h0.conductor, basis, 1, h0.trunc, n,
                               [c for block in zip(*solved) for c in block], scale)
    return (h0 + delta).truncate(n + len(solved[0]) - 1)


def _columns(s: PuiseuxSeries, basis: int, den: int) -> tuple[int, list[list[int]]]:
    """A series on the integral grid as (lowest stored exponent, xi-columns
    on the basis over den): column r holds entry r of every coefficient."""
    vec, phi = _promote(s._vec, s._basis, basis), euler_phi(basis)
    return s.lo, [[c * (den // s._den) for c in vec[r::phi]] for r in range(phi)]


def _read(series: tuple[int, list[list[int]]], e: int) -> list[int]:
    """The coefficient vector at q^e of a series given by ``_columns``."""
    i = e - series[0]
    return [column[i] if 0 <= i < len(column) else 0 for column in series[1]]


def _dot(column: list[int], hi: int, step: int, a: list[int]) -> int:
    """sum_t column[hi - step*t] * a[t] over the t whose index lies in the
    column."""
    first, last = max(0, -((len(column) - 1 - hi) // step)), min(len(a) - 1, hi // step)
    if hi < 0 or first > last:
        return 0
    return sum(map(mul, column[hi - step * last:hi - step * first + 1:step],
                   reversed(a[first:last + 1])))


def check_replication(a: PuiseuxSeries, b: PuiseuxSeries, k: int) -> bool:
    """The coefficient recursion tying a series to its square-image series:

        c_{4k+2}(a) = c_{2k+2}(b) + sum_{j=1}^{k} c_j(b) * c_{2k+1-j}(b)

    checked exactly in the coefficient ring.
    """
    if k < 1:
        raise UsageError("replication index k must be >= 1")
    if a.trunc_exponent() < 4 * k + 2:
        raise InsufficientTruncation(
            f"left series needs depth {4*k + 2}", required=4 * k + 2)
    if b.trunc_exponent() < 2 * k + 2:
        raise InsufficientTruncation(
            f"square-image series needs depth {2*k + 2}", required=2 * k + 2)
    rhs = b.coefficient(2 * k + 2)
    for j in range(1, k + 1):
        rhs = rhs + b.coefficient(j) * b.coefficient(2 * k + 1 - j)
    return a.coefficient(4 * k + 2) == rhs


def congruence_membership(mat: IntMatrix, level: int, flavor: str) -> bool:
    """Membership in the principal congruence group or its two standard
    relatives at the given level.

    full:   A = +-I mod N.
    gamma0: N | c.
    gamma1: the group generated by the full level-N group and the unit
            translation; decided by the closed congruence N | c with
            a = d = +-1 mod N (matching signs).
    """
    if level < 1:
        raise UsageError("level must be >= 1")
    mat.require_unimodular()
    a, b, c, d = mat.entries()
    if flavor == "full":
        return b % level == 0 and c % level == 0 and _diagonal_is_sign(a, d, level)
    if flavor == "gamma0":
        return c % level == 0
    if flavor == "gamma1":
        return c % level == 0 and _diagonal_is_sign(a, d, level)
    raise UsageError(f"unknown flavor {flavor!r} (full, gamma0, gamma1)")


def _diagonal_is_sign(a: int, d: int, level: int) -> bool:
    """a = d = +1 or a = d = -1 mod level."""
    return any((a - s) % level == 0 and (d - s) % level == 0 for s in (1, -1))
