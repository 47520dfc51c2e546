"""Modular equations for formal q-series.

Given a normalized series h = q^-1 + a_1 q + a_2 q^2 + ..., the order-m
modular equation is prod (h(m*tau/d^2 + k/d) - Y) over the primitive coset
set A_m.  The cosets with the same d form a class whose j-th power sum is
sum_n c_n(h^j) w_d(n) q^(n*m/d^2), w_d(n) = sum_k xi_d^(k*n) a rational
integer, so it keeps the field of h and integral exponents.  Newton's
identities per class, then a product over the classes, give the
Y-coefficients (the power-sum view of Conway-Norton 1979 and of Alexander,
Cummins, McKay and Simons 1992); build expresses each as a polynomial in h
and verification compares them with F(h, Y).

Powers of h come from the ladder cached on h; a build takes the e_j one at
a time and stops at the first that fails.  Build and verification read the
powers of one cut, and maybe twisted, generator.  Constants are exact.

The coset set uses the primitive pairs (d, k) with d | m, 0 <= k < d and
gcd(m/d, k, d) = 1, which is exactly what makes |A_m| = psi(m) and the
polynomial degree psi(m) work out for non-squarefree m.

Sign convention: the stored polynomial is the product form, whose leading
coefficient in y is (-1)^psi(m); ``monic()`` rescales when a monic
normalization is wanted.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Mapping

from .errors import (
    ExpressFailure,
    InsufficientTruncation,
    NonIntegralInput,
    ParseError,
    ShapeError,
    UsageError,
)
from .exactnum import (MAX_CONDUCTOR, CyclotomicNumber, _format_terms, _read_header, _trim,
                       parse_cyclotomic, prime_divisors)
from .qseries import PuiseuxSeries, _linear, _reweighted

Coeff = CyclotomicNumber

# Largest order a build, verification or bootstrap accepts.
MAX_ORDER = 100
# Largest sum of psi(m)^2 over the orders of one classify: psi(90)^2, the work
# of the costliest single order (a build takes about 9e-5 s per psi(m)^2).
MAX_ORDER_WORK = 46_656
# Largest bootstrap target: j from q^3 at order 2 takes 9-12 s to q^2000.
MAX_TARGET = 2000


def check_order(m: int, poly: ModularPolynomial | None = None) -> int:
    """Refuse an order above MAX_ORDER before any work (psi factors m by
    trial division, and a build's Newton sums grow as psi(m)^2 series
    products even for a two-term input), an order below 2 (no coset set),
    then an input polynomial of another order (psi(4) = psi(5), so degrees
    alone cannot tell), and last, as a data error, one whose degrees are not
    psi(m); return psi(m)."""
    if m > MAX_ORDER:
        raise UsageError(f"order {m} exceeds the largest supported order {MAX_ORDER}")
    if m < 2:
        raise UsageError(f"order {m} is below the smallest supported order 2")
    if poly is not None and poly.m != m:
        raise UsageError(f"polynomial of order {poly.m} given for order {m}")
    n = psi(m)
    if poly is not None and (poly.degx != n or poly.degy != n):
        raise ParseError(f"polynomial degrees ({poly.degx}, {poly.degy}) != psi({m}) = {n}")
    return n


def psi(m: int) -> int:
    """The coset index m * prod_{p | m} (1 + 1/p).

    >>> [psi(m) for m in (2, 3, 4, 6, 12)]
    [3, 4, 6, 12, 24]
    """
    if m < 1:
        raise ValueError("psi needs m >= 1")
    result = m
    for p in prime_divisors(m):
        result = result // p * (p + 1)
    return result


@dataclass(frozen=True)
class CosetSet:
    """The primitive pairs (d, k) indexing the order-m substitutions."""

    m: int
    pairs: tuple[tuple[int, int], ...]

    def __len__(self) -> int:
        return len(self.pairs)


def coset_set(m: int) -> CosetSet:
    """All (d, k) with d | m, 0 <= k < d, gcd(m/d, k, d) = 1, sorted.

    >>> coset_set(4).pairs
    ((1, 0), (2, 1), (4, 0), (4, 1), (4, 2), (4, 3))
    """
    if m < 2:
        raise ValueError("coset sets are defined for m >= 2")
    pairs = tuple(
        (d, k)
        for d in range(1, m + 1)
        if m % d == 0
        for k in range(d)
        if math.gcd(math.gcd(m // d, k), d) == 1
    )
    if len(pairs) != psi(m):
        raise AssertionError(f"coset set size {len(pairs)} != psi({m}) = {psi(m)}")
    return CosetSet(m, pairs)


@functools.lru_cache(maxsize=None)
def _class_weights(m: int, d: int) -> tuple[int, ...]:
    """w_d(r) = sum_{k in K_d} xi_d^(k*r) for r = 0..d-1, K_d the offsets
    paired with d in coset_set(m): the k mod d prime to g = gcd(d, m/d).
    Moebius inversion over the squarefree e | g gives the closed form
    w_d(r) = sum_e mu(e) * (d/e) * [d/e divides r], with no root of unity."""
    primes = prime_divisors(math.gcd(d, m // d))
    terms = [((-1) ** size, d // math.prod(chosen)) for size in range(len(primes) + 1)
             for chosen in itertools.combinations(primes, size)]
    return tuple(sum(mu * step for mu, step in terms if r % step == 0) for r in range(d))


def _class_power_sum(s: PuiseuxSeries, m: int, d: int) -> PuiseuxSeries:
    """sum_{k in K_d} s(m*tau/d^2 + k/d): q^n goes to w_d(n) q^(n*m/d^2)."""
    g = math.gcd(d * d, m)
    return _reweighted(s, m // g, d * d // g, _class_weights(m, d), s.conductor)


def _coset_elementary(h: PuiseuxSeries, m: int) -> Iterator[PuiseuxSeries]:
    """Yield e_0, e_1, ..., e_psi(m) of the order-m coset roots of h, in the
    field of h: Newton's identities on each class's power sums (one run
    over all roots would let the q^-m pole of the d = 1 root eat the other
    classes' depth), then the product of the class polynomials.  e_j forms
    the power sums, Newton steps and product terms of degree j only, so a
    caller that stops after e_j never multiplies out h^(j+1).  e_0 is the
    empty product h^0, determined as far as h."""
    classes = [(d, _class_weights(m, d)[0]) for d in range(1, m + 1) if m % d == 0]
    # per class d, of size |K_d| = w_d(0): power sums p_1.., elementary e_0..,
    # and the elementary functions of the roots of this class and every earlier one
    sums = [[] for _ in classes]
    es, totals = ([[1] for _ in classes] for _ in range(2))
    yield h ** 0
    for j in range(1, psi(m) + 1):
        below, degree = [1], 0
        for (d, size), p, e, total in zip(classes, sums, es, totals):
            if j <= size:
                p.append(_class_power_sum(h._powers(j)[j], m, d))
                # j e_j = sum_{i=1..j} (-1)^(i-1) e_(j-i) p_i
                e.append(_linear([(Fraction((-1) ** (i - 1), j), e[j - i], p[i - 1])
                                  for i in range(1, j + 1)]))
            if j <= degree + size:
                total.append(_linear([(below[a], e[j - a])
                                      for a in range(max(0, j - size), min(j, degree) + 1)]))
            below, degree = total, degree + size
        yield below[j]


def average_sum(f: PuiseuxSeries, p: int) -> PuiseuxSeries:
    """The prime averaging f(p*tau) + sum_{k<p} f((tau+k)/p): the d = 1 and
    d = p class power sums of f at order p, whose weights cancel every
    fractional exponent.  Declared over Q[xi_lcm(N, p)], so lcm(N, p) may
    not exceed MAX_CONDUCTOR.
    """
    if math.lcm(f.conductor, p) > MAX_CONDUCTOR:
        raise UsageError(f"averaging order {p} puts the result in conductor "
                         f"lcm({f.conductor}, {p}) > {MAX_CONDUCTOR}")
    if prime_divisors(p) != [p]:
        raise UsageError(f"averaging order {p} is not prime")
    if f.denom != 1:
        raise NonIntegralInput("averaging needs a series with integral exponents")
    total = _class_power_sum(f, p, 1) + _class_power_sum(f, p, p)
    return total.with_conductor(math.lcm(f.conductor, p))


@dataclass(frozen=True)
class UnivariatePoly:
    """Dense polynomial with exact cyclotomic coefficients, ascending powers."""

    coeffs: tuple[Coeff, ...]

    @staticmethod
    def from_list(values) -> UnivariatePoly:
        coeffs = [v if isinstance(v, CyclotomicNumber) else CyclotomicNumber.from_rational(v)
                  for v in values]
        return UnivariatePoly(tuple(_trim(coeffs)))

    def degree(self) -> int:
        return len(self.coeffs) - 1

    def coefficient(self, j: int) -> Coeff:
        if 0 <= j < len(self.coeffs):
            return self.coeffs[j]
        return CyclotomicNumber.zero()

    def __call__(self, x: PuiseuxSeries) -> PuiseuxSeries:
        """Evaluate at a series (Horner); a constant polynomial gives its
        constant, determined as far as x."""
        result = 0
        for c in reversed(self.coeffs):
            result = _linear([(result, x), (c,)])
        return result if isinstance(result, PuiseuxSeries) else x.scale(0) + result

    __hash__ = None

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        return _format_terms([(c.literal(), f"x^{j}" if j > 1 else "x" * j)
                              for j, c in reversed(list(enumerate(self.coeffs)))])


def express_in_generator(f: PuiseuxSeries, h: PuiseuxSeries) -> UnivariatePoly:
    """Write f as an exact polynomial in h by greedy pole-killing.

    Repeatedly cancels the most negative surviving exponent of the residual
    with a multiple of the matching power of h; succeeds when the residual
    vanishes identically on its determined range.
    """
    return _express(f, h)[0]


def _express(f: PuiseuxSeries, h: PuiseuxSeries) -> tuple[UnivariatePoly, Fraction]:
    """express_in_generator, and the bound of its zero residual f - P(h).

    With h = q^-1 + ... determined through q^D, h^k is determined through
    q^(D-k+1), so the residual keeps the bound of f while D - pole_order(f)
    + 1 >= that bound (for a build's e_j on the cut h, see _generator)."""
    if not h.is_moonshine_shape():
        raise ShapeError("generator must be q^-1 + O(q) with zero constant term")
    if f.denom != 1:
        raise NonIntegralInput("cannot express a series with fractional exponents")
    degree = f.pole_order()
    powers = h._powers(degree)
    coeffs: dict[int, Coeff] = {}
    residual = f
    while True:
        v = residual.min_nonzero_exponent()
        if v is None or v > 0:
            break
        j = int(-v)
        c = residual.coefficient(v)
        coeffs[j] = c
        residual = _linear([(residual,), (-c, powers[j])])
    if residual.trunc_exponent() < 0:
        raise InsufficientTruncation(
            "residual not determined through the constant term", required=0)
    if not residual.is_zero():
        raise ExpressFailure(
            f"series is not a polynomial in the generator; residual {residual!r}",
            residual=residual,
        )
    return UnivariatePoly.from_list(
        [coeffs.get(j, CyclotomicNumber.zero()) for j in range(degree + 1)]), \
        residual.trunc_exponent()


@dataclass(frozen=True)
class ModularPolynomial:
    """Exact bivariate polynomial in the product-form normalization.

    ``coeffs`` maps (i, j) -> coefficient of x^i y^j; the coefficient of
    y^degy is (-1)^degy by construction.
    """

    m: int
    conductor: int
    coeffs: Mapping[tuple[int, int], Coeff]
    degx: int
    degy: int

    def coefficient(self, i: int, j: int) -> Coeff:
        return self.coeffs.get((i, j), CyclotomicNumber.zero())

    def monic(self) -> ModularPolynomial:
        """Rescaled so the leading y coefficient is +1."""
        if self.degy % 2 == 0:
            return self
        return self.scale(-1)

    def scale(self, factor) -> ModularPolynomial:
        return ModularPolynomial(
            self.m, self.conductor,
            {key: c * factor for key, c in self.coeffs.items()},
            self.degx, self.degy)

    def apply_galois(self, t: int) -> ModularPolynomial:
        return ModularPolynomial(
            self.m, self.conductor,
            {key: c.galois(t) for key, c in self.coeffs.items()},
            self.degx, self.degy)

    def transpose(self) -> ModularPolynomial:
        return ModularPolynomial(
            self.m, self.conductor,
            {(j, i): c for (i, j), c in self.coeffs.items()},
            self.degy, self.degx)

    def y_slices(self) -> list[dict[int, Coeff]]:
        """For each power of y, the map i -> coefficient of x^i."""
        slices: list[dict[int, Coeff]] = [{} for _ in range(self.degy + 1)]
        for (i, j), c in self.coeffs.items():
            slices[j][i] = c
        return slices

    def evaluate(self, x: PuiseuxSeries, y: PuiseuxSeries) -> PuiseuxSeries:
        """F(x, y) for series arguments, Horner in y over the powers of x
        cached on x (so F and its partial derivatives at the same point
        share them)."""
        powers = x._powers(self.degx)
        result = 0
        for slice_map in reversed(self.y_slices()):
            result = _linear([(result, y)] + [(c, powers[i]) for i, c in slice_map.items()])
        return result if isinstance(result, PuiseuxSeries) else x.scale(0) + result

    def derivative(self, variable: str) -> ModularPolynomial:
        out: dict[tuple[int, int], Coeff] = {}
        for (i, j), c in self.coeffs.items():
            if variable == "x" and i > 0:
                out[(i - 1, j)] = c * i
            elif variable == "y" and j > 0:
                out[(i, j - 1)] = c * j
        out = {k: v for k, v in out.items() if not v.is_zero()}
        dx = self.degx - (1 if variable == "x" else 0)
        dy = self.degy - (1 if variable == "y" else 0)
        return ModularPolynomial(self.m, self.conductor, out, max(dx, 0), max(dy, 0))

    def __eq__(self, other) -> bool:
        if not isinstance(other, ModularPolynomial):
            return NotImplemented
        keys = set(self.coeffs) | set(other.coeffs)
        return all(self.coefficient(*k) == other.coefficient(*k) for k in keys)

    __hash__ = None


def required_truncation(m: int) -> int:
    """Input depth needed to build the order-m polynomial, with guard terms."""
    return psi(m) * m + psi(m) + 8


def build_modular_polynomial(h: PuiseuxSeries, m: int,
                             generalised: bool = False) -> ModularPolynomial:
    """Construct the order-m modular polynomial satisfied by h, or fail.

    The Y-coefficients of prod_{(d,k)} (h(m*tau/d^2 + k/d) - Y) come from
    class power sums, so they stay in Q[xi_N] for N = h.conductor; each must
    be expressible as a polynomial in h (in sigma_m(h) for the
    Galois-twisted variant).  The result is declared over Q[xi_N]: to write
    it over a larger cyclotomic field, declare h over that field.
    """
    return _build(h, m, generalised)[0]


def _generator(h: PuiseuxSeries, m: int, generalised: bool) -> PuiseuxSeries:
    """h cut to q^min(trunc, trunc // m + psi(m)), twisted by sigma_m (an
    automorphism of Q[xi_N] only for m prime to N) when generalised.  No e_j
    has a pole of order above psi(m), the sum of the root poles m/d^2, and
    e_j (j >= 1) is determined at most through q^(trunc/m): for j <= m it has
    the term p_j/j of the class d = m; for j > m a term e_b(class m) *
    e_a(classes d < m), 1 <= b <= m, with a at a vertex of the Newton polygon
    of the classes d < m, where e_a has valuation at most -m (its vertices
    are at most m/2 apart, the class sizes).  The cut h^i, i <= psi(m), are
    determined through q^(trunc // m + 1), so each e_j - P_j(h) keeps its
    bound and its first nonzero term."""
    if generalised and math.gcd(m, h.conductor) != 1:
        raise UsageError(f"twisted construction needs gcd(m, {h.conductor}) = 1")
    cut = h.truncate(min(h.trunc, h.trunc // m + psi(m)))
    return cut.map_coefficients(lambda c: c.galois(m)) if generalised else cut


def _build(h: PuiseuxSeries, m: int, generalised: bool) -> tuple[ModularPolynomial, Fraction]:
    """build_modular_polynomial, and the lowest bound of its residuals e_j -
    P_j(h): verification forms the same differences, so the polynomial
    verifies against h as consistent to exactly that bound."""
    if not h.is_moonshine_shape():
        raise ShapeError("modular polynomial construction needs q^-1 + O(q) input")
    degree = check_order(m)
    generator = _generator(h, m, generalised)
    need = required_truncation(m)
    if h.trunc < need:
        raise InsufficientTruncation(
            f"order-{m} construction needs the input determined through q^{need}, "
            f"have q^{h.trunc}",
            required=need,
        )
    slices: dict[tuple[int, int], Coeff] = {}
    bounds: dict[int, Fraction] = {}
    for j, e_j in enumerate(_coset_elementary(h, m)):
        try:
            poly, bounds[j] = _express(e_j, generator)
        except ExpressFailure as exc:
            raise ExpressFailure(
                f"e_{j} is not a polynomial in the generator (order {m})",
                residual=exc.residual,
            ) from exc
        sign = -1 if (degree - j) % 2 else 1
        for i, c in enumerate(poly.coeffs):
            if c.is_zero():
                continue
            slices[(i, degree - j)] = c * sign
    return ModularPolynomial(m, h.conductor, slices, degree, degree), min(bounds.values())


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of checking a modular equation against a series."""

    order: int
    verified_to: Fraction
    status: str  # consistent | inconsistent | insufficient-data
    first_failure: tuple[Fraction, Coeff, Coeff] | None = None

    def __post_init__(self):
        if self.status == "inconsistent" and self.first_failure is None:
            raise ValueError("inconsistent report must carry its first failure")


def verify_modular_equation(h: PuiseuxSeries, poly: ModularPolynomial, m: int,
                            generalised: bool = False) -> VerificationReport:
    """Check that the product over coset substitutions equals F(h(tau), Y).

    Both sides are expanded as polynomials in Y from what the build reads
    (class power sums, powers of _generator) and compared to the largest
    order the input truncation supports.  Failures are reported in-band, never raised;
    both values of a failure are written on lcm(h.conductor, poly.conductor).
    """
    check_order(m, poly)
    if not h.is_moonshine_shape():
        raise ShapeError("verification needs q^-1 + O(q) input")
    powers = _generator(h, m, generalised)._powers(poly.degx)
    elementary = list(_coset_elementary(h, m))
    verified_to: Fraction | None = None
    for t, slice_map in enumerate(poly.y_slices()):
        lhs, sign = elementary[-1 - t], (-1) ** t
        # the polynomial side minus the product side, in one sum
        diff = _linear([(c, powers[i]) for i, c in slice_map.items()] + [(-sign, lhs)])
        bound = diff.trunc_exponent()
        verified_to = bound if verified_to is None else min(verified_to, bound)
        if bound < 0:
            return VerificationReport(m, bound, "insufficient-data")
        e = diff.min_nonzero_exponent()
        if e is not None:
            # both sides on one field, that of h and the polynomial together
            field = math.lcm(h.conductor, poly.conductor)
            expected = (lhs.coefficient(e) * sign).promote(field)
            actual = (expected + diff.coefficient(e)).promote(field)
            return VerificationReport(m, verified_to, "inconsistent",
                                      first_failure=(e, expected, actual))
    return VerificationReport(m, verified_to, "consistent")


def symmetry_check(poly: ModularPolynomial, generalised: bool = False) -> bool:
    """F(x, y) == F(y, x), or its sigma_m twist in the generalised case."""
    swapped = poly.transpose()
    return poly == (swapped.apply_galois(poly.m) if generalised else swapped)


# -- mpoly v1 text format -----------------------------------------------------

def emit_mpoly(poly: ModularPolynomial) -> str:
    lines = [
        "# mpoly v1",
        f"order: {poly.m}",
        f"conductor: {poly.conductor}",
        f"degx: {poly.degx}",
        f"degy: {poly.degy}",
    ]
    for (i, j) in sorted(poly.coeffs):
        c = poly.coeffs[(i, j)]
        if c.is_zero():
            continue
        lines.append(f"{i} {j} {c.promote(poly.conductor).literal()}")
    return "\n".join(lines) + "\n"


def parse_mpoly(text: str) -> ModularPolynomial:
    lines, headers = _read_header(text, "# mpoly v1", ("order", "conductor", "degx", "degy"))
    coeffs: dict[tuple[int, int], Coeff] = {}
    last: tuple[int, int] | None = None
    for idx, line in enumerate(lines[5:], start=6):
        parts = line.split(" ", 2)
        if len(parts) != 3:
            raise ParseError("expected '<i> <j> <coefficient>'", line=idx)
        try:
            i, j = int(parts[0]), int(parts[1])
        except ValueError as exc:
            raise ParseError("bad monomial exponents", line=idx) from exc
        if last is not None and (i, j) <= last:
            raise ParseError("monomials out of order or duplicated", line=idx)
        last = (i, j)
        if i < 0 or j < 0 or i > headers["degx"] or j > headers["degy"]:
            raise ParseError(f"monomial ({i},{j}) outside declared degrees", line=idx)
        c = parse_cyclotomic(parts[2], headers["conductor"])
        if c.is_zero():
            raise ParseError("explicit zero coefficient is not canonical", line=idx)
        coeffs[(i, j)] = c
    return ModularPolynomial(headers["order"], headers["conductor"], coeffs,
                             headers["degx"], headers["degy"])
