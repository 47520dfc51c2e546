"""Exact truncated Puiseux/Laurent series in q with cyclotomic coefficients.

A series is a finite map from exponent numerators to coefficients, together
with the denominator D of the exponent grid (exponents are n/D), a lower
bound ``lo`` below which all coefficients are known to vanish, and an upper
bound ``trunc`` through which coefficients are determined.  Truncation is
tracked pessimistically by every operation: the result's ``trunc`` is the
tightest exponent bound to which the result is fully determined by the
inputs, never what the caller hopes for.

Storage is FLINT's ``fmpq_poly`` layout: from the lowest to the highest
nonzero term, each exponent holds the integer phi(N)-vector of a coefficient
on the power basis of Q[xi_N], all over one common denominator; rationals
are N = 1.  ``CyclotomicNumber`` objects appear only at the boundary
(``coefficient``, ``coeffs``, reports).  A number added to a series is an
exact constant: it never lowers ``trunc``.

The text form (qexp v1) is bit-exact::

    # qexp v1
    label: <text>
    conductor: <N>
    denom: <D>
    lo: <integer>
    trunc: <integer>
    <exponent-numerator> <coefficient-literal>

with lines sorted by exponent, zero coefficients omitted, LF endings.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from operator import add, mul, neg
from types import MappingProxyType
from typing import Iterable, Mapping

from .errors import InsufficientTruncation, NonIntegralInput, ParseError
from .exactnum import (CyclotomicNumber, _as_factor, _convolve, _fold, _integral, _promote,
                       _read_header, euler_phi, format_literal, parse_cyclotomic, parse_rational)

Coeff = CyclotomicNumber
_set = object.__setattr__

# Most exponents a constructed series may span from its lowest to its
# highest nonzero term: storage is dense over that span.
MAX_SPAN = 100_000


def _scalar(value) -> tuple[int, list[int], int]:
    """An exact number as (conductor, integer vector, positive denominator)."""
    if type(value) is int:
        return 1, [value], 1
    if isinstance(value, CyclotomicNumber):
        conductor, entries = value.conductor, value.coeffs
    else:
        conductor, entries = 1, (Fraction(value),)
    return conductor, *_integral(entries)


def _number(block, den: int, basis: int) -> CyclotomicNumber:
    """One coefficient block as a CyclotomicNumber (conductor 1 if rational)."""
    if not any(block[1:]):
        return CyclotomicNumber(1, (Fraction(block[0], den),))
    return CyclotomicNumber(basis, [Fraction(v, den) for v in block])


def _product(av: list[int], bv: list[int], phi: int, basis: int, n: int) -> list[int]:
    """Blocks 0..n-1 of the product of two block vectors: each pair of
    xi-columns is convolved in q, then the xi-powers are folded onto the
    basis."""
    raw: list = [None] * (2 * phi - 1)
    for r in range(phi):
        for s in range(phi):
            x, y = av[r::phi], bv[s::phi]
            if any(x) and any(y):
                c = _convolve(x, y, n)
                raw[r + s] = c if raw[r + s] is None else list(map(add, raw[r + s], c))
    return _fold(raw, phi, basis, n)


@dataclass(frozen=True)
class SeriesMeta:
    """Bookkeeping attached to a series: where it came from and what group
    it is claimed to belong to."""

    label: str
    source: str = ""
    claimed_group: str | None = None

    def __post_init__(self):
        if not self.label:
            raise ValueError("series label must be nonempty")


class PuiseuxSeries:
    """Truncated series sum_n c_n q^(n/D), exact coefficients.

    Construction canonicalizes: zero coefficients are dropped, the exponent
    denominator is reduced to the smallest grid containing all nonzero
    terms, and ``lo`` is tightened to the lowest nonzero exponent (or to
    ``trunc`` for a series with no nonzero terms in range).

    The vectors live in the field the coefficients were computed in, which
    divides ``conductor``.  The ``coeffs`` view and the powers are cached on
    first use, only ever replaced by equal values: safe to share.
    """

    __slots__ = ("conductor", "denom", "lo", "trunc",
                 "_basis", "_vec", "_den", "_view", "_ladder")

    def __init__(self, conductor: int, denom: int, lo: int, trunc: int,
                 coeffs: Mapping[int, Coeff]):
        if denom < 1:
            raise ValueError("denominator must be >= 1")
        if conductor < 1:
            raise ValueError("conductor must be >= 1")
        if lo > trunc:
            raise ValueError(f"lo {lo} exceeds trunc {trunc}")
        values = {}
        for n, c in coeffs.items():
            b, v, d = _scalar(c)
            if any(v):
                if n < lo or n > trunc:
                    raise ValueError(f"exponent numerator {n} outside [{lo}, {trunc}]")
                if conductor % b != 0:
                    raise ValueError(f"coefficient at {n} lives in conductor {b}, "
                                     f"outside the declared field Q[xi_{conductor}]")
                values[n] = b, v, d
        if values and max(values) - min(values) >= MAX_SPAN:
            raise ValueError(f"nonzero terms span {max(values) - min(values) + 1} exponents, "
                             f"more than {MAX_SPAN}")
        basis = math.lcm(*(b for b, _, _ in values.values()))
        den = math.lcm(*(d for _, _, d in values.values()))
        phi, start = euler_phi(basis), min(values, default=trunc)
        vec = [0] * (max(values, default=start - 1) - start + 1) * phi
        for n, (b, v, d) in values.items():
            i = (n - start) * phi
            vec[i:i + phi] = [x * (den // d) for x in _promote(v, b, basis)]
        _fill(self, conductor, basis, denom, trunc, start, vec, den)

    @staticmethod
    def _new(conductor, basis, denom, trunc, start, vec, den) -> PuiseuxSeries:
        out = object.__new__(PuiseuxSeries)
        _fill(out, conductor, basis, denom, trunc, start, vec, den)
        return out

    def __setattr__(self, name, value):
        raise AttributeError("PuiseuxSeries is immutable")

    # -- constructors ------------------------------------------------------

    @staticmethod
    def make(coeffs: Mapping[int, object], trunc: int, denom: int = 1,
             conductor: int = 1, lo: int | None = None) -> PuiseuxSeries:
        """Series from an exponent-numerator -> coefficient mapping."""
        low = min(coeffs) if coeffs else trunc
        if lo is not None:
            low = min(low, lo)
        low = min(low, trunc)
        return PuiseuxSeries(conductor, denom, low, trunc, coeffs)

    @staticmethod
    def zero(trunc: int, denom: int = 1, conductor: int = 1) -> PuiseuxSeries:
        return PuiseuxSeries(conductor, denom, trunc, trunc, {})

    @staticmethod
    def monomial(numerator: int, trunc: int, coeff=1, denom: int = 1,
                 conductor: int = 1) -> PuiseuxSeries:
        return PuiseuxSeries.make({numerator: coeff}, trunc, denom, conductor)

    @staticmethod
    def moonshine(tail: Iterable[object], conductor: int = 1,
                  trunc: int | None = None) -> PuiseuxSeries:
        """q^-1 plus the given coefficients of q, q^2, ... (zero constant
        term); ``trunc`` defaults to the length of the tail."""
        coeffs = {-1: 1, **dict(enumerate(tail, start=1))}
        return PuiseuxSeries.make(coeffs, trunc=len(coeffs) - 1 if trunc is None else trunc,
                                  conductor=conductor)

    # -- inspection ---------------------------------------------------------

    @property
    def coeffs(self) -> Mapping[int, Coeff]:
        """Read-only view exponent numerator -> coefficient of the nonzero
        terms, in exponent order."""
        if self._view is None:
            phi, vec = euler_phi(self._basis), self._vec
            _set(self, "_view", MappingProxyType({
                self.lo + i: _number(vec[i * phi:(i + 1) * phi], self._den, self._basis)
                for i in range(len(vec) // phi) if any(vec[i * phi:(i + 1) * phi])}))
        return self._view

    def trunc_exponent(self) -> Fraction:
        """Largest exponent (as a rational) through which coefficients are
        determined."""
        return Fraction(self.trunc, self.denom)

    def coefficient(self, exponent) -> Coeff:
        """Exact coefficient at the given exponent (int or Fraction).

        Raises InsufficientTruncation beyond the determined range; exponents
        below ``lo`` and exponents off the grid are known zeros.
        """
        e = Fraction(exponent)
        if e > self.trunc_exponent():
            raise InsufficientTruncation(
                f"coefficient at {e} beyond determined range {self.trunc_exponent()}",
                required=e,
            )
        scaled, phi = e * self.denom, euler_phi(self._basis)
        i = (int(scaled) - self.lo) * phi
        if scaled.denominator == 1 and i >= 0 and any(self._vec[i:i + phi]):
            return _number(self._vec[i:i + phi], self._den, self._basis)
        return CyclotomicNumber.zero()

    def nonzero_items(self) -> list[tuple[int, Coeff]]:
        return list(self.coeffs.items())

    def is_zero(self) -> bool:
        return not self._vec

    def min_nonzero_exponent(self) -> Fraction | None:
        return Fraction(self.lo, self.denom) if self._vec else None

    def pole_order(self) -> int:
        """Order of the pole at q = 0 (0 for a series with no negative terms)."""
        e = self.min_nonzero_exponent()
        if e is None or e >= 0:
            return 0
        return int(math.ceil(-e))

    def is_moonshine_shape(self) -> bool:
        """Integral exponents, leading term exactly q^-1, zero constant term."""
        if self.denom != 1 or self.lo != -1 or self.trunc < 0:
            return False
        phi = euler_phi(self._basis)
        return (self._vec[:phi] == [self._den] + [0] * (phi - 1)
                and not any(self._vec[phi:2 * phi]))

    # -- canonical-form equality (declared conductor excluded) --------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, PuiseuxSeries):
            return NotImplemented
        if (self.denom, self.lo, self.trunc) != (other.denom, other.lo, other.trunc):
            return False
        basis = math.lcm(self._basis, other._basis)
        a = _promote(self._vec, self._basis, basis)
        b = _promote(other._vec, other._basis, basis)
        return len(a) == len(b) and all(x * other._den == y * self._den
                                        for x, y in zip(a, b))

    __hash__ = None

    def __repr__(self) -> str:
        items = self.nonzero_items()
        terms = []
        for n, c in items[:6]:
            e = Fraction(n, self.denom)
            lit = _as_factor(c.literal())
            terms.append(f"{lit}*q^({e})" if e != 0 else lit)
        if len(items) > 6:
            terms.append("...")
        body = " + ".join(terms) if terms else "0"
        return f"<series {body} | O(q^({self.trunc_exponent()}))>"

    # -- promotion ----------------------------------------------------------

    def _on(self, denom: int, basis: int) -> tuple[list[int], int, int]:
        """Vector, start and trunc on the finer grid 1/denom and the larger
        basis, still over this series' denominator."""
        f, phi = denom // self.denom, euler_phi(basis)
        vec = _promote(self._vec, self._basis, basis)
        if f > 1 and vec:
            fine = [0] * ((len(vec) // phi - 1) * f + 1) * phi
            for j in range(phi):
                fine[j::f * phi] = vec[j::phi]
            vec = fine
        return vec, self.lo * f, self.trunc * f

    def _padded(self, trunc: int) -> PuiseuxSeries:
        """The same terms declared determined through ``trunc``: every
        coefficient above the current bound is asserted to be zero."""
        return PuiseuxSeries._new(self.conductor, self._basis, self.denom, trunc,
                                  self.lo, self._vec, self._den)

    def with_conductor(self, conductor: int) -> PuiseuxSeries:
        """Re-declare the ambient coefficient field (must contain the old one)."""
        if conductor % self.conductor != 0:
            raise ValueError(f"conductor {conductor} does not contain {self.conductor}")
        if conductor == self.conductor:
            return self
        return PuiseuxSeries._new(conductor, self._basis, self.denom, self.trunc,
                                  self.lo, self._vec, self._den)

    def truncate(self, exponent) -> PuiseuxSeries:
        """Forget everything above the given exponent bound.  On integral
        exponents the cached powers come along, each cut to the bound the
        same power of the cut series has: x^k to bound + (k-1) * lo."""
        e = Fraction(exponent)
        if e > self.trunc_exponent():
            raise ValueError("truncate cannot extend the determined range")
        bound = math.floor(e * self.denom)
        keep = max(0, bound - self.lo + 1) * euler_phi(self._basis)
        out = PuiseuxSeries._new(self.conductor, self._basis, self.denom, bound,
                                 self.lo, self._vec[:keep], self._den)
        if keep and self.denom == 1:
            _set(out, "_ladder", tuple(p.truncate(bound + k * self.lo)
                                       for k, p in enumerate(self._ladder, start=1)))
        return out

    def shift(self, by) -> PuiseuxSeries:
        """The series times q^by, by renumbering: lo, trunc and every
        exponent move by ``by`` (an int or Fraction), on the series' grid
        refined to contain ``by``.  Equal to multiplication by the exactly
        known monomial q^by, without multiplying anything."""
        by = Fraction(by)
        d = math.lcm(self.denom, by.denominator)
        vec, start, trunc = self._on(d, self._basis)
        s = by.numerator * (d // by.denominator)
        return PuiseuxSeries._new(self.conductor, self._basis, d, trunc + s, start + s,
                                  vec, self._den)

    def map_coefficients(self, fn) -> PuiseuxSeries:
        """Apply an exact map to every coefficient (e.g. a Galois twist)."""
        return PuiseuxSeries(self.conductor, self.denom, self.lo, self.trunc,
                             {n: fn(c) for n, c in self.coeffs.items()})

    def _powers(self, top: int) -> tuple:
        """(1, x, x^2, ..., x^top) for this series x, x^0 the exact constant
        1.  Extending the cache publishes a new tuple, so concurrent callers
        at worst compute a power twice."""
        ladder = self._ladder
        if len(ladder) < top - 1:
            grown = list(ladder)
            while len(grown) < top - 1:
                grown.append((grown[-1] if grown else self) * self)
            ladder = tuple(grown)
            if len(ladder) > len(self._ladder):
                _set(self, "_ladder", ladder)
        return (1, self) + ladder[:max(top - 1, 0)]

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other) -> PuiseuxSeries:
        # a number is an exact constant: it never lowers the bound
        return _linear(((self,), (other,)))

    __radd__ = __add__

    def __neg__(self) -> PuiseuxSeries:
        return PuiseuxSeries._new(self.conductor, self._basis, self.denom, self.trunc,
                                  self.lo, list(map(neg, self._vec)), self._den)

    def __sub__(self, other) -> PuiseuxSeries:
        return self + (-other)

    def __rsub__(self, other) -> PuiseuxSeries:
        return (-self) + other

    def scale(self, factor) -> PuiseuxSeries:
        if not factor:
            return PuiseuxSeries.zero(self.trunc, self.denom, self.conductor)
        return _linear(((factor, self),))

    def __mul__(self, other) -> PuiseuxSeries:
        if isinstance(other, (int, Fraction, CyclotomicNumber)):
            return self.scale(other)
        d = math.lcm(self.denom, other.denom)
        basis = math.lcm(self._basis, other._basis)
        (av, sa, ta), (bv, sb, tb) = self._on(d, basis), other._on(d, basis)
        trunc = min(ta + (sb if bv else tb + 1), tb + (sa if av else ta + 1))
        phi = euler_phi(basis)
        n = min(trunc - sa - sb + 1, (len(av) + len(bv)) // phi - 1) if av and bv else 0
        vec = _product(av[:n * phi], bv[:n * phi], phi, basis, n) if n > 0 else []
        return PuiseuxSeries._new(math.lcm(self.conductor, other.conductor), basis, d,
                                  trunc, sa + sb, vec, self._den * other._den)

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> PuiseuxSeries:
        if exponent < 0:
            raise ValueError("negative series powers are not supported")
        if exponent == 0:
            # the empty product is known wherever the base is
            return PuiseuxSeries.make({0: 1}, trunc=max(self.trunc, 0),
                                      denom=self.denom, conductor=self.conductor)
        return self._powers(exponent)[exponent]


def _fill(obj, conductor, basis, denom, trunc, start, vec, den) -> None:
    """Set the slots in canonical form: no zero block at either end, the
    coarsest exponent grid, and gcd(den, entries) = 1."""
    phi = euler_phi(basis)
    first = next(itertools.compress(itertools.count(), vec), None)
    if first is None:
        trunc //= denom
        basis, denom, start, vec, den = 1, 1, trunc, [], 1
    else:
        last = (len(vec) - 1 - next(itertools.compress(itertools.count(), reversed(vec)))) // phi
        vec, start = vec[first // phi * phi:(last + 1) * phi], start + first // phi
        if denom > 1:
            g = math.gcd(denom, *(start + i for i in range(len(vec) // phi)
                                  if any(vec[i * phi:(i + 1) * phi])))
            if g > 1:
                coarse = [0] * ((len(vec) // phi - 1) // g + 1) * phi
                for j in range(phi):
                    coarse[j::phi] = vec[j::g * phi]
                vec, start, trunc, denom = coarse, start // g, trunc // g, denom // g
        g = math.gcd(den, *vec) if den > 1 else 1
        if g > 1:
            vec, den = [v // g for v in vec], den // g
    for name, value in (("conductor", conductor), ("denom", denom), ("lo", start),
                        ("trunc", trunc), ("_basis", basis), ("_vec", vec), ("_den", den),
                        ("_view", None), ("_ladder", ())):
        _set(obj, name, value)


def _reweighted(s: PuiseuxSeries, stretch: int, denom: int, factors,
                conductor: int) -> PuiseuxSeries:
    """sum_n c_n * factors[n mod len(factors)] * q^(n*stretch) on the grid
    1/denom, over Q[xi_conductor]: every xi-column of s is scaled, a whole
    column at a time, by the entries of the factors' multiplication
    matrices."""
    fs = [_scalar(f) for f in factors]
    basis = math.lcm(s._basis, *(b for b, _, _ in fs))
    phi, fden = euler_phi(basis), math.lcm(*(d for _, _, d in fs))
    vs = [[x * (fden // d) for x in _promote(v, b, basis)] for b, v, d in fs]
    # mats[r][i]: factor r times xi^i, on the basis
    mats = [[_fold([None] * i + [[x] if x else None for x in v], phi, basis, 1)
             for i in range(phi)] for v in vs]
    vec, shift = _promote(s._vec, s._basis, basis), s.lo % len(fs)
    out = [0] * ((len(vec) // phi - 1) * stretch + 1) * phi if vec else []
    for i in range(phi):
        for j in range(phi):
            ws = [mats[(shift + r) % len(fs)][i][j] for r in range(len(fs))]
            if any(ws):
                out[j::stretch * phi] = map(add, out[j::stretch * phi],
                                            map(mul, vec[i::phi], itertools.cycle(ws)))
    return PuiseuxSeries._new(conductor, basis, denom, s.trunc * stretch,
                              s.lo * stretch, out, s._den * fden)


def _linear(terms):
    """The sum of the terms, each a tuple of exact numbers and series that
    stands for their product; a term without a series is an exact constant,
    which never lowers the bound.  The series of a term are multiplied out
    and an irrational number is applied column by column; then every term
    is scaled by an integer into one buffer on the common grid, basis and
    denominator, canonicalized once.  A term whose numbers multiply to 0 is
    dropped whole.  The bound is the lowest bound of the series terms;
    with none, the sum of the constants is returned as a number."""
    series, constants = [], []
    for term in terms:
        c, factors = None, []
        for f in term:
            if isinstance(f, PuiseuxSeries):
                factors.append(f)
            elif not isinstance(f, (int, Fraction, CyclotomicNumber)):
                raise TypeError(f"cannot interpret {f!r} as a series")
            elif c is None or type(c) is int and c == 1:
                c = f
            elif type(f) is not int or f != 1:
                c = c * f
        c, scalar = (1, (1, [1], 1)) if c is None else (c, _scalar(c))
        if not any(scalar[1]):
            continue
        if not factors:
            constants.append((scalar, c))
            continue
        s = functools.reduce(mul, factors)
        if any(scalar[1][1:]):
            s, scalar = _reweighted(s, 1, s.denom, [c], math.lcm(s.conductor, scalar[0])), \
                        (1, [1], 1)
        series.append((scalar, s))
    if not series:
        return sum((c for _, c in constants), 0)
    d = basis = conductor = den = 1
    for (b, _, cd), s in series:
        d, den = math.lcm(d, s.denom), math.lcm(den, cd * s._den)
        basis, conductor = math.lcm(basis, b, s._basis), math.lcm(conductor, b, s.conductor)
    for (b, _, cd), _ in constants:
        basis, conductor, den = math.lcm(basis, b), math.lcm(conductor, b), math.lcm(den, cd)
    trunc = min(s.trunc * (d // s.denom) for _, s in series)
    phi = euler_phi(basis)
    # (vector on the common grid and basis, its start, integer factor)
    blocks = [(*s._on(d, basis)[:2], v[0] * (den // (cd * s._den)))
              for (_, v, cd), s in series if s._vec]
    blocks += [(_promote(v, b, basis), 0, den // cd) for (b, v, cd), _ in constants]
    start = min((s for _, s, _ in blocks), default=trunc)
    stop = min(trunc + 1, max((s + len(v) // phi for v, s, _ in blocks), default=0))
    out = [0] * max(0, stop - start) * phi
    for vec, s, k in blocks:
        vec, i = vec[:max(0, stop - s) * phi], (s - start) * phi
        out[i:i + len(vec)] = map(add, out[i:i + len(vec)],
                                  vec if k == 1 else map(mul, vec, itertools.repeat(k)))
    return PuiseuxSeries._new(conductor, basis, d, trunc, start, out, den)


# -- spec-facing functional spellings ----------------------------------------

def series_arith(a: PuiseuxSeries, b: PuiseuxSeries, op: str) -> PuiseuxSeries:
    """add / sub / mul with automatic grid and conductor promotion."""
    if op == "add":
        return a + b
    if op == "sub":
        return a - b
    if op == "mul":
        return a * b
    raise ValueError(f"unknown series operation {op!r}")


def substitute_coset(h: PuiseuxSeries, m: int, d: int, k: int) -> PuiseuxSeries:
    """The substitution realizing h(m*tau/d^2 + k/d).

    Sends q^n to xi_d^(k*n) * q^(n*m/d^2).  Requires integral exponents on
    the input; the result lives on the grid of denominator d^2/gcd(d^2, m)
    and its coefficient field is promoted by the d-th roots of unity.
    """
    if h.denom != 1:
        raise NonIntegralInput("coset substitution needs a series with integral exponents")
    if m < 1 or d < 1 or m % d != 0:
        raise ValueError(f"need d | m, got m={m}, d={d}")
    if not 0 <= k < d:
        raise ValueError(f"offset k={k} outside [0, {d})")
    g = math.gcd(d * d, m)
    roots = [CyclotomicNumber.root_of_unity(d, k * r) for r in range(d)]
    return _reweighted(h, m // g, d * d // g, roots, math.lcm(h.conductor, d))


@dataclass(frozen=True)
class Comparison:
    """Outcome of comparing two series through an exponent bound."""

    equal: bool
    exponent: Fraction | None = None
    left: Coeff | None = None
    right: Coeff | None = None


def compare_to_order(a: PuiseuxSeries, b: PuiseuxSeries, order) -> Comparison:
    """Coefficient-wise equality of a and b for exponents <= order, or the
    earliest mismatch.  Both series must be determined through the bound."""
    bound = Fraction(order)
    for s, name in ((a, "left"), (b, "right")):
        if s.trunc_exponent() < bound:
            raise InsufficientTruncation(
                f"{name} series determined only to {s.trunc_exponent()}, need {bound}",
                required=bound,
            )
    e = (a - b).min_nonzero_exponent()
    if e is None or e > bound:
        return Comparison(True)
    return Comparison(False, e, a.coefficient(e), b.coefficient(e))


# -- qexp v1 text format ------------------------------------------------------

def emit_qexp(series: PuiseuxSeries, label: str) -> str:
    lines = [
        "# qexp v1",
        f"label: {label}",
        f"conductor: {series.conductor}",
        f"denom: {series.denom}",
        f"lo: {series.lo}",
        f"trunc: {series.trunc}",
    ]
    phi, den = euler_phi(series._basis), series._den
    for i in range(len(series._vec) // phi):
        block = series._vec[i * phi:(i + 1) * phi]
        if any(block):
            # literals are read against the declared conductor, so blocks on
            # a smaller basis are rewritten on the declared one
            block = _promote(block, series._basis, series.conductor)
            entries = block if den == 1 else [Fraction(v, den) for v in block]
            lines.append(f"{series.lo + i} {format_literal(entries)}")
    return "\n".join(lines) + "\n"


def parse_qexp(text: str) -> tuple[PuiseuxSeries, str]:
    lines, headers = _read_header(text, "# qexp v1",
                                  ("label", "conductor", "denom", "lo", "trunc"))
    label, conductor, denom, lo, trunc = headers.values()
    coeffs: dict[int, object] = {}
    last = None
    for idx, line in enumerate(lines[6:], start=7):
        if not line.strip():
            raise ParseError("blank line in coefficient block", line=idx)
        parts = line.split(" ", 1)
        if len(parts) != 2:
            raise ParseError("expected '<numerator> <coefficient>'", line=idx)
        try:
            n = int(parts[0])
        except ValueError as exc:
            raise ParseError(f"bad exponent numerator {parts[0]!r}", line=idx) from exc
        if last is not None and n <= last:
            if n == last:
                raise ParseError(f"duplicate exponent {n}", line=idx)
            raise ParseError("coefficient lines out of order", line=idx)
        last = n
        if not lo <= n <= trunc:
            raise ParseError(f"exponent {n} outside [{lo}, {trunc}]", line=idx)
        literal = parts[1].strip()
        if literal and "z" not in literal:
            coeff = parse_rational(literal)
        else:
            coeff = parse_cyclotomic(parts[1], conductor)
        if not coeff:
            raise ParseError("explicit zero coefficient is not canonical", line=idx)
        coeffs[n] = coeff
    try:
        series = PuiseuxSeries(conductor, denom, lo, trunc, coeffs)
    except ValueError as exc:
        raise ParseError(str(exc)) from exc
    return series, label
