"""Exact truncated Puiseux/Laurent series in q with cyclotomic coefficients.

A series is a finite map from exponent numerators to coefficients, together
with the denominator D of the exponent grid (exponents are n/D), a lower
bound ``lo`` below which all coefficients are known to vanish, and an upper
bound ``trunc`` through which coefficients are determined.  Truncation is
tracked pessimistically by every operation: the result's ``trunc`` is the
tightest exponent bound to which the result is fully determined by the
inputs, never what the caller hopes for.

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

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping

from .errors import InsufficientTruncation, NonIntegralInput, ParseError
from .exactnum import CyclotomicNumber, check_conductor, parse_cyclotomic

Coeff = CyclotomicNumber


def _coerce_coeff(value) -> CyclotomicNumber:
    if isinstance(value, CyclotomicNumber):
        return value
    return CyclotomicNumber.from_rational(value)


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
    """

    __slots__ = ("conductor", "denom", "lo", "trunc", "coeffs")

    def __init__(self, conductor: int, denom: int, lo: int, trunc: int,
                 coeffs: Mapping[int, Coeff]):
        if denom < 1:
            raise ValueError("denominator must be >= 1")
        if conductor < 1:
            raise ValueError("conductor must be >= 1")
        if lo > trunc:
            raise ValueError(f"lo {lo} exceeds trunc {trunc}")
        clean = {n: _coerce_coeff(c) for n, c in coeffs.items()
                 if not _coerce_coeff(c).is_zero()}
        for n, c in clean.items():
            if n < lo or n > trunc:
                raise ValueError(f"exponent numerator {n} outside [{lo}, {trunc}]")
            if conductor % c.conductor != 0:
                raise ValueError(
                    f"coefficient at {n} lives in conductor {c.conductor}, "
                    f"outside the declared field Q[xi_{conductor}]")
        # reduce the exponent grid: gcd of denominator and every numerator
        g = denom
        for n in clean:
            g = math.gcd(g, n)
            if g == 1:
                break
        if g > 1:
            clean = {n // g: c for n, c in clean.items()}
            lo = -((-lo) // g)   # ceil for the lower bound
            trunc = trunc // g   # floor for the upper bound
            denom //= g
        if clean:
            lo = min(clean)
        else:
            lo = trunc
        object.__setattr__(self, "conductor", conductor)
        object.__setattr__(self, "denom", denom)
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "trunc", trunc)
        object.__setattr__(self, "coeffs", clean)

    def __setattr__(self, name, value):
        raise AttributeError("PuiseuxSeries is immutable")

    # -- constructors ------------------------------------------------------

    @staticmethod
    def make(coeffs: Mapping[int, object], trunc: int, denom: int = 1,
             conductor: int = 1, lo: int | None = None) -> PuiseuxSeries:
        """Series from an exponent-numerator -> coefficient mapping."""
        cmap = {n: _coerce_coeff(c) for n, c in coeffs.items()}
        low = min(cmap) if cmap else trunc
        if lo is not None:
            low = min(low, lo)
        low = min(low, trunc)
        return PuiseuxSeries(conductor, denom, low, trunc, cmap)

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
        coeffs: dict[int, object] = {-1: 1}
        n = 0
        for n_minus_1, c in enumerate(tail):
            n = n_minus_1 + 1
            coeffs[n] = c
        if trunc is None:
            trunc = n
        return PuiseuxSeries.make(coeffs, trunc=trunc, conductor=conductor)

    # -- inspection ---------------------------------------------------------

    def exponent(self, numerator: int) -> Fraction:
        return Fraction(numerator, self.denom)

    def trunc_exponent(self) -> Fraction:
        """Largest exponent (as a rational) through which coefficients are
        determined."""
        return Fraction(self.trunc, self.denom)

    def lo_exponent(self) -> Fraction:
        return Fraction(self.lo, self.denom)

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
        scaled = e * self.denom
        if scaled.denominator != 1:
            return CyclotomicNumber.zero()
        return self.coeffs.get(int(scaled), CyclotomicNumber.zero())

    def nonzero_items(self) -> list[tuple[int, Coeff]]:
        return sorted(self.coeffs.items())

    def is_zero(self) -> bool:
        return not self.coeffs

    def min_nonzero_exponent(self) -> Fraction | None:
        if not self.coeffs:
            return None
        return Fraction(min(self.coeffs), self.denom)

    def pole_order(self) -> int:
        """Order of the pole at q = 0 (0 for a series with no negative terms)."""
        e = self.min_nonzero_exponent()
        if e is None or e >= 0:
            return 0
        return int(math.ceil(-e))

    def has_integral_exponents(self) -> bool:
        return self.denom == 1

    def is_moonshine_shape(self) -> bool:
        """Integral exponents, leading term exactly q^-1, zero constant term."""
        if self.denom != 1 or self.lo != -1 or self.trunc < 0:
            return False
        if self.coeffs.get(-1) != CyclotomicNumber.one():
            return False
        return 0 not in self.coeffs

    # -- canonical-form equality (declared conductor excluded) --------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, PuiseuxSeries):
            return NotImplemented
        if (self.denom, self.lo, self.trunc) != (other.denom, other.lo, other.trunc):
            return False
        if set(self.coeffs) != set(other.coeffs):
            return False
        return all(self.coeffs[n] == other.coeffs[n] for n in self.coeffs)

    __hash__ = None

    def __repr__(self) -> str:
        terms = []
        for n, c in self.nonzero_items()[:6]:
            e = Fraction(n, self.denom)
            lit = c.literal()
            if "+" in lit[1:] or "-" in lit[1:] or "z" in lit:
                lit = f"({lit})"
            terms.append(f"{lit}*q^({e})" if e != 0 else lit)
        if len(self.coeffs) > 6:
            terms.append("...")
        body = " + ".join(terms) if terms else "0"
        return f"<series {body} | O(q^({self.trunc_exponent()}))>"

    # -- promotion ----------------------------------------------------------

    def _scaled(self, denom: int) -> tuple[dict[int, Coeff], int, int]:
        """Coefficients, lo and trunc renumbered onto a finer grid.

        Raw data, bypassing canonical reduction: the caller is aligning two
        series for an operation and the constructor of the result will
        re-canonicalize.
        """
        if denom % self.denom != 0:
            raise ValueError(f"cannot refine grid 1/{self.denom} to 1/{denom}")
        f = denom // self.denom
        if f == 1:
            return dict(self.coeffs), self.lo, self.trunc
        return ({n * f: c for n, c in self.coeffs.items()},
                self.lo * f, self.trunc * f)

    def with_conductor(self, conductor: int) -> PuiseuxSeries:
        """Re-declare the ambient coefficient field (must contain the old one)."""
        if conductor % self.conductor != 0:
            raise ValueError(f"conductor {conductor} does not contain {self.conductor}")
        if conductor == self.conductor:
            return self
        return PuiseuxSeries(conductor, self.denom, self.lo, self.trunc, self.coeffs)

    def truncate(self, exponent) -> PuiseuxSeries:
        """Forget everything above the given exponent bound."""
        e = Fraction(exponent)
        if e > self.trunc_exponent():
            raise ValueError("truncate cannot extend the determined range")
        bound = math.floor(e * self.denom)
        kept = {n: c for n, c in self.coeffs.items() if n <= bound}
        return PuiseuxSeries(self.conductor, self.denom, min(self.lo, bound), bound, kept)

    def shift(self, by) -> PuiseuxSeries:
        """The series times q^by, by renumbering: lo, trunc and every
        exponent move by ``by`` (an int or Fraction), on the series' grid
        refined to contain ``by``.  Equal to multiplication by the exactly
        known monomial q^by, without multiplying anything."""
        by = Fraction(by)
        d = math.lcm(self.denom, by.denominator)
        coeffs, lo, trunc = self._scaled(d)
        s = by.numerator * (d // by.denominator)
        return PuiseuxSeries(self.conductor, d, lo + s, trunc + s,
                             {n + s: c for n, c in coeffs.items()})

    def map_coefficients(self, fn) -> PuiseuxSeries:
        """Apply an exact map to every coefficient (e.g. a Galois twist)."""
        return PuiseuxSeries(self.conductor, self.denom, self.lo, self.trunc,
                             {n: fn(c) for n, c in self.coeffs.items()})

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other) -> PuiseuxSeries:
        other = _coerce_series(other, like=self)
        d = math.lcm(self.denom, other.denom)
        out, lo_a, trunc_a = self._scaled(d)
        bmap, lo_b, trunc_b = other._scaled(d)
        for n, c in bmap.items():
            if n in out:
                out[n] = out[n] + c
            else:
                out[n] = c
        trunc = min(trunc_a, trunc_b)
        out = {n: c for n, c in out.items() if n <= trunc}
        return PuiseuxSeries(math.lcm(self.conductor, other.conductor), d,
                             min(lo_a, lo_b, trunc), trunc, out)

    __radd__ = __add__

    def __neg__(self) -> PuiseuxSeries:
        return PuiseuxSeries(self.conductor, self.denom, self.lo, self.trunc,
                             {n: -c for n, c in self.coeffs.items()})

    def __sub__(self, other) -> PuiseuxSeries:
        return self + (-_coerce_series(other, like=self))

    def __rsub__(self, other) -> PuiseuxSeries:
        return _coerce_series(other, like=self) + (-self)

    def scale(self, factor) -> PuiseuxSeries:
        factor = _coerce_coeff(factor)
        if factor.is_zero():
            return PuiseuxSeries.zero(self.trunc, self.denom, self.conductor)
        return PuiseuxSeries(math.lcm(self.conductor, factor.conductor), self.denom,
                             self.lo, self.trunc,
                             {n: c * factor for n, c in self.coeffs.items()})

    def __mul__(self, other) -> PuiseuxSeries:
        if isinstance(other, (int, Fraction, CyclotomicNumber)):
            return self.scale(other)
        d = math.lcm(self.denom, other.denom)
        amap, lo_a, trunc_a = self._scaled(d)
        bmap, lo_b, trunc_b = other._scaled(d)
        elo_a = min(amap) if amap else trunc_a + 1
        elo_b = min(bmap) if bmap else trunc_b + 1
        trunc = min(trunc_a + elo_b, trunc_b + elo_a)
        out = _convolve(amap, bmap, trunc)
        return PuiseuxSeries(math.lcm(self.conductor, other.conductor), d,
                             min(elo_a + elo_b, trunc), trunc, out)

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> PuiseuxSeries:
        if exponent < 0:
            raise ValueError("negative series powers are not supported")
        if exponent == 0:
            # the empty product is known wherever the base is
            return PuiseuxSeries.make({0: 1}, trunc=max(self.trunc, 0),
                                      denom=self.denom, conductor=self.conductor)
        result = self
        for _ in range(exponent - 1):
            result = result * self
        return result


def _coerce_series(value, like: PuiseuxSeries) -> PuiseuxSeries:
    if isinstance(value, PuiseuxSeries):
        return value
    if isinstance(value, (int, Fraction, CyclotomicNumber)):
        return PuiseuxSeries.make({0: value}, trunc=like.trunc, denom=like.denom,
                                  conductor=like.conductor)
    raise TypeError(f"cannot interpret {value!r} as a series")


def _convolve(a: Mapping[int, Coeff], b: Mapping[int, Coeff], bound: int) -> dict[int, Coeff]:
    """Sparse convolution keeping exponents <= bound.  Integer and rational
    coefficient maps take fast paths; mixed cyclotomic data falls back to
    generic exact arithmetic."""
    ra = _raw_rational(a)
    rb = _raw_rational(b)
    if ra is not None and rb is not None:
        out: dict[int, Fraction] = {}
        for u, x in ra.items():
            for v, y in rb.items():
                k = u + v
                if k > bound:
                    continue
                if k in out:
                    out[k] += x * y
                else:
                    out[k] = x * y
        return {n: CyclotomicNumber.from_rational(c) for n, c in out.items() if c != 0}
    outc: dict[int, Coeff] = {}
    for u, x in a.items():
        for v, y in b.items():
            k = u + v
            if k > bound:
                continue
            if k in outc:
                outc[k] = outc[k] + x * y
            else:
                outc[k] = x * y
    return {n: c for n, c in outc.items() if not c.is_zero()}


def _raw_rational(coeffs: Mapping[int, Coeff]):
    """Unwrap to plain int/Fraction values when every coefficient is
    rational; ints stay ints so the convolution runs on machine arithmetic
    whenever it can."""
    out: dict[int, object] = {}
    for n, c in coeffs.items():
        if c.conductor != 1:
            if not c.is_rational():
                return None
            value = c.rational_value()
        else:
            value = c.coeffs[0]
        out[n] = value.numerator if value.denominator == 1 else value
    return out


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
    new_denom = d * d // g
    stretch = m // g
    conductor = math.lcm(h.conductor, d)
    out: dict[int, Coeff] = {}
    for n, c in h.coeffs.items():
        root = CyclotomicNumber.root_of_unity(d, (k * n) % d)
        out[n * stretch] = c * root
    return PuiseuxSeries(conductor, new_denom, h.lo * stretch, h.trunc * stretch, out)


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
    d = math.lcm(a.denom, b.denom)
    amap, _, _ = a._scaled(d)
    bmap, _, _ = b._scaled(d)
    top = math.floor(bound * d)
    for n in sorted(set(amap) | set(bmap)):
        if n > top:
            break
        ca = amap.get(n, CyclotomicNumber.zero())
        cb = bmap.get(n, CyclotomicNumber.zero())
        if ca != cb:
            return Comparison(False, Fraction(n, d), ca, cb)
    return Comparison(True)


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
    for n, c in series.nonzero_items():
        # literals are read against the declared conductor, so coefficients
        # carried on a smaller basis must be rewritten on the declared one
        lines.append(f"{n} {c.promote(series.conductor).literal()}")
    return "\n".join(lines) + "\n"


def parse_qexp(text: str) -> tuple[PuiseuxSeries, str]:
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    if not lines or lines[0] != "# qexp v1":
        raise ParseError("missing '# qexp v1' magic line", line=1)
    headers = {}
    order = ["label", "conductor", "denom", "lo", "trunc"]
    if len(lines) < 6:
        raise ParseError("truncated header", line=len(lines))
    for i, key in enumerate(order, start=1):
        prefix = key + ":"
        if not lines[i].startswith(prefix):
            raise ParseError(f"expected '{key}:' header", line=i + 1)
        headers[key] = lines[i][len(prefix):].strip()
    label = headers["label"]
    try:
        conductor = int(headers["conductor"])
        denom = int(headers["denom"])
        lo = int(headers["lo"])
        trunc = int(headers["trunc"])
    except ValueError as exc:
        raise ParseError(f"bad header value: {exc}") from exc
    check_conductor(conductor, line=3)
    coeffs: dict[int, Coeff] = {}
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
        coeff = parse_cyclotomic(parts[1], conductor)
        if coeff.is_zero():
            raise ParseError("explicit zero coefficient is not canonical", line=idx)
        coeffs[n] = coeff
    try:
        series = PuiseuxSeries(conductor, denom, lo, trunc, coeffs)
    except ValueError as exc:
        raise ParseError(str(exc)) from exc
    return series, label


def format_exponent(e: Fraction) -> str:
    return str(e.numerator) if e.denominator == 1 else f"{e.numerator}/{e.denominator}"
