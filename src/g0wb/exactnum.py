"""Exact arithmetic in cyclotomic fields Q[xi_N].

Numbers are stored on the power basis 1, xi, ..., xi^(phi(N)-1) reduced
modulo the N-th cyclotomic polynomial, so equality is a plain coefficient
comparison.  Rationals are the conductor-1 case.  Mixed-conductor arithmetic
promotes both operands into the lcm conductor before combining.

The text form used in data files and CLI output writes a number as a
polynomial in ``z`` (the root of unity of the declared conductor) with
integer or rational coefficients, ascending powers, no whitespace:
``3+2z^5-z^7``.  An integer longer than Python's limit for decimal text
(sys.get_int_max_str_digits(), 4300 digits by default) is refused both ways:
the reader raises ParseError and the writer G0wbError.
"""

from __future__ import annotations

import functools
import math
import re
import sys
from fractions import Fraction
from itertools import repeat
from operator import add, mul, sub

from .errors import G0wbError, NotCoprime, ParseError, UsageError

BigRational = Fraction

_ZERO = Fraction(0)
_ONE = Fraction(1)


MAX_CONDUCTOR = 1000


def prime_divisors(n: int) -> list[int]:
    """The distinct primes dividing n, ascending, by trial division."""
    primes, p = [], 2
    while p * p <= n:
        if n % p == 0:
            primes.append(p)
            while n % p == 0:
                n //= p
        p += 1 if p == 2 else 2
    if n > 1:
        primes.append(n)
    return primes


@functools.lru_cache(maxsize=1024)
def euler_phi(n: int) -> int:
    """Euler's totient, by trial-division factorization."""
    if n < 1:
        raise ValueError("euler_phi needs n >= 1")
    result = n
    for p in prime_divisors(n):
        result -= result // p
    return result


def _read_header(text: str, magic: str, keys: tuple[str, ...]) -> tuple[list[str], dict]:
    """The lines of a qexp or mpoly file and its header values, one ``key:``
    line per key after the magic line; every value but ``label`` is an
    integer.  Conductor N costs an N x phi(N) reduction table (see
    _power_table), so a conductor outside 1..MAX_CONDUCTOR is refused."""
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    if not lines or lines[0] != magic:
        raise ParseError(f"missing '{magic}' magic line", line=1)
    headers: dict = {}
    for i, key in enumerate(keys, start=1):
        if i >= len(lines) or not lines[i].startswith(key + ":"):
            raise ParseError(f"expected '{key}:' header", line=i + 1)
        value = lines[i][len(key) + 1:].strip()
        try:
            headers[key] = value if key == "label" else int(value)
        except ValueError as exc:
            raise ParseError(f"bad integer in '{key}' header", line=i + 1) from exc
    if not 1 <= headers["conductor"] <= MAX_CONDUCTOR:
        raise ParseError(f"conductor {headers['conductor']} outside 1..{MAX_CONDUCTOR}",
                         line=keys.index("conductor") + 2)
    return lines, headers


def _poly_divmod(num, den) -> tuple[list, list]:
    """Quotient and remainder of dense ascending polynomials.  Integer
    polynomials stay integral when the divisor is monic."""
    num, lead = list(num), den[-1]
    q = [0] * max(len(num) - len(den) + 1, 0)
    for shift in range(len(num) - len(den), -1, -1):
        c = num[shift + len(den) - 1]
        q[shift] = c = c if lead == 1 else c / lead
        if c:
            for i, d in enumerate(den):
                num[shift + i] -= c * d
    return q, _trim(num[: len(den) - 1])


def _trim(p) -> list:
    """p as a list without its trailing zeros."""
    p = list(p)
    while p and not p[-1]:
        p.pop()
    return p


def _convolve(a: list, b: list, n: int) -> list:
    """Entries 0..n-1 of the product of two dense ascending polynomials.
    A sparse factor is scattered term by term; otherwise each entry is one
    dot product."""
    a, b = a[:n], b[:n]
    if a.count(0) * len(b) < b.count(0) * len(a):
        a, b = b, a
    la, lb = len(a), len(b)
    if 2 * a.count(0) > la:
        out = [0] * n
        for i, x in enumerate(a):
            if x:
                j = min(n, i + lb)
                out[i:j] = map(add, out[i:j], map(mul, b, repeat(x)))
        return out
    rb, out = b[::-1], []
    for k in range(min(n, la + lb - 1)):
        i0, i1 = max(0, k - lb + 1), min(k, la - 1)
        out.append(sum(map(mul, a[i0:i1 + 1], rb[lb - 1 - k + i0:lb - k + i1])))
    return out + [0] * (n - len(out))


def _square_and_multiply(base, n: int, identity, mul):
    """base^n for n >= 0 under an associative product."""
    out = identity
    while n:
        if n & 1:
            out = mul(out, base)
        n >>= 1
        if n:
            base = mul(base, base)
    return out


def _integral(entries) -> tuple[list[int], int]:
    """Rationals as integer numerators over their least common denominator."""
    den = math.lcm(*(e.denominator for e in entries))
    return [e.numerator * (den // e.denominator) for e in entries], den


def _promote(vec: list, basis: int, target: int, power: int = 1) -> list:
    """Flat blocks of power-basis coefficients for conductor ``basis``,
    rewritten on the conductor-``target`` basis (``basis`` divides
    ``target``) after xi -> xi^power.  ``power`` is prime to ``basis``
    (``galois`` checks it; every other caller passes 1), so the powers
    i * power * (target / basis) mod target of the basis entries are distinct."""
    if basis == target and power == 1 or not vec:
        return vec
    phi, raw = euler_phi(basis), [None] * target
    for i in range(phi):
        raw[i * power * (target // basis) % target] = vec[i::phi]
    return _fold(raw, euler_phi(target), target, len(vec) // phi)


def _fold(raw: list, phi: int, basis: int, n: int) -> list:
    """n flat blocks of sum_p raw[p] * xi^p on the conductor-``basis`` power
    basis; raw[p] is a column of n values (one per block) or None."""
    out, table = [0] * (n * phi), _power_table(basis)
    for p, column in enumerate(raw):
        if column is not None:
            for j, r in enumerate(table[p % basis]):
                if r:
                    out[j::phi] = map(add, out[j::phi], map(mul, column, repeat(r)))
    return out


@functools.lru_cache(maxsize=None)
def cyclotomic_polynomial(n: int) -> tuple[int, ...]:
    """The n-th cyclotomic polynomial, dense ascending integer coefficients.

    Computed as (x^n - 1) / prod_{d|n, d<n} Phi_d(x) by exact division.

    >>> cyclotomic_polynomial(1)
    (-1, 1)
    >>> cyclotomic_polynomial(4)
    (1, 0, 1)
    >>> cyclotomic_polynomial(12)
    (1, 0, -1, 0, 1)
    """
    if n < 1:
        raise ValueError("cyclotomic_polynomial needs n >= 1")
    poly: tuple[int, ...] = (-1,) + (0,) * (n - 1) + (1,)
    for d in range(1, n):
        if n % d == 0:
            poly, rem = _poly_divmod(poly, cyclotomic_polynomial(d))
            if rem:
                raise ArithmeticError("cyclotomic division left a remainder")
    return tuple(poly)


@functools.lru_cache(maxsize=None)
def _power_table(n: int) -> tuple[tuple[int, ...], ...]:
    """Reduction table: entry p is the basis vector of xi_n^p, 0 <= p < n.
    MAX_CONDUCTOR bounds its n x phi(n) cost wherever two fields meet."""
    if n > MAX_CONDUCTOR:
        raise UsageError(f"field Q[xi_{n}] exceeds the largest supported conductor "
                         f"{MAX_CONDUCTOR}")
    phi = euler_phi(n)
    modulus = cyclotomic_polynomial(n)
    rows: list[tuple[int, ...]] = []
    current = [0] * phi
    current[0] = 1
    for _ in range(n):
        rows.append(tuple(current))
        # multiply by x, then reduce the overflow term by x^phi = -(lower part)
        overflow = current[-1]
        current = [0] + current[:-1]
        if overflow:
            for i in range(phi):
                current[i] -= overflow * modulus[i]
    return tuple(rows)


class CyclotomicNumber:
    """An element of Q[xi_N] on the power basis modulo Phi_N.

    Instances are immutable; ``conductor`` is N and ``coeffs`` has length
    phi(N).  Conductor 1 is a plain rational.  Two numbers compare equal when
    their promotions into the lcm conductor have identical coefficient
    vectors.
    """

    __slots__ = ("conductor", "coeffs")

    def __init__(self, conductor: int, coeffs):
        if conductor < 1:
            raise ValueError("conductor must be >= 1")
        coeffs = tuple(Fraction(c) for c in coeffs)
        if len(coeffs) != euler_phi(conductor):
            raise ValueError(
                f"need phi({conductor}) = {euler_phi(conductor)} coefficients, got {len(coeffs)}"
            )
        object.__setattr__(self, "conductor", conductor)
        object.__setattr__(self, "coeffs", coeffs)

    def __setattr__(self, name, value):
        raise AttributeError("CyclotomicNumber is immutable")

    # -- constructors ------------------------------------------------------

    @staticmethod
    def from_rational(value) -> CyclotomicNumber:
        return CyclotomicNumber(1, (Fraction(value),))

    @staticmethod
    def zero() -> CyclotomicNumber:
        return CyclotomicNumber(1, (_ZERO,))

    @staticmethod
    def one() -> CyclotomicNumber:
        return CyclotomicNumber(1, (_ONE,))

    @staticmethod
    def root_of_unity(n: int, power: int = 1) -> CyclotomicNumber:
        """xi_n^power as a conductor-n number.

        >>> i = CyclotomicNumber.root_of_unity(4)
        >>> i * i == -1
        True
        >>> CyclotomicNumber.root_of_unity(24, 12).literal()
        '-1'
        """
        table = _power_table(n)
        return CyclotomicNumber(n, table[power % n])

    # -- structure ---------------------------------------------------------

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def is_rational(self) -> bool:
        return all(c == 0 for c in self.coeffs[1:])

    def rational_value(self) -> Fraction:
        if not self.is_rational():
            raise ValueError(f"{self} is not rational")
        return self.coeffs[0]

    def promote(self, conductor: int) -> CyclotomicNumber:
        """Embed into Q[xi_M] for a multiple M of the current conductor."""
        if conductor == self.conductor:
            return self
        if conductor % self.conductor != 0:
            raise ValueError(f"cannot embed conductor {self.conductor} into {conductor}")
        return CyclotomicNumber(conductor, _promote(self.coeffs, self.conductor, conductor))

    def _paired(self, other: CyclotomicNumber) -> tuple[CyclotomicNumber, CyclotomicNumber]:
        if self.conductor == other.conductor:
            return self, other
        n = math.lcm(self.conductor, other.conductor)
        return self.promote(n), other.promote(n)

    # -- ring operations ---------------------------------------------------

    def __add__(self, other) -> CyclotomicNumber:
        other = _coerce(other)
        if self.conductor == 1 and other.conductor == 1:
            return CyclotomicNumber(1, (self.coeffs[0] + other.coeffs[0],))
        a, b = self._paired(other)
        return CyclotomicNumber(a.conductor, tuple(x + y for x, y in zip(a.coeffs, b.coeffs)))

    __radd__ = __add__

    def __neg__(self) -> CyclotomicNumber:
        return CyclotomicNumber(self.conductor, tuple(-c for c in self.coeffs))

    def __sub__(self, other) -> CyclotomicNumber:
        return self + (-_coerce(other))

    def __rsub__(self, other) -> CyclotomicNumber:
        return _coerce(other) - self

    def __mul__(self, other) -> CyclotomicNumber:
        other = _coerce(other)
        if self.conductor == 1 and other.conductor == 1:
            return CyclotomicNumber(1, (self.coeffs[0] * other.coeffs[0],))
        a, b = self._paired(other)
        (av, ad), (bv, bd) = _integral(a.coeffs), _integral(b.coeffs)
        raw = _convolve(av, bv, 2 * len(av) - 1)
        return CyclotomicNumber(a.conductor, [Fraction(c, ad * bd) for c in
                                              _fold([[c] for c in raw], len(av), a.conductor, 1)])

    __rmul__ = __mul__

    def inverse(self) -> CyclotomicNumber:
        """Multiplicative inverse via the extended Euclidean algorithm
        against the cyclotomic polynomial."""
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero cyclotomic number")
        if self.conductor == 1:
            return CyclotomicNumber(1, (1 / self.coeffs[0],))
        modulus = tuple(Fraction(c) for c in cyclotomic_polynomial(self.conductor))
        g, s = _half_ext_gcd(self.coeffs, modulus)
        # Phi_N is irreducible over Q, so the gcd is a nonzero constant
        if len(g) != 1:
            raise ArithmeticError("gcd with the cyclotomic polynomial was not constant")
        inv = [c / g[0] for c in s]
        inv += [_ZERO] * (len(self.coeffs) - len(inv))
        return CyclotomicNumber(self.conductor, inv[: len(self.coeffs)])

    def __truediv__(self, other) -> CyclotomicNumber:
        return self * _coerce(other).inverse()

    def __rtruediv__(self, other) -> CyclotomicNumber:
        return _coerce(other) / self

    def __pow__(self, exponent: int) -> CyclotomicNumber:
        base = self if exponent >= 0 else self.inverse()
        return _square_and_multiply(base, abs(exponent), CyclotomicNumber.one(), mul)

    # -- Galois action -----------------------------------------------------

    def galois(self, m: int) -> CyclotomicNumber:
        """Apply sigma_m, the automorphism sending xi_N to xi_N^m.

        Requires gcd(m, N) = 1; fixes rationals.
        """
        n = self.conductor
        m %= n
        if math.gcd(m, n) != 1:
            raise NotCoprime(f"sigma_{m} is not defined on conductor {n}")
        if n == 1 or m == 1:
            return self
        return CyclotomicNumber(n, _promote(self.coeffs, n, n, m))

    # -- comparison / display ----------------------------------------------

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = CyclotomicNumber.from_rational(other)
        elif not isinstance(other, CyclotomicNumber):
            return NotImplemented
        a, b = self._paired(other)
        return a.coeffs == b.coeffs

    __hash__ = None  # canonical hashing across conductors is not worth the cost

    def __bool__(self) -> bool:
        return not self.is_zero()

    def __repr__(self) -> str:
        return f"CyclotomicNumber({self.conductor}, {self.literal()!r})"

    def __str__(self) -> str:
        return self.literal()

    def literal(self) -> str:
        """Canonical text form: ascending powers of z, no whitespace."""
        return format_literal(self.coeffs)


def _coerce(value) -> CyclotomicNumber:
    if isinstance(value, CyclotomicNumber):
        return value
    if isinstance(value, (int, Fraction)):
        return CyclotomicNumber.from_rational(value)
    raise TypeError(f"cannot interpret {value!r} as a cyclotomic number")


def galois_apply(m: int, a: CyclotomicNumber) -> CyclotomicNumber:
    """Module-level spelling of the sigma_m action."""
    return a.galois(m)


def _half_ext_gcd(a, modulus):
    """gcd(a, modulus) together with s such that s*a = gcd (mod modulus).

    Dense Fraction polynomials, ascending coefficients.
    """
    r0, r1 = _trim(a), _trim(modulus)
    s0, s1 = [_ONE], []
    while r1:
        q, r = _poly_divmod(r0, r1)
        r0, r1 = r1, r
        qs = _convolve(q, s1, len(q) + len(s1) - 1) if q and s1 else []
        s0, s1 = s1, _trim(map(sub, s0 + [0] * (len(qs) - len(s0)), qs + [0] * (len(s0) - len(qs))))
    return r0, s0


# -- literals ---------------------------------------------------------------

def format_rational(value: Fraction) -> str:
    if not isinstance(value, int):
        value = Fraction(value)
    try:
        if value.denominator == 1:
            return str(value.numerator)
        return f"{value.numerator}/{value.denominator}"
    except ValueError as exc:
        raise G0wbError(f"an integer exceeds the {sys.get_int_max_str_digits()}-digit "
                        "limit for decimal text") from exc


def _as_factor(lit: str) -> str:
    """A coefficient literal as a factor before a variable: in parentheses
    when it is a sum or holds z."""
    return f"({lit})" if "z" in lit or "+" in lit[1:] or "-" in lit[1:] else lit


def _format_terms(terms) -> str:
    """The text of a sum from (coefficient literal, variable power) pairs,
    the power empty for a constant term: a zero term is left out, a
    coefficient of 1 or -1 is dropped before its power, and each term after
    the first carries its own sign."""
    parts: list[str] = []
    for lit, power in terms:
        if lit == "0":
            continue
        if power:
            lit = lit[:-1] if lit in ("1", "-1") else _as_factor(lit)
        parts.append(("+" if parts and not lit.startswith("-") else "") + lit + power)
    return "".join(parts)


def format_literal(coeffs) -> str:
    """The literal of a number from its power-basis coefficients (ints or
    Fractions): ascending powers of z, no whitespace."""
    if not any(coeffs[1:]):
        return format_rational(coeffs[0])
    return _format_terms([(format_rational(c), f"z^{p}" if p > 1 else "z" * p)
                          for p, c in enumerate(coeffs) if c])


def parse_rational(text: str) -> Fraction | int:
    """An ``a/b`` literal as a Fraction, a signed run of digits as an int."""
    try:
        return int(text) if text.lstrip("+-").isdecimal() else Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"bad rational literal {text!r}") from exc


_TERM_RE = re.compile(
    r"^(?P<coef>\d+(?:/\d+)?)?(?P<z>z(?:\^(?P<pow>\d+))?)?$"
)


def parse_cyclotomic(text: str, conductor: int) -> CyclotomicNumber:
    """Parse a coefficient literal: integer, ``a/b``, or polynomial in z.

    The z powers are interpreted as xi_conductor; out-of-range powers reduce
    via the cyclotomic relation.
    """
    text = text.strip()
    if not text:
        raise ParseError("empty coefficient literal")
    if "z" not in text:
        return CyclotomicNumber.from_rational(parse_rational(text))
    raw = [_ZERO] * conductor
    pieces = re.split(r"(?=[+-])", text)
    for piece in pieces[1:] if text[0] in "+-" else pieces:
        sign, term = (-1 if piece[0] == "-" else 1, piece[1:]) if piece[0] in "+-" else (1, piece)
        m = _TERM_RE.match(term)
        if not m or (m.group("coef") is None and m.group("z") is None):
            raise ParseError(f"bad term {term!r} in cyclotomic literal {text!r}")
        coef = parse_rational(m.group("coef")) if m.group("coef") else _ONE
        power = parse_rational(m.group("pow") or "1") if m.group("z") else 0
        raw[power % conductor] += sign * coef
    return CyclotomicNumber(conductor, _fold([[c] if c else None for c in raw],
                                             euler_phi(conductor), conductor, 1))
