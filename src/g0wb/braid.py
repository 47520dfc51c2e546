"""Words in the two-generator braid group, their degree and projection to
SL2(Z), the multiplier character, the integral extended group of pairs
(matrix, n) under Rademacher's cocycle, and the quilt action on G x G.

Conventions fixed here:

  * the projection sends the first generator to ((1,1),(0,1)) and the
    second to ((1,0),(-1,1));
  * sigma_class encodes the four boundary cases (c = 0 and a > 0; c < 0;
    c = 0 and a < 0; c > 0) as 0, 1, 2, 3, and every extended element
    carries n with n = sigma_class (mod 4);
  * (A, m)(B, n) = (AB, m + n + sign(c_A c_B c_AB)), Rademacher's cocycle
    (Rademacher-Grosswald 1972; Kirby-Melvin 1994), and generator powers
    lift in closed form: s1^e to (T^e, 0) and s2^e to (L^e, sign e)."""

from __future__ import annotations

import cmath
import math
import re
from dataclasses import dataclass, field
from fractions import Fraction
from operator import itemgetter
from typing import Iterable, Sequence

from .errors import ParseError, RequiresPositiveC
from .exactnum import CyclotomicNumber, _square_and_multiply, format_rational, parse_rational
from .matrices import IntMatrix

# Fixed by the numeric multiplier-law selection: of the two candidate
# constants 1/2 and 1/4 in the closed eta-multiplier formula, only 1/4
# satisfies the weight-1/2 transformation law numerically.
DEFAULT_ETA_KAPPA = Fraction(1, 4)

_TOKEN_RE = re.compile(r"^s([12])(?:\^(-?\d+))?$")


@dataclass(frozen=True)
class BraidWord:
    """Word in the two braid generators, stored freely reduced: adjacent
    letters use distinct generators and no exponent is zero."""

    letters: tuple[tuple[int, int], ...]

    @staticmethod
    def from_letters(letters: Iterable[tuple[int, int]]) -> BraidWord:
        reduced: list[tuple[int, int]] = []
        for gen, exp in letters:
            if gen not in (1, 2):
                raise ValueError(f"generator index {gen} not in {{1, 2}}")
            if exp == 0:
                continue
            if reduced and reduced[-1][0] == gen:
                merged = reduced[-1][1] + exp
                reduced.pop()
                if merged:
                    reduced.append((gen, merged))
            else:
                reduced.append((gen, exp))
        return BraidWord(tuple(reduced))

    @staticmethod
    def parse(text: str) -> BraidWord:
        """Whitespace-separated tokens ``s1``, ``s2``, ``s1^-3``, ``s2^2``.

        >>> BraidWord.parse("s1 s2^-3 s1^2").letters
        ((1, 1), (2, -3), (1, 2))
        >>> BraidWord.parse("s1 s1^-1").letters
        ()
        """
        letters = []
        for token in text.split():
            m = _TOKEN_RE.match(token)
            if not m:
                raise ParseError(f"bad braid token {token!r}")
            letters.append((int(m.group(1)), parse_rational(m.group(2) or "1")))
        return BraidWord.from_letters(letters)

    @staticmethod
    def identity() -> BraidWord:
        return BraidWord(())

    def __mul__(self, other: BraidWord) -> BraidWord:
        return BraidWord.from_letters(self.letters + other.letters)

    def inverse(self) -> BraidWord:
        return BraidWord(tuple((g, -e) for g, e in reversed(self.letters)))

    def __pow__(self, n: int) -> BraidWord:
        return _square_and_multiply(self if n >= 0 else self.inverse(), abs(n),
                                    BraidWord.identity(), BraidWord.__mul__)

    def __str__(self) -> str:
        if not self.letters:
            return "<empty>"
        return " ".join(f"s{g}" if e == 1 else f"s{g}^{format_rational(e)}"
                        for g, e in self.letters)


def degree(word: BraidWord) -> int:
    """Exponent sum; the homomorphism onto the integers."""
    return sum(e for _, e in word.letters)


def burau(word: BraidWord) -> IntMatrix:
    """Projection to SL2(Z): the matrix of the word's lift."""
    return lift_braid(word).matrix


def braid_multiplier(word: BraidWord) -> CyclotomicNumber:
    """The degree character evaluated at the primitive 24th root of unity."""
    return CyclotomicNumber.root_of_unity(24, degree(word) % 24)


def sigma_class(mat: IntMatrix) -> int:
    """Branch index of a unimodular matrix: 0, 1, 2, 3 according to
    c = 0 and a > 0; c < 0; c = 0 and a < 0; c > 0."""
    mat.require_unimodular()
    if mat.c == 0:
        return 0 if mat.a > 0 else 2
    return 1 if mat.c < 0 else 3


@dataclass(frozen=True)
class ExtendedElement:
    """Integral point (matrix, n) of the extended group; n tracks the branch
    winding and satisfies n = sigma_class(matrix) (mod 4)."""

    matrix: IntMatrix
    n: int

    def __post_init__(self):
        if self.n % 4 != sigma_class(self.matrix):
            raise ValueError(
                f"n = {self.n} incompatible with class {sigma_class(self.matrix)} "
                f"of {self.matrix}")


def _sign(x: int) -> int:
    return (x > 0) - (x < 0)


def extended_mul(x: ExtendedElement, y: ExtendedElement) -> ExtendedElement:
    """(A, m)(B, n) = (AB, m + n + tau) with tau = sign(c_A c_B c_AB),
    Rademacher's cocycle on the lower-left entries."""
    product = x.matrix * y.matrix
    return ExtendedElement(product, x.n + y.n + _sign(x.matrix.c * y.matrix.c * product.c))


def lift_braid(word: BraidWord) -> ExtendedElement:
    """Lift of a braid word: each letter's closed-form pair, composed left
    to right on five integers (a, b, c, d, n).  s1^e adds e (a, c) to (b, d),
    its cocycle 0 as c_T = 0; s2^e takes e (b, d) from (a, c) and adds
    sign e + sign(-e c c') to n, c' the new c.  The invariant is checked once."""
    a, b, c, d, n = 1, 0, 0, 1, 0
    for gen, e in word.letters:
        if gen == 1:
            b += e * a
            d += e * c
        else:
            a, c, c_was = a - e * b, c - e * d, c
            n += _sign(e) + _sign(-e * c_was * c)
    return ExtendedElement(IntMatrix(a, b, c, d), n)


# -- eta multiplier in closed form -------------------------------------------

def dedekind_sum(d: int, c: int) -> Fraction:
    """s(d, c) = sum_{i=1}^{c-1} (i/c) * (d*i/c - floor(d*i/c) - 1/2), exactly,
    for c >= 1 and gcd(d, c) = 1.

    Computed in O(log c) steps by the reciprocity law
    s(d, c) + s(c, d) = (d/c + c/d + 1/(d*c))/12 - 1/4 on (d mod c, c),
    descending like Euclid's algorithm to s(0, 1) = 0.

    >>> c = 10**30
    >>> dedekind_sum(1, c) == Fraction((c - 1) * (c - 2), 12 * c)
    True
    """
    if c < 1 or math.gcd(d, c) != 1:
        raise ValueError(f"Dedekind sum s({d}, {c}) needs c >= 1 and gcd(d, c) = 1")
    total = Fraction(0)
    sign = 1
    d %= c
    while c > 1:
        # the answer is total + sign * s(d, c), with 0 < d < c coprime
        total += sign * (Fraction(d * d + c * c + 1, 12 * d * c) - Fraction(1, 4))
        sign = -sign
        d, c = c % d, d
    return total


def eta_multiplier_phase(mat: IntMatrix, kappa: Fraction = DEFAULT_ETA_KAPPA) -> Fraction:
    """The rational r with multiplier exp(pi*i*r), reduced mod 2.

    Only defined for lower-left entry c > 0; ``kappa`` is the additive
    constant of the closed formula (1/4 passes the numeric law; the often
    quoted 1/2 does not)."""
    mat.require_unimodular()
    if mat.c <= 0:
        raise RequiresPositiveC("closed multiplier formula needs c > 0")
    r = (Fraction(mat.a + mat.d, 12 * mat.c) - Fraction(kappa)
         - dedekind_sum(mat.d, mat.c))
    return r % 2


def eta_multiplier_matrix(mat: IntMatrix, kappa: Fraction = DEFAULT_ETA_KAPPA) -> complex:
    """Unit-modulus multiplier exp(pi*i*((a+d)/12c - kappa - s(d, c)))."""
    return cmath.exp(1j * cmath.pi * float(eta_multiplier_phase(mat, kappa)))


# -- finite group tables and the quilt action ---------------------------------

@dataclass(frozen=True)
class GroupTable:
    """Finite group as a Cayley table.

    ``labels`` fixes the element order with the identity first; ``mul``
    holds index products mul[i][j] = index of (element i) * (element j).
    The constructor checks the table is a group (identity, inverses,
    associativity), so anything downstream may trust it, and stores the
    inverse of every element in ``inverses``.

    Associativity is Light's test (Clifford-Preston 1961) over a greedy
    generating set: (x a) y == x (a y) for each generator a and all x, y.
    The elements a passing it are closed under products, so passing for a
    generating set means passing for every element.  In a group each
    greedy generator at least doubles the reached subgroup, so a group of
    order n needs at most log2(n) of them and the check costs O(n^2 log n)
    rather than the O(n^3) of the triple loop; a table that is not a group
    costs at most O(n^3).
    """

    labels: tuple[str, ...]
    mul: tuple[tuple[int, ...], ...]
    inverses: tuple[int, ...] = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        n = len(self.labels)
        mul = self.mul
        if len(set(self.labels)) != n:
            raise ValueError("duplicate element labels")
        if len(mul) != n or any(len(row) != n for row in mul):
            raise ValueError("multiplication table is not square")
        for i in range(n):
            if mul[0][i] != i or mul[i][0] != i:
                raise ValueError("element 0 is not a two-sided identity")
        inverses = []
        for i, row in enumerate(mul):
            if 0 not in row:
                raise ValueError(f"element {self.labels[i]} has no inverse")
            inverses.append(row.index(0))
        if set().union(*mul).difference(range(n)):
            raise ValueError("multiplication table entry out of range")
        for a in _greedy_generators(mul):
            # (x a) y, a row of the table, against x (a y), read through a's row
            through_a = itemgetter(*mul[a])
            for row_x in mul:
                if mul[row_x[a]] != through_a(row_x):
                    raise ValueError("multiplication table is not associative")
        object.__setattr__(self, "inverses", tuple(inverses))

    @property
    def order(self) -> int:
        return len(self.labels)

    def index(self, label: str) -> int:
        try:
            return self.labels.index(label)
        except ValueError as exc:
            raise KeyError(f"no element labelled {label!r}") from exc

    def product(self, i: int, j: int) -> int:
        return self.mul[i][j]

    def inverse(self, i: int) -> int:
        return self.inverses[i]


def _greedy_generators(mul):
    """Generators of a table with identity 0: each is the lowest index
    outside the closure of {0} under right multiplication by those before
    it.  Each is yielded before the next closure is built: while all pass
    Light's test the closure is a subgroup, so it at least doubles each time."""
    gens: list[int] = []
    reached = {0}
    for g in range(1, len(mul)):
        if g in reached:
            continue
        gens.append(g)
        yield g
        reached, todo = {0}, [0]
        while todo:
            row = mul[todo.pop()]
            for y in (row[a] for a in gens):
                if y not in reached:
                    reached.add(y)
                    todo.append(y)


def group_from_elements(elements: Sequence, compose, label_of) -> GroupTable:
    """Tabulate a group given abstract elements with element 0 the identity."""
    index = {e: i for i, e in enumerate(elements)}
    mul = tuple(
        tuple(index[compose(a, b)] for b in elements) for a in elements
    )
    return GroupTable(tuple(label_of(e) for e in elements), mul)


def cyclic_group(n: int) -> GroupTable:
    return group_from_elements(
        list(range(n)), lambda a, b: (a + b) % n,
        lambda k: "e" if k == 0 else f"g{k}" if k > 1 else "g")


def symmetric_group_3() -> GroupTable:
    perms = [(0, 1, 2), (1, 0, 2), (2, 1, 0), (0, 2, 1), (1, 2, 0), (2, 0, 1)]
    names = {(0, 1, 2): "e", (1, 0, 2): "(12)", (2, 1, 0): "(13)",
             (0, 2, 1): "(23)", (1, 2, 0): "(123)", (2, 0, 1): "(132)"}

    def compose(p, q):  # p after q
        return tuple(p[q[i]] for i in range(3))

    return group_from_elements(perms, compose, names.__getitem__)


def dihedral_group(n: int) -> GroupTable:
    """Dihedral group of order 2n: pairs (rotation, flip)."""
    elements = [(r, s) for s in (0, 1) for r in range(n)]

    def compose(x, y):
        r1, s1 = x
        r2, s2 = y
        return ((r1 + (r2 if s1 == 0 else -r2)) % n, s1 ^ s2)

    def label(e):
        r, s = e
        if s == 0:
            return "e" if r == 0 else f"r{r}"
        return "f" if r == 0 else f"r{r}f"

    return group_from_elements(elements, compose, label)


def parse_group_table(text: str) -> GroupTable:
    """Text Cayley table: ``order: n`` then n rows of n labels; the first
    row must be the identity row (it defines the element order).  A label
    may not contain ',', which separates the two elements of a quilt pair."""
    lines = [ln for ln in text.split("\n") if ln.strip()]
    if not lines or not lines[0].startswith("order:"):
        raise ParseError("missing 'order: n' header", line=1)
    try:
        n = int(lines[0][len("order:"):].strip())
    except ValueError as exc:
        raise ParseError("bad order header") from exc
    if n < 1:
        raise ParseError(f"order {n} is not positive", line=1)
    if len(lines) != n + 1:
        raise ParseError(f"expected {n} table rows, found {len(lines) - 1}")
    rows = [ln.split() for ln in lines[1:]]
    for i, row in enumerate(rows):
        if len(row) != n:
            raise ParseError(f"row has {len(row)} entries, expected {n}", line=i + 2)
    labels = tuple(rows[0])
    if any("," in lab for lab in labels):
        raise ParseError("a label contains ',', which separates the elements of a pair", line=2)
    index = {lab: i for i, lab in enumerate(labels)}
    if len(index) != n:
        raise ParseError("identity row does not list distinct elements", line=2)
    try:
        mul = tuple(tuple(map(index.__getitem__, row)) for row in rows)
    except KeyError as exc:
        raise ParseError(f"unknown label {exc.args[0]!r} in table") from exc
    try:
        return GroupTable(labels, mul)
    except ValueError as exc:
        raise ParseError(f"not a group table: {exc}") from exc


def emit_group_table(table: GroupTable) -> str:
    lines = [f"order: {table.order}"]
    for i in range(table.order):
        lines.append(" ".join(table.labels[table.mul[i][j]] for j in range(table.order)))
    return "\n".join(lines) + "\n"


def quilt_step(pair: tuple[int, int], generator: str, table: GroupTable) -> tuple[int, int]:
    """One step of the right action on G x G:

        (g, h).s1 = (g, g h)        (g, h).s2 = (g h^-1, h)

    with the inverse generators inverting those bijections."""
    g, h = pair
    if generator == "s1":
        return (g, table.product(g, h))
    if generator == "s2":
        return (table.product(g, table.inverse(h)), h)
    if generator == "s1^-1":
        return (g, table.product(table.inverse(g), h))
    if generator == "s2^-1":
        return (table.product(g, h), h)
    raise ValueError(f"unknown quilt generator {generator!r}")


def quilt_orbit(pair: tuple[int, int], table: GroupTable) -> frozenset[tuple[int, int]]:
    """Closure of a pair under both generators and their inverses, in work
    proportional to the orbit (see ``_close``)."""
    n = table.order
    g, h = pair
    if not (0 <= g < n and 0 <= h < n):
        raise ValueError(f"pair {pair} is not a pair of element indices below {n}")
    return frozenset(divmod(code, n) for code in _close(g * n + h, table, bytearray(n * n)))


def _close(code: int, table: GroupTable, marks: bytearray) -> list[int]:
    """The codes g n + h of the orbit of the pair with code ``code``.  An
    inverse generator is a power of its generator on a finite set, so the
    closure under s1 and s2 is the orbit: each s1-cycle (g, g^k h) is walked
    whole, with one s2 step per pair.  ``marks`` holds 1 for a pair found
    and 2 once its cycle is walked; only the orbit's codes change."""
    mul, inv, n = table.mul, table.inverses, table.order
    marks[code] = 1
    out, todo = [], [code]
    while todo:
        g, h = divmod(todo.pop(), n)
        base = g * n
        if marks[base + h] == 2:
            continue
        row, k = mul[g], h
        while True:
            marks[base + k] = 2
            out.append(base + k)
            found = row[inv[k]] * n + k  # (g k^-1, k) = (g, k).s2
            if not marks[found]:
                marks[found] = 1
                todo.append(found)
            k = row[k]  # (g, g k) = (g, k).s1
            if k == h:
                break
    return out


def quilt_orbits(table: GroupTable) -> list[frozenset[tuple[int, int]]]:
    """All orbits, a partition of G x G, each opened at the smallest pair
    (g, h) outside the orbits before it; O(n^2) in all."""
    marks = bytearray(table.order ** 2)
    orbits = []
    code = marks.find(0)
    while code >= 0:
        orbits.append(frozenset(divmod(c, table.order) for c in _close(code, table, marks)))
        code = marks.find(0, code + 1)
    return orbits
