"""Small exact 2x2 integer matrices (arbitrary-precision entries)."""

from __future__ import annotations

from dataclasses import dataclass

from .errors import NotUnimodular, ParseError
from .exactnum import _square_and_multiply, format_rational


@dataclass(frozen=True)
class IntMatrix:
    """Matrix ((a, b), (c, d)) over Z."""

    a: int
    b: int
    c: int
    d: int

    def det(self) -> int:
        return self.a * self.d - self.b * self.c

    def require_unimodular(self) -> None:
        if self.det() != 1:
            raise NotUnimodular(f"determinant {format_rational(self.det())} != 1 for {self}")

    def __mul__(self, other: IntMatrix) -> IntMatrix:
        return IntMatrix(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
        )

    def __neg__(self) -> IntMatrix:
        return IntMatrix(-self.a, -self.b, -self.c, -self.d)

    def inverse(self) -> IntMatrix:
        self.require_unimodular()
        return IntMatrix(self.d, -self.b, -self.c, self.a)

    def __pow__(self, n: int) -> IntMatrix:
        return _square_and_multiply(self if n >= 0 else self.inverse(), abs(n), IDENTITY,
                                    IntMatrix.__mul__)

    def moebius(self, tau: complex) -> complex:
        """Fractional linear action (a*tau + b) / (c*tau + d)."""
        return (self.a * tau + self.b) / (self.c * tau + self.d)

    def entries(self) -> tuple[int, int, int, int]:
        return (self.a, self.b, self.c, self.d)

    def __str__(self) -> str:
        a, b, c, d = map(format_rational, self.entries())
        return f"(({a},{b}),({c},{d}))"


IDENTITY = IntMatrix(1, 0, 0, 1)


def parse_matrix(text: str) -> IntMatrix:
    """Parse the CLI form ``a,b,c,d``."""
    parts = text.split(",")
    if len(parts) != 4:
        raise ParseError(f"matrix needs four entries a,b,c,d, got {text!r}")
    try:
        a, b, c, d = (int(p.strip()) for p in parts)
    except ValueError as exc:
        raise ParseError(f"bad matrix entry in {text!r}") from exc
    return IntMatrix(a, b, c, d)
