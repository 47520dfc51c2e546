"""Exception types shared across the workbench.

Every failure a caller is expected to branch on gets its own class; anything
raised with a bare ValueError is a programming error, not a workbench outcome.
UsageError, also a ValueError, is the one refusal of a request as asked; the
command line exits 2 on it and on argparse's own errors only.
"""

from __future__ import annotations


class G0wbError(Exception):
    """Base class for all workbench errors."""


class UsageError(G0wbError, ValueError):
    """A documented refusal of the request itself (exit 2)."""


class NotCoprime(G0wbError):
    """Galois automorphism index shares a factor with the conductor."""


class NonIntegralInput(G0wbError):
    """A series with fractional exponents was given where integral ones are required."""


class InsufficientTruncation(G0wbError):
    """The series is not determined far enough for the requested operation.

    ``required`` carries the exponent bound that would make the operation
    possible, when it can be computed.
    """

    def __init__(self, message: str, required=None):
        super().__init__(message)
        self.required = required


class ExpressFailure(G0wbError):
    """Pole-killing left a nonzero residual: the series is not a polynomial
    in the generator.  ``residual`` is the irreducible remainder series;
    ``exponent`` and ``coefficient`` are its first term."""

    def __init__(self, message: str, residual=None):
        super().__init__(message)
        self.residual = residual
        self.exponent = None if residual is None else residual.min_nonzero_exponent()
        self.coefficient = None if self.exponent is None else residual.coefficient(self.exponent)


class InsufficientSeed(G0wbError):
    """Bootstrap seed is too short to determine the next coefficient."""


class BootstrapStalled(G0wbError):
    """The linear coefficient of the unknown vanished; order-by-order solving
    cannot continue."""


class Inconsistent(G0wbError):
    """An order-by-order solve met an equation with no solution."""


class NotUnimodular(UsageError):
    """Matrix determinant is not 1."""


class RequiresPositiveC(G0wbError):
    """The closed multiplier formula is only stated for lower-left entry c > 0."""


class NonConvergent(UsageError):
    """Numeric evaluation requested outside the region of convergence, or
    at a point where a double cannot hold a value, a tail or an input."""


class CorruptCorpus(G0wbError):
    """A bundled data file disagrees with the hard-coded reference literals."""


class ParseError(G0wbError):
    """Malformed text input; ``line`` is the 1-based offending line number."""

    def __init__(self, message: str, line: int | None = None):
        super().__init__(message if line is None else f"line {line}: {message}")
        self.line = line


class ShapeError(G0wbError):
    """Series violates the required normalization (q^-1 leading term, zero
    constant term)."""
