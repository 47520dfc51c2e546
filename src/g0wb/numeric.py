"""Double-precision evaluation of q-series, the eta product, and Eisenstein
lattice sums, with explicit tail estimates, plus numeric checks of
weight-k transformation laws and the choice of the eta-multiplier constant.

Exactness lives elsewhere; everything here is ordinary complex arithmetic
with a reported error bound.  Evaluation close to the real line (im < 0.1)
is rejected rather than attempted, and so is one where a double cannot hold
an input, a phase, a value or a tail (NonConvergent).
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from .braid import eta_multiplier_matrix
from .errors import NonConvergent, UsageError
from .exactnum import CyclotomicNumber
from .matrices import IntMatrix
from .qseries import PuiseuxSeries

_TWO_PI = 2.0 * math.pi
_MIN_IM = 0.1
_GUARD = 10.0
# the loops run as often as asked: 10^6 eta factors take about 0.15 s, a
# radius-1000 lattice sum about 1 s, and q^n need not reach 0 to stop early
MAX_TERMS = 10**6
MAX_RADIUS = 1000


@dataclass(frozen=True)
class UpperHalfPoint:
    """A point tau = re + im*i with finite re and im strictly positive."""

    re: float
    im: float

    def __post_init__(self):
        if not math.isfinite(self.re) or not math.isfinite(self.im):
            raise UsageError(f"tau = {self.re},{self.im} is not finite")
        if not self.im > 0:
            raise UsageError(f"im = {self.im} is not in the upper half-plane")

    def as_complex(self) -> complex:
        return complex(self.re, self.im)

    @staticmethod
    def of(value: complex) -> UpperHalfPoint:
        return UpperHalfPoint(value.real, value.imag)


@dataclass(frozen=True)
class EvalResult:
    """A value together with its truncation-error estimate."""

    value: complex
    tail_estimate: float
    terms_used: int

    def __post_init__(self):
        _finite(self.value, "value")
        _finite(self.tail_estimate, "tail")


Evaluator = Callable[[UpperHalfPoint], EvalResult]


def _finite(x, what: str):
    """x, refused when it is an infinity or a NaN."""
    if not cmath.isfinite(x):
        raise NonConvergent(f"{what} {x} does not fit in a double")
    return x


def _in_doubles(fn):
    """fn, with the OverflowError of an input or an intermediate that a
    double cannot hold raised as NonConvergent."""
    @functools.wraps(fn)
    def checked(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except OverflowError as exc:
            raise NonConvergent(f"a value does not fit in a double: {exc}") from exc
    return checked


def complex_of(c: CyclotomicNumber) -> complex:
    """Numeric embedding sending the conductor-N root to exp(2*pi*i/N)."""
    total = 0j
    for power, coeff in enumerate(c.coeffs):
        if coeff:
            total += float(coeff) * cmath.exp(2j * math.pi * power / c.conductor)
    return total


def _require_tame(tau: UpperHalfPoint) -> complex:
    if tau.im < _MIN_IM:
        raise NonConvergent(
            f"im(tau) = {tau.im} < {_MIN_IM}: too close to the real line")
    return tau.as_complex()


@_in_doubles
def eval_series(h: PuiseuxSeries, tau: UpperHalfPoint) -> EvalResult:
    """Sum the stored terms at q = exp(2*pi*i*tau).

    The tail estimate is the magnitude of the last included term times the
    geometric factor r/(1-r) on the exponent grid, times a growth guard of
    10; it is an estimate for series whose coefficients outgrow any
    geometric envelope only slowly, not a rigorous bound.
    """
    t = _require_tame(tau)
    r = math.exp(-_TWO_PI * tau.im / h.denom)
    if r >= 1.0:
        raise NonConvergent("|q|^(1/D) >= 1")
    total = 0j
    last_mag = 0.0
    items = h.nonzero_items()
    for n, c in items:
        term = complex_of(c) * cmath.exp(_finite(2j * math.pi * t * n / h.denom, "phase"))
        total += term
        last_mag = abs(term)
    tail = _GUARD * last_mag * r / (1.0 - r)
    return EvalResult(total, tail, len(items))


def eta_eval(tau: UpperHalfPoint, terms: int) -> EvalResult:
    """q^(1/24) times the first ``terms`` factors of prod (1 - q^n).

    Tail: relative error |q|^(terms+1)/(1-|q|) from the dropped factors,
    scaled to the value and the guard factor.
    """
    if terms < 1:
        raise UsageError("need at least one product factor")
    if terms > MAX_TERMS:
        raise UsageError(f"terms {terms} exceeds the largest supported terms {MAX_TERMS}")
    t = _require_tame(tau)
    q = cmath.exp(_finite(2j * math.pi * t, "phase"))
    value = cmath.exp(2j * math.pi * t / 24.0)
    qn = 1.0 + 0j
    for _ in range(terms):
        qn *= q
        value *= (1.0 - qn)
    rel = abs(q) ** (terms + 1) / (1.0 - abs(q))
    return EvalResult(value, _GUARD * abs(value) * rel, terms)


def eta_evaluator(terms: int) -> Evaluator:
    return lambda tau: eta_eval(tau, terms)


def _square_boundary_gap(t: complex) -> float:
    """min |x*t + y| over the boundary of the square max(|x|, |y|) = 1.

    Negation is exact, so the edges y = -1 and x = -1 give the distances of
    y = 1 and x = 1; each is convex, so its minimum lies at its clamped
    stationary point.  The clamp of x = -re/|t|^2 on y = 1 never decides: x
    leaves [-1, 1] only if |re| > |t|^2, so |t| < 0.995 as im t >= 0.1, where
    the x = 1 edge reaches im t < im t / |t|, y = 1's unclamped minimum."""
    re = t.real
    return min(abs(-re / (re * re + t.imag * t.imag) * t + 1.0), abs(t + max(-1.0, min(1.0, -re))))


@_in_doubles
def eisenstein_eval(k: int, tau: UpperHalfPoint, radius: int) -> EvalResult:
    """The primed lattice sum of (m*tau + n)^(-k) over 0 < max(|m|,|n|) <=
    radius, summed shell-major then lexicographically (the order is part of
    the contract: results are bit-reproducible).

    Tail: the shell-count bound 8 * d^(-k) * radius^(2-k) / (k-2), where d
    is the exact minimum of |x*tau + y| on the boundary of the unit square.
    """
    if k < 4 or k % 2:
        raise UsageError("lattice sum needs even k >= 4")
    if radius < 1:
        raise UsageError("radius must be >= 1")
    if radius > MAX_RADIUS:
        raise UsageError(f"radius {radius} exceeds the largest supported radius {MAX_RADIUS}")
    t = _require_tame(tau)
    total = 0j
    for shell in range(1, radius + 1):
        # the shell boundary in lexicographic (m, n) order: the full row at
        # |m| = shell, only n = -shell and n = shell in between
        edge = range(-shell, shell + 1)
        side = (-shell, shell)
        for m in edge:
            mt = m * t
            for n in (edge if abs(m) == shell else side):
                total += (mt + n) ** (-k)
    gap = _square_boundary_gap(t)
    tail = 8.0 * gap ** (-k) * radius ** (2 - k) / (k - 2)
    return EvalResult(total, tail, (2 * radius + 1) ** 2 - 1)


def eisenstein_evaluator(k: int, radius: int) -> Evaluator:
    return lambda tau: eisenstein_eval(k, tau, radius)


def _principal_power(base: complex, k) -> complex:
    return cmath.exp(float(k) * cmath.log(base))


@_in_doubles
def check_weight_law(f: Evaluator, mat: IntMatrix, k, mu: complex,
                     tau: UpperHalfPoint) -> float:
    """Residual |f(A tau) - mu * (c tau + d)^k * f(tau)|.

    The automorphy factor uses the principal branch; for c > 0 and tau in
    the upper half-plane the argument of c*tau + d lies in (0, pi), so
    half-integral weights are unambiguous.
    """
    mat.require_unimodular()
    t = tau.as_complex()
    image = UpperHalfPoint.of(mat.moebius(t))
    factor = _principal_power(mat.c * t + mat.d, k)
    return _finite(abs(f(image).value - mu * factor * f(tau).value), "residual")


# -- selection of the eta-multiplier constant ----------------------------------

@dataclass(frozen=True)
class ResidualRow:
    label: str
    residual: float
    tolerance: float
    passed: bool


@dataclass(frozen=True)
class ResidualPanel:
    title: str
    rows: tuple[ResidualRow, ...]
    notes: str = ""


@dataclass(frozen=True)
class KappaSelection:
    winner: Fraction | None
    panel: ResidualPanel


# c > 0 unimodular matrices exercising different Dedekind sums, each paired
# with an evaluation point that keeps both tau and its image above the
# near-real-line floor
KAPPA_PANEL = (
    (IntMatrix(1, 0, 1, 1), UpperHalfPoint(0.0, 1.0)),
    (IntMatrix(0, -1, 1, 0), UpperHalfPoint(0.0, 1.0)),
    (IntMatrix(1, 1, 1, 2), UpperHalfPoint(0.0, 1.0)),
    (IntMatrix(1, 0, 3, 1), UpperHalfPoint(-1.0 / 3.0, 0.6)),
    (IntMatrix(3, 2, 1, 1), UpperHalfPoint(0.0, 1.0)),
)

KAPPA_CANDIDATES = (Fraction(1, 2), Fraction(1, 4))

# largest residual of the eta weight-1/2 law that counts as a pass
ETA_LAW_TOLERANCE = 1e-8


def select_eta_kappa(terms: int = 120) -> KappaSelection:
    """Evaluate the half-integral weight law for each candidate constant in
    the closed multiplier formula over KAPPA_PANEL, a panel of c > 0
    matrices; a candidate is accepted when every residual clears
    ETA_LAW_TOLERANCE.

    Returns the unique accepted constant (None when zero or several pass)
    together with the full residual panel.
    """
    f = eta_evaluator(terms)
    rows: list[ResidualRow] = []
    accepted: list[Fraction] = []
    for kappa in KAPPA_CANDIDATES:
        worst = 0.0
        for mat, point in KAPPA_PANEL:
            mu = eta_multiplier_matrix(mat, kappa)
            residual = check_weight_law(f, mat, Fraction(1, 2), mu, point)
            rows.append(ResidualRow(
                label=f"kappa={kappa} A={mat}",
                residual=residual, tolerance=ETA_LAW_TOLERANCE,
                passed=residual < ETA_LAW_TOLERANCE))
            worst = max(worst, residual)
        if worst < ETA_LAW_TOLERANCE:
            accepted.append(kappa)
    winner = accepted[0] if len(accepted) == 1 else None
    notes = (f"accepted constant: {winner}" if winner is not None
             else f"selection ambiguous: accepted {accepted}")
    return KappaSelection(winner=winner,
                          panel=ResidualPanel("eta multiplier constant selection",
                                              tuple(rows), notes))
