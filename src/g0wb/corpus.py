"""Bundled q-expansion data with per-coefficient provenance, plus ingestion.

Each bundled entry starts from a short published prefix that the loader
re-checks against hard-coded literals (the duplication is deliberate: a
corrupted data file cannot silently pass).  Deeper coefficients are derived
by in-repo oracles; every derived range names the oracle that produced it.

The exact oracles (the eta product, the level-2 eta quotient, the normalized
j-function) live here as well, built on plain int lists by Euler's
recurrence for prod (1 - q^n)^w(n), apart from the kernels they check.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from importlib import resources
from itertools import repeat
from operator import add, mul

from .errors import CorruptCorpus, ParseError, ShapeError
from .qseries import PuiseuxSeries, SeriesMeta, compare_to_order, parse_qexp

DATA_ENV = "G0WB_DATA"

# Published prefixes, keyed by file stem.  Hard-coded independently of the
# data files on purpose.
PUBLISHED_PREFIXES: dict[str, dict[int, int]] = {
    "j": {-1: 1, 1: 196884, 2: 21493760, 3: 864299970},
    "g0_2": {-1: 1, 1: 276, 2: -2048, 3: 11202, 4: -49152, 5: 184024},
    "g0_13": {-1: 1, 1: -1, 2: 2, 3: 1, 4: 2, 5: -2, 7: -2, 8: -2, 9: 1},
    "g0_25": {-1: 1, 1: -1, 4: 1, 6: 1, 11: -1, 14: -1, 21: 1, 24: 1, 26: -1},
}

# Depth through which the published prefix is stated (inclusive).
PUBLISHED_DEPTH = {"j": 3, "g0_2": 5, "g0_13": 9, "g0_25": 26}

_LABELS = {
    "j": ("J", "SL2(Z)"),
    "g0_2": ("J_Gamma0_2", "Gamma0(2)"),
    "g0_13": ("J_Gamma0_13", "Gamma0(13)"),
    "g0_25": ("J_Gamma0_25", "Gamma0(25)"),
}

_DERIVED_ORACLES = {
    "j": ("order-2 bootstrap from the published 3-coefficient seed; "
          "cross-checked by replication identities k=1..10 and by the exact "
          "Eisenstein/discriminant quotient construction"),
    "g0_2": ("order-3 bootstrap from the published 5-coefficient seed; "
             "cross-checked against the exact level-2 eta-quotient expansion"),
}


@dataclass(frozen=True)
class ProvenanceRange:
    """Tag for a contiguous exponent range of a bundled series."""

    lo: int
    hi: int
    kind: str  # published | derived | external
    oracle: str = ""


@dataclass(frozen=True)
class CorpusEntry:
    meta: SeriesMeta
    series: PuiseuxSeries
    provenance: tuple[ProvenanceRange, ...]


def data_directory() -> str | None:
    """Filesystem override for the bundled data, if configured."""
    return os.environ.get(DATA_ENV)


def _read_text(path: str) -> str:
    """The text of a UTF-8 file; undecodable bytes are a ParseError."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path} is not UTF-8 text: {exc.reason} at byte {exc.start}") from exc


def _read_data_file(stem: str) -> str:
    override = data_directory()
    if override is not None:
        return _read_text(os.path.join(override, f"{stem}.qexp"))
    return (resources.files("g0wb") / "data" / f"{stem}.qexp").read_text("utf-8")


def load_entry(stem: str) -> CorpusEntry:
    if stem not in PUBLISHED_PREFIXES:
        raise KeyError(f"unknown corpus entry {stem!r}")
    try:
        series, label = parse_qexp(_read_data_file(stem))
    except (OSError, ParseError) as exc:
        raise CorruptCorpus(f"cannot load corpus entry {stem}: {exc}") from exc
    expect_label, group = _LABELS[stem]
    if label != expect_label:
        raise CorruptCorpus(f"{stem}: label {label!r} != {expect_label!r}")
    depth = PUBLISHED_DEPTH[stem]
    if series.trunc < depth:
        raise CorruptCorpus(f"{stem}: file truncated before the published depth {depth}")
    found = compare_to_order(series, PuiseuxSeries.make(PUBLISHED_PREFIXES[stem], trunc=depth),
                             depth)
    if not found.equal:
        raise CorruptCorpus(f"{stem}: coefficient of q^{found.exponent} is {found.left}, "
                            f"bundled reference says {found.right}")
    ranges = [ProvenanceRange(-1, depth, "published")]
    if series.trunc > depth:
        ranges.append(ProvenanceRange(depth + 1, series.trunc, "derived",
                                      _DERIVED_ORACLES.get(stem, "")))
    meta = SeriesMeta(label=label, source=f"bundled:{stem}.qexp", claimed_group=group)
    return CorpusEntry(meta=meta, series=series, provenance=tuple(ranges))


def load_corpus() -> list[CorpusEntry]:
    """All four bundled entries, published literals re-checked."""
    return [load_entry(stem) for stem in PUBLISHED_PREFIXES]


def ingest(source: str, require_moonshine: bool = False) -> CorpusEntry:
    """Parse an external qexp v1 file (path) or literal text.

    The parsed series is re-canonicalized; provenance is marked external.
    """
    if "\n" in source:
        text, origin = source, "<string>"
    else:
        text, origin = _read_text(source), source
    series, label = parse_qexp(text)
    if require_moonshine and not series.is_moonshine_shape():
        raise ShapeError(f"{origin}: series is not of the form q^-1 + O(q)")
    meta = SeriesMeta(label=label, source=f"external:{origin}")
    prov = (ProvenanceRange(series.lo, series.trunc, "external"),)
    return CorpusEntry(meta=meta, series=series, provenance=prov)


# -- exact oracle constructions ------------------------------------------------


def _divisor_sums(f, top: int) -> list[int]:
    """[sum_{d|n} f(d) for n in 0..top], by a sieve (0 at n = 0)."""
    sums = [0] * (top + 1)
    for d in range(1, top + 1):
        sums[d::d] = map(add, sums[d::d], repeat(f(d)))
    return sums


def _euler_power(weight, top: int) -> list[int]:
    """prod_{n>=1} (1 - q^n)^weight(n) through q^top, as a dense list.

    The logarithmic derivative gives n*a_n = -sum_{i=1..n} b_i*a_(n-i) with
    b_i = sum_{d|i} d*weight(d); every division is exact.
    """
    b = _divisor_sums(lambda d: d * weight(d), top)
    a = [1]
    for n in range(1, top + 1):
        value, rem = divmod(-sum(map(mul, b[1:n + 1], reversed(a))), n)
        if rem:
            raise ArithmeticError("Euler product recurrence left a remainder")
        a.append(value)
    return a


def _product(a: list[int], b: list[int]) -> list[int]:
    """Product of two dense series, through the shorter one's last term."""
    return [sum(map(mul, a[:n + 1], reversed(b[:n + 1]))) for n in range(min(len(a), len(b)))]


def eta_product_series(factors: int) -> PuiseuxSeries:
    """q^(1/24) * prod_{n=1}^{factors} (1 - q^n), exact on the 1/24 grid.

    The partial product agrees with the infinite one through q^factors, so
    that is the determination bound (plus the 1/24 shift).
    """
    coeffs = {24 * n + 1: c for n, c in enumerate(_euler_power(lambda n: 1, factors))}
    return PuiseuxSeries(1, 24, 1, 24 * factors + 1, coeffs)


def normalized_j(depth: int) -> PuiseuxSeries:
    """The weight-0 generator q^-1 + 196884q + ... built exactly as the cube
    of the weight-4 Eisenstein series over the discriminant q*prod(1 - q^n)^24,
    with the constant term shifted to zero.
    """
    e4 = [1] + [240 * s for s in _divisor_sums(lambda d: d ** 3, depth + 1)[1:]]
    qj = _product(_product(_product(e4, e4), e4), _euler_power(lambda n: -24, depth + 1))
    qj[1] -= 744
    return PuiseuxSeries.make(dict(enumerate(qj, -1)), trunc=depth)


def eta_quotient_level2(depth: int) -> PuiseuxSeries:
    """The level-2 generator q^-1 + 276q - 2048q^2 + ...: (eta(tau)/eta(2tau))^24
    = q^-1 * prod(1 - q^n)^(24 (n mod 2)), shifted by 24 to zero constant term.
    """
    qt = _euler_power(lambda n: 24 * (n % 2), depth + 1)
    qt[1] += 24
    return PuiseuxSeries.make(dict(enumerate(qt, -1)), trunc=depth)
