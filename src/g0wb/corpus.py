"""Bundled q-expansion data with per-coefficient provenance, plus ingestion.

Each bundled entry starts from a short published prefix that the loader
re-checks against hard-coded literals (the duplication is deliberate: a
corrupted data file cannot silently pass).  Deeper coefficients are derived
by in-repo oracles; every derived range names the oracle that produced it.

Exact series constructions used as oracles (the eta product, the level-2
eta quotient, the normalized j-function) live here as well.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from importlib import resources

from .errors import CorruptCorpus, ParseError, ShapeError
from .exactnum import _square_and_multiply
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


def _dict_mul(a: dict[int, int], b: dict[int, int], top: int) -> dict[int, int]:
    out: dict[int, int] = {}
    for u, x in a.items():
        for v, y in b.items():
            k = u + v
            if k <= top:
                out[k] = out.get(k, 0) + x * y
    return {k: v for k, v in out.items() if v}


def _dict_pow(base: dict[int, int], exponent: int, top: int) -> dict[int, int]:
    return _square_and_multiply(base, exponent, {0: 1}, lambda a, b: _dict_mul(a, b, top))


def _dict_invert(series: dict[int, int], top: int) -> dict[int, int]:
    """Inverse of a series with constant term 1, through q^top."""
    if series.get(0) != 1:
        raise ValueError("inversion needs constant term 1")
    inv = {0: 1}
    for n in range(1, top + 1):
        acc = 0
        for k, v in series.items():
            if 0 < k <= n:
                acc += v * inv.get(n - k, 0)
        if acc:
            inv[n] = -acc
    return inv


def _euler_product(step: int, top: int) -> dict[int, int]:
    """prod_{n>=1} (1 - q^(step*n)) through q^top."""
    out = {0: 1}
    n = step
    while n <= top:
        out = _dict_mul(out, {0: 1, n: -1}, top)
        n += step
    return out


def eta_product_series(factors: int) -> PuiseuxSeries:
    """q^(1/24) * prod_{n=1}^{factors} (1 - q^n), exact on the 1/24 grid.

    The partial product agrees with the infinite one through q^factors, so
    that is the determination bound (plus the 1/24 shift).
    """
    product = _euler_product(1, factors)
    coeffs = {24 * n + 1: c for n, c in product.items()}
    return PuiseuxSeries(1, 24, 1, 24 * factors + 1, coeffs)


def sigma_divisors(n: int, power: int) -> int:
    """Divisor power sum used by the Eisenstein q-expansions."""
    total = 0
    d = 1
    while d * d <= n:
        if n % d == 0:
            total += d ** power
            if d != n // d:
                total += (n // d) ** power
        d += 1
    return total


def normalized_j(depth: int) -> PuiseuxSeries:
    """The weight-0 generator q^-1 + 196884q + ... built exactly from the
    cube of the weight-4 Eisenstein series over the discriminant product,
    with the constant term shifted to zero.
    """
    top = depth + 2
    e4 = {0: 1}
    for n in range(1, top + 1):
        e4[n] = 240 * sigma_divisors(n, 3)
    numerator = _dict_pow(e4, 3, top)
    disc = {k + 1: v for k, v in _dict_pow(_euler_product(1, top), 24, top).items()}
    # Laurent division: disc = q * (1 + ...), so shift and invert
    unit = {k - 1: v for k, v in disc.items()}
    inverse_unit = _dict_invert(unit, top)
    j_full = _dict_mul(numerator, inverse_unit, top)
    j_shifted = {k - 1: v for k, v in j_full.items() if k - 1 <= depth}
    j_shifted[0] = j_shifted.get(0, 0) - 744
    return PuiseuxSeries.make({k: v for k, v in j_shifted.items() if v}, trunc=depth)


def eta_quotient_level2(depth: int) -> PuiseuxSeries:
    """The level-2 generator q^-1 + 276q - 2048q^2 + ...: the 24th power of
    the eta quotient at levels 1 and 2, normalized to zero constant term.
    """
    top = depth + 2
    num = _dict_pow(_euler_product(1, top), 24, top)
    den = _dict_pow(_euler_product(2, top), 24, top)
    quotient = _dict_mul(num, _dict_invert(den, top), top)
    shifted = {k - 1: v for k, v in quotient.items() if k - 1 <= depth}
    shifted[0] = shifted.get(0, 0) + 24
    return PuiseuxSeries.make({k: v for k, v in shifted.items() if v}, trunc=depth)
