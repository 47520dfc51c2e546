#!/usr/bin/env python3
"""Regenerate the bundled q-expansion data files.

Pipeline, per entry:

  j      seed = published 3 coefficients; extend to q^60 by the order-2
         bootstrap against the golden degree-3 polynomial; cross-check with
         the replication identities (k = 1..10) and, coefficient for
         coefficient, with the exact Eisenstein/discriminant quotient.

  g0_2   the published prefix is 5 coefficients, too short to build the
         order-3 polynomial directly, so: expand the level-2 eta quotient
         exactly, build the order-3 polynomial from it, then re-derive the
         deep coefficients by bootstrapping from the published seed alone
         and require exact agreement with the eta-quotient expansion.

  g0_13, g0_25   published prefixes only.

Writes src/g0wb/data/*.qexp.  Run from the repository root.
"""

from __future__ import annotations

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from g0wb.corpus import (
    PUBLISHED_DEPTH,
    PUBLISHED_PREFIXES,
    eta_quotient_level2,
    normalized_j,
)
from g0wb.goldens import GOLDEN_ORDER2
from g0wb.hauptmodul import bootstrap_extend, check_replication
from g0wb.modeq import build_modular_polynomial, verify_modular_equation
from g0wb.qseries import PuiseuxSeries, compare_to_order, emit_qexp

J_DEPTH = 60
G02_DEPTH = 64
DATA_DIR = os.path.join(os.path.dirname(__file__), "..", "src", "g0wb", "data")


def prefix_series(stem: str) -> PuiseuxSeries:
    return PuiseuxSeries.make(dict(PUBLISHED_PREFIXES[stem]),
                              trunc=PUBLISHED_DEPTH[stem])


def make_j() -> PuiseuxSeries:
    seed = prefix_series("j")
    series = bootstrap_extend(seed, GOLDEN_ORDER2, 2, J_DEPTH)
    for k in range(1, 11):
        assert check_replication(series, series, k), f"replication failed at k={k}"
    reference = normalized_j(J_DEPTH)
    cmp = compare_to_order(series, reference, J_DEPTH)
    assert cmp.equal, f"bootstrap disagrees with the quotient construction: {cmp}"
    return series


def make_g0_2() -> PuiseuxSeries:
    reference = eta_quotient_level2(G02_DEPTH + 16)
    for n, c in PUBLISHED_PREFIXES["g0_2"].items():
        assert reference.coefficient(n) == c, (n, c)
    poly3 = build_modular_polynomial(reference, 3)
    assert verify_modular_equation(reference, poly3, 3).status == "consistent"
    seed = prefix_series("g0_2")
    series = bootstrap_extend(seed, poly3, 3, G02_DEPTH)
    cmp = compare_to_order(series, reference.truncate(G02_DEPTH), G02_DEPTH)
    assert cmp.equal, f"bootstrap disagrees with the eta quotient: {cmp}"
    return series


def corpus_entries() -> dict[str, tuple[PuiseuxSeries, str]]:
    """Every bundled series with its label, by file stem."""
    return {
        "j": (make_j(), "J"),
        "g0_2": (make_g0_2(), "J_Gamma0_2"),
        "g0_13": (prefix_series("g0_13"), "J_Gamma0_13"),
        "g0_25": (prefix_series("g0_25"), "J_Gamma0_25"),
    }


def main() -> None:
    os.makedirs(DATA_DIR, exist_ok=True)
    for stem, (series, label) in corpus_entries().items():
        path = os.path.join(DATA_DIR, f"{stem}.qexp")
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(emit_qexp(series, label))
        print(f"wrote {path} (trunc {series.trunc}, {len(series.coeffs)} coefficients)")


if __name__ == "__main__":
    main()
