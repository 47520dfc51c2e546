"""Differential tests of the group-path kernels against the loops they
replaced, kept here as oracles:

  * the cubic associativity loop of the Cayley-table check (the table now
    runs Light's test over a greedy generating set);
  * the sorted scan of the (2s+1)^2 square for each lattice-sum shell (the
    shell boundary is now emitted directly in the same order);
  * the O(c) defining sum of the Dedekind sum (now computed by
    reciprocity);
  * the orbit closure through ``quilt_step`` (the orbit now steps from the
    table and its stored inverses).

Also: closed forms of s(1, c) and s(2, c) and the reciprocity identity at
c = 10^30, and the no-hang contract for large c and large tables."""

import math
import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from g0wb.braid import (
    GroupTable,
    cyclic_group,
    dedekind_sum,
    dihedral_group,
    eta_multiplier_phase,
    quilt_orbit,
    quilt_orbits,
    quilt_step,
    symmetric_group_3,
)
from g0wb.cli import main
from g0wb.matrices import IntMatrix
from g0wb.numeric import UpperHalfPoint, _require_tame, _square_boundary_gap, eisenstein_eval


# -- Cayley-table check -----------------------------------------------------------

def oracle_table_error(labels, mul):
    """The check with the triple associativity loop; the error message, or
    None for a group."""
    n = len(labels)
    if len(set(labels)) != n:
        return "duplicate element labels"
    if len(mul) != n or any(len(row) != n for row in mul):
        return "multiplication table is not square"
    for i in range(n):
        if mul[0][i] != i or mul[i][0] != i:
            return "element 0 is not a two-sided identity"
    for i in range(n):
        if 0 not in mul[i]:
            return f"element {labels[i]} has no inverse"
    for i in range(n):
        for j in range(n):
            for k in range(n):
                if mul[mul[i][j]][k] != mul[i][mul[j][k]]:
                    return "multiplication table is not associative"
    return None


def table_error(labels, mul):
    try:
        table = GroupTable(labels, mul)
    except ValueError as exc:
        return str(exc)
    assert table.inverses == tuple(row.index(0) for row in mul)
    return None


def _labels(n):
    return tuple(f"x{i}" for i in range(n))


@st.composite
def loop_tables(draw):
    """Tables of order 1-8 with a two-sided identity and a 0 in every row;
    rows may otherwise be anything in range."""
    n = draw(st.integers(1, 8))
    mul = [list(range(n))]
    for i in range(1, n):
        row = [i] + [draw(st.integers(0, n - 1)) for _ in range(n - 1)]
        if 0 not in row:
            row[draw(st.integers(1, n - 1))] = 0
        mul.append(row)
    return tuple(tuple(row) for row in mul)


@st.composite
def any_tables(draw):
    """Square tables of order 1-6 with entries in range: every check may
    fire."""
    n = draw(st.integers(1, 6))
    return tuple(tuple(draw(st.integers(0, n - 1)) for _ in range(n)) for _ in range(n))


class TestGroupTableCheck:
    @settings(max_examples=400, deadline=None)
    @given(loop_tables())
    def test_identity_and_inverse_tables_match_oracle(self, mul):
        labels = _labels(len(mul))
        assert table_error(labels, mul) == oracle_table_error(labels, mul)

    @settings(max_examples=300, deadline=None)
    @given(any_tables())
    def test_arbitrary_tables_match_oracle(self, mul):
        labels = _labels(len(mul))
        assert table_error(labels, mul) == oracle_table_error(labels, mul)

    def test_small_groups_accepted(self):
        # every group of order <= 8 that the builders make, including the
        # non-abelian ones, passes both checks
        tables = [cyclic_group(n) for n in range(1, 9)]
        tables += [dihedral_group(n) for n in range(1, 5)] + [symmetric_group_3()]
        for table in tables:
            assert oracle_table_error(table.labels, table.mul) is None
            assert table_error(table.labels, table.mul) is None

    @pytest.mark.parametrize("builder,sizes", [
        (cyclic_group, range(1, 25)),
        (dihedral_group, range(1, 13)),
    ], ids=["cyclic", "dihedral"])
    def test_single_entry_perturbations_match_oracle(self, builder, sizes):
        for size in sizes:
            table = builder(size)
            n = table.order
            rng = random.Random(n * 7 + size)
            trials = [(i, j, v) for i in range(n) for j in range(n) for v in range(n)]
            if len(trials) > 120:
                trials = rng.sample(trials, 120)
            for i, j, v in trials:
                mul = [list(row) for row in table.mul]
                mul[i][j] = v
                mul = tuple(tuple(row) for row in mul)
                assert table_error(table.labels, mul) == oracle_table_error(table.labels, mul), \
                    (builder.__name__, size, i, j, v)

    def test_out_of_range_entry_rejected(self):
        mul = ((0, 1, 2), (1, 2, 0), (2, 0, 7))
        with pytest.raises(ValueError, match="out of range"):
            GroupTable(_labels(3), mul)
        mul = ((0, 1, 2), (1, 2, 0), (2, 0, -1))
        with pytest.raises(ValueError, match="out of range"):
            GroupTable(_labels(3), mul)

    def test_empty_table_matches_oracle(self):
        assert table_error((), ()) == oracle_table_error((), ()) is None

    @pytest.mark.parametrize("order", ["0", "-2"])
    def test_non_positive_order_header_is_data_error(self, capsys, tmp_path, order):
        path = tmp_path / "empty.gtab"
        path.write_text(f"order: {order}\n", encoding="utf-8")
        code = main(["quilt", "--group", str(path), "--start", "e,e"])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.err == "error: line 1: order " + order + " is not positive\n"

    def test_inverses_do_not_affect_equality(self):
        table = dihedral_group(5)
        again = GroupTable(table.labels, table.mul)
        assert again == table and hash(again) == hash(table)
        assert "inverses" not in repr(table)
        for i in range(table.order):
            assert table.product(i, table.inverse(i)) == 0


# -- lattice sums -------------------------------------------------------------------

def oracle_eisenstein(k, tau, radius):
    """Each shell from a sorted scan of the whole (2s+1)^2 square."""
    t = _require_tame(tau)
    total = 0j
    for shell in range(1, radius + 1):
        points = []
        for m in range(-shell, shell + 1):
            for n in range(-shell, shell + 1):
                if max(abs(m), abs(n)) == shell:
                    points.append((m, n))
        for m, n in sorted(points):
            total += (m * t + n) ** (-k)
    gap = _square_boundary_gap(t)
    tail = 8.0 * gap ** (-k) * radius ** (2 - k) / (k - 2)
    return total, tail, (2 * radius + 1) ** 2 - 1


POINTS = {
    "i": UpperHalfPoint(0.0, 1.0),
    "rho": UpperHalfPoint(-0.5, math.sqrt(3) / 2),
    "0.3+0.9i": UpperHalfPoint(0.3, 0.9),
}


class TestLatticeSums:
    @pytest.mark.parametrize("k", [4, 6, 8])
    @pytest.mark.parametrize("name", sorted(POINTS))
    def test_bit_identical_to_sorted_scan(self, k, name):
        tau = POINTS[name]
        for radius in range(1, 31):
            result = eisenstein_eval(k, tau, radius)
            value, tail, terms = oracle_eisenstein(k, tau, radius)
            assert result.value == value, radius
            assert result.tail_estimate == tail
            assert result.terms_used == terms

    def test_law_runs_each_sum_once(self, capsys, monkeypatch):
        import g0wb.numeric as numeric

        calls = []
        original = numeric.eisenstein_eval

        def counting(k, tau, radius):
            calls.append(tau)
            return original(k, tau, radius)

        monkeypatch.setattr(numeric, "eisenstein_eval", counting)
        code = main(["eisenstein", "--k", "4", "--tau=-0.5,1", "--radius", "20", "--law",
                     "--matrix=1,0,1,1"])
        out = capsys.readouterr().out
        assert code == 0 and "law=pass" in out
        assert len(calls) == 2 and len(set(calls)) == 2


# -- Dedekind sums ------------------------------------------------------------------

def oracle_dedekind_loop(d, c):
    """The defining sum, one Fraction per term."""
    total = Fraction(0)
    for i in range(1, c):
        frac = Fraction(d * i, c) - (d * i) // c
        total += Fraction(i, c) * (frac - Fraction(1, 2))
    return total


def oracle_dedekind_int(d, c):
    """The same O(c) sum over integers: sum_i i * (2 (d i mod c) - c) / (2 c^2)."""
    return Fraction(sum(i * (2 * (d * i % c) - c) for i in range(1, c)), 2 * c * c)


class TestDedekindSum:
    def test_integer_oracle_is_the_loop(self):
        for c in range(1, 41):
            for d in range(-c - 3, 2 * c + 3):
                assert oracle_dedekind_int(d, c) == oracle_dedekind_loop(d, c)

    def test_equals_loop_on_every_coprime_pair(self):
        for c in range(1, 301):
            # the loop reads d only through d*i mod c: one oracle per class
            by_class = {}
            for d in range(-400, 401):
                if math.gcd(d, c) != 1:
                    continue
                r = d % c
                if r not in by_class:
                    by_class[r] = oracle_dedekind_int(r, c)
                assert dedekind_sum(d, c) == by_class[r], (d, c)

    @pytest.mark.parametrize("d,c", [(0, 0), (1, 0), (1, -3), (2, 4), (0, 5), (6, 9)])
    def test_outside_coprime_domain_raises(self, d, c):
        with pytest.raises(ValueError):
            dedekind_sum(d, c)

    def test_closed_forms_at_large_c(self):
        c = 10**30
        assert dedekind_sum(1, c) == Fraction((c - 1) * (c - 2), 12 * c)
        odd = c + 1
        assert dedekind_sum(2, odd) == Fraction((odd - 1) * (odd - 5), 24 * odd)
        assert dedekind_sum(-1, c) == -dedekind_sum(1, c)

    def test_closed_forms_match_loop(self):
        for c in range(1, 120):
            assert oracle_dedekind_loop(1, c) == Fraction((c - 1) * (c - 2), 12 * c)
            if c % 2:
                assert oracle_dedekind_loop(2, c) == Fraction((c - 1) * (c - 5), 24 * c)

    @pytest.mark.parametrize("d,c", [(3**60, 2**100), (10**30 - 1, 10**30), (7, 10**30 + 3),
                                     (5, 17), (17, 5)])
    def test_reciprocity_identity(self, d, c):
        lhs = dedekind_sum(d, c) + dedekind_sum(c, d)
        assert lhs == Fraction(d * d + c * c + 1, 12 * d * c) - Fraction(1, 4)

    def test_huge_c_multiplier_phase_is_fast(self):
        c = 10**15
        start = time.perf_counter()
        phase = eta_multiplier_phase(IntMatrix(1, 0, c, 1))
        assert time.perf_counter() - start < 0.5
        expected = (Fraction(2, 12 * c) - Fraction(1, 4)
                    - Fraction((c - 1) * (c - 2), 12 * c)) % 2
        assert phase == expected

    def test_huge_c_eta_law_is_one_usage_error(self, capsys):
        code = main(["eta", "--tau", "0,1", "--law", "--matrix", "1,0,1000000000000000,1"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("usage error:") and captured.err.count("\n") == 1
        assert "Traceback" not in captured.err


# -- quilt orbits -------------------------------------------------------------------

def oracle_orbit(pair, table):
    seen = {pair}
    frontier = [pair]
    while frontier:
        current = frontier.pop()
        for gen in ("s1", "s2", "s1^-1", "s2^-1"):
            nxt = quilt_step(current, gen, table)
            if nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    return frozenset(seen)


def _quilt_tables():
    tables = {"z2": cyclic_group(2), "s3": symmetric_group_3(), "d4": dihedral_group(4)}
    tables.update({f"c{n}": cyclic_group(n) for n in range(1, 31)})
    tables.update({f"d{n}": dihedral_group(n) for n in range(1, 16)})
    return tables


class TestQuiltOrbit:
    @pytest.mark.parametrize("name", sorted(_quilt_tables()))
    def test_every_start_pair_matches_oracle(self, name):
        table = _quilt_tables()[name]
        n = table.order
        # every pair of one oracle orbit must give that same orbit
        orbit_of = {}
        for pair in ((g, h) for g in range(n) for h in range(n)):
            if pair not in orbit_of:
                orbit = oracle_orbit(pair, table)
                orbit_of.update(dict.fromkeys(orbit, orbit))
            assert quilt_orbit(pair, table) == orbit_of[pair], pair
        assert sorted(quilt_orbits(table), key=min) == \
            sorted(set(orbit_of.values()), key=min)


# -- scale ----------------------------------------------------------------------------

def test_large_tables_construct_and_orbit_quickly():
    # the triple associativity loop needs minutes here
    start = time.perf_counter()
    cyc = cyclic_group(600)
    dih = dihedral_group(300)
    assert len(quilt_orbit((300, 0), cyc)) == 3
    orbit = quilt_orbit((dih.index("f"), dih.index("r1")), dih)
    assert len(orbit) == 900
    assert time.perf_counter() - start < 10.0
