"""Differential tests of code paths that were merged into one, against the
second copies they replaced, kept here as oracles:

- the symmetry test F(x, y) == F(y, x) (or its sigma_m twist) written out
  coefficient by coefficient, now ``transpose`` and ``apply_galois``;
- the first term of an ExpressFailure residual, now carried by the
  exception itself (``exponent``, ``coefficient``);
- the per-term sum of a cyclotomic literal, now one fold of its terms
  (``parse_cyclotomic``);
- the incremental closure that picked the generators for Light's
  associativity test, now a fresh closure per generator
  (``braid._greedy_generators``);
- every qexp literal read as a Fraction, now an int for a signed run of
  digits (``parse_rational``);
- the fiction screen by building q^-1 + xi*q and subtracting, now a length
  test of h's vector (``detect_fiction``), and xi^24 == 1, now a comparison
  with the 24th roots of unity of the power table (``_is_admissible_xi``);
- an order of ``classify`` tested by building its polynomial and verifying
  it against h, now the build's own residual bound (``_test_order``);
- the rewrite of power-basis blocks on a larger basis, row by row through
  the power table, now one ``_fold`` (``exactnum._promote``);
- the corpus oracles built on dict series (products, square-and-multiply
  powers, inversion and the divisor power sum of E4), now Euler's
  recurrence for prod (1 - q^n)^w(n) on int lists (``corpus._euler_power``);
- the machine block written by both ``cli._emit`` and
  ``RenderedReport.text``, now ``report._with_machine_block``;
- the exponent text of a report, now ``exactnum.format_rational``;
- three trailing-zero trims, now ``exactnum._trim``;
- the rational shortcut of ``CyclotomicNumber.__truediv__``, now a product
  with ``inverse()``;
- two report helpers per report type, one for its sections and one for its
  machine block, now one per type (``report.render``);
- the quilt closure over four neighbours per pair, now s1-cycles walked
  whole with one s2 step per pair (``quilt_orbit``), and the partition that
  opened each orbit at ``min(remaining)``, now at the next unmarked pair
  (``quilt_orbits``);
- the quilt listing by sorting the text of every pair, now rows and columns
  in label order, which is the sorted order while no label holds a comma
  (``cli._cmd_quilt``);
- verification on the full h, twisted whole after its own gcd(m, N) check,
  now on the build's cut and twisted generator (``modeq._generator``);
- the class sizes of the coset product counted from ``coset_set(m).pairs``,
  now w_d(0) (``modeq._class_weights``).
- the text of a literal, of a ``UnivariatePoly`` and of the fiction shape,
  each written by its own loop, and the parenthesis test of the series
  repr, now one term writer and its factor test (``exactnum._format_terms``,
  ``exactnum._as_factor``);
- the gap of the Eisenstein tail as the least of four edges' candidates,
  now two stationary points, only that of the edge x = 1 clamped
  (``numeric._square_boundary_gap``);
- the zero filters of ``_build``, ``derivative``, ``emit_mpoly`` and the
  bootstrap's monomial list, the union of keys in
  ``ModularPolynomial.__eq__`` and the trim in ``UnivariatePoly.from_list``,
  now the two constructors (``__post_init__``), with ``scale``,
  ``apply_galois``, ``transpose`` and ``derivative`` each one
  ``dataclasses.replace`` of the record.

Also the value reports of ``eta`` and ``eisenstein`` without ``--law``,
which share one emitter with ``eval``."""

import collections
import itertools
import math
import random
import re
import sys
import time
from fractions import Fraction
from itertools import repeat
from operator import add, mul, sub
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from g0wb.braid import (
    _greedy_generators,
    cyclic_group,
    dihedral_group,
    emit_group_table,
    group_from_elements,
    parse_group_table,
    quilt_orbit,
    quilt_orbits,
    symmetric_group_3,
)
from g0wb import qseries
from g0wb.cli import main
from g0wb.corpus import (PUBLISHED_DEPTH, PUBLISHED_PREFIXES, _euler_power, eta_product_series,
                         eta_quotient_level2, load_entry, normalized_j)
from g0wb.errors import (CorruptCorpus, ExpressFailure, G0wbError, InsufficientTruncation,
                         NotCoprime, ParseError, UsageError)
from g0wb.exactnum import (CyclotomicNumber, _convolve, _half_ext_gcd, _poly_divmod,
                           _power_table, _promote, _trim, cyclotomic_polynomial, euler_phi,
                           format_literal, format_rational, parse_cyclotomic, parse_rational)
from g0wb.goldens import GOLDEN_ORDER2
from g0wb.hauptmodul import (Classification, _is_admissible_xi, _test_order, classify,
                             detect_fiction)
from g0wb.modeq import (
    MAX_ORDER,
    ModularPolynomial,
    UnivariatePoly,
    VerificationReport,
    _build,
    _class_weights,
    _coset_elementary,
    build_modular_polynomial,
    check_order,
    coset_set,
    emit_mpoly,
    express_in_generator,
    parse_mpoly,
    required_truncation,
    symmetry_check,
    verify_modular_equation,
)
from g0wb.numeric import (KappaSelection, ResidualPanel, ResidualRow, _square_boundary_gap,
                          select_eta_kappa)
from g0wb.qseries import PuiseuxSeries, emit_qexp, parse_qexp
from g0wb.report import RenderedReport, _with_machine_block, render


# -- the replaced loops -----------------------------------------------------------

def oracle_symmetry_check(poly, generalised=False):
    keys = set(poly.coeffs)
    keys |= {(j, i) for i, j in keys}
    for i, j in keys:
        left = poly.coefficient(i, j)
        right = poly.coefficient(j, i)
        if generalised:
            right = right.galois(poly.m)
        if left != right:
            return False
    return True


def oracle_parse_cyclotomic(text, conductor):
    """A literal summed one term at a time in the field."""
    text = text.strip()
    if "z" not in text:
        return CyclotomicNumber.from_rational(Fraction(text))
    result = CyclotomicNumber.root_of_unity(conductor, 0) * 0
    for piece in re.split(r"(?=[+-])", text):
        if not piece:
            continue
        sign, term = (-1, piece[1:]) if piece[0] == "-" else (1, piece.lstrip("+"))
        coef, _, power = term.partition("z")
        power = int(power[1:]) if power.startswith("^") else (1 if "z" in term else 0)
        result = result + CyclotomicNumber.root_of_unity(conductor, power) * (
            sign * Fraction(coef or 1))
    return result


def oracle_parse_rational(text):
    """Every literal without z read as a Fraction."""
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"bad rational literal {text!r}") from exc


def oracle_detect_fiction(h):
    """xi when h minus q^-1 + xi*q, built as a series, is zero."""
    xi = h.coefficient(1)
    fiction = PuiseuxSeries.make({-1: 1, 1: xi}, trunc=h.trunc, conductor=h.conductor)
    return xi if (h - fiction).is_zero() else None


def oracle_test_order(h, m, notes):
    """An order tested by building its polynomial, then verifying it
    against h: the coset expansion runs twice."""
    try:
        poly = build_modular_polynomial(h, m)
    except InsufficientTruncation as exc:
        notes.append(f"order {m}: need input determined through q^{exc.required}")
        return VerificationReport(m, h.trunc_exponent(), "insufficient-data")
    except ExpressFailure as exc:
        notes.append(f"order {m}: {exc}")
        return VerificationReport(
            m, h.trunc_exponent(), "inconsistent",
            first_failure=(exc.exponent, CyclotomicNumber.zero(), exc.coefficient))
    return verify_modular_equation(h, poly, m)


def oracle_greedy_generators(mul):
    """Generators for Light's test: the lowest index not yet reached, with
    the reached set grown by the new generator alone on old elements and by
    every generator on new ones."""
    n = len(mul)
    reached = [True] + [False] * (n - 1)
    order = [0]
    gens = []
    for g in range(1, n):
        if len(order) == n:
            break
        if reached[g]:
            continue
        gens.append(g)
        old = len(order)
        i = 0
        while i < len(order):
            row = mul[order[i]]
            for a in (gens if i >= old else (g,)):
                y = row[a]
                if not reached[y]:
                    reached[y] = True
                    order.append(y)
            i += 1
    return gens


def oracle_quilt_orbit(pair, table):
    """Closure of a pair under s1, s2, s1^-1 and s2^-1, four neighbours per
    pair."""
    mul, inv = table.mul, table.inverses
    seen = {pair}
    frontier = [pair]
    while frontier:
        g, h = frontier.pop()
        row_g = mul[g]
        gh = row_g[h]
        for nxt in ((g, gh), (row_g[inv[h]], h), (g, mul[inv[g]][h]), (gh, h)):
            if nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    return frozenset(seen)


def oracle_quilt_orbits(table):
    """Each orbit opened at the smallest pair not yet covered."""
    remaining = {(g, h) for g in range(table.order) for h in range(table.order)}
    orbits = []
    while remaining:
        orbit = oracle_quilt_orbit(min(remaining), table)
        orbits.append(orbit)
        remaining -= orbit
    return orbits


def oracle_quilt_elements(table, start):
    """The ``elements=`` value of ``g0wb quilt``: the text of every pair,
    sorted."""
    g, h = (table.index(label) for label in start.split(","))
    return " ".join(sorted(f"({table.labels[a]},{table.labels[b]})"
                           for a, b in oracle_quilt_orbit((g, h), table)))


# -- cyclotomic literals ---------------------------------------------------------------

def _random_literal(rng, conductor):
    """Terms with powers up to 3N (so some reduce mod N), at least one z
    term, a repeated power, rational and omitted coefficients, and a
    leading sign or none."""
    powers = [rng.randrange(3 * conductor + 2) for _ in range(rng.randint(0, 7))]
    powers.append(rng.randrange(1, 3 * conductor + 2))
    powers.append(rng.choice(powers))
    terms = []
    for p in powers:
        coef = rng.choice(["", "1", "2", "7", "3/4", "12/5"])
        body = coef if p == 0 else coef + ("z" if p == 1 and rng.random() < 0.5 else f"z^{p}")
        terms.append(rng.choice("+-") + (body or "1"))
    text = "".join(terms)
    return text[1:] if text[0] == "+" and rng.random() < 0.5 else text


def test_parse_cyclotomic_matches_the_per_term_sum():
    rng = random.Random(10)
    for conductor in range(1, 61):
        for _ in range(8):
            text = _random_literal(rng, conductor)
            got = parse_cyclotomic(text, conductor)
            expected = oracle_parse_cyclotomic(text, conductor)
            assert got == expected and got.conductor == expected.conductor == conductor, text
    assert parse_cyclotomic("3/2", 12) == oracle_parse_cyclotomic("3/2", 12)


def test_long_literal_at_conductor_997_is_one_fold():
    # 995 terms c_p z^p, p = 2..996; z^996 = -(1 + z + ... + z^995), so the
    # value has coefficient c_p - c_996 at p = 2..995 and -c_996 at 0 and 1
    rng = random.Random(997)
    coefs = {p: rng.randint(1, 50) for p in range(2, 997)}
    text = "+".join(f"{c}z^{p}" for p, c in coefs.items())
    start = time.perf_counter()
    got = parse_cyclotomic(text, 997)
    assert time.perf_counter() - start < 1.0
    expected = [-coefs[996]] * 2 + [coefs[p] - coefs[996] for p in range(2, 996)]
    assert got.conductor == 997 and list(got.coeffs) == expected
    # the per-term sum costs a field addition per term, so it checks a short one
    short = "5z^996-z^1000+2z^3+z^3-7/2"
    assert parse_cyclotomic(short, 997) == oracle_parse_cyclotomic(short, 997)


# -- generators for Light's test -------------------------------------------------------

def _relabelled(elements, compose, rng):
    """The table of a group with its non-identity elements in random order."""
    rest = elements[1:]
    rng.shuffle(rest)
    return group_from_elements([elements[0]] + rest, compose, str).mul


def test_greedy_generators_match_the_incremental_closure():
    rng = random.Random(11)
    tables = [cyclic_group(2).mul, symmetric_group_3().mul, dihedral_group(4).mul]
    for n in range(1, 121):
        tables.append(_relabelled(list(range(n)), lambda a, b, n=n: (a + b) % n, rng))
    for n in range(1, 61):
        elements = [(r, s) for s in (0, 1) for r in range(n)]
        tables.append(_relabelled(elements, lambda x, y, n=n: (
            (x[0] + (y[0] if x[1] == 0 else -y[0])) % n, x[1] ^ y[1]), rng))
    for mul in tables:
        assert list(_greedy_generators(mul)) == oracle_greedy_generators(mul)


def test_greedy_generators_match_on_tables_that_are_not_groups():
    rng = random.Random(12)
    for _ in range(300):
        n = rng.randint(1, 12)
        mul = [[rng.randrange(n) for _ in range(n)] for _ in range(n)]
        mul[0] = list(range(n))
        for row, i in zip(mul, range(n)):
            row[0] = i
        assert list(_greedy_generators(mul)) == oracle_greedy_generators(mul)


# -- quilt orbits ----------------------------------------------------------------------

@st.composite
def quilt_tables(draw):
    """A cyclic or dihedral table of order up to 40, its non-identity
    elements in a drawn order."""
    if draw(st.booleans()):
        n = draw(st.integers(1, 40))
        elements = list(range(n))

        def compose(a, b):
            return (a + b) % n
    else:
        n = draw(st.integers(1, 20))
        elements = [(r, s) for s in (0, 1) for r in range(n)]

        def compose(x, y):
            return (x[0] + (y[0] if x[1] == 0 else -y[0])) % n, x[1] ^ y[1]
    rest = draw(st.permutations(elements[1:]))
    return group_from_elements([elements[0], *rest], compose, str)


@settings(max_examples=150, deadline=None)
@given(quilt_tables(), st.data())
def test_quilt_orbit_matches_the_four_neighbour_closure(table, data):
    index = st.integers(0, table.order - 1)
    for pair in data.draw(st.lists(st.tuples(index, index), min_size=1, max_size=4)):
        assert quilt_orbit(pair, table) == oracle_quilt_orbit(pair, table)


@settings(max_examples=80, deadline=None)
@given(quilt_tables())
def test_quilt_orbits_match_the_min_remaining_partition(table):
    assert quilt_orbits(table) == oracle_quilt_orbits(table)


def _gl32():
    """GL(3, 2) from the 168 invertible 3x3 matrices over F2, row-major."""
    def det(m):
        return (m[0] * (m[4] * m[8] - m[5] * m[7]) - m[1] * (m[3] * m[8] - m[5] * m[6])
                + m[2] * (m[3] * m[7] - m[4] * m[6])) % 2

    identity = (1, 0, 0, 0, 1, 0, 0, 0, 1)
    matrices = [m for m in itertools.product((0, 1), repeat=9) if det(m) and m != identity]

    def compose(a, b):
        return tuple(sum(a[3 * i + k] * b[3 * k + j] for k in range(3)) % 2
                     for i in range(3) for j in range(3))

    return group_from_elements([identity, *matrices], compose,
                               lambda m: "".join(map(str, m)))


@pytest.mark.parametrize("table", [cyclic_group(2), symmetric_group_3(), dihedral_group(4),
                                   _gl32()], ids=["z2", "s3", "d4", "gl32"])
def test_quilt_orbits_match_on_named_groups(table):
    orbits = quilt_orbits(table)
    assert orbits == oracle_quilt_orbits(table)
    rng = random.Random(table.order)
    for _ in range(20):
        pair = (rng.randrange(table.order), rng.randrange(table.order))
        assert quilt_orbit(pair, table) == oracle_quilt_orbit(pair, table)
    if table.order == 168:
        assert len(orbits) == 623


def test_quilt_orbit_refuses_a_pair_outside_the_table():
    for pair in ((0, 6), (6, 0), (-1, 0), (0, -1)):
        with pytest.raises(ValueError, match="element indices"):
            quilt_orbit(pair, symmetric_group_3())


# the label x is a prefix of x), and ")" sorts below ","
_C4_WITH_PREFIXES = "order: 4\ne x x) z)\nx x) z) e\nx) z) e x\nz) e x x)\n"
# with the label x,y the pair text (x,y,z)) would read as (x, y,z)) and (x,y, z))
_C4_WITH_A_COMMA = "order: 4\ne x x,y z)\nx x,y z) e\nx,y z) e x\nz) e x x,y\n"


@pytest.mark.parametrize("name, text, starts", [
    ("c4", _C4_WITH_PREFIXES, ["z),x", "x,e", "e,e"]),
    ("c120", emit_group_table(cyclic_group(120)), ["g5,g7", "g,e", "g60,g30", "e,e"]),
    ("d60", emit_group_table(dihedral_group(60)), ["f,r1", "r3,r7f", "r20,r30", "e,f"]),
    ("c1", "order: 1\ne\n", ["e,e"]),
    # no text: the built-in group of that name
    ("z2", None, ["g,e", "e,g", "g,g", "e,e"]),
], ids=["c4", "c120", "d60", "c1", "z2"])
def test_quilt_elements_are_the_sorted_pair_texts(capsys, tmp_path, name, text, starts):
    if text is None:
        group, table = name, cyclic_group(2)
    else:
        path = tmp_path / f"{name}.gtab"
        path.write_text(text, encoding="utf-8")
        group, table = str(path), parse_group_table(text)
    for start in starts:
        code, out, err = _run(capsys, "quilt", "--group", group, "--start", start)
        assert (code, err) == (0, "")
        elements = _machine(out)["elements"]
        assert elements == oracle_quilt_elements(table, start), start
        assert out.split("\n")[1] == elements
        if start == "z),x":
            # the label x sorts before x), but the row "(x)," before "(x,"
            assert elements.index("(x),z))") < elements.index("(x,e)")


def test_quilt_refuses_a_label_with_a_comma(capsys, tmp_path):
    with pytest.raises(ParseError, match="label contains ','"):
        parse_group_table(_C4_WITH_A_COMMA)
    path = tmp_path / "c4.gtab"
    path.write_text(_C4_WITH_A_COMMA, encoding="utf-8")
    code, out, err = _run(capsys, "quilt", "--group", str(path), "--start", "z),x")
    assert (code, out) == (3, "")
    assert "label contains ','" in err and "line 2" in err


# -- symmetry ------------------------------------------------------------------------

def _number(rng, conductor):
    return CyclotomicNumber(conductor, [rng.randint(-3, 3) for _ in range(euler_phi(conductor))])


_SYMMETRY_CONDUCTORS = (1, 3, 4, 5, 7, 8, 12)


def _coefficient(rng, conductor):
    """A small nonzero-biased coefficient, sometimes rational (conductor 1)
    so that equality crosses conductors, sometimes an explicit zero."""
    roll = rng.random()
    if roll < 0.05:
        return CyclotomicNumber(conductor, [0] * euler_phi(conductor))
    if roll < 0.3 or conductor == 1:
        return CyclotomicNumber.from_rational(rng.randint(-4, 4) or 1)
    return _number(rng, conductor)


def _random_poly(rng):
    """(poly, generalised): random coefficients at random monomials, then
    most often made symmetric (or twisted-symmetric) and perhaps spoiled at
    one monomial."""
    conductor = rng.choice(_SYMMETRY_CONDUCTORS)
    generalised = rng.random() < 0.5
    m = rng.choice([k for k in range(2, 14) if not generalised or math.gcd(k, conductor) == 1])
    degree = rng.randint(1, 5)
    coeffs = {(rng.randint(0, degree), rng.randint(0, degree)): _coefficient(rng, conductor)
              for _ in range(rng.randint(0, 8))}
    if rng.random() < 0.7:
        twist = (lambda c: c.galois(m)) if generalised else (lambda c: c)
        for (i, j), c in sorted(coeffs.items()):
            if i < j:
                coeffs[(j, i)] = twist(c)
            elif i == j and generalised:
                coeffs[(i, i)] = CyclotomicNumber.from_rational(rng.randint(-4, 4))
        if rng.random() < 0.3:
            key = (rng.randint(0, degree), rng.randint(0, degree))
            coeffs[key] = coeffs.get(key, CyclotomicNumber.zero()) + _coefficient(rng, conductor)
    return ModularPolynomial(m, conductor, coeffs, degree, degree), generalised


def test_symmetry_check_matches_the_coefficient_loop():
    rng = random.Random(8)
    symmetric = 0
    for _ in range(3000):
        poly, generalised = _random_poly(rng)
        expected = oracle_symmetry_check(poly, generalised)
        assert symmetry_check(poly, generalised) is expected, (poly, generalised)
        symmetric += expected
    assert 300 < symmetric < 2700


def test_symmetry_check_twist_needs_a_coprime_order():
    # sigma_2 is not defined on Q[xi_4]: the loop and the transpose both refuse
    z = CyclotomicNumber.root_of_unity(4)
    poly = ModularPolynomial(2, 4, {(0, 1): z, (1, 0): z}, 1, 1)
    for check in (symmetry_check, oracle_symmetry_check):
        with pytest.raises(NotCoprime):
            check(poly, generalised=True)


# -- ExpressFailure's first term -------------------------------------------------------

def test_express_failure_carries_the_first_residual_term():
    h = PuiseuxSeries.moonshine([0, 0, 0], trunc=6)
    f = PuiseuxSeries.make({-2: 1, 3: 5, 5: 2}, trunc=6)
    with pytest.raises(ExpressFailure) as err:
        express_in_generator(f, h)
    residual = err.value.residual
    assert err.value.exponent == residual.min_nonzero_exponent() == 3
    assert err.value.coefficient == residual.coefficient(3) == 5
    assert ExpressFailure("no residual").exponent is None


def test_classify_reports_an_express_failure_at_its_first_term():
    # q^-1 + q^2 is no Hauptmodul: e_2 of its order-2 coset roots leaves
    # the residual 2q^5 after pole-killing, and the report names that term
    h = PuiseuxSeries.moonshine([0, 1] + [0] * 20)
    with pytest.raises(ExpressFailure) as err:
        build_modular_polynomial(h, 2)
    residual = err.value.residual
    first = residual.min_nonzero_exponent()
    (_, report), = classify(h, [2]).orders_tested
    assert report.status == "inconsistent"
    assert report.first_failure == (first, 0, residual.coefficient(first)) == (5, 0, 2)


# -- integer literals ------------------------------------------------------------------

_LITERALS = st.one_of(
    st.sampled_from(["-0", "007", "+5", "-12", "1_000", "1__0", "_5", "5_", " 5", "5 ",
                     "\u0665", "-\u0661\u0662", "\u00b2", "+-5", "--5", "+", "-", "",
                     "1/2", "-6/4", "+3/1", "4/0", "0/5", " 1/2", "1.5", "1e3", "0x10",
                     "z", "2z^3", "1-z", "-z^2", "1" * 5000]),
    st.integers(-10**30, 10**30).map(str),
    st.tuples(st.integers(-99, 99), st.integers(0, 99)).map(lambda t: f"{t[0]}/{t[1]}"),
    st.text(alphabet="0123456789+-/_ z^\u0665", max_size=6),
)


def _outcome(text):
    """The emitted series, or the error type, message and line."""
    try:
        series, label = parse_qexp(text)
    except ParseError as exc:
        return type(exc), str(exc), exc.line
    return emit_qexp(series, label), series


@settings(max_examples=300, deadline=None)
@given(conductor=st.sampled_from([1, 3, 24]), literals=st.lists(_LITERALS, max_size=4))
def test_parse_qexp_matches_the_fraction_reader(conductor, literals):
    body = "".join(f"{n} {lit}\n" for n, lit in enumerate(literals, start=1))
    text = f"# qexp v1\nlabel: H\nconductor: {conductor}\ndenom: 1\nlo: -1\ntrunc: 9\n-1 1\n{body}"
    got = _outcome(text)
    with mock.patch.object(qseries, "parse_rational", oracle_parse_rational):
        expected = _outcome(text)
    assert got == expected


@given(_LITERALS)
def test_parse_rational_reads_an_integer_as_an_int(text):
    try:
        expected = oracle_parse_rational(text)
    except ParseError as exc:
        with pytest.raises(ParseError) as err:
            parse_rational(text)
        assert str(err.value) == str(exc)
        return
    got = parse_rational(text)
    assert got == expected
    assert type(got) is (int if text.lstrip("+-").isdecimal() else Fraction)


def oracle_prefix_mismatch(series, stem):
    """The loader's message for the first published coefficient that the
    series gets wrong, one coefficient at a time; None if there is none."""
    literals = PUBLISHED_PREFIXES[stem]
    for n in range(-1, PUBLISHED_DEPTH[stem] + 1):
        if series.coefficient(n) != literals.get(n, 0):
            return (f"{stem}: coefficient of q^{n} is {series.coefficient(n)}, "
                    f"bundled reference says {literals.get(n, 0)}")
    return None


def test_published_prefix_is_compared_as_one_vector(tmp_path, monkeypatch):
    packaged = {stem: load_entry(stem) for stem in PUBLISHED_PREFIXES}
    monkeypatch.setenv("G0WB_DATA", str(tmp_path))
    rng = random.Random(12)
    for stem, entry in packaged.items():
        series, label = entry.series, entry.meta.label
        for _ in range(12):
            h = series
            for _ in range(rng.randint(1, 2)):
                h = _perturbed(h, rng.randint(-1, min(PUBLISHED_DEPTH[stem] + 2, h.trunc)),
                               rng.choice([-3, -1, 1, 2]))
            (tmp_path / f"{stem}.qexp").write_text(emit_qexp(h, label), encoding="utf-8")
            expected = oracle_prefix_mismatch(h, stem)
            if expected is None:
                assert load_entry(stem).series == h
            else:
                with pytest.raises(CorruptCorpus) as err:
                    load_entry(stem)
                assert str(err.value) == expected
    # a term below q^-1 is no published coefficient either
    (tmp_path / "j.qexp").write_text(
        emit_qexp(_perturbed(packaged["j"].series, -2, 1), "J"), encoding="utf-8")
    with pytest.raises(CorruptCorpus, match=r"j: coefficient of q\^-2 is 1, bundled reference says 0"):
        load_entry("j")


# -- the fiction screen ----------------------------------------------------------------

def test_admissible_xi_matches_the_24th_power():
    one = CyclotomicNumber.one()
    cases = [CyclotomicNumber.zero()] + [CyclotomicNumber.from_rational(Fraction(a, b))
                                         for a, b in ((1, 1), (-1, 1), (2, 1), (1, 2), (-1, 3))]
    rng = random.Random(13)
    for n in range(1, 61):
        xi = CyclotomicNumber.root_of_unity(n, 1)
        # every 24th root of unity that is a power of xi_N, and random powers
        for k in range(0, n, n // math.gcd(n, 24)):
            root = CyclotomicNumber.root_of_unity(n, k)
            cases += [root, -root]
        for k in rng.sample(range(n), min(n, 3)):
            root = CyclotomicNumber.root_of_unity(n, k)
            cases += [root, -root, root * 2, root + xi]
    for xi in cases:
        assert _is_admissible_xi(xi) == (xi.is_zero() or xi ** 24 == one), xi


def test_admissible_xi_at_conductor_997_takes_no_power():
    xi = CyclotomicNumber.root_of_unity(997, 1)
    start = time.perf_counter()
    assert not _is_admissible_xi(xi)
    assert time.perf_counter() - start < 0.05


def _random_moonshine(rng, conductor):
    """q^-1 + xi*q, and with probability 1/2 one or two more terms, over
    Q[xi_conductor], determined through q^2..q^40."""
    trunc = rng.randint(2, 40)
    def number():
        return rng.choice([0, 0, 1, -1, Fraction(1, 2), 3]) * CyclotomicNumber.root_of_unity(
            conductor, rng.randrange(conductor))
    coeffs = {-1: 1, 1: number()}
    if rng.random() < 0.5:
        for _ in range(rng.randint(1, 2)):
            coeffs[rng.randint(2, trunc)] = number()
    return PuiseuxSeries.make(coeffs, trunc=trunc, conductor=conductor)


def test_detect_fiction_matches_the_subtraction():
    rng = random.Random(11)
    for conductor in (1, 3, 24):
        for _ in range(200):
            h = _random_moonshine(rng, conductor)
            assert detect_fiction(h) == oracle_detect_fiction(h), h


# -- classify's report from the build --------------------------------------------------

def _perturbed(h, exponent, delta):
    coeffs = dict(h.coeffs)
    coeffs[exponent] = coeffs.get(exponent, 0) + delta
    return PuiseuxSeries.make(coeffs, trunc=h.trunc, conductor=h.conductor)


def _twisted_j(n, depth):
    """h_N = xi_N * J(tau + 1/N)."""
    return PuiseuxSeries.make(
        {k: c * CyclotomicNumber.root_of_unity(n, k + 1)
         for k, c in normalized_j(depth).coeffs.items()}, trunc=depth, conductor=n)


def _classify_cases():
    j120 = normalized_j(120)
    yield from ((f"j120-{m}", j120, m) for m in range(2, 8))
    for stem in PUBLISHED_PREFIXES:
        series = load_entry(stem).series
        yield from ((f"{stem}-{m}", series, m) for m in range(2, 6))
    for stem in ("j", "g0_2"):
        series = load_entry(stem).series
        for exponent, delta in ((1, 1), (4, -7), (23, 2), (series.trunc - 1, -1),
                                (series.trunc, 5)):
            h = _perturbed(series, exponent, delta)
            yield from ((f"{stem}+{delta}q^{exponent}-{m}", h, m) for m in range(2, 6))
    for n, m in ((3, 2), (3, 5), (24, 5)):
        yield f"h{n}-{m}", _twisted_j(n, required_truncation(m)), m


def test_classify_reports_equal_build_then_verify():
    for name, h, m in _classify_cases():
        notes, oracle_notes = [], []
        expected = oracle_test_order(h, m, oracle_notes)
        assert _test_order(h, m, notes) == expected, name
        assert notes == oracle_notes, name
        (order, report), = classify(h, [m]).orders_tested
        assert (order, report) == (m, expected), name


@pytest.mark.parametrize("n, m", [(3, 2), (3, 4), (3, 5), (24, 5), (24, 7)])
def test_twisted_build_bound_is_the_verified_depth(n, m):
    h = _twisted_j(n, required_truncation(m) + 3)
    poly, bound = _build(h, m, True)
    report = verify_modular_equation(h, poly, m, generalised=True)
    assert (report.status, report.verified_to) == ("consistent", bound)


# -- verification on the build's generator ----------------------------------------------

def oracle_verify(h, poly, m, generalised=False):
    """Verification on the full h: every power of h (twisted whole when
    generalised) multiplied out to the depth of h."""
    check_order(m, poly)
    if generalised and math.gcd(m, h.conductor) != 1:
        raise UsageError(f"twisted construction needs gcd(m, {h.conductor}) = 1")
    elementary = list(_coset_elementary(h, m))
    generator = h if not generalised else h.map_coefficients(lambda c: c.galois(m))
    powers = generator._powers(poly.degx)
    verified_to = None
    for t, slice_map in enumerate(poly.y_slices()):
        lhs, sign = elementary[-1 - t], (-1) ** t
        diff = qseries._linear([(c, powers[i]) for i, c in slice_map.items()] + [(-sign, lhs)])
        bound = diff.trunc_exponent()
        verified_to = bound if verified_to is None else min(verified_to, bound)
        if bound < 0:
            return VerificationReport(m, bound, "insufficient-data")
        e = diff.min_nonzero_exponent()
        if e is not None:
            field = math.lcm(h.conductor, poly.conductor)
            expected = (lhs.coefficient(e) * sign).promote(field)
            actual = (expected + diff.coefficient(e)).promote(field)
            return VerificationReport(m, verified_to, "inconsistent",
                                      first_failure=(e, expected, actual))
    return VerificationReport(m, verified_to, "consistent")


def _fresh(h):
    """A copy of h with no cached powers, so neither side reads the other's."""
    return PuiseuxSeries.make(dict(h.coeffs), trunc=h.trunc, conductor=h.conductor)


def _assert_same_verification(h, poly, m, generalised=False):
    report = verify_modular_equation(_fresh(h), poly, m, generalised)
    assert report == oracle_verify(_fresh(h), poly, m, generalised)
    return report


@pytest.mark.parametrize("m", range(2, 13))
def test_verify_matches_the_full_generator_on_j(m):
    h = normalized_j(required_truncation(m))
    report = _assert_same_verification(h, build_modular_polynomial(h, m), m)
    assert report.status == "consistent"


def test_verify_matches_the_full_generator_on_perturbed_and_shallow_series():
    for stem, orders in (("j", (2, 3)), ("g0_2", (3, 5))):
        series = load_entry(stem).series
        for m in orders:
            poly = build_modular_polynomial(series, m)
            assert _assert_same_verification(series, poly, m).status == "consistent"
            for exponent in range(1, 11):
                report = _assert_same_verification(_perturbed(series, exponent, 1), poly, m)
                assert report.status == "inconsistent", (stem, m, exponent)
            # while trunc <= trunc // m + psi(m) the generator is h uncut
            for trunc in range(0, 2 * check_order(m) + 2):
                _assert_same_verification(series.truncate(trunc), poly, m)
            assert _assert_same_verification(
                series.truncate(1), poly, m).status == "insufficient-data"


@pytest.mark.parametrize("n, m", [(3, 2), (3, 5), (24, 5), (24, 7)])
def test_twisted_verify_matches_the_full_generator(n, m):
    h = _twisted_j(n, required_truncation(m))
    poly = build_modular_polynomial(h, m, generalised=True)
    assert _assert_same_verification(h, poly, m, True).status == "consistent"
    assert _assert_same_verification(
        _perturbed(h, 3, 1), poly, m, True).status == "inconsistent"
    assert _assert_same_verification(h, poly, m).status == "inconsistent"


def test_twist_refusal_comes_before_any_expansion():
    j = normalized_j(required_truncation(2))
    h, poly = j.with_conductor(24), build_modular_polynomial(j, 2)
    with mock.patch("g0wb.modeq._coset_elementary") as expand:
        with pytest.raises(UsageError, match=r"gcd\(m, 24\) = 1"):
            verify_modular_equation(h, poly, 2, True)
        with pytest.raises(UsageError, match=r"gcd\(m, 24\) = 1"):
            oracle_verify(h, poly, 2, True)
    assert not expand.called


@pytest.mark.parametrize("key", [(1, 3), (3, 3), (0, 3)])
def test_verify_matches_the_full_generator_on_an_edited_top_slice(key):
    """The y^psi slice, compared with e_0 = 1 last, given an x term or
    its constant term removed."""
    series = load_entry("j").series
    poly = build_modular_polynomial(series, 2)
    coeffs = dict(poly.coeffs)
    coeffs[key] = coeffs.get(key, CyclotomicNumber.zero()) + 1
    if coeffs[key].is_zero():
        del coeffs[key]
    edited = ModularPolynomial(2, 1, coeffs, 3, 3)
    report = _assert_same_verification(series, edited, 2)
    assert report.status == "inconsistent" and report.first_failure[0] <= 0


def test_class_sizes_are_the_weights_at_zero():
    for m in range(2, MAX_ORDER + 1):
        counts = collections.Counter(d for d, _ in coset_set(m).pairs)
        sizes = {d: _class_weights(m, d)[0] for d in range(1, m + 1) if m % d == 0}
        assert sizes == counts, m
        assert sum(sizes.values()) == len(coset_set(m)) == check_order(m), m


# -- value reports ---------------------------------------------------------------------

def _run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _machine(out):
    return dict(line.split("=", 1) for line in out.split("---\n", 1)[1].splitlines())


@pytest.mark.parametrize("argv, name", [
    (("eta", "--tau", "0.1,1.3", "--terms", "60"), "eta(0.1,1.3)"),
    (("eisenstein", "--k", "4", "--tau", "0,1", "--radius", "20"), "E4(0,1)"),
])
def test_value_reports_without_law(capsys, argv, name):
    code, out, err = _run(capsys, *argv)
    assert code == 0 and err == ""
    line, separator, _ = out.partition("\n")
    assert separator and out.count("\n") == 5
    block = _machine(out)
    assert list(block) == ["value_re", "value_im", "tail"]
    value = complex(float(block["value_re"]), float(block["value_im"]))
    tail = float(block["tail"])
    assert line.startswith(f"{name} = ")
    assert line.endswith(f"  (tail {tail:.3e})")
    assert "terms" not in line
    assert value != 0 and tail >= 0


# -- corpus oracles ----------------------------------------------------------------------

def oracle_dict_mul(a, b, top):
    out = {}
    for u, x in a.items():
        for v, y in b.items():
            if u + v <= top:
                out[u + v] = out.get(u + v, 0) + x * y
    return {k: v for k, v in out.items() if v}


def oracle_dict_pow(base, exponent, top):
    result, b, e = {0: 1}, dict(base), exponent
    while e:
        if e & 1:
            result = oracle_dict_mul(result, b, top)
        e >>= 1
        if e:
            b = oracle_dict_mul(b, b, top)
    return result


def oracle_dict_invert(series, top):
    """Inverse of a series with constant term 1, through q^top."""
    inv = {0: 1}
    for n in range(1, top + 1):
        acc = sum(v * inv.get(n - k, 0) for k, v in series.items() if 0 < k <= n)
        if acc:
            inv[n] = -acc
    return inv


def oracle_euler_product(step, top):
    """prod_{n>=1} (1 - q^(step*n)) through q^top."""
    out = {0: 1}
    for n in range(step, top + 1, step):
        out = oracle_dict_mul(out, {0: 1, n: -1}, top)
    return out


def oracle_sigma(n, power):
    return sum(d ** power for d in range(1, n + 1) if n % d == 0)


def oracle_eta_product_series(factors):
    product = oracle_euler_product(1, factors)
    return PuiseuxSeries(1, 24, 1, 24 * factors + 1, {24 * n + 1: c for n, c in product.items()})


def _shifted(q_series, constant, depth):
    """q^-1 * q_series + constant, through q^depth."""
    shifted = {k - 1: v for k, v in q_series.items() if k - 1 <= depth}
    shifted[0] = shifted.get(0, 0) + constant
    return PuiseuxSeries.make({k: v for k, v in shifted.items() if v}, trunc=depth)


def oracle_normalized_j(depth):
    """E4^3 / Delta - 744, E4 from its divisor sums and Delta inverted."""
    top = depth + 2
    e4 = {0: 1, **{n: 240 * oracle_sigma(n, 3) for n in range(1, top + 1)}}
    numerator = oracle_dict_pow(e4, 3, top)
    unit = oracle_dict_pow(oracle_euler_product(1, top), 24, top)
    return _shifted(oracle_dict_mul(numerator, oracle_dict_invert(unit, top), top), -744, depth)


def oracle_eta_quotient_level2(depth):
    """(eta(tau) / eta(2 tau))^24 + 24, as a quotient of two 24th powers."""
    top = depth + 2
    num = oracle_dict_pow(oracle_euler_product(1, top), 24, top)
    den = oracle_dict_pow(oracle_euler_product(2, top), 24, top)
    return _shifted(oracle_dict_mul(num, oracle_dict_invert(den, top), top), 24, depth)


@pytest.mark.parametrize("depth", [*range(41), 64, 100, 300])
def test_hauptmodul_oracles_match_the_dict_construction(depth):
    assert emit_qexp(normalized_j(depth), "J") == emit_qexp(oracle_normalized_j(depth), "J")
    assert (emit_qexp(eta_quotient_level2(depth), "T")
            == emit_qexp(oracle_eta_quotient_level2(depth), "T"))


@pytest.mark.parametrize("factors", [1, 2, 3, 10, 50, 120, 300])
def test_eta_product_matches_the_dict_construction(factors):
    assert (emit_qexp(eta_product_series(factors), "E")
            == emit_qexp(oracle_eta_product_series(factors), "E"))


def oracle_euler_power(weights, top):
    """prod_n (1 - q^n)^weights[n] as a product of dict powers, a negative
    weight by inverting the power."""
    out = {0: 1}
    for n, w in enumerate(weights[1:], 1):
        power = oracle_dict_pow({0: 1, n: -1}, abs(w), top)
        out = oracle_dict_mul(out, power if w >= 0 else oracle_dict_invert(power, top), top)
    return [out.get(k, 0) for k in range(top + 1)]


def test_euler_power_matches_the_dict_product():
    rng = random.Random(18)
    for _ in range(60):
        top = rng.randint(0, 24)
        weights = [0] + [rng.randint(-30, 30) if rng.random() < 0.7 else 0 for _ in range(top)]
        assert _euler_power(weights.__getitem__, top) == oracle_euler_power(weights, top), weights


# -- exactnum helpers: promotion, trims, division ----------------------------------------------

def oracle_promote(vec, basis, target, power=1):
    """Each basis entry i scattered through the power-table row of its
    image xi^(i * power * target / basis)."""
    if basis == target and power == 1 or not vec:
        return vec
    phi, wide, table = euler_phi(basis), euler_phi(target), _power_table(target)
    out = [0] * (len(vec) // phi * wide)
    for i in range(phi):
        for j, r in enumerate(table[i * power * (target // basis) % target]):
            if r:
                out[j::wide] = map(add, out[j::wide], map(mul, vec[i::phi], repeat(r)))
    return out


def test_promote_matches_the_row_scatter():
    rng = random.Random(12)
    for target in range(1, 121):
        for basis in (d for d in range(1, target + 1) if target % d == 0):
            phi = euler_phi(basis)
            for power in (p for p in range(1, basis + 1) if math.gcd(p, basis) == 1):
                vec = [rng.randint(-9, 9) for _ in range(phi * rng.randint(0, 2))]
                got = _promote(vec, basis, target, power)
                assert got == oracle_promote(vec, basis, target, power), (basis, target, power)


def oracle_format_exponent(value):
    e = Fraction(value)
    return str(e.numerator) if e.denominator == 1 else f"{e.numerator}/{e.denominator}"


@settings(max_examples=300, deadline=None)
@given(st.fractions() | st.integers())
def test_format_rational_matches_the_exponent_text(value):
    assert format_rational(value) == oracle_format_exponent(value)


def oracle_trim(p):
    """The loop of the remainder trim, the Euclid trim and ``from_list``."""
    p = list(p)
    while p and p[-1] == 0:
        p.pop()
    return p


def oracle_poly_divmod(num, den):
    num, lead = list(num), den[-1]
    q = [0] * max(len(num) - len(den) + 1, 0)
    for shift in range(len(num) - len(den), -1, -1):
        c = num[shift + len(den) - 1]
        q[shift] = c = c if lead == 1 else c / lead
        if c:
            for i, d in enumerate(den):
                num[shift + i] -= c * d
    return q, oracle_trim(num[: len(den) - 1])


def oracle_half_ext_gcd(a, modulus):
    r0, r1 = oracle_trim(a), oracle_trim(modulus)
    s0, s1 = [Fraction(1)], []
    while r1:
        q, r = oracle_poly_divmod(r0, r1)
        r0, r1 = r1, r
        qs = _convolve(q, s1, len(q) + len(s1) - 1) if q and s1 else []
        s0, s1 = s1, oracle_trim(map(sub, s0 + [0] * (len(qs) - len(s0)),
                                     qs + [0] * (len(s0) - len(qs))))
    return r0, s0


def oracle_from_list(values):
    coeffs = [v if isinstance(v, CyclotomicNumber) else CyclotomicNumber.from_rational(v)
              for v in values]
    while coeffs and coeffs[-1].is_zero():
        coeffs.pop()
    return UnivariatePoly(tuple(coeffs))


def _zero_tailed(rng, entry):
    """A list of 0-6 entries followed by 0-4 zeros; some lists are all zero."""
    head = [entry() for _ in range(rng.randint(0, 6))]
    return head + [0] * rng.randint(0, 4)


def test_trims_match_the_loops():
    rng = random.Random(14)
    rationals = lambda: rng.choice([0, 0, 1, -3, Fraction(2, 7), Fraction(-5, 3)])
    for _ in range(400):
        values = _zero_tailed(rng, rationals)
        assert _trim(values) == oracle_trim(values)
        den = _zero_tailed(rng, rationals) + [rng.choice([1, 2, Fraction(-3, 4)])]
        assert _poly_divmod(values, den) == oracle_poly_divmod(values, den)
    for n in (3, 5, 8, 12, 24):
        modulus = [Fraction(c) for c in cyclotomic_polynomial(n)]
        for _ in range(20):
            a = [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(euler_phi(n))]
            if any(a):
                assert _half_ext_gcd(a, modulus) == oracle_half_ext_gcd(a, modulus)


def test_from_list_matches_the_loop():
    rng = random.Random(15)
    for conductor in (1, 3, 5, 8, 24):
        zero = CyclotomicNumber(conductor, [0] * euler_phi(conductor))
        for _ in range(50):
            number = lambda: rng.choice(
                [0, zero, Fraction(1, 2), CyclotomicNumber.root_of_unity(conductor, 1) * 3])
            values = _zero_tailed(rng, number) + [zero] * rng.randint(0, 3)
            got = UnivariatePoly.from_list(values)
            assert got == oracle_from_list(values)
            assert [c.conductor for c in got.coeffs] == [
                c.conductor for c in oracle_from_list(values).coeffs]


def test_division_is_the_product_with_the_inverse():
    rng = random.Random(16)
    for conductor in (1, 3, 8, 24):
        phi = euler_phi(conductor)
        for _ in range(30):
            a, b = (CyclotomicNumber(conductor, [Fraction(rng.randint(-6, 6), rng.randint(1, 4))
                                                 for _ in range(phi)]) for _ in range(2))
            if b.is_zero():
                continue
            quotient = a / b
            assert quotient == a * b.inverse() and quotient * b == a
            assert quotient.conductor == conductor
            assert 5 / b == b.inverse() * 5
        with pytest.raises(ZeroDivisionError):
            CyclotomicNumber.root_of_unity(conductor, 1) / 0
    assert (CyclotomicNumber.from_rational(Fraction(3, 4)) / Fraction(-9, 2)).coeffs == (
        Fraction(-1, 6),)


# -- report rendering ------------------------------------------------------------------

def oracle_verification_body(rep):
    lines = []
    if rep.status == "consistent":
        lines.append(f"CONSISTENT to q^{oracle_format_exponent(rep.verified_to)}")
    elif rep.status == "inconsistent":
        e, expected, actual = rep.first_failure
        lines.append(f"INCONSISTENT at q^{oracle_format_exponent(e)}")
        lines.append(f"  expected {expected.literal()}")
        lines.append(f"  actual   {actual.literal()}")
    else:
        lines.append("INSUFFICIENT DATA")
        lines.append(f"  determined only through q^{oracle_format_exponent(rep.verified_to)};"
                     " supply a deeper expansion")
    return "\n".join(lines)


def oracle_verification_machine(rep):
    pairs = [("order", str(rep.order)), ("status", rep.status),
             ("verified_to", oracle_format_exponent(rep.verified_to))]
    if rep.first_failure is not None:
        e, expected, actual = rep.first_failure
        pairs.append(("failure_exponent", oracle_format_exponent(e)))
        pairs.append(("failure_expected", expected.literal()))
        pairs.append(("failure_actual", actual.literal()))
    return pairs


def oracle_fiction_shape(xi):
    if xi.is_zero():
        return "q^{-1}"
    if xi == 1:
        return "q^{-1}+q"
    if xi == -1:
        return "q^{-1}-q"
    return f"q^{{-1}}+({xi.literal()})q"


def oracle_classification_sections(c):
    lines = [f"verdict: {c.verdict}"]
    if c.fiction_xi is not None:
        lines.append(f"modular fiction: {oracle_fiction_shape(c.fiction_xi)}")
    sections = [("classification", "\n".join(lines))]
    for m, rep in c.orders_tested:
        sections.append((f"order {m}", oracle_verification_body(rep)))
    if c.notes:
        sections.append(("notes", c.notes))
    return sections


def oracle_classification_machine(c):
    verified = [rep.verified_to for _, rep in c.orders_tested]
    pairs = [
        ("verdict", c.verdict),
        ("xi", c.fiction_xi.literal() if c.fiction_xi is not None else "none"),
        ("orders", ",".join(str(m) for m, _ in c.orders_tested)),
        ("verified_to", oracle_format_exponent(min(verified)) if verified else ""),
    ]
    for m, rep in c.orders_tested:
        pairs.append((f"order_{m}_status", rep.status))
    return pairs


def oracle_panel_sections(panel):
    width = max((len(r.label) for r in panel.rows), default=0)
    lines = []
    for row in panel.rows:
        verdict = "pass" if row.passed else "FAIL"
        lines.append(f"{row.label.ljust(width)}  residual {row.residual:.3e}"
                     f"  (tolerance {row.tolerance:.1e})  {verdict}")
    if panel.notes:
        lines.append(panel.notes)
    return [(panel.title, "\n".join(lines))]


def oracle_panel_machine(panel):
    pairs = [("rows", str(len(panel.rows)))]
    for i, row in enumerate(panel.rows, 1):
        pairs.append((f"label_{i}", row.label))
        pairs.append((f"residual_{i}", f"{row.residual:.6e}"))
        pairs.append((f"pass_{i}", "true" if row.passed else "false"))
    return pairs


def oracle_render_text(obj, footnotes=()):
    if isinstance(obj, VerificationReport):
        sections = [(f"order-{obj.order} modular equation", oracle_verification_body(obj))]
        machine = oracle_verification_machine(obj)
    elif isinstance(obj, Classification):
        sections = oracle_classification_sections(obj)
        machine = oracle_classification_machine(obj)
    elif isinstance(obj, KappaSelection):
        sections, machine = oracle_panel_sections(obj.panel), oracle_panel_machine(obj.panel)
        machine.append(("winner", str(obj.winner) if obj.winner is not None else "none"))
    else:
        sections, machine = oracle_panel_sections(obj), oracle_panel_machine(obj)
    return RenderedReport(tuple(sections), tuple(footnotes), tuple(machine)).text()


def _reports():
    xi = CyclotomicNumber.root_of_unity(24, 5)
    yield VerificationReport(3, Fraction(41), "consistent")
    yield VerificationReport(2, Fraction(-7, 2), "inconsistent",
                             first_failure=(Fraction(-7, 2), CyclotomicNumber.zero(), xi * 3))
    yield VerificationReport(5, Fraction(17, 24), "inconsistent",
                             first_failure=(Fraction(1), xi, CyclotomicNumber.from_rational(-2)))
    yield VerificationReport(4, Fraction(-1), "insufficient-data")


def _classifications():
    for xi in [CyclotomicNumber.zero(), CyclotomicNumber.one(), -CyclotomicNumber.one()] + [
            CyclotomicNumber.root_of_unity(24, k) for k in (1, 5, 8, 12, 23)]:
        yield Classification("fiction", fiction_xi=xi, notes=f"exactly {xi.literal()}")
    reports = list(_reports())
    yield Classification("hauptmodul-candidate", orders_tested=((3, reports[0]),),
                         notes="consistent at orders [3]")
    yield Classification("inconsistent", orders_tested=tuple(zip((2, 3, 5), reports[:3])))
    yield Classification("undetermined", orders_tested=((3, reports[0]), (4, reports[3])),
                         notes="order 4: need input determined through q^38")
    yield Classification("undetermined", notes="no orders requested")
    j = load_entry("j").series
    yield classify(j, [2, 3])
    yield classify(_perturbed(j, 4, -7), [2])
    yield classify(j, [])
    yield classify(PuiseuxSeries.make({-1: 1, 1: 1}, trunc=64), [2])


def _panels():
    rows = (ResidualRow("S", 1.5e-13, 1e-9, True), ResidualRow("ST^-1 long", 0.25, 1e-9, False))
    yield ResidualPanel("eta law", rows, notes="two rows")
    yield ResidualPanel("empty", ())
    yield KappaSelection(Fraction(1, 24), ResidualPanel("kappa", rows))
    yield KappaSelection(None, ResidualPanel("kappa", rows[1:], notes="no winner"))
    yield select_eta_kappa(terms=60)


def test_render_matches_the_two_helpers_per_type():
    for obj in [*_reports(), *_classifications(), *_panels()]:
        for footnotes in ((), ("q^-1..q^3: published reference expansion",)):
            assert render(obj, footnotes).text() == oracle_render_text(obj, footnotes), obj


def _roots_of_24(n):
    """The 24th roots of unity of Q[xi_n]; every root of unity there is
    +-xi_n^k."""
    one = CyclotomicNumber.one()
    roots = [sign * CyclotomicNumber.root_of_unity(n, k) for k in range(n) for sign in (1, -1)]
    return [root for root in roots if root ** 24 == one]


def test_fiction_shape_matches_the_if_chain():
    cases = [CyclotomicNumber.zero(), CyclotomicNumber.one(), -CyclotomicNumber.one()]
    for n in (1, 2, 3, 4, 5, 6, 7, 8, 12, 24, 60):
        roots = _roots_of_24(n)
        assert len({root.literal() for root in roots}) == math.gcd(24, n if n % 2 == 0 else 2 * n)
        cases += roots
    for xi in cases:
        c = Classification("fiction", fiction_xi=xi)
        assert render(c).text() == oracle_render_text(c), xi


def oracle_emit(body, machine):
    """The writer of the former ``cli._emit``; every caller passes a
    non-empty body."""
    pairs = "\n".join(f"{k}={v}" for k, v in machine)
    return f"{body}\n---\n{pairs}\n"


@pytest.mark.parametrize("body", ["degree(s1 s2) = 2", "k = 1: holds\nk = 2: FAILS", "x\n\ny"])
def test_machine_block_matches_the_emit_writer(body):
    for machine in ([("degree", 2)], [("order", "2"), ("status", "consistent"), ("n", -1)]):
        assert _with_machine_block(body, machine) == oracle_emit(body, machine)


# -- polynomial text -------------------------------------------------------------------

def oracle_format_literal(coeffs):
    if not any(coeffs[1:]):
        return format_rational(coeffs[0])
    parts = []
    for power, c in enumerate(coeffs):
        if c == 0:
            continue
        mag = format_rational(abs(c))
        if power == 0:
            body = mag
        else:
            zterm = "z" if power == 1 else f"z^{power}"
            body = zterm if mag == "1" else mag + zterm
        sign = "-" if c < 0 else ("+" if parts else "")
        parts.append(sign + body)
    return "".join(parts)


def _text_or_refusal(write, value):
    try:
        return write(value)
    except G0wbError as exc:
        return type(exc), str(exc)


_LIMIT = sys.get_int_max_str_digits()

# ints of LIMIT - 1, LIMIT or LIMIT + 1 digits: the last refuse as text
_NEAR_LIMIT = st.builds(lambda sign, digits, k: sign * (10 ** (digits - 1) + k),
                        st.sampled_from([1, -1]), st.sampled_from([_LIMIT - 1, _LIMIT, _LIMIT + 1]),
                        st.integers(0, 10 ** 6))
_POWER_BASIS = st.sampled_from([0, 0, 1, -1]) | st.integers() | st.fractions() | _NEAR_LIMIT


@settings(max_examples=300, deadline=None)
@given(st.lists(_POWER_BASIS, min_size=1, max_size=8).map(tuple))
def test_format_literal_matches_the_term_loop(coeffs):
    assert _text_or_refusal(format_literal, coeffs) == _text_or_refusal(oracle_format_literal,
                                                                        coeffs)


def oracle_univariate_text(poly):
    if not poly.coeffs:
        return "0"
    parts = []
    for j in range(poly.degree(), -1, -1):
        c = poly.coefficient(j)
        if c.is_zero():
            continue
        lit = c.literal()
        if j == 0:
            body = lit
        else:
            xpow = "x" if j == 1 else f"x^{j}"
            if lit == "1":
                body = xpow
            elif lit == "-1":
                body = "-" + xpow
            elif any(ch in lit[1:] for ch in "+-") or "z" in lit:
                body = f"({lit}){xpow}"
            else:
                body = lit + xpow
        if parts and not body.startswith("-"):
            parts.append("+" + body)
        else:
            parts.append(body)
    return "".join(parts)


def _text_coefficient(rng, conductor):
    """Zero, +-1, a rational, a root of unity or a random element of
    Q[xi_conductor]."""
    roll = rng.randrange(6)
    if roll == 0:
        return CyclotomicNumber(conductor, [0] * euler_phi(conductor))
    if roll == 1:
        return CyclotomicNumber.from_rational(rng.choice([1, -1]))
    if roll == 2:
        return CyclotomicNumber.from_rational(Fraction(rng.randint(-9, 9), rng.randint(1, 4)))
    if roll == 3:
        return rng.choice([1, -1]) * CyclotomicNumber.root_of_unity(conductor, rng.randrange(conductor))
    return CyclotomicNumber(conductor, [Fraction(rng.randint(-3, 3), rng.randint(1, 2))
                                        for _ in range(euler_phi(conductor))])


def test_univariate_text_matches_the_term_loop():
    zero = CyclotomicNumber.zero()
    assert str(UnivariatePoly(())) == oracle_univariate_text(UnivariatePoly(())) == "0"
    assert str(UnivariatePoly((zero, zero))) == oracle_univariate_text(
        UnivariatePoly((zero, zero))) == "0"
    rng = random.Random(17)
    for conductor in (1, 3, 4, 5, 8, 12, 24):
        for _ in range(150):
            coeffs = [_text_coefficient(rng, conductor) for _ in range(rng.randint(0, 7))]
            for poly in (UnivariatePoly(tuple(coeffs)), UnivariatePoly.from_list(coeffs)):
                assert str(poly) == oracle_univariate_text(poly), poly.coeffs


def oracle_series_repr(series):
    items = series.nonzero_items()
    terms = []
    for n, c in items[:6]:
        e = Fraction(n, series.denom)
        lit = c.literal()
        if "+" in lit[1:] or "-" in lit[1:] or "z" in lit:
            lit = f"({lit})"
        terms.append(f"{lit}*q^({e})" if e != 0 else lit)
    if len(items) > 6:
        terms.append("...")
    body = " + ".join(terms) if terms else "0"
    return f"<series {body} | O(q^({series.trunc_exponent()}))>"


def test_series_repr_matches_the_parenthesis_test():
    rng = random.Random(18)
    for conductor in (1, 3, 8, 24):
        for _ in range(150):
            trunc = rng.randint(-2, 12)
            coeffs = {rng.randint(-4, trunc): _text_coefficient(rng, conductor)
                      for _ in range(rng.randint(0, 9))}
            series = PuiseuxSeries.make(coeffs, trunc=trunc, denom=rng.choice([1, 2, 3]),
                                        conductor=conductor)
            assert repr(series) == oracle_series_repr(series)


# -- the Eisenstein tail's gap ---------------------------------------------------------

def oracle_square_boundary_gap(t):
    """The least |x*t + y| over the two ends and the clamped stationary
    point of each of the four edges."""
    re, im = t.real, t.imag
    best = math.inf
    for s in (1.0, -1.0):
        xs = [-1.0, 1.0]
        denom = re * re + im * im
        if denom > 0:
            xs.append(max(-1.0, min(1.0, -s * re / denom)))
        for x in xs:
            best = min(best, abs(x * t + s))
    for s in (1.0, -1.0):
        ys = [-1.0, 1.0, max(-1.0, min(1.0, -s * re))]
        for y in ys:
            best = min(best, abs(s * t + y))
    return best


def test_square_boundary_gap_matches_the_four_edges():
    rng = random.Random(19)
    points = [complex(re, im) for re in (1e300, -1e300, 0.0, 1.0, -1.0, 0.5, -0.5)
              for im in (0.1, 1.0, 1e5, 1e300)]
    for i in range(100_000):
        if i % 5 == 0:
            # near the unit circle, where the stationary points leave [-1, 1]
            points.append(complex(rng.uniform(-2.0, 2.0), rng.uniform(0.1, 2.0)))
            continue
        im = 10 ** rng.uniform(-1, 5)
        scale = (1.0, 10.0, 1e6, im * im)[i % 4]
        points.append(complex(rng.uniform(-scale, scale), im))
    for t in points:
        assert _square_boundary_gap(t) == oracle_square_boundary_gap(t), t


# -- canonical polynomials -----------------------------------------------------------

def oracle_scale(coeffs, factor):
    return {key: c * factor for key, c in coeffs.items()}


def oracle_apply_galois(coeffs, t):
    return {key: c.galois(t) for key, c in coeffs.items()}


def oracle_transpose(coeffs):
    return {(j, i): c for (i, j), c in coeffs.items()}


def oracle_derivative(coeffs, degx, degy, variable):
    """(coeffs, degx, degy) of dF/dx or dF/dy, zeros filtered after the
    products; any other name gave the zero polynomial of unchanged degrees."""
    out = {}
    for (i, j), c in coeffs.items():
        if variable == "x" and i > 0:
            out[(i - 1, j)] = c * i
        elif variable == "y" and j > 0:
            out[(i, j - 1)] = c * j
    out = {k: v for k, v in out.items() if not v.is_zero()}
    dx = degx - (1 if variable == "x" else 0)
    dy = degy - (1 if variable == "y" else 0)
    return out, max(dx, 0), max(dy, 0)


def oracle_equal(a, b):
    """The union-of-keys comparison of two coefficient maps: a missing key
    reads as zero."""
    zero = CyclotomicNumber.zero()
    return all(a.get(k, zero) == b.get(k, zero) for k in set(a) | set(b))


def oracle_emit_mpoly(m, conductor, coeffs, degx, degy):
    """The mpoly writer that skipped a stored zero."""
    lines = ["# mpoly v1", f"order: {m}", f"conductor: {conductor}", f"degx: {degx}",
             f"degy: {degy}"]
    for (i, j) in sorted(coeffs):
        c = coeffs[(i, j)]
        if c.is_zero():
            continue
        lines.append(f"{i} {j} {c.promote(conductor).literal()}")
    return "\n".join(lines) + "\n"


_CANONICAL_CONDUCTORS = (1, 3, 4, 5, 12, 24)


def _raw_coeffs(rng, conductor, degx, degy):
    """A coefficient map on x^i y^j (i <= degx, j <= degy) of which about a
    third of the entries are explicit zeros, of conductor 1 or of the field."""
    zeros = (CyclotomicNumber.zero(), CyclotomicNumber(conductor, [0] * euler_phi(conductor)))
    return {(rng.randint(0, degx), rng.randint(0, degy)):
            rng.choice(zeros) if rng.random() < 0.35 else _coefficient(rng, conductor)
            for _ in range(rng.randint(0, 10))}


def _assert_matches(poly, coeffs, degx, degy, like):
    """poly stores no zero, equals the oracle's map by the old comparison,
    keeps each coefficient's field and has the oracle's degrees and the
    order and conductor of ``like``."""
    assert not any(c.is_zero() for c in poly.coeffs.values()), poly.coeffs
    assert oracle_equal(poly.coeffs, coeffs), (poly.coeffs, coeffs)
    assert {k: c.conductor for k, c in poly.coeffs.items()} == {
        k: coeffs[k].conductor for k in poly.coeffs}
    assert (poly.m, poly.conductor, poly.degx, poly.degy) == (like.m, like.conductor, degx, degy)


def test_polynomial_methods_match_the_replaced_ones():
    rng = random.Random(29)
    for conductor in _CANONICAL_CONDUCTORS:
        units = [t for t in range(1, 2 * conductor + 2) if math.gcd(t, conductor) == 1]
        for _ in range(120):
            degx, degy = rng.randint(0, 5), rng.randint(0, 5)
            raw = _raw_coeffs(rng, conductor, degx, degy)
            poly = ModularPolynomial(rng.randint(2, 13), conductor, raw, degx, degy)
            _assert_matches(poly, raw, degx, degy, poly)
            for variable in "xy":
                _assert_matches(poly.derivative(variable),
                                *oracle_derivative(raw, degx, degy, variable), poly)
            for factor in (0, 1, -1, Fraction(-3, 2), _coefficient(rng, conductor)):
                _assert_matches(poly.scale(factor), oracle_scale(raw, factor), degx, degy, poly)
            t = rng.choice(units)
            _assert_matches(poly.apply_galois(t), oracle_apply_galois(raw, t), degx, degy, poly)
            _assert_matches(poly.transpose(), oracle_transpose(raw), degy, degx, poly)
            assert poly.scale(0).coeffs == {}


def test_derivative_refuses_a_third_variable():
    poly = GOLDEN_ORDER2
    for variable in ("z", "X", "", "xy"):
        with pytest.raises(ValueError, match="'x' and 'y'"):
            poly.derivative(variable)


def test_polynomial_equality_matches_the_union_of_keys():
    rng = random.Random(30)
    outcomes = collections.Counter()
    for conductor in _CANONICAL_CONDUCTORS:
        zero = CyclotomicNumber(conductor, [0] * euler_phi(conductor))
        for _ in range(240):
            degree = rng.randint(0, 4)
            a = _raw_coeffs(rng, conductor, degree, degree)
            key = (rng.randint(0, degree), rng.randint(0, degree))
            b, wide = dict(a), conductor
            roll = rng.randrange(5)
            if roll == 0:
                b = _raw_coeffs(rng, conductor, degree, degree)
            elif roll == 1:
                b = {k: c for k, c in a.items() if not c.is_zero()}
            elif roll == 2:
                b[key] = zero
            elif roll == 3:
                # the same numbers written on a larger field
                wide = 2 * conductor
                b = {k: c.promote(wide) for k, c in a.items()}
            else:
                b[key] = b.get(key, zero) + _coefficient(rng, conductor)
            expected = oracle_equal(a, b)
            left = ModularPolynomial(2, conductor, a, degree, degree)
            right = ModularPolynomial(2, wide, b, degree, degree)
            assert (left == right) is (right == left) is expected, (a, b)
            outcomes[expected] += 1
    assert min(outcomes.values()) > 300, outcomes


def test_emit_mpoly_matches_the_skipping_writer():
    rng = random.Random(31)
    for conductor in _CANONICAL_CONDUCTORS:
        for _ in range(100):
            m, degx, degy = rng.randint(2, 13), rng.randint(0, 5), rng.randint(0, 5)
            raw = _raw_coeffs(rng, conductor, degx, degy)
            poly = ModularPolynomial(m, conductor, raw, degx, degy)
            text = emit_mpoly(poly)
            assert text == oracle_emit_mpoly(m, conductor, raw, degx, degy)
            assert parse_mpoly(text) == poly


def test_univariate_poly_stores_no_trailing_zero():
    zero = CyclotomicNumber.zero()
    for empty in (UnivariatePoly(()), UnivariatePoly((zero, zero)), UnivariatePoly((0, 0)),
                  UnivariatePoly.from_list([0, zero])):
        assert empty == UnivariatePoly(()) and empty.coeffs == ()
        assert empty.degree() == -1 and str(empty) == "0"
    rng = random.Random(32)
    for conductor in _CANONICAL_CONDUCTORS:
        field_zero = CyclotomicNumber(conductor, [0] * euler_phi(conductor))
        for _ in range(100):
            values = _zero_tailed(rng, lambda: _coefficient(rng, conductor))
            values += [rng.choice((zero, field_zero))] * rng.randint(0, 3)
            poly = UnivariatePoly(tuple(values))
            assert list(poly.coeffs) == oracle_trim(values)
            assert poly == UnivariatePoly.from_list(values) == oracle_from_list(values)
            assert poly.degree() == len(oracle_trim(values)) - 1
            assert str(poly) == oracle_univariate_text(UnivariatePoly(tuple(oracle_trim(values))))
