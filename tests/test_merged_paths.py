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
  (``braid._greedy_generators``).

Also the value reports of ``eta`` and ``eisenstein`` without ``--law``,
which share one emitter with ``eval``."""

import math
import random
import re
import time
from fractions import Fraction

import pytest

from g0wb.braid import (
    _greedy_generators,
    cyclic_group,
    dihedral_group,
    group_from_elements,
    symmetric_group_3,
)
from g0wb.cli import main
from g0wb.errors import ExpressFailure, NotCoprime
from g0wb.exactnum import CyclotomicNumber, euler_phi, parse_cyclotomic
from g0wb.hauptmodul import classify
from g0wb.modeq import (
    ModularPolynomial,
    build_modular_polynomial,
    express_in_generator,
    symmetry_check,
)
from g0wb.qseries import PuiseuxSeries


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
