"""Differential tests of code paths that were merged into one, against the
second copies they replaced, kept here as oracles:

- the symmetry test F(x, y) == F(y, x) (or its sigma_m twist) written out
  coefficient by coefficient, now ``transpose`` and ``apply_galois``;
- the first term of an ExpressFailure residual, now carried by the
  exception itself (``exponent``, ``coefficient``).

Also the value reports of ``eta`` and ``eisenstein`` without ``--law``,
which share one emitter with ``eval``."""

import math
import random

import pytest

from g0wb.cli import main
from g0wb.errors import ExpressFailure, NotCoprime
from g0wb.exactnum import CyclotomicNumber, euler_phi
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
