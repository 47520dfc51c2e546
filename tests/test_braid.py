import cmath
import collections
import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from g0wb.braid import (
    BraidWord,
    ExtendedElement,
    braid_multiplier,
    burau,
    cyclic_group,
    dedekind_sum,
    degree,
    dihedral_group,
    emit_group_table,
    eta_multiplier_matrix,
    eta_multiplier_phase,
    extended_mul,
    lift_braid,
    parse_group_table,
    quilt_orbit,
    quilt_orbits,
    quilt_step,
    sigma_class,
    symmetric_group_3,
)
from g0wb.cli import main
from g0wb.errors import NotUnimodular, ParseError, RequiresPositiveC
from g0wb.exactnum import CyclotomicNumber, _square_and_multiply
from g0wb.matrices import IDENTITY, IntMatrix

HALF_TWIST = BraidWord.parse("s1 s2 s1")
BURAU_S1 = IntMatrix(1, 1, 0, 1)
BURAU_S2 = IntMatrix(1, 0, -1, 1)
EXTENDED_IDENTITY = ExtendedElement(IDENTITY, 0)


def extended_inverse(x):
    return ExtendedElement(x.matrix.inverse(), -x.n)


def extended_pow(x, n):
    """x^n in O(log |n|) products; valid because the extended law is
    associative."""
    return _square_and_multiply(x if n >= 0 else extended_inverse(x), abs(n),
                                EXTENDED_IDENTITY, extended_mul)


def lift_fold(word):
    """The lift as a left fold of extended_mul over the letters' closed-form
    pairs (T^e, 0) and (L^e, sign e)."""
    out = EXTENDED_IDENTITY
    for gen, e in word.letters:
        letter = (ExtendedElement(IntMatrix(1, e, 0, 1), 0) if gen == 1 else
                  ExtendedElement(IntMatrix(1, 0, -e, 1), (e > 0) - (e < 0)))
        out = extended_mul(out, letter)
    return out


def burau_product(word):
    """The projection as the product of the generator images raised to
    their exponents."""
    out = IDENTITY
    for gen, e in word.letters:
        out = out * (BURAU_S1 if gen == 1 else BURAU_S2) ** e
    return out


# words of 0-200 letters (a length drawn first, so long words are common),
# exponents small or up to 10^30 in size
_letters = st.tuples(st.sampled_from([1, 2]),
                     st.one_of(st.integers(-12, 12), st.integers(-10 ** 30, 10 ** 30)))
braid_words = st.integers(0, 200).flatmap(
    lambda k: st.lists(_letters, min_size=k, max_size=k)).map(BraidWord.from_letters)


def random_word(rng, max_len=12):
    return BraidWord.from_letters(
        (rng.choice([1, 2]), rng.choice([-2, -1, 1, 2]))
        for _ in range(rng.randint(0, max_len)))


class TestWords:
    def test_parse_and_print(self):
        word = BraidWord.parse("s1 s2^-3 s1^2")
        assert word.letters == ((1, 1), (2, -3), (1, 2))
        assert str(word) == "s1 s2^-3 s1^2"

    def test_free_reduction(self):
        assert BraidWord.parse("s1 s1^-1").letters == ()
        assert BraidWord.parse("s1 s2 s2^-1 s1").letters == ((1, 2),)

    def test_bad_token(self):
        with pytest.raises(ParseError):
            BraidWord.parse("s3")

    def test_inverse(self):
        word = BraidWord.parse("s1 s2^2")
        assert (word * word.inverse()).letters == ()


class TestDegree:
    def test_examples(self):
        assert degree(BraidWord.parse("s1")) == 1
        assert degree(HALF_TWIST) == 3
        assert degree(BraidWord.parse("s1 s2^-1")) == 0

    def test_invariant_under_relation_and_reduction(self):
        rng = random.Random(11)
        for _ in range(200):
            w = random_word(rng)
            seam = HALF_TWIST * w * BraidWord.parse("s2 s1 s2").inverse()
            assert degree(seam) == degree(w)


class TestBurau:
    def test_generator_images(self):
        assert burau(BraidWord.parse("s1")) == BURAU_S1
        assert burau(BraidWord.parse("s2")) == BURAU_S2

    def test_empty_word(self):
        assert burau(BraidWord.identity()) == IDENTITY

    def test_half_twist(self):
        assert burau(HALF_TWIST) == IntMatrix(0, 1, -1, 0)

    def test_braid_relation(self):
        assert burau(BraidWord.parse("s1 s2 s1")) == burau(BraidWord.parse("s2 s1 s2"))

    def test_lands_in_sl2(self):
        rng = random.Random(5)
        for _ in range(100):
            assert burau(random_word(rng)).det() == 1


class TestMultiplier:
    def test_generator(self):
        assert braid_multiplier(BraidWord.parse("s1")) == CyclotomicNumber.root_of_unity(24)

    def test_degree_24_is_trivial(self):
        assert braid_multiplier(BraidWord.parse("s1^24")) == 1

    def test_full_twist_squared(self):
        assert braid_multiplier(HALF_TWIST ** 4) == -1

    def test_character_property(self):
        rng = random.Random(13)
        for _ in range(100):
            a, b = random_word(rng), random_word(rng)
            assert braid_multiplier(a * b) == braid_multiplier(a) * braid_multiplier(b)


class TestSigmaClass:
    def test_four_cases(self):
        assert sigma_class(IDENTITY) == 0
        assert sigma_class(IntMatrix(1, 0, -1, 1)) == 1
        assert sigma_class(IntMatrix(-1, 0, 0, -1)) == 2
        assert sigma_class(IntMatrix(0, -1, 1, 0)) == 3

    def test_requires_unimodular(self):
        with pytest.raises(NotUnimodular):
            sigma_class(IntMatrix(2, 0, 0, 1))


class TestExtendedGroup:
    def test_identity_law(self):
        a = ExtendedElement(IntMatrix(1, 0, -1, 1), 1)
        assert extended_mul(EXTENDED_IDENTITY, a) == a
        assert extended_mul(a, EXTENDED_IDENTITY) == a

    def test_quarter_turn_squares(self):
        s = ExtendedElement(IntMatrix(0, -1, 1, 0), 3)
        s2 = extended_mul(s, s)
        assert s2 == ExtendedElement(IntMatrix(-1, 0, 0, -1), 6)
        assert extended_mul(s2, s2) == ExtendedElement(IDENTITY, 12)

    def test_invariant_enforced(self):
        with pytest.raises(ValueError):
            ExtendedElement(IDENTITY, 1)

    def test_inverse(self):
        rng = random.Random(3)
        for _ in range(200):
            x = lift_braid(random_word(rng))
            assert extended_mul(x, extended_inverse(x)) == EXTENDED_IDENTITY
            assert extended_mul(extended_inverse(x), x) == EXTENDED_IDENTITY

    def test_associativity_battery(self):
        rng = random.Random(77)
        for _ in range(2000):
            x, y, z = (lift_braid(random_word(rng)) for _ in range(3))
            assert extended_mul(extended_mul(x, y), z) == extended_mul(x, extended_mul(y, z))

    def test_projection_intertwines(self):
        rng = random.Random(21)
        for _ in range(200):
            a, b = random_word(rng), random_word(rng)
            prod = extended_mul(lift_braid(a), lift_braid(b))
            assert prod.matrix == burau(a) * burau(b)


class TestLift:
    def test_relation_agreement(self):
        assert lift_braid(BraidWord.parse("s1 s2 s1")) == \
            lift_braid(BraidWord.parse("s2 s1 s2")) == \
            ExtendedElement(IntMatrix(0, 1, -1, 0), 1)

    def test_full_twist_squared_detects_kernel(self):
        lifted = lift_braid(HALF_TWIST ** 4)
        assert lifted == ExtendedElement(IDENTITY, 4)
        assert burau(HALF_TWIST ** 4) == IDENTITY
        assert lifted != EXTENDED_IDENTITY

    def test_empty_word(self):
        assert lift_braid(BraidWord.identity()) == EXTENDED_IDENTITY

    def test_relation_safe_exhaustively(self):
        # any single application of the defining relation inside a short
        # positive word leaves the lift unchanged
        gens = [(1, 1), (1, -1), (2, 1), (2, -1)]
        for length in range(0, 4):
            for prefix in itertools.product(gens, repeat=length):
                left = BraidWord.from_letters(prefix) * BraidWord.parse("s1 s2 s1")
                right = BraidWord.from_letters(prefix) * BraidWord.parse("s2 s1 s2")
                assert lift_braid(left) == lift_braid(right)

    def test_matrix_component_is_projection(self):
        rng = random.Random(9)
        for _ in range(300):
            w = random_word(rng)
            assert lift_braid(w).matrix == burau(w)


class TestPowers:
    def test_extended_pow_matches_repeated_product(self):
        rng = random.Random(5)
        for _ in range(40):
            x = lift_braid(random_word(rng, max_len=5))
            for n in (1, -1):
                step = x if n > 0 else extended_inverse(x)
                out = EXTENDED_IDENTITY
                for k in range(18):
                    assert extended_pow(x, n * k) == out
                    out = extended_mul(out, step)

    def test_word_pow_matches_repeated_concatenation(self):
        rng = random.Random(6)
        for _ in range(40):
            w = random_word(rng, max_len=5)
            for n in range(-9, 10):
                base = w if n >= 0 else w.inverse()
                out = BraidWord.identity()
                for _ in range(abs(n)):
                    out = out * base
                assert w ** n == out

    def test_huge_generator_power_takes_log_time(self):
        n = 10**9
        for gen, matrix in ((1, IntMatrix(1, n, 0, 1)), (2, IntMatrix(1, 0, -n, 1))):
            word = BraidWord.from_letters([(gen, n)])
            lifted = lift_braid(word)
            assert lifted.matrix == burau(word) == matrix
            assert lifted.n % 4 == sigma_class(matrix)
            assert lift_braid(word.inverse()) == extended_inverse(lifted)


def residue_tau(a, b):
    """The residue rule the extended law was first stated by: tau in
    {0, +-1} is the one with sigma(AB) = sigma(A) + sigma(B) + tau (mod 4);
    residue 2 has no such tau."""
    residue = (sigma_class(a * b) - sigma_class(a) - sigma_class(b)) % 4
    assert residue != 2, f"no correction for {a} * {b}"
    return {0: 0, 1: 1, 3: -1}[residue]


def random_unimodular(rng, bits):
    """A random matrix of SL2(Z) with entries of up to about ``bits`` bits;
    one in five has c = 0."""
    if rng.random() < 0.2:
        d = rng.choice([1, -1])
        return IntMatrix(d, rng.randint(-2 ** bits, 2 ** bits), 0, d)
    c = rng.choice([1, -1]) * rng.randint(1, 2 ** bits)
    while True:
        d = rng.randint(-2 ** bits, 2 ** bits)
        if math.gcd(c, d) == 1:
            break
    a = pow(d, -1, abs(c)) + abs(c) * rng.randint(-2 ** bits, 2 ** bits)
    mat = IntMatrix(a, (a * d - 1) // c, c, d)
    assert mat.det() == 1
    return mat


def rademacher_phi(mat):
    """Rademacher's function: (a + d)/c - 12 sign(c) s(d, |c|), or b/d at c = 0."""
    if mat.c == 0:
        return Fraction(mat.b, mat.d)
    sign = 1 if mat.c > 0 else -1
    return Fraction(mat.a + mat.d, mat.c) - 12 * sign * dedekind_sum(mat.d, abs(mat.c))


def random_long_word(rng):
    return BraidWord.from_letters(
        (rng.choice([1, 2]), rng.choice([-1, 1]) * rng.choice([1, 1, 2, 3, 7, 40]))
        for _ in range(rng.randint(0, 20)))


class TestExtendedLawOracles:
    """The extended law and the lift against oracles that share no code
    with them."""

    def test_cocycle_matches_residue_rule(self):
        rng = random.Random(14)
        cases = [(IDENTITY, -IDENTITY), (BURAU_S1, BURAU_S1 ** -1),
                 (-BURAU_S2, BURAU_S2 ** -1), (IntMatrix(0, -1, 1, 0), IntMatrix(0, 1, -1, 0))]
        cases += [(random_unimodular(rng, bits), random_unimodular(rng, bits))
                  for bits in (2, 4, 8, 110, 140) for _ in range(400)]
        assert any(a.c == 0 for a, _ in cases) and any((a * b).c == 0 for a, b in cases)
        assert any(abs(a.c) > 10 ** 30 and abs(b.c) > 10 ** 30 for a, b in cases)
        for a, b in cases:
            for m, n in ((0, 0), (4, -8)):
                x = ExtendedElement(a, sigma_class(a) + m)
                y = ExtendedElement(b, sigma_class(b) + n)
                assert extended_mul(x, y).n == x.n + y.n + residue_tau(a, b)
                assert extended_mul(x, extended_inverse(x)) == EXTENDED_IDENTITY

    def test_n_is_degree_minus_rademacher_phi(self):
        rng = random.Random(15)
        for _ in range(5000):
            word = random_long_word(rng)
            lifted = lift_braid(word)
            assert 3 * lifted.n == degree(word) - rademacher_phi(lifted.matrix)

    def test_degree_character_is_the_eta_multiplier(self):
        # for c > 0: deg/12 = phase(A) + (n + 1)/4 (mod 2); the constant 1/4
        # of the phase is pinned by it, the quoted 1/2 fails on every word
        rng = random.Random(16)
        checked = 0
        while checked < 1200:
            word = random_long_word(rng)
            lifted = lift_braid(word)
            if lifted.matrix.c <= 0:
                continue
            checked += 1
            gap = Fraction(degree(word), 12) - Fraction(lifted.n + 1, 4)
            assert (gap - eta_multiplier_phase(lifted.matrix)) % 2 == 0
            assert (gap - eta_multiplier_phase(lifted.matrix, Fraction(1, 2))) % 2 != 0

    def test_generator_lifts_match_repeated_products(self):
        for gen, base in ((1, ExtendedElement(BURAU_S1, 0)), (2, ExtendedElement(BURAU_S2, 1))):
            for step in (base, extended_inverse(base)):
                sign = 1 if step is base else -1
                out = EXTENDED_IDENTITY
                for e in range(301):
                    assert lift_braid(BraidWord.from_letters([(gen, sign * e)])) == out
                    out = extended_mul(out, step)
            for e in (10 ** 9, -10 ** 9):
                assert lift_braid(BraidWord.from_letters([(gen, e)])) == extended_pow(base, e)


class TestReplacedDefinitions:
    """The lift and the projection on five integers against the definitions
    they replaced: a fold of extended_mul, and a product of matrix powers."""

    @settings(max_examples=60, deadline=None)
    @given(braid_words)
    def test_lift_is_the_fold_and_burau_the_product(self, word):
        lifted = lift_braid(word)
        assert lifted == lift_fold(word)
        assert burau(word) == burau_product(word) == lifted.matrix


class TestEtaMultiplier:
    def test_requires_positive_c(self):
        with pytest.raises(RequiresPositiveC):
            eta_multiplier_matrix(IntMatrix(1, 1, 0, 1))
        with pytest.raises(RequiresPositiveC):
            eta_multiplier_matrix(IntMatrix(1, 0, -1, 1))

    def test_empty_dedekind_sum(self):
        assert dedekind_sum(1, 1) == 0
        assert dedekind_sum(5, 1) == 0

    def test_dedekind_sum_value(self):
        assert dedekind_sum(1, 3) == Fraction(1, 18)

    def test_half_kappa_reference_values(self):
        # with the constant 1/2 the formula gives exp(-i pi / 3) and
        # exp(-i pi / 2) at the two standard matrices
        v1 = eta_multiplier_matrix(IntMatrix(1, 0, 1, 1), Fraction(1, 2))
        assert abs(v1 - cmath.exp(-1j * math.pi / 3)) < 1e-12
        v2 = eta_multiplier_matrix(IntMatrix(0, -1, 1, 0), Fraction(1, 2))
        assert abs(v2 - cmath.exp(-1j * math.pi / 2)) < 1e-12

    def test_default_kappa_quarter(self):
        phase = eta_multiplier_phase(IntMatrix(0, -1, 1, 0))
        assert phase == Fraction(-1, 4) % 2

    def test_unit_modulus(self):
        for mat in (IntMatrix(1, 0, 1, 1), IntMatrix(1, 1, 1, 2), IntMatrix(1, 0, 3, 1)):
            assert abs(abs(eta_multiplier_matrix(mat)) - 1) < 1e-12


GROUPS = [cyclic_group(2), symmetric_group_3(), dihedral_group(4)]


class TestQuilt:
    def test_stabilized_pairs(self):
        s3 = symmetric_group_3()
        h = s3.index("(123)")
        g = s3.index("(12)")
        assert quilt_step((0, h), "s1", s3) == (0, h)
        assert quilt_step((g, 0), "s2", s3) == (g, 0)

    def test_cayley_lookup_example(self):
        s3 = symmetric_group_3()
        g, h = s3.index("(12)"), s3.index("(123)")
        stepped = quilt_step((g, h), "s1", s3)
        assert stepped == (g, s3.product(g, h))

    def test_identity_orbit_is_singleton(self):
        for table in GROUPS:
            assert quilt_orbit((0, 0), table) == frozenset({(0, 0)})

    @pytest.mark.parametrize("table", GROUPS, ids=lambda t: f"order{t.order}")
    def test_generators_are_bijections_satisfying_relation(self, table):
        n = table.order
        pairs = [(g, h) for g in range(n) for h in range(n)]

        def act(pair, word):
            for gen in word:
                pair = quilt_step(pair, gen, table)
            return pair

        for gen in ("s1", "s2"):
            image = {quilt_step(p, gen, table) for p in pairs}
            assert len(image) == len(pairs)
            inverse = gen + "^-1"
            for p in pairs:
                assert quilt_step(quilt_step(p, gen, table), inverse, table) == p
        for p in pairs:
            assert act(p, ["s1", "s2", "s1"]) == act(p, ["s2", "s1", "s2"])

    @pytest.mark.parametrize("table", GROUPS, ids=lambda t: f"order{t.order}")
    def test_orbits_partition(self, table):
        orbits = quilt_orbits(table)
        total = sum(len(o) for o in orbits)
        assert total == table.order ** 2
        seen = set()
        for orbit in orbits:
            assert not (orbit & seen)
            seen |= orbit

    def test_orbit_size_example(self):
        s3 = symmetric_group_3()
        orbit = quilt_orbit((s3.index("(12)"), s3.index("(123)")), s3)
        assert len(orbit) == 9


class TestGroupTable:
    def test_roundtrip(self):
        table = symmetric_group_3()
        text = emit_group_table(table)
        assert parse_group_table(text) == table
        assert emit_group_table(parse_group_table(text)) == text

    def test_rejects_non_group(self):
        text = "order: 2\ne g\ng g\n"
        with pytest.raises(ParseError):
            parse_group_table(text)

    def test_rejects_bad_header(self):
        with pytest.raises(ParseError):
            parse_group_table("2\ne g\ng e\n")

    def test_rejects_unknown_label(self):
        with pytest.raises(ParseError):
            parse_group_table("order: 2\ne g\ng x\n")

    def test_validation_catches_non_associative(self):
        # a Latin square with two-sided identity and inverses that is not a
        # group: (a a) b = b while a (a b) = d
        text = ("order: 5\n"
                "e a b c d\n"
                "a e c d b\n"
                "b d e a c\n"
                "c b d e a\n"
                "d c a b e\n")
        with pytest.raises(ParseError, match="associative"):
            parse_group_table(text)


def jordan_totient_2(m):
    """J_2(m) = m^2 prod_{p | m} (1 - 1/p^2), by trial division."""
    out, rest, p = m * m, m, 2
    while rest > 1:
        if rest % p == 0:
            out = out // (p * p) * (p * p - 1)
            while rest % p == 0:
                rest //= p
        p += 1
    return out


def cyclic_quilt_partition(n):
    """On C_n the quilt action is SL2(Z) on (Z/n)^2, so the orbits are the
    pairs (x, y) with one value of gcd(x, y, n)."""
    classes = collections.defaultdict(set)
    for x in range(n):
        for y in range(n):
            classes[math.gcd(x, y, n)].add((x, y))
    return classes


class TestCyclicQuiltOracle:
    """Quilt orbits of cyclic groups against the closed form: the orbit of
    (g, h) is {(x, y) : gcd(x, y, n) = d}, d = gcd(g, h, n), of J_2(n/d) pairs."""

    def test_orbits_are_the_gcd_classes(self):
        for n in range(1, 61):
            classes = cyclic_quilt_partition(n)
            orbits = quilt_orbits(cyclic_group(n))
            assert sorted(orbits, key=min) == sorted(map(frozenset, classes.values()), key=min), n
            for d, pairs in classes.items():
                assert len(pairs) == jordan_totient_2(n // d), (n, d)

    def test_cli_on_a_written_c120_table(self, capsys, tmp_path):
        n = 120
        table = cyclic_group(n)
        path = tmp_path / "c120.gtab"
        path.write_text(emit_group_table(table), encoding="utf-8")
        classes = cyclic_quilt_partition(n)
        for g, h in ((7, 30), (5, 7), (60, 30), (8, 12), (0, 40), (0, 0)):
            start = f"{table.labels[g]},{table.labels[h]}"
            assert main(["quilt", "--group", str(path), "--start", start]) == 0
            out = capsys.readouterr().out
            block = dict(line.split("=", 1) for line in out.split("---\n", 1)[1].splitlines())
            d = math.gcd(g, h, n)
            want = {f"({table.labels[x]},{table.labels[y]})" for x, y in classes[d]}
            assert set(block["elements"].split()) == want
            assert block["orbit_size"] == str(len(want)) == str(jordan_totient_2(n // d))
