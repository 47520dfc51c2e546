"""The three benchmark workloads: seeded job lists, their input files, and
an independent check of every job's output.

A workload is a list of blocks.  Every block of a workload has the same
composition (the same number of jobs of each kind, drawn from the same
parameter strata); the seed picks the parameters inside each stratum and
the order of the jobs inside each block.  So the timed phase, which always
runs whole blocks, sees the same mix whatever its length, and the job at
the median or the 90th percentile belongs to the same class from run to
run.  NOTES.md records the composition, the job classes and why each
workload exists.

The program only ever sees the files written here and argv.  The checks
use arithmetic written here (braid projection, group tables, 24th roots of
unity, the qexp byte format, CM values of j) or the program's corpus
oracle constructions, which are independent of the code under test.
"""

from __future__ import annotations

import hashlib
import math
import os
import random
from dataclasses import dataclass
from typing import Callable

KNOWN_DEFECT_UNKNOWN_LABEL = (
    "quilt with an unknown element label ends in an uncaught KeyError "
    "(ROADMAP item 4)")

# Malformed input is a usage error (2) or a file/data error (3), reported
# on one stderr line.
MALFORMED_RC = (2, 3)

# Option values are passed as --key=value wherever they can start with "-",
# which argparse would otherwise read as an option.


@dataclass
class Job:
    """One CLI invocation and the rule its result must satisfy.

    ``check(rc, out, err)`` returns None for a correct result, else the
    reason.  ``expect_rc`` holds the exit codes the job may return.
    ``defect`` names the documented program defect a failure of this job
    is attributed to, if any; the failure still counts.
    """

    kind: str
    argv: list[str]
    expect_rc: tuple[int, ...]
    check: Callable[[int, str, str], str | None]
    defect: str | None = None


@dataclass
class Fixture:
    """A workload's blocks; a timed run executes at least ``min_blocks`` of
    them, a traced run exactly ``trace_blocks``."""

    blocks: list[list[Job]]
    min_blocks: int
    trace_blocks: int


def machine_block(out: str) -> dict[str, str]:
    """The key=value lines after the last ``---`` line."""
    lines = out.split("\n")
    try:
        start = len(lines) - 1 - lines[::-1].index("---")
    except ValueError:
        return {}
    pairs = {}
    for line in lines[start + 1:]:
        if "=" in line:
            key, value = line.split("=", 1)
            pairs[key] = value
    return pairs


def _expect_machine(expected: dict[str, str]):
    def check(rc, out, err):
        if err:
            return f"unexpected stderr {err[:120]!r}"
        got = machine_block(out)
        for key, value in expected.items():
            if got.get(key) != value:
                return f"{key}={got.get(key)!r}, expected {value!r}"
        return None
    return check


def _expect_one_error_line(rc, out, err):
    if out:
        return f"unexpected stdout {out[:120]!r}"
    if err.count("\n") != 1 or not err.endswith("\n"):
        return f"expected exactly one stderr line, got {err[:200]!r}"
    return None


# -- independent arithmetic -----------------------------------------------------

def psi(m: int) -> int:
    result, n, p = m, m, 2
    while p <= n:
        if n % p == 0:
            result = result * (p + 1) // p
            while n % p == 0:
                n //= p
        p += 1
    return result


def required_depth(m: int) -> int:
    """Input depth the workbench documents as needed to build order m."""
    return psi(m) * m + psi(m) + 8


def root24_literal(k: int) -> str:
    """xi_24^k on the power basis modulo z^8 - z^4 + 1, as a z-literal."""
    vec = [1] + [0] * 7
    for _ in range(k % 24):
        top = vec[7]
        vec = [0] + vec[:7]
        vec[0] -= top
        vec[4] += top
    if all(c == 0 for c in vec[1:]):
        return str(vec[0])
    parts = []
    for power, c in enumerate(vec):
        if c == 0:
            continue
        mag = str(abs(c))
        if power == 0:
            body = mag
        else:
            z = "z" if power == 1 else f"z^{power}"
            body = z if mag == "1" else mag + z
        parts.append(("-" if c < 0 else ("+" if parts else "")) + body)
    return "".join(parts)


def qexp_text(coeffs: dict[int, int | str], label: str, trunc: int,
              conductor: int = 1) -> str:
    """qexp v1 bytes for an integral-exponent series (lo = lowest term)."""
    items = sorted((n, c) for n, c in coeffs.items() if c not in (0, "0"))
    lo = items[0][0] if items else trunc
    lines = ["# qexp v1", f"label: {label}", f"conductor: {conductor}", "denom: 1",
             f"lo: {lo}", f"trunc: {trunc}"]
    lines += [f"{n} {c}" for n, c in items]
    return "\n".join(lines) + "\n"


def read_integer_qexp(text: str) -> tuple[dict[int, int], int]:
    lines = text.rstrip("\n").split("\n")
    trunc = int(lines[5].split(":")[1])
    coeffs = {}
    for line in lines[6:]:
        n, c = line.split(" ")
        coeffs[int(n)] = int(c)
    return coeffs, trunc


def matmul(x, y):
    a, b, c, d = x
    e, f, g, h = y
    return (a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h)


def burau_of(letters) -> tuple[int, int, int, int]:
    """Projection with s1 -> ((1,1),(0,1)) and s2 -> ((1,0),(-1,1))."""
    out = (1, 0, 0, 1)
    for gen, exp in letters:
        out = matmul(out, (1, exp, 0, 1) if gen == 1 else (1, 0, -exp, 1))
    return out


def sigma_class(mat) -> int:
    a, _, c, _ = mat
    if c == 0:
        return 0 if a > 0 else 2
    return 1 if c < 0 else 3


def word_text(letters) -> str:
    return " ".join(f"s{g}" if e == 1 else f"s{g}^{e}" for g, e in letters)


@dataclass(frozen=True)
class Table:
    labels: tuple[str, ...]
    mul: tuple[tuple[int, ...], ...]

    def inverse(self, i: int) -> int:
        return self.mul[i].index(0)

    def text(self) -> str:
        rows = [" ".join(self.labels[self.mul[i][j]] for j in range(len(self.labels)))
                for i in range(len(self.labels))]
        return f"order: {len(self.labels)}\n" + "\n".join(rows) + "\n"


def _table(elements, compose, label) -> Table:
    index = {e: i for i, e in enumerate(elements)}
    return Table(tuple(label(e) for e in elements),
                 tuple(tuple(index[compose(a, b)] for b in elements) for a in elements))


def cyclic_table(n: int, prefix: str = "g") -> Table:
    return _table(list(range(n)), lambda a, b: (a + b) % n,
                  lambda k: "e" if k == 0 else prefix if k == 1 else f"{prefix}{k}")


def dihedral_table(n: int) -> Table:
    elements = [(r, s) for s in (0, 1) for r in range(n)]

    def compose(x, y):
        return ((x[0] + (y[0] if x[1] == 0 else -y[0])) % n, x[1] ^ y[1])

    def label(e):
        r, s = e
        if s == 0:
            return "e" if r == 0 else f"r{r}"
        return "f" if r == 0 else f"r{r}f"

    return _table(elements, compose, label)


def s3_table() -> Table:
    perms = [(0, 1, 2), (1, 0, 2), (2, 1, 0), (0, 2, 1), (1, 2, 0), (2, 0, 1)]
    names = ["e", "(12)", "(13)", "(23)", "(123)", "(132)"]
    return _table(perms, lambda p, q: tuple(p[q[i]] for i in range(3)),
                  lambda p: names[perms.index(p)])


BUILTIN_TABLES = {"s3": s3_table(), "d4": dihedral_table(4), "z2": cyclic_table(2)}


def quilt_orbit(table: Table, start: tuple[int, int]) -> set[tuple[int, int]]:
    mul = table.mul
    seen = {start}
    frontier = [start]
    while frontier:
        g, h = frontier.pop()
        gi, hi = table.inverse(g), table.inverse(h)
        for nxt in ((g, mul[g][h]), (mul[g][hi], h), (g, mul[gi][h]), (mul[g][h], h)):
            if nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    return seen


# CM points tau with im(tau) >= sqrt(3)/2 and the integer value of j there.
CM_VALUES = (
    ((0.0, 1.0), 1728),
    ((-0.5, math.sqrt(3) / 2), 0),
    ((0.0, math.sqrt(2)), 8000),
    ((0.5, math.sqrt(7) / 2), -3375),
    ((0.0, math.sqrt(3)), 54000),
    ((0.0, 2.0), 287496),
    ((0.5, math.sqrt(11) / 2), -32768),
    ((0.5, math.sqrt(19) / 2), -884736),
    ((0.0, math.sqrt(7)), 16581375),
    ((0.5, math.sqrt(43) / 2), -884736000),
)


# -- screen -------------------------------------------------------------------

def _classify_check(verdict: str, m: int | None, status: str | None, xi: str | None):
    expected = {"verdict": verdict}
    if xi is not None:
        expected.update({"xi": xi, "orders": ""})
    else:
        expected.update({"orders": str(m), f"order_{m}_status": status})
    return _expect_machine(expected)


def _bundled_verdict(stem: str, m: int) -> tuple[str, str, int]:
    """Verdict, order status and exit code of classify on a bundled
    Hauptmodul at order m: undetermined below the documented depth, a
    candidate when m is prime to the level, inconsistent otherwise."""
    depth, level = {"j": (60, 1), "g0_2": (64, 2), "g0_13": (9, 13), "g0_25": (26, 5)}[stem]
    if depth < required_depth(m):
        return "undetermined", "insufficient-data", 0
    if math.gcd(m, level) == 1:
        return "hauptmodul-candidate", "consistent", 0
    return "inconsistent", "inconsistent", 1


def build_screen(rng: random.Random, workdir: str, root: str, blocks: int) -> Fixture:
    from g0wb.corpus import eta_quotient_level2, normalized_j

    data = os.path.join(root, "src", "g0wb", "data")
    bundled = {}
    for stem, oracle in (("j", normalized_j), ("g0_2", eta_quotient_level2)):
        with open(os.path.join(data, f"{stem}.qexp"), encoding="utf-8") as fh:
            text = fh.read()
        coeffs, trunc = read_integer_qexp(text)
        reference = oracle(trunc)
        exact = {n: int(c.rational_value()) for n, c in reference.coeffs.items()}
        if exact != coeffs:
            raise RuntimeError(f"bundled {stem} differs from its oracle construction")
        bundled[stem] = (coeffs, trunc)

    counter = iter(range(10**9))

    def bundled_job(stem: str, m: int) -> Job:
        verdict, status, rc = _bundled_verdict(stem, m)
        return Job(f"classify_{stem}_m{m}",
                   ["classify", "--series", f"data/{stem}.qexp", "--orders", str(m)],
                   (rc,), _classify_check(verdict, m, status, None))

    def perturbed_job(m: int) -> Job:
        stem = rng.choice(("j", "g0_2"))
        coeffs, trunc = bundled[stem]
        coeffs = dict(coeffs)
        e = rng.randint(1, 10)
        delta = rng.choice((-1, 1)) * rng.randint(1, 1000)
        if coeffs.get(e, 0) + delta == 0:
            delta += 1
        coeffs[e] = coeffs.get(e, 0) + delta
        path = os.path.join(workdir, f"perturbed_{next(counter)}.qexp")
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(qexp_text(coeffs, "P", trunc))
        return Job(f"classify_perturbed_m{m}",
                   ["classify", "--series", path, "--orders", str(m)], (1,),
                   _classify_check("inconsistent", m, "inconsistent", None))

    def rare5() -> int:
        return 5 if rng.random() < 0.1 else rng.randint(2, 4)

    def fiction_job() -> Job:
        k = rng.randrange(24)
        xi = root24_literal(k)
        path = os.path.join(workdir, f"fiction_{next(counter)}.qexp")
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(qexp_text({-1: 1, 1: xi}, "F", rng.randint(2, 40), conductor=24))
        m = rare5()
        return Job("classify_fiction", ["classify", "--series", path, "--orders", str(m)],
                   (0,), _classify_check("fiction", None, None, xi))

    out = []
    for _ in range(blocks):
        jobs = [fiction_job() for _ in range(6)]
        jobs += [bundled_job("g0_13", rare5()) for _ in range(4)]
        jobs += [bundled_job("g0_25", 5 if rng.random() < 0.2 else 4) for _ in range(3)]
        jobs.append(bundled_job("g0_2", 2))
        small = rng.choice(("j2", "perturbed2", "g0_25_2", "g0_25_3"))
        jobs.append(perturbed_job(2) if small == "perturbed2"
                    else bundled_job("j", 2) if small == "j2"
                    else bundled_job("g0_25", int(small[-1])))
        jobs += [perturbed_job(3), bundled_job("j", 3), bundled_job("g0_2", 3),
                 bundled_job("g0_2", 4)]
        jobs.append(perturbed_job(5))
        rng.shuffle(jobs)
        out.append(jobs)
    return Fixture(out, min_blocks=5, trace_blocks=3)


# -- extend -------------------------------------------------------------------

def build_extend(rng: random.Random, workdir: str, root: str, blocks: int) -> Fixture:
    from g0wb.corpus import PUBLISHED_DEPTH, PUBLISHED_PREFIXES, eta_quotient_level2, normalized_j
    from g0wb.goldens import GOLDEN_ORDER2
    from g0wb.modeq import build_modular_polynomial, emit_mpoly, verify_modular_equation

    labels = {"j": "J", "g0_2": "J_Gamma0_2"}
    seeds = {}
    for stem in ("j", "g0_2"):
        path = os.path.join(workdir, f"{stem}_seed.qexp")
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(qexp_text(PUBLISHED_PREFIXES[stem], labels[stem], PUBLISHED_DEPTH[stem]))
        seeds[stem] = path
    reference = eta_quotient_level2(required_depth(3) + 16)
    poly3 = build_modular_polynomial(reference, 3)
    if verify_modular_equation(reference, poly3, 3).status != "consistent":
        raise RuntimeError("order-3 polynomial of the level-2 eta quotient fails to verify")
    polys = {}
    for stem, poly in (("j", GOLDEN_ORDER2), ("g0_2", poly3)):
        polys[stem] = os.path.join(workdir, f"{stem}.mpoly")
        with open(polys[stem], "w", encoding="utf-8", newline="\n") as fh:
            fh.write(emit_mpoly(poly))

    expected: dict[tuple[str, int], str] = {}

    def job(stem: str, lo: int, hi: int, target: int | None = None) -> Job:
        target = rng.randint(lo, hi) if target is None else target
        key = (stem, target)
        if key not in expected:
            series = (normalized_j if stem == "j" else eta_quotient_level2)(target)
            ints = {n: int(c.rational_value()) for n, c in series.coeffs.items()}
            expected[key] = qexp_text(ints, labels[stem], target)
        want = expected[key]

        def check(rc, out, err):
            if err:
                return f"unexpected stderr {err[:120]!r}"
            if out != want:
                return f"stdout differs from the oracle expansion to q^{target}"
            return None

        order = 2 if stem == "j" else 3
        return Job(f"bootstrap_{stem}_q{lo}-{hi}",
                   ["bootstrap", "--series", seeds[stem], "--modpoly", polys[stem],
                    "--order", str(order), "--target", str(target)], (0,), check)

    def deep(b: int) -> Job:
        # One deep job per block, alternating series; its target walks the
        # quarters of the range from block to block, so every run of a few
        # blocks covers the same depths whatever the seed.
        stem, lo, hi = ("j", 60, 100) if b % 2 == 0 else ("g0_2", 40, 64)
        quarter = (b // 2) % 4
        width = (hi - lo + 1) / 4
        first = lo + int(quarter * width)
        last = lo + int((quarter + 1) * width) - 1
        return job(stem, lo, hi, rng.randint(first, last))

    out = []
    for b in range(blocks):
        jobs = [job("j", 30, 33) for _ in range(7)]
        jobs += [job("g0_2", 20, 23) for _ in range(6)]
        jobs += [job("g0_2", 24, 30) for _ in range(2)]
        jobs += [job("j", 40, 43) for _ in range(4)]
        jobs.append(deep(b))
        rng.shuffle(jobs)
        out.append(jobs)
    return Fixture(out, min_blocks=5, trace_blocks=1)


# -- group --------------------------------------------------------------------

def _random_word(rng: random.Random, big_lo: int, big_hi: int):
    letters = []
    gen = rng.choice((1, 2))
    for _ in range(rng.randint(20, 200)):
        letters.append((gen, rng.choice((-1, 1)) * rng.randint(1, 5)))
        gen = 3 - gen
    i = rng.randrange(len(letters))
    letters[i] = (letters[i][0], rng.choice((-1, 1)) * rng.randint(big_lo, big_hi))
    return letters


def _unimodular(rng: random.Random, c: int, d_range: int = 20):
    """A matrix (a, b, c, d) of determinant 1 with the given c > 0."""
    while True:
        d = rng.randint(-d_range, d_range)
        if math.gcd(c, d) == 1:
            break
    a = pow(d, -1, c) if c > 1 else 1
    b = (a * d - 1) // c
    return (a, b, c, d)


def _digest(pairs: set[tuple[int, int]]) -> str:
    """Orbits are cached as digests, so the harness's memory does not grow
    with the orbits a seed happens to draw."""
    return hashlib.sha256(repr(sorted(pairs)).encode()).hexdigest()


def build_group(rng: random.Random, workdir: str, root: str, blocks: int) -> Fixture:
    counter = iter(range(10**9))

    def write(name: str, text: str) -> str:
        path = os.path.join(workdir, f"{name}_{next(counter)}")
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        return path

    small_tables = []
    for n in (rng.randint(4, 20), rng.randint(8, 40)):
        table = dihedral_table(n // 2) if n % 2 == 0 and rng.random() < 0.5 else cyclic_table(n, "c")
        small_tables.append((write("table", table.text()), table))
    large_tables = []
    for family in ("d", "c", "c"):
        n = 2 * rng.randint(55, 60)
        table = dihedral_table(n // 2) if family == "d" else cyclic_table(n, "c")
        large_tables.append((write("table", table.text()), table))
    orbit_cache: dict = {}

    def quilt_job(group: str, table: Table, kind: str) -> Job:
        g, h = rng.randrange(1, len(table.labels)), rng.randrange(len(table.labels))
        start = f"{table.labels[g]},{table.labels[h]}"

        def check(rc, out, err):
            if err:
                return f"unexpected stderr {err[:120]!r}"
            got = machine_block(out)
            pairs = set()
            for item in got.get("elements", "").split(" "):
                left, _, right = item[1:-1].partition(",")
                pairs.add((table.labels.index(left), table.labels.index(right)))
            key = (id(table), g, h)
            if key not in orbit_cache:
                orbit_cache[key] = _digest(quilt_orbit(table, (g, h)))
            if _digest(pairs) != orbit_cache[key]:
                return "orbit differs from the closure of the start pair"
            if got.get("orbit_size") != str(len(pairs)):
                return "orbit_size does not count the listed pairs"
            return None

        return Job(kind, ["quilt", "--group", group, f"--start={start}"], (0,), check)

    def unknown_label_job() -> Job:
        group = rng.choice(sorted(BUILTIN_TABLES))
        table = BUILTIN_TABLES[group]
        known = rng.choice(table.labels)
        unknown = rng.choice(("(99)", "x", "r9f", "g7", "(1234)"))
        start = f"{known},{unknown}" if rng.random() < 0.5 else f"{unknown},{known}"
        return Job("quilt_unknown_label", ["quilt", "--group", group, f"--start={start}"],
                   MALFORMED_RC, _expect_one_error_line, defect=KNOWN_DEFECT_UNKNOWN_LABEL)

    def braid_job(action: str, big_lo: int, big_hi: int) -> Job:
        letters = _random_word(rng, big_lo, big_hi)
        mat = burau_of(letters)
        deg = sum(e for _, e in letters)
        if action == "lift":
            def check(rc, out, err):
                got = machine_block(out)
                if err or got.get("matrix") != ",".join(map(str, mat)):
                    return f"lift matrix {got.get('matrix')} != projection {mat}"
                if int(got.get("n", "x")) % 4 != sigma_class(mat):
                    return f"n={got.get('n')} not congruent to the class of {mat}"
                return None
        else:
            expected = {"burau": {"matrix": ",".join(map(str, mat))},
                        "degree": {"degree": str(deg)},
                        "multiplier": {"multiplier": root24_literal(deg % 24),
                                       "conductor": "24"}}[action]
            check = _expect_machine(expected)
        return Job(f"braid_{action}", ["braid", action, f"--word={word_text(letters)}"], (0,),
                   check)

    def member_job() -> Job:
        level = rng.randint(2, 50)
        flavor = rng.choice(("gamma0", "gamma1", "full"))
        c = level * rng.randint(1, 20) if rng.random() < 0.6 else rng.randint(1, 1000)
        a, b, c, d = _unimodular(rng, c, 1000)
        if rng.random() < 0.5:
            a, b, c, d = -a, -b, -c, -d
        lvl = level
        plus = (a - 1) % lvl == 0 and (d - 1) % lvl == 0
        minus = (a + 1) % lvl == 0 and (d + 1) % lvl == 0
        if flavor == "gamma0":
            member = c % lvl == 0
        elif flavor == "gamma1":
            member = c % lvl == 0 and (plus or minus)
        else:
            member = b % lvl == 0 and c % lvl == 0 and (plus or minus)
        return Job("member", ["member", f"--matrix={a},{b},{c},{d}", "--level",
                              str(level), "--flavor", flavor], (0,),
                   _expect_machine({"member": "true" if member else "false"}))

    def eta_small_job() -> Job:
        c = rng.randint(1, 8)
        a, b, c, d = _unimodular(rng, c)
        tau = f"{-d / c!r},{1 / c!r}"
        return Job("eta_law", ["eta", f"--tau={tau}", "--law", f"--matrix={a},{b},{c},{d}"],
                   (0,), _expect_machine({"law": "pass"}))

    def eta_large_job() -> Job:
        # im(tau) * im(A tau) <= 1/c^2 < 0.01, so one of the two points lies
        # below the documented im >= 0.1 floor and the law must be refused
        c = int(round(10 ** rng.uniform(3.0, 4.0)))
        a, b, c, d = _unimodular(rng, c)
        return Job("eta_law_refused", ["eta", f"--tau={-d / c!r},0.5", "--law",
                                       f"--matrix={a},{b},{c},{d}"], (2,), _expect_one_error_line)

    def eisenstein_job(lo: int, hi: int) -> Job:
        c = rng.randint(1, 3)
        a, b, c, d = _unimodular(rng, c)
        tau = f"{-d / c + rng.uniform(-0.1, 0.1)!r},{1 / c!r}"
        return Job("eisenstein_law", ["eisenstein", "--k", str(rng.choice((4, 6))), f"--tau={tau}",
                                      "--radius", str(rng.randint(lo, hi)), "--law",
                                      f"--matrix={a},{b},{c},{d}"],
                   (0,), _expect_machine({"law": "pass"}))

    def eval_job() -> Job:
        (re, im), jval = rng.choice(CM_VALUES)
        shift = rng.randint(-2, 2)
        value = jval - 744

        def check(rc, out, err):
            got = machine_block(out)
            try:
                vre, vim = float(got["value_re"]), float(got["value_im"])
            except (KeyError, ValueError):
                return "no value in the machine block"
            tol = 1e-9 * max(1.0, abs(value))
            if err or abs(vre - value) > tol or abs(vim) > tol:
                return f"J({re + shift},{im}) = {vre}{vim:+}i, expected {value}"
            return None

        return Job("eval_cm", ["eval", "--series", "data/j.qexp",
                               f"--tau={re + shift!r},{im!r}"], (0,), check)

    def malformed_job() -> Job:
        good = qexp_text({-1: 1, 1: 196884, 2: 21493760}, "J", 2).split("\n")
        variant = rng.randrange(5)
        if variant == 0:
            good[5] = "trunc: two"
        elif variant == 1:
            good[0] = "# qexp v2"
        elif variant == 2:
            good[6], good[7] = good[7], good[6]
        elif variant == 3:
            good[7] = "1 0"
        else:
            good[8] = "9 1"
        path = write("malformed.qexp", "\n".join(good))
        argv = (["classify", "--series", path, "--orders", "2"] if rng.random() < 0.5
                else ["eval", "--series", path, "--tau=0,1"])
        return Job("malformed_qexp", argv, MALFORMED_RC, _expect_one_error_line)

    def shallow_job() -> Job:
        m = rng.randint(2, 5)
        trunc = rng.randint(3, required_depth(m) - 1)
        path = write("shallow.qexp", qexp_text({-1: 1, 1: 196884, 2: 21493760, 3: 864299970},
                                               "J", trunc))
        return Job("shallow_series", ["modpoly", "--series", path, "--order", str(m)],
                   MALFORMED_RC, _expect_one_error_line)

    kappa = Job("kappa", ["kappa"], (0,), _expect_machine({"winner": "1/4"}))
    builtins = sorted(BUILTIN_TABLES)
    out = []
    for _ in range(blocks):
        jobs = [member_job(), member_job(), kappa, eval_job(), malformed_job(),
                shallow_job(), unknown_label_job()]
        jobs += [braid_job(a, 100, 1000) for a in ("burau", "multiplier", "degree")]
        for _ in range(2):
            name = rng.choice(builtins)
            jobs.append(quilt_job(name, BUILTIN_TABLES[name], "quilt_builtin"))
        jobs += [braid_job("lift", lo, hi) for lo, hi in ((100, 1000), (1000, 4000), (4000, 10000))]
        jobs.append(eta_small_job())
        path, table = rng.choice(small_tables)
        jobs.append(quilt_job(path, table, "quilt_table_small"))
        jobs.append(eisenstein_job(20, 30))
        jobs.append(eta_large_job())
        for path, table in large_tables:
            jobs.append(quilt_job(path, table, "quilt_table_large"))
        jobs.append(eisenstein_job(50, 60))
        rng.shuffle(jobs)
        out.append(jobs)
    return Fixture(out, min_blocks=5, trace_blocks=3)


WORKLOADS = {"screen": build_screen, "extend": build_extend, "group": build_group}
