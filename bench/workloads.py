"""Seeded inputs, operations and independent checks for each workload.

Every workload is a sequence of *passes*.  A pass holds one operation per
stratum of the workload's input space (one per prime for census, one per
genus and prime band for hasse-witt, one per (p, m) pair for meataxe), so
that every pass costs about the same whatever the seed.  The seed draws
the coefficients, the MeatAxe seed and the order of the pass; what sets an
operation's cost (census's degree; hasse-witt's prime within its slice,
degree and binomial family) steps from pass to pass instead.

``pass_seconds`` is a workload's operation time for one pass at the seed
commit at the reference host speed (hostspeed.py: a shared 2-CPU x86_64
VM, Python 3.11); the run sizes its number of passes from it, never from
a clock.  ``sweeps`` is how many times the run executes each operation,
keeping the best: three for hasse-witt, whose single pass of 27
operations leaves its median resting on one operation's time.

An operation returns its canonical output as bytes; the checks take the
input and the live result and raise ``CheckFailed`` on a wrong answer.
Nothing here imports sympy or jsonschema at module level, so timing the
set-up (process start, ``import superell``, input generation) does not
pay for the libraries the checks use.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import pathlib
import random
from dataclasses import dataclass


class CheckFailed(Exception):
    """An operation returned a result that an independent check rejects."""


def primes_between(lo: int, hi: int):
    return [n for n in range(max(lo, 2), hi + 1) if all(n % d for d in range(2, int(n**0.5) + 1))]


# -- integer polynomials over F_p (ascending coefficient lists) ---------------


def _trim(a):
    while a and a[-1] == 0:
        a.pop()
    return a


def _rem(a, b, p):
    a = list(a)
    inv = pow(b[-1], -1, p)
    while len(a) >= len(b):
        c = a[-1] * inv % p
        shift = len(a) - len(b)
        for i, bi in enumerate(b):
            a[shift + i] = (a[shift + i] - c * bi) % p
        _trim(a)
    return a


def is_squarefree_mod_p(coeffs, p: int) -> bool:
    """gcd(f, f') == 1 over F_p, written independently of superell."""
    a = _trim([c % p for c in coeffs])
    b = _trim([(i * c) % p for i, c in enumerate(a)][1:])
    if not b:
        return False
    while b:
        a, b = b, _rem(a, b, p)
    return len(a) == 1


def rank_mod_p(rows, p: int) -> int:
    rows = [[x % p for x in r] for r in rows]
    rank = 0
    ncols = len(rows[0]) if rows else 0
    for c in range(ncols):
        piv = next((i for i in range(rank, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = pow(rows[rank][c], -1, p)
        rows[rank] = [x * inv % p for x in rows[rank]]
        for i in range(len(rows)):
            if i != rank and rows[i][c]:
                f = rows[i][c]
                rows[i] = [(x - f * y) % p for x, y in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def matmul_mod_p(a, b, p: int):
    return [[sum(x * y for x, y in zip(row, col)) % p for col in zip(*b)] for row in a]


def stable_rank_mod_p(a, g: int, p: int) -> int:
    """Rank of A^g; the Frobenius twist is the identity on F_p entries."""
    prod = a
    for _ in range(1, g):
        prod = matmul_mod_p(prod, a, p)
    return rank_mod_p(prod, p)


def verdict_for(a, stable_rank: int, g: int) -> str:
    if all(x == 0 for row in a for x in row):
        return "superspecial"
    return "ordinary" if stable_rank == g else "intermediate"


def render(coeffs, p: int, m: int = 2) -> str:
    """Curve expression in the CLI grammar, highest degree first."""
    terms = []
    for d in range(len(coeffs) - 1, -1, -1):
        c = coeffs[d]
        if c == 0:
            continue
        if d == 0:
            terms.append(str(c))
        else:
            mono = "x" if d == 1 else f"x^{d}"
            terms.append(mono if c == 1 else f"{c}*{mono}")
    return f"y^{m} = {' + '.join(terms)} mod {p}"


def random_squarefree(rng: random.Random, p: int, degree: int):
    while True:
        coeffs = [rng.randrange(p) for _ in range(degree)] + [rng.randrange(1, p)]
        if is_squarefree_mod_p(coeffs, p):
            return coeffs


def digest(outputs) -> str:
    h = hashlib.sha256()
    for out in outputs:
        h.update(len(out).to_bytes(8, "big"))
        h.update(out)
    return h.hexdigest()


@dataclass(frozen=True)
class Curve:
    p: int
    coeffs: tuple           # ascending, over F_p

    @property
    def expr(self) -> str:
        return render(self.coeffs, self.p)

    @property
    def genus(self) -> int:
        return (len(self.coeffs) - 2) // 2


@dataclass(frozen=True)
class RepInput:
    p: int
    m: int
    seed: int


def _passes(seed: int, make_pass):
    rng = random.Random(seed)
    for index in itertools.count():
        ops = make_pass(rng, index)
        rng.shuffle(ops)
        yield ops


# -- census: the classify command on small hyperelliptic curves ---------------

CENSUS_PRIMES = primes_between(11, 47)


def census_pass(rng, index):
    """One curve per prime; each prime's degree steps through 5..9 from
    pass to pass, so the mix of degrees on every prime is the same for
    every seed."""
    return [Curve(p, tuple(random_squarefree(rng, p, 5 + (i + index) % 5)))
            for i, p in enumerate(CENSUS_PRIMES)]


class Census:
    name = "census"
    pass_seconds = 2.7
    sweeps = 2

    def __init__(self, superell):
        self.cli = superell.cli

    @staticmethod
    def passes(seed):
        return _passes(seed, census_pass)

    def prepare(self, curve):
        return ["classify", curve.expr, "--e", "1,2", "--json"]

    def call(self, argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = self.cli.main(argv)
        return code, out.getvalue()

    @staticmethod
    def canonical(result) -> bytes:
        return result[1].encode()

    def checker(self):
        return CensusChecker(self.cli)


class CensusChecker:
    def __init__(self, cli):
        import jsonschema

        schema_path = pathlib.Path(cli.__file__).with_name("report_schema.json")
        self.validator = jsonschema.Draft7Validator(json.loads(schema_path.read_text()))

    def __call__(self, curve, result):
        code, text = result
        if code not in (0, 2):
            raise CheckFailed(f"exit code {code}")
        report = json.loads(text)
        errors = list(self.validator.iter_errors(report))
        if errors:
            raise CheckFailed(f"schema: {errors[0].message}")
        res = report["results"]
        p, g = curve.p, curve.genus
        if res["genus"] != g:
            raise CheckFailed(f"genus {res['genus']} != {g}")
        counts = {c["e"]: int(c["count"]) for c in res["counts"]}
        if sorted(counts) != [1, 2]:
            raise CheckFailed(f"counts for e = {sorted(counts)}")
        for e, n in counts.items():
            q = p**e
            if (n - q - 1) ** 2 > 4 * g * g * q:
                raise CheckFailed(f"#X(F_{p}^{e}) = {n} outside the Weil interval")
        a = res["hasse_witt"]["entries"]
        a2 = matmul_mod_p(a, a, p)
        tr1 = sum(a[i][i] for i in range(g))
        tr2 = sum(a2[i][i] for i in range(g))
        if (counts[1] - 1 + tr1) % p:
            raise CheckFailed("Manin congruence fails for e = 1")
        if (counts[2] - 1 + tr2) % p:
            raise CheckFailed("Manin congruence fails for e = 2")
        rank = stable_rank_mod_p(a, g, p)
        if res["p_rank"] != {"stable_rank": rank, "verdict": verdict_for(a, rank, g)}:
            raise CheckFailed(f"p-rank {res['p_rank']} disagrees with stable rank {rank}")
        if code != (0 if res["superspecial_consistent"] else 2):
            raise CheckFailed(f"exit code {code} disagrees with the consistency flag")


# -- hasse-witt: Frobenius matrix and p-rank, no point counts ----------------

HW_PRIMES = primes_between(53, 307)
HW_GENERA = range(4, 13)
HW_BANDS = 3
BINOMIAL_FAMILIES = ("x^(2g+1)+1", "x^(2g+1)+x", "x^(2g+2)+1")


def _binomial(family: str, g: int):
    if family == "x^(2g+1)+1":
        return (1,) + (0,) * (2 * g) + (1,)
    if family == "x^(2g+1)+x":
        return (0, 1) + (0,) * (2 * g - 1) + (1,)
    return (1,) + (0,) * (2 * g + 1) + (1,)


def hasse_witt_pass(rng, index):
    """One curve per (prime band, genus) cell.

    The primes are cut into 27 consecutive slices of one or two primes,
    one slice per cell, so every pass spans [53, 307] the same way; the
    prime steps through its slice from pass to pass, because a two-prime
    slice's primes differ in cost by up to 10%.  A third of the cells, a fixed
    set that covers every genus and band, use a binomial family: random
    curves are ordinary, while the families also reach the intermediate
    and superspecial branches.  The family and the degree of f (2g+1 or
    2g+2) rotate with the pass, as census's degrees do, so that their
    mix, which sets much of a pass's cost, is the same for every seed.
    """
    cells = [(b, g) for b in range(HW_BANDS) for g in HW_GENERA]
    ops = []
    for c, (b, g) in enumerate(cells):
        lo = c * len(HW_PRIMES) // len(cells)
        hi = (c + 1) * len(HW_PRIMES) // len(cells)
        primes = HW_PRIMES[lo:hi]
        p = primes[index % len(primes)]
        if (b + g) % 3 == 0:
            ops.append(Curve(p, _binomial(BINOMIAL_FAMILIES[(c + index) % 3], g)))
        else:
            ops.append(Curve(p, tuple(random_squarefree(rng, p, 2 * g + 1 + (c + index) % 2))))
    return ops


class HasseWitt:
    name = "hasse-witt"
    pass_seconds = 11.0
    sweeps = 3

    def __init__(self, superell):
        self.superell = superell

    @staticmethod
    def passes(seed):
        return _passes(seed, hasse_witt_pass)

    def prepare(self, curve):
        return curve.expr

    def call(self, expr):
        s = self.superell
        X = s.parse_curve(expr)
        H = s.hasse_witt(X)
        return X, H, s.classify_p_rank(H)

    @staticmethod
    def canonical(result) -> bytes:
        _, H, V = result
        entries = [[c.lift() for c in row] for row in H.matrix.rows]
        return json.dumps({"entries": entries, "stable_rank": V.stable_rank,
                           "verdict": V.verdict}).encode()

    def checker(self):
        return HasseWittChecker(self.superell)


class HasseWittChecker:
    def __init__(self, superell):
        from sympy.polys.domains import ZZ
        from sympy.polys.galoistools import gf_pow

        self.count_points = superell.count_points
        self.gf_pow = lambda f, n, p: gf_pow(f, n, p, ZZ)

    def __call__(self, curve, result):
        X, H, V = result
        p, g = curve.p, curve.genus
        a = [[c.lift() for c in row] for row in H.matrix.rows]
        if len(a) != g or any(len(row) != g for row in a):
            raise CheckFailed(f"matrix is not {g} x {g}")
        power = self.gf_pow(list(reversed(curve.coeffs)), (p - 1) // 2, p)
        top = len(power) - 1
        for i in range(1, g + 1):
            for j in range(1, g + 1):
                k = p * i - j
                want = int(power[top - k]) if k <= top else 0
                if a[i - 1][j - 1] != want:
                    raise CheckFailed(f"entry ({i}, {j}) is {a[i - 1][j - 1]}, gf_pow gives {want}")
        rank = stable_rank_mod_p(a, g, p)
        if (V.stable_rank, V.verdict) != (rank, verdict_for(a, rank, g)):
            raise CheckFailed(f"verdict {V.verdict}/{V.stable_rank}, recomputed rank {rank}")
        n1 = self.count_points(X, 1).count
        if (n1 - 1 + sum(a[i][i] for i in range(g))) % p:
            raise CheckFailed("Manin congruence fails for e = 1")


# -- meataxe: canonical representations and the irreducibility decision -----

MEATAXE_PRIMES = primes_between(2, 23)
HERMITIAN_MAX_P = 11


def meataxe_pairs():
    """Every (p, m) with m | p+1, m >= 2; m = p+1 only up to p = 11.

    p = 2 stays in: its only module (m = 3) is the Hermitian one, which
    the seed commit cannot build, and that failure shows in the
    failure fraction.
    """
    return [(p, m) for p in MEATAXE_PRIMES for m in range(2, p + 2)
            if (p + 1) % m == 0 and (m < p + 1 or p <= HERMITIAN_MAX_P)]


def meataxe_pass(rng, index):
    return [RepInput(p, m, rng.randrange(10**6)) for p, m in meataxe_pairs()]


class MeatAxe:
    name = "meataxe"
    pass_seconds = 9.0
    sweeps = 2

    def __init__(self, superell):
        self.superell = superell

    @staticmethod
    def passes(seed):
        return _passes(seed, meataxe_pass)

    def prepare(self, rep):
        return rep

    def call(self, rep):
        s = self.superell
        R = s.canonical_module(rep.p, rep.m)
        return R, s.decide_irreducibility(R, seed=rep.seed)

    @staticmethod
    def canonical(result) -> bytes:
        R, V = result
        witness = None if V.witness is None else [[list(c.coeffs) for c in row] for row in V.witness.rows]
        return json.dumps({"p": R.p, "m": R.m, "dim": R.dim, "verdict": V.verdict,
                           "endo_dim": V.endo_dim, "witness": witness}).encode()

    def checker(self):
        return MeatAxeChecker(self.superell)


class MeatAxeChecker:
    def __init__(self, superell):
        self.is_invariant_subspace = superell.linalg.is_invariant_subspace

    def __call__(self, rep, result):
        R, V = result
        p, m = rep.p, rep.m
        if R.dim != (p - 1) * (m - 1) // 2:
            raise CheckFailed(f"dimension {R.dim} is not the genus")
        if m in (2, p + 1):
            if (V.verdict, V.endo_dim) != ("absolutely-irreducible", 1):
                raise CheckFailed(f"{V.verdict} (endo_dim {V.endo_dim}) for m = {m}")
            return
        if V.verdict != "reducible" or V.witness is None:
            raise CheckFailed(f"{V.verdict} for 2 < m = {m} < p+1")
        cols = V.witness.columns()
        if not 0 < len(cols) < R.dim:
            raise CheckFailed(f"witness of dimension {len(cols)} in a module of dimension {R.dim}")
        if not self.is_invariant_subspace(cols, list(R.generators)):
            raise CheckFailed("witness is not an invariant subspace")


WORKLOADS = {w.name: w for w in (Census, HasseWitt, MeatAxe)}
