"""Canonical representation of Aut(X) for X: y^m = x^p - x, m | p+1.

The holomorphic differentials have basis x^i dx / y^j with 1 <= j <= m-1
and 0 <= i <= m'j - 2 (m' = (p+1)/m), of size (p-1)(m-1)/2 = genus.  The
group generated by the vertical root-of-unity map and the SL(2, F_p)
lifts acts by pullback; all matrices are realized over F_{p^2}, which
contains the m-th roots of unity because m | p+1.  zeta_m acts
diagonally, and a Moebius lift keeps each j-block, on which it acts as a
symmetric power of a 2 x 2 matrix (`_sym_power_columns`).

Irreducibility is decided first by `certificate`, one pass that reads
only the generators' residues and checks its premises at runtime.  Its
grading premise certifies reducible modules: zeta_m is diagonal, and for
2 < m < p+1 every generator keeps its eigenspaces, the j-blocks, so the
j = 1 block is the witness.  Its weight and flag premises, with a
strongly connected support digraph, certify irreducible ones: the
Hermitian plane modules (m = p+1) by a torus with distinct weights, and
m = 2 by the Jordan block of x -> x + 1.  Where no premise decides, and
for dim < 2, the MeatAxe decides (`meataxe_decide`); no canonical module
of dimension >= 2 reaches it.  A verdict names its route, which `rep`
prints in its provenance.

The MeatAxe is seeded: sample elements of the generated matrix
algebra, read their eigenvalues off the char poly's block split (a
1 x 1 block is its own eigenvalue; only the larger blocks are scanned
over the field), spin null vectors through the generators, and certify
irreducibility with the dual (transposed) spin when the eigenspace is a
line.  A one-dimensional eigenspace of an algebra element also
certifies that the commutant is scalar, which upgrades the verdict to
absolute irreducibility.  The first samples are the generators, so the
eigen-step reads what their structure gives: theta - lam I changes only
the diagonal, and a diagonal shift's kernel is a set of unit vectors.

A scalar sample, theta = lam I, says nothing of the module: of its
eigenspace, the whole space, only the first vector is probed, which
still finds the submodule span(e_1) when every generator is scalar.  The
dual spin reads the generators' packed rows, which are the columns of
their transposes, so no transposed generator is built; a diagonal
theta - lam I is its own transpose.
"""

from __future__ import annotations

import dataclasses
import itertools
import random
from dataclasses import dataclass
from math import gcd
from operator import mul
from typing import Optional

from .curve import CurveAutomorphism, InvalidCurveError
from .ff import (FieldDescriptor, FieldElement, _inverse, _mul_matrix, _norm, _polymul, _power, _prime_divisors,
                 _times, _trim, check_budget, is_prime, lift_to, make_field)
from .linalg import FieldMatrix, _Rows, _strong_components, _Transpose, _unit_rows, is_invariant_subspace, spin
from .poly import Polynomial, roots_in_field


class MeatAxeInconclusive(RuntimeError):
    """Sampling budget exhausted without a certified verdict."""


@dataclass(frozen=True)
class DifferentialBasis:
    p: int
    m: int
    m_prime: int
    entries: tuple  # (j, i) pairs in lexicographic order

    @property
    def dim(self) -> int:
        return len(self.entries)

    def index(self, j: int, i: int) -> int:
        return self.entries.index((j, i))


# Building and deciding a module takes about 90 bytes and 0.4 us of CPU per
# entry: m = 2 at p = 2003 (dim 1001) 111 MB and 0.37 s, Hermitian p = 47
# (dim 1081) 96 MB and 0.33 s, on a 2-CPU x86_64 machine with Python 3.11.
# The budget admits dim 1448.
MODULE_ENTRY_BUDGET = 2**21


def module_estimate(p: int, m: int):
    """The work estimate of building the canonical module of y^m = x^p - x,
    as the arguments of `check_budget`: dim^2 entries per generator."""
    dim = (p - 1) * (m - 1) // 2
    return "canonical module", dim * dim, "dim^2 generator entries, dim = (p-1)(m-1)/2", MODULE_ENTRY_BUDGET


def build_basis(p: int, m: int) -> DifferentialBasis:
    """Index pairs (j, i) labelling the differentials x^i dx / y^j."""
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if m < 2:
        raise ValueError(f"m must be >= 2, got {m}")
    if (p + 1) % m != 0:
        raise ValueError(f"m = {m} does not divide p + 1 = {p + 1}")
    check_budget(*module_estimate(p, m))
    mp = (p + 1) // m
    entries = [(j, i) for j in range(1, m) for i in range(mp * j - 1)]
    expected = (p - 1) * (m - 1) // 2
    assert len(entries) == expected, "basis count disagrees with the genus"
    return DifferentialBasis(p=p, m=m, m_prime=mp, entries=tuple(entries))


@dataclass(frozen=True)
class RepresentationModule:
    p: int
    m: int
    field: FieldDescriptor
    dim: int
    generators: tuple  # FieldMatrix over F_{p^2}
    labels: tuple


def zeta_of_order(K: FieldDescriptor, m: int):
    """Deterministic element of exact multiplicative order m in K: the
    first in `elements()` order.

    K^x is cyclic of order q-1, so z -> z^((q-1)/m) maps onto the m-th roots
    of unity; the first nonzero z whose image h has exact order m gives
    them all as powers of h, and those of exact order m are h^t with t
    prime to m.  The first of them is the least residue tuple.  When p - 1
    divides (q-1)/m, every c in F_p^x has c^((q-1)/m) = 1, so z and c z have
    the same image: only one z per F_p^x-line is tried, the one whose first
    nonzero residue is 1.
    """
    Q = K.order - 1
    if Q % m != 0:
        raise ValueError(f"K has no element of order {m}")
    p, k = K.p, K.k
    one, primes = K.one().coeffs, list(_prime_divisors(m))
    if Q // m % (p - 1) == 0:
        candidates = ((0,) * i + (1,) + rest for i in reversed(range(k))
                      for rest in itertools.product(range(p), repeat=k - 1 - i))
    else:
        candidates = (z.coeffs for z in K.elements() if not z.is_zero())
    h = next(h for h in (_power(K, z, Q // m) for z in candidates)
             if all(_power(K, h, m // r) != one for r in primes))
    return FieldElement(K, min(tuple(z) for t, z in enumerate(_element_powers(K, h, m)) if gcd(t, m) == 1))


def _element_powers(K, c, n):
    """The residues of c^0, ..., c^(n-1) for c given by its residues."""
    rows, out = _mul_matrix(K, c), [list(K.one().coeffs)]
    for _ in range(1, n):
        out.append(_times(rows, out[-1], K.p))
    return out


def generator_matrix(B: DifferentialBasis, sigma: CurveAutomorphism, K=None) -> FieldMatrix:
    """Matrix of the pullback of sigma in the differential basis.

    Columns are images of basis vectors; composing maps left-to-right
    (CurveAutomorphism.compose) corresponds to the matrix product in the
    same order.  The zeta map is diagonal, with entry z^(-j) on the
    x^i dx / y^j row.  A Moebius map has its entries in F_p: the column of
    x^i dx / y^j is (a x + b)^i (c x + d)^(m' j - 2 - i), so block j is
    Sym^(m' j - 2) of a 2 x 2 matrix over F_p, written in residue slot 0.
    """
    if K is None:
        K = make_field(B.p, 2)
    p = K.p
    if sigma.kind == "zeta":
        z = sigma.zeta if sigma.zeta.field == K else lift_to(sigma.zeta, K)
        if _power(K, z.coeffs, B.m) != K.one().coeffs:
            raise InvalidCurveError("zeta is not an m-th root of unity")
        diagonal = _element_powers(K, _inverse(K, z.coeffs), B.m)
        return _square_matrix(K, B.dim, [(c, c, diagonal[j]) for c, (j, _) in enumerate(B.entries)])
    if sigma.kind != "mobius":
        raise InvalidCurveError(f"unknown automorphism kind {sigma.kind!r}")
    if any(t.field.p != p or any(t.coeffs[1:]) for t in sigma.abcd):
        raise InvalidCurveError("Moebius entries must lie in the prime field")
    a, b, c, d = (t.coeffs[0] for t in sigma.abcd)
    tops = [B.m_prime * j - 2 for j in range(1, B.m)]
    pieces, start = [], 0
    for top, block in zip(tops, _sym_power_columns(_trim([b, a]), _trim([d, c]), tops, K._prime)):
        # row t of the block holds the X^t coefficients of its columns
        rows = zip(*[pol + [0] * (top + 1 - len(pol)) for pol in block])
        pieces += [(start + t, start, row) for t, row in enumerate(rows)]
        start += top + 1
    return _square_matrix(K, B.dim, pieces, 1)


def _sym_power_columns(f, g, degrees, K):
    """The columns of Sym^n, n in degrees, of the 2 x 2 matrix over K that
    sends the two variables to the linear forms f and g, trimmed flat
    residue lists in X, the first variable with the second set to 1:
    column i is f^i g^(n-i), whose X^t coefficient is its entry on the
    monomial of degree t in X.  Every power is taken once and a column is
    one product, where no factor is 1: x -> x + 1 and x -> -1/x each send
    one variable to the constant 1, so their columns are powers.
    """
    one = [1] + [0] * (K.k - 1)

    def times(a, b):
        return b if a == one else a if b == one else _polymul(a, b, K)

    fp, gp = [one], [one]
    for _ in range(max(degrees, default=0)):
        fp.append(times(fp[-1], f))
        gp.append(times(gp[-1], g))
    return [[times(fp[i], gp[n - i]) for i in range(n + 1)] for n in degrees]


def _square_matrix(K, dim, pieces, width=None):
    """The dim x dim matrix over K with the flat residues vals, `width` per
    entry (k by default; 1 puts F_p residues in slot 0), along row r from
    column c on, for each (r, c, vals) in pieces, and zeros elsewhere.
    Each row is filled in a list of its own, which measured about twice
    as fast as slicing one dim^2 list into rows."""
    k, width = K.k, width or K.k
    by_row = [[] for _ in range(dim)]
    for r, c, vals in pieces:
        by_row[r].append((c * k, vals))
    zero, out = [0] * (dim * k), []
    for row_pieces in by_row:
        row = zero.copy()
        for s, vals in row_pieces:
            row[s:s + len(vals) // width * k:k // width] = vals
        out.append(tuple(row))
    return FieldMatrix(K, _Rows(K, out))


def sl2_generators(p: int):
    """The standard SL(2, F_p) generating pair: x -> x+1 and x -> -1/x."""
    Fp = make_field(p, 1)
    t = CurveAutomorphism.mobius_ints(Fp, 1, 1, 0, 1)
    s = CurveAutomorphism.mobius_ints(Fp, 0, 1, -1, 0)
    return t, s


def canonical_module(p: int, m: int) -> RepresentationModule:
    """The canonical representation of the automorphism group on the
    holomorphic differentials.

    For m < p+1 the group is generated by the vertical root-of-unity map
    and the SL(2, F_p) lifts, acting by pullback in the differential
    basis.  For m = p+1 those two kinds only generate a proper subgroup
    that fixes every y-power block; the full automorphism group of the
    maximal-genus member is the projective unitary group of the smooth
    plane model, so its action is realized on the degree-(p-2) monomial
    basis instead (an isomorphic module, still over F_{p^2}).
    """
    if m == p + 1:
        return hermitian_plane_module(p)
    B = build_basis(p, m)
    K = make_field(p, 2)
    zeta = zeta_of_order(K, m)
    zmap = CurveAutomorphism.root_of_unity(zeta, m)
    t, s = sl2_generators(p)
    gens = tuple([generator_matrix(B, g, K) for g in (zmap, t, s)])
    labels = ("zeta_m", "x -> x + 1", "x -> -1/x")
    return RepresentationModule(p=p, m=m, field=K, dim=B.dim, generators=gens, labels=labels)


def _monomials(degree: int):
    """Exponent triples (a, b, c) with a + b + c = degree, lex order."""
    return [(a, b, degree - a - b) for a in range(degree, -1, -1) for b in range(degree - a, -1, -1)]


def hermitian_plane_module(p: int) -> RepresentationModule:
    """Canonical representation of the full automorphism group of the
    maximal-genus member (m = p+1), via the smooth plane model.

    The holomorphic differentials of a smooth plane curve of degree p+1
    are the degree-(p-2) forms; linear substitutions preserving the
    x0^(p+1) + x1^(p+1) + x2^(p+1) defining polynomial act on them.
    Generators: the diagonal scaling x0 -> zeta x0 of order p+1, the
    coordinate rotation and swap, which permute the monomials, and a
    unitary mixer of x0 and x1, whose block on the monomials of x2-degree c
    is Sym^(p-2-c) of a 2 x 2 matrix.  Character twists are omitted since
    they do not move invariant subspaces.
    """
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    check_budget(*module_estimate(p, p + 1))
    K = make_field(p, 2)
    n, k = p - 2, K.k
    monos = _monomials(n)
    dim = len(monos)
    assert dim == (p - 1) * p // 2, "monomial count disagrees with the genus"
    index = {mono: r for r, mono in enumerate(monos)}
    one = K.one().coeffs
    zeta_powers = _element_powers(K, zeta_of_order(K, p + 1).coeffs, n + 1)
    mats = [_square_matrix(K, dim, [(r, r, zeta_powers[a]) for r, (a, _, _) in enumerate(monos)]),
            _square_matrix(K, dim, [(index[(c, a, b)], r, one) for r, (a, b, c) in enumerate(monos)]),
            _square_matrix(K, dim, [(index[(b, a, c)], r, one) for r, (a, b, c) in enumerate(monos)])]
    labels = [f"plane-model {label}" for label in ("scaling", "rotation", "swap", "mixer")]
    pair = _unit_norm_pair(K, p)
    # p = 2 has no pair: u^3 + v^3 = 1 in F_4 forces u = 0 or v = 0, since
    # every nonzero cube is 1; the module is then one-dimensional and the
    # other generators suffice
    if pair is not None:
        # x0 -> u x0 - v^p x1 and x1 -> v x0 + u^p x1
        u, v = (t.coeffs for t in pair)
        minus_vp = [-c % p for c in _power(K, v, p)]
        blocks = _sym_power_columns(minus_vp + list(u), list(_power(K, u, p) + v), range(n + 1), K)
        pieces = []
        for c in range(n + 1):
            # the monomials x0^t x1^(d-t) x2^c, whose column t is f^t g^(d-t)
            d = n - c
            block = [index[(t, d - t, c)] for t in range(d + 1)]
            for col, pol in zip(block, blocks[d]):
                pieces += [(r, col, pol[i:i + k]) for r, i in zip(block, range(0, len(pol), k))]
        mats.append(_square_matrix(K, dim, pieces))
    return RepresentationModule(p=p, m=p + 1, field=K, dim=dim, generators=tuple(mats),
                                labels=tuple(labels[:len(mats)]))


def _unit_norm_pair(K, p: int):
    """Deterministic u, v in K, both nonzero, with N(u) + N(v) = 1 for the norm N(x) = x^(p+1): the
    first u in `elements()` order that has a v, and its first v; None when no such pair exists."""
    units = [z for z in K.elements() if not z.is_zero()]
    first = {}
    for v in units:
        first.setdefault(_norm(K, v.coeffs), v)
    return next(((u, first[t]) for u in units for t in [(1 - _norm(K, u.coeffs)) % p] if t in first), None)


# the routes a verdict can take, as `rep` names them in its provenance
MEATAXE_ROUTE = "meataxe-dual-spin-certificate"
WEIGHT_ROUTE = "torus-weight-connectivity-certificate"
FLAG_ROUTE = "unipotent-flag-certificate"
GRADING_ROUTE = "diagonal-grading-certificate"


@dataclass(frozen=True)
class IrreducibilityVerdict:
    verdict: str                      # absolutely-irreducible / reducible
    witness: Optional[FieldMatrix]    # columns span an invariant subspace
    endo_dim: Optional[int]           # commutant dimension when computed
    # how the verdict was reached; verdicts compare by their content alone
    route: str = dataclasses.field(default=MEATAXE_ROUTE, compare=False)


def decide_irreducibility(R: RepresentationModule, seed: int = 0, budget: int = 200) -> IrreducibilityVerdict:
    """The verdict of `certificate` where its premises decide, else that of
    the seeded MeatAxe (`meataxe_decide`)."""
    return certificate(R) or meataxe_decide(R, seed, budget)


def certificate(R: RepresentationModule) -> Optional[IrreducibilityVerdict]:
    """R's verdict from its generators' shapes, without sampling, or None
    when no premise decides it.  Each generator is tested for diagonality
    once, and the diagonal generators' entries serve the grading and the
    weight premise.

    Grading premise (reducible): a diagonal D with at least two distinct
    entries, such that every generator's nonzero entry (i, j) has
    D_ii = D_jj.  Each eigenspace of D is then a proper submodule; the
    witness is that of D_00, re-checked by `is_invariant_subspace`.  A row
    of grade g is zero off the runs of columns of grade g when its zeros
    and its nonzero residues on those runs fill it, which counts each
    entry once at C speed.

    Weight premise: a diagonal D and a monomial P whose weights are
    distinct.  P e_i is a multiple of e_(pi(i)), so P^t D P^(-t) is
    diagonal with D[pi^(-t)(i)] at i, whatever P's scalars; these span a
    torus, and e_i has the weight t -> D[pi^(-t)(i)], compared by its
    values along P's orbit of i (were two weights equal with different
    orbit lengths, the longer orbit would have a shorter period, and two
    of its own members would share their values).  Distinct weights put
    every coordinate projection in the algebra, so every submodule is
    spanned by basis vectors.  A diagonal P stands for the identity.
    Flag premise: an upper unitriangular generator with no zero on its
    superdiagonal, one Jordan block, whose invariant subspaces are the
    flag V_k = <e_0..e_(k-1)>.

    Under either premise R is irreducible iff the union of the generators'
    support digraphs is strongly connected.  Under the flag premise the
    superdiagonal is the path 0 -> 1 -> ... -> dim-1, so that holds iff
    every cut {>= k} -> {< k} has an edge: iff some generator moves each
    V_k.  The verdict holds over every extension field, so it is absolute,
    and Schur's lemma gives commutant dimension 1.  A module of dimension
    below 2 is left to the MeatAxe.
    """
    if R.dim < 2:
        return None
    k, n, gens = R.field.k, R.dim * R.field.k, R.generators
    diagonal = [G._is_diagonal() for G in gens]
    entries = [[row[i * k:i * k + k] for i, row in enumerate(D._rows)] for D in itertools.compress(gens, diagonal)]
    for grade in entries:
        spans, start = {}, 0
        for g, run in itertools.groupby(grade):
            spans.setdefault(g, []).append((start, start + len(list(run)) * k))
            start = spans[g][-1][1]
        if len(spans) > 1 and all(row.count(0) + sum(b - a - row[a:b].count(0) for a, b in spans[g]) == n
                                  for G, d in zip(gens, diagonal) if not d for row, g in zip(G._rows, grade)):
            block = [i for i, g in enumerate(grade) if g == grade[0]]
            return _reducible(R.field, _unit_rows(R.field, R.dim, block), gens, GRADING_ROUTE)
    orbits = (list(range(R.dim)) if d else _monomial_columns(P) for P, d in zip(gens, diagonal))
    weights = bool(entries) and any(_orbit_values_differ(D, back)
                                    for back in orbits if back is not None for D in entries)
    if weights or any(map(_is_jordan_block, gens)):
        adjs = [G._adjacency() for G in gens]
        if len(_strong_components([list(itertools.chain.from_iterable(out)) for out in zip(*adjs)])) == 1:
            return IrreducibilityVerdict("absolutely-irreducible", None, 1, WEIGHT_ROUTE if weights else FLAG_ROUTE)
    return None


def _orbit_values_differ(D, back) -> bool:
    """The values of D, a list of diagonal entries, along the orbit of each
    i under back (from back[i] on, until it returns to i), are distinct."""
    weights = set()
    for i in range(len(back)):
        orbit, j = [D[i]], back[i]
        while j != i:
            orbit.append(D[j])
            j = back[j]
        weights.add(tuple(orbit))
        if len(weights) <= i:
            return False
    return True


def _monomial_columns(P):
    """The column of each row's one nonzero entry, pi^(-1) for P e_i a
    multiple of e_(pi(i)); None unless P is monomial.  A row's first
    nonzero residue is found, and the rest of the row checked, at C speed."""
    k, back = P.field.k, []
    for row in P._rows:
        j = next(itertools.compress(itertools.count(), row), -k) // k
        if j < 0 or any(row[j * k + k:]):
            return None
        back.append(j)
    return back if len(set(back)) == len(back) else None


def _is_jordan_block(U) -> bool:
    """U is upper unitriangular with no zero on its superdiagonal: one
    Jordan block, whose invariant subspaces are the flag V_k."""
    k, n = U.field.k, U.nrows
    one = (1,) + (0,) * (k - 1)
    return all(not any(row[:i * k]) and row[i * k:i * k + k] == one
               and (i + 1 == n or any(row[i * k + k:i * k + 2 * k])) for i, row in enumerate(U._rows))


def meataxe_decide(R: RepresentationModule, seed: int = 0, budget: int = 200) -> IrreducibilityVerdict:
    """Seeded MeatAxe with the dual-spin certificate.

    Reducible verdicts always carry a witness that is re-verified by the
    rank test before returning.  An exhausted budget raises
    MeatAxeInconclusive rather than guessing.
    """
    field = R.field
    dim = R.dim
    gens = list(R.generators)
    if dim == 0:
        raise ValueError("zero-dimensional module")
    if dim == 1:
        return IrreducibilityVerdict("absolutely-irreducible", None, 1)
    rng = random.Random(seed)
    pool = list(gens)
    for attempt in range(budget):
        theta = _sample_algebra_element(rng, pool, gens, field, attempt)
        # one pass over the eigenvalues, simple roots first: a simple root
        # has nullity one, and a nullity-one eigenvalue decides the module
        # by the spin and the dual spin; larger nullspaces only probe their
        # vectors for submodules
        for _, lam in _roots_with_multiplicity(field, theta._charpoly_blocks()):
            shifted = theta._minus_scalar(lam)
            null = shifted.nullspace()
            if len(null) == 1:
                return _norton_decide(field, dim, shifted, null, gens)
            # theta = lam I tells nothing of the module, so only its first
            # vector is probed: that still finds span(e_1) when every
            # generator is scalar
            for i in range(1 if len(null) == dim else len(null)):
                sub = spin(field, null[i:i + 1], gens)
                if len(sub) < dim:
                    return _reducible(field, sub, gens)
    raise MeatAxeInconclusive(
        f"no certificate after {budget} algebra samples (dim {dim} over {field!r})"
    )


def _roots_with_multiplicity(field, blocks):
    """Roots in field of the product of the monic factors `blocks` (flat
    residue lists, as `FieldMatrix._charpoly_blocks` gives them), sorted by
    (multiplicity, coeffs).

    A linear factor x - c gives the root c at once; a larger one is scanned
    for roots and deflated on its own.  Multiplicities add up across the
    factors.
    """
    p, k = field.p, field.k
    mults = {}
    for block in blocks:
        if len(block) == 2 * k:
            lam = tuple([-c % p for c in block[:k]])
            mults[lam] = mults.get(lam, 0) + 1
            continue
        coeffs = [block[i:i + k] for i in range(0, len(block), k)]
        for lam in roots_in_field(Polynomial._of(field, list(block)), field):
            # divide lam's factors out, so later roots deflate a shorter quotient
            rows = _mul_matrix(field, lam.coeffs)
            mult, (quotient, value) = 0, _deflate(coeffs, rows, p)
            while not any(value):
                mult, coeffs = mult + 1, quotient
                quotient, value = _deflate(coeffs, rows, p)
            mults[lam.coeffs] = mults.get(lam.coeffs, 0) + mult
    return [(mult, FieldElement(field, lam)) for mult, lam in sorted((m, lam) for lam, m in mults.items())]


def _deflate(coeffs, rows, p):
    """Synthetic division by (x - lam) of the polynomial with residue-tuple
    coefficients, lam given by the rows of its multiplication matrix: the
    quotient and the value at lam."""
    quotient = [None] * (len(coeffs) - 1)
    acc = coeffs[-1]
    for i in range(len(coeffs) - 2, -1, -1):
        quotient[i] = acc
        acc = [(c + sum(map(mul, r, acc))) % p for c, r in zip(coeffs[i], rows)]
    return quotient, acc


def _norton_decide(field, dim, shifted, null, gens):
    """Decide the module from the null vector v of shifted = theta - lam I,
    given as its one-row nullspace `null`, where lam is a nullity-one
    eigenvalue of an algebra element theta.

    Spins v through the generators; a proper closure is a submodule.
    Otherwise the transposed null vector is spun through the transposed
    generators; a proper dual closure gives a submodule as its
    annihilator, and full closures on both sides certify absolute
    irreducibility (the eigenline forces a scalar commutant).
    """
    sub = spin(field, null, gens)
    if len(sub) < dim:
        return _reducible(field, sub, gens)
    # the dual spin reads the generators' packed rows, the columns of their
    # transposes; a diagonal shifted is its own transpose
    left = null if shifted._is_diagonal() else shifted.transpose().nullspace()[:1]
    dual = spin(field, left, [_Transpose(g) for g in gens])
    if len(dual) < dim:
        ann = FieldMatrix(field, dual).nullspace()
        return _reducible(field, ann, gens)
    return IrreducibilityVerdict("absolutely-irreducible", None, 1)


def _reducible(field, basis_rows, gens, route=MEATAXE_ROUTE) -> IrreducibilityVerdict:
    if not is_invariant_subspace(basis_rows, gens):
        raise AssertionError("witness failed the invariance rank test")
    witness = FieldMatrix.from_columns(field, basis_rows)
    return IrreducibilityVerdict("reducible", witness, None, route)


def _sample_algebra_element(rng, pool, gens, field, attempt):
    # early attempts use the generators themselves; afterwards random
    # products and affine combinations widen the sampled algebra
    if attempt < len(gens):
        return gens[attempt]
    a = rng.randrange(len(pool))
    b = rng.randrange(len(pool))
    prod = pool[a] @ pool[b]
    if len(pool) < 24:
        pool.append(prod)
    c = rng.randrange(len(pool))
    # element i of `elements()` order has the base-p digits of i as residues
    i, p = rng.randrange(field.order), field.p
    return prod + pool[c].scale([i // p**u % p for u in reversed(range(field.k))])


def explicit_invariant_subspace(B: DifferentialBasis) -> FieldMatrix:
    """Coordinate inclusion of the j = 1 block, the eigenspace of zeta_m
    that `certificate` gives as its grading witness for the canonical
    module of B and checks invariant there.  Defined for 2 < m < p+1: the
    block is nonzero (m' >= 2) and proper (another j-block exists).
    """
    if not (2 < B.m < B.p + 1):
        raise ValueError("invariant j=1 block applies for 2 < m < p+1 only")
    K = make_field(B.p, 2)
    return FieldMatrix.from_columns(K, _unit_rows(K, B.dim, range(B.m_prime - 1)))


@dataclass(frozen=True)
class DivisorTable:
    p: int
    m: int
    genus: int
    div_x: tuple      # (place label, multiplicity)
    div_y: tuple
    div_dx: tuple
    canonical_degree: int
    genus_at_least_two: bool


def divisor_table(p: int, m: int) -> DivisorTable:
    """Divisors of x, y and dx on y^m = x^p - x, and the canonical degree.

    x vanishes to order m at (0,0) and has a pole of order m at the one
    point at infinity; y vanishes at every (a, 0), a in F_p; dx vanishes
    to order m-1 at each (a, 0) with a pole of order m+1 at infinity.
    """
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if m < 2 or (p + 1) % m != 0:
        raise ValueError(f"m = {m} is not a divisor >= 2 of p + 1")
    g = (p - 1) * (m - 1) // 2
    div_x = (("(0,0)", m), ("infinity", -m))
    div_y = tuple([(f"({a},0)", 1) for a in range(p)]) + (("infinity", -p),)
    div_dx = tuple([(f"({a},0)", m - 1) for a in range(p)]) + (("infinity", -(m + 1)),)
    for div in (div_x, div_y):
        assert sum(mult for _, mult in div) == 0, "principal divisor has degree != 0"
    kdeg = p * m - p - m - 1
    assert sum(mult for _, mult in div_dx) == kdeg
    assert kdeg == 2 * g - 2, "canonical degree disagrees with the genus"
    return DivisorTable(
        p=p,
        m=m,
        genus=g,
        div_x=div_x,
        div_y=div_y,
        div_dx=div_dx,
        canonical_degree=kdeg,
        genus_at_least_two=g >= 2,
    )


# dim^2 unknowns at dim 20, where m = 2 at p = 41 takes 3.3 s (0.4 s at dim 14)
COMMUTANT_DIRECT_LIMIT = 20**2


def commutant_dimension(generators) -> int:
    """Dimension of {C : G C = C G for every generator G}, by a direct
    linear solve on the dim^2 unknown entries.

    Exact but cubic in dim^2; guarded so the certificate path inside
    decide_irreducibility handles large modules instead.
    """
    if not generators:
        raise ValueError("need at least one generator")
    field = generators[0].field
    dim = generators[0].nrows
    check_budget("direct commutant solve", dim * dim, "dim^2 unknowns", COMMUTANT_DIRECT_LIMIT)
    zero = field.zero()
    rows = []
    for G in generators:
        for i in range(dim):
            for j in range(dim):
                row = [zero] * (dim * dim)
                # (G C - C G)[i][j] = sum_k G[i,k] C[k,j] - C[i,k] G[k,j]
                for k in range(dim):
                    row[k * dim + j] = row[k * dim + j] + G[i, k]
                    row[i * dim + k] = row[i * dim + k] - G[k, j]
                rows.append(row)
    return len(FieldMatrix(field, rows).nullspace())
