"""Canonical representation of Aut(X) for X: y^m = x^p - x, m | p+1.

The holomorphic differentials have basis x^i dx / y^j with 1 <= j <= m-1
and 0 <= i <= m'j - 2 (m' = (p+1)/m), of size (p-1)(m-1)/2 = genus.  An
automorphism (A, mu) (`curve.CurveAutomorphism`) pulls x^i dx / y^j back
to det(A) mu^(-j) (a x + b)^i (c x + d)^(m'j - 2 - i) dx / y^j, so it
keeps each j-block and acts there as det(A) mu^(-j) Sym^(m'j - 2)(A)
(`_sym_power_columns`).  The vertical map (I, zeta_m) and the SL(2, F_p)
lifts x -> x + 1 and x -> -1/x generate the module, over F_{p^2}, which
contains the m-th roots of unity because m | p+1.  Field and polynomial
work is `ff`'s: zeta_m is a power of `ff._primitive_element`, the
Hermitian mixer's unit pair comes from `ff._norm`, and the MeatAxe
divides its eigenvalues out of char-poly blocks with `ff._polydivmod`.

Each generator is kept as the pieces its builder makes (a
`linalg._PieceMatrix`): diagonal entries, single entries or the rows of
each Sym^n block.  Its dense rows are built only when a caller reads
them: the MeatAxe, `@`, equality and hashing, `rows` and `rep --json`.

Irreducibility is decided first by `certificate`, one pass that reads
only the generators' pieces and checks its premises at runtime.  Its
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
"""

from __future__ import annotations

import dataclasses
import itertools
import operator
import random
from dataclasses import dataclass
from math import gcd
from typing import Optional

from .curve import CurveAutomorphism, _artin_schreier_poly, check_automorphism
from .ff import (FieldDescriptor, FieldElement, _inverse, _mul_matrix, _norm, _polydivmod, _polymul, _power,
                 _primitive_element, _scale, _times, _trim, check_budget, is_prime, lift_to, make_field)
from .linalg import (FieldMatrix, _adjacency, _diagonal_entries, _PieceMatrix, _pieces, _strong_components, _Transpose,
                     _unit_rows, is_invariant_subspace, spin)
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


# Building and deciding keeps the generators' pieces: m = 2 at p = 2003
# (dim 1001) 40 MB of peak RSS and 0.12 s, Hermitian p = 47 (dim 1081)
# 7.5 MB and 0.07 s, on a 2-CPU x86_64 machine with Python 3.11.  The budget
# counts dim^2 entries, as `rep --json` builds every entry: about 75 bytes
# and 0.1 us more per entry.  The budget admits dim 1448.
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

    K^x is cyclic of order q-1, so for its generator g
    (`ff._primitive_element`) h = g^((q-1)/m) has exact order m, and the
    elements of exact order m are h^t with t prime to m, whichever
    generator gave h.  The first of them is the least residue tuple.
    """
    Q = K.order - 1
    if Q % m != 0:
        raise ValueError(f"K has no element of order {m}")
    h = _power(K, _primitive_element(K).coeffs, Q // m)
    return FieldElement(K, min(tuple(z) for t, z in enumerate(_element_powers(K, h, m)) if gcd(t, m) == 1))


def _element_powers(K, c, n):
    """The residues of c^0, ..., c^(n-1) for c given by its residues."""
    rows, out = _mul_matrix(K, c), [list(K.one().coeffs)]
    for _ in range(1, n):
        out.append(_times(rows, out[-1], K.p))
    return out


def generator_matrix(B: DifferentialBasis, sigma: CurveAutomorphism, K=None) -> FieldMatrix:
    """Matrix of the pullback of sigma = (A, mu) in the differential basis,
    over K (F_{p^2} by default), once sigma passes `check_automorphism` on
    y^m = x^p - x, whose weight is m'.  Columns are images of basis
    vectors; composing maps left-to-right (CurveAutomorphism.compose)
    corresponds to the matrix product in the same order.  The pullback
    sends x^i dx / y^j to det(A) mu^(-j) (a x + b)^i (c x + d)^(m'j - 2 - i)
    dx / y^j, so block j is det(A) mu^(-j) Sym^(m'j - 2)(A)."""
    check_automorphism(sigma, _artin_schreier_poly(make_field(B.p)), B.m, B.m_prime)
    return _pullback_matrix(B, sigma, K or make_field(B.p, 2))


def _pullback_matrix(B, sigma, K):
    """The blocks det(A) mu^(-j) Sym^(m' j - 2)(A) of `generator_matrix`,
    over the smallest field that holds A's entries and mu: F_p, written in
    residue slot 0, or K.  The vertical map (I, mu) is diagonal, with
    mu^(-j) on block j; any other A goes through `_sym_power_columns`."""
    elements = (*sigma.abcd, sigma.mu)
    F = K if any(any(t.coeffs[1:]) for t in elements) else K._prime or K
    p, w, one = K.p, F.k, [1] + [0] * (F.k - 1)
    a, b, c, d, mu = (list(lift_to(t, K).coeffs) if F is K else [t.coeffs[0]] for t in elements)
    if a == d == one and not any(b) and not any(c):
        scales = _element_powers(F, _inverse(F, mu), B.m)
        return _PieceMatrix(K, B.dim, [(r, r, scales[j]) for r, (j, _) in enumerate(B.entries)], w)
    inv, s = _mul_matrix(F, _inverse(F, mu)), [(x - y) % p for x, y in zip(_times(_mul_matrix(F, a), d, p),
                                                                           _times(_mul_matrix(F, b), c, p))]
    tops, pieces, start = [B.m_prime * j - 2 for j in range(1, B.m)], [], 0
    for top, block in zip(tops, _sym_power_columns(_trim(b + a, w), _trim(d + c, w), tops, F)):
        s = _times(inv, s, p)  # det(A) mu^(-j)
        if s != one:
            block = [_scale(pol, s, F) for pol in block]
        # the residues of every column's X^t coefficient, interleaved, make row t
        rows = zip(*[pol + [0] * ((top + 1) * w - len(pol)) for pol in block])
        if w > 1:
            rows = [list(itertools.chain(*zip(*planes))) for planes in zip(*[rows] * w)]
        pieces += [(start + t, start, row) for t, row in enumerate(rows)]
        start += top + 1
    return _PieceMatrix(K, B.dim, pieces, w)


def _sym_power_columns(f, g, degrees, K):
    """The columns of Sym^n, n in degrees, of the 2 x 2 matrix over K that
    sends the two variables to the linear forms f and g, trimmed flat
    residue lists in X, the first variable with the second set to 1:
    column i is f^i g^(n-i), whose X^t coefficient is its entry on the
    monomial of degree t in X.  Every power is taken once and a column is
    one product, a shift and a scaling where a factor is a monomial c X^s:
    x -> x + 1 and x -> -1/x send one variable to 1 and one to X or -X.
    """
    k, one = K.k, [1] + [0] * (K.k - 1)

    def times(a, b):
        if a == one or b == one:
            return b if a == one else a
        if any(b[:-k]):
            a, b = b, a
        return _polymul(a, b, K) if any(b[:-k]) else [0] * (len(b) - k) + _scale(a, b[-k:], K)

    fp, gp = [one], [one]
    for _ in range(max(degrees, default=0)):
        fp.append(times(fp[-1], f))
        gp.append(times(gp[-1], g))
    return [[times(fp[i], gp[n - i]) for i in range(n + 1)] for n in degrees]


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
    basis.  For m = p+1 those maps only generate a proper subgroup
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
    # automorphisms by construction, so unchecked: zeta^m = 1, and on
    # f = x^p - x an A in SL(2, F_p) has f(A x) (c x + d)^(p + 1) = f(x)
    gens = tuple([_pullback_matrix(B, g, K) for g in (zmap, t, s)])
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
    mats = [_PieceMatrix(K, dim, [(r, r, zeta_powers[a]) for r, (a, _, _) in enumerate(monos)]),
            _PieceMatrix(K, dim, [(index[(c, a, b)], r, one) for r, (a, b, c) in enumerate(monos)]),
            _PieceMatrix(K, dim, [(index[(b, a, c)], r, one) for r, (a, b, c) in enumerate(monos)])]
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
        mats.append(_PieceMatrix(K, dim, pieces))
    return RepresentationModule(p=p, m=p + 1, field=K, dim=dim, generators=tuple(mats),
                                labels=tuple(labels[:len(mats)]))


def _unit_norm_pair(K, p: int):
    """Deterministic units u, v of K with N(u) + N(v) = 1, N(x) = x^(p+1), or
    None.  N maps K^x onto F_p^x, so u has a v iff N(u) != 1: u is the first
    such unit in `elements()` order and v the first of norm 1 - N(u)."""
    u = next((z for z in itertools.product(range(p), repeat=K.k) if any(z) and _norm(K, z) != 1), None)
    if u is None:
        return None
    t = (1 - _norm(K, u)) % p
    v = next(z for z in itertools.product(range(p), repeat=K.k) if _norm(K, z) == t)
    return FieldElement(K, u), FieldElement(K, v)


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
    when no premise decides it.  It reads the generators' pieces
    (`linalg._pieces`), never their dense rows: each generator is tested
    for diagonality once (`_diagonal_entries`), and the diagonal
    generators' entries serve the grading and the weight premise.

    Grading premise (reducible): a diagonal D with at least two distinct
    entries, such that every generator's nonzero entry (i, j) has
    D_ii = D_jj.  Each eigenspace of D is then a proper submodule; the
    witness is that of D_00, re-checked by `is_invariant_subspace`.

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
    superdiagonal is the path 0 -> 1 -> ... -> dim-1, which implies every
    other edge of the Jordan block and stands for it in the union, so that
    holds iff every cut {>= k} -> {< k} has an edge: iff some generator
    moves each V_k.  The verdict holds over every extension field, so it
    is absolute, and Schur's lemma gives commutant dimension 1.  A module
    of dimension below 2 is left to the MeatAxe.
    """
    if R.dim < 2:
        return None
    gens, n = R.generators, R.dim
    diagonal = [_diagonal_entries(G) for G in gens]
    entries = [D for D in diagonal if D is not None]
    for grade in entries:
        if len(set(grade)) > 1 and all(_keeps_grades(G, grade) for G, D in zip(gens, diagonal) if D is None):
            block = [i for i, g in enumerate(grade) if g == grade[0]]
            return _reducible(R.field, _unit_rows(R.field, n, block), gens, GRADING_ROUTE)
    backs = [list(range(n)) if D is not None else _monomial_columns(G) for G, D in zip(gens, diagonal)]
    weights = any(_orbit_values_differ(D, back) for back in backs if back is not None for D in entries)
    jordan = [back is None and _is_jordan_block(G) for G, back in zip(gens, backs)]
    if weights or any(jordan):
        # a Jordan block's edges i -> j > i all follow its superdiagonal
        # path, and a monomial generator's are i -> back[i]
        path = [[i + 1] for i in range(n - 1)] + [[]]
        adjs = [path if J else _adjacency(G) if b is None else [[j] if j != i else [] for i, j in enumerate(b)]
                for G, b, J in zip(gens, backs, jordan)]
        if len(_strong_components([list(itertools.chain.from_iterable(out)) for out in zip(*adjs)])) == 1:
            return IrreducibilityVerdict("absolutely-irreducible", None, 1, WEIGHT_ROUTE if weights else FLAG_ROUTE)
    return None


def _keeps_grades(G, g):
    """Every nonzero entry (i, j) of G has g[i] == g[j], for grades g.  A
    piece within its row's run of equal grades is not read."""
    rows, cols, vals, w = _pieces(G)
    run = list(itertools.accumulate(map(operator.ne, g, g[:1] + g[:-1])))
    return all(run[r] == run[c] == run[c + len(v) // w - 1]
               or not any(any(v[(j - c) * w:(j - c + 1) * w]) for j in range(c, c + len(v) // w) if g[j] != g[r])
               for r, c, v in zip(rows, cols, vals))


def _monomial_columns(G):
    """The column of each row's one nonzero entry, pi^(-1) for G e_i a
    multiple of e_(pi(i)); None unless G is monomial.  A piece's first
    nonzero residue is found, and the rest checked, at C speed."""
    rows, cols, vals, w = _pieces(G)
    back = [-1] * G.nrows
    for r, c, v in zip(rows, cols, vals):
        i = next(itertools.compress(itertools.count(), v), -1) // w
        if i >= 0 and (back[r] >= 0 or any(v[i * w + w:])):
            return None
        back[r] = c + i if i >= 0 else back[r]
    return back if sorted(back) == list(range(G.nrows)) else None


def _is_jordan_block(G) -> bool:
    """G is upper unitriangular with no zero on its superdiagonal: one
    Jordan block, whose invariant subspaces are the flag V_k.  seen[i]
    counts row i's diagonal 1 and nonzero superdiagonal entry."""
    rows, cols, vals, w = _pieces(G)
    seen = [0] * (G.nrows - 1) + [1]
    for r, c, v in zip(rows, cols, vals):
        e = (r - c) * w  # where the diagonal entry starts in v
        if any(v[:max(e, 0)]) or 0 <= e < len(v) and (v[e] != 1 or any(v[e + 1:e + w])):
            return False
        seen[r] += (0 <= e < len(v)) + (-w <= e < len(v) - w and any(v[e + w:e + 2 * w]))
    return seen == [2] * G.nrows


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
    for roots, each divided out by `ff._polydivmod` while it leaves no
    remainder.  Multiplicities add up across the factors.
    """
    p, k = field.p, field.k
    mults = {}
    for block in blocks:
        if len(block) == 2 * k:
            lam = tuple([-c % p for c in block[:k]])
            mults[lam] = mults.get(lam, 0) + 1
            continue
        for lam in roots_in_field(Polynomial._of(field, list(block)), field):
            # divide lam's factors out, so later roots divide a shorter quotient
            linear, mult = [-c % p for c in lam.coeffs] + [1] + [0] * (k - 1), 0
            quotient, rest = _polydivmod(block, linear, field)
            while not rest:
                mult, block = mult + 1, quotient
                quotient, rest = _polydivmod(block, linear, field)
            mults[lam.coeffs] = mults.get(lam.coeffs, 0) + mult
    return [(mult, FieldElement(field, lam)) for mult, lam in sorted((m, lam) for lam, m in mults.items())]


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
    left = null if _diagonal_entries(shifted) is not None else shifted.transpose().nullspace()[:1]
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
