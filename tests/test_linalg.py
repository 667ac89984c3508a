import random

import pytest

from superell import linalg
from superell.ff import _unpack, make_field
from superell.linalg import (
    FieldMatrix,
    _adjacency,
    _EchelonAccumulator,
    _packed_lines,
    _slot_bytes,
    _Transpose,
    _strong_components,
    is_invariant_subspace,
    span_basis,
    spin,
)
from superell.poly import Polynomial


def random_matrix(rng, field, n, m=None):
    m = n if m is None else m
    return FieldMatrix(field, [[rng.randrange(field.p) for _ in range(m)] for _ in range(n)])


def test_rank_and_nullspace_dimensions():
    F5 = make_field(5)
    rng = random.Random(2)
    for _ in range(30):
        n, m = rng.randrange(1, 6), rng.randrange(1, 6)
        M = random_matrix(rng, F5, n, m)
        r = M.rank()
        null = M.nullspace()
        assert r + len(null) == m
        zero = [F5.zero()] * n
        for v in null:
            assert list(M.mat_vec(v)) == zero


def test_inverse_round_trip():
    F7 = make_field(7)
    rng = random.Random(5)
    found = 0
    while found < 10:
        M = random_matrix(rng, F7, 4)
        if M.rank() < 4:
            continue
        found += 1
        assert M @ M.inverse() == FieldMatrix.identity(F7, 4)


def test_singular_inverse_raises():
    F5 = make_field(5)
    M = FieldMatrix(F5, [[1, 2], [2, 4]])
    with pytest.raises(ZeroDivisionError):
        M.inverse()


def brute_charpoly(M):
    """det(xI - A) by cofactor expansion over the polynomial ring."""
    field = M.field
    n = M.nrows
    entries = [
        [
            Polynomial(field, [-M[i, j], field.one()]) if i == j else Polynomial(field, [-M[i, j]])
            for j in range(n)
        ]
        for i in range(n)
    ]

    def det(rows, cols):
        if len(rows) == 1:
            return entries[rows[0]][cols[0]]
        total = Polynomial.zero(field)
        r = rows[0]
        for k, c in enumerate(cols):
            minor = det(rows[1:], cols[:k] + cols[k + 1 :])
            term = entries[r][c] * minor
            total = total + term if k % 2 == 0 else total - term
        return total

    return det(list(range(n)), list(range(n)))


def element_drawer(field, rng):
    """Uniform random elements: drawn from `elements()` for small fields, as
    random residues where listing the field would take too long."""
    if field.order <= 1000:
        elems = list(field.elements())
        return lambda: rng.choice(elems)
    return lambda: field.element([rng.randrange(field.p) for _ in range(field.k)])


@pytest.mark.parametrize("p,k", [(5, 1), (3, 2), (2, 1), (3, 1), (1000003, 1), (3, 3), (5, 3), (2**61 - 1, 1)])
def test_charpoly_matches_cofactor_expansion(p, k):
    K = make_field(p, k)
    rng = random.Random(p + k)
    draw = element_drawer(K, rng)
    for _ in range(15):
        n = rng.randrange(1, 5)
        M = FieldMatrix(K, [[draw() for _ in range(n)] for _ in range(n)])
        assert M.charpoly() == brute_charpoly(M)
    # scalar, diagonal and block matrices: one Krylov block per eigenvector
    d = [draw() for _ in range(4)]
    for M in (FieldMatrix.identity(K, 4).scale(d[0]),
              FieldMatrix(K, [[d[i] if i == j else 0 for j in range(4)] for i in range(4)]),
              FieldMatrix(K, [[d[0], 1, 0, 0], [0, d[0], 0, 0], [0, 0, d[1], d[2]], [0, 0, 0, d[3]]])):
        assert M.charpoly() == brute_charpoly(M)


def permuted_block_triangular(field, rng, kinds):
    """P A P^-1 for a random permutation P and A block upper triangular with
    one diagonal block per kind: "singleton" (1 x 1), "zero" (2 x 2),
    "dense" (3 x 3, no zero entry, so one strongly connected block) or
    "triangular" (3 x 3 upper triangular).  Entries above the blocks are
    random, zeros included."""
    draw = element_drawer(field, rng)
    size = {"singleton": 1, "zero": 2, "dense": 3, "triangular": 3}
    n = sum(size[kind] for kind in kinds)
    A = [[draw() for _ in range(n)] for _ in range(n)]
    start = 0
    for kind in kinds:
        end = start + size[kind]
        for i in range(start, end):
            A[i][:start] = [field.zero()] * start
            for j in range(start, end):
                if kind == "zero" or (kind == "triangular" and j < i):
                    A[i][j] = field.zero()
                elif kind == "dense":
                    while A[i][j].is_zero():
                        A[i][j] = draw()
        start = end
    perm = list(range(n))
    rng.shuffle(perm)
    return FieldMatrix(field, [[A[perm[i]][perm[j]] for j in range(n)] for i in range(n)])


@pytest.mark.parametrize("p,k", [(5, 1), (5, 2), (3, 3)])
def test_charpoly_of_permuted_block_triangular_matrices(p, k):
    K = make_field(p, k)
    rng = random.Random(10 * p + k)
    shapes = [
        ["singleton"] * 6,                                  # diagonal
        ["triangular", "triangular"],                       # triangular
        ["singleton", "dense", "singleton", "zero"],        # mixed, with a zero block
        ["dense", "triangular"],
        ["zero", "dense"],
        ["zero", "zero", "zero"],
        ["dense"],                                          # one dense block
        ["dense", "dense"],
    ]
    for kinds in shapes:
        for _ in range(3):
            M = permuted_block_triangular(K, rng, kinds)
            assert M.charpoly() == brute_charpoly(M), kinds


def reachability(adj):
    reach = []
    for s in range(len(adj)):
        seen, todo = {s}, [s]
        while todo:
            for w in adj[todo.pop()]:
                if w not in seen:
                    seen.add(w)
                    todo.append(w)
        reach.append(seen)
    return reach


def test_strong_components_match_mutual_reachability():
    rng = random.Random(3)
    for _ in range(60):
        n = rng.randrange(0, 12)
        density = rng.choice([0.05, 0.15, 0.3, 0.8])
        adj = [[j for j in range(n) if j != i and rng.random() < density] for i in range(n)]
        comps = _strong_components(adj)
        assert sorted(v for c in comps for v in c) == list(range(n))
        reach = reachability(adj)
        which = {v: c for c, comp in enumerate(comps) for v in comp}
        for i in range(n):
            for j in range(n):
                assert (which[i] == which[j]) == (j in reach[i] and i in reach[j])
                # a component comes out after every component it reaches
                if j in reach[i]:
                    assert which[j] <= which[i]
    # a path deeper than the recursion limit
    n = 5000
    assert _strong_components([[i + 1] if i + 1 < n else [] for i in range(n)]) == [[i] for i in reversed(range(n))]
    assert len(_strong_components([[(i + 1) % n] for i in range(n)])) == 1


def test_charpoly_of_companion_like_matrix():
    F5 = make_field(5)
    # companion matrix of x^3 + 2x + 1
    M = FieldMatrix(F5, [[0, 0, -1], [1, 0, -2], [0, 1, 0]])
    chi = M.charpoly()
    assert [c.lift() for c in chi.coeffs] == [1, 2, 0, 1]


def test_frobenius_entrywise():
    F9 = make_field(3, 2)
    t = F9.gen()
    M = FieldMatrix(F9, [[t, F9.one()], [F9.zero(), t]])
    Mf = M.frobenius_entrywise()
    assert Mf[0, 0] == -t and Mf[0, 1] == F9.one()


def test_spin_reaches_whole_space():
    F5 = make_field(5)
    # cyclic shift matrix spins e0 to everything
    n = 4
    shift = FieldMatrix(F5, [[1 if j == (i + 1) % n else 0 for j in range(n)] for i in range(n)])
    e0 = tuple(F5.element(1 if i == 0 else 0) for i in range(n))
    assert len(spin(F5, [e0], [shift])) == n


def test_spin_stops_once_the_basis_spans_everything(monkeypatch):
    # e0 under the shift and its inverse: a spin that drained its queue
    # would reduce both images of all n basis rows, 1 + 2 n inserts
    F5 = make_field(5)
    n = 6
    shift = FieldMatrix(F5, [[1 if j == (i + 1) % n else 0 for j in range(n)] for i in range(n)])
    back = FieldMatrix(F5, [[1 if i == (j + 1) % n else 0 for j in range(n)] for i in range(n)])
    inserts = []
    insert = _EchelonAccumulator.insert
    monkeypatch.setattr(_EchelonAccumulator, "insert", lambda acc, x: inserts.append(1) or insert(acc, x))
    e0 = [1] + [0] * (n - 1)
    assert len(spin(F5, [e0], [shift, back])) == n
    assert len(inserts) < 1 + 2 * n


def test_spin_respects_invariant_block():
    F5 = make_field(5)
    # block upper-triangular: span(e0, e1) is invariant
    M = FieldMatrix(F5, [[1, 2, 3], [0, 1, 4], [0, 0, 1]])
    e0 = tuple(F5.element(v) for v in (1, 0, 0))
    closure = spin(F5, [e0], [M])
    assert len(closure) <= 2
    assert is_invariant_subspace(closure, [M])


def test_span_basis_dedupes():
    F3 = make_field(3)
    v1 = tuple(F3.element(v) for v in (1, 2, 0))
    v2 = tuple(F3.element(v) for v in (2, 1, 0))  # = 2 * v1
    rows, pivots = span_basis(F3, [v1, v2])
    assert len(rows) == 1 and len(pivots) == 1


# -- differential tests against a textbook Gauss-Jordan ---------------------


def reference_rref(field, rows, ncols):
    """Gauss-Jordan column by column: swap a pivot row up, scale it to 1,
    clear its column in every other row.  Returns (nonzero rows, pivots)."""
    rows = [list(r) for r in rows]
    pivots = []
    for c in range(ncols):
        r = len(pivots)
        below = [i for i in range(r, len(rows)) if not rows[i][c].is_zero()]
        if not below:
            continue
        rows[r], rows[below[0]] = rows[below[0]], rows[r]
        inv = rows[r][c].inverse()
        rows[r] = [a * inv for a in rows[r]]
        for i in range(len(rows)):
            if i != r and not rows[i][c].is_zero():
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
    return [tuple(rows[i]) for i in range(len(pivots))], pivots


def reference_nullspace(field, rows, ncols):
    rref, pivots = reference_rref(field, rows, ncols)
    basis = []
    for fc in (c for c in range(ncols) if c not in pivots):
        vec = [field.zero()] * ncols
        vec[fc] = field.one()
        for r, pc in enumerate(pivots):
            vec[pc] = -rref[r][fc]
        basis.append(tuple(vec))
    return basis


def reference_product(A, B):
    zero = A.field.zero()
    return [
        [sum((A[i, k] * B[k, j] for k in range(A.ncols)), zero) for j in range(B.ncols)]
        for i in range(A.nrows)
    ]


def seeded_matrices(field, rng):
    """Zero, rank-deficient, full-rank, wide and tall matrices over field."""
    draw = element_drawer(field, rng)

    def rand(n, m):
        return FieldMatrix(field, [[draw() for _ in range(m)] for _ in range(n)])

    out = [FieldMatrix.zeros(field, 3, 4), FieldMatrix.zeros(field, 2, 2)]
    for _ in range(4):
        n = rng.randrange(2, 6)
        r = rng.randrange(1, n)
        out.append(rand(n, r) @ rand(r, n))           # square, rank <= r < n
        out.append(rand(n + 1, r) @ rand(r, n - 1))
        out.append(rand(n, n))                        # full rank for most draws
        out.append(rand(2, rng.randrange(3, 7)))      # wide
        out.append(rand(rng.randrange(3, 7), 2))      # tall
    for n in (2, 5):                                  # invertible
        lower = FieldMatrix(field, [[draw() if j < i else int(i == j) for j in range(n)] for i in range(n)])
        upper = FieldMatrix(field, [[draw() if j > i else int(i == j) for j in range(n)] for i in range(n)])
        out.append(lower @ upper)
    return out


# F_2, F_3 and F_1000003 at k = 1; F_27 and F_125 run the x^b fold past
# k = 2; 2^61 - 1 needs slots wider than 8 bytes
FIELDS = [(5, 1), (7, 1), (3, 2), (5, 2), (2, 1), (3, 1), (1000003, 1), (3, 3), (5, 3), (2**61 - 1, 1)]


@pytest.mark.parametrize("p,k", FIELDS)
def test_elimination_matches_gauss_jordan(p, k):
    K = make_field(p, k)
    rng = random.Random(100 * p + k)
    full_rank_squares = 0
    for M in seeded_matrices(K, rng):
        rref, pivots = reference_rref(K, M.rows, M.ncols)
        assert span_basis(K, list(M.rows)) == (rref, pivots)
        assert M.rank() == len(pivots)
        null = M.nullspace()
        assert null == reference_nullspace(K, M.rows, M.ncols)
        assert all(c.is_zero() for v in null for c in M.mat_vec(v))
        if M.nrows != M.ncols:
            continue
        n = M.nrows
        augmented = [r + e for r, e in zip(M.rows, FieldMatrix.identity(K, n).rows)]
        aug_rref, aug_pivots = reference_rref(K, augmented, 2 * n)
        if aug_pivots[:n] == list(range(n)):
            full_rank_squares += 1
            assert M.inverse() == FieldMatrix(K, [row[n:] for row in aug_rref])
        else:
            with pytest.raises(ZeroDivisionError):
                M.inverse()
    assert full_rank_squares >= 2


@pytest.mark.parametrize("p,k", FIELDS)
def test_span_basis_ignores_insertion_order(p, k):
    K = make_field(p, k)
    rng = random.Random(p * k)
    for M in seeded_matrices(K, rng):
        rows = list(M.rows)
        rng.shuffle(rows)
        assert span_basis(K, rows) == span_basis(K, list(M.rows))


@pytest.mark.parametrize("p,k", FIELDS)
def test_matmul_matches_entrywise_sums(p, k):
    K = make_field(p, k)
    rng = random.Random(7 * p + k)
    draw = element_drawer(K, rng)
    for _ in range(6):
        n, m, l = (rng.randrange(1, 5) for _ in range(3))
        A = FieldMatrix(K, [[draw() for _ in range(m)] for _ in range(n)])
        B = FieldMatrix(K, [[draw() for _ in range(l)] for _ in range(m)])
        assert (A @ B).rows == FieldMatrix(K, reference_product(A, B)).rows


def test_invariance_fails_for_one_non_invariant_generator():
    F5 = make_field(5)
    # both upper triangular matrices keep span(e0, e1); the cyclic shift moves e1 to e2
    upper = FieldMatrix(F5, [[1, 2, 3], [0, 4, 1], [0, 0, 2]])
    upper2 = FieldMatrix(F5, [[3, 0, 1], [1, 1, 0], [0, 0, 1]])
    shift = FieldMatrix(F5, [[0, 0, 1], [1, 0, 0], [0, 1, 0]])
    W = [tuple(F5.element(v) for v in row) for row in ((1, 0, 0), (0, 1, 0))]
    assert is_invariant_subspace(W, [upper, upper2])
    assert not is_invariant_subspace(W, [upper, upper2, shift])
    assert not is_invariant_subspace(W, [shift, upper])


def test_invariance_with_linearly_dependent_rows():
    F7 = make_field(7)
    vec = lambda *vs: tuple(F7.element(v) for v in vs)
    upper = FieldMatrix(F7, [[1, 2, 3], [0, 4, 1], [0, 0, 2]])
    # e0 and 3 e0 span a line that upper keeps but the swap moves
    swap = FieldMatrix(F7, [[0, 1, 0], [1, 0, 0], [0, 0, 1]])
    line = [vec(1, 0, 0), vec(3, 0, 0)]
    assert is_invariant_subspace(line, [upper])
    assert not is_invariant_subspace(line, [upper, swap])
    # e0, e0 + e1, e1 span the invariant plane of upper, the swap keeps it too
    plane = [vec(1, 0, 0), vec(1, 1, 0), vec(0, 1, 0)]
    assert is_invariant_subspace(plane, [upper, swap])
    shift = FieldMatrix(F7, [[0, 0, 1], [1, 0, 0], [0, 1, 0]])
    assert not is_invariant_subspace(plane, [swap, shift])


@pytest.mark.parametrize("p,k", FIELDS)
def test_invariance_matches_rank_test(p, k):
    """is_invariant_subspace against rank(W) == rank(W u M W) on random
    subspaces (mostly not invariant) and on spun ones (always invariant)."""
    K = make_field(p, k)
    rng = random.Random(31 * p + k)
    draw = element_drawer(K, rng)
    seen = set()
    for _ in range(12):
        n = rng.randrange(2, 6)
        mats = [
            FieldMatrix(K, [[draw() if rng.random() < 0.4 else K.zero()
                             for _ in range(n)] for _ in range(n)])
            for _ in range(rng.randrange(1, 4))
        ]
        seed = tuple(draw() for _ in range(n))
        candidates = [[tuple(draw() for _ in range(n)) for _ in range(rng.randrange(1, n))]]
        if any(not c.is_zero() for c in seed):
            candidates.append(spin(K, [seed], mats))
        for W in candidates:
            base = len(reference_rref(K, W, n)[1])
            expected = all(
                len(reference_rref(K, list(W) + [m.mat_vec(w) for w in W], n)[1]) == base
                for m in mats
            )
            assert is_invariant_subspace(W, mats) == expected
            seen.add(expected)
    assert seen == {True, False}


def reference_closure(field, seeds, mats, n):
    """Reduced echelon basis of the smallest subspace containing the seeds
    and invariant under mats, by Gauss-Jordan on entrywise products."""
    zero = field.zero()
    rows = reference_rref(field, seeds, n)[0]
    while True:
        images = [tuple(sum((m[i, j] * r[j] for j in range(n)), zero) for i in range(n)) for m in mats for r in rows]
        grown = reference_rref(field, list(rows) + images, n)[0]
        if len(grown) == len(rows):
            return grown
        rows = grown


@pytest.mark.parametrize("p,k", FIELDS)
def test_spin_matches_reference_closure(p, k):
    K = make_field(p, k)
    rng = random.Random(11 * p + k)
    draw = element_drawer(K, rng)
    proper = 0
    for _ in range(8):
        n = rng.randrange(2, 7)
        # block upper triangular generators keep span(e_0..e_(b-1)); sparse ones often more
        b = rng.randrange(1, n)
        mats = [FieldMatrix(K, [[draw() if (i < b or j >= b) and rng.random() < 0.6 else 0
                                 for j in range(n)] for i in range(n)])
                for _ in range(rng.randrange(1, 4))]
        seeds = [tuple(draw() if i < b else K.zero() for i in range(n))]
        if rng.random() < 0.5:
            seeds.append(tuple(draw() for _ in range(n)))
        closure = reference_closure(K, seeds, mats, n)
        rows = spin(K, seeds, mats)
        first = lambda r: next(j for j, c in enumerate(r) if not c.is_zero())
        assert sorted(rows, key=first) == closure
        assert is_invariant_subspace(rows, mats)
        proper += len(rows) < n
    assert proper > 0


@pytest.mark.parametrize("p,k", FIELDS)
def test_matrices_from_ints_and_elements_are_equal(p, k):
    K = make_field(p, k)
    rng = random.Random(p + 3 * k)
    draw = element_drawer(K, rng)
    ints = [[rng.randrange(-p, 2 * p) for _ in range(3)] for _ in range(2)]
    A = FieldMatrix(K, ints)
    B = FieldMatrix(K, [[K.element(c) for c in row] for row in ints])
    C = FieldMatrix(K, [[[c] + [0] * (k - 1) for c in row] for row in ints])
    assert A == B == C and hash(A) == hash(B) == hash(C)
    elems = [[draw() for _ in range(3)] for _ in range(3)]
    D = FieldMatrix(K, elems)
    E = FieldMatrix(K, [[list(c.coeffs) for c in row] for row in elems])
    assert D == E and hash(D) == hash(E)
    assert D == FieldMatrix(K, D.rows) == FieldMatrix.from_columns(K, D.columns())
    assert D.transpose().transpose() == D and D.rows == tuple(map(tuple, elems))
    assert [D[i, j] for i in range(3) for j in range(3)] == [c for row in elems for c in row]
    assert D[1, -1] == elems[1][-1]
    assert D != FieldMatrix(K, elems[:2])
    empty = FieldMatrix.zeros(K, 2, 0)
    assert empty.scale(draw()) == empty.frobenius_entrywise() == empty and empty.transpose().nrows == 0


def boundary(width):
    """(n, n + 1) for the largest n whose slot width is width(1)."""
    n = 1
    while width(n + 1) == width(1):
        n += 1
    return n, n + 1


@pytest.mark.parametrize("p,k", [(2, 1), (17, 1), (3, 3)])
def test_all_p_minus_1_products_at_the_slot_width_boundary(p, k):
    # at k = 1 every slot of the product reaches the bound n (p-1)^2
    K = make_field(p, k)
    top = K.element([p - 1] * k)
    for n in boundary(lambda n: _slot_bytes(n * k * (p - 1) ** 2)):
        A = FieldMatrix(K, [[top] * n] * n)
        want = sum((top * top for _ in range(n)), K.zero())
        assert A.mat_vec((top,) * n) == (want,) * n
        assert A @ A == FieldMatrix(K, [[want] * n] * n)


@pytest.mark.parametrize("p,k", [(2, 1), (3, 1), (3, 3), (5, 2)])
def test_all_p_minus_1_elimination_at_the_slot_width_boundary(p, k):
    K = make_field(p, k)
    top = K.element([p - 1] * k)
    for n in boundary(lambda n: _EchelonAccumulator(K, n, p - 1).w):
        ones = FieldMatrix(K, [[top] * n] * n)
        assert ones.rank() == 1
        assert ones.nullspace() == reference_nullspace(K, ones.rows, n)
        U = FieldMatrix(K, [[top if j >= i else 0 for j in range(n)] for i in range(n)])
        assert span_basis(K, list(U.rows)) == reference_rref(K, U.rows, n)
        assert U @ U.inverse() == FieldMatrix.identity(K, n)
        assert U.charpoly() == Polynomial(K, [-top, 1]) ** n
        trace = sum((top for _ in range(n)), K.zero())
        assert ones.charpoly() == Polynomial.monomial(K, 1, n - 1) * Polynomial(K, [-trace, 1])
        e0 = [(K.one() if i == 0 else K.zero()) for i in range(n)]
        assert len(spin(K, [e0], [ones, U])) == n


def diagonal_cases(field, rng):
    """(matrix, diagonal?) pairs: diagonal matrices with some zero, all-zero
    and identity diagonals, and the same with one off-diagonal entry set."""
    elements = list(field.elements())
    nonzero = elements[1:]
    out = []
    for n in (1, 2, 3, 5, 8):
        diagonals = [[rng.choice(elements) for _ in range(n)] for _ in range(3)]
        diagonals += [[field.zero()] * n, [field.one()] * n, [rng.choice(nonzero) for _ in range(n)]]
        for diagonal in diagonals:
            rows = [[diagonal[i] if i == j else field.zero() for j in range(n)] for i in range(n)]
            out.append((FieldMatrix(field, rows), True))
            if n > 1:
                i, j = rng.sample(range(n), 2)
                rows[i][j] = rng.choice(nonzero)
                out.append((FieldMatrix(field, rows), False))
    return out


@pytest.mark.parametrize("p,k", [(2, 1), (5, 1), (13, 1), (3, 2), (5, 2), (11, 2), (2, 3)])
def test_diagonal_nullspace_matches_gauss_jordan(p, k, monkeypatch):
    # a diagonal kernel is read off without elimination; one off-diagonal
    # entry sends the matrix back through _echelon
    K = make_field(p, k)
    rng = random.Random(10 * p + k)
    eliminations = []
    echelon = FieldMatrix._echelon
    monkeypatch.setattr(FieldMatrix, "_echelon", lambda self: eliminations.append(self) or echelon(self))
    for M, diagonal in diagonal_cases(K, rng):
        eliminations.clear()
        null = M.nullspace()
        assert null == reference_nullspace(K, M.rows, M.ncols)
        assert M.transpose().nullspace() == reference_nullspace(K, M.transpose().rows, M.ncols)
        assert eliminations == ([] if diagonal else [M, M.transpose()])
    assert FieldMatrix(K, []).nullspace() == []


@pytest.mark.parametrize("p,k", [(2, 1), (7, 1), (3, 2), (5, 2), (3, 3)])
def test_diagonal_shift_equals_subtracting_a_scaled_identity(p, k):
    K = make_field(p, k)
    rng = random.Random(p + 100 * k)
    elements = list(K.elements())
    for n in (1, 2, 4, 7):
        M = FieldMatrix(K, [[rng.choice(elements) for _ in range(n)] for _ in range(n)])
        for lam in [K.zero(), K.one()] + rng.sample(elements, min(5, len(elements))):
            assert M._minus_scalar(lam) == M - FieldMatrix.identity(K, n).scale(lam)


@pytest.mark.parametrize("p,k", [(5, 1), (3, 2), (7, 2)])
def test_charpoly_blocks_are_monic_factors_of_the_charpoly(p, k):
    K = make_field(p, k)
    rng = random.Random(3 * p + k)
    for _ in range(10):
        n = rng.randrange(1, 7)
        M = FieldMatrix(K, [[rng.randrange(p) if rng.random() < 0.3 else 0 for _ in range(n)] for _ in range(n)])
        blocks = M._charpoly_blocks()
        assert all(b[-k:] == [1] + [0] * (k - 1) for b in blocks)
        product = Polynomial.one(K)
        for b in blocks:
            product = product * Polynomial(K, [b[i:i + k] for i in range(0, len(b), k)])
        assert product == M.charpoly()
        assert sum(len(b) // k - 1 for b in blocks) == n


def reference_lines(M, columns):
    """x^b line_j for every column (or row) j of M and b < k, by
    FieldElement products, as residue lists in the order j k + b."""
    K = M.field
    x = K.element([0, 1] + [0] * (K.k - 2)) if K.k > 1 else K.one()
    lines = M.columns() if columns else M.rows
    return [[c for e in line for c in (x**b * e).coeffs] for line in lines for b in range(K.k)]


@pytest.mark.parametrize("p,k,prime", [(257, 1, False), (1000003, 1, False), (7, 2, True), (7, 2, False),
                                       (257, 2, True), (257, 2, False), (3, 3, False), (5, 3, True)])
@pytest.mark.parametrize("block", [None, 1, 5])
def test_packed_lines_match_field_element_multiples(p, k, prime, block, monkeypatch):
    # a small block splits the x-multiplication of the packed matrix
    if block is not None:
        monkeypatch.setattr(linalg, "_BLOCK", block)
    K = make_field(p, k)
    rng = random.Random(7 * p + k)
    for nrows, ncols in ((1, 1), (1, 5), (4, 1), (3, 3), (5, 2), (6, 9)):
        M = FieldMatrix(K, [[K.element([rng.randrange(p)] + [0 if prime else rng.randrange(p) for _ in range(k - 1)])
                             for _ in range(ncols)] for _ in range(nrows)])
        # slots below p take at least the bytes of p - 1; a wider w must not matter
        for w in (_slot_bytes(p - 1), _slot_bytes(p * p), 16):
            for columns, length in ((True, nrows), (False, ncols)):
                lines = _packed_lines(K, M._rows, w, columns)
                got = [_unpack(L, length * k, w) for L in lines]
                assert got == reference_lines(M, columns), (nrows, ncols, w, columns)
    assert _packed_lines(K, [], 4, True) == []


@pytest.mark.parametrize("p,k", [(5, 1), (7, 2), (3, 3)])
def test_spin_through_packed_rows_equals_spin_through_transposes(p, k):
    K = make_field(p, k)
    rng = random.Random(p * k)
    draw = element_drawer(K, rng)
    proper = 0
    for _ in range(10):
        n = rng.randrange(2, 8)
        b = rng.randrange(1, n)
        # lower block triangular, so the transposes keep span(e_0..e_(b-1)) and some spins are proper
        mats = [FieldMatrix(K, [[draw() if (j < b or i >= b) and rng.random() < 0.6 else 0 for j in range(n)]
                                for i in range(n)]) for _ in range(rng.randrange(1, 4))]
        seeds = [tuple(draw() if i < b else K.zero() for i in range(n))]
        rows = spin(K, seeds, [_Transpose(g) for g in mats])
        assert rows == spin(K, seeds, [g.transpose() for g in mats])
        proper += len(rows) < n
    assert proper > 0


def reference_adjacency(M):
    """The support digraph with each entry's k residues zipped into a tuple."""
    n, k = M.ncols, M.field.k
    return [[j for j in range(n) if j != i and any(row[j * k:j * k + k])] for i, row in enumerate(M._rows)]


def reference_transpose_rows(M):
    """The transpose's rows, read entry by entry through __getitem__."""
    return [tuple(M[i, j] for i in range(M.nrows)) for j in range(M.ncols)]


@pytest.mark.parametrize("p,k", [(5, 1), (7, 1), (3, 2), (47, 2), (5, 3)])
def test_adjacency_is_the_support_of_every_entry(p, k):
    K = make_field(p, k)
    rng = random.Random(31 * p + k)
    for _ in range(25):
        n = rng.randrange(1, 9)
        density = rng.choice([0.1, 0.4, 0.9])
        # entries with a single nonzero residue in any plane, so no plane alone decides
        M = FieldMatrix(K, [[[rng.randrange(p) if rng.random() < density else 0 for _ in range(k)]
                             for _ in range(n)] for _ in range(n)])
        assert _adjacency(M) == reference_adjacency(M)


@pytest.mark.parametrize("p,k", [(5, 1), (3, 2), (47, 2), (5, 3), (2, 4)])
def test_transpose_and_from_columns_read_every_entry(p, k):
    K = make_field(p, k)
    rng = random.Random(17 * p + k)
    draw = element_drawer(K, rng)
    for nrows, ncols in ((1, 1), (1, 7), (7, 1), (3, 3), (2, 5), (6, 4), (40, 1)):
        M = FieldMatrix(K, [[draw() for _ in range(ncols)] for _ in range(nrows)])
        T = M.transpose()
        assert (T.nrows, T.ncols) == (ncols, nrows)
        assert list(T.rows) == reference_transpose_rows(M)
        assert T.transpose() == M
        assert FieldMatrix.from_columns(K, [list(r) for r in T.rows]) == M
