"""Generators kept as pieces: the readers agree with the dense rows.

`canrep` builds each generator as a `linalg._PieceMatrix`, the (row, col,
residues) pieces its builder produces; the dense rows are built only when
a caller reads them.  `certificate` and `is_invariant_subspace` read the
pieces.  These tests draw piece lists of every shape the builders make,
and some they do not (scattered entries, pieces that hold zeros), and
check each reader against the same matrix stored densely.
"""

import random
import tracemalloc
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

import superell.canrep as canrep
from superell.canrep import RepresentationModule, canonical_module, certificate, decide_irreducibility
from superell.ff import make_field
from superell.linalg import FieldMatrix, _PieceMatrix, _Rows, _unit_rows, is_invariant_subspace


@st.composite
def entry_grids(draw, p, w, dim):
    """{(row, col): residues} of one drawn shape, `w` residues an entry;
    entries may be zero where the shape allows it."""
    value = st.lists(st.integers(0, p - 1), min_size=w, max_size=w)
    nonzero = value.filter(any)
    one = [1] + [0] * (w - 1)
    shape = draw(st.sampled_from(["diagonal", "monomial", "block", "jordan", "near-jordan", "scattered"]))
    if shape == "diagonal":
        return {(i, i): draw(value) for i in range(dim)}
    if shape == "monomial":
        return {(j, i): draw(nonzero) for i, j in enumerate(draw(st.permutations(range(dim))))}
    if shape == "block":
        cuts = sorted(draw(st.sets(st.integers(1, dim - 1), max_size=dim - 1)))
        bounds = list(zip([0] + cuts, cuts + [dim]))
        return {(r, c): draw(value) for a, b in bounds for r in range(a, b) for c in range(a, b)}
    if shape in ("jordan", "near-jordan"):
        grid = {(i, i): one for i in range(dim)}
        grid.update({(i, j): draw(nonzero if j == i + 1 else value) for i in range(dim) for j in range(i + 1, dim)})
        if shape == "near-jordan":  # one entry anywhere redrawn, often with its first residue 1
            near_one = value.map(lambda v: [1] + v[1:])
            grid[draw(st.integers(0, dim - 1)), draw(st.integers(0, dim - 1))] = draw(st.one_of(value, near_one))
        return grid
    cells = draw(st.sets(st.tuples(st.integers(0, dim - 1), st.integers(0, dim - 1)), min_size=1, max_size=2 * dim))
    return {cell: draw(value) for cell in cells}


def pieces_of(grid, w, cut, shuffle):
    """The grid as pieces: each row's runs of neighbouring columns, each run
    split where `cut` says so, by row or shuffled."""
    pieces = []
    for r in sorted({r for r, _ in grid}):
        cols = sorted(c for i, c in grid if i == r)
        start = cols[0]
        for prev, c in zip(cols, cols[1:] + [None]):
            if c != prev + 1 or cut(r, c):
                pieces.append((r, start, [x for j in range(start, prev + 1) for x in grid[r, j]]))
                start = c
    if shuffle:
        random.Random(len(pieces)).shuffle(pieces)
    return pieces


def reference_rows(grid, dim, k):
    rows = [[0] * (dim * k) for _ in range(dim)]
    for (r, c), vals in grid.items():
        rows[r][c * k:c * k + len(vals)] = vals
    return tuple(tuple(row) for row in rows)


@st.composite
def piece_modules(draw):
    """Generators over F_(p^k) as (pieces, width, reference rows), and a
    vector and a set of unit vectors to test for invariance."""
    p, k = draw(st.sampled_from([(2, 1), (3, 1), (5, 1), (7, 1), (3, 2), (5, 2)]))
    dim = draw(st.integers(2, 6))
    gens = []
    for _ in range(draw(st.integers(1, 3))):
        w = draw(st.sampled_from(sorted({1, k})))
        grid = draw(entry_grids(p, w, dim))
        splits = draw(st.sets(st.tuples(st.integers(0, dim - 1), st.integers(0, dim - 1))))
        pieces = pieces_of(grid, w, lambda r, c: (r, c) in splits, draw(st.booleans()))
        gens.append((pieces, w, reference_rows(grid, dim, k)))
    vector = draw(st.lists(st.integers(0, p - 1), min_size=dim * k, max_size=dim * k).filter(any))
    units = draw(st.sets(st.integers(0, dim - 1), min_size=1))
    grade = draw(st.lists(st.integers(0, 2), min_size=dim, max_size=dim))
    return make_field(p, k), dim, gens, vector, sorted(units), grade


def reference_shape(rows, n, k, grade):
    """Diagonal entries, monomial columns, Jordan block, support digraph
    and grade-keeping of a matrix, read entry by entry from its rows."""
    entries = [[tuple(row[j * k:j * k + k]) for j in range(n)] for row in rows]
    nonzero = [[j for j in range(n) if any(entries[i][j])] for i in range(n)]
    diagonal = [entries[i][i] for i in range(n)] if all(set(nz) <= {i} for i, nz in enumerate(nonzero)) else None
    monomial = all(len(nz) == 1 for nz in nonzero) and len({nz[0] for nz in nonzero}) == n
    one = (1,) + (0,) * (k - 1)
    jordan = all(entries[i][i] == one and min(nonzero[i]) == i and (i + 1 == n or any(entries[i][i + 1]))
                 for i in range(n))
    support = [[j for j in nz if j != i] for i, nz in enumerate(nonzero)]
    keeps = all(grade[i] == grade[j] for i in range(n) for j in nonzero[i])
    return diagonal, [nz[0] for nz in nonzero] if monomial else None, jordan, support, keeps


def reference_invariant(dense, basis):
    """Every M w lies in span(basis): a rank test on the dense products."""
    K, rows = dense[0].field, [list(w) for w in basis]
    rank = FieldMatrix(K, rows).rank()
    return all(FieldMatrix(K, rows + [list(M.mat_vec(w))]).rank() == rank for M in dense for w in rows)


def module(K, dim, gens):
    return RepresentationModule(p=K.p, m=0, field=K, dim=dim, generators=tuple(gens), labels=("g",) * len(gens))


def verdict(v):
    return None if v is None else (v.verdict, v.endo_dim, v.route, v.witness)


@settings(derandomize=True, database=None, deadline=None, max_examples=400)
@given(piece_modules())
def test_pieces_read_as_their_dense_rows(drawn):
    K, dim, gens, vector, units, grade = drawn
    pieced = [_PieceMatrix(K, dim, *([piece[i] for piece in pieces] for i in range(3)), w) for pieces, w, _ in gens]
    dense = [FieldMatrix(K, _Rows(K, rows)) for _, _, rows in gens]
    bases = [_Rows(K, [tuple(vector)]), _unit_rows(K, dim, units)]
    # the readers, the certificate and the invariance test read the pieces alone
    with mock.patch.object(_PieceMatrix, "__getattr__", side_effect=AssertionError("dense rows built")):
        shapes = [(canrep._diagonal_entries(P), canrep._monomial_columns(P), canrep._is_jordan_block(P),
                   [sorted(out) for out in canrep._adjacency(P)], canrep._keeps_grades(P, grade)) for P in pieced]
        cert = verdict(certificate(module(K, dim, pieced)))
        invariant = [is_invariant_subspace(basis, pieced) for basis in bases]
    assert shapes == [reference_shape(rows, dim, K.k, grade) for _, _, rows in gens]
    assert cert == verdict(certificate(module(K, dim, dense)))
    assert invariant == [reference_invariant(dense, basis) for basis in bases]
    assert [G._rows for G in pieced] == [rows for _, _, rows in gens]


def test_a_piece_matrix_builds_its_rows_once_and_compares_as_dense():
    K = make_field(5, 2)
    P = _PieceMatrix(K, 3, [0, 2], [1, 0], [[1, 2], [3, 0, 0, 0, 4, 1]])
    rows = P._rows
    assert P._rows is rows
    assert P == FieldMatrix(K, [[0, K.element([1, 2]), 0], [0, 0, 0], [3, 0, K.element([4, 1])]])
    assert hash(P) == hash(FieldMatrix(K, P.rows))
    Fp = _PieceMatrix(K, 2, [1], [0], [[2, 3]], width=1)
    assert Fp._rows == ((0, 0, 0, 0), (2, 0, 3, 0))


# every pair the meataxe workload decides, and the largest modules
GUARDED = [(p, m) for p in (2, 3, 5, 7, 11, 13, 17, 19, 23) for m in range(2, p + 2)
           if (p + 1) % m == 0 and (m < p + 1 or p <= 11)] + [(71, 36), (47, 48)]


def test_building_and_deciding_never_builds_dense_rows(monkeypatch):
    built = []
    build = _PieceMatrix.__getattr__
    monkeypatch.setattr(_PieceMatrix, "__getattr__", lambda G, name: built.append(name) or build(G, name))
    for p, m in GUARDED:
        R = canonical_module(p, m)
        v = decide_irreducibility(R)
        if v.witness is not None:
            assert is_invariant_subspace(v.witness.columns(), list(R.generators))
        assert not built, (p, m)
    # the guard itself sees a dense read
    canonical_module(5, 3).generators[1].rows
    assert built


@pytest.mark.parametrize("p,m,limit_mb", [(47, 48, 6), (71, 36, 3)])
def test_largest_modules_hold_a_few_megabytes(p, m, limit_mb):
    # dense storage held 71.8 MB and 68.9 MB here
    tracemalloc.start()
    try:
        R = canonical_module(p, m)
        v = decide_irreducibility(R)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert v.verdict == ("absolutely-irreducible" if m == p + 1 else "reducible")
    assert held < limit_mb * 2**20, f"{held / 2**20:.1f} MB held"
