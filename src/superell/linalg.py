"""Dense matrices over a finite field: rank, nullspace, char poly, spinning.

Everything is exact.  `FieldMatrix` stores int residues and every routine
runs on them; `FieldElement` appears only at the public boundary.

Layout.  A vector of n entries over F_q, q = p^k, is a flat sequence of
n k residues in [0, p): entry j holds positions j k .. j k + k - 1, so the
residue planes (residue u of every entry) are the strided slices [u::k].
A matrix keeps one such tuple per row.

Packing.  For arithmetic a vector is packed into one int with w bytes per
residue: slot j k + u starts at bit 8 w (j k + u).  Adding packed ints adds
every slot, and multiplying by an int in [0, p) scales every slot, so one
big-int operation does a whole vector's work as long as no slot reaches
2^(8 w).  An F_q scalar c = sum_b c_b x^b acts through the k packed x^b
multiples of a vector, c v = sum_b c_b (x^b v), where x^b v is taken
entrywise and folded through `FieldDescriptor._reductions`.  A difference
v - c r is computed as v + (-c) r, so every multiplier lies in [0, p) and no
slot goes negative.  Slots are reduced mod p only when a vector is
normalised into an echelon basis or read out.  The bounds:

  * M v over n columns is sum_(j,b) v_(j,b) (x^b col_j), one C-level sum
    over the n k packed x^b column multiples that the matrix caches per
    width; its slots are at most n k (p-1)^2.
  * `_EchelonAccumulator`, the one elimination kernel, keeps the x^b
    multiples of its rows, each row normalised on residues before it is
    packed.  A stored slot starts below p and grows by at most k (p-1)^2
    each time a later row clears its pivot column: x^b row_i gains
    sum_u e_u (x^u row) over the k residues e_u of (-c) x^b.  So it
    stays at most B = (p-1) + d k (p-1)^2 for a basis of at most d rows.
    Reducing a vector whose slots are at most s0 gives slots at most
    s0 + d k (p-1) B.
  * `_packed_lines` is the one routine for packed x^b multiples: of a
    matrix's columns (cached per width), of its rows (`_Transpose`, the
    MeatAxe's dual spin) and of a new accumulator row.  It packs the
    matrix once and slices each line out of its bytes, so no transpose is
    built.  Over F_p, x^b line is the line shifted up b slots; otherwise
    multiplying by x forms slots of at most p (p-1) before reducing them,
    within both bounds above, since then n k >= 2.

`_slot_bytes` turns a bound into w, rounded up to 1, 2, 4 or 8 bytes.  The
packer itself is `ff._pack`/`ff._unpack`, shared with the Kronecker
products, which runs at C speed at every width up to 8 bytes; linalg keeps
the rounded widths because they measured faster on the MeatAxe, whose
vectors are short: with exact widths the meataxe benchmark ran 41-43
ops/s against 45-49, as the odd widths' byte-plane copies cost more than
the narrower slots save.

The accumulator keeps a reduced echelon basis in insertion order.  Rank,
nullspace, inverse and `span_basis` insert a matrix's rows and sort the
basis by pivot, which gives the reduced row echelon form; that form is
unique, so the results do not depend on the order of insertion.  `spin`,
`is_invariant_subspace` and `charpoly` grow and query the basis directly.

`_charpoly_blocks` splits the matrix by the strongly connected components
of its nonzero pattern (Tarjan 1972), which make it block triangular up to
a permutation: a 1 x 1 block gives its linear factor at once, and only the
larger blocks run the Krylov route on the accumulator.  The MeatAxe's
diagonal, triangular and block-diagonal generators thus take one Krylov
run per block, not one per eigenvector.  `charpoly` multiplies the
factors; the MeatAxe takes them unmultiplied and reads a linear factor's
root without a scan.  Inverses of leading entries are taken on residues
(`ff._inverse`).

`nullspace` of a square matrix whose off-diagonal entries are all zero
returns the unit vectors e_i at its zero diagonal entries, in ascending
i, without elimination: that is the basis the reduced row echelon form
gives, since its pivots are the nonzero diagonal entries.  Any nonzero
off-diagonal entry sends the matrix through the accumulator.
"""

from __future__ import annotations

from array import array
from collections import deque
from collections.abc import Sequence
from itertools import chain, compress, count, repeat
from operator import lt, mul

from .ff import (_ARRAY_CODES, FieldDescriptor, FieldElement, FieldMismatchError, _apply, _binary_power, _elements,
                 _inverse, _mul_matrix, _pack, _packed_bytes, _polymul, _residues, _scale, _trim, _unpack, frobenius)
from .poly import Polynomial


def _slot_bytes(bound: int) -> int:
    """Bytes per slot for slot values up to bound: a power of two up to 8,
    or the exact byte count above."""
    size = max(1, (bound.bit_length() + 7) // 8)
    return size if size > 8 else 1 << (size - 1).bit_length()


# slots per block of the packed matrix that `_packed_lines` multiplies by x
_BLOCK = 4096


def _packed_lines(field, rows, w, columns=False):
    """The packed x^b multiples, b < k, of the rows of the matrix with row
    residues `rows`, or of its columns when `columns`: x^b line_j at index
    j k + b, every slot below p.

    The matrix is packed once and each line is a slice of its bytes; rows
    over F_p are packed one by one.  An entry in F_p has x^b times it as
    its residue moved up b slots, so over F_p x^b line is line << 8 w b.
    Otherwise x^b M is formed on the packed matrix, from x^(b-1) M: each
    entry's residues move up one slot, the top one folds back through
    `_reductions`, and the slots, at most p (p-1), are reduced mod p, in
    blocks of about `_BLOCK` slots; it is sliced the same way.
    """
    p, k = field.p, field.k
    if not rows or not rows[0]:
        return []
    size = k * w
    prime = k == 1 or not any(any(row[u::k]) for row in rows for u in range(1, k))
    if prime and not columns:
        return [_pack(row, w) << 8 * w * b for row in rows for b in range(k)]
    data = _packed_bytes(chain.from_iterable(rows), w)
    out = [_lines(data, len(rows), size, columns)]
    if prime:
        return [L << 8 * w * b for L in out[0] for b in range(k)]
    s, step = 8 * w, -(-_BLOCK // k) * size
    comb = int.from_bytes((b"\x01" + bytes(size - 1)) * (step // size), "little")
    low, top = comb * ((1 << s * (k - 1)) - 1), comb * ((1 << s) - 1)
    for _ in range(1, k):
        data, prev = bytearray(), memoryview(data).cast("B")
        for i in range(0, len(prev), step):
            X = int.from_bytes(prev[i:i + step], "little")
            t = X >> s * (k - 1) & top
            y = ((X & low) << s) + sum(r * t << s * u for u, r in enumerate(field._reductions[0]))
            data += _packed_bytes([c % p for c in _unpack(y, min(step, len(prev) - i) // w, w)], w)
        out.append(_lines(data, len(rows), size, columns))
    return list(chain.from_iterable(zip(*out)))


def _lines(data, nrows, size, columns):
    """The ints of the rows of the nrows-row matrix whose entries, `size`
    bytes each, fill data row by row; of its columns when `columns`.  A
    column is read from an `array` of the widest item that divides an
    entry: one strided slice when an entry is one item, s slices copied
    into place when it is s items."""
    if not columns:
        view = memoryview(data).cast("B")
        step = len(view) // nrows
        return [int.from_bytes(view[i:i + step], "little") for i in range(0, len(view), step)]
    c = max(c for c in _ARRAY_CODES if size % c == 0)
    a, s = array(_ARRAY_CODES[c]), size // c
    a.frombytes(memoryview(data).cast("B"))
    n = len(a) // (nrows * s)
    if s == 1:
        return [int.from_bytes(a[j::n], "little") for j in range(n)]
    out, col = [], array(_ARRAY_CODES[c], bytes(nrows * size))
    for j in range(n):
        for u in range(s):
            col[u::s] = a[j * s + u::n * s]
        out.append(int.from_bytes(col, "little"))
    return out


class _Rows(Sequence):
    """Vectors kept as flat residue tuples, read as FieldElement tuples.

    `spin` and `nullspace` return it, so that their results feed `spin`,
    `is_invariant_subspace` and `FieldMatrix` without a round trip through
    FieldElement; slicing keeps the residues.
    """

    __slots__ = ("field", "residues")

    def __init__(self, field, residues):
        self.field = field
        self.residues = residues

    def __len__(self):
        return len(self.residues)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return _Rows(self.field, self.residues[i])
        return _elements(self.field, self.residues[i])

    def __eq__(self, other):
        return isinstance(other, (list, tuple, _Rows)) and list(self) == list(other)

    __hash__ = None

    def __repr__(self):
        return repr(list(self))


def _unit_rows(field, n, indices):
    """The unit vectors e_i, i in indices, of field^n as flat residue rows."""
    k = field.k
    return _Rows(field, [(0,) * (i * k) + (1,) + (0,) * ((n - i) * k - 1) for i in indices])


def _residue_rows(field, vectors):
    if isinstance(vectors, _Rows) and vectors.field == field:
        return vectors.residues
    return [_residues(field, v) for v in vectors]


class FieldMatrix:
    __slots__ = ("field", "nrows", "ncols", "_rows", "_packed")

    def __init__(self, field: FieldDescriptor, rows):
        fixed = tuple([tuple(r) for r in _residue_rows(field, rows)])
        if any(len(r) != len(fixed[0]) for r in fixed):
            raise ValueError("ragged matrix rows")
        self.field = field
        self._rows = fixed
        self._packed = {}
        self.nrows = len(fixed)
        self.ncols = len(fixed[0]) // field.k if fixed else 0

    # -- constructors ----------------------------------------------------

    @classmethod
    def identity(cls, field, n):
        return cls(field, _unit_rows(field, n, range(n)))

    @classmethod
    def zeros(cls, field, nrows, ncols):
        return cls(field, _Rows(field, [(0,) * (ncols * field.k)] * nrows))

    @classmethod
    def from_columns(cls, field, cols):
        if not cols:
            return cls(field, [])
        return cls(field, cols).transpose()

    # -- basics ------------------------------------------------------------

    @property
    def rows(self):
        """The rows as tuples of FieldElements."""
        return tuple([_elements(self.field, r) for r in self._rows])

    def __getitem__(self, ij):
        i, j = ij
        row, k = self._rows[i], self.field.k
        j = range(self.ncols)[j]
        return FieldElement(self.field, row[j * k:j * k + k])

    def column(self, j):
        return tuple([self[i, j] for i in range(self.nrows)])

    def columns(self):
        return list(self.transpose().rows)

    def transpose(self) -> "FieldMatrix":
        k = self.field.k
        planes = self._rows if k == 1 else [row[u::k] for row in self._rows for u in range(k)]
        return FieldMatrix(self.field, _Rows(self.field, list(zip(*planes))))

    def is_zero(self) -> bool:
        return not any(map(any, self._rows))

    def __eq__(self, other):
        return (
            isinstance(other, FieldMatrix)
            and self.field == other.field
            and self._rows == other._rows
        )

    def __hash__(self):
        return hash((self.field.p, self.field.k, self._rows))

    def __repr__(self):
        body = "; ".join(" ".join(repr(c) for c in row) for row in self.rows)
        return f"[{body}]"

    # -- arithmetic ----------------------------------------------------------

    def _check(self, other):
        if not isinstance(other, FieldMatrix):
            raise TypeError("expected a FieldMatrix")
        if other.field != self.field:
            raise FieldMismatchError("matrices over different fields")

    def _apply_entrywise(self, rows):
        """The matrix with the k x k F_p-matrix `rows` applied to every entry."""
        F, n = self.field, self.ncols * self.field.k
        flat = _apply(list(chain.from_iterable(self._rows)), rows, F.p, F.k)
        return FieldMatrix(F, _Rows(F, [tuple(flat[i * n:i * n + n]) for i in range(self.nrows)]))

    def __add__(self, other):
        self._check(other)
        p = self.field.p
        return FieldMatrix(self.field, _Rows(self.field, [
            tuple([(a + b) % p for a, b in zip(r, s)]) for r, s in zip(self._rows, other._rows)]))

    def __sub__(self, other):
        self._check(other)
        p = self.field.p
        return FieldMatrix(self.field, _Rows(self.field, [
            tuple([(a - b) % p for a, b in zip(r, s)]) for r, s in zip(self._rows, other._rows)]))

    def scale(self, c) -> "FieldMatrix":
        return self._apply_entrywise(_mul_matrix(self.field, _residues(self.field, (c,))))

    def _columns_packed(self, w):
        """The packed x^b multiples of the columns, x^b col_j at index j k + b."""
        cols = self._packed.get(w)
        if cols is None:
            cols = self._packed[w] = _packed_lines(self.field, self._rows, w, columns=True)
        return cols

    def _reduced_product(self, v):
        """M v for v a flat residue vector, as residues."""
        F = self.field
        w = _slot_bytes(self.ncols * F.k * (F.p - 1) ** 2)
        return [c % F.p for c in _unpack(sum(map(mul, v, self._columns_packed(w))), self.nrows * F.k, w)]

    def __matmul__(self, other):
        self._check(other)
        if self.ncols != other.nrows:
            raise ValueError("matrix shape mismatch")
        cols = [tuple(self._reduced_product(c)) for c in other.transpose()._rows]
        return FieldMatrix(self.field, _Rows(self.field, cols)).transpose()

    def mat_vec(self, v):
        v = _residues(self.field, v)
        if len(v) != self.ncols * self.field.k:
            raise ValueError("vector length mismatch")
        return _elements(self.field, self._reduced_product(v))

    def power(self, e: int) -> "FieldMatrix":
        if self.nrows != self.ncols:
            raise ValueError("power of a non-square matrix")
        return _binary_power(self, e, FieldMatrix.__matmul__, FieldMatrix.identity(self.field, self.nrows))

    def frobenius_entrywise(self) -> "FieldMatrix":
        F = self.field
        # a -> a^p is F_p-linear: column b of its matrix is frobenius(x^b)
        return self._apply_entrywise(list(zip(*(frobenius(F.element([0] * b + [1])).coeffs for b in range(F.k)))))

    # -- elimination -----------------------------------------------------------

    def _echelon(self):
        """Reduced row echelon form: (nonzero rows as residue tuples, pivot columns)."""
        acc = _EchelonAccumulator(self.field, self.ncols, self.field.p - 1)
        for row in self._rows:
            acc.insert(_pack(row, acc.w))
        order = sorted(range(len(acc)), key=acc.pivots.__getitem__)
        rows = acc.basis()
        return [rows[i] for i in order], [acc.pivots[i] for i in order]

    def rank(self) -> int:
        return len(self._echelon()[1])

    def nullspace(self):
        """Deterministic basis of the right kernel, as coordinate tuples."""
        p, k, n = self.field.p, self.field.k, self.ncols
        D = _diagonal_entries(self) if self.nrows == n else None
        if D is not None:
            return _unit_rows(self.field, n, [i for i, d in enumerate(D) if not any(d)])
        rows, pivots = self._echelon()
        pivot_set = set(pivots)
        basis = []
        for fc in range(self.ncols):
            if fc in pivot_set:
                continue
            vec = [0] * (self.ncols * k)
            vec[fc * k] = 1
            for row, pc in zip(rows, pivots):
                vec[pc * k:pc * k + k] = [-c % p for c in row[fc * k:fc * k + k]]
            basis.append(tuple(vec))
        return _Rows(self.field, basis)

    def inverse(self) -> "FieldMatrix":
        if self.nrows != self.ncols:
            raise ValueError("inverse of a non-square matrix")
        n, F = self.nrows, self.field
        eye = FieldMatrix.identity(F, n)._rows
        rows, pivots = FieldMatrix(F, _Rows(F, [r + e for r, e in zip(self._rows, eye)]))._echelon()
        if pivots != list(range(n)):
            raise ZeroDivisionError("matrix is singular")
        return FieldMatrix(F, _Rows(F, [row[n * F.k:] for row in rows]))

    def charpoly(self) -> Polynomial:
        """Characteristic polynomial det(xI - A): the product of the
        factors `_charpoly_blocks` finds."""
        F = self.field
        chi = [1] + [0] * (F.k - 1)
        for factor in self._charpoly_blocks():
            chi = _polymul(factor, chi, F)
        return Polynomial._of(F, chi)

    def _charpoly_blocks(self):
        """The factors of det(xI - A) by strongly connected components, as
        lists of flat residues of monic polynomials.

        Read as a digraph with i -> j when A[i][j] != 0 (i != j), A has
        strongly connected components C_1, ..., C_r (Tarjan 1972); listing
        the vertices component by component, in the order the search closes
        them, makes A block triangular up to that permutation.  So det(xI - A)
        is the product of the diagonal blocks' char polys: x - a_ii for a
        1 x 1 block, `_krylov_charpoly` of the submatrix for a larger one.
        The char poly is unique, so the split changes no result, only the
        work: diagonal and triangular matrices take one linear factor per
        row, and block-diagonal ones one Krylov run per block.
        """
        if self.nrows != self.ncols:
            raise ValueError("char poly of a non-square matrix")
        F, n = self.field, self.nrows
        p, k = F.p, F.k
        rows = self._rows
        blocks = []
        for comp in _strong_components(_adjacency(self)):
            if len(comp) == 1:
                i = comp[0]
                blocks.append([-c % p for c in rows[i][i * k:i * k + k]] + [1] + [0] * (k - 1))
            elif len(comp) == n:
                blocks.append(self._krylov_charpoly())
            else:
                sub = [tuple(chain.from_iterable(rows[i][j * k:j * k + k] for j in comp)) for i in comp]
                blocks.append(FieldMatrix(F, _Rows(F, sub))._krylov_charpoly())
        return blocks

    def _minus_scalar(self, c) -> "FieldMatrix":
        """A - c I for a square A and c in its field: only the diagonal
        entries change."""
        F = self.field
        p, k = F.p, F.k
        c = _residues(F, (c,))
        return FieldMatrix(F, _Rows(F, [
            row[:i * k] + tuple([(a - b) % p for a, b in zip(row[i * k:i * k + k], c)]) + row[i * k + k:]
            for i, row in enumerate(self._rows)]))

    def _krylov_charpoly(self):
        """det(xI - A) by Krylov blocks, as the flat residues of its
        coefficients in ascending order.

        Each unit vector e_s outside the span so far starts a block
        v = e_s, A v, A^2 v, ..., each vector reduced against the span.  A
        vector carries a record in n + 1 extra entries: the polynomial P
        with vector = P(A) v modulo the earlier blocks, which the
        accumulator's row operations keep up to date.  The first vector of
        a block that reduces to zero records the minimal polynomial of v
        modulo the earlier blocks: the char poly of A on the block's
        quotient.  The char poly is the product over the blocks.  Records
        are cleared when a block closes, since the span is then invariant.
        """
        F, n = self.field, self.nrows
        p, k = F.p, F.k
        acc = _EchelonAccumulator(F, n, n * k * (p - 1) ** 2, length=2 * n + 1)
        cols = self._columns_packed(acc.w)
        entry = 8 * acc.w * k
        coords = (1 << entry * n) - 1
        chi = [1] + [0] * (k - 1)
        for s in range(n):
            if len(acc) == n:
                break
            x = 1 << entry * s | 1 << entry * n
            while True:
                vals = acc.residual(x)
                row = acc.add(vals)
                if row is None:
                    break
                # map stops at the n k coordinates of the row; the record moves up one degree
                x = sum(map(mul, row, cols)) + (_pack(row[n * k:2 * n * k], acc.w) << entry * (n + 1))
            record = vals[n * k:]
            if len(_trim(record, k)) > k:
                chi = _polymul(_scale(record, _inverse(F, record[-k:]), F), chi, F)
            acc.flat = [X & coords for X in acc.flat]
        return chi


class _PieceMatrix(FieldMatrix):
    """A square matrix kept as the pieces (r, c, vals) it is built from, as
    three tuples: flat residues vals, `width` per entry (k, or 1 for F_p
    values in slot 0), along row r from column c on; pieces are non-empty
    and disjoint, other entries zero.  Its dense rows are built on first read."""

    __slots__ = ("pieces", "width")

    def __init__(self, field, dim, pieces, width=None):
        self.field, self.nrows, self.ncols, self._packed = field, dim, dim, {}
        self.pieces, self.width = tuple(zip(*pieces)) or ((), (), ()), width or field.k

    def __getattr__(self, name):
        if name != "_rows":
            raise AttributeError(name)
        k, w, rows = self.field.k, self.width, [[0] * (self.ncols * self.field.k) for _ in range(self.nrows)]
        for r, c, v in zip(*self.pieces):
            rows[r][c * k:(c + len(v) // w) * k:k // w] = v
        self._rows = tuple(map(tuple, rows))
        return self._rows


def _pieces(M):
    """The rows, columns, values and width of M's pieces, a dense matrix
    one piece per row.  Readers scan a piece's residues at C speed, so a
    piece that holds zeros reads as a sparser one."""
    if isinstance(M, _PieceMatrix):
        return (*M.pieces, M.width)
    return range(M.nrows), (0,) * M.nrows, M._rows, M.field.k


def _diagonal_entries(M):
    """The diagonal entries of a square M, as residue tuples, when every
    nonzero residue of a piece lies on its diagonal entry; else None."""
    rows, cols, vals, w = _pieces(M)
    D = [(0,) * M.field.k] * M.nrows
    for r, c, v in zip(rows, cols, vals):
        d = v[(r - c) * w:(r - c + 1) * w] if r >= c else ()
        if len(v) - v.count(0) != len(d) - d.count(0):
            return None
        D[r] = tuple(d) + (0,) * (M.field.k - w) if d else D[r]
    return D


def _adjacency(M):
    """The columns j != i with M[i][j] != 0, for each row i: the support digraph."""
    rows, cols, vals, w = _pieces(M)
    out = [[] for _ in range(M.nrows)]
    for r, c, v in zip(rows, cols, vals):
        out[r] += [j for j in compress(range(c, c + len(v) // w), map(any, zip(*[v[u::w] for u in range(w)])))
                   if j != r]
    return out


class _Transpose:
    """The transpose of a matrix as `spin` reads it: its packed columns are
    the matrix's packed rows, built from the row residues on each call, so
    no transposed copy is made or kept."""

    __slots__ = ("field", "nrows", "ncols", "_rows")

    def __init__(self, matrix):
        self.field, self.nrows, self.ncols, self._rows = matrix.field, matrix.ncols, matrix.nrows, matrix._rows

    def _columns_packed(self, w):
        return _packed_lines(self.field, self._rows, w)


def _strong_components(adj):
    """The strongly connected components of the digraph i -> adj[i], by
    Tarjan's search (1972) run with an explicit stack instead of recursion.
    A component comes out after every component it reaches."""
    n = len(adj)
    index, low = [-1] * n, [0] * n
    on_stack = [False] * n
    stack, comps, counter = [], [], 0
    for root in range(n):
        if index[root] >= 0:
            continue
        index[root] = low[root] = counter
        counter += 1
        stack.append(root)
        on_stack[root] = True
        work = [(root, iter(adj[root]))]
        while work:
            v, edges = work[-1]
            for w in edges:
                if index[w] < 0:
                    index[w] = low[w] = counter
                    counter += 1
                    stack.append(w)
                    on_stack[w] = True
                    work.append((w, iter(adj[w])))
                    break
                if on_stack[w] and index[w] < low[v]:
                    low[v] = index[w]
            else:
                work.pop()
                if work and low[v] < low[work[-1][0]]:
                    low[work[-1][0]] = low[v]
                if low[v] == index[v]:
                    comp = []
                    while not comp or comp[-1] != v:
                        comp.append(stack.pop())
                        on_stack[comp[-1]] = False
                    comps.append(comp)
    return comps


def span_basis(field: FieldDescriptor, vectors):
    """Reduced echelon basis of the span of the given coordinate vectors.

    Returns (basis_rows, pivot_cols); insertion order independent.
    """
    if not vectors:
        return [], []
    rows, pivots = FieldMatrix(field, vectors)._echelon()
    return [_elements(field, r) for r in rows], pivots


class _EchelonAccumulator:
    """Reduced echelon basis grown one vector at a time: the elimination
    kernel behind every routine of this module.

    Rows are kept in insertion order; each row is zero in every other
    row's pivot column, and its first nonzero entry is a 1 at its pivot.
    Pivots lie among the first `dim` entries; the other `length - dim`
    entries of a vector ride along (the records of `charpoly`).  Row i is
    kept as its k packed x^b multiples flat[i k + b], with w-byte slots for
    inputs whose slots are at most s0 (see the module docstring).  Since
    every row is zero in the other pivot columns, a vector's multipliers
    are its own pivot entries, and one C-level sum reduces it.
    """

    def __init__(self, field, dim, s0, length=None):
        p1, k = field.p - 1, field.k
        self.field = field
        self.dim = dim
        self.length = dim if length is None else length
        self.w = _slot_bytes(s0 + dim * k * p1 * (p1 + dim * k * p1 * p1))
        self.flat = []       # packed x^b multiples of the rows
        self.pivots = []     # pivot column per row
        self._index = []     # positions of the pivot residues, k per row

    def __len__(self):
        return len(self.pivots)

    def residual(self, x):
        """Residues of the packed vector x reduced against the basis."""
        p, count, w = self.field.p, self.length * self.field.k, self.w
        if self.pivots:
            vals = _unpack(x, count, w)
            x = sum(map(mul, [-vals[i] % p for i in self._index], self.flat), x)
        return [c % p for c in _unpack(x, count, w)]

    def add(self, vals):
        """Insert reduced residues that are nonzero below dim, normalised;
        returns the new row's residues, or None for a dependent vector."""
        F, w = self.field, self.w
        p, k = F.p, F.k
        nz = next((i for i in range(self.dim * k) if vals[i]), None)
        if nz is None:
            return None
        pc = nz // k
        lead = vals[pc * k:pc * k + k]
        row = vals if lead[0] == 1 and lead.count(0) == k - 1 else _scale(vals, _inverse(F, lead), F)
        V = _packed_lines(F, [row], w)
        # keep earlier rows reduced against the new one: x^b row_i gains
        # e row = sum_u e_u V[u] for e = (-c) x^b, c = row_i[pc]; e moves
        # from b to b + 1 as its residues move up and the top one folds
        # back through `_reductions`
        shift, mask = 8 * w * k * pc, (1 << 8 * w) - 1
        flat, red = self.flat, F._reductions[0] if k > 1 else None
        for i in range(0, len(flat), k):
            top = flat[i] >> shift
            e = [-(top >> 8 * w * b & mask) % p for b in range(k)]
            if any(e):
                flat[i] += sum(map(mul, e, V))
                for b in range(1, k):
                    e = [(a + e[-1] * r) % p for a, r in zip([0] + e[:-1], red)]
                    flat[i + b] += sum(map(mul, e, V))
        flat.extend(V)
        self.pivots.append(pc)
        self._index.extend(range(pc * k, pc * k + k))
        return row

    def insert(self, x):
        """Reduce the packed vector x and insert it when it is new; returns
        the new row's residues, or None."""
        return self.add(self.residual(x))

    def basis(self):
        """The rows as flat residue tuples, in insertion order."""
        p, k, w = self.field.p, self.field.k, self.w
        return [tuple([c % p for c in _unpack(X, self.length * k, w)]) for X in self.flat[::k]]


def _square(field, n, mats):
    for m in mats:
        if m.field != field:
            raise FieldMismatchError("matrices over different fields")
        if (m.nrows, m.ncols) != (n, n):
            raise ValueError("vector length mismatch")


def spin(field: FieldDescriptor, seeds, mats):
    """Closure of the span of `seeds` under the matrices `mats`.

    Returns the echelon basis rows of the invariant subspace generated by
    the seed vectors, one row per basis vector.
    """
    seeds = _residue_rows(field, seeds)
    if not seeds:
        return _Rows(field, [])
    n = len(seeds[0]) // field.k
    _square(field, n, mats)
    acc = _EchelonAccumulator(field, n, n * field.k * (field.p - 1) ** 2)
    cols = [m._columns_packed(acc.w) for m in mats]
    queue = deque()
    for s in seeds:
        row = acc.insert(_pack(s, acc.w))
        if row is not None:
            queue.append(row)
    while queue and len(acc) < n:
        v = queue.popleft()
        for c in cols:
            row = acc.insert(sum(map(mul, v, c)))
            if row is not None:
                queue.append(row)
    return _Rows(field, acc.basis())


def is_invariant_subspace(basis_rows, mats) -> bool:
    """True when every image M w reduces to zero against span(W).  M w
    reads the columns of M from the first to the last in which some w is
    nonzero, from the pieces that cross them, so a span of a few
    neighbouring unit vectors reads a few."""
    if not basis_rows or not mats:
        return True
    F, k = mats[0].field, mats[0].field.k
    rows = _residue_rows(F, basis_rows)
    n = len(rows[0]) // k
    _square(F, n, mats)
    acc = _EchelonAccumulator(F, n, n * k * (F.p - 1) ** 2)
    for r in rows:
        acc.insert(_pack(r, acc.w))
    lo = min(next(compress(count(), r), len(r)) for r in rows) // k
    hi = max(lo, -(-max(len(r) - next(compress(count(), reversed(r)), len(r)) for r in rows) // k))
    size = n * k

    def column_lines(M):
        rs, cs, vs, w = _pieces(M)
        out = [0] * ((hi - lo) * size)
        for r, c, v in compress(zip(rs, cs, vs), map(lt, cs, repeat(hi))):
            a, b = max(c, lo), max(lo, min(c + len(v) // w, hi))
            for u in range(w):
                out[(a - lo) * size + r * k + u:(b - lo) * size:size] = v[(a - c) * w + u:(b - c) * w:w]
        return _packed_lines(F, [out[i:i + size] for i in range(0, len(out), size)], acc.w)

    return all(not any(acc.residual(sum(map(mul, r[lo * k:hi * k], cols))))
               for cols in map(column_lines, mats) for r in rows)
