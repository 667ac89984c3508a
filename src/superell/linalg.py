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
    multiples of its rows.  A stored slot starts below p and grows by at
    most k (p-1)^2 each time a later row clears its pivot column, so it
    stays at most B = (p-1) + d k (p-1)^2 for a basis of at most d rows.
    Reducing a vector whose slots are at most s0 gives slots at most
    s0 + d k (p-1) B.
  * `_times_x`, which runs only for k >= 2, forms slots of at most
    p (p-1) before reducing them: within both bounds above, since then
    n k >= 2.  Normalising a row forms at most k (p-1)^2, within the
    accumulator's bound.

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

`charpoly` first splits the matrix by the strongly connected components of
its nonzero pattern (Tarjan 1972), which make it block triangular up to a
permutation: a 1 x 1 block gives its linear factor at once, and only the
larger blocks run the Krylov route on the accumulator.  The MeatAxe's
diagonal, triangular and block-diagonal generators thus take one Krylov
run per block, not one per eigenvector.  Inverses of leading entries are
taken on residues (`ff._inverse`).
"""

from __future__ import annotations

from collections import deque
from collections.abc import Sequence
from itertools import chain, compress
from operator import mul

from .ff import (FieldDescriptor, FieldElement, FieldMismatchError, _apply, _binary_power, _elements, _inverse,
                 _mul_matrix, _pack, _polymul, _residues, _scale, _trim, _unpack, frobenius)
from .poly import Polynomial


def _slot_bytes(bound: int) -> int:
    """Bytes per slot for slot values up to bound: a power of two up to 8,
    or the exact byte count above."""
    size = max(1, (bound.bit_length() + 7) // 8)
    return size if size > 8 else 1 << (size - 1).bit_length()


def _times_x(X, count, field, w):
    """x v for the packed vector X of count entries with slots below p: each
    entry's residues move up one slot and the top one folds back through
    `_reductions`; the result is packed with its slots reduced mod p."""
    p, k, s = field.p, field.k, 8 * w
    comb = int.from_bytes((b"\x01" + bytes(w * k - 1)) * count, "little")
    top = X >> s * (k - 1) & comb * ((1 << s) - 1)
    y = ((X & comb * ((1 << s * (k - 1)) - 1)) << s) + sum(r * top << s * u for u, r in enumerate(field._reductions[0]))
    return _pack([c % p for c in _unpack(y, count * k, w)], w)


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


def _residue_rows(field, vectors):
    if isinstance(vectors, _Rows) and vectors.field == field:
        return vectors.residues
    return [_residues(field, v) for v in vectors]


class FieldMatrix:
    __slots__ = ("field", "nrows", "ncols", "_rows", "_packed")

    def __init__(self, field: FieldDescriptor, rows):
        fixed = tuple(tuple(r) for r in _residue_rows(field, rows))
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
        k = field.k
        return cls(field, _Rows(field, [(0,) * (i * k) + (1,) + (0,) * ((n - i) * k - 1) for i in range(n)]))

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
        return tuple(_elements(self.field, r) for r in self._rows)

    def __getitem__(self, ij):
        i, j = ij
        row, k = self._rows[i], self.field.k
        j = range(self.ncols)[j]
        return FieldElement(self.field, row[j * k:j * k + k])

    def column(self, j):
        return tuple(self[i, j] for i in range(self.nrows))

    def columns(self):
        return list(self.transpose().rows)

    def transpose(self) -> "FieldMatrix":
        k = self.field.k
        flat = list(zip(*self._rows))
        if k > 1:
            flat = [tuple(chain.from_iterable(zip(*flat[j:j + k]))) for j in range(0, len(flat), k)]
        return FieldMatrix(self.field, _Rows(self.field, flat))

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
            tuple((a + b) % p for a, b in zip(r, s)) for r, s in zip(self._rows, other._rows)]))

    def __sub__(self, other):
        self._check(other)
        p = self.field.p
        return FieldMatrix(self.field, _Rows(self.field, [
            tuple((a - b) % p for a, b in zip(r, s)) for r, s in zip(self._rows, other._rows)]))

    def scale(self, c) -> "FieldMatrix":
        return self._apply_entrywise(_mul_matrix(self.field, _residues(self.field, (c,))))

    def _columns_packed(self, w):
        """The packed x^b multiples of the columns, x^b col_j at index j k + b."""
        cols = self._packed.get(w)
        if cols is None:
            cols = []
            for c in self.transpose()._rows:
                cols.append(_pack(c, w))
                for _ in range(self.field.k - 1):
                    cols.append(_times_x(cols[-1], self.nrows, self.field, w))
            self._packed[w] = cols
        return cols

    def _product(self, v, w):
        """M v packed with w-byte slots, for v a flat residue vector."""
        return sum(map(mul, v, self._columns_packed(w)))

    def _reduced_product(self, v):
        F = self.field
        w = _slot_bytes(self.ncols * F.k * (F.p - 1) ** 2)
        return [c % F.p for c in _unpack(self._product(v, w), self.nrows * F.k, w)]

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
        rows, pivots = self._echelon()
        p, k = self.field.p, self.field.k
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
        """Characteristic polynomial det(xI - A), split by strongly connected
        components.

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
        chi = None
        for comp in _strong_components(self._adjacency()):
            if len(comp) == 1:
                i = comp[0]
                factor = [-c % p for c in rows[i][i * k:i * k + k]] + [1] + [0] * (k - 1)
            elif len(comp) == n:
                factor = self._krylov_charpoly()
            else:
                sub = [tuple(chain.from_iterable(rows[i][j * k:j * k + k] for j in comp)) for i in comp]
                factor = FieldMatrix(F, _Rows(F, sub))._krylov_charpoly()
            chi = factor if chi is None else _polymul(factor, chi, F)
        return Polynomial._of(F, chi or [1] + [0] * (k - 1))

    def _adjacency(self):
        """The columns j != i with A[i][j] != 0, for each row i."""
        n, k = self.ncols, self.field.k
        out = []
        for i, row in enumerate(self._rows):
            nonzero = row if k == 1 else map(any, zip(*(row[u::k] for u in range(k))))
            out.append([j for j in compress(range(n), nonzero) if j != i])
        return out

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
        count = self.length
        lead = _inverse(F, vals[pc * k:pc * k + k])
        # the normalised row lead vals = sum_b lead_b x^b vals, and its
        # multiples V[t] = x^t row for t <= 2k - 2
        V = [_pack(vals, w)]
        for _ in range(k - 1):
            V.append(_times_x(V[-1], count, F, w))
        row = [c % p for c in _unpack(sum(map(mul, lead, V)), count * k, w)]
        V = [_pack(row, w)]
        for _ in range(2 * k - 2):
            V.append(_times_x(V[-1], count, F, w))
        # keep earlier rows reduced against the new one: x^b row_i gains
        # (-c) x^b row = sum_b' (-c)_b' V[b + b'], c = row_i[pc]
        shift, mask = 8 * w * k * pc, (1 << 8 * w) - 1
        flat = self.flat
        for i in range(0, len(flat), k):
            top = flat[i] >> shift
            neg = [-(top >> 8 * w * b & mask) % p for b in range(k)]
            if any(neg):
                for b in range(k):
                    flat[i + b] += sum(map(mul, neg, V[b:b + k]))
        flat.extend(V[:k])
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
        return [tuple(c % p for c in _unpack(X, self.length * k, w)) for X in self.flat[::k]]


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
    """True when every image M w reduces to zero against span(W)."""
    if not basis_rows or not mats:
        return True
    F = mats[0].field
    rows = _residue_rows(F, basis_rows)
    n = len(rows[0]) // F.k
    _square(F, n, mats)
    acc = _EchelonAccumulator(F, n, n * F.k * (F.p - 1) ** 2)
    for r in rows:
        acc.insert(_pack(r, acc.w))
    return all(not any(acc.residual(m._product(r, acc.w))) for m in mats for r in rows)
