"""Dense matrices over a finite field: rank, nullspace, char poly, spinning.

Everything is exact.  One elimination kernel, `_EchelonAccumulator`,
serves every routine: it keeps a reduced echelon basis and inserts one
vector at a time, pivoting on the vector's first nonzero column.  Rank,
nullspace, inverse and `span_basis` insert a matrix's rows and sort the
basis by pivot, which gives the reduced row echelon form; that form is
unique, so the results do not depend on the order of insertion.
`spin` and `is_invariant_subspace` grow and query the basis directly.
"""

from __future__ import annotations

from .ff import FieldDescriptor, FieldMismatchError, _binary_power, frobenius
from .poly import Polynomial


class FieldMatrix:
    __slots__ = ("field", "rows", "nrows", "ncols")

    def __init__(self, field: FieldDescriptor, rows):
        self.field = field
        fixed = []
        width = None
        for row in rows:
            r = tuple(field.element(c) for c in row)
            if width is None:
                width = len(r)
            elif len(r) != width:
                raise ValueError("ragged matrix rows")
            fixed.append(r)
        self.rows = tuple(fixed)
        self.nrows = len(fixed)
        self.ncols = width if width is not None else 0

    # -- constructors ----------------------------------------------------

    @classmethod
    def identity(cls, field, n):
        one, zero = field.one(), field.zero()
        return cls(field, [[one if i == j else zero for j in range(n)] for i in range(n)])

    @classmethod
    def zeros(cls, field, nrows, ncols):
        zero = field.zero()
        return cls(field, [[zero] * ncols for _ in range(nrows)])

    @classmethod
    def from_columns(cls, field, cols):
        if not cols:
            return cls(field, [])
        n = len(cols[0])
        return cls(field, [[col[i] for col in cols] for i in range(n)])

    # -- basics ------------------------------------------------------------

    def __getitem__(self, ij):
        i, j = ij
        return self.rows[i][j]

    def column(self, j):
        return tuple(self.rows[i][j] for i in range(self.nrows))

    def columns(self):
        return [self.column(j) for j in range(self.ncols)]

    def transpose(self) -> "FieldMatrix":
        return FieldMatrix(
            self.field,
            [[self.rows[i][j] for i in range(self.nrows)] for j in range(self.ncols)],
        )

    def is_zero(self) -> bool:
        return all(c.is_zero() for row in self.rows for c in row)

    def __eq__(self, other):
        return (
            isinstance(other, FieldMatrix)
            and self.field == other.field
            and self.rows == other.rows
        )

    def __hash__(self):
        return hash((self.field.p, self.field.k, self.rows))

    def __repr__(self):
        body = "; ".join(" ".join(repr(c) for c in row) for row in self.rows)
        return f"[{body}]"

    # -- arithmetic ----------------------------------------------------------

    def _check(self, other):
        if not isinstance(other, FieldMatrix):
            raise TypeError("expected a FieldMatrix")
        if other.field != self.field:
            raise FieldMismatchError("matrices over different fields")

    def __add__(self, other):
        self._check(other)
        return FieldMatrix(
            self.field,
            [[a + b for a, b in zip(r1, r2)] for r1, r2 in zip(self.rows, other.rows)],
        )

    def __sub__(self, other):
        self._check(other)
        return FieldMatrix(
            self.field,
            [[a - b for a, b in zip(r1, r2)] for r1, r2 in zip(self.rows, other.rows)],
        )

    def scale(self, c) -> "FieldMatrix":
        c = self.field.element(c)
        return FieldMatrix(self.field, [[a * c for a in row] for row in self.rows])

    def __matmul__(self, other):
        self._check(other)
        if self.ncols != other.nrows:
            raise ValueError("matrix shape mismatch")
        return FieldMatrix.from_columns(self.field, [self.mat_vec(col) for col in other.columns()])

    def mat_vec(self, v):
        if len(v) != self.ncols:
            raise ValueError("vector length mismatch")
        out = []
        for row in self.rows:
            acc = self.field.zero()
            for a, b in zip(row, v):
                if not a.is_zero() and not b.is_zero():
                    acc = acc + a * b
            out.append(acc)
        return tuple(out)

    def power(self, e: int) -> "FieldMatrix":
        if self.nrows != self.ncols:
            raise ValueError("power of a non-square matrix")
        return _binary_power(self, e, FieldMatrix.__matmul__, FieldMatrix.identity(self.field, self.nrows))

    def frobenius_entrywise(self) -> "FieldMatrix":
        return FieldMatrix(self.field, [[frobenius(c) for c in row] for row in self.rows])

    # -- elimination -----------------------------------------------------------

    def _echelon(self):
        """Reduced row echelon form: (nonzero rows as lists, pivot columns)."""
        acc = _EchelonAccumulator(self.field, self.ncols)
        for row in self.rows:
            acc.insert(row)
        order = sorted(range(len(acc)), key=acc.pivots.__getitem__)
        return [acc.rows[i] for i in order], [acc.pivots[i] for i in order]

    def rank(self) -> int:
        return len(self._echelon()[1])

    def nullspace(self):
        """Deterministic basis of the right kernel, as coordinate tuples."""
        rows, pivots = self._echelon()
        pivot_set = set(pivots)
        free = [c for c in range(self.ncols) if c not in pivot_set]
        basis = []
        zero, one = self.field.zero(), self.field.one()
        for fc in free:
            vec = [zero] * self.ncols
            vec[fc] = one
            for r, pc in enumerate(pivots):
                vec[pc] = -rows[r][fc]
            basis.append(tuple(vec))
        return basis

    def inverse(self) -> "FieldMatrix":
        if self.nrows != self.ncols:
            raise ValueError("inverse of a non-square matrix")
        n = self.nrows
        identity = FieldMatrix.identity(self.field, n).rows
        aug = FieldMatrix(self.field, [r + e for r, e in zip(self.rows, identity)])
        rows, pivots = aug._echelon()
        if pivots != list(range(n)):
            raise ZeroDivisionError("matrix is singular")
        return FieldMatrix(self.field, [row[n:] for row in rows])

    def charpoly(self) -> Polynomial:
        """Characteristic polynomial det(xI - A) via Hessenberg reduction."""
        if self.nrows != self.ncols:
            raise ValueError("char poly of a non-square matrix")
        n = self.nrows
        field = self.field
        if n == 0:
            return Polynomial.one(field)
        h = [list(r) for r in self.rows]
        zero = field.zero()
        for c in range(n - 2):
            pivot = None
            for r in range(c + 1, n):
                if not h[r][c].is_zero():
                    pivot = r
                    break
            if pivot is None:
                continue
            if pivot != c + 1:
                h[c + 1], h[pivot] = h[pivot], h[c + 1]
                for r in range(n):
                    h[r][c + 1], h[r][pivot] = h[r][pivot], h[r][c + 1]
            inv = h[c + 1][c].inverse()
            for r in range(c + 2, n):
                if not h[r][c].is_zero():
                    t = h[r][c] * inv
                    h[r] = [a - t * b for a, b in zip(h[r], h[c + 1])]
                    for rr in range(n):
                        h[rr][c + 1] = h[rr][c + 1] + t * h[rr][r]
        # charpoly of the Hessenberg form by the leading-minor recurrence
        polys = [Polynomial.one(field)]
        for m in range(1, n + 1):
            diag = Polynomial(field, [-h[m - 1][m - 1], field.one()])
            acc = diag * polys[m - 1]
            prod = field.one()
            for i in range(m - 1, 0, -1):
                prod = prod * h[i][i - 1]
                if prod.is_zero():
                    break
                acc = acc - polys[i - 1].scale(prod * h[i - 1][m - 1])
            polys.append(acc)
        return polys[n]


def span_basis(field: FieldDescriptor, vectors):
    """Reduced echelon basis of the span of the given coordinate vectors.

    Returns (basis_rows, pivot_cols); insertion order independent.
    """
    if not vectors:
        return [], []
    rows, pivots = FieldMatrix(field, vectors)._echelon()
    return [tuple(r) for r in rows], pivots


class _EchelonAccumulator:
    """Reduced echelon basis grown one vector at a time: the elimination
    kernel behind every routine of this module.

    Rows are kept in insertion order; each row is zero in every other
    row's pivot column, and its first nonzero entry is a 1 at its pivot.
    """

    def __init__(self, field, dim):
        self.field = field
        self.dim = dim
        self.rows = []       # reduced rows
        self.pivots = []     # pivot column per row

    def reduce(self, vec):
        v = list(vec)
        for row, pc in zip(self.rows, self.pivots):
            if not v[pc].is_zero():
                factor = v[pc]
                v = [a - factor * b for a, b in zip(v, row)]
        return v

    def insert(self, vec):
        """Reduce and insert; returns True when the vector was new."""
        v = self.reduce(vec)
        pivot = None
        for c in range(self.dim):
            if not v[c].is_zero():
                pivot = c
                break
        if pivot is None:
            return False
        inv = v[pivot].inverse()
        v = [a * inv for a in v]
        # keep earlier rows reduced against the new one
        for i in range(len(self.rows)):
            if not self.rows[i][pivot].is_zero():
                f = self.rows[i][pivot]
                self.rows[i] = [a - f * b for a, b in zip(self.rows[i], v)]
        self.rows.append(v)
        self.pivots.append(pivot)
        return True

    def __len__(self):
        return len(self.rows)


def spin(field: FieldDescriptor, seeds, mats):
    """Closure of the span of `seeds` under the matrices `mats`.

    Returns the echelon basis rows of the invariant subspace generated by
    the seed vectors.
    """
    if not seeds:
        return []
    from collections import deque

    dim = len(seeds[0])
    acc = _EchelonAccumulator(field, dim)
    queue = deque()
    for s in seeds:
        if acc.insert(s):
            queue.append(acc.rows[-1])
    while queue:
        v = queue.popleft()
        for m in mats:
            w = m.mat_vec(tuple(v))
            if acc.insert(w):
                queue.append(acc.rows[-1])
    return [tuple(r) for r in acc.rows]


def is_invariant_subspace(basis_rows, mats) -> bool:
    """True when every image M w reduces to zero against span(W)."""
    if not basis_rows or not mats:
        return True
    acc = _EchelonAccumulator(mats[0].field, len(basis_rows[0]))
    for w in basis_rows:
        acc.insert(w)
    return all(
        all(c.is_zero() for c in acc.reduce(m.mat_vec(w))) for m in mats for w in basis_rows
    )
