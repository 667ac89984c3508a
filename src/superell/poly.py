"""Dense univariate polynomials over a finite field.

One representation for every F_q, q = p^k: a `Polynomial` stores the flat
tuple of its coefficients' int residues, k per coefficient, ascending by
degree and trimmed by whole coefficients, as `FieldMatrix` stores its
rows.  Every operation runs on the int-list core of `ff`: products and
powers on its one Kronecker product `ff._polymul` (each coefficient in
2k - 1 slots of the least w bytes with 2^(8w) > min(n_a, n_b) k (p-1)^2,
folded by `ff._fold`), division, gcd and the squarefree test on
`ff._polydivmod` and `ff._polygcd`.  `FieldElement` appears only at the
boundary: the constructor's coercion (`ff._residues`), `coeffs`, `coeff`,
`leading`, `eval`, `lift_coeffs` and the printed form.
"""

from __future__ import annotations

from .ff import (FieldDescriptor, FieldElement, FieldMismatchError, _binary_power, _elements, _inverse,
                 _LogTables, _polyadd, _polydivmod, _polygcd, _polymul, _polysub, _residues, _scale, _trim,
                 check_budget, lift_to, log_table_estimate)


class Polynomial:
    __slots__ = ("field", "residues")

    def __init__(self, field: FieldDescriptor, coeffs):
        """Build from a sequence of ints, residue sequences or FieldElements
        (ascending degree)."""
        self.field = field
        self.residues = tuple(_trim(_residues(field, coeffs), field.k))

    @classmethod
    def _of(cls, field, residues):
        """The polynomial of a fresh list of flat residues in [0, p)."""
        f = cls.__new__(cls)
        f.field = field
        f.residues = tuple(_trim(residues, field.k))
        return f

    # -- constructors ---------------------------------------------------

    @classmethod
    def zero(cls, field):
        return cls(field, [])

    @classmethod
    def one(cls, field):
        return cls(field, [1])

    @classmethod
    def x(cls, field):
        return cls(field, [0, 1])

    @classmethod
    def monomial(cls, field, coeff, degree):
        return cls(field, [0] * degree + [coeff])

    # -- queries ----------------------------------------------------------

    @property
    def coeffs(self):
        """The coefficients as FieldElements, ascending by degree."""
        return _elements(self.field, self.residues)

    @property
    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return len(self.residues) // self.field.k - 1

    def is_zero(self) -> bool:
        return not self.residues

    def leading(self) -> FieldElement:
        if self.is_zero():
            raise ValueError("zero polynomial has no leading coefficient")
        return FieldElement(self.field, self.residues[-self.field.k:])

    def coeff(self, n: int) -> FieldElement:
        """The x^n coefficient; zero outside the support (including n < 0)."""
        if n < 0 or n > self.degree:
            return self.field.zero()
        k = self.field.k
        return FieldElement(self.field, self.residues[n * k:n * k + k])

    # -- arithmetic --------------------------------------------------------

    def _check(self, other):
        if not isinstance(other, Polynomial):
            raise TypeError("expected a Polynomial")
        if other.field != self.field:
            raise FieldMismatchError("polynomials over different fields")

    def __add__(self, other):
        self._check(other)
        return Polynomial._of(self.field, _polyadd(self.residues, other.residues, self.field))

    def __sub__(self, other):
        self._check(other)
        return Polynomial._of(self.field, _polysub(self.residues, other.residues, self.field))

    def __neg__(self):
        p = self.field.p
        return Polynomial._of(self.field, [-c % p for c in self.residues])

    def __mul__(self, other):
        self._check(other)
        return Polynomial._of(self.field, _polymul(self.residues, other.residues, self.field))

    def scale(self, c) -> "Polynomial":
        F = self.field
        return Polynomial._of(F, _scale(self.residues, _residues(F, (c,)), F))

    def __pow__(self, e: int):
        return poly_pow(self, e)

    def __divmod__(self, other):
        self._check(other)
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        q, r = _polydivmod(self.residues, other.residues, self.field)
        return Polynomial._of(self.field, q), Polynomial._of(self.field, r)

    def __mod__(self, other):
        return divmod(self, other)[1]

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def derivative(self) -> "Polynomial":
        F = self.field
        p, k = F.p, F.k
        return Polynomial._of(F, [i // k * r % p for i, r in enumerate(self.residues)][k:])

    def monic(self) -> "Polynomial":
        if self.is_zero():
            return self
        F = self.field
        return Polynomial._of(F, _scale(self.residues, _inverse(F, self.residues[-F.k:]), F))

    def eval(self, a: FieldElement) -> FieldElement:
        """Horner evaluation; `a` may live in an extension of the base field."""
        K = a.field
        acc = K.zero()
        for c in reversed(self.coeffs):
            acc = acc * a + (c if c.field == K else lift_to(c, K))
        return acc

    def lift_coeffs(self, K: FieldDescriptor) -> "Polynomial":
        """The same polynomial viewed over the extension K."""
        return Polynomial(K, [lift_to(c, K) for c in self.coeffs])

    # -- structure ----------------------------------------------------------

    def __eq__(self, other):
        return (
            isinstance(other, Polynomial)
            and self.field == other.field
            and self.residues == other.residues
        )

    def __hash__(self):
        return hash((self.field.p, self.field.k, self.residues))

    def __repr__(self):
        from .exprparse import render_poly

        return render_poly(self)


def poly_pow(f: Polynomial, e: int) -> Polynomial:
    """f^e by binary exponentiation; f^0 = 1 including for f = 0."""
    if e < 0:
        raise ValueError("negative polynomial power")
    F = f.field
    one = [1] + [0] * (F.k - 1)
    return Polynomial._of(F, _binary_power(list(f.residues), e, lambda a, b: _polymul(a, b, F), one))


def poly_gcd(f: Polynomial, g: Polynomial) -> Polynomial:
    """Monic gcd by the Euclidean algorithm."""
    f._check(g)
    return Polynomial._of(f.field, _polygcd(f.residues, g.residues, f.field)).monic()


def is_squarefree(f: Polynomial) -> bool:
    """True iff gcd(f, f') is constant; rejects the zero polynomial."""
    if f.is_zero():
        raise ValueError("squarefreeness undefined for the zero polynomial")
    d = f.derivative()
    if d.is_zero():
        # f is a p-th power (degree > 0), hence not squarefree
        return f.degree == 0
    return poly_gcd(f, d).degree == 0


def roots_in_field(f: Polynomial, K: FieldDescriptor) -> set:
    """Exact root set of f in K: the x = 0 or g^i where the value arrays of
    the discrete-log tables of K (`ff._LogTables`) read f(x) = 0.

    K must equal the coefficient field or be an extension of a prime
    coefficient field.  Guarded by the tables' estimate, |K| elements.
    """
    check_budget(*log_table_estimate(K.p, K.k))
    if f.field != K and f.field != K._prime:
        raise FieldMismatchError("K is not an extension of the coefficient field")
    if f.is_zero():
        raise ValueError("every point is a root of the zero polynomial")
    tables = _LogTables(K, f)
    return {K.zero() if n == 0 else tables.element(n - 1) for n, z in enumerate(tables.values()) if not z}
