"""Dense univariate polynomials over a finite field.

Coefficients are stored ascending by degree with no trailing zeros; the
zero polynomial has an empty coefficient vector.  Over F_p the arithmetic
runs on int residues in the helpers of `ff`, with one `Polynomial` built
from the result: products and powers through one Kronecker-substitution
kernel, `ff._polymul`, with w-byte slots where w is the least width with
2^(8w) > min(len a, len b) (p-1)^2, and division, gcd and the squarefree
test through `ff._polydivmod` and `ff._polygcd`.  Over F_{p^k}, k >= 2,
products and division run on FieldElements, products schoolbook.
"""

from __future__ import annotations

from .ff import (FieldDescriptor, FieldElement, FieldMismatchError, _binary_power, _LogTables,
                 _polydivmod, _polygcd, _polymul, lift_to)


class Polynomial:
    __slots__ = ("field", "coeffs")

    def __init__(self, field: FieldDescriptor, coeffs):
        """Build from a sequence of ints or FieldElements (ascending degree)."""
        elems = []
        for c in coeffs:
            if isinstance(c, FieldElement):
                if c.field != field:
                    raise FieldMismatchError("coefficient from a different field")
                elems.append(c)
            else:
                elems.append(field.element(c))
        while elems and elems[-1].is_zero():
            elems.pop()
        self.field = field
        self.coeffs = tuple(elems)

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
    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def leading(self) -> FieldElement:
        if self.is_zero():
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def coeff(self, n: int) -> FieldElement:
        """The x^n coefficient; zero outside the support (including n < 0)."""
        if n < 0 or n > self.degree:
            return self.field.zero()
        return self.coeffs[n]

    # -- arithmetic --------------------------------------------------------

    def _check(self, other):
        if not isinstance(other, Polynomial):
            raise TypeError("expected a Polynomial")
        if other.field != self.field:
            raise FieldMismatchError("polynomials over different fields")

    def __add__(self, other):
        self._check(other)
        n = max(len(self.coeffs), len(other.coeffs))
        z = self.field.zero()
        out = []
        for i in range(n):
            a = self.coeffs[i] if i < len(self.coeffs) else z
            b = other.coeffs[i] if i < len(other.coeffs) else z
            out.append(a + b)
        return Polynomial(self.field, out)

    def __sub__(self, other):
        self._check(other)
        n = max(len(self.coeffs), len(other.coeffs))
        z = self.field.zero()
        out = []
        for i in range(n):
            a = self.coeffs[i] if i < len(self.coeffs) else z
            b = other.coeffs[i] if i < len(other.coeffs) else z
            out.append(a - b)
        return Polynomial(self.field, out)

    def __neg__(self):
        return Polynomial(self.field, [-c for c in self.coeffs])

    def __mul__(self, other):
        self._check(other)
        if self.is_zero() or other.is_zero():
            return Polynomial.zero(self.field)
        f = self.field
        if f.k == 1:
            a = _ints(self)
            b = a if other is self else _ints(other)
            return Polynomial(f, _polymul(a, b, f.p))
        z = f.zero()
        out = [z] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, ai in enumerate(self.coeffs):
            if not ai.is_zero():
                for j, bj in enumerate(other.coeffs):
                    out[i + j] = out[i + j] + ai * bj
        return Polynomial(f, out)

    def scale(self, c) -> "Polynomial":
        c = self.field.element(c)
        return Polynomial(self.field, [a * c for a in self.coeffs])

    def __pow__(self, e: int):
        return poly_pow(self, e)

    def __divmod__(self, other):
        self._check(other)
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        F = self.field
        if F.k == 1:
            q, r = _polydivmod(_ints(self), _ints(other), F.p)
            return Polynomial(F, q), Polynomial(F, r)
        rem = list(self.coeffs)
        q = [self.field.zero()] * max(len(rem) - len(other.coeffs) + 1, 0)
        inv_lead = other.leading().inverse()
        db = other.degree
        while len(rem) - 1 >= db and rem:
            if rem[-1].is_zero():
                rem.pop()
                continue
            c = rem[-1] * inv_lead
            shift = len(rem) - 1 - db
            q[shift] = c
            for i, bi in enumerate(other.coeffs):
                rem[shift + i] = rem[shift + i] - c * bi
            rem.pop()
        return Polynomial(self.field, q), Polynomial(self.field, rem)

    def __mod__(self, other):
        return divmod(self, other)[1]

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def derivative(self) -> "Polynomial":
        return Polynomial(self.field, [[n * r for r in c.coeffs] for n, c in enumerate(self.coeffs)][1:])

    def monic(self) -> "Polynomial":
        if self.is_zero():
            return self
        return self.scale(self.leading().inverse())

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
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.field.p, self.field.k, self.coeffs))

    def __repr__(self):
        from .exprparse import render_poly

        return render_poly(self)


def _ints(f: Polynomial):
    """The residues of f's coefficients, f over F_p."""
    return [c.coeffs[0] for c in f.coeffs]


def poly_pow(f: Polynomial, e: int) -> Polynomial:
    """f^e by binary exponentiation; f^0 = 1 including for f = 0."""
    if e < 0:
        raise ValueError("negative polynomial power")
    F = f.field
    if F.k == 1:
        return Polynomial(F, _binary_power(_ints(f), e, lambda a, b: _polymul(a, b, F.p), [1]))
    return _binary_power(f, e, Polynomial.__mul__, Polynomial.one(F))


def poly_gcd(f: Polynomial, g: Polynomial) -> Polynomial:
    """Monic gcd by the Euclidean algorithm."""
    F = f.field
    if F.k == 1:
        f._check(g)
        a = _polygcd(_ints(f), _ints(g), F.p)
        inv_lead = pow(a[-1], -1, F.p) if a else 0
        return Polynomial(F, [c * inv_lead for c in a])
    a, b = f, g
    while not b.is_zero():
        a, b = b, a % b
    if a.is_zero():
        return a
    return a.monic()


def is_squarefree(f: Polynomial) -> bool:
    """True iff gcd(f, f') is constant; rejects the zero polynomial."""
    if f.is_zero():
        raise ValueError("squarefreeness undefined for the zero polynomial")
    d = f.derivative()
    if d.is_zero():
        # f is a p-th power (degree > 0), hence not squarefree
        return f.degree == 0
    return poly_gcd(f, d).degree == 0


# roots_in_field's tables take 12 bytes per element, about 200 MB at 2^24
ROOT_ENUMERATION_LIMIT = 2**24


def roots_in_field(f: Polynomial, K: FieldDescriptor) -> set:
    """Exact root set of f in K: the x = 0 or g^i where the discrete-log
    tables of K (`ff._LogTables`) find f(x) = 0.

    K must equal the coefficient field or be an extension of a prime
    coefficient field.  Guarded by an enumeration bound on |K|.
    """
    if K.order > ROOT_ENUMERATION_LIMIT:
        raise ValueError(f"field of order {K.order} exceeds enumeration limit")
    if f.field != K and (f.field.k != 1 or f.field.p != K.p):
        raise FieldMismatchError("K is not an extension of the coefficient field")
    if f.is_zero():
        raise ValueError("every point is a root of the zero polynomial")
    logs = _LogTables(K, f.coeffs)
    return {K.zero() if n == 0 else logs.element(n - 1) for n, L in enumerate(logs) if L < 0}
