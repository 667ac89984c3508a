"""Superelliptic curve models y^m = f(x): genus, point counts, automorphisms.

One model covers every curve: y^m = f(x) over F_q with m >= 2,
gcd(m, p) = 1 and f squarefree of degree d >= 1.  Its smooth projective
model has genus

    g = ((m - 1)(d - 1) + 1 - gcd(m, d)) / 2

and, with delta = gcd(m, d), its points above x = infinity correspond to
the roots u of u^delta = lc(f), so #{u in K : u^delta = lc(f)} of them
are K-rational.

Point counts and point sets read every value f(x) from the discrete-log
tables of F_{p^e} (`ff._LogTables`), on int residues: a nonzero value is
an m-th power exactly when gcd(m, q-1) divides its logarithm, and the
logarithm of y^m = f(x) gives y.

``kind`` is a derived label, not a parameter: ``hyperelliptic`` when
m = 2 (the Frobenius-matrix machinery applies), ``artin-schreier-quotient``
for y^m = x^p - x over F_p with m | p+1 and m > 2 (the family whose
automorphisms are generated by a vertical root-of-unity map and lifts of
SL(2, F_p) acting on the x-line), and ``general`` otherwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from .ff import FieldDescriptor, FieldElement, _LogTables, _power, lift_to, make_field
from .poly import Polynomial, is_squarefree

HYPERELLIPTIC = "hyperelliptic"
ASQ = "artin-schreier-quotient"
GENERAL = "general"

# the discrete-log tables of a field take 12 bytes per element: 12 MB at
# F_(1009^2), about 200 MB at this guard
POINT_ENUMERATION_LIMIT = 2**24

INFINITY = ("inf", 0)
INFINITY_CONJ = ("inf", 1)


class UnsupportedModelError(ValueError):
    """The requested operation is not defined for this model."""


class InvalidCurveError(ValueError):
    """Curve data violating the model invariants (e.g. gcd(m, p) != 1)."""


def is_infinite(point) -> bool:
    return isinstance(point, tuple) and len(point) == 2 and point[0] == "inf"


def point_sort_key(point):
    if is_infinite(point):
        return (1, point[1], (), ())
    x, y = point
    return (0, 0, x.coeffs, y.coeffs)


class SuperellipticCurve:
    """The data (p, m, f) of y^m = f(x), validated at construction."""

    __slots__ = ("m", "f", "field", "p")

    def __init__(self, m: int, f: Polynomial):
        field = f.field
        p = field.p
        if m < 2:
            raise InvalidCurveError(f"exponent m must be >= 2, got {m}")
        if math.gcd(m, p) != 1:
            raise InvalidCurveError(
                f"gcd(m, p) = gcd({m}, {p}) != 1: the model y^m = f(x) "
                "is inseparable over characteristic p"
            )
        if f.degree < 1:
            raise InvalidCurveError("right-hand side f must have degree >= 1")
        if not is_squarefree(f):
            raise InvalidCurveError("right-hand side f must be squarefree")
        self.m = m
        self.f = f
        self.field = field
        self.p = p

    @property
    def kind(self) -> str:
        """Derived label: hyperelliptic, artin-schreier-quotient or general."""
        if self.m == 2:
            return HYPERELLIPTIC
        if self.in_quotient_family():
            return ASQ
        return GENERAL

    def in_quotient_family(self) -> bool:
        """True when the model is y^m = x^p - x over F_p with m | p+1.

        The m = 2 member is labelled hyperelliptic but still belongs to
        the family, so the family automorphisms act on it.
        """
        return (
            self.f.degree == self.p
            and self.field.k == 1
            and (self.p + 1) % self.m == 0
            and self.f == _artin_schreier_poly(self.field)
        )

    @property
    def m_prime(self) -> int:
        if not self.in_quotient_family():
            raise UnsupportedModelError("m' is defined for the y^m = x^p - x family")
        return (self.p + 1) // self.m

    def __eq__(self, other):
        return isinstance(other, SuperellipticCurve) and self.m == other.m and self.f == other.f

    def __hash__(self):
        return hash((self.m, self.f))

    def __repr__(self):
        return f"y^{self.m} = {self.f!r} over {self.field!r} [{self.kind}]"


def _artin_schreier_poly(field: FieldDescriptor) -> Polynomial:
    p = field.p
    return Polynomial(field, [0, -1] + [0] * (p - 2) + [1])


def genus(X: SuperellipticCurve) -> int:
    """Genus of the smooth projective model: ((m-1)(d-1) + 1 - gcd(m, d)) / 2."""
    d = X.f.degree
    return ((X.m - 1) * (d - 1) + 1 - math.gcd(X.m, d)) // 2


@dataclass(frozen=True)
class PointCount:
    e: int                      # count taken over F_{p^e}
    count: int
    status: Optional[str]       # maximal / minimal / neither; None for odd e
    n: Optional[int]            # e // 2 when e is even


def _extension_for(X: SuperellipticCurve, e: int) -> FieldDescriptor:
    if X.field.k == 1:
        return make_field(X.p, e)
    if X.field.k == e:
        return X.field
    raise UnsupportedModelError(
        "point enumeration needs the curve field to be F_p or equal to the target"
    )


def count_infinite_points(X: SuperellipticCurve, K: FieldDescriptor) -> int:
    """Rational points at infinity of the smooth model over K.

    They number #{u in K : u^delta = lc(f)} with delta = gcd(m, deg f):
    by the same power-character test as the affine fibers, gcd(delta,
    q-1) roots when lc(f) is a delta-th power in F_q^x and none otherwise.
    The test lc^((q-1)/n) = 1 runs on residues in lc's own field F, whose
    multiplicative order q_F - 1 reduces the exponent.
    """
    F, q = X.field, K.order
    n = math.gcd(X.m, X.f.degree, q - 1)
    return n if _power(F, X.f.residues[-F.k:], (q - 1) // n % (F.order - 1)) == F.one().coeffs else 0


def _value_logs(X: SuperellipticCurve, e: int):
    """K = F_{p^e} and the discrete-log tables that evaluate f on all of K."""
    # p >= 2, so e >= the limit's bit length is refused before p^e is formed
    if e >= POINT_ENUMERATION_LIMIT.bit_length() or X.p**e > POINT_ENUMERATION_LIMIT:
        raise ValueError(f"field of order {X.p}^{e} exceeds enumeration limit")
    K = _extension_for(X, e)
    return K, _LogTables(K, X.f)


def count_points(X: SuperellipticCurve, e: int) -> PointCount:
    """Exact rational-point count of the smooth model over F_{p^e}.

    Affine fibers are counted through the m-th power character: a nonzero
    value f(x) contributes nf = gcd(m, q-1) points when it is an m-th power
    in F_q^x, that is when nf divides its discrete logarithm, and none
    otherwise; f(x) = 0 contributes one point.  The values and their logs
    come from `ff._LogTables`, on int residues, whose tables take 12
    bytes per element of F_q.  The Weil interval is asserted on every count.
    """
    K, logs = _value_logs(X, e)
    q = K.order
    nf = math.gcd(X.m, q - 1)
    total = sum(1 if L < 0 else nf for L in logs if L < 0 or L % nf == 0)
    total += count_infinite_points(X, K)
    g = genus(X)
    if (total - q - 1) ** 2 > 4 * g * g * q:
        raise AssertionError("computed count violates the Weil interval")
    status = None
    n = None
    if e % 2 == 0:
        n = e // 2
        q0 = X.p**n
        if total == q0 * q0 + 2 * g * q0 + 1:
            status = "maximal"
        elif total == q0 * q0 - 2 * g * q0 + 1:
            status = "minimal"
        else:
            status = "neither"
    return PointCount(e=e, count=total, status=status, n=n)


def enumerate_points(X: SuperellipticCurve, e: int):
    """All rational points over F_{p^e}, sorted deterministically.

    Above x = g^i with f(x) = g^L the points are (x, g^j) for the
    nf = gcd(m, q-1) solutions j of m j = L (mod q-1), which exist when
    nf divides L.  The points at infinity are labelled ("inf", i) for i
    < their number.
    """
    K, logs = _value_logs(X, e)
    Q = K.order - 1
    nf = math.gcd(X.m, Q)
    step = Q // nf
    root = pow(X.m // nf, -1, step)
    points = []
    for n, L in enumerate(logs):
        x = K.zero() if n == 0 else logs.element(n - 1)
        if L < 0:
            points.append((x, K.zero()))
        elif L % nf == 0:
            j = L // nf * root % step
            points.extend((x, logs.element(j + t * step)) for t in range(nf))
    points.extend(("inf", i) for i in range(count_infinite_points(X, K)))
    points.sort(key=point_sort_key)
    return points


# ---------------------------------------------------------------------------
# Automorphisms


class CurveAutomorphism:
    """Either a vertical root-of-unity map or a Moebius lift.

    * ``zeta`` kind: (x, y) -> (x, zeta * y) with zeta^m = 1;
    * ``mobius`` kind: (a, b, c, d) in SL(2, F_p) acting by
      (x, y) -> ((a x + b) / (c x + d), y / (c x + d)^m')
      on the y^m = x^p - x family, where m' = (p + 1) / m.
    """

    __slots__ = ("kind", "zeta", "order_m", "abcd")

    def __init__(self, kind, zeta=None, order_m=None, abcd=None):
        self.kind = kind
        self.zeta = zeta
        self.order_m = order_m
        self.abcd = abcd

    @classmethod
    def root_of_unity(cls, zeta: FieldElement, m: int) -> "CurveAutomorphism":
        if zeta**m != zeta.field.one():
            raise InvalidCurveError("zeta^m != 1 in its field of definition")
        return cls("zeta", zeta=zeta, order_m=m)

    @classmethod
    def mobius(cls, a, b, c, d) -> "CurveAutomorphism":
        field = a.field
        for entry in (b, c, d):
            if entry.field != field:
                raise InvalidCurveError("Moebius entries must share one field")
        if field.k != 1:
            raise InvalidCurveError("Moebius entries must lie in the prime field")
        if a * d - b * c != field.one():
            raise InvalidCurveError("Moebius matrix must have determinant 1")
        return cls("mobius", abcd=(a, b, c, d))

    @classmethod
    def mobius_ints(cls, field: FieldDescriptor, a, b, c, d) -> "CurveAutomorphism":
        return cls.mobius(field.element(a), field.element(b), field.element(c), field.element(d))

    def compose(self, then: "CurveAutomorphism") -> "CurveAutomorphism":
        """The map 'apply self first, then `then`' (left-to-right product)."""
        if self.kind == "zeta" and then.kind == "zeta":
            return CurveAutomorphism.root_of_unity(self.zeta * then.zeta, self.order_m)
        if self.kind == "mobius" and then.kind == "mobius":
            a1, b1, c1, d1 = self.abcd
            a2, b2, c2, d2 = then.abcd
            # as 2x2 matrices acting on column vectors: M(then) @ M(self)
            return CurveAutomorphism.mobius(
                a2 * a1 + b2 * c1,
                a2 * b1 + b2 * d1,
                c2 * a1 + d2 * c1,
                c2 * b1 + d2 * d1,
            )
        raise UnsupportedModelError("composition across kinds is not represented")

    def __repr__(self):
        if self.kind == "zeta":
            return f"(x, y) -> (x, {self.zeta!r} * y)"
        a, b, c, d = self.abcd
        return f"mobius({a!r}, {b!r}, {c!r}, {d!r})"


def apply_automorphism(X: SuperellipticCurve, sigma: CurveAutomorphism, point):
    """Image of a rational point under the automorphism.

    Pole handling follows the one-point-at-infinity normalization of the
    y^m = x^p - x family: the Moebius action permutes the branch fiber
    P^1(F_p) = {(a, 0)} u {infinity}.
    """
    if sigma.kind == "zeta":
        if sigma.zeta ** X.m != sigma.zeta.field.one():
            raise InvalidCurveError("zeta is not an m-th root of unity for this curve")
        if is_infinite(point):
            if math.gcd(X.m, X.f.degree) > 1:
                raise UnsupportedModelError(
                    "vertical action on several points at infinity is ambiguous"
                )
            return point
        x, y = point
        z = sigma.zeta if sigma.zeta.field == y.field else lift_to(sigma.zeta, y.field)
        return (x, z * y)
    # Moebius kind: the y^m = x^p - x family only
    if not X.in_quotient_family():
        raise UnsupportedModelError("Moebius maps act on the y^m = x^p - x family")
    mp = X.m_prime
    if is_infinite(point):
        a, b, c, d = sigma.abcd
        if c.is_zero():
            return INFINITY
        # the image lies over x = a/c in F_p, necessarily the branch
        # point (a/c, 0); returned over F_p, lift as needed
        x0 = a * c.inverse()
        return (x0, x0.field.zero())
    x, y = point
    K = x.field
    a, b, c, d = (lift_to(t, K) for t in sigma.abcd)
    den = c * x + d
    if den.is_zero():
        if not y.is_zero():
            raise AssertionError("pole hit outside the branch fiber")
        return INFINITY
    new_x = (a * x + b) * den.inverse()
    new_y = y * (den.inverse() ** mp)
    return (new_x, new_y)


def orbit_partition(X: SuperellipticCurve, gens, e: int):
    """Orbits of the group generated by `gens` on the F_{p^e} points.

    Points are visited in a fixed lexicographic order of coordinate
    vectors (infinity last), so the partition output is deterministic.
    Applying only the generators suffices: orbits of a finite group are
    closed under the generating monoid.
    """
    points = enumerate_points(X, e)
    K = _extension_for(X, e)
    index = {p: i for i, p in enumerate(points)}
    seen = [False] * len(points)
    orbits = []
    for start_i, start in enumerate(points):
        if seen[start_i]:
            continue
        orbit = [start]
        seen[start_i] = True
        frontier = [start]
        while frontier:
            current = frontier.pop()
            for g in gens:
                img = apply_automorphism(X, g, current)
                img = _normalize_point(img, K)
                j = index.get(img)
                if j is None:
                    raise AssertionError("automorphism left the rational point set")
                if not seen[j]:
                    seen[j] = True
                    orbit.append(img)
                    frontier.append(img)
        orbit.sort(key=point_sort_key)
        orbits.append(orbit)
    return orbits


def _normalize_point(point, K: FieldDescriptor):
    if is_infinite(point):
        return point
    x, y = point
    return (lift_to(x, K), lift_to(y, K))
