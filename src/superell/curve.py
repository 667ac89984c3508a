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
for y^m = x^p - x over F_p with m | p+1 and m > 2, and ``general``
otherwise.  An automorphism is one pair (A, mu) (`CurveAutomorphism`),
which one polynomial identity admits (`check_automorphism`).
"""

from __future__ import annotations

import itertools
import math
from array import array
from dataclasses import dataclass
from typing import Optional

from .ff import (FieldDescriptor, FieldElement, _binary_power, _LogTables, _polyadd, _polymul, _power, _scale, _trim,
                 check_budget, lift_to, log_table_estimate, make_field)
from .poly import Polynomial, is_squarefree

HYPERELLIPTIC = "hyperelliptic"
ASQ = "artin-schreier-quotient"
GENERAL = "general"

INFINITY = ("inf", 0)


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
        """The weight e = ceil(deg f / m) by which an automorphism
        (`CurveAutomorphism`) scales y: m' = (p + 1) / m on the family."""
        return -(-self.f.degree // self.m)

    def __eq__(self, other):
        return isinstance(other, SuperellipticCurve) and self.m == other.m and self.f == other.f

    def __hash__(self):
        return hash((self.m, self.f))

    def __repr__(self):
        return f"y^{self.m} = {self.f!r} over {self.field!r} [{self.kind}]"


def _artin_schreier_poly(field: FieldDescriptor) -> Polynomial:
    p = field.p
    return Polynomial._of(field, [0, p - 1] + [0] * (p - 2) + [1])


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
    """K = F_{p^e} and the discrete-log tables that evaluate f on all of K,
    refused by their estimate before K is built."""
    check_budget(*log_table_estimate(X.p, e))
    K = _extension_for(X, e)
    return K, _LogTables(K, X.f)


def count_points(X: SuperellipticCurve, e: int) -> PointCount:
    """Exact rational-point count of the smooth model over F_{p^e}.

    Affine fibers are counted through the m-th power character: a nonzero
    value f(x) contributes nf = gcd(m, q-1) points when it is an m-th power
    in F_q^x, that is a g^(nf t), and none otherwise; f(x) = 0 contributes
    one point.  A table chi of the character reads the narrow indices z of
    the values from `ff._LogTables`: 9 bytes per element of F_q in all (13
    in wide words).  The Weil interval is asserted on every count.
    """
    K, tables = _value_logs(X, e)
    q = K.order
    nf = math.gcd(X.m, q - 1)
    chi = array("B" if nf < 256 else "I", [0]) * q
    any(map(chi.__setitem__, memoryview(tables.narrows)[::nf], itertools.repeat(nf)))  # a scatter at C speed
    chi[0] = 1
    total = sum(map(chi.__getitem__, tables.values()))
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
    """One map (A, mu) over one field, A = (a, b; c, d) and mu a unit, acting
    on a curve y^m = f(x) of weight e (`SuperellipticCurve.m_prime`) by
    (x, y) -> ((a x + b) / (c x + d), mu y / (c x + d)^e).  It is an
    automorphism exactly when `check_automorphism` holds, which also
    rejects a singular A, since f is squarefree of degree >= 1.  The
    vertical map is (I, zeta); a Moebius lift on y^m = x^p - x is (A, 1).
    """

    __slots__ = ("abcd", "mu")

    def __init__(self, abcd, mu: FieldElement):
        if any(t.field != mu.field for t in abcd) or mu.is_zero():
            raise InvalidCurveError("A's entries and mu must share one field, and mu must be a unit")
        self.abcd = tuple(abcd)
        self.mu = mu

    @classmethod
    def root_of_unity(cls, zeta: FieldElement, m: int) -> "CurveAutomorphism":
        if zeta**m != zeta.field.one():
            raise InvalidCurveError("zeta^m != 1 in its field of definition")
        return cls((zeta.field.one(), zeta.field.zero(), zeta.field.zero(), zeta.field.one()), zeta)

    @classmethod
    def mobius(cls, a, b, c, d) -> "CurveAutomorphism":
        sigma = cls((a, b, c, d), a.field.one())
        if a.field.k != 1:
            raise InvalidCurveError("Moebius entries must lie in the prime field")
        if a * d - b * c != a.field.one():
            raise InvalidCurveError("Moebius matrix must have determinant 1")
        return sigma

    @classmethod
    def mobius_ints(cls, field: FieldDescriptor, a, b, c, d) -> "CurveAutomorphism":
        return cls.mobius(field.element(a), field.element(b), field.element(c), field.element(d))

    def compose(self, then: "CurveAutomorphism") -> "CurveAutomorphism":
        """The map 'apply self first, then `then`': then's matrix times self's,
        with the multipliers multiplied, over the larger of the two fields."""
        K = self.mu.field if self.mu.field.k > 1 else then.mu.field
        a1, b1, c1, d1, mu1 = (lift_to(t, K) for t in (*self.abcd, self.mu))
        a2, b2, c2, d2, mu2 = (lift_to(t, K) for t in (*then.abcd, then.mu))
        return CurveAutomorphism((a2 * a1 + b2 * c1, a2 * b1 + b2 * d1, c2 * a1 + d2 * c1, c2 * b1 + d2 * d1),
                                 mu1 * mu2)

    def __repr__(self):
        return f"CurveAutomorphism({self.abcd!r}, {self.mu!r})"


def check_automorphism(sigma: CurveAutomorphism, f: Polynomial, m: int, e: int) -> None:
    """Raise InvalidCurveError unless sigma is an automorphism of y^m = f(x)
    of weight e: f(A x) (c x + d)^(m e), the sum over the terms f_n x^n of f
    of f_n (a x + b)^n (c x + d)^(m e - n), is mu^m f(x) as a polynomial over
    the larger of the two fields; the other must be F_p.  On residues, a
    power of b + a x is the product of (b^(p^i) + a^(p^i) x^(p^i))^(n_i)
    over the base-p digits n_i of its exponent, the p^i-th powers of a, b,
    c and d taken once across the terms."""
    L, F = sigma.mu.field, f.field
    if L.p != F.p or (L.k > 1 and F.k > 1 and L != F):
        raise InvalidCurveError(f"no common field for the map over {L!r} and the curve over {F!r}")
    K = F if F.k > 1 else L
    p, k, one = K.p, K.k, [1] + [0] * (K.k - 1)
    a, b, c, d, mu = (list(lift_to(t, K).coeffs) for t in (*sigma.abcd, sigma.mu))
    twists = [[_trim(b + a, k), _trim(d + c, k)]]  # the forms with their coefficients to the p^i, by i

    def times(g, h):  # a constant factor only scales the other
        g, h = (g, h) if len(g) >= len(h) else (h, g)
        return _polymul(g, h, K) if len(h) > k else _scale(g, h, K) if h else []

    def power(j, n, i=0):  # form j to the n: (b_i + a_i x^(p^i))^(n % p) times the higher digits' powers
        if i == len(twists):  # an element of F_p is its own p-th power
            twists.append([[r for t in (g[:k], g[k:]) for r in (_power(K, t, p) if any(t[1:]) else t)]
                           for g in twists[-1]])
        y = _binary_power(_trim(twists[i][j][:k] + [0] * (p**i - 1) * k + twists[i][j][k:], k), n % p, times, one)
        rest = one if n < p else power(j, n // p, i + 1)
        return rest if y is one else y if rest is one else times(y, rest)

    coeffs = list(f.residues) if F is K else [r for t in f.residues for r in [t] + one[1:]]
    if len(coeffs) > (m * e + 1) * k:
        raise ValueError("negative polynomial power")
    left = []
    for n in range(len(coeffs) // k):
        if any(coeffs[n * k:n * k + k]):
            left = _polyadd(left, _scale(times(power(0, n), power(1, m * e - n)), coeffs[n * k:n * k + k], K), K)
    if left != _trim(_scale(coeffs, [pow(mu[0], m, p)] if k == 1 else _power(K, mu, m), K), k):
        raise InvalidCurveError("not an automorphism of the curve: f(A x) (c x + d)^(m e) != mu^m f(x)")


def apply_automorphism(X: SuperellipticCurve, sigma: CurveAutomorphism, point):
    """Image of a rational point under sigma, which must pass
    `check_automorphism` on X.  A pole (x = -d/c, or infinity) needs one
    point at infinity, gcd(m, deg f) = 1; infinity then goes to the one
    point over x = a/c, a root of f, since the map keeps fibre sizes."""
    check_automorphism(sigma, X.f, X.m, X.m_prime)
    return _image(X, sigma, point)


def _image(X: SuperellipticCurve, sigma: CurveAutomorphism, point):
    if not is_infinite(point):
        x, y = point
        a, b, c, d, mu = (lift_to(t, x.field) for t in (*sigma.abcd, sigma.mu))
        den = c * x + d
        if not den.is_zero():
            inv = den.inverse()
            return ((a * x + b) * inv, mu * y * inv**X.m_prime)
    # a pole: the point at infinity, or the point over x = -d/c, which goes there
    if math.gcd(X.m, X.f.degree) > 1:
        raise UnsupportedModelError("the action on several points at infinity is ambiguous")
    a, _, c, _ = sigma.abcd
    if not is_infinite(point) or c.is_zero():
        return INFINITY
    return (a / c, c.field.zero())


def orbit_partition(X: SuperellipticCurve, gens, e: int):
    """Orbits of the group generated by `gens` on the F_{p^e} points.

    Points are visited in a fixed lexicographic order of coordinate
    vectors (infinity last), so the partition output is deterministic.
    Applying only the generators suffices: orbits of a finite group are
    closed under the generating monoid.
    """
    for g in gens:
        check_automorphism(g, X.f, X.m, X.m_prime)
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
                img = _normalize_point(_image(X, g, current), K)
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
