"""Exact arithmetic in prime fields F_p and extensions F_{p^k}.

Elements are coefficient vectors over F_p reduced against a fixed monic
irreducible modulus polynomial.  The modulus is chosen deterministically
(lexicographically smallest monic irreducible, comparing coefficient
vectors constant-term first) so that every derived constant is
reproducible across runs.
"""

from __future__ import annotations

import itertools
import math


class FieldMismatchError(ValueError):
    """Arithmetic between elements of different field descriptors."""


class NonPrimeModulusError(ValueError):
    """Requested characteristic is not a prime number."""


# ---------------------------------------------------------------------------
# Raw polynomial helpers over F_p (coefficient lists, ascending degree).
# Kept local so this module stays dependency-free; `poly` builds the public
# polynomial type on top of FieldElement and multiplies over F_p with `_polymul`.


def _trim(cs):
    while cs and cs[-1] == 0:
        cs.pop()
    return cs


def _kronecker_bytes(a, b, p):
    """Little-endian bytes of the product of residue lists a, b (entries in
    [0, p)) packed w bytes per coefficient, and w.

    Slot n of the product is sum a_i b_(n-i) <= min(len a, len b) (p-1)^2
    < 2^(8w), so no slot carries into the next and one big-int multiply
    gives every coefficient.  Squaring (a is b) packs once.
    """
    w = ((min(len(a), len(b)) * (p - 1) ** 2).bit_length() + 7) // 8
    A = int.from_bytes(b"".join(c.to_bytes(w, "little") for c in a), "little")
    B = A if a is b else int.from_bytes(b"".join(c.to_bytes(w, "little") for c in b), "little")
    return (A * B).to_bytes((len(a) + len(b) - 1) * w, "little"), w


def _polymul(a, b, p):
    if not a or not b:
        return []
    bs, w = _kronecker_bytes(a, b, p)
    return _trim([int.from_bytes(bs[i:i + w], "little") % p for i in range(0, len(bs), w)])


def _polyrem(a, mod, p):
    return _polydivmod(a, mod, p)[1]


def _polygcd(a, b, p):
    a, b = _trim(list(a)), _trim(list(b))
    while b:
        a, b = b, _polyrem(a, b, p)
    return a


def _binary_power(base, e, mul, one):
    """base^e under the product mul, skipping the last, unused squaring."""
    result = one
    while e:
        if e & 1:
            result = mul(result, base)
        e >>= 1
        if e:
            base = mul(base, base)
    return result


def _polypowmod(base, e, mod, p):
    return _binary_power(_polyrem(base, mod, p), e,
                         lambda a, b: _polyrem(_polymul(a, b, p), mod, p), [1])


def _is_irreducible(coeffs, p):
    """Irreducibility of a monic polynomial over F_p.

    Degree <= 3 reduces to a root search; higher degrees use the full
    x^(p^d) == x criterion together with gcd checks at proper divisors.
    """
    k = len(coeffs) - 1
    if k == 1:
        return True
    if coeffs[0] == 0:
        return False
    if k <= 3:
        return all(_polyeval(coeffs, a, p) != 0 for a in range(p))
    x = [0, 1]
    xq = _polypowmod(x, p**k, coeffs, p)
    if _trim(list(xq)) != x:
        return False
    for r in _prime_divisors(k):
        xq = _polypowmod(x, p ** (k // r), coeffs, p)
        diff = _polysub(xq, x, p)
        if len(_polygcd(coeffs, diff, p)) > 1:
            return False
    return True


def _polysub(a, b, p):
    n = max(len(a), len(b))
    out = [0] * n
    for i in range(n):
        ai = a[i] if i < len(a) else 0
        bi = b[i] if i < len(b) else 0
        out[i] = (ai - bi) % p
    return _trim(out)


def _polyeval(coeffs, a, p):
    acc = 0
    for c in reversed(coeffs):
        acc = (acc * a + c) % p
    return acc


def _prime_divisors(n):
    """Distinct prime divisors of n >= 1 in increasing order, yielded as
    trial division finds them."""
    d = 2
    while d * d <= n:
        if n % d == 0:
            yield d
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        yield n


def is_prime(n: int) -> bool:
    """Primality through the one trial-division loop: n is prime when its
    smallest prime divisor is n itself."""
    return n >= 2 and next(_prime_divisors(n)) == n


def primes_up_to(n: int):
    """The primes <= n, by the sieve of Eratosthenes."""
    if n < 2:
        return []
    sieve = bytearray([1]) * (n + 1)
    sieve[0:2] = b"\x00\x00"
    for d in range(2, math.isqrt(n) + 1):
        if sieve[d]:
            sieve[d * d :: d] = b"\x00" * len(range(d * d, n + 1, d))
    return [i for i in range(2, n + 1) if sieve[i]]


# ---------------------------------------------------------------------------


class FieldDescriptor:
    """A finite field F_{p^k} with a pinned modulus polynomial.

    For k = 1 the modulus is absent.  Descriptors compare by value, so two
    independently constructed descriptors of the same field are equal.
    """

    __slots__ = ("p", "k", "modulus", "_reductions")

    def __init__(self, p: int, k: int, modulus=None):
        if not is_prime(p):
            raise NonPrimeModulusError(f"{p} is not prime")
        if k < 1:
            raise ValueError(f"extension degree must be >= 1, got {k}")
        self.p = p
        self.k = k
        if k == 1:
            if modulus is not None:
                raise ValueError("prime field carries no modulus polynomial")
            self.modulus = None
        else:
            if modulus is None:
                modulus = _smallest_irreducible(p, k)
            modulus = tuple(c % p for c in modulus)
            if len(modulus) != k + 1 or modulus[-1] != 1:
                raise ValueError("modulus must be monic of degree k")
            if not _is_irreducible(list(modulus), p):
                raise ValueError("modulus polynomial is reducible")
            self.modulus = modulus
        # x^(k+s) reduced mod the modulus, for schoolbook product reduction
        self._reductions = None
        if k > 1:
            red = []
            cur = [(-c) % p for c in self.modulus[:-1]]  # x^k
            red.append(tuple(cur))
            for _ in range(k - 2):
                cur = [0] + cur
                top = cur.pop()
                if top:
                    cur = [(ci + top * ri) % p for ci, ri in zip(cur, red[0])]
                red.append(tuple(cur))
            self._reductions = red

    @property
    def order(self) -> int:
        return self.p**self.k

    def element(self, value) -> "FieldElement":
        """Coerce an integer or coefficient sequence into this field."""
        if isinstance(value, FieldElement):
            if value.field != self:
                raise FieldMismatchError("element belongs to a different field")
            return value
        if isinstance(value, int):
            coeffs = [value % self.p] + [0] * (self.k - 1)
        else:
            coeffs = [c % self.p for c in value]
            if len(coeffs) > self.k:
                raise ValueError("coefficient vector longer than degree")
            coeffs += [0] * (self.k - len(coeffs))
        return FieldElement(self, tuple(coeffs))

    def zero(self) -> "FieldElement":
        return self.element(0)

    def one(self) -> "FieldElement":
        return self.element(1)

    def gen(self) -> "FieldElement":
        """The residue of x, a root of the modulus (k >= 2)."""
        if self.k == 1:
            raise ValueError("prime field has no structural generator")
        return self.element([0, 1])

    def elements(self):
        """All field elements in lexicographic coefficient order."""
        for vec in itertools.product(range(self.p), repeat=self.k):
            yield FieldElement(self, vec)

    def __eq__(self, other):
        return (
            isinstance(other, FieldDescriptor)
            and self.p == other.p
            and self.k == other.k
            and self.modulus == other.modulus
        )

    def __hash__(self):
        return hash((self.p, self.k, self.modulus))

    def __repr__(self):
        if self.k == 1:
            return f"F({self.p})"
        return f"F({self.p}^{self.k}; mod={list(self.modulus)})"


def _smallest_irreducible(p: int, k: int):
    """Lexicographically smallest monic irreducible of degree k over F_p.

    Candidate vectors (c_0, ..., c_{k-1}) are scanned in ascending tuple
    order, constant term most significant.
    """
    for low in itertools.product(range(p), repeat=k):
        cand = list(low) + [1]
        if _is_irreducible(cand, p):
            return tuple(cand)
    raise AssertionError("no irreducible polynomial found")  # unreachable


def make_field(p: int, k: int = 1) -> FieldDescriptor:
    """Build F_{p^k} with the deterministic modulus choice."""
    return FieldDescriptor(p, k)


class FieldElement:
    """Immutable element of F_{p^k}, stored as residues in [0, p)."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field: FieldDescriptor, coeffs: tuple):
        self.field = field
        self.coeffs = coeffs

    # -- queries ------------------------------------------------------

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def lift(self) -> int:
        """Integer lift, only for prime-field elements."""
        if self.field.k != 1:
            raise ValueError("lift is defined on prime fields only")
        return self.coeffs[0]

    # -- arithmetic ---------------------------------------------------

    def _check(self, other):
        if not isinstance(other, FieldElement):
            raise TypeError(f"cannot combine FieldElement with {type(other).__name__}")
        if other.field != self.field:
            raise FieldMismatchError("elements live in different fields")

    def __add__(self, other):
        self._check(other)
        p = self.field.p
        return FieldElement(
            self.field, tuple((a + b) % p for a, b in zip(self.coeffs, other.coeffs))
        )

    def __sub__(self, other):
        self._check(other)
        p = self.field.p
        return FieldElement(
            self.field, tuple((a - b) % p for a, b in zip(self.coeffs, other.coeffs))
        )

    def __neg__(self):
        p = self.field.p
        return FieldElement(self.field, tuple((-a) % p for a in self.coeffs))

    def __mul__(self, other):
        self._check(other)
        f = self.field
        p = f.p
        if f.k == 1:
            return FieldElement(f, ((self.coeffs[0] * other.coeffs[0]) % p,))
        a, b = self.coeffs, other.coeffs
        k = f.k
        prod = [0] * (2 * k - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    prod[i + j] += ai * bj
        out = [c % p for c in prod[:k]]
        for s, c in enumerate(prod[k:]):
            if c % p:
                row = f._reductions[s]
                c %= p
                for idx, r in enumerate(row):
                    out[idx] = (out[idx] + c * r) % p
        return FieldElement(f, tuple(out))

    def __pow__(self, e: int):
        if e < 0:
            return self.inverse() ** (-e)
        return _binary_power(self, e, FieldElement.__mul__, self.field.one())

    def inverse(self) -> "FieldElement":
        """Multiplicative inverse by extended Euclid on coefficient polys."""
        if self.is_zero():
            raise ZeroDivisionError("inversion of zero field element")
        f = self.field
        p = f.p
        if f.k == 1:
            return FieldElement(f, (pow(self.coeffs[0], -1, p),))
        # extended Euclid: r0 = modulus, r1 = self
        r0, r1 = list(f.modulus), _trim(list(self.coeffs))
        s0, s1 = [], [1]
        while r1:
            q, r = _polydivmod(r0, r1, p)
            r0, r1 = r1, r
            s0, s1 = s1, _polysub(s0, _polymul(q, s1, p), p)
        # r0 is a nonzero constant gcd
        c_inv = pow(r0[0], -1, p)
        inv = [(c * c_inv) % p for c in s0]
        inv = _polyrem(inv, list(f.modulus), p)
        inv += [0] * (f.k - len(inv))
        return FieldElement(f, tuple(inv))

    def __truediv__(self, other):
        self._check(other)
        return self * other.inverse()

    # -- structure ----------------------------------------------------

    def __eq__(self, other):
        return (
            isinstance(other, FieldElement)
            and self.field == other.field
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.coeffs, self.field.p, self.field.k))

    def __repr__(self):
        if self.field.k == 1:
            return f"{self.coeffs[0]}"
        return f"{list(self.coeffs)}"


def _polydivmod(a, b, p):
    a = list(a)
    q = [0] * max(len(a) - len(b) + 1, 0)
    inv_lead = pow(b[-1], -1, p)
    while len(a) >= len(b) and a:
        if a[-1] == 0:
            a.pop()
            continue
        c = (a[-1] * inv_lead) % p
        shift = len(a) - len(b)
        q[shift] = c
        for i, bi in enumerate(b):
            a[shift + i] = (a[shift + i] - c * bi) % p
        a.pop()
    return _trim(q), _trim(a)


def frobenius(a: FieldElement) -> FieldElement:
    """The p-power Frobenius a -> a^p; identity on the prime field."""
    if a.field.k == 1:
        return a
    return a ** a.field.p


def lift_to(a: FieldElement, K: FieldDescriptor) -> FieldElement:
    """Embed a prime-field element into an extension K of the same p.

    Only the canonical embedding F_p -> F_{p^k} is supported; embeddings
    between proper extensions would require a compatibility convention
    that this toolkit deliberately avoids.
    """
    if a.field == K:
        return a
    if a.field.k != 1 or a.field.p != K.p:
        raise FieldMismatchError(f"no canonical embedding of {a.field} into {K}")
    return K.element(a.coeffs[0])
