"""Exact arithmetic in prime fields F_p and extensions F_{p^k}.

Elements are coefficient vectors over F_p reduced against a fixed monic
irreducible modulus polynomial.  The modulus is chosen deterministically
(lexicographically smallest monic irreducible, comparing coefficient
vectors constant-term first) so that every derived constant is
reproducible across runs.

One representation: below the public types an element of F_q, q = p^k,
is its k residues in [0, p), and a polynomial or vector over F_q is the
flat list of its entries' residues, k per entry.  `_residues` and
`_elements` are the one boundary to and from `FieldElement`; an int
crosses it without becoming one.  The int-list core that `poly`, `linalg`
and `canrep` share is one residue packer (`_pack`/`_unpack`, at
C speed for every width up to 8 bytes), one polynomial product for every
F_q, Euclid on flat residue lists (`_polydivmod`, `_polygcd`), and
products, powers, inverses and norms of single elements, the last two
from one elimination (`_eliminate`) on the k x k matrix of y -> c y.

The product `_polymul` is Kronecker substitution in the two-level form of
Harvey (2009).  Coefficient i's k residues take slots i (2k - 1) + u,
u < k, and k - 1 zero slots follow, so one big-int multiply leaves in
slot c (2k - 1) + t the x^t term, t < 2k - 1, of the unreduced sum of
a_i b_j over i + j = c.  That slot adds at most min(n_a, n_b) k products
of residues, for factors of n_a and n_b coefficients, so slots of the
least w bytes with 2^(8w) > min(n_a, n_b) k (p-1)^2 never carry.  `_fold`
reduces the k - 1 high slots of each coefficient through `_reductions` and
takes every residue mod p; for k = 1 it is the reduction mod p alone.

A primitive element of F_q is found through its norm, which rejects most
candidates with one k x k determinant, in closed form for k = 2; there a
survivor's remaining tests power g^(p-1), whose order divides p + 1.
"""

from __future__ import annotations

import itertools
import math
import operator
import sys
from array import array


class FieldMismatchError(ValueError):
    """Arithmetic between elements of different field descriptors."""


class NonPrimeModulusError(ValueError):
    """Requested characteristic is not a prime number."""


class WorkBudgetError(ValueError):
    """A work estimate over its budget, refused before any of the work."""


def check_budget(what, estimate, unit, budget):
    """Raise WorkBudgetError when the work estimate exceeds the budget.  Either may be
    a pair (b, e), b >= 2, shown as b^e; bit lengths refuse a huge b^e before forming it."""
    (b, e), (B, E) = (x if isinstance(x, tuple) else (x, 1) for x in (estimate, budget))
    if e * (b.bit_length() - 1) >= E * B.bit_length() or b**e > B**E:
        shown = ["%d^%d" % x if isinstance(x, tuple) else x for x in (estimate, budget)]
        raise WorkBudgetError(f"{what} work estimate {shown[0]} ({unit}) exceeds the budget {shown[1]}")


# ---------------------------------------------------------------------------
# Polynomials over F_q as flat residue lists (ascending degree, k residues
# per coefficient, K the field).  `poly` builds the public polynomial type
# on these helpers; `linalg`, `cartier` and `canrep` call them directly.


def _trim(cs, k=1):
    """cs without its trailing zero coefficients of k residues each; the
    trailing zero residues are counted at C speed."""
    zeros = len(list(itertools.takewhile(operator.not_, reversed(cs))))
    del cs[len(cs) - zeros // k * k:]
    return cs


# The residue packer: values below 2^(8 w) in w-byte little-endian slots of
# one int.  Widths 1, 2, 4 and 8 go through `array`; widths 3, 5, 6 and 7
# through the next `array` width, whose w low byte planes are copied with
# strided slice assignments; wider slots through one to_bytes per value.
_ARRAY_CODES = {array(c).itemsize: c for c in "BHIQ"}
_ARRAY_WIDTHS = {w: min(c for c in _ARRAY_CODES if c >= w) for w in range(1, 9)}


def _pack(values, w):
    """One int holding the values, each below 2^(8 w), in w-byte slots."""
    return int.from_bytes(_packed_bytes(values, w), "little")


def _packed_bytes(values, w):
    """A buffer of the little-endian bytes of the values, each below
    2^(8 w), in w-byte slots: the bytes of `_pack`'s int."""
    c = _ARRAY_WIDTHS.get(w)
    if c is None:
        return b"".join(v.to_bytes(w, "little") for v in values)
    a = array(_ARRAY_CODES[c], values)
    if sys.byteorder == "big":
        a.byteswap()
    if c == w:
        return a
    data, out = a.tobytes(), bytearray(len(a) * w)
    for u in range(w):
        out[u::w] = data[u::c]
    return out


def _slots(data, w):
    """The values of the w-byte little-endian slots of data."""
    c = _ARRAY_WIDTHS.get(w)
    if c is None:
        return [int.from_bytes(data[i:i + w], "little") for i in range(0, len(data), w)]
    if c != w:
        wide = bytearray(len(data) // w * c)
        for u in range(w):
            wide[u::c] = data[u::w]
        data = wide
    a = array(_ARRAY_CODES[c], data)
    if sys.byteorder == "big":
        a.byteswap()
    return a.tolist()


def _unpack(x, count, w):
    """The count w-byte slot values of the packed int x >= 0."""
    return _slots(x.to_bytes(count * w, "little"), w)


def _spread(a, k):
    """The flat residues a with k - 1 zero slots after each coefficient."""
    if k == 1:
        return a
    out = [0] * (len(a) // k * (2 * k - 1))
    for u in range(k):
        out[u::2 * k - 1] = a[u::k]
    return out


def _kronecker_bytes(a, b, K):
    """Little-endian bytes of the unreduced product of the flat residue
    lists a, b over K, 2k - 1 slots of w bytes per coefficient, and w: the
    least width that cannot carry (see the module docstring), not rounded
    up, since the multiply's cost grows with the operands' length.
    Squaring (a is b) packs once."""
    k = K.k
    w = ((min(len(a), len(b)) * (K.p - 1) ** 2).bit_length() + 7) // 8
    A = _pack(_spread(a, k), w)
    B = A if a is b else _pack(_spread(b, k), w)
    return (A * B).to_bytes((len(a) + len(b) - k) // k * (2 * k - 1) * w, "little"), w


def _fold(slots, K):
    """The flat residues of the coefficients given as 2k - 1 unreduced
    slots each: slot k + s adds its value times x^(k+s) mod the modulus,
    `_reductions[s]`, and every residue is taken mod p."""
    p, k = K.p, K.k
    if k == 1:
        return [c % p for c in slots]
    step = 2 * k - 1
    out = [0] * (len(slots) // step * k)
    for u in range(k):
        acc = slots[u::step]
        for s, red in enumerate(K._reductions):
            if red[u]:
                acc = [a + red[u] * h for a, h in zip(acc, slots[k + s::step])]
        out[u::k] = [c % p for c in acc]
    return out


def _polymul(a, b, K):
    if not a or not b:
        return []
    return _trim(_fold(_slots(*_kronecker_bytes(a, b, K)), K), K.k)


def _polyadd(a, b, K):
    return _trim([(x + y) % K.p for x, y in itertools.zip_longest(a, b, fillvalue=0)], K.k)


def _polysub(a, b, K):
    return _trim([(x - y) % K.p for x, y in itertools.zip_longest(a, b, fillvalue=0)], K.k)


def _polydivmod(a, b, K):
    """Quotient and remainder of a by b != 0, trimmed flat residue lists.

    Each step clears the top coefficient t of the remainder: the quotient
    gains c = t / lead(b) and the remainder loses c b.  Over F_p these are
    int products mod p, as in schoolbook division, with no set-up beyond
    one `pow`; for k >= 2 they go through k x k multiplication matrices
    (`_times`, `_scale`).  Trimming the remainder after a step skips a run
    of zero coefficients at once.
    """
    p, k = K.p, K.k
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    a, n = list(a), len(b)
    q = [0] * max(len(a) - n + k, 0)
    if k == 1:
        inv = pow(b[-1], -1, p)
        while len(a) >= n:
            s = len(a) - n
            c = q[s] = a.pop() * inv % p
            a[s:] = [(x - c * y) % p for x, y in zip(a[s:], b)]
            if a and not a[-1]:
                _trim(a, 1)
        return q, a
    inv = _mul_matrix(K, _inverse(K, b[-k:]))
    while len(a) >= n:
        s = len(a) - n
        c = _times(inv, a[-k:], p)
        q[s:s + k] = c
        a[s:-k] = [(x - y) % p for x, y in zip(a[s:-k], _scale(b, c, K))]
        del a[-k:]
        if a and not any(a[-k:]):
            _trim(a, k)
    return q, a


def _polyrem(a, mod, K):
    return _polydivmod(a, mod, K)[1]


def _polygcd(a, b, K):
    """A gcd of flat residue lists, not made monic."""
    a, b = _trim(list(a), K.k), _trim(list(b), K.k)
    while b:
        a, b = b, _polyrem(a, b, K)
    return a


def _binary_power(base, e, mul, one):
    """base^e under the product mul, with no product by one and no last,
    unused squaring: base^1 is base itself."""
    result = None
    while e:
        if e & 1:
            result = base if result is None else mul(result, base)
        e >>= 1
        if e:
            base = mul(base, base)
    return one if result is None else result


def _polypowmod(base, e, mod, K):
    return _binary_power(_polyrem(base, mod, K), e,
                         lambda a, b: _polyrem(_polymul(a, b, K), mod, K), [1])


def _is_irreducible(coeffs, F):
    """Irreducibility of a monic polynomial over the prime field F.

    Degree <= 3 reduces to a root search; higher degrees use the full
    x^(p^d) == x criterion together with gcd checks at proper divisors.
    """
    p, k = F.p, len(coeffs) - 1
    if k == 1:
        return True
    if coeffs[0] == 0:
        return False
    if k <= 3:
        return all(_polyeval(coeffs, a, p) != 0 for a in range(p))
    x = [0, 1]
    if _polypowmod(x, p**k, coeffs, F) != x:
        return False
    for r in _prime_divisors(k):
        diff = _polysub(_polypowmod(x, p ** (k // r), coeffs, F), x, F)
        if len(_polygcd(coeffs, diff, F)) > 1:
            return False
    return True


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


# Miller-Rabin with the prime bases 2..37 decides every n below this bound
# exactly (Sorenson-Webster 2017); above it a witness still proves n composite.
_MILLER_RABIN_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_MILLER_RABIN_BOUND = 3317044064679887385961981


def is_prime(n: int) -> bool:
    """Deterministic primality by Miller-Rabin with the bases 2..37.

    Exact for n < 3.3 * 10^24.  Above that bound a composite with a
    witness among the bases is still rejected; any other n raises
    ValueError, since no certificate settles it.
    """
    if n < 2:
        return False
    for a in _MILLER_RABIN_BASES:
        if n % a == 0:
            return n == a
    if n < 37 * 37:  # no prime factor up to 37
        return True
    d, r = n - 1, 0
    while d % 2 == 0:
        d, r = d // 2, r + 1
    for a in _MILLER_RABIN_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    if n >= _MILLER_RABIN_BOUND:
        raise ValueError(f"cannot certify that {n} >= 3.3e24 is prime")
    return True


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

    __slots__ = ("p", "k", "modulus", "_reductions", "_prime")

    def __init__(self, p: int, k: int, modulus=None):
        if not is_prime(p):
            raise NonPrimeModulusError(f"{p} is not prime")
        if k < 1:
            raise ValueError(f"extension degree must be >= 1, got {k}")
        self.p = p
        self.k = k
        # the prime field of an extension, on which the modulus arithmetic
        # runs; None for F_p itself, which a self-reference would make a cycle
        self._prime = None if k == 1 else FieldDescriptor(p, 1)
        if k == 1:
            if modulus is not None:
                raise ValueError("prime field carries no modulus polynomial")
            self.modulus = None
        elif modulus is None:
            self.modulus = _smallest_irreducible(self._prime, k)
        else:
            modulus = tuple([c % p for c in modulus])
            if len(modulus) != k + 1 or modulus[-1] != 1:
                raise ValueError("modulus must be monic of degree k")
            if not _is_irreducible(list(modulus), self._prime):
                raise ValueError("modulus polynomial is reducible")
            self.modulus = modulus
        # x^(k+s) reduced mod the modulus, s < k - 1, for product reduction
        self._reductions = None
        if k > 1:
            rems = (_polyrem([0] * (k + s) + [1], self.modulus, self._prime) for s in range(k - 1))
            self._reductions = [tuple(r + [0] * (k - len(r))) for r in rems]

    @property
    def order(self) -> int:
        return self.p**self.k

    def element(self, value) -> "FieldElement":
        """Coerce an integer or coefficient sequence into this field."""
        if isinstance(value, FieldElement) and value.field == self:
            return value
        return FieldElement(self, tuple(_residues(self, (value,))))

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


def _smallest_irreducible(F: FieldDescriptor, k: int):
    """Lexicographically smallest monic irreducible of degree k >= 2 over
    the prime field F.

    Candidate vectors (c_0, ..., c_{k-1}) are scanned in ascending tuple
    order, constant term most significant.  The scan starts at c_0 = 1:
    every candidate with c_0 = 0 is divisible by x.
    """
    for low in itertools.product(range(1, F.p), *[range(F.p)] * (k - 1)):
        cand = list(low) + [1]
        if _is_irreducible(cand, F):
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
            self.field, tuple([(a + b) % p for a, b in zip(self.coeffs, other.coeffs)])
        )

    def __sub__(self, other):
        self._check(other)
        p = self.field.p
        return FieldElement(
            self.field, tuple([(a - b) % p for a, b in zip(self.coeffs, other.coeffs)])
        )

    def __neg__(self):
        p = self.field.p
        return FieldElement(self.field, tuple([(-a) % p for a in self.coeffs]))

    def __mul__(self, other):
        self._check(other)
        f = self.field
        return FieldElement(f, tuple(_times(_mul_matrix(f, self.coeffs), other.coeffs, f.p)))

    def __pow__(self, e: int):
        c = self.coeffs if e >= 0 else _inverse(self.field, self.coeffs)
        return FieldElement(self.field, _power(self.field, c, abs(e)))

    def inverse(self) -> "FieldElement":
        """Multiplicative inverse; ZeroDivisionError for zero."""
        return FieldElement(self.field, _inverse(self.field, self.coeffs))

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


def frobenius(a: FieldElement) -> FieldElement:
    """The p-power Frobenius a -> a^p; identity on the prime field."""
    return FieldElement(a.field, _power(a.field, a.coeffs, a.field.p))


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


# ---------------------------------------------------------------------------
# The boundary between FieldElement and flat residues, and products,
# powers, inverses and norms on residues.


def _residues(field, values):
    """The flat residues of a sequence of ints, residue sequences or
    FieldElements of field: the one coercion into the int representation.
    An int becomes its residues without a FieldElement."""
    p, k = field.p, field.k
    pad, out = [0] * (k - 1), []
    for c in values:
        if isinstance(c, int):
            out.append(c % p)
            out += pad
        elif isinstance(c, FieldElement):
            if c.field is not field and c.field != field:
                raise FieldMismatchError("element belongs to a different field")
            out += c.coeffs
        else:
            r = [a % p for a in c]
            if len(r) > k:
                raise ValueError("coefficient vector longer than degree")
            out += r + [0] * (k - len(r))
    return out


def _elements(field, flat):
    """The FieldElement tuple of a flat residue vector."""
    k = field.k
    return tuple([FieldElement(field, tuple(flat[i:i + k])) for i in range(0, len(flat), k)])


def _mul_matrix(K, c):
    """Rows of the F_p-matrix of y -> c y on residue vectors of K: column b
    holds the residues of c x^b, folded through `_reductions`."""
    if K.k == 1:
        return [tuple(c)]
    cols = [list(c)]
    for _ in range(K.k - 1):
        top = cols[-1][-1]
        cols.append([(a + top * r) % K.p for a, r in zip([0] + cols[-1][:-1], K._reductions[0])])
    return list(zip(*cols))


def _times(rows, x, p):
    """The residues of g x, for g given by the rows of its matrix."""
    return [sum(map(operator.mul, row, x)) % p for row in rows]


def _apply(vec, rows, p, k):
    """The k x k F_p-matrix `rows` applied to every entry of a flat residue vector."""
    if k == 1:
        c = rows[0][0]
        return [a * c % p for a in vec]
    planes = [vec[u::k] for u in range(k)]
    out = [0] * len(vec)
    for u, r in enumerate(rows):
        acc = [0] * len(planes[0])
        for c, plane in zip(r, planes):
            if c:
                acc = [s + c * a for s, a in zip(acc, plane)]
        out[u::k] = [s % p for s in acc]
    return out


def _scale(vec, c, K):
    """The flat residues of c times every entry of vec, c given by its residues."""
    return _apply(vec, _mul_matrix(K, c), K.p, K.k)


def _power(K, c, e):
    """The residues of c^e for c given by its residues, e >= 0."""
    one = (1,) + (0,) * (K.k - 1)
    return tuple(_binary_power(c, e, lambda a, b: _times(_mul_matrix(K, a), b, K.p), one))


def _eliminate(K, rows):
    """Forward elimination on the k x k matrix in the first k columns of
    `rows` (lists, reduced in place with any further columns): its
    determinant and its pivots' inverses, or (0, None) when singular."""
    p, det, invs = K.p, 1, []
    for j, row in enumerate(rows):
        i = next((i for i in range(j, K.k) if rows[i][j]), None)
        if i is None:
            return 0, None
        if i != j:
            rows[j], rows[i], det = rows[i], row, -det
        pivot = rows[j]
        det = det * pivot[j] % p
        inv = pow(pivot[j], -1, p)
        invs.append(inv)
        for r in rows[j + 1:]:
            if r[j]:
                f = r[j] * inv
                r[j:] = [(a - f * b) % p for a, b in zip(r[j:], pivot[j:])]
    return det, invs


def _norm(K, c):
    """The norm N(c) = c^((q-1)/(p-1)) in F_p of c given by its residues: the
    determinant of y -> c y, by elimination on its k x k matrix, or for k = 2
    and x^2 = c0 + c1 x, v0^2 + c1 v0 v1 - c0 v1^2 for c = v0 + v1 x."""
    if K.k == 2:
        (c0, c1), (v0, v1) = K._reductions[0], c
        return (v0 * v0 + c1 * v0 * v1 - c0 * v1 * v1) % K.p
    return _eliminate(K, [list(r) for r in _mul_matrix(K, c)])[0]


def _inverse(K, c):
    """The residues of 1/c for c != 0 given by its residues: pow(c, -1, p)
    over F_p; for k >= 2 the solution y of c y = 1, by elimination on the
    matrix of y -> c y beside the residues of 1, then back-substitution."""
    p, k = K.p, K.k
    if not any(c):
        raise ZeroDivisionError("inversion of zero field element")
    if k == 1:
        return (pow(c[0], -1, p),)
    rows = [list(r) + [int(i == 0)] for i, r in enumerate(_mul_matrix(K, c))]
    invs = _eliminate(K, rows)[1]
    y = [0] * k
    for j in reversed(range(k)):
        r = rows[j]
        y[j] = (r[k] - sum(map(operator.mul, r[j + 1:k], y[j + 1:]))) * invs[j] % p
    return tuple(y)


# ---------------------------------------------------------------------------
# Evaluation on discrete logarithms (Huber 1990, "Some comments on Zech's
# logarithms"): every value of a polynomial over F_q from two int tables.


def _primitive_element(K):
    """The first g in `elements()` order with g^((q-1)/r) != 1 for every
    prime r | q-1, that is a generator of K^x.

    For a prime r | p-1, g^((q-1)/r) = N(g)^((p-1)/r): g passes for those r
    exactly when its norm is a primitive root mod p, which one determinant
    and a few powers mod p decide.  Only a candidate that passes is powered
    in K, for the primes r that divide M = (q-1)/(p-1) but not p-1.  At
    k = 2 that power is u^((p+1)/r) for u = g^(p-1) = conj(g)^2 / N(g),
    where conj(v0 + v1 x) = v0 + v1 (c1 - x) for the modulus x^2 = c0 + c1 x:
    one product and a scaling replace (p-1)/r more bits of exponent.
    """
    p, k, Q, one = K.p, K.k, K.order - 1, K.one().coeffs
    low = list(_prime_divisors(p - 1))
    high = [r for r in _prime_divisors(Q // (p - 1)) if (p - 1) % r]
    square = k == 2 and p % 2 and pow(_norm(K, (0, 1)), (p - 1) // 2, p) == 1  # t x has norm t^2 N(x): skip it
    for g in itertools.product(range(1 if square else 0, p), *[range(p)] * (k - 1)):
        n = _norm(K, g)
        if not n or any(pow(n, (p - 1) // r, p) == 1 for r in low):
            continue
        u, order = g, Q
        if k == 2:
            conj, inv = ((g[0] + g[1] * K._reductions[0][1]) % p, -g[1] % p), pow(n, -1, p)
            u, order = [a * inv % p for a in _times(_mul_matrix(K, conj), conj, p)], p + 1
        if all(_power(K, u, order // r) != one for r in high):
            return FieldElement(K, g)


_RUN = 256  # elements per int sum in _LogTables.runs, which bounds its memory

# A count's tables take 9 bytes per element of F_q (13 in 8-byte words): 9 MB
# at F_(1009^2), where a count takes 0.17 s, and 150 to 220 MB at this budget.
# A small p costs more per element: F_(2^16) 0.85 s, F_(2^20) 18 s (2-CPU x86_64, Python 3.11).
LOG_TABLE_BUDGET = 2**24


def log_table_estimate(p: int, k: int):
    """The work estimate of `_LogTables` on F_(p^k), as the arguments of
    `check_budget`: its p^k elements, compared without forming p^k, so a
    caller refuses a huge field before it builds the descriptor."""
    return "discrete-log table", (p, k), "elements of F_q, 9 bytes each (13 wide); enumeration limit", LOG_TABLE_BUDGET


# The largest slot value x that one Barrett step reduces mod p in w-bit slots:
# x m < 2^w and floor(x m / 2^t) = floor(x / p) for m = ceil(2^t / p), 2^t > x p.
_SLOT_LIMIT = {32: 2**15 - 1, 64: 2**31 - 1}


class _LogTables:
    """Tables of K = F_q that evaluate f = sum c_j x^j at every element.

    g is the primitive element `_primitive_element` finds.  ``exp[i]`` is
    g^i with its k residues packed s bits apart in a w-bit word, where s is
    the bit length of G (p-1) for groups of G nonzero terms, G as large as
    k s <= 64 and `_SLOT_LIMIT` allow: a group's sum never carries from one
    residue into the next.  w = 32 where k s and `_SLOT_LIMIT[32]` allow,
    else 64.  ``narrows[i]``, in 4 bytes (exp itself for k = 1), is the
    narrow index z = sum_u r_u p^u of g^i, and a value z != 0 is an m-th
    power exactly when it is a g^i with gcd(m, q-1) | i (Lidl-Niederreiter,
    ch. 5).  Only iterating the tables builds the inverse, log[z] = i.  f
    must be nonzero.

    The walk over g^i fills one block per a < M = (q-1)/(p-1): the norm
    h = g^M = N(g), taken by `_norm`, is a primitive root of F_p, so the
    residues of g^(a + M b) = h^b g^a are those of g^a times h^b, rotations
    of the powers of h, read with w-bit slots from one int; so an F_p
    coefficient h^b has log M b.
    """

    __slots__ = ("field", "s", "exp", "narrows", "groups", "f0")

    def __init__(self, K: "FieldDescriptor", f):
        p, k, Q = K.p, K.k, K.order - 1
        # the narrow index of each coefficient, read from f's residue planes
        res, kf = f.residues, f.field.k
        narrow = res[::kf]
        for u in range(1, kf):
            narrow = [z + r * p**u for z, r in zip(narrow, res[u::kf])]
        terms = [(z, j) for j, z in enumerate(narrow) if z]
        size = min(((1 << 64 // k) - 1) // (p - 1), _SLOT_LIMIT[64] // (p - 1) - 1)
        s = (min(len(terms), size) * (p - 1)).bit_length()
        w = 32 if k * s <= 32 and (1 << s) + p <= _SLOT_LIMIT[32] else 64
        code, M = _ARRAY_CODES[w // 8], Q // (p - 1)
        g = _primitive_element(K)
        rows = _mul_matrix(K, g.coeffs)
        h = _norm(K, g.coeffs)
        hpow, hlog, c = array(code), array("i", [-1]) * p, 1
        for b in range(p - 1):
            hpow.append(c)
            hlog[c] = b
            c = c * h % p
        if k == 1:
            exp = narrows = hpow
        else:
            twice = int.from_bytes(hpow + hpow, sys.byteorder)
            block, width = (1 << w * (p - 1)) - 1, w // 8 * (p - 1)
            exp, narrows = array(code, [0]) * Q, array(_ARRAY_CODES[4], [0]) * Q
            x = [1] + [0] * (k - 1)
            for a in range(M):
                rots = [twice >> w * hlog[r] & block if r else 0 for r in x]
                packed = sum(rot << s * u for u, rot in enumerate(rots))
                exp[a::M] = array(code, packed.to_bytes(width, sys.byteorder))
                z = array(code, sum(rot * p**u for u, rot in enumerate(rots)).to_bytes(width, sys.byteorder))
                narrows[a::M] = z if w == 32 else array(_ARRAY_CODES[4], z)
                x = _times(rows, x, p)
        self.field, self.s, self.exp, self.narrows, self.f0 = K, s, exp, narrows, narrow[0]
        terms = [(M * hlog[z] if kf == 1 else narrows.index(z), j) for z, j in terms]
        self.groups = [terms[a:a + size] for a in range(0, len(terms), size)]

    def element(self, i: int) -> "FieldElement":
        """g^i as a field element."""
        K, s, packed = self.field, self.s, self.exp[i % (self.field.order - 1)]
        return FieldElement(K, tuple([packed >> s * u & ((1 << s) - 1) for u in range(K.k)]))

    def values(self):
        """The narrow index of f(0), then those of f(g^i) for i = 0..q-2."""
        return itertools.chain([self.f0], itertools.chain.from_iterable(self.runs()))

    def __iter__(self):
        """log f(0), then log f(g^i) for i = 0..q-2; -1 where f vanishes."""
        log = array("i", [-1]) * self.field.order
        any(map(log.__setitem__, self.narrows, range(len(self.narrows))))  # a scatter at C speed
        return map(log.__getitem__, self.values())

    def runs(self):
        """The narrow indices of f(g^i), i = 0..q-2, in arrays of _RUN.

        Term j contributes exp[(log c_j + i j) mod (q-1)] at g^i.  Strided
        slices of exp (wrapping past its end) read every term's entries for
        _RUN consecutive i, and one int sum per group of terms, a w-bit slot
        per element, adds them.  Each residue plane is masked out of it and
        reduced mod p by one Barrett step on the whole int; k - 1 whole-int
        multiply-adds combine the planes into the z."""
        K, s, exp = self.field, self.s, self.exp
        p, k, Q, code, w = K.p, K.k, K.order - 1, exp.typecode, 8 * exp.itemsize
        t = (_SLOT_LIMIT[w] * p).bit_length()
        m = -(-(1 << t) // p)
        planes, quotients = (((1 << w * _RUN) - 1) // ((1 << w) - 1) * ((1 << b) - 1) for b in (s, w - t))
        for i0 in range(0, Q, _RUN):
            n, acc = min(_RUN, Q - i0), [0] * k
            for group in self.groups:
                total = 0
                for L, j in group:
                    step = j % Q
                    seq = array(code) if step else array(code, [exp[L]]) * n
                    while len(seq) < n:
                        start = (L + (i0 + len(seq)) * j) % Q
                        seq.extend(exp[start:start + step * (n - len(seq)):step])
                    total += int.from_bytes(seq, sys.byteorder)
                for u in range(k):
                    a = acc[u] + (total >> s * u & planes)  # slots <= min(2^s + p, (size + 1)(p - 1))
                    acc[u] = a - (a * m >> t & quotients) * p
            z = acc.pop()
            while acc:
                z = z * p + acc.pop()
            yield array(code, z.to_bytes(n * w // 8, sys.byteorder))
