"""Hasse-Witt matrices of hyperelliptic curves and the p-rank classifier.

For y^2 = f(x) in odd characteristic the matrix of the p-power Frobenius
acting on H^1(X, O_X) with respect to the classes y/x^i (i = 1..g) has
(i, j) entry equal to the x^(p*i - j) coefficient of f(x)^((p-1)/2).
Only that window is read.  f is packed once into an int, 2k - 1 slots of
S bits per coefficient (Kronecker, Harvey 2009), and h = f^(e//2), e =
(p-1)/2, is powered on it: after each product the high slots fold through
`_reductions` and one Barrett step (Barrett 1986) takes every slot mod p.
From the unreduced last product h*h (or h*(h*f) for odd e) one shift and
mask per row cut the g^2 coefficients x^(p*i - j), which alone are reduced.
The p-rank is the rank of the g-fold semilinear product
A * A^(p) * ... * A^(p^(g-1)), where ^(p) raises entries to the p-th
power, taken by twisted doubling in O(log g) products.  An invertible A
skips the product, since Frobenius twists and products of invertible
matrices stay invertible.

`crosscheck_superspecial` is the one place where the verdict meets point
counts: the F_{p^2} count of a superspecial verdict and Manin's
congruence on every count.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import curve
# count_points stays bound here for callers that read cartier.count_points;
# the cross-check itself calls it through the curve module
from .curve import SuperellipticCurve, UnsupportedModelError, count_points, genus  # noqa: F401
from .ff import _binary_power, check_budget
from .linalg import FieldMatrix, _Rows


# Alias kept for callers that catch it: no model raises it, since the
# curve constructor rejects gcd(m, p) != 1 and y^2 = f(x) never exists
# over F_2.
InseparableModelError = UnsupportedModelError


@dataclass(frozen=True)
class HasseWittMatrix:
    matrix: FieldMatrix
    genus: int
    basis_labels: tuple

    def entry(self, i: int, j: int):
        """1-indexed (i, j) entry, matching the y/x^i basis labels."""
        return self.matrix[i - 1, j - 1]


@dataclass(frozen=True)
class PRankClass:
    stable_rank: int
    genus: int
    verdict: str  # ordinary / superspecial / intermediate


# Work `hasse_witt` admits: the deg f (p-1)/2 coefficients of f^((p-1)/2)
# plus the g^2 entries of its window.  On a shared 2-CPU x86_64 VM (Python
# 3.11, CPU best of 3) y^2 = x^41 + x + 1 takes 0.021 s at p = 1009 (20k
# coefficients), 1.44 s at p = 10007 (205k) and 5.1 s at p = 20011 (410k),
# against 0.027, 1.70 and 5.1 s with a list round trip per product.  Above
# the limit the call is refused before any arithmetic.  The stable product,
# about g^3 log g, needs no budget: the g^2 term already caps g at 724.
HASSE_WITT_WORK_LIMIT = 2**19


def hasse_witt_estimate(X: SuperellipticCurve):
    """The work estimate of `hasse_witt`, as the arguments of `check_budget`:
    at genus 0 no coefficient is formed, so it is 0."""
    g = genus(X)
    return ("Hasse-Witt", (X.f.degree * ((X.p - 1) // 2) if g else 0) + g**2,
            "deg f (p-1)/2 coefficients + g^2 entries", HASSE_WITT_WORK_LIMIT)


def hasse_witt(X: SuperellipticCurve) -> HasseWittMatrix:
    """The g x g Frobenius matrix of a hyperelliptic curve, p odd.

    Raises WorkBudgetError when the work estimate exceeds HASSE_WITT_WORK_LIMIT.
    """
    if X.m != 2:
        raise UnsupportedModelError("Hasse-Witt recipe implemented for y^2 = f(x)")
    check_budget(*hasse_witt_estimate(X))
    g, p, e, d, F, k = genus(X), X.p, (X.p - 1) // 2, X.f.degree, X.field, X.field.k
    if g == 0:  # the window is empty: f is not powered
        return HasseWittMatrix(matrix=FieldMatrix(F, _Rows(F, [])), genus=0, basis_labels=())
    # a product slot sums at most len(h) k residue products, and the fold adds k - 1
    # more, of high slots reduced first: all stay below x_max = 2^(S-1).  Barrett:
    # 2^t > x_max p and m = ceil(2^t / p) give floor(x m / 2^t) = floor(x / p), and
    # x_max m < 2^(2S), so even and odd slots, split apart, reduce in place
    S = (((d * (e // 2) + 2) * k - 1) * (p - 1) ** 2).bit_length() + 1
    C, mask, t = (2 * k - 1) * S, (1 << S) - 1, S - 1 + p.bit_length()
    m = (1 << t) // p + 1

    def feet(width):  # S set bits at the foot of every width-bit field of h f, from 8 fields' bytes
        return int.from_bytes(sum(mask << width * i for i in range(8)).to_bytes(width, "little")
                              * (C * (d * (e // 2 + 1) + 1) // (8 * width) + 1), "little")

    folds = [(S * (k + s), sum(r << S * u for u, r in enumerate(red))) for s, red in enumerate(F._reductions or ())]
    even, comb = feet(2 * S), feet(C) if folds else 0
    quot = even & even >> t - S  # the low 2S - t bits of a 2S-bit field hold floor(x m / 2^t)

    def barrett(Y):
        E, O = Y & even, Y >> S & even
        return E - (E * m >> t & quot) * p | (O - (O * m >> t & quot) * p) << S

    def reduced(Y):
        for shift, R in folds:
            H = Y >> shift & comb
            Y += barrett(H) * R - (H << shift)
        return barrett(Y)

    f = sum(c << S * (n + n // k * (k - 1)) for n, c in enumerate(X.f.residues))
    h = _binary_power(f, e // 2, lambda a, b: reduced(a * b), 1)
    P = h * (h if e % 2 == 0 else reduced(h * f)) << C * g  # f^e x^g: no row starts below x^0
    offsets = [S * ((2 * k - 1) * q + u) for q in reversed(range(g)) for u in range(k)]
    rows = [tuple([row >> o & mask for o in offsets])
            for row in (reduced(P >> C * p * i & (1 << C * g) - 1) for i in range(1, g + 1))]
    labels = tuple([f"y/x^{i}" for i in range(1, g + 1)])
    return HasseWittMatrix(matrix=FieldMatrix(F, _Rows(F, rows)), genus=g, basis_labels=labels)


def semilinear_stable_matrix(M: FieldMatrix, g: int) -> FieldMatrix:
    """P_g = A * A^(p) * ... * A^(p^(g-1)) with entrywise Frobenius twists.

    Twisted doubling: pairs multiply as (P_s, s) (P_t, t) = (P_s
    sigma^s(P_t), s + t), sigma^s being `frobenius_entrywise` s mod k
    times, so binary powering of (A, 1) takes O(log g) products, not
    g - 1.  Over F_p it is A^g.  P_0 is the identity.
    """
    k = M.field.k

    def mul(a, b):
        (P, s), (Q, t) = a, b
        for _ in range(s % k):
            Q = Q.frobenius_entrywise()
        return P @ Q, s + t

    return _binary_power((M, 1), g, mul, (FieldMatrix.identity(M.field, M.nrows), 0))[0]


def classify_p_rank(H: HasseWittMatrix) -> PRankClass:
    g = H.genus
    if g == 0:
        return PRankClass(stable_rank=0, genus=0, verdict="ordinary")
    M = H.matrix
    if M.is_zero():
        return PRankClass(stable_rank=0, genus=g, verdict="superspecial")
    rank = M.rank()
    if rank < g:
        rank = semilinear_stable_matrix(M, g).rank()
    verdict = "ordinary" if rank == g else "intermediate"
    return PRankClass(stable_rank=rank, genus=g, verdict=verdict)


@dataclass(frozen=True)
class CrosscheckReport:
    hasse_witt: HasseWittMatrix
    p_rank: PRankClass
    count_e2: object            # PointCount over F_{p^2}; None when not taken
    consistent: bool            # superspecial => maximal or minimal


def crosscheck_superspecial(X: SuperellipticCurve, counts=None) -> CrosscheckReport:
    """The Frobenius-matrix verdict, checked against point counts.

    `counts` are the PointCounts the caller has already taken.  The
    F_{p^2} count is read from them, or taken when no counts are given or
    when a superspecial verdict reads it.  A zero Cartier operator forces
    the curve to be a form of a maximal or minimal curve; the flag
    records whether the model's own F_{p^2} count attains one of the two
    Weil bounds.  The twist choice is not asserted.  Manin's congruence
    #X(F_{p^e}) = 1 - tr(A^e) (mod p) is asserted, like the Weil
    interval, on every count; A^e is the previous power times A^(e - e').
    """
    if X.field.k != 1:
        raise UnsupportedModelError("cross-check runs on curves defined over F_p")
    hw = hasse_witt(X)
    verdict = classify_p_rank(hw)
    by_e = {pc.e: pc for pc in counts or ()}
    if 2 not in by_e and (counts is None or verdict.verdict == "superspecial"):
        # through the module, so a wrapped count_points is the one called
        by_e[2] = curve.count_points(X, 2)
    A, P, done = hw.matrix, None, 0
    for e in sorted(by_e):
        step = A.power(e - done)
        P = step if P is None else P @ step
        done = e
        if (by_e[e].count - 1 + sum(P[i, i].lift() for i in range(hw.genus))) % X.p:
            raise AssertionError(f"#X(F_{X.p}^{e}) violates the Manin congruence")
    count_e2 = by_e.get(2)
    consistent = verdict.verdict != "superspecial" or count_e2.status in ("maximal", "minimal")
    return CrosscheckReport(hasse_witt=hw, p_rank=verdict, count_e2=count_e2, consistent=consistent)
