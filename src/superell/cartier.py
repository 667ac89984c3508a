"""Hasse-Witt matrices of hyperelliptic curves and the p-rank classifier.

For y^2 = f(x) in odd characteristic the matrix of the p-power Frobenius
acting on H^1(X, O_X) with respect to the classes y/x^i (i = 1..g) has
(i, j) entry equal to the x^(p*i - j) coefficient of f(x)^((p-1)/2).
Only that window is read: h = f^(e//2), e = (p-1)/2, is powered on int
residues through `ff._polymul`, and the last product h*h (or h*(h*f) for
odd e) is left packed; its g^2 coefficients x^(p*i - j) alone are cut from
the product's bytes and folded (`ff._fold`), over F_p and F_{p^k} alike.
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
from .ff import _binary_power, _fold, _kronecker_bytes, _polymul, _slots
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
# plus the g^2 entries of its window.  Over F_p on a 2-CPU x86_64 machine
# (Python 3.11), y^2 = x^41 + x + 1 takes 0.05 s at p = 1009 (20k
# coefficients), 3 s at p = 10007 (205k), 9 s at p = 20011 (410k) and 27 s
# at p = 40009 (820k): the cost grows like n^1.6.  Above the limit the call
# is refused before any arithmetic.
HASSE_WITT_WORK_LIMIT = 2**19


def hasse_witt(X: SuperellipticCurve) -> HasseWittMatrix:
    """The g x g Frobenius matrix of a hyperelliptic curve, p odd.

    Raises ValueError when the work estimate exceeds HASSE_WITT_WORK_LIMIT.
    """
    if X.m != 2:
        raise UnsupportedModelError("Hasse-Witt recipe implemented for y^2 = f(x)")
    g, p, e = genus(X), X.p, (X.p - 1) // 2
    work = X.f.degree * e + g * g
    if work > HASSE_WITT_WORK_LIMIT:
        raise ValueError(f"Hasse-Witt work estimate {work} (deg f (p-1)/2 coefficients + g^2 entries) "
                         f"exceeds the budget {HASSE_WITT_WORK_LIMIT}")
    F, f = X.field, X.f.residues
    k = F.k
    h = _binary_power(f, e // 2, lambda a, b: _polymul(a, b, F), [1] + [0] * (k - 1))
    bs, w = _kronecker_bytes(h, h if e % 2 == 0 else _polymul(h, f, F), F)
    # coefficient n of f^e is the 2k - 1 slots at byte n W; past either end it is 0
    W, zero = (2 * k - 1) * w, bytes((2 * k - 1) * w)
    window = b"".join((bs[n * W:n * W + W] or zero) if n >= 0 else zero
                      for i in range(1, g + 1) for n in range(p * i - 1, p * i - g - 1, -1))
    entries = _fold(_slots(window, w), F)
    rows = [tuple(entries[i * g * k:(i + 1) * g * k]) for i in range(g)]
    labels = tuple(f"y/x^{i}" for i in range(1, g + 1))
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
