"""Exhaustive verification of the finite searches and closed-form bounds.

Each builtin search hard-codes its constraint ranges exactly as used in
the corresponding case analysis, and reports them for auditability.
Everything is exact integer arithmetic; square roots are handled by
isqrt bracketing so that every returned bound is certified (never
under-rounded).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

from .cartier import classify_p_rank, hasse_witt
from .curve import SuperellipticCurve
from .ff import FieldElement, check_budget, is_prime, primes_up_to
from .poly import Polynomial
from .ramify import case_equation_check


@dataclass
class SearchSpec:
    name: str
    ranges: dict
    predicate: str
    solutions: list = field(default_factory=list)

    @property
    def solution_primes(self):
        return sorted({sol["p"] for sol in self.solutions})


_GRID_DC = [(1, 0), (1, 1), (1, 2), (2, 0)]  # (d, c) with d >= 1, 2d + c <= 4

# the tame searches: name -> (predicate, N(n, c, d)), np+1 | N with N > 0
_TAME = {
    "tame-outside": ("np+1 | n(n+c) + 2d + c + 1", lambda n, c, d: n * (n + c) + 2 * d + c + 1),
    "tame-inside": ("np+1 | 16(n-1)d(c+d+1)", lambda n, c, d: 16 * (n - 1) * d * (c + d + 1)),
}


def run_search(spec_id: str, p_max: int = 200) -> SearchSpec:
    """One of the builtin divisibility searches, exhausted up to p_max."""
    if spec_id in _TAME:
        predicate, N = _TAME[spec_id]
        spec = SearchSpec(
            name=spec_id,
            ranges={"n": (2, 4), "d>=1, 2d+c<=4": _GRID_DC, "p": (2, p_max)},
            predicate=predicate,
        )
        grid = [(n, c, d, N(n, c, d)) for n in range(2, 5) for d, c in _GRID_DC]
        # np+1 | N > 0 forces np+1 <= N, so no prime past every (N-1)//n solves
        # (7 for tame-outside, 71 for tame-inside): the sieve stops there
        bound = max((v - 1) // n for n, _, _, v in grid)
        for p in primes_up_to(min(p_max, bound)):
            for n, c, d, v in grid:
                if v % (n * p + 1) == 0:
                    spec.solutions.append({"p": p, "n": n, "c": c, "d": d})
        return spec
    if spec_id == "mersenne":
        pairs = [(0, 1), (1, 1), (2, 1), (0, 2)]
        spec = SearchSpec(
            name=spec_id,
            ranges={"p": [q for q in (31, 127) if q <= p_max], "(c,d)": pairs},
            predicate="(c+1)(p-1) - 2d | 32 d (c+d+1)^2",
        )
        for p in (31, 127):
            if p > p_max:
                continue
            for c, d in pairs:
                lhs = (c + 1) * (p - 1) - 2 * d
                if lhs > 0 and (32 * d * (c + d + 1) ** 2) % lhs == 0:
                    spec.solutions.append({"p": p, "n": None, "c": c, "d": d})
        return spec
    raise ValueError(f"unknown search spec {spec_id!r}")


@dataclass(frozen=True)
class BoundReport:
    formula_id: str
    inputs: dict
    value: object                 # exact int or Fraction
    comparisons: tuple            # (label, holds) pairs
    degenerate: bool = False


def divisibility_bound(kind: str, q: int, g: Optional[int] = None,
                       c: Optional[int] = None, d: Optional[int] = None) -> BoundReport:
    """Divisor bounds on |G| for curves whose non-rational orbits are free.

    kinds: max-rough, min-rough (2 q^3 (q^2-1)(q +- 1)); max-fine,
    min-fine (gcd-refined); fine-cor (16 q^3 (q+1) d (c+d+1), with the
    genus decomposition g = c(q-1)/2 + d q checked, q prime).
    """
    if q < 2:
        raise ValueError("q must be at least 2")
    inputs = {"q": q, "g": g, "c": c, "d": d}
    if kind == "max-rough":
        value = 2 * q**3 * (q**2 - 1) * (q + 1)
    elif kind == "min-rough":
        value = 2 * q**3 * (q**2 - 1) * (q - 1)
    elif kind == "max-fine":
        if g is None:
            raise ValueError("fine bounds need the genus")
        value = 2 * q**3 * (q + 1) * math.gcd(2 * g - 2, q + 1) * math.gcd(4 * g, q - 1)
    elif kind == "min-fine":
        if g is None:
            raise ValueError("fine bounds need the genus")
        value = 2 * q**3 * (q - 1) * math.gcd(2 * g - 2, q - 1) * math.gcd(4 * g, q + 1)
    elif kind == "fine-cor":
        if g is None or c is None or d is None:
            raise ValueError("fine-cor needs g, c and d")
        if not is_prime(q):
            raise ValueError("fine-cor applies over the prime field, q = p")
        if 2 * g != c * (q - 1) + 2 * d * q:
            raise ValueError(
                f"genus decomposition mismatch: 2g = {2 * g} != c(p-1) + 2dp = {c * (q - 1) + 2 * d * q}"
            )
        value = 16 * q**3 * (q + 1) * d * (c + d + 1)
    else:
        raise ValueError(f"unknown bound kind {kind!r}")
    comparisons = ()
    if g is not None:
        comparisons = (
            ("bound <= g^2", value <= g * g),
            ("bound <= 84(g-1)", value <= 84 * (g - 1)),
        )
    return BoundReport(
        formula_id=kind,
        inputs=inputs,
        value=value,
        comparisons=comparisons,
        degenerate=(value == 0),
    )


def aut_bound_ordinary(g: int) -> int:
    """Certified integer upper bound for 6 (g^2 + 12 sqrt(21) g^(3/2)).

    The irrational term is 72 sqrt(21 g^3); it is bracketed from above
    with math.isqrt so the result always dominates the real value.
    """
    if g < 2:
        raise ValueError("defined for genus >= 2")
    radicand = 21 * g**3
    s = math.isqrt(radicand)
    if s * s < radicand:
        s += 1
    return 6 * g * g + 72 * s


# Case IV-final prints |G| = p^(4n) - p^(2n) < p^(4n) in decimal, and CPython
# converts at most 4300 digits by default: an admitted |G| has at most 4299.
# The largest admitted n at p = 3 is 2252.  A refusal shows the pair as 10^4299.
CLOSED_FORM_BUDGET = (10, 4299)


def closed_form_estimate(p: int, n: int):
    """The work estimate of the case IV-final closed form, as the arguments
    of `check_budget`: p^(4n), a bound on |G|, as the pair (p, 4n)."""
    return "case IV-final closed form", (p, 4 * n), "p^(4n), a bound on |G|", CLOSED_FORM_BUDGET


def case_closed_forms(case_id: str, params: dict) -> BoundReport:
    """Exact |G| values of the wild-orbit case analyses, with the stated
    inequality chains evaluated on the inputs."""
    if case_id == "I":
        g, a, d = params["g"], params["a"], params["d"]
        if not (1 <= a < g):
            raise ValueError("need 1 <= a < g")
        if d < 1:
            raise ValueError("need d >= 1")
        value = Fraction(2 * (g + a - 1) * (g + 2 * a - 1), a * d)
        value = value if value.denominator != 1 else int(value)
        comparisons = (
            ("|G| <= 2(2g-1)(g+1)", value <= 2 * (2 * g - 1) * (g + 1)),
            ("2(2g-1)(g+1) <= 5g^2", 2 * (2 * g - 1) * (g + 1) <= 5 * g * g),
        )
        return BoundReport("case-I", dict(params), value, comparisons)
    if case_id == "II-a":
        g, q, qp, b2 = params["g"], params["q"], params["q_prime"], params["b2"]
        if q == 2 or qp == 1:
            raise ValueError("subcase needs q != 2 and q' != 1")
        if b2 < 1:
            raise ValueError("need b2 >= 1")
        value = Fraction(15 * q * qp * (g - 1), 7 * b2)
        comparisons = (
            ("(qq'-1)/b2 <= 2(g-1)", Fraction(q * qp - 1, b2) <= 2 * (g - 1)),
            ("bound <= 32/7 (g-1)^2", value <= Fraction(32, 7) * (g - 1) ** 2),
        )
        return BoundReport("case-II-a", dict(params), value, comparisons)
    if case_id == "II-b":
        g, a, qp, b2 = params["g"], params["a"], params["q_prime"], params["b2"]
        if a * (qp - 1) != g - 1:
            raise ValueError("need a(q' - 1) = g - 1")
        if b2 < 1:
            raise ValueError("need b2 >= 1")
        value = Fraction(2 * a * qp * (2 * qp - 1), b2)
        value = value if value.denominator != 1 else int(value)
        comparisons = (("|G| <= 6g^2", value <= 6 * g * g),)
        return BoundReport("case-II-b", dict(params), value, comparisons)
    if case_id == "II-c":
        g, q, b1, b2 = params["g"], params["q"], params["b1"], params["b2"]
        if q == 2:
            raise ValueError("need q != 2")
        if b1 + b2 < 1:
            raise ValueError("need b1 + b2 >= 1")
        if (2 * (g - 1)) % (q - 2) != 0:
            raise ValueError("need (q - 2) | 2(g - 1)")
        value = Fraction(2 * (g - 1) * q * (q - 1), (b1 + b2) * (q - 2))
        comparisons = (
            ("q >= 15", q >= 15),
            ("|G| <= 15/14 * 2g(g-1)", value <= Fraction(15, 14) * 2 * g * (g - 1)),
            ("15/14 * 2g(g-1) <= 3g^2", Fraction(15, 14) * 2 * g * (g - 1) <= 3 * g * g),
        )
        return BoundReport("case-II-c", dict(params), value, comparisons)
    if case_id == "IV-final":
        p, n = params["p"], params["n"]
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
        check_budget(*closed_form_estimate(p, n))
        E = p**n - 1
        if E < 2:
            raise ValueError("E = p^n - 1 must be at least 2 for a nontrivial tame part")
        e = p**n + 1
        q = p ** (2 * n)
        g = p ** (2 * n) - p**n
        order = p ** (4 * n) - p ** (2 * n)
        check = case_equation_check({"E": E, "q": q, "e": e, "g_X": g, "G_order": order})
        comparisons = (
            ("|G| = E q e", order == E * q * e),
            ("covering identity residual = 0", check.holds),
            ("|G| <= ordinary bound at g", order <= aut_bound_ordinary(g)),
        )
        return BoundReport(
            "case-IV-final",
            dict(params),
            order,
            comparisons,
        )
    raise ValueError(f"unknown case id {case_id!r}")


@dataclass(frozen=True)
class OrdinarityBoundReport:
    p: int
    E: int
    a: FieldElement
    genus: int
    stable_rank: int
    is_ordinary: bool
    bound_holds: bool       # E <= 6(p-1)
    implication_ok: bool    # is_ordinary => bound_holds
    genus_ceiling: int      # 21 E^2 evaluated at the largest ordinary E,
                            # i.e. 756 (p-1)^2


def subcase1_ordinarity_bound(p: int, E: int, a: FieldElement) -> OrdinarityBoundReport:
    """Classify y^2 = x (x^(E/2) - a) and test ordinary => E <= 6(p-1).

    Needs p odd, E even with p not dividing E (the cyclic group of order
    E acting on the x-line is tame); otherwise the model degenerates to
    a non-squarefree right-hand side.
    """
    if p == 2 or not is_prime(p):
        raise ValueError("p must be an odd prime")
    if E < 2 or E % 2 != 0:
        raise ValueError("E must be an even integer >= 2")
    if E % p == 0:
        raise ValueError("p | E puts the model outside the tame hypothesis")
    if a.is_zero():
        raise ValueError("a must be nonzero")
    if a.field.p != p:
        raise ValueError("a must lie in a field of characteristic p")
    K = a.field
    half = E // 2
    f = Polynomial.monomial(K, K.one(), half + 1) - Polynomial(K, [0, a])
    X = SuperellipticCurve(2, f)
    verdict = classify_p_rank(hasse_witt(X))
    is_ord = verdict.verdict == "ordinary"
    bound = E <= 6 * (p - 1)
    return OrdinarityBoundReport(
        p=p,
        E=E,
        a=a,
        genus=verdict.genus,
        stable_rank=verdict.stable_rank,
        is_ordinary=is_ord,
        bound_holds=bound,
        implication_ok=(not is_ord) or bound,
        genus_ceiling=756 * (p - 1) ** 2,
    )
