"""Exact-rational Riemann-Hurwitz and Deuring-Shafarevich evaluation.

Profiles carry a group order, a base invariant (genus or p-rank) and the
list of ramified points as (e_Q, d_Q) pairs.  Everything is computed in
Fraction arithmetic; a profile that forces a non-integral or negative
solution is reported as infeasible rather than raising, because the
case analyses downstream use infeasibility as a first-class outcome.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .ff import _prime_divisors


@dataclass(frozen=True)
class CoverProfile:
    group_order: int
    base_genus: int                      # g_Y, or gamma_Z for p-rank usage
    ram_points: tuple                    # ((e_Q, d_Q), ...)
    top_genus: Optional[int] = None      # g_X / gamma_X when solving downward

    def __post_init__(self):
        if self.group_order < 1:
            raise ValueError("group order must be positive")
        if self.base_genus < 0:
            raise ValueError("base invariant must be non-negative")
        pts = tuple([(int(e), int(d)) for e, d in self.ram_points])
        object.__setattr__(self, "ram_points", pts)
        for e, d in pts:
            if e < 1:
                raise ValueError(f"ramification index {e} < 1")
            if d < e - 1:
                raise ValueError(f"different exponent {d} < e - 1 = {e - 1}")
            if self.group_order % e != 0:
                raise ValueError(f"e = {e} does not divide |G| = {self.group_order}")

    def tame_flags(self):
        return tuple([d == e - 1 for e, d in self.ram_points])


@dataclass(frozen=True)
class FormulaResult:
    value: Fraction
    feasible: bool
    note: str = ""

    @property
    def integer(self) -> int:
        if not self.feasible:
            raise ValueError(f"infeasible profile: {self.note}")
        return int(self.value)


def _ramification_sum(prof: CoverProfile) -> Fraction:
    return sum((Fraction(d, e) for e, d in prof.ram_points), Fraction(0))


def riemann_hurwitz(prof: CoverProfile, unknown: str) -> FormulaResult:
    """Solve (2 g_X - 2)/|G| = 2 g_Y - 2 + sum d_Q/e_Q for one unknown.

    unknown is one of 'g_X', 'g_Y', 'group_order'.  Genus solutions must
    be non-negative integers to be feasible; a group order must be a
    positive integer.
    """
    s = _ramification_sum(prof)
    if unknown == "g_X":
        rhs = 2 * prof.base_genus - 2 + s
        val = (prof.group_order * rhs + 2) / 2
        return _genus_result(val)
    if unknown == "g_Y":
        if prof.top_genus is None:
            raise ValueError("solving for g_Y needs top_genus on the profile")
        val = (Fraction(2 * prof.top_genus - 2, prof.group_order) + 2 - s) / 2
        return _genus_result(val)
    if unknown == "group_order":
        if prof.top_genus is None:
            raise ValueError("solving for |G| needs top_genus on the profile")
        rhs = 2 * prof.base_genus - 2 + s
        if rhs == 0:
            raise ZeroDivisionError("right side vanishes; |G| is unconstrained")
        val = Fraction(2 * prof.top_genus - 2) / rhs
        feasible = val.denominator == 1 and val > 0
        return FormulaResult(value=val, feasible=feasible, note="" if feasible else "group order must be a positive integer")
    raise ValueError(f"unknown quantity {unknown!r}")


def _genus_result(val: Fraction) -> FormulaResult:
    if val.denominator != 1:
        return FormulaResult(value=val, feasible=False, note="non-integral genus")
    if val < 0:
        return FormulaResult(value=val, feasible=False, note="negative genus")
    return FormulaResult(value=val, feasible=True)


def _prime_power_base(n: int) -> Optional[int]:
    """The prime p with n = p^k, or None."""
    primes = list(_prime_divisors(n))
    return primes[0] if len(primes) == 1 else None


def deuring_shafarevich(prof: CoverProfile, unknown: str) -> FormulaResult:
    """Solve (gamma_X - 1)/|H| = gamma_Z - 1 + sum (1 - 1/e_Q).

    The quotient group H must be a p-group; its characteristic is
    recovered by factoring |H|.  base_genus plays gamma_Z, top_genus
    plays gamma_X.
    """
    p = _prime_power_base(prof.group_order)
    if p is None:
        raise ValueError(f"|H| = {prof.group_order} is not a prime power")
    s = sum((1 - Fraction(1, e) for e, _ in prof.ram_points), Fraction(0))
    if unknown == "gamma_X":
        val = prof.group_order * (prof.base_genus - 1 + s) + 1
        return _genus_result(Fraction(val))
    if unknown == "gamma_Z":
        if prof.top_genus is None:
            raise ValueError("solving for gamma_Z needs top_genus on the profile")
        val = Fraction(prof.top_genus - 1, prof.group_order) + 1 - s
        return _genus_result(val)
    raise ValueError(f"unknown quantity {unknown!r}")


@dataclass(frozen=True)
class IdentityCheck:
    holds: bool
    residual: Fraction


def case_equation_check(data) -> IdentityCheck:
    """Check (2 g_X - 2)/|G| = ((e - E) q - 2 e)/(E q e) exactly.

    `data` maps the names E, q, e, g_X, G_order to positive integers.
    The residual (left minus right) is returned for diagnostics.
    """
    E = int(data["E"])
    q = int(data["q"])
    e = int(data["e"])
    g_x = int(data["g_X"])
    order = int(data["G_order"])
    for name, v in (("E", E), ("q", q), ("e", e), ("g_X", g_x), ("G_order", order)):
        if v <= 0:
            raise ValueError(f"{name} must be positive, got {v}")
    lhs = Fraction(2 * g_x - 2, order)
    rhs = Fraction((e - E) * q - 2 * e, E * q * e)
    residual = lhs - rhs
    return IdentityCheck(holds=residual == 0, residual=residual)


def lambda_value(d: int, E: int, eps: int) -> Fraction:
    """(d E eps - 2E - eps) / (E + eps)."""
    return Fraction(d * E * eps - 2 * E - eps, E + eps)


def mu_value(d: int, E: int, eps: int) -> Fraction:
    """(d E eps - 2E - eps) / ((d + 1/E)(E + eps))."""
    num = Fraction(d * E * eps - 2 * E - eps)
    den = (d + Fraction(1, E)) * (E + eps)
    return num / den


def lambda_mu_grid_violations(E_lo: int, E_hi: int, d_hi: int, eps_hi: int):
    """Grid check of lambda >= 1 - 6/E and mu >= 1/3 - 4/E where lambda > 0.

    Pure integer cross-multiplication, no Fractions; returns the list of
    violating (E, d, eps) triples (expected empty on the stated ranges).
    """
    bad = []
    for E in range(E_lo, E_hi + 1):
        for d in range(1, d_hi + 1):
            for eps in range(1, eps_hi + 1):
                num = d * E * eps - 2 * E - eps     # lambda numerator
                if num <= 0:
                    continue
                # lambda >= 1 - 6/E  <=>  num * E >= (E - 6)(E + eps)
                if num * E < (E - 6) * (E + eps):
                    bad.append(("lambda", E, d, eps))
                # mu = num * E / ((d E + 1)(E + eps));
                # mu >= 1/3 - 4/E  <=>  3 E (num E) >= (E - 12)(d E + 1)(E + eps)
                if 3 * E * num * E < (E - 12) * (d * E + 1) * (E + eps):
                    bad.append(("mu", E, d, eps))
    return bad
