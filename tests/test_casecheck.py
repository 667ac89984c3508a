import math

import pytest

from superell.casecheck import (
    aut_bound_ordinary,
    case_closed_forms,
    divisibility_bound,
    primes_up_to,
    run_search,
    subcase1_ordinarity_bound,
)
from superell.ff import make_field


def test_primes_up_to():
    assert primes_up_to(30) == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    assert primes_up_to(1) == []


# -- searches -----------------------------------------------------------------


def test_search_tame_outside_solution_primes():
    spec = run_search("tame-outside", p_max=200)
    assert set(spec.solution_primes) <= {2, 3, 5, 7}
    # brute re-check of every reported witness
    for sol in spec.solutions:
        p, n, c, d = sol["p"], sol["n"], sol["c"], sol["d"]
        assert (n * (n + c) + 2 * d + c + 1) % (n * p + 1) == 0


def test_search_tame_inside_is_exactly_2_and_5():
    spec = run_search("tame-inside", p_max=200)
    assert spec.solution_primes == [2, 5]
    witnesses = {(s["p"], s["n"]) for s in spec.solutions}
    assert (2, 4) in witnesses
    assert (5, 3) in witnesses


def test_search_mersenne_is_empty():
    spec = run_search("mersenne", p_max=200)
    assert spec.solutions == []


def test_search_determinism_and_monotonicity():
    for name in ("tame-outside", "tame-inside", "mersenne"):
        small = run_search(name, p_max=200)
        large = run_search(name, p_max=400)
        below = [s for s in large.solutions if s["p"] <= 200]
        assert below == small.solutions


@pytest.mark.parametrize("p_max", [2, 7, 8, 71, 72, 5000])
def test_tame_searches_stop_at_their_own_bound_with_the_same_answer(p_max):
    # the brute-force loops over every prime up to p_max; the search sieves
    # only up to 7 (tame-outside) and 71 (tame-inside)
    lhs = {"tame-outside": lambda n, c, d: n * (n + c) + 2 * d + c + 1,
           "tame-inside": lambda n, c, d: 16 * (n - 1) * d * (c + d + 1)}
    for name, N in lhs.items():
        spec = run_search(name, p_max=p_max)
        assert spec.solutions == [{"p": p, "n": n, "c": c, "d": d}
                                  for p in primes_up_to(p_max) for n in range(2, 5)
                                  for d, c in [(1, 0), (1, 1), (1, 2), (2, 0)] if N(n, c, d) % (n * p + 1) == 0]
        assert spec.ranges["p"] == (2, p_max)


def test_search_unknown_spec():
    with pytest.raises(ValueError):
        run_search("no-such-search")


# -- divisor bounds -----------------------------------------------------------


def test_max_rough_example():
    rep = divisibility_bound("max-rough", 5)
    assert rep.value == 2 * 125 * 24 * 6 == 36000


def test_min_rough_example():
    rep = divisibility_bound("min-rough", 5)
    assert rep.value == 2 * 125 * 24 * 4


def test_max_fine_example():
    rep = divisibility_bound("max-fine", 5, g=2)
    assert rep.value == 2 * 125 * 6 * math.gcd(2, 6) * math.gcd(8, 4) == 12000


def test_fine_cor_degenerate():
    rep = divisibility_bound("fine-cor", 5, g=2, c=1, d=0)
    assert rep.value == 0 and rep.degenerate


def test_fine_cor_checks_genus_decomposition():
    with pytest.raises(ValueError):
        divisibility_bound("fine-cor", 5, g=3, c=1, d=0)


def test_fine_cor_value():
    # g = 7 = c(p-1)/2 + dp with p=5, c=1, d=1
    rep = divisibility_bound("fine-cor", 5, g=7, c=1, d=1)
    assert rep.value == 16 * 125 * 6 * 1 * 3


# -- certified ordinary bound ---------------------------------------------------


def test_aut_bound_examples():
    assert aut_bound_ordinary(4) == 96 + 72 * 37 == 2760
    assert aut_bound_ordinary(2) == 24 + 72 * 13 == 960
    b100 = aut_bound_ordinary(100)
    assert 389000 < b100 <= 390000
    assert b100 < 84 * 100 * 99  # beats the older bound at genus 100


def test_aut_bound_rejects_small_genus():
    with pytest.raises(ValueError):
        aut_bound_ordinary(1)


def test_aut_bound_certified_never_underestimates():
    # (bound - 6g^2)/72 squared must dominate 21 g^3 exactly
    for g in range(2, 1002):
        s = (aut_bound_ordinary(g) - 6 * g * g) // 72
        assert s * s >= 21 * g**3
        assert (s - 1) ** 2 < 21 * g**3


def test_aut_bound_crossover_with_84g_g1():
    # frozen: certified bound beats 84g(g-1) from genus 21 onward
    crossings = [g for g in range(2, 10_000) if aut_bound_ordinary(g) >= 84 * g * (g - 1)]
    assert max(crossings) == 20
    assert all(aut_bound_ordinary(g) < 84 * g * (g - 1) for g in range(21, 10_000, 97))


# -- closed forms ---------------------------------------------------------------


def test_case_I_example():
    rep = case_closed_forms("I", {"g": 10, "a": 1, "d": 1})
    assert rep.value == 220
    assert all(ok for _, ok in rep.comparisons)


def test_case_I_range_check():
    with pytest.raises(ValueError):
        case_closed_forms("I", {"g": 10, "a": 10, "d": 1})


def test_case_IIb_example():
    rep = case_closed_forms("II-b", {"g": 3, "a": 2, "q_prime": 2, "b2": 1})
    assert rep.value == 24
    assert all(ok for _, ok in rep.comparisons)


def test_case_IIb_consistency_check():
    with pytest.raises(ValueError):
        case_closed_forms("II-b", {"g": 3, "a": 1, "q_prime": 2, "b2": 1})


def test_case_IV_final_examples():
    rep = case_closed_forms("IV-final", {"p": 3, "n": 1})
    assert rep.value == 72
    assert all(ok for _, ok in rep.comparisons)
    with pytest.raises(ValueError):
        case_closed_forms("IV-final", {"p": 2, "n": 1})  # E = 1


@pytest.mark.parametrize("p,n", [(3, 1), (5, 1), (2, 2), (3, 2), (5, 2)])
def test_case_IV_final_family_consistency(p, n):
    rep = case_closed_forms("IV-final", {"p": p, "n": n})
    assert rep.value == p ** (4 * n) - p ** (2 * n)
    assert all(ok for _, ok in rep.comparisons)


# -- ordinarity bound -----------------------------------------------------------


def test_subcase1_large_E_forces_non_ordinary():
    F3 = make_field(3)
    for a_int in (1, 2):
        rep = subcase1_ordinarity_bound(3, 20, F3.element(a_int))
        assert not rep.is_ordinary
        assert rep.implication_ok


def test_subcase1_small_E_implication_trivial():
    F5 = make_field(5)
    rep = subcase1_ordinarity_bound(5, 8, F5.element(1))
    assert rep.bound_holds and rep.implication_ok


def test_subcase1_extension_scalars():
    F9 = make_field(3, 2)
    for a in F9.elements():
        if a.is_zero():
            continue
        rep = subcase1_ordinarity_bound(3, 40, a)
        assert not rep.is_ordinary


def test_subcase1_rejects_wild_E():
    F3 = make_field(3)
    with pytest.raises(ValueError):
        subcase1_ordinarity_bound(3, 18, F3.element(1))


def test_case_I_small_genus_example():
    rep = case_closed_forms("I", {"g": 2, "a": 1, "d": 1})
    assert rep.value == 12
    assert all(ok for _, ok in rep.comparisons)  # 12 <= 2(2g-1)(g+1) = 18 <= 5g^2 = 20


def test_case_IIc_example():
    # q = 15 branch: a(q - 2) = 2(g - 1) must be solvable
    rep = case_closed_forms("II-c", {"g": 14, "q": 15, "b1": 1, "b2": 1})
    assert all(ok for _, ok in rep.comparisons)
