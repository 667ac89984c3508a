"""The CLI contract under generated input (MacIver et al. 2019).

For every argv drawn here `cli.main` returns 0, 1 or 2 and raises
nothing, stderr holds no traceback, `--json` output validates against
the shipped schema, and a rerun prints the same bytes.  Sizes are
bounded so that every call finishes quickly: primes up to 50, extension
exponents up to 2, and `rep` primes up to 13.

Past those sizes a second property holds: a valid model with p up to
2^61 - 1 and e up to 40, or an m = 2 module with p up to 10^7, either
gets its verdict (exit 0 or 2) or is refused (exit 1) by a work
estimate that the message names beside its budget.
"""

import contextlib
import io
import json
import re
from importlib import resources

import jsonschema
from hypothesis import HealthCheck, assume, given, settings, strategies as st

from superell import cli, genus, parse_curve
from superell.cartier import HASSE_WITT_WORK_LIMIT
from superell.ff import LOG_TABLE_BUDGET, is_prime

VALIDATOR = jsonschema.Draft7Validator(
    json.loads(resources.files("superell").joinpath("report_schema.json").read_text()))

CONTRACT = settings(derandomize=True, database=None, deadline=None, max_examples=300,
                    suppress_health_check=[HealthCheck.too_slow])


def call(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def check_contract(argv, as_json):
    argv = argv + ["--json"] * as_json
    first = call(argv)
    code, out, err = first
    assert code in (0, 1, 2), (argv, first)
    assert "Traceback" not in err
    if as_json and out:
        VALIDATOR.validate(json.loads(out))
    assert call(argv) == first


NOT_INTS = ["", "x", "1.5", "2e3", "-"]
PRIMES = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47]


def int_flag(lo, hi):
    """A flag value: mostly an int in [lo, hi], sometimes text that is not one."""
    return st.integers(lo, hi + len(NOT_INTS)).map(lambda n: str(n) if n <= hi else NOT_INTS[n - hi - 1])


def small_numbers(text):
    # every integer in the text becomes its value mod 51, so no field is
    # larger than F_(47^2) and no exponent exceeds 50
    return re.sub(r"\d+", lambda mo: str(int(mo.group()) % 51), text)


def curve_text(m, coeffs, p):
    terms = "".join(f" {'-' if c < 0 else '+'} {abs(c)}*x^{d}" for d, c in enumerate(coeffs) if c)
    return f"y^{m} = {terms.lstrip(' +') or '0'} mod {p}"


CURVE_TOKENS = ["y", "x", "^", "=", "+", "-", "*", "mod", " ", "2", "3", "5", "7", "13", "47", "0", "1",
                "²", "é", "#", "_", "z", "\t"]
CURVES = st.one_of(
    st.builds(curve_text, st.integers(2, 8), st.lists(st.integers(-60, 60), min_size=2, max_size=10),
              st.one_of(st.sampled_from(PRIMES), st.integers(0, 50))),
    st.lists(st.sampled_from(CURVE_TOKENS), max_size=16).map("".join).map(small_numbers),
    st.text(max_size=24).map(small_numbers),
)
E_LISTS = st.one_of(st.lists(st.integers(1, 2), min_size=1, max_size=3).map(lambda es: ",".join(map(str, es))),
                    st.sampled_from(["0", "", "1,,2", "a", "-1", "2,0", " 1",
                                     "25", "1,1000", "30000000"]))


@CONTRACT
@given(CURVES, st.one_of(st.none(), E_LISTS), st.booleans())
def test_classify_contract(curve, e, as_json):
    check_contract(["classify", curve] + (["--e", e] if e is not None else []), as_json)


BUDGET = settings(CONTRACT, max_examples=40)
QUICK = 2**16  # field elements or Hasse-Witt coefficients that take at most about 2 s
REFUSAL = re.compile(r"error: .+ work estimate \S+ \(.+\) exceeds the budget \d+\n")


def next_prime(n):
    while not is_prime(n):
        n += 1
    return n


def check_verdict_or_refusal(argv):
    code, out, err = call(argv)
    assert code in (0, 2) or (code, out) == (1, "") and REFUSAL.fullmatch(err), (argv, code, err)


def check_classify_at_any_size(m, coeffs, p, e):
    curve = curve_text(m, coeffs, p)
    try:
        X = parse_curve(curve)
    except ValueError:
        assume(False)  # not a valid model
    # between QUICK and the budgets the work is admitted and takes seconds to
    # minutes (an F_(2677^2) count about 8 s), more than this file can spend
    q = p ** max(map(int, e.split(",")))
    hw = X.f.degree * ((p - 1) // 2) + genus(X) ** 2 if m == 2 else 0
    assume(max(q, hw) <= QUICK or q > LOG_TABLE_BUDGET or hw > HASSE_WITT_WORK_LIMIT)
    check_verdict_or_refusal(["classify", curve, "--e", e])


# primes of every bit length up to 61
ANY_PRIME = st.integers(2, 61).flatmap(lambda b: st.integers(2 ** (b - 1), 2**b - 1)).map(next_prime)
COEFFS = st.lists(st.integers(-60, 60), min_size=2, max_size=10)


@BUDGET
@given(st.sampled_from([2, 2, 2, 3, 4, 5, 6, 7, 8]), COEFFS, st.one_of(st.sampled_from(PRIMES), ANY_PRIME),
       st.one_of(st.sampled_from(["1", "2", "1,2"]),
                 st.lists(st.integers(1, 40), min_size=1, max_size=3).map(lambda es: ",".join(map(str, es)))))
def test_classify_at_any_size_gives_a_verdict_or_names_its_estimate(m, coeffs, p, e):
    check_classify_at_any_size(m, coeffs, p, e)


@BUDGET
@given(COEFFS, ANY_PRIME)
def test_hyperelliptic_classify_at_any_prime_gives_a_verdict_or_names_its_estimate(coeffs, p):
    # one extension, so the Hasse-Witt estimate is the one that refuses p
    # from about 2^17 up to the tables' 2^24
    check_classify_at_any_size(2, coeffs, p, "1")


# The MeatAxe has no estimate yet: from p = 17 up to the module budget's
# p = 2897 it takes seconds and more (11.9 s at p = 199), so those primes
# are not drawn.
@BUDGET
@given(st.one_of(st.sampled_from(PRIMES[1:6]), st.integers(2898, 10**7).map(next_prime)))
def test_rep_m2_at_any_size_gives_a_verdict_or_names_its_estimate(p):
    check_verdict_or_refusal(["rep", "--p", str(p), "--m", "2"])


# (p, m) with m | p + 1, or anything
REP_PAIRS = st.one_of(
    st.sampled_from(PRIMES[:6]).flatmap(
        lambda p: st.tuples(st.just(str(p)), st.sampled_from([str(m) for m in range(2, p + 2) if (p + 1) % m == 0]))),
    st.tuples(int_flag(-2, 13), int_flag(-2, 15)),
)


@CONTRACT
@given(REP_PAIRS, int_flag(0, 3), st.booleans())
def test_rep_contract(pm, seed, as_json):
    check_contract(["rep", "--p", pm[0], "--m", pm[1], "--seed", seed], as_json)


@CONTRACT
@given(st.sampled_from(["tame-outside", "tame-inside", "mersenne", "bogus"]), int_flag(-5, 300), st.booleans())
def test_search_contract(spec, p_max, as_json):
    check_contract(["search", "--spec", spec, "--p-max", p_max], as_json)


BOUND_FLAGS = ["--q", "--g", "--c", "--d", "--a", "--p", "--n", "--q-prime", "--b1", "--b2"]
BOUND_KINDS = ["max-rough", "min-rough", "max-fine", "min-fine", "fine-cor", "aut-ordinary",
               "case-I", "case-II-a", "case-II-b", "case-II-c", "case-IV-final", "bogus"]


@CONTRACT
@given(st.sampled_from(BOUND_KINDS), st.lists(int_flag(-3, 60), min_size=10, max_size=10),
       st.sets(st.sampled_from(BOUND_FLAGS), max_size=2), st.booleans())
def test_bounds_contract(kind, values, omitted, as_json):
    flags = [t for flag, v in zip(BOUND_FLAGS, values) if flag not in omitted for t in (flag, v)]
    check_contract(["bounds", "--kind", kind] + flags, as_json)


def ramification(order):
    """e:d lists with e | order and d near e - 1, or any text."""
    divisors = [e for e in range(1, order + 1) if order % e == 0] or [1]
    point = st.sampled_from(divisors).flatmap(lambda e: st.tuples(st.just(e), st.integers(e - 2, e + 6)))
    return st.one_of(st.lists(point, max_size=6).map(lambda pts: ",".join(f"{e}:{d}" for e, d in pts)),
                     st.text(alphabet="0123456789:, -a", max_size=10))


@CONTRACT
@given(int_flag(-2, 6), st.integers(-2, 24).flatmap(lambda n: st.tuples(st.just(str(n)), ramification(n))),
       st.one_of(st.none(), int_flag(-2, 30)), st.sampled_from(["g_X", "g_Y", "group_order"]), st.booleans())
def test_hurwitz_contract(gy, order_ram, gx, solve, as_json):
    order, ram = order_ram
    argv = ["hurwitz", "--gy", gy, "--order", order, f"--ram={ram}", "--solve", solve]
    check_contract(argv + (["--gx", gx] if gx is not None else []), as_json)
