"""The CLI contract under generated input (MacIver et al. 2019).

For every argv drawn here `cli.main` returns 0, 1 or 2 and raises
nothing, stderr holds no traceback, `--json` output validates against
the shipped schema, and a rerun prints the same bytes.  Sizes are
bounded so that every call finishes quickly: primes up to 50, extension
exponents up to 2, and `rep` primes up to 13.
"""

import contextlib
import io
import json
import re
from importlib import resources

import jsonschema
from hypothesis import HealthCheck, given, settings, strategies as st

from superell import cli

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
                    st.sampled_from(["0", "", "1,,2", "a", "-1", "2,0", " 1"]))


@CONTRACT
@given(CURVES, st.one_of(st.none(), E_LISTS), st.booleans())
def test_classify_contract(curve, e, as_json):
    check_contract(["classify", curve] + (["--e", e] if e is not None else []), as_json)


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
