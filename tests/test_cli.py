import dataclasses
import gc
import json
import time
from importlib import resources

import pytest

from superell import casecheck, cli, curve as curvemod


def run(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, argv):
    code, out, err = run(capsys, argv + ["--json"])
    return code, json.loads(out) if out.strip() else None, err


def load_schema():
    with resources.files("superell").joinpath("report_schema.json").open() as fh:
        return json.load(fh)


def validate_report(report):
    """Minimal structural validator for the shipped schema."""
    schema = load_schema()
    assert schema["type"] == "object"
    for key in schema["required"]:
        assert key in report, f"missing key {key}"
    assert set(report) <= set(schema["properties"]), "unexpected extra keys"
    assert report["schema_version"] == schema["properties"]["schema_version"]["const"]
    assert isinstance(report["command"], str)
    assert isinstance(report["inputs"], dict)
    assert isinstance(report["results"], dict)
    assert isinstance(report["provenance"], list)
    assert all(isinstance(s, str) for s in report["provenance"])


def test_classify_bolza_p3(capsys):
    code, rep, _ = run_json(capsys, ["classify", "y^2 = x^5 - x mod 3", "--e", "2"])
    assert code == 0
    validate_report(rep)
    assert rep["results"]["p_rank"]["verdict"] == "ordinary"
    assert rep["results"]["counts"][0]["status"] == "neither"
    assert rep["results"]["superspecial_consistent"] is True


def test_classify_bolza_p5(capsys):
    code, rep, _ = run_json(capsys, ["classify", "y^2 = x^5 - x mod 5", "--e", "2"])
    assert code == 0
    assert rep["results"]["p_rank"]["verdict"] == "superspecial"
    assert rep["results"]["counts"][0]["status"] in ("maximal", "minimal")


def test_classify_non_prime_exits_1(capsys):
    code, out, err = run(capsys, ["classify", "y^2 = x^5 - x mod 4"])
    assert code == 1
    assert "error" in err


@pytest.mark.parametrize("e", [",", " ", "", "x", "1,x", "0", "-1", "1,,2", "2,"])
def test_classify_rejects_a_malformed_e_list(capsys, e):
    code, out, err = run(capsys, ["classify", "y^2 = x^5 + 1 mod 3", "--e", e])
    assert (code, out) == (1, "")
    assert "--e takes a comma list of positive integers" in err
    assert "invalid literal" not in err


def test_classify_e_list_may_repeat_and_space(capsys):
    assert run(capsys, ["classify", "y^2 = x^5 + 1 mod 3", "--e", "2, 1,2"])[1] == \
        run(capsys, ["classify", "y^2 = x^5 + 1 mod 3", "--e", "1,2"])[1]


def test_classify_even_modulus_with_huge_cofactor_exits_1(capsys):
    # 2 (2^61 - 1): the primality test stops at the factor 2
    code, out, err = run(capsys, ["classify", f"y^2 = x^5 - x mod {2 * (2**61 - 1)}"])
    assert code == 1
    assert "not prime" in err


def test_classify_large_prime_modulus_exits_1_at_once(capsys):
    # 2^61 - 1 is certified prime at once, then refused by the count's guard
    start = time.process_time()
    code, out, err = run(capsys, ["classify", "y^2 = x^5 - x mod 2305843009213693951", "--e", "1"])
    assert (code, out) == (1, "")
    assert "enumeration limit" in err
    assert time.process_time() - start < 5
    code, out, err = run(capsys, ["classify", f"y^2 = x^5 - x mod {2**127 - 1}", "--e", "1"])
    assert code == 1 and "cannot certify" in err


@pytest.mark.parametrize("e", ["30000000", "1,1000", "25"])
def test_classify_huge_e_exits_1_at_once(capsys, e):
    # p^e is never formed: 5^30000000 took 39 s of CPU, then failed to print
    start = time.process_time()
    code, out, err = run(capsys, ["classify", "y^2 = x^5 - x mod 5", "--e", e])
    assert (code, out) == (1, "")
    assert "enumeration limit" in err and f"5^{e.split(',')[-1]}" in err
    assert time.process_time() - start < 1


def test_classify_checks_every_estimate_before_it_counts(capsys):
    # the Hasse-Witt estimate refuses p = 4000037 before 4 * 10^6 points are counted
    start = time.process_time()
    code, out, err = run(capsys, ["classify", "y^2 = x^5 - x mod 4000037", "--e", "1"])
    assert (code, out) == (1, "")
    assert err == ("error: Hasse-Witt work estimate 10000094 (deg f (p-1)/2 coefficients + g^2 entries) "
                   "exceeds the budget 524288\n")
    assert time.process_time() - start < 0.5


def test_rep_refuses_a_huge_module_before_building_it(capsys):
    # dim 500001: about 5 * 10^11 entries, refused before any is built
    start = time.process_time()
    code, out, err = run(capsys, ["rep", "--p", "1000003", "--m", "2"])
    assert (code, out) == (1, "")
    assert "canonical module work estimate 250001000001" in err and "exceeds the budget" in err
    assert time.process_time() - start < 1


def test_rep_hermitian_p_31_takes_under_two_seconds(capsys):
    # dim 465: the MeatAxe took about 11 s here; the structural certificate
    # decides it, and text mode lists no matrix
    start = time.perf_counter()
    code, out, _ = run(capsys, ["rep", "--p", "31", "--m", "32"])
    elapsed = time.perf_counter() - start
    assert (code, out) == (0, "canonical representation for p=31, m=32: dim 465\n"
                              "verdict: absolutely-irreducible (commutant dimension 1)\n")
    assert elapsed < 2, f"rep --p 31 --m 32 took {elapsed:.2f} s of wall time"


def test_rep_json_names_the_route_of_its_verdict(capsys):
    routes = {(7, 2): "unipotent-flag-certificate", (5, 6): "torus-weight-connectivity-certificate",
              (5, 3): "diagonal-grading-certificate", (2, 3): "meataxe-dual-spin-certificate"}
    for (p, m), route in routes.items():
        _, rep, _ = run_json(capsys, ["rep", "--p", str(p), "--m", str(m)])
        assert rep["provenance"] == ["holomorphic-differential-basis", "pullback-generator-matrices", route]


def test_search_past_the_predicates_bound_takes_no_sieve(capsys):
    start = time.process_time()
    code, out, err = run(capsys, ["search", "--spec", "tame-inside", "--p-max", "100000000"])
    assert code == 0 and "solution primes: [2, 5]" in out
    assert time.process_time() - start < 1


def test_classify_stable_rank_at_genus_500_takes_seconds(capsys):
    # a singular Hasse-Witt matrix at genus 500: its stable rank is the rank
    # of A^500, which the g-fold product took 30 s of CPU to reach
    start = time.process_time()
    code, out, err = run(capsys, ["classify", "y^2 = x^1001 + x mod 7", "--e", "1"])
    assert code == 0, err
    assert "p-rank: 20 of 500  -> intermediate" in out
    assert time.process_time() - start < 10


@pytest.mark.parametrize("curve", [
    "y^2 = x^5 - x mod 1000003",     # f^500001 has 2.5M coefficients
    "y^2 = x^20001 + x mod 7",       # genus 10000: a 10^8-entry window
])
def test_classify_refuses_hasse_witt_over_budget_at_once(capsys, curve):
    start = time.process_time()
    code, out, err = run(capsys, ["classify", curve, "--e", "1"])
    assert (code, out) == (1, "")
    assert "exceeds the budget" in err
    assert time.process_time() - start < 2


def test_classify_refuses_a_degree_million_curve_within_two_seconds(capsys):
    # the 10^6 coefficients of f stay int residues through the parse, f'
    # and gcd(f, f'), so the budget refusal comes after well under 2 s
    start = time.process_time()
    code, out, err = run(capsys, ["classify", "y^2 = x^999999 + x mod 3", "--e", "1"])
    assert (code, out) == (1, "")
    assert err == ("error: Hasse-Witt work estimate 250000000000 (deg f (p-1)/2 coefficients + g^2 entries) "
                   "exceeds the budget 524288\n")
    assert time.process_time() - start < 2


@pytest.mark.parametrize("curve, e", [
    ("y^2 = x^7 + 3*x + 1 mod 31", "1,2"),
    ("y^2 = x^5 - x mod 5", "1"),  # superspecial: the F_25 count made for the verdict
])
def test_classify_asserts_the_manin_congruence(capsys, monkeypatch, curve, e):
    # the true counts pass, for every e counted; one point too many does not
    assert run(capsys, ["classify", curve, "--e", "1,2,3"])[0] == 0
    count_points = curvemod.count_points

    def one_too_many(X, n):
        pc = count_points(X, n)
        return dataclasses.replace(pc, count=pc.count + 1) if n == 2 else pc

    monkeypatch.setattr(curvemod, "count_points", one_too_many)
    with pytest.raises(AssertionError, match="Manin"):
        cli.main(["classify", curve, "--e", e])


def test_classify_inconsistent_twist_exits_2(capsys):
    code, rep, _ = run_json(capsys, ["classify", "y^2 = x^5 - 2x mod 5", "--e", "2"])
    assert code == 2
    assert rep["results"]["superspecial_consistent"] is False


@pytest.mark.parametrize("curve, code, counted", [
    ("y^2 = x^5 - x mod 3", 0, [1]),     # ordinary: the F_9 count is never read
    ("y^2 = x^5 - x mod 5", 0, [1, 2]),  # superspecial: checked against F_25
    ("y^2 = x^5 - 2*x mod 5", 2, [1, 2]),
])
def test_classify_counts_over_fp2_only_for_superspecial(capsys, monkeypatch, curve, code, counted):
    seen = []
    count_points = curvemod.count_points

    def recording(X, e):
        seen.append(e)
        return count_points(X, e)

    monkeypatch.setattr(curvemod, "count_points", recording)
    got, rep, _ = run_json(capsys, ["classify", curve, "--e", "1"])
    assert (got, seen) == (code, counted)
    assert rep["results"]["superspecial_consistent"] is (code == 0)


def test_classify_general_model(capsys):
    code, rep, _ = run_json(capsys, ["classify", "y^3 = x^4 + 1 mod 7"])
    assert code == 0
    validate_report(rep)
    assert rep["results"]["curve"]["kind"] == "general"
    assert rep["results"]["genus"] == 3
    assert "hasse_witt" not in rep["results"]


def test_classify_constant_f_exits_1(capsys):
    code, out, err = run(capsys, ["classify", "y^2 = 3 mod 5"])
    assert code == 1
    assert "error" in err and "Traceback" not in err


def test_classify_byte_stable(capsys):
    argv = ["classify", "y^2 = x^5 - x mod 5", "--e", "1,2", "--json"]
    code1, out1, _ = run(capsys, argv)
    code2, out2, _ = run(capsys, argv)
    assert code1 == code2 == 0
    assert out1 == out2


def test_rep_irreducible(capsys):
    code, rep, _ = run_json(capsys, ["rep", "--p", "5", "--m", "2"])
    assert code == 0
    validate_report(rep)
    assert rep["results"]["verdict"] == "absolutely-irreducible"
    assert rep["results"]["dim"] == 2
    assert rep["results"]["endo_dim"] == 1


def test_rep_characteristic_two(capsys):
    # F_4 has no u, v != 0 with u^3 + v^3 = 1; the module is a line
    code, rep, _ = run_json(capsys, ["rep", "--p", "2", "--m", "3"])
    assert code == 0
    validate_report(rep)
    assert rep["results"]["dim"] == 1
    assert rep["results"]["verdict"] == "absolutely-irreducible"


def test_rep_reducible_with_witness(capsys):
    code, rep, _ = run_json(capsys, ["rep", "--p", "5", "--m", "3"])
    assert code == 0
    assert rep["results"]["verdict"] == "reducible"
    assert rep["results"]["witness_columns"]


def test_rep_bad_m_exits_1(capsys):
    code, _, err = run(capsys, ["rep", "--p", "5", "--m", "4"])
    assert code == 1
    assert "error" in err


def test_search_tame_outside(capsys):
    code, rep, _ = run_json(capsys, ["search", "--spec", "tame-outside", "--p-max", "200"])
    assert code == 0
    validate_report(rep)
    assert set(rep["results"]["solution_primes"]) <= {2, 3, 5, 7}


def test_bounds_aut_ordinary(capsys):
    code, rep, _ = run_json(capsys, ["bounds", "--kind", "aut-ordinary", "--g", "100"])
    assert code == 0
    assert 389000 < rep["results"]["value"] <= 390000


def test_bounds_case_iv(capsys):
    code, rep, _ = run_json(capsys, ["bounds", "--kind", "case-IV-final", "--p", "3", "--n", "1"])
    assert code == 0
    assert rep["results"]["value"] == 72


def test_bounds_case_iv_prints_the_largest_admitted_n(capsys):
    # 3^(4n) <= 10^4299 at n = 2252, so |G| has 4298 digits, under CPython's
    # default limit of 4300 on an int printed in decimal
    n = 2252
    assert 3 ** (4 * n) <= casecheck.CLOSED_FORM_BUDGET < 3 ** (4 * n + 4)
    code, out, _ = run(capsys, ["bounds", "--kind", "case-IV-final", "--p", "3", "--n", str(n)])
    assert code == 0
    assert out.startswith(f"case-IV-final: |G| = {3 ** (4 * n) - 3 ** (2 * n)}\n")


@pytest.mark.parametrize("n", [2253, 1000000])
def test_bounds_case_iv_refuses_a_larger_n_at_once(capsys, n):
    # n = 10^6 took 81 s of wall time before it failed printing |G|
    start = time.process_time()
    code, out, err = run(capsys, ["bounds", "--kind", "case-IV-final", "--p", "3", "--n", str(n)])
    elapsed = time.process_time() - start
    assert (code, out) == (1, "")
    assert f"work estimate 3^{4 * n} (p^(4n), a bound on |G|) exceeds the budget {casecheck.CLOSED_FORM_BUDGET}" in err
    assert elapsed < 1, f"refusing n = {n} took {elapsed:.2f} s of CPU"


def test_bounds_divisor(capsys):
    code, rep, _ = run_json(capsys, ["bounds", "--kind", "max-rough", "--q", "5"])
    assert code == 0
    assert rep["results"]["value"] == 36000


def test_bounds_missing_param(capsys):
    code, _, err = run(capsys, ["bounds", "--kind", "aut-ordinary"])
    assert code == 1
    code, _, err = run(capsys, ["bounds", "--kind", "case-I", "--g", "5"])
    assert code == 1
    assert "--a" in err and "--d" in err


@pytest.mark.parametrize("argv, message", [
    (["--kind", "case-II-a", "--g", "5", "--q", "3", "--q-prime", "3", "--b2", "0"], "need b2 >= 1"),
    (["--kind", "case-II-b", "--g", "5", "--a", "2", "--q-prime", "3", "--b2", "0"], "need b2 >= 1"),
    (["--kind", "case-II-c", "--g", "5", "--q", "3", "--b1", "0", "--b2", "0"], "need b1 + b2 >= 1"),
    (["--kind", "case-II-c", "--g", "5", "--q", "2", "--b1", "1", "--b2", "1"], "need q != 2"),
])
def test_bounds_case_ii_degenerate_inputs_exit_1(capsys, argv, message):
    code, out, err = run(capsys, ["bounds"] + argv)
    assert (code, out) == (1, "")
    assert message in err and "Traceback" not in err


def test_hurwitz_double_cover(capsys):
    code, rep, _ = run_json(
        capsys, ["hurwitz", "--gy", "0", "--order", "2", "--ram", "2:1,2:1,2:1,2:1,2:1,2:1"]
    )
    assert code == 0
    validate_report(rep)
    assert rep["results"]["value"] == 2
    assert rep["results"]["feasible"] is True


def test_hurwitz_infeasible_exits_2(capsys):
    code, rep, _ = run_json(capsys, ["hurwitz", "--gy", "0", "--order", "2", "--ram", "2:1"])
    assert code == 2
    assert rep["results"]["feasible"] is False


def test_hurwitz_malformed_ram_exits_1(capsys):
    code, _, err = run(capsys, ["hurwitz", "--gy", "0", "--order", "2", "--ram", "2-1"])
    assert code == 1
    assert "usage error" in err


def test_hurwitz_vanishing_right_side_exits_1(capsys):
    # |G| is unconstrained when 2 g_Y - 2 + sum d/e = 0: an error line, not a traceback
    code, out, err = run(capsys, ["hurwitz", "--gy", "1", "--order", "2", "--gx", "1", "--solve", "group_order"])
    assert (code, out) == (1, "")
    assert err == "error: right side vanishes; |G| is unconstrained\n"


def test_unknown_search_spec_exits_1(capsys):
    code, _, err = run(capsys, ["search", "--spec", "bogus"])
    assert code == 1


def test_human_readable_output(capsys):
    code, out, _ = run(capsys, ["classify", "y^2 = x^5 - x mod 5", "--e", "2"])
    assert code == 0
    assert "genus: 2" in out
    assert "superspecial" in out


def test_json_text_matches_the_indenting_encoder():
    report = {"a": [1, -2.5, float("nan"), float("inf"), None, True, False], "é\n\"": "ω\t",
              "empty": [{}, [], ()], "3": {"2.5": (1, [2, {"x": 10**30}])}, "": {"t": {"f": ""}}}
    assert cli._dumps(report) == json.dumps(report, indent=2)
    assert [cli._dumps(v) for v in ({}, [], 7, "s")] == ["{}", "[]", "7", '"s"']


def test_json_report_leaves_no_reference_cycle(capsys):
    gc.collect()
    gc.disable()
    try:
        assert cli.main(["classify", "y^2 = x^5 + 3x + 1 mod 23", "--e", "1,2", "--json"]) == 0
        assert gc.collect() == 0
    finally:
        gc.enable()
    assert json.loads(capsys.readouterr().out)["results"]["genus"] == 2
