"""Tiny-size self-test of the benchmark harness (not part of the test suite).

    python3 bench/selftest.py

Runs a few of the cheapest operations of each workload and checks that:
the checks accept superell's outputs and reject corrupted ones; a crash is
counted as a failed operation, not as a wrong answer; one seed always
gives the same inputs and the same digest; times are scaled by the host's
speed around them; the tracer sees the expected spans and puts every
patched binding back; and the harness computes every metric
BENCHMARK.json declares.  Takes a few seconds.
"""

from __future__ import annotations

import json
import sys

import hostspeed
import run
import tracing
import workloads
from workloads import CheckFailed

SEED = 7
failures = []


def expect(ok: bool, message: str):
    if not ok:
        failures.append(message)
        print(f"FAIL {message}")


def rejects(check, inp, result) -> bool:
    try:
        check(inp, result)
    except CheckFailed:
        return True
    return False


def cheapest(wl, k=3):
    first = next(wl.passes(SEED))
    return sorted(first, key=lambda inp: (inp.p, getattr(inp, "m", 0)))[:k]


def test_determinism(superell):
    for name, cls in workloads.WORKLOADS.items():
        a, b = cls.passes(SEED), cls.passes(SEED)
        expect([next(a), next(a)] == [next(b), next(b)], f"{name}: one seed gives different inputs")
        wl = cls(superell)
        inputs = cheapest(wl)
        d1 = workloads.digest(run.run_op(wl, inp).output_sha for inp in inputs)
        d2 = workloads.digest(run.run_op(wl, inp).output_sha for inp in inputs)
        expect(d1 == d2, f"{name}: digest differs between two runs of the same inputs")


def test_census(superell):
    wl = workloads.Census(superell)
    check = wl.checker()
    for curve in cheapest(wl):
        op = run.run_op(wl, curve, check)
        expect(not op.failed, f"census {curve.expr}: {op.crash or op.wrong}")
    curve = cheapest(wl, 1)[0]
    code, text = wl.call(wl.prepare(curve))
    report = json.loads(text)
    report["results"]["counts"][0]["count"] += 1
    expect(rejects(check, curve, (code, json.dumps(report))), "census: a wrong count passes")
    expect(rejects(check, curve, (1, text)), "census: exit code 1 passes")
    report = json.loads(text)
    report["extra"] = 1
    expect(rejects(check, curve, (code, json.dumps(report))), "census: a report outside the schema passes")


def test_hasse_witt(superell):
    wl = workloads.HasseWitt(superell)
    check = wl.checker()
    for curve in cheapest(wl):
        op = run.run_op(wl, curve, check)
        expect(not op.failed, f"hasse-witt {curve.expr}: {op.crash or op.wrong}")
    curve = cheapest(wl, 1)[0]
    X, H, V = wl.call(wl.prepare(curve))
    rows = [list(r) for r in H.matrix.rows]
    rows[0][0] = rows[0][0] + X.field.one()
    bad = superell.HasseWittMatrix(superell.FieldMatrix(X.field, rows), H.genus, H.basis_labels)
    expect(rejects(check, curve, (X, bad, V)), "hasse-witt: a wrong matrix entry passes")
    wrong = superell.PRankClass(V.stable_rank - 1, V.genus, V.verdict)
    expect(rejects(check, curve, (X, H, wrong)), "hasse-witt: a wrong stable rank passes")


def test_meataxe(superell):
    wl = workloads.MeatAxe(superell)
    check = wl.checker()
    for rep in [workloads.RepInput(5, 2, 1), workloads.RepInput(5, 3, 1), workloads.RepInput(3, 4, 1)]:
        op = run.run_op(wl, rep, check)
        expect(not op.failed, f"meataxe {rep}: {op.crash or op.wrong}")
    R, V = wl.call(workloads.RepInput(5, 3, 1))
    flipped = superell.IrreducibilityVerdict("absolutely-irreducible", None, 1)
    expect(rejects(check, workloads.RepInput(5, 3, 1), (R, flipped)), "meataxe: a wrong verdict passes")
    K = R.field
    ones = superell.FieldMatrix.from_columns(K, [[K.one()] * R.dim])
    expect(not check.is_invariant_subspace(ones.columns(), list(R.generators)),
           "the all-ones line is invariant; pick another non-witness")
    fake = superell.IrreducibilityVerdict("reducible", ones, None)
    expect(rejects(check, workloads.RepInput(5, 3, 1), (R, fake)), "meataxe: a non-invariant witness passes")

    class Crashing(workloads.MeatAxe):
        def call(self, rep):
            raise AssertionError("boom")

    op = run.run_op(Crashing(superell), workloads.RepInput(3, 2, 1), check)
    expect(op.crash is not None and op.wrong is None, "a crash is not a failed op, or counts as a wrong answer")


def test_hostspeed(superell):
    ref = hostspeed.REFERENCE_S
    factors = hostspeed.factors([ref, 2 * ref, 2 * ref, 2 * ref, ref])
    expect(all(abs(f - 0.5) < 1e-12 for f in factors), "the factor is not the reference over the local median")

    class Small(workloads.MeatAxe):
        pass_seconds = 1.0

        @staticmethod
        def passes(seed):
            while True:
                yield [workloads.RepInput(5, 2, seed), workloads.RepInput(5, 3, seed)]

    wl = Small(superell)
    ops, npasses, factor = run.measure(wl, SEED, 2.0, wl.checker(), 2)
    expect(npasses == 1 and len(ops) == 2, f"{npasses} passes of {len(ops)} ops for a budget of one pass")
    expect(0.1 < factor < 10, f"implausible host speed factor {factor}")
    expect(all(not op.failed and op.seconds > 0 and 0.1 < op.seconds / op.raw_seconds < 10 for op in ops),
           "scaled op times are missing or implausible")


def test_tracing(superell):
    originals = {
        "superell.cartier.count_points": superell.cartier.count_points,
        "superell.curve.count_points": superell.curve.count_points,
        "Polynomial.eval": superell.Polynomial.eval,
        "FieldElement.__mul__": superell.FieldElement.__mul__,
    }
    census = workloads.Census(superell)
    curve = cheapest(census, 1)[0]
    tracer, counter = tracing.Tracer(), tracing.Counter()
    tracer.install()
    try:
        expect(superell.cartier.count_points is not originals["superell.cartier.count_points"],
               "the cartier binding of count_points is not traced")
        run.run_op(census, curve, after=tracer.fold)
    finally:
        tracer.uninstall()
    expect(tracer.calls["cli.main"] == 1, "cli.main span missing")
    expect(tracer.calls["curve.count_points"] >= 1, "count_points span missing")
    expect(tracer.calls_under[("poly.Polynomial.eval", "curve.count_points")] > 0,
           "eval spans are not parented by count_points")
    expect(all(v >= 0 for v in tracer.self_s.values()), "negative self time")
    counter.install()
    try:
        run.run_op(census, curve)
    finally:
        counter.uninstall()
    expect(counter.calls["ff.FieldElement.__mul__"] > 0, "FieldElement.__mul__ not counted")
    now = {
        "superell.cartier.count_points": superell.cartier.count_points,
        "superell.curve.count_points": superell.curve.count_points,
        "Polynomial.eval": superell.Polynomial.eval,
        "FieldElement.__mul__": superell.FieldElement.__mul__,
    }
    expect(now == originals, "uninstall left a patched binding behind")

    declared = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    layer = run.per_layer(tracer, counter, 1, 0.0)
    expect({m["name"] for m in declared["per_layer"]} <= set(layer), "per-layer metrics missing")
    ops = [run.run_op(census, curve)]
    e2e = run.end_to_end(ops, 0.1, run.peak_rss_mb())
    expect({m["name"] for m in declared["end_to_end"]} <= set(e2e), "end-to-end metrics missing")


def main() -> int:
    superell = run.import_superell()
    for test in (test_determinism, test_census, test_hasse_witt, test_meataxe, test_hostspeed, test_tracing):
        test(superell)
        print(f"{test.__name__}: {'ok' if not failures else 'failures so far: ' + str(len(failures))}")
    print("selftest ok" if not failures else f"selftest FAILED ({len(failures)})")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
