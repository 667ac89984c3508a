"""superell benchmark: one workload, one process, one closed-loop client.

    python3 bench/run.py --workload census --seed 1 --seconds 20 --trace 0

Workloads (see workloads.py): census, hasse-witt, meataxe.  The run
builds its inputs from --seed, runs as many whole passes of operations as
take --seconds of operation time at the seed commit, checks every output
outside the timed region, and prints a human-readable report followed by one JSON
line: {"correct", "attempted", "failed", "metrics"}.  Times are the CPU
time of the one thread (set-up: of the child interpreter), reported at the
reference host speed (see hostspeed.py); the human report also gives them
unscaled.

--trace 0 reports the end-to-end metrics of BENCHMARK.json.  --trace 1
runs a third of the time budget untraced, replays the same inputs with
spans on every layer boundary and again with the ff operators counted, and
reports the per-layer metrics, each per operation, plus the tracing
overhead.

superell is imported from ../src next to this directory and nowhere else;
without it the run exits 1 before printing any result.
"""

from __future__ import annotations

import argparse
import collections
import hashlib
import json
import math
import pathlib
import resource
import statistics
import subprocess
import sys
import time

BENCH_DIR = pathlib.Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC_DIR = ROOT / "src"
SETUP_REPEATS = 7

import hostspeed
import tracing
import workloads

# Set-up as a user pays it: a fresh interpreter imports superell and builds
# the first pass of inputs.
SETUP_SNIPPET = (
    "import sys; sys.path[:0] = sys.argv[1:3]; import superell.cli, workloads; "
    "next(workloads.WORKLOADS[sys.argv[3]].passes(int(sys.argv[4])))"
)


def import_superell():
    if not (SRC_DIR / "superell" / "__init__.py").is_file():
        raise SystemExit(f"superell sources not found in {SRC_DIR}")
    sys.path.insert(0, str(SRC_DIR))
    import superell
    import superell.cli  # noqa: F401  (the census entry point)

    if pathlib.Path(superell.__file__).resolve().parent != SRC_DIR / "superell":
        raise SystemExit(f"imported superell from {superell.__file__}, not from {SRC_DIR}")
    return superell


def children_cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def time_setup(workload: str, seed: int) -> float:
    """Median CPU time (user + system) of SETUP_REPEATS fresh interpreters,
    unscaled.  The kernel runs too unevenly right after a child process
    exits to scale each interpreter by its neighbours; the run scales the
    median by the host's speed over the whole run instead."""
    times = []
    for _ in range(SETUP_REPEATS):
        start = children_cpu_s()
        subprocess.run(
            [sys.executable, "-c", SETUP_SNIPPET, str(BENCH_DIR), str(SRC_DIR), workload, str(seed)],
            check=True,
        )
        times.append(children_cpu_s() - start)
    return statistics.median(times)


class Op:
    __slots__ = ("input", "seconds", "raw_seconds", "output_sha", "crash", "wrong")

    def __init__(self, inp):
        self.input = inp
        self.seconds = 0.0       # at the reference host speed, once measure() has scaled it
        self.raw_seconds = 0.0   # unscaled
        self.output_sha = b""    # not the output itself, which would count in peak_rss_mb
        self.crash = None        # the exception an op raised, as text
        self.wrong = None        # why a check rejected its output

    @property
    def failed(self) -> bool:
        return self.crash is not None or self.wrong is not None


def run_op(wl, inp, check=None, after=None) -> Op:
    """One timed call; the check and `after` run outside the timing.  The
    time is the thread's CPU time, which leaves out the time the hypervisor
    gives this VM's CPU to others; superell's calls do no I/O and start no
    threads."""
    op = Op(inp)
    arg = wl.prepare(inp)
    start = time.thread_time()
    try:
        result, crash = wl.call(arg), None
    except Exception as exc:  # a crash is a failed op, never the end of the run
        result, crash = None, exc
    op.seconds = op.raw_seconds = time.thread_time() - start
    if after is not None:
        after()
    if crash is not None:
        op.crash = f"{type(crash).__name__}: {crash}"
        op.output_sha = hashlib.sha256(op.crash.encode()).digest()
        return op
    op.output_sha = hashlib.sha256(wl.canonical(result)).digest()
    if check is not None:
        try:
            check(inp, result)
        except Exception as exc:  # a wrong or malformed output
            op.wrong = f"{type(exc).__name__}: {exc}"
    return op


def measure(wl, seed: int, budget: float, check, sweeps: int):
    """As many whole passes as `sweeps` executions of fit in the budget at
    the workload's nominal pass cost (at least one); then the same inputs
    again, sweeps - 1 times.  The pass count does not depend on the clock,
    so a seed runs the same operations on every commit and at every host
    speed.  The host-speed kernel runs after every execution, and each
    execution's time is scaled to the reference speed by the kernel's
    timings around it.  An op's time is its best execution, which filters
    out the host's short slow periods; a repeat whose output differs is a
    failed op.  Returns the ops, the pass count and the median factor: the
    host's speed over the run."""
    npasses = max(1, int(budget / (sweeps * wl.pass_seconds)))
    passes = wl.passes(seed)
    speed = []

    def execute(inp, check=None):
        op = run_op(wl, inp, check)
        speed.append(hostspeed.sample())
        return op

    ops = [execute(inp, check) for _ in range(npasses) for inp in next(passes)]
    repeats = [[execute(op.input) for op in ops] for _ in range(sweeps - 1)]
    factors = hostspeed.factors(speed)
    for execution, factor in zip(ops + [again for sweep in repeats for again in sweep], factors):
        execution.seconds = execution.raw_seconds * factor
    for sweep in repeats:
        for op, again in zip(ops, sweep):
            op.seconds = min(op.seconds, again.seconds)
            op.raw_seconds = min(op.raw_seconds, again.raw_seconds)
            if again.output_sha != op.output_sha and not op.failed:
                op.wrong = "a repeated execution gave a different output"
    return ops, npasses, statistics.median(factors)


def percentile(ops, q: float, raw: bool = False) -> float:
    """Nearest-rank percentile of op time; failed ops rank as infinitely slow."""
    times = sorted(math.inf if op.failed else op.raw_seconds if raw else op.seconds for op in ops)
    value = times[max(math.ceil(q * len(times)) - 1, 0)]
    if math.isinf(value):
        raise SystemExit(f"more than {100 - 100 * q:.0f}% of operations failed; p{100 * q:.0f} is undefined")
    return value


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def end_to_end(ops, setup_s: float, rss_base_mb: float, raw: bool = False):
    timed = sum(op.raw_seconds if raw else op.seconds for op in ops)
    ok = sum(1 for op in ops if not op.failed)
    return {
        "setup_s": setup_s,
        "ops_per_s": ok / timed,
        "op_s.p50": percentile(ops, 0.50, raw),
        "op_s.p90": percentile(ops, 0.90, raw),
        "ok_frac": ok / len(ops),
        "peak_rss_mb": peak_rss_mb() - rss_base_mb,
    }


def replay(wl, inputs, after=None):
    return [run_op(wl, inp, after=after) for inp in inputs]


def per_layer(tracer, counter, n: int, overhead: float):
    per_op = lambda v: v / n  # noqa: E731
    m = {f"{name}.calls": per_op(c) for name, c in counter.calls.items()}
    m["ff.make_field.calls"] = per_op(tracer.calls["ff.make_field"])
    for module, qualname in tracing.SPANS:
        name = f"{module}.{qualname}"
        m[f"{name}.self_s"] = per_op(tracer.self_s[name])
    eval_span = "poly.Polynomial.eval"
    m[f"{eval_span}.calls"] = per_op(tracer.calls[eval_span])
    for parent in ("curve.count_points", "canrep.decide_irreducibility"):
        m[f"{eval_span}.calls.{parent}"] = per_op(tracer.calls_under[(eval_span, parent)])
        m[f"{eval_span}.self_s.{parent}"] = per_op(tracer.self_s_under[(eval_span, parent)])
    m["curve.count_points.calls_per_op"] = per_op(tracer.calls["curve.count_points"])
    m["cartier.hasse_witt.calls_per_op"] = per_op(tracer.calls["cartier.hasse_witt"])
    for name in ("curve.points_enumerated", "linalg.spin.dim_sum"):
        m[name] = per_op(tracer.work[name])
    samples = tracer.calls["canrep._sample_algebra_element"]
    m["canrep.samples_tried"] = per_op(samples)
    m["canrep.verdicts_per_sample"] = tracer.calls["canrep.decide_irreducibility"] / samples if samples else 0.0
    m["trace.overhead_frac"] = overhead
    return m


def report_metrics(values: dict, declared: list):
    """Keep exactly the declared metrics, with their declared units."""
    missing = [d["name"] for d in declared if d["name"] not in values]
    if missing:
        raise SystemExit(f"metrics not computed: {missing}")
    return {d["name"]: {"value": values[d["name"]], "unit": d["unit"]} for d in declared}


def print_ops_summary(ops, npasses: int, sweeps: int):
    failed = [op for op in ops if op.failed]
    print(f"ops {len(ops)} in {npasses} passes x {sweeps} sweeps, failed {len(failed)}, "
          f"fail_frac {len(failed) / len(ops):.4f}")
    reasons = collections.Counter(f"crash {op.crash}" if op.crash else f"wrong {op.wrong}" for op in failed)
    for reason, count in reasons.most_common():
        print(f"  failure x{count}: {reason}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    started = time.perf_counter()

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    superell = import_superell()
    raw_setup_s = None if args.trace else time_setup(args.workload, args.seed)
    wl = workloads.WORKLOADS[args.workload](superell)
    check = wl.checker()
    # The peak superell adds on top of the interpreter, the bench and the
    # check libraries (sympy, jsonschema), which are all loaded by now.
    rss_base_mb = peak_rss_mb()

    sweeps = 1 if args.trace else wl.sweeps
    budget = args.seconds / 3 if args.trace else args.seconds
    ops, npasses, speed_factor = measure(wl, args.seed, budget, check, sweeps)
    first_pass = len(ops) // npasses
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    print(f"digest {workloads.digest(op.output_sha for op in ops[:first_pass])} (first pass, {first_pass} ops)")
    print_ops_summary(ops, npasses, sweeps)

    samples = {}
    if not args.trace:
        values = end_to_end(ops, raw_setup_s * speed_factor, rss_base_mb)
        metrics = report_metrics(values, declared["end_to_end"])
        samples["setup_s"] = SETUP_REPEATS
        print(f"{'fail_frac':58s} {1 - values['ok_frac']:.6g} frac (n={len(ops)})")
        raw = end_to_end(ops, raw_setup_s, rss_base_mb, raw=True)
        print(f"{'host speed factor (median)':58s} {speed_factor:.6g}")
        for name in ("setup_s", "ops_per_s", "op_s.p50", "op_s.p90"):
            print(f"{name + ' unscaled':58s} {raw[name]:.6g} {metrics[name]['unit']}")
    else:
        inputs = [op.input for op in ops]
        tracer, counter = tracing.Tracer(), tracing.Counter()
        tracer.install()
        try:
            traced = replay(wl, inputs, after=tracer.fold)
        finally:
            tracer.uninstall()
        counter.install()
        try:
            counted = replay(wl, inputs)
        finally:
            counter.uninstall()
        for again in (traced, counted):
            for op, rerun in zip(ops, again):
                if rerun.output_sha != op.output_sha and not op.failed:
                    op.wrong = "a traced replay gave a different output"
        overhead = sum(op.raw_seconds for op in traced) / sum(op.raw_seconds for op in ops) - 1
        values = per_layer(tracer, counter, len(ops), overhead)
        metrics = report_metrics(values, declared["per_layer"])
        for (name, parent), calls in sorted(tracer.calls_under.items()):
            print(f"span {name} under {parent}: {calls / len(ops):.6g} calls/op, "
                  f"{tracer.self_s_under[(name, parent)] / len(ops):.6g} self s/op")
    for name, m in metrics.items():
        print(f"{name:58s} {m['value']:.6g} {m['unit']} (n={samples.get(name, len(ops))})")

    print(f"wall {time.perf_counter() - started:.1f} s")
    failed = sum(1 for op in ops if op.failed)
    correct = not any(op.wrong for op in ops)
    print(json.dumps({"correct": correct, "attempted": len(ops), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
