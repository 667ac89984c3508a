"""The bench's first-pass outputs are pinned.

`bench/run.py --seed 1` prints a digest of the seed-1 first pass of a
workload: sha256 over the sha256 of each operation's canonical output, in
pass order.  This test imports `bench/workloads.py` without changing it
(the `bench_workloads` fixture), runs the same pass in-process and checks
the same digest, so a change that moves any benchmarked output fails here
as well as in the bench.
"""

import hashlib

import pytest

import superell
import superell.cli  # noqa: F401  (the census entry point)

FIRST_PASS_DIGESTS = {
    "census": "27f139ee4ee33dee32bf143e9e8d0bae1a3842a417e05f6891eaa89de7c3aef2",
    "hasse-witt": "8babccb926a6a1584496da1a61d15d96f140fb38722e7b272cc69f5b611de0db",
    "meataxe": "490ef1f6656841b7fc0e616626a79f47a2c7bf6ae8f9c989fe57ebcc051d3985",
}


@pytest.mark.parametrize("name", sorted(FIRST_PASS_DIGESTS))
def test_first_pass_digest_of_seed_1(name, bench_workloads):
    wl = bench_workloads.WORKLOADS[name](superell)
    shas = [hashlib.sha256(wl.canonical(wl.call(wl.prepare(inp)))).digest() for inp in next(wl.passes(1))]
    assert bench_workloads.digest(shas) == FIRST_PASS_DIGESTS[name]
