"""Work counts of the irreducibility decision: how many `spin` calls it
makes, and the summed dimensions of their closures.

The verdicts are pinned elsewhere (`test_meataxe_golden.py`); these counts
pin the work behind them, so a change that decides the same modules with
more spins fails here instead of only running slower.  `SPIN_WORK` is the
MeatAxe's own work (`meataxe_decide`); `DECIDE_WORK` is that of
`decide_irreducibility`, whose `certificate` decides every module of
dimension >= 2, the irreducible ones by its weight and flag premises and
the reducible ones by its grading premise, all with no spin; the one
module left to the MeatAxe, of dimension 1, needs none either.  The pairs are those of the
meataxe benchmark workload, read from `bench/workloads.py`.
"""

import pytest

from superell import canrep
from superell.canrep import canonical_module, decide_irreducibility, meataxe_decide

def spins_of(R, seed, monkeypatch, decide=meataxe_decide):
    """The closure dimension of every `spin` call that `decide` makes
    deciding R."""
    dims, spin = [], canrep.spin
    monkeypatch.setattr(canrep, "spin", lambda *args: dims.append(len(r := spin(*args))) or r)
    decide(R, seed=seed)
    return dims


# (p, m) -> (spin calls, summed closure dimensions) at seed 0
SPIN_WORK = {
    (2, 3): (0, 0),
    (3, 2): (0, 0),
    (3, 4): (2, 6),
    (5, 2): (3, 6),
    (5, 3): (1, 1),
    (5, 6): (2, 20),
    (7, 2): (3, 9),
    (7, 4): (1, 1),
    (7, 8): (2, 42),
    (11, 2): (3, 15),
    (11, 3): (1, 3),
    (11, 4): (1, 2),
    (11, 6): (1, 1),
    (11, 12): (2, 110),
    (13, 2): (3, 18),
    (13, 7): (1, 1),
    (17, 2): (3, 24),
    (17, 3): (1, 5),
    (17, 6): (1, 2),
    (17, 9): (1, 1),
    (19, 2): (3, 27),
    (19, 4): (1, 4),
    (19, 5): (1, 3),
    (19, 10): (1, 1),
    (23, 2): (3, 33),
    (23, 3): (1, 7),
    (23, 4): (1, 5),
    (23, 6): (1, 3),
    (23, 8): (1, 2),
    (23, 12): (1, 1),
}


# (p, m) -> (spin calls, summed closure dimensions) of decide_irreducibility at seed 0
DECIDE_WORK = {pm: (0, 0) for pm in SPIN_WORK}


def test_spin_work_covers_the_benchmark_pairs(bench_workloads):
    assert sorted(SPIN_WORK) == sorted(bench_workloads.meataxe_pairs())
    assert tuple(map(sum, zip(*SPIN_WORK.values()))) == (46, 353)
    assert tuple(map(sum, zip(*DECIDE_WORK.values()))) == (0, 0)


@pytest.mark.parametrize("p,m", sorted(SPIN_WORK))
def test_spin_work_is_pinned(p, m, monkeypatch):
    dims = spins_of(canonical_module(p, m), 0, monkeypatch)
    assert (len(dims), sum(dims)) == SPIN_WORK[(p, m)]


@pytest.mark.parametrize("p,m", sorted(DECIDE_WORK))
def test_decide_work_is_pinned(p, m, monkeypatch):
    dims = spins_of(canonical_module(p, m), 0, monkeypatch, decide_irreducibility)
    assert (len(dims), sum(dims)) == DECIDE_WORK[(p, m)]


@pytest.mark.parametrize("p", [11, 23, 199])
def test_scalar_sample_probes_one_vector(p, monkeypatch):
    # m = 2: the first sample, zeta = -I, probes e_1 alone (a full spin);
    # the next generator decides by the spin and the dual spin
    dims = spins_of(canonical_module(p, 2), 0, monkeypatch)
    assert dims == [(p - 1) // 2] * 3
