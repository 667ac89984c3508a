"""Golden MeatAxe outputs: the sha256 of (verdict, endo_dim, witness) per
module and seed.

The hashes pin `meataxe_decide` and `decide_irreducibility` byte for
byte: a change to the eigen-step (char poly, root order, null vectors,
spins) or to the structural and grading certificates that moved any
verdict or witness fails here.  The canonical modules cover every (p, m)
with m | p + 1 and p <= 23, Hermitian included.  Their first samples are
generators, which decide every one of them, so the seeds agree; the
conjugated sums below have generators without eigenvalues in the field,
so their verdicts come from the seeded random samples.
`decide_irreducibility` decides the reducible canonical modules by the
grading certificate, whose witness is the j = 1 block: the subspace the
MeatAxe finds, with its unit vectors in ascending order where the
MeatAxe lists them in spin order (`GRADED`).
Regenerate a hash only for a deliberate change of output, and say so.
"""

import hashlib
import random

import pytest

from superell.canrep import RepresentationModule, canonical_module, certificate, decide_irreducibility, meataxe_decide
from superell.ff import make_field
from superell.linalg import FieldMatrix
from superell.poly import roots_in_field

SEEDS = (0, 1, 12345)
DECIDERS = (meataxe_decide, decide_irreducibility)

IRREDUCIBLE = "e598eace1a72938fbf66b147447e79b52478b58b714ab6ddf0dcd3fcdb8a7c97"

CANONICAL = {
    (2, 3): IRREDUCIBLE,
    (3, 2): IRREDUCIBLE,
    (3, 4): IRREDUCIBLE,
    (5, 2): IRREDUCIBLE,
    (5, 3): "e5255afc30571c880a9d8a6344b5e90faa40aa1e4b6b9a9401cbca5168865b94",
    (5, 6): IRREDUCIBLE,
    (7, 2): IRREDUCIBLE,
    (7, 4): "6141acb146ad743623cea757692b4888c64f00d4e69a6af2c1d5c758503bb23f",
    (7, 8): IRREDUCIBLE,
    (11, 2): IRREDUCIBLE,
    (11, 3): "52e9068cadaf3fe61df10140a2f6007306f31915410eb3c1107f58627c00d0e5",
    (11, 4): "8c393702dafc9e2baa6339a631e6effcb746a2f486dcec6dd8fbb5d36ac1a140",
    (11, 6): "ebeab8047eebd086374887b483c91f9a5d306e7a9e12c94b474ce97e92efd839",
    (11, 12): IRREDUCIBLE,
    (13, 2): IRREDUCIBLE,
    (13, 7): "5915a33825b8debda8136b57381b70f61843ba7e9bb0a08699f39324993cf95f",
    (13, 14): IRREDUCIBLE,
    (17, 2): IRREDUCIBLE,
    (17, 3): "8fbc1b0d0350f9956aec0b49453b6ef9ea1aa64d5c7619e78e7e1c37f29da149",
    (17, 6): "e2bee528d0b712fb4e3fc8725ae9a2804c7d355671339e3d15310e108e28a1f7",
    (17, 9): "25c78eb72b9417e3360db697f6645bd29626357242136a1d2afa5f3e5cd86c3b",
    (17, 18): IRREDUCIBLE,
    (19, 2): IRREDUCIBLE,
    (19, 4): "992d09c72a1d51af5d51fa26816345338c52adf6d664526af2e9ecace83a042e",
    (19, 5): "2502f1827138d0ba34b9c5ecf3eb6135c7dea73e5c3a3a5e15ea2bae56cdb215",
    (19, 10): "89f699745b47c6653a10fb4042ffd36418c60b0c14e9398fceb4100f10d78aff",
    (19, 20): IRREDUCIBLE,
    (23, 2): IRREDUCIBLE,
    (23, 3): "55216c0f54426843684ede7e2f654a88849924b28b35ab4063e8098c3f711fa1",
    (23, 4): "b01843281b993f0195fed226141b8a2fc8342d8225a37dbd80d614b05ef2224b",
    (23, 6): "c672a5c533062553e574e5d4f4798cdf0740d4f920720a516ce0157f4aff3a72",
    (23, 8): "e34ccedb7c2132d83b565d8477cf1ffd64baa9b1278f152e34923426fc6cc5fc",
    (23, 12): "f420fcbdde34b50b2f394f9e7f9c8a7bec73932dbb12022cddcdb922e417e45a",
    (23, 24): IRREDUCIBLE,
}


# decide_irreducibility's hash where the grading witness orders the j = 1
# block's unit vectors differently from the MeatAxe's spin
GRADED = {
    (11, 3): "6686969d93ad2256dd195af48857b66f6af02f0ce5c678ecec0cfb6997469475",
    (17, 3): "3a565941e27dab474772669d2bcfeccab3e08a243ef73f0a2bed9891fda3f9ae",
    (19, 4): "77155013675b7bfe973f03a75c150f4570cfa5a4f5891c264707c423b835da62",
    (19, 5): "bc7bfc63697190a31b5c2824e9d61c6681de91bf4e03486c9b879c262b2cfc3c",
    (23, 3): "2c2a82e829cbd7887efe642d456246948a77e623b5744c72ed19a9388ff5e27c",
    (23, 4): "a9c235b11434f6c67cd720dd9c88ba60a408fe4c3e314ea126289fa550324e25",
    (23, 6): "131395bd539e2c5edb2ceb7bf9309c34da0504f8d01985fc386218685ee5ae7c",
}


def digest(v):
    w = v.witness
    shape = None if w is None else (w.nrows, w.ncols)
    residues = None if w is None else tuple(c for row in w.rows for e in row for c in e.coeffs)
    return hashlib.sha256(repr((v.verdict, v.endo_dim, shape, residues)).encode()).hexdigest()


@pytest.mark.parametrize("p,m", sorted(CANONICAL))
def test_canonical_meataxe_outputs_are_pinned(p, m):
    R = canonical_module(p, m)
    for decide in DECIDERS:
        expected = GRADED.get((p, m), CANONICAL[(p, m)]) if decide is decide_irreducibility else CANONICAL[(p, m)]
        for seed in SEEDS:
            assert digest(decide(R, seed=seed)) == expected, (decide.__name__, p, m, seed)


def rootless_blocks(K, sizes, count, rng):
    """count generators, each a random block-diagonal matrix with one block
    per size whose char poly has no root in K."""
    elements = list(K.elements())
    gens = []
    for _ in range(count):
        blocks = []
        for n in sizes:
            while True:
                B = FieldMatrix(K, [[rng.choice(elements) for _ in range(n)] for _ in range(n)])
                if not roots_in_field(B.charpoly(), K):
                    break
            blocks.append(B.rows)
        dim, rows, offset = sum(sizes), [], 0
        for n, block in zip(sizes, blocks):
            for r in block:
                rows.append([K.zero()] * offset + list(r) + [K.zero()] * (dim - offset - n))
            offset += n
        gens.append(FieldMatrix(K, rows))
    return gens


def conjugated_module(p, k, sizes, count, seed):
    """A module over F_{p^k}: block sums with rootless blocks, conjugated by
    a random invertible matrix, so that no generator has an eigenvalue."""
    K, rng = make_field(p, k), random.Random(seed)
    gens = rootless_blocks(K, sizes, count, rng)
    dim, elements = sum(sizes), list(K.elements())
    while True:
        P = FieldMatrix(K, [[rng.choice(elements) for _ in range(dim)] for _ in range(dim)])
        if P.rank() == dim:
            break
    Pinv = P.inverse()
    gens = tuple(P @ g @ Pinv for g in gens)
    return RepresentationModule(p=p, m=0, field=K, dim=dim, generators=gens, labels=("g",) * count)


SAMPLED = {
    (5, 1, (2, 3), 2, 0): {
        0: "cc5f3957676f412d9ced5b0df6be3ddb56a850ca29e3df6fd8324533e06fe8d1",
        1: "cc5f3957676f412d9ced5b0df6be3ddb56a850ca29e3df6fd8324533e06fe8d1",
        12345: "eb09719dea48f83b6e9a58abaf03bdc3ff808c3e6542e1991393f1e4e0558cc5"},
    (3, 2, (2, 2), 2, 1): {
        0: "61e98258a6a58cb810228539534c64240a95cf570df9674dc4c9440854fb3f5e",
        1: "efcf2de144af49920090f8a9be8bce3df308f943677a014eb12d4cdfc765cf5d",
        12345: "61e98258a6a58cb810228539534c64240a95cf570df9674dc4c9440854fb3f5e"},
    (7, 1, (3,), 2, 2): {0: IRREDUCIBLE, 1: IRREDUCIBLE, 12345: IRREDUCIBLE},
    (2, 2, (2, 3), 3, 3): {
        0: "f6ca394151cc5d690229024b0b2bac7722726a0e96b87e7e3acdc8489b4e5501",
        1: "aa7624b61e13c2384db744ad93b892d0e1acbff0d3db577d8eac96fe2c069b86",
        12345: "b0f0662e22be399794316c117cd9116092ab88f22655e060d70c09542c019af9"},
    (5, 2, (3, 4), 3, 4): {
        0: "7e88f7b9dbf84ddd4c4e03a5330be6a0bc3740957e8b0b13de585d3bbde53c84",
        1: "8afc7b2cd232887561d01384e6b56cbae451d5daaa652b1c73a7a67f4630b6d9",
        12345: "7e88f7b9dbf84ddd4c4e03a5330be6a0bc3740957e8b0b13de585d3bbde53c84"},
    (11, 2, (2, 2, 3), 2, 5): {
        0: "e28d9cf4c81e8d5a8100f2161997a06bdc2b80385e32c3deb8a00d192242aace",
        1: "7fdb936e652f5a003c261b2668ad43874bfb40b514b9b02916b4c973a65cacdb",
        12345: "7fdb936e652f5a003c261b2668ad43874bfb40b514b9b02916b4c973a65cacdb"},
}


@pytest.mark.parametrize("case", sorted(SAMPLED))
def test_sampled_meataxe_outputs_are_pinned(case):
    R = conjugated_module(*case)
    for decide in DECIDERS:
        for seed in SEEDS:
            assert digest(decide(R, seed=seed)) == SAMPLED[case][seed], (decide.__name__, case, seed)


@pytest.mark.parametrize("case", sorted(SAMPLED))
def test_sampled_modules_have_no_structural_certificate(case):
    # no generator of a conjugated sum is diagonal, monomial or triangular
    R = conjugated_module(*case)
    assert certificate(R) is None
