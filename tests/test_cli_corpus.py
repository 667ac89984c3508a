"""Golden `--json` corpus: fixed CLI commands and the sha256 of their output.

The hashes pin the byte-identical `--json` invariant: a refactor that
changes any verdict, count, matrix, witness or key order fails here.
Regenerate a hash only for a deliberate change of output, and say so.
The `rep` reports of (7, 2), (5, 6), (7, 8) and (11, 12) name the flag
or weight premise of the certificate that decides them in their
provenance, where they named the MeatAxe's dual spin; nothing else in
them changed.  Those of the reducible (7, 4), (11, 3), (11, 4), (13, 7)
and (23, 12) name its grading premise in its place; the witness of
(11, 3) lists the same three unit vectors in ascending order, where the
MeatAxe listed them in spin order, and nothing else in them changed.
"""

import hashlib

import pytest

from superell import cli

CORPUS = [
    (["classify", "y^2 = x^5 - x mod 5", "--e", "1,2"], 0,
     "bad2387214644b8b3cf3528f86fbaa7803fdbf82b9c75133d86e97bfddb2ce55"),
    (["classify", "y^2 = x^7 + 3*x + 1 mod 13", "--e", "1,2"], 0,
     "6ce2b4a9e7ba12b31815d6c249c54e8602d15645cb775a533a099cc7bf778c1c"),
    (["classify", "y^2 = x^9 + x^2 + 5 mod 31", "--e", "1,2"], 0,
     "188e6c4e489bd1b9597d2aabe99371a9de2e9061f80286ea388025a4f40e6099"),
    # --e 1 on an ordinary, a superspecial and an inconsistent twist
    (["classify", "y^2 = x^5 - x mod 3", "--e", "1"], 0,
     "665d4a9be3c80b030bee88dc195b5e3f3cc959278c1e222d343a1148a4d10aa6"),
    (["classify", "y^2 = x^5 - x mod 5", "--e", "1"], 0,
     "8ac1d3af24b28fdf539409c1717980f0099e7ce321f41990e38aff1a578ae0df"),
    (["classify", "y^2 = x^5 - 2*x mod 5", "--e", "1"], 2,
     "161462894ba9d1f12989a669de745a338fb0cd3bc607fb4f2efe68bb6acee7a3"),
    (["classify", "y^3 = x^4 + 1 mod 7"], 0,
     "331b60ea6ab11f762bf463a336a2bd2520ec435c48098e2f4a279041286159d9"),
    (["rep", "--p", "7", "--m", "4"], 0,
     "3d364510b27c2c94393a52bcaeae914c8cdbec7c49c6996746474e1d1ea3c8d6"),
    (["rep", "--p", "7", "--m", "2"], 0,
     "7905b6d412baf4cafeeba8ce1769c7944a1374d4c1033de93f3fa8e0be2d1a20"),
    (["rep", "--p", "11", "--m", "3"], 0,
     "e2026b7f4f9e53eee26d4c29de976c4f91bd03e7b1504a3b73451f7a81682433"),
    (["rep", "--p", "11", "--m", "4", "--seed", "3"], 0,
     "47a903a218598706c1c04d4ba7f3356a3642d01ef4bcbcf66285719997ae4f1c"),
    (["rep", "--p", "13", "--m", "7"], 0,
     "b88e55198de48573fbc675b1e36fb2b0fb61a733b95cb4b1536c50df11c8bba1"),
    # Hermitian plane models
    (["rep", "--p", "5", "--m", "6"], 0,
     "0d74478f444effebf3da450a644542ea9b99d046fab6611bc631e58e490e83f1"),
    (["rep", "--p", "7", "--m", "8"], 0,
     "7ba6ecd912a444270cd358c0c93ec1e69413f6df4c89cb63434872893456f595"),
    (["rep", "--p", "2", "--m", "3"], 0,
     "54b47f9de3c2b9f0b228363c7d8408488596d8c689f78bcb5a68ed0bfbd6fcf5"),
    (["rep", "--p", "11", "--m", "12"], 0,
     "a37e718921d6ab06daf84a204d962ed02593ab08257a48b7dc16acbd14491bf0"),
    # reducible, dim 121, with a witness
    (["rep", "--p", "23", "--m", "12"], 0,
     "3ef0ea0312652c92bcca33c6aa5634cda0ae4f12dc0a6227ae13d38b63e479d5"),
    (["bounds", "--kind", "aut-ordinary", "--g", "100"], 0,
     "d6850c19996006bd8fe71c647261ac4f85deeee3254d3375ec7ccab4e63a81ed"),
    (["bounds", "--kind", "case-IV-final", "--p", "3", "--n", "1"], 0,
     "6f7598f5ed1b79915c66714e0fc10da2df55ac7125948df5fd45030de9f2d521"),
    (["search", "--spec", "tame-outside", "--p-max", "200"], 0,
     "70ecb73ec5d90a68ea0be8a028696c4932b11653cd60f6e9eb8f9e695241b8d0"),
    (["hurwitz", "--gy", "0", "--order", "2", "--ram", "2:1,2:1,2:1,2:1,2:1,2:1"], 0,
     "4dbfe0463a69cb77fc24e050c3098c88e051c1a3bddd8cc90e6f3ab50db0eca1"),
]


@pytest.mark.parametrize("argv, code, digest", CORPUS, ids=[" ".join(c[0]) for c in CORPUS])
def test_json_output_is_unchanged(capsys, argv, code, digest):
    assert cli.main(argv + ["--json"]) == code
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest
