import dataclasses
import random
import time
from math import comb

import pytest

from superell import cartier
from superell.cartier import (
    HASSE_WITT_WORK_LIMIT,
    HasseWittMatrix,
    InseparableModelError,
    PRankClass,
    classify_p_rank,
    crosscheck_superspecial,
    hasse_witt,
    semilinear_stable_matrix,
)
from superell.curve import SuperellipticCurve, UnsupportedModelError, count_points, genus
from superell.ff import make_field
from superell.linalg import FieldMatrix
from superell.poly import Polynomial, is_squarefree, poly_pow


def hyper(coeffs, p):
    return SuperellipticCurve(2, Polynomial(make_field(p), coeffs))


def cech_frobenius_oracle(X):
    """Frobenius matrix by expanding y^p = y f^((p-1)/2) term by term.

    The power is built by iterated multiplication (no binary powering)
    and every monomial y x^(n - p i) is classified: only the classes
    y/x^j with 1 <= j <= g survive, everything else is discarded.
    """
    p, g = X.p, genus(X)
    field = X.field
    fpow = Polynomial.one(field)
    for _ in range((p - 1) // 2):
        fpow = fpow * X.f
    rows = []
    for i in range(1, g + 1):
        row = [field.zero()] * g
        for n in range(fpow.degree + 1):
            exponent = n - p * i
            if -g <= exponent <= -1:
                j = -exponent
                row[j - 1] = row[j - 1] + fpow.coeff(n)
        rows.append(row)
    return FieldMatrix(field, rows)


def sample_squarefree(rng, field, deg):
    p, k = field.p, field.k
    while True:
        coeffs = [[rng.randrange(p) for _ in range(k)] for _ in range(deg)]
        coeffs.append([rng.randrange(1, p)] + [rng.randrange(p) for _ in range(k - 1)])
        f = Polynomial(field, coeffs)
        if f.degree == deg and is_squarefree(f):
            return f


# -- frozen examples ---------------------------------------------------------


def test_bolza_matrix_p3():
    hw = hasse_witt(hyper([0, -1, 0, 0, 0, 1], 3))
    assert hw.matrix == FieldMatrix(make_field(3), [[0, 2], [1, 0]])
    assert hw.basis_labels == ("y/x^1", "y/x^2")
    assert classify_p_rank(hw).verdict == "ordinary"


def test_bolza_matrix_p5_is_zero():
    hw = hasse_witt(hyper([0, -1, 0, 0, 0, 1], 5))
    assert hw.matrix.is_zero()
    assert classify_p_rank(hw).verdict == "superspecial"


def test_subfamily_block_pattern():
    # y^2 = x(x^4 - 1) over F_3: entries vanish unless 4 | 3i - j - 1
    F3 = make_field(3)
    f = Polynomial(F3, [0, -1, 0, 0, 0, 1])  # x(x^4 - 1) = x^5 - x
    hw = hasse_witt(SuperellipticCurve(2, f))
    for i in range(1, 3):
        for j in range(1, 3):
            expected_nonzero = (3 * i - j - 1) % 4 == 0
            assert (not hw.entry(i, j).is_zero()) == expected_nonzero


def test_characteristic_two_rejected():
    F2 = make_field(2)
    f = Polynomial(F2, [1, 1, 1])
    X = SuperellipticCurve(3, f)
    with pytest.raises(UnsupportedModelError):
        hasse_witt(X)


def test_inseparable_model_error_is_an_alias():
    assert InseparableModelError is UnsupportedModelError


def test_non_hyperelliptic_rejected():
    X = SuperellipticCurve(4, Polynomial(make_field(3), [0, -1, 0, 1]))
    with pytest.raises(UnsupportedModelError):
        hasse_witt(X)


def test_intermediate_rank():
    # A = [[1,0],[0,0]] over F_3: stable product keeps rank 1
    F3 = make_field(3)
    M = FieldMatrix(F3, [[1, 0], [0, 0]])
    assert semilinear_stable_matrix(M, 2).rank() == 1


def test_classifier_extremes():
    F5 = make_field(5)
    for g in (1, 2, 5, 10):
        labels = tuple(f"y/x^{i}" for i in range(1, g + 1))
        zero = HasseWittMatrix(matrix=FieldMatrix.zeros(F5, g, g), genus=g, basis_labels=labels)
        assert classify_p_rank(zero).verdict == "superspecial"
        ident = HasseWittMatrix(matrix=FieldMatrix.identity(F5, g), genus=g, basis_labels=labels)
        v = classify_p_rank(ident)
        assert v.verdict == "ordinary" and v.stable_rank == g


# -- the expansion oracle ----------------------------------------------------


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
def test_matrix_agrees_with_cech_oracle(p):
    rng = random.Random(100 + p)
    F = make_field(p)
    for trial in range(12):
        deg = 5 if trial % 2 == 0 else 7
        f = sample_squarefree(rng, F, deg)
        X = SuperellipticCurve(2, f)
        assert hasse_witt(X).matrix == cech_frobenius_oracle(X)


def full_power_matrix(X):
    """Entries read from the whole of f^((p-1)/2), x^n with n < 0 read as 0."""
    p, g = X.p, genus(X)
    fpow = poly_pow(X.f, (p - 1) // 2)
    return FieldMatrix(X.field, [[fpow.coeff(p * i - j) for j in range(1, g + 1)] for i in range(1, g + 1)])


# e = (p-1)/2 is odd for 3, 7, 11, 307 and even for 5, 13, 53, 101; at p = 3
# and deg f >= 9 the genus exceeds p, so the window starts below x^0.  At
# p = 3 and 5 curves over F_9 and F_25 take the two-level product too.
@pytest.mark.parametrize("p", [3, 5, 7, 11, 13, 53, 101, 307])
def test_window_matches_full_power(p):
    rng = random.Random(200 + p)
    F = make_field(p)
    curves = [sample_squarefree(rng, F, deg) for deg in (5, 6, 9, 10, 11, 12, 13, 14)]
    if p in (3, 5):
        curves += [sample_squarefree(rng, make_field(p, 2), deg) for deg in (5, 6, 9, 10, 13)]
    for g in (2, 3, 4):
        for coeffs in ([1] + [0] * 2 * g + [1], [0, 1] + [0] * (2 * g - 1) + [1], [1] + [0] * (2 * g + 1) + [1]):
            f = Polynomial(F, coeffs)
            if is_squarefree(f):
                curves.append(f)
    for f in curves:
        X = SuperellipticCurve(2, f)
        assert hasse_witt(X).matrix == full_power_matrix(X)


@pytest.mark.parametrize("p", [3, 5, 7])
def test_fp2_matrix_matches_a_fieldelement_schoolbook_power(p):
    # f^((p-1)/2) by schoolbook products on FieldElements, read in full
    rng = random.Random(300 + p)
    K = make_field(p, 2)
    for deg in (5, 6, 7, 8, 9):
        X = SuperellipticCurve(2, sample_squarefree(rng, K, deg))
        fpow = [K.one()]
        for _ in range((p - 1) // 2):
            out = [K.zero()] * (len(fpow) + deg)
            for i, a in enumerate(fpow):
                for j, b in enumerate(X.f.coeffs):
                    out[i + j] = out[i + j] + a * b
            fpow = out
        g = genus(X)
        rows = [[fpow[n] if 0 <= n < len(fpow) else K.zero() for n in range(p * i - 1, p * i - g - 1, -1)]
                for i in range(1, g + 1)]
        assert hasse_witt(X).matrix == FieldMatrix(K, rows)


def random_matrix(rng, F, nrows, ncols):
    elems = list(F.elements())
    return FieldMatrix(F, [[rng.choice(elems) for _ in range(ncols)] for _ in range(nrows)])


@pytest.mark.parametrize("p, k", [(5, 1), (7, 1), (3, 2), (5, 2)])
def test_full_rank_shortcut_matches_stable_product(p, k):
    F = make_field(p, k)
    rng = random.Random(10 * p + k)
    elems = list(F.elements())
    for g in range(1, 6):
        invertible = [M for M in (random_matrix(rng, F, g, g) for _ in range(12)) if M.rank() == g][:3]
        deficient = [random_matrix(rng, F, g, r) @ random_matrix(rng, F, r, g) for r in range(1, g)]
        # strictly upper triangular with ones above the diagonal: nilpotent, nonzero
        upper = [[1 if j == i + 1 else rng.choice(elems) if j > i else 0 for j in range(g)] for i in range(g)]
        nilpotent = [FieldMatrix(F, upper)] if g > 1 else []
        assert invertible
        for M in [FieldMatrix.zeros(F, g, g)] + invertible + deficient + nilpotent:
            labels = tuple(f"y/x^{i}" for i in range(1, g + 1))
            got = classify_p_rank(HasseWittMatrix(matrix=M, genus=g, basis_labels=labels))
            rank = semilinear_stable_matrix(M, g).rank()
            verdict = "superspecial" if M.is_zero() else "ordinary" if rank == g else "intermediate"
            assert (got.stable_rank, got.verdict) == (rank, verdict)


def test_genus_20_at_p_1009():
    # y^2 = x^41 + x + 1: the x^n coefficient of f^504 is the multinomial
    # sum over a x^41-factors and b x-factors with 41a + b = n
    p, e = 1009, 504
    X = hyper([1, 1] + [0] * 39 + [1], p)
    start = time.process_time()
    H = hasse_witt(X)
    verdict = classify_p_rank(H)
    elapsed = time.process_time() - start
    for i in range(1, 21):
        for j in range(1, 21):
            n = p * i - j
            want = sum(comb(e, a) * comb(e - a, n - 41 * a) for a in range(n // 41 + 1)) % p
            assert H.entry(i, j).lift() == want
    assert H.matrix.rank() == 20
    assert verdict == PRankClass(stable_rank=20, genus=20, verdict="ordinary")
    trace = sum(H.entry(i, i).lift() for i in range(1, 21))
    assert (count_points(X, 1).count - 1 + trace) % p == 0  # Manin: #X(F_p) = 1 - tr A mod p
    assert elapsed < 10, f"Hasse-Witt and p-rank took {elapsed:.1f} s of CPU"


def test_work_budget_admits_p_10007_and_refuses_the_silent_cases(monkeypatch):
    class Admitted(Exception):
        pass

    def admitted(*args):
        raise Admitted

    # y^2 = x^41 + x + 1 at p = 10007: 205k coefficients of f^5003, admitted
    # (and stopped at its first product, which takes seconds)
    monkeypatch.setattr(cartier, "_binary_power", admitted)
    with pytest.raises(Admitted):
        hasse_witt(hyper([1, 1] + [0] * 39 + [1], 10007))
    for coeffs, p in (([0, -1, 0, 0, 0, 1], 1000003), ([0, 1] + [0] * 19999 + [1], 7)):
        with pytest.raises(ValueError, match=f"exceeds the budget {HASSE_WITT_WORK_LIMIT}"):
            hasse_witt(hyper(coeffs, p))


# -- cross-checks ------------------------------------------------------------


def test_crosscheck_bolza_p5():
    report = crosscheck_superspecial(hyper([0, -1, 0, 0, 0, 1], 5))
    assert report.p_rank.verdict == "superspecial"
    assert report.count_e2.status in ("maximal", "minimal")
    assert report.count_e2.count % 5 == 1  # q^2 +- 2gq + 1 is 1 mod p
    assert report.consistent


def test_crosscheck_bolza_p3():
    report = crosscheck_superspecial(hyper([0, -1, 0, 0, 0, 1], 3))
    assert report.p_rank.verdict == "ordinary"
    assert report.count_e2.status == "neither"
    assert report.consistent


def test_crosscheck_roquette_p7():
    report = crosscheck_superspecial(hyper([0, -1, 0, 0, 0, 0, 0, 1], 7))
    assert report.p_rank.verdict == "superspecial"
    assert report.count_e2.status in ("maximal", "minimal")
    assert report.consistent


def test_crosscheck_flags_twisted_form():
    # y^2 = x^5 - 2x over F_5 has zero Frobenius matrix but its own
    # F_25 count sits strictly between the Weil bounds; the consistency
    # flag must report that honestly
    report = crosscheck_superspecial(hyper([0, -2, 0, 0, 0, 1], 5))
    assert report.p_rank.verdict == "superspecial"
    assert report.count_e2.count == 26
    assert report.count_e2.status == "neither"
    assert not report.consistent


def test_crosscheck_reads_the_counts_it_is_given(monkeypatch):
    from superell import curve as curvemod
    taken = []
    count = curvemod.count_points
    monkeypatch.setattr(curvemod, "count_points", lambda X, e: taken.append(e) or count(X, e))
    ordinary, superspecial = hyper([0, -1, 0, 0, 0, 1], 3), hyper([0, -1, 0, 0, 0, 1], 5)
    # an ordinary verdict does not read the F_9 count
    report = crosscheck_superspecial(ordinary, [count(ordinary, 1)])
    assert (taken, report.count_e2, report.consistent) == ([], None, True)
    assert report.hasse_witt == hasse_witt(ordinary)
    # a given F_{p^2} count is reused; a superspecial verdict takes it otherwise
    e2 = count(superspecial, 2)
    assert crosscheck_superspecial(superspecial, [e2]).count_e2 is e2 and taken == []
    assert crosscheck_superspecial(superspecial, []).count_e2 == e2 and taken == [2]
    assert crosscheck_superspecial(ordinary).count_e2 == count(ordinary, 2) and taken == [2, 2]


@pytest.mark.parametrize("coeffs, p", [([1, 3, 0, 0, 0, 0, 0, 1], 31), ([0, -1, 0, 0, 0, 1], 5)])
def test_crosscheck_asserts_the_manin_congruence(coeffs, p):
    X = hyper(coeffs, p)
    counts = [count_points(X, e) for e in (1, 2, 3)]
    assert crosscheck_superspecial(X, counts).consistent
    for bad in range(3):
        wrong = [dataclasses.replace(pc, count=pc.count + (i == bad)) for i, pc in enumerate(counts)]
        with pytest.raises(AssertionError, match=f"F_{p}\\^{bad + 1}. violates the Manin"):
            crosscheck_superspecial(X, wrong)


@pytest.mark.parametrize("coeffs", [[2, 1], [2, 0, 1]])
def test_genus_zero_has_the_empty_frobenius_matrix(coeffs):
    X = hyper(coeffs, 19)
    report = crosscheck_superspecial(X, [count_points(X, e) for e in (1, 2)])
    assert (report.hasse_witt.matrix.nrows, report.hasse_witt.basis_labels) == (0, ())
    assert report.p_rank == PRankClass(stable_rank=0, genus=0, verdict="ordinary")
    assert report.consistent


def test_crosscheck_traces_reuse_the_last_power(monkeypatch):
    X = hyper([0, 1, 1, 0, 0, 1], 7)  # A = [1 3; 0 3]
    counts = [count_points(X, e) for e in (1, 2, 3, 5)]
    products = []
    matmul = FieldMatrix.__matmul__
    monkeypatch.setattr(FieldMatrix, "__matmul__", lambda a, b: products.append(1) or matmul(a, b))
    crosscheck_superspecial(X, counts)
    # A is invertible, so the p-rank takes no product; then A^2 = A A,
    # A^3 = A^2 A and A^5 = A^3 (A A): four products in all
    assert len(products) == 4


def test_ordinary_is_never_maximal_or_minimal():
    rng = random.Random(41)
    for p in (3, 5, 7):
        F = make_field(p)
        for _ in range(8):
            f = sample_squarefree(rng, F, 5)
            X = SuperellipticCurve(2, f)
            report = crosscheck_superspecial(X)
            if report.p_rank.verdict == "ordinary":
                assert report.count_e2.status == "neither"


def test_ekedahl_hyperelliptic_genus_bound():
    # no superspecial verdict with g > (p-1)/2 in a squarefree sample
    rng = random.Random(59)
    for p in (3, 5, 7):
        F = make_field(p)
        for _ in range(10):
            for deg in (5, 7):
                f = sample_squarefree(rng, F, deg)
                X = SuperellipticCurve(2, f)
                verdict = classify_p_rank(hasse_witt(X))
                if verdict.verdict == "superspecial":
                    assert genus(X) <= (p - 1) // 2


@pytest.mark.parametrize("p", [5, 7])
def test_stable_matrix_over_fp_is_the_g_fold_product(p):
    # over F_p every Frobenius twist is A itself: binary powering against
    # the plain loop of g - 1 products, on singular and nilpotent matrices too
    rng = random.Random(p)
    F = make_field(p)
    for n in (1, 2, 3, 5):
        mats = [FieldMatrix(F, [[rng.randrange(p) if rng.random() < 0.5 else 0 for _ in range(n)]
                                for _ in range(n)]) for _ in range(3)]
        mats.append(FieldMatrix(F, [[rng.randrange(1, p) if j > i else 0 for j in range(n)] for i in range(n)]))
        for M in mats:
            loop = M
            for g in range(1, 10):
                assert semilinear_stable_matrix(M, g) == loop
                loop = loop @ M
