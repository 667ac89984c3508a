import hashlib
import math
import random
import re
import time
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from superell.canrep import sl2_generators, zeta_of_order
from superell.curve import (
    ASQ,
    GENERAL,
    HYPERELLIPTIC,
    INFINITY,
    CurveAutomorphism,
    InvalidCurveError,
    SuperellipticCurve,
    UnsupportedModelError,
    apply_automorphism,
    check_automorphism,
    count_infinite_points,
    count_points,
    enumerate_points,
    genus,
    orbit_partition,
    point_counts,
    point_sort_key,
    _normalize_point,
)
from superell.ff import _LogTables, lift_to, log_table_estimate, make_field
from superell.poly import Polynomial, poly_pow, roots_in_field


def curve(m, coeffs, p):
    return SuperellipticCurve(m, Polynomial(make_field(p), coeffs))


def pair_points_oracle(X, e):
    """Independent O(q^2) affine enumeration: every (x, y) with y^m = f(x)."""
    K = make_field(X.p, e)
    f = X.f.lift_coeffs(K)
    points = []
    for x in K.elements():
        fx = f.eval(x)
        points.extend((x, y) for y in K.elements() if y**X.m == fx)
    return points


def pair_count_oracle(X, e):
    """The affine pairs plus the infinity rule."""
    return len(pair_points_oracle(X, e)) + count_infinite_points(X, make_field(X.p, e))


# -- model validation -------------------------------------------------------


def test_gcd_constraint_enforced():
    with pytest.raises(InvalidCurveError):
        curve(3, [0, -1, 0, 1], 3)  # gcd(3, 3) != 1


def test_hyperelliptic_requires_squarefree():
    with pytest.raises(InvalidCurveError):
        curve(2, [0, 0, 1], 5)


def test_kind_inference():
    bolza = curve(2, [0, -1, 0, 0, 0, 1], 5)
    assert bolza.kind == HYPERELLIPTIC
    hermitian_form = curve(6, [0, -1, 0, 0, 0, 1], 5)
    assert hermitian_form.kind == ASQ
    other = curve(3, [1, 1, 0, 1], 5)
    assert other.kind == GENERAL


# -- genus ------------------------------------------------------------------


def test_genus_examples():
    assert genus(curve(6, [0, -1, 0, 0, 0, 1], 5)) == 10
    assert genus(curve(2, [0, -1, 0, 0, 0, 1], 5)) == 2
    assert genus(curve(4, [0, -1, 0, 1], 3)) == 3
    assert genus(curve(3, [1, 1, 0, 1], 5)) == 1


# -- point counting ---------------------------------------------------------


def test_count_matches_pair_oracle():
    F9, F25 = make_field(3, 2), make_field(5, 2)
    cases = [
        (curve(2, [0, -1, 0, 0, 0, 1], 5), (1, 2, 3)),   # genus 2, odd degree
        (curve(2, [0, -1, 0, 0, 0, 1], 3), (1, 2, 3)),
        (curve(4, [0, -1, 0, 1], 3), (1, 2, 4)),         # Artin-Schreier quotient
        (curve(3, [0, -1, 0, 0, 0, 1], 5), (1, 2, 3)),
        (curve(2, [2, 1, 0, 0, 0, 0, 1], 5), (1, 2)),    # even degree, infinity rule
        (curve(3, [1, 0, 0, 0, 1], 7), (1, 2)),          # general, genus 3
        (curve(4, [1, 1, 0, 1], 5), (1, 2, 3)),          # general, genus 3
        (curve(3, [1, 0, 0, 1], 7), (1, 2)),             # delta = 3: three points at infinity
        # Hermitian y^6 = x^5 + x: gcd(6, 24) = 6 does not divide p - 1 = 4
        (curve(6, [0, 1, 0, 0, 0, 1], 5), (1, 2)),
        # F_81 has no primitive t + c under its pinned modulus
        (curve(2, [1, 2, 0, 1], 3), (4,)),
        # curves over F_{p^k}, counted over their own field (k = e)
        (SuperellipticCurve(2, Polynomial(F9, [F9.gen(), 1, 0, 1])), (2,)),
        (SuperellipticCurve(3, Polynomial(F25, [1, F25.element([2, 1]), 0, 0, 1])), (2,)),
    ]
    for X, es in cases:
        for e in es:
            count = count_points(X, e).count
            assert count == pair_count_oracle(X, e)
            pts = enumerate_points(X, e)
            assert len(pts) == count
            assert [P for P in pts if P[0] != "inf"] == sorted(pair_points_oracle(X, e), key=point_sort_key)


def test_counts_where_no_t_plus_c_is_primitive():
    # under the pinned moduli of F_81 and F_625 no t + c generates the
    # multiplicative group, so the tables must search further
    for p, primes in ((3, (2, 5)), (5, (2, 3, 13))):
        K = make_field(p, 4)
        Q, t = K.order - 1, K.gen()
        assert all(any((t + K.element(c)) ** (Q // r) == K.one() for r in primes) for c in range(p))
        # y^2 = x^3 + x + 1 against the quadratic character by Euler's criterion
        X = curve(2, [1, 1, 0, 1], p)
        f = X.f.lift_coeffs(K)
        values = [f.eval(x) for x in K.elements()]
        affine = sum(1 if v.is_zero() else 2 if v ** (Q // 2) == K.one() else 0 for v in values)
        assert count_points(X, 4).count == affine + count_infinite_points(X, K)


def test_count_adds_wide_term_sums_in_groups():
    # 32 nonzero terms over F_(2^11): 11 residues of 6 bits overflow a 64-bit
    # word, so the kernel adds the terms in two groups; y^23 = f(x) against
    # the character of order 23 by Euler's criterion
    X = curve(23, [1, 0] + [1] * 31, 2)
    K = make_field(2, 11)
    Q, f = K.order - 1, X.f.lift_coeffs(K)
    values = {x: f.eval(x) for x in K.elements()}
    affine = sum(1 if v.is_zero() else 23 if v ** (Q // 23) == K.one() else 0 for v in values.values())
    assert count_points(X, 11).count == affine + count_infinite_points(X, K)
    points = [pt for pt in enumerate_points(X, 11) if pt[0] != "inf"]
    assert len(points) == affine and all(y**23 == values[x] for x, y in points)


def test_count_over_f_1009_squared_takes_seconds():
    X = curve(2, [5, 0, 1, 0, 0, 0, 0, 0, 0, 1], 1009)
    start = time.process_time()
    pc = count_points(X, 2)
    elapsed = time.process_time() - start
    assert pc.count == 1018480
    assert elapsed < 10, f"count over F_(1009^2) took {elapsed:.1f} s of CPU"


def test_bolza_count_over_f25_is_minimal():
    X = curve(2, [0, -1, 0, 0, 0, 1], 5)
    pc = count_points(X, 2)
    assert pc.count == 6  # == 25 - 2*2*5 + 1
    assert pc.status == "minimal"
    assert pc.count in (6, 46)


def test_maximal_member_of_quotient_family():
    # m' = (p+1)/m even makes y^m = x^p - x attain the upper Weil bound
    X = curve(3, [0, -1, 0, 0, 0, 1], 5)
    pc = count_points(X, 2)
    assert pc.count == 66 == 25 + 2 * 4 * 5 + 1
    assert pc.status == "maximal"


def test_weil_window_example():
    X = curve(2, [0, 1, 0, 1], 5)  # y^2 = x^3 + x, genus 1
    pc = count_points(X, 1)
    assert 2 <= pc.count <= 10
    assert pc.status is None


def test_construction_rejects_constant_and_non_squarefree_f():
    with pytest.raises(InvalidCurveError):
        curve(2, [3], 5)                    # degree 0
    with pytest.raises(InvalidCurveError):
        curve(3, [], 5)                     # zero polynomial
    with pytest.raises(InvalidCurveError):
        curve(3, [1, 2, 1], 5)              # (x + 1)^2


def test_fermat_cubic_has_three_points_at_infinity():
    # Y^3 = X^3 + Z^3 meets Z = 0 where Y = zeta X, zeta^3 = 1, and F_7
    # holds all three cube roots of unity
    X = curve(3, [1, 0, 0, 1], 7)
    assert count_infinite_points(X, make_field(7)) == 3
    pts = enumerate_points(X, 1)
    assert [P for P in pts if P[0] == "inf"] == [("inf", 0), ("inf", 1), ("inf", 2)]
    # a vertical map permutes them, so their labels carry no action
    sigma = CurveAutomorphism.root_of_unity(make_field(7).element(2), 3)
    with pytest.raises(UnsupportedModelError):
        apply_automorphism(X, sigma, INFINITY)


@pytest.mark.parametrize("p", [3, 5, 7])
def test_hermitian_model_is_maximal(p):
    # y^(p+1) = x^p + x is the Hermitian curve: genus p(p-1)/2 and
    # p^3 + 1 points over F_{p^2}, the upper Weil bound
    X = curve(p + 1, [0, 1] + [0] * (p - 2) + [1], p)
    assert X.kind == GENERAL
    assert genus(X) == p * (p - 1) // 2
    pc = count_points(X, 2)
    assert pc.count == p**3 + 1
    assert pc.status == "maximal"


@pytest.mark.parametrize("p,m", [(3, 2), (3, 4), (5, 2), (5, 3), (5, 6), (7, 2), (7, 4)])
def test_weil_bound_on_quotient_family(p, m):
    coeffs = [0, -1] + [0] * (p - 2) + [1]
    X = curve(m, coeffs, p)
    g = genus(X)
    for e in (1, 2):
        pc = count_points(X, e)
        assert (pc.count - p**e - 1) ** 2 <= 4 * g * g * p**e


def test_even_degree_infinity_counts():
    # leading coefficient 1 is always a square: two points at infinity
    X = curve(2, [2, 1, 0, 0, 0, 0, 1], 5)
    assert count_infinite_points(X, make_field(5)) == 2
    # non-square leading coefficient over F_5 (2 is not a QR)
    Y = curve(2, [1, 1, 0, 0, 0, 0, 2], 5)
    assert count_infinite_points(Y, make_field(5)) == 0
    # squares appear after the quadratic extension
    assert count_infinite_points(Y, make_field(5, 2)) == 2


# -- automorphisms ----------------------------------------------------------


def test_vertical_map_fixes_branch_point():
    X = curve(2, [0, -1, 0, 0, 0, 1], 5)
    F5 = make_field(5)
    sigma = CurveAutomorphism.root_of_unity(F5.element(-1), 2)
    P = (F5.zero(), F5.zero())
    assert apply_automorphism(X, sigma, P) == P


def test_translation_moves_branch_point():
    X = curve(6, [0, -1, 0, 0, 0, 1], 5)
    F5 = make_field(5)
    t = CurveAutomorphism.mobius_ints(F5, 1, 1, 0, 1)
    P = (F5.zero(), F5.zero())
    assert apply_automorphism(X, t, P) == (F5.element(1), F5.zero())


def test_inversion_sends_infinity_to_origin():
    X = curve(6, [0, -1, 0, 0, 0, 1], 5)
    F5 = make_field(5)
    s = CurveAutomorphism.mobius_ints(F5, 0, 1, -1, 0)
    K = make_field(5, 2)
    img = _normalize_point(apply_automorphism(X, s, INFINITY), K)
    assert img == (K.zero(), K.zero())


def test_identity_mobius_fixes_every_point():
    X = curve(4, [0, -1, 0, 1], 3)
    F3 = make_field(3)
    ident = CurveAutomorphism.mobius_ints(F3, 1, 0, 0, 1)
    K = make_field(3, 2)
    for P in enumerate_points(X, 2):
        assert _normalize_point(apply_automorphism(X, ident, P), K) == P


def test_mobius_determinant_validated():
    F5 = make_field(5)
    with pytest.raises(InvalidCurveError):
        CurveAutomorphism.mobius_ints(F5, 2, 0, 0, 1)  # det = 2


def test_automorphism_is_bijection_on_points():
    X = curve(4, [0, -1, 0, 1], 3)
    K = make_field(3, 2)
    pts = enumerate_points(X, 2)
    t, s = sl2_generators(3)
    zeta = CurveAutomorphism.root_of_unity(zeta_of_order(K, 4), 4)
    for g in (t, s, zeta):
        images = {_normalize_point(apply_automorphism(X, g, P), K) for P in pts}
        assert images == set(pts)


def reference_identity(sigma, f, m, e):
    """f(A x) (c x + d)^(m e) == mu^m f(x), term by term on Polynomials."""
    K = f.field if f.field.k > 1 else sigma.mu.field
    a, b, c, d, mu = (lift_to(t, K) for t in (*sigma.abcd, sigma.mu))
    f, u, v, left = f.lift_coeffs(K), Polynomial(K, [b, a]), Polynomial(K, [d, c]), Polynomial.zero(K)
    for n, fn in enumerate(f.coeffs):
        if not fn.is_zero():
            left = left + (poly_pow(u, n) * poly_pow(v, m * e - n)).scale(fn)
    return left == f.scale(mu**m)


@st.composite
def maps_and_curves(draw):
    """A map over F_p or F_(p^2) and y^m = f(x) over F_p: often x^p - x with
    m | p + 1 and a word in its automorphisms, else random."""
    p = draw(st.sampled_from([2, 3, 5, 7, 11]))
    K = make_field(p, draw(st.sampled_from([1, 2])))
    Fp = make_field(p)
    element = st.lists(st.integers(0, p - 1), min_size=K.k, max_size=K.k).map(K.element)
    if draw(st.booleans()):
        m = draw(st.sampled_from([m for m in range(2, p + 2) if (p + 1) % m == 0]))
        L = make_field(p, 2)
        zeta = CurveAutomorphism.root_of_unity(zeta_of_order(L, m), m)
        word = draw(st.lists(st.sampled_from([*sl2_generators(p), zeta]), min_size=1, max_size=4))
        sigma = word[0]
        for g in word[1:]:
            sigma = sigma.compose(g)
        e, f = (p + 1) // m, Polynomial(Fp, [0, -1] + [0] * (p - 2) + [1])
        abcd, mu = [lift_to(t, L) for t in sigma.abcd], lift_to(sigma.mu, L)
        t = draw(st.lists(st.integers(0, p - 1), min_size=2, max_size=2).map(L.element))
        i = draw(st.integers(0, 6))
        if i < 4:  # a perturbed entry
            abcd[i] = t
        elif i < 6 and not t.is_zero():  # (t A, t^e mu) is an automorphism with (A, mu)
            abcd, mu = [t * x for x in abcd], t**e * mu if i == 4 else t * mu
        else:
            return sigma, f, m, e
        return CurveAutomorphism(abcd, mu), f, m, e
    f = Polynomial(Fp, draw(st.lists(st.integers(0, p - 1), min_size=2, max_size=9)))
    mu = draw(element.filter(lambda t: not t.is_zero()))
    m = draw(st.integers(2, 6))
    e = -(-max(f.degree, 1) // m) + draw(st.integers(0, 1))
    return CurveAutomorphism([draw(element) for _ in range(4)], mu), f, m, e


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(maps_and_curves())
def test_check_automorphism_accepts_exactly_the_maps_that_keep_the_curve(drawn):
    sigma, f, m, e = drawn
    try:
        check_automorphism(sigma, f, m, e)
        accepted = True
    except InvalidCurveError:
        accepted = False
    assert accepted == reference_identity(sigma, f, m, e)


# -- orbits -----------------------------------------------------------------


def test_translation_orbits_on_small_quotient_curve():
    X = curve(4, [0, -1, 0, 1], 3)
    F3 = make_field(3)
    t = CurveAutomorphism.mobius_ints(F3, 1, 1, 0, 1)
    orbits = orbit_partition(X, [t], 2)
    sizes = sorted(len(o) for o in orbits)
    assert sizes.count(1) == 1                     # unique fixed point
    assert all(s == 3 for s in sizes[1:])          # free elsewhere
    singleton = [o for o in orbits if len(o) == 1][0]
    assert singleton == [INFINITY]


def test_two_short_orbits_for_middle_m():
    X = curve(3, [0, -1, 0, 0, 0, 1], 5)
    K = make_field(5, 2)
    zeta = CurveAutomorphism.root_of_unity(zeta_of_order(K, 3), 3)
    t, s = sl2_generators(5)
    orbits = orbit_partition(X, [zeta, t, s], 2)
    # genus 4 = c(p-1)/2 with c = 2: orbit sizes p+1 and (c+1)p(p-1)
    assert sorted(len(o) for o in orbits) == [6, 60]


def test_empty_generator_list_gives_singletons():
    X = curve(4, [0, -1, 0, 1], 3)
    orbits = orbit_partition(X, [], 2)
    assert all(len(o) == 1 for o in orbits)
    assert len(orbits) == count_points(X, 2).count


def test_orbits_are_deterministic():
    X = curve(4, [0, -1, 0, 1], 3)
    F3 = make_field(3)
    t = CurveAutomorphism.mobius_ints(F3, 1, 1, 0, 1)
    assert orbit_partition(X, [t], 2) == orbit_partition(X, [t], 2)


def test_compose_is_left_to_right():
    F5 = make_field(5)
    a = CurveAutomorphism.mobius_ints(F5, 1, 1, 0, 1)   # x -> x + 1
    b = CurveAutomorphism.mobius_ints(F5, 0, 1, -1, 0)  # x -> -1/x
    ab = a.compose(b)
    X = curve(6, [0, -1, 0, 0, 0, 1], 5)
    P = (F5.zero(), F5.zero())
    step = apply_automorphism(X, a, P)
    expected = apply_automorphism(X, b, step)
    assert apply_automorphism(X, ab, P) == expected


def test_maximal_status_respects_genus_ceiling():
    # a curve attaining the upper Weil bound over F_{p^2} has genus at
    # most p(p-1)/2
    for p, m in ((3, 2), (3, 4), (5, 2), (5, 3), (7, 2), (7, 4)):
        coeffs = [0, -1] + [0] * (p - 2) + [1]
        X = curve(m, coeffs, p)
        pc = count_points(X, 2)
        if pc.status == "maximal":
            assert genus(X) <= p * (p - 1) // 2


# -- counts against a brute-force character sum --------------------------------


def euler_count(X, e):
    """The count from f.eval at every x of K: a nonzero value is an m-th
    power exactly when v^((q-1)/nf) = 1 (Euler's criterion), and then has
    nf = gcd(m, q-1) m-th roots.  Over a prime field the values are plain
    ints."""
    K = X.field if X.field.k == e else make_field(X.p, e)
    Q = K.order - 1
    nf = math.gcd(X.m, Q)
    if K.k == 1:
        cs = [c.coeffs[0] for c in X.f.coeffs]
        values = [sum(c * pow(x, j, K.p) for j, c in enumerate(cs)) % K.p for x in range(K.p)]
        affine = sum(1 if v == 0 else nf if pow(v, Q // nf, K.p) == 1 else 0 for v in values)
    else:
        f = X.f if X.field == K else X.f.lift_coeffs(K)
        values = [f.eval(x) for x in K.elements()]
        affine = sum(1 if v.is_zero() else nf if v ** (Q // nf) == K.one() else 0 for v in values)
    return affine + count_infinite_points(X, K)


def random_curve(rng, m, F, degree):
    """y^m = f(x) for a random squarefree f of the given degree over F."""
    while True:
        coeffs = [F.element([rng.randrange(F.p) for _ in range(F.k)]) for _ in range(degree)] + [F.one()]
        try:
            return SuperellipticCurve(m, Polynomial(F, coeffs))
        except InvalidCurveError:
            pass


# (p, e, m, nf) for every e in {1, 2, 3} and nf = gcd(m, p^e - 1) in {1, 2, 3, 4, 6},
# and nf = 256, which does not fit a byte of the character table
EULER_CASES = [
    (7, 1, 5, 1), (7, 1, 2, 2), (7, 1, 3, 3), (13, 1, 4, 4), (7, 1, 6, 6),
    (7, 2, 5, 1), (7, 2, 2, 2), (7, 2, 3, 3), (7, 2, 4, 4), (7, 2, 6, 6),
    (7, 3, 5, 1), (7, 3, 2, 2), (7, 3, 3, 3), (5, 3, 4, 4), (7, 3, 6, 6),
    (257, 1, 256, 256),
]


@pytest.mark.parametrize("p, e, m, nf", EULER_CASES)
def test_count_matches_euler_criterion(p, e, m, nf):
    assert math.gcd(m, p**e - 1) == nf
    rng = random.Random(1000 * p + 10 * e + m)
    for degree in (3, 4, 7):
        X = random_curve(rng, m, make_field(p), degree)
        assert count_points(X, e).count == euler_count(X, e)


@pytest.mark.parametrize("p, k, m", [(7, 2, 2), (7, 2, 3), (7, 2, 4), (7, 2, 6), (5, 2, 3), (3, 3, 2)])
def test_count_over_the_coefficient_field_matches_euler_criterion(p, k, m):
    # coefficients outside F_p: their logs come from the narrow-index table
    rng = random.Random(100 * p + 10 * k + m)
    for degree in (2, 5):
        X = random_curve(rng, m, make_field(p, k), degree)
        assert any(any(c.coeffs[1:]) for c in X.f.coeffs)
        assert count_points(X, k).count == euler_count(X, k)


def test_count_over_f_65537_uses_wide_words():
    rng = random.Random(65537)
    X = random_curve(rng, 4, make_field(65537), 6)
    assert _LogTables(make_field(65537), X.f).exp.itemsize == 8
    assert count_points(X, 1).count == euler_count(X, 1)


def test_count_points_leaves_the_inverse_table_unbuilt(monkeypatch):
    # only iterating the tables builds log[z] = i; a count reads the values
    def refuse(tables):
        raise AssertionError("the inverse table was built")

    X = curve(3, [1, 2, 0, 1, 4], 7)
    points = enumerate_points(X, 2)
    monkeypatch.setattr(_LogTables, "__iter__", refuse)
    assert count_points(X, 2).count == len(points) == euler_count(X, 2)
    with pytest.raises(AssertionError, match="inverse table"):
        enumerate_points(X, 2)


def test_count_points_traced_peak_stays_within_the_documented_bytes():
    # the unit string of the tables' estimate states their bytes per element;
    # the (1, 2) pass reads the F_p count from the same tables
    per_element = int(re.search(r"(\d+) bytes each", log_table_estimate(47, 2)[2])[1])
    for p in (47, 211):
        X = curve(2, [5, 0, 1, 0, 0, 0, 0, 0, 0, 1], p)
        for es in ([2], [1, 2]):
            point_counts(X, es)
            tracemalloc.start()
            try:
                point_counts(X, es)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= per_element * p**2 + 16 * 1024, (p, es, peak)


# (e-list, largest p) pairs: every p <= 47 with p^max(e) at most 47^2
ONE_PASS_CASES = [([1], 47), ([2], 47), ([1, 2], 47), ([1, 3], 13), ([1, 2, 3], 13), ([2, 4], 7)]


@pytest.mark.parametrize("es, top", ONE_PASS_CASES)
def test_one_pass_counts_equal_separate_passes(es, top):
    # e = 1 beside a larger e is read from that field's pass; every other e has its own
    rng = random.Random(sum(10**i * e for i, e in enumerate(es)))
    for p in (3, 5, 7, 11, 13, 23, 47):
        if p > top:
            continue
        for m in range(2, 7):
            if math.gcd(m, p) > 1:
                continue
            for degree in (1, 2, 3, 6):
                X = random_curve(rng, m, make_field(p), degree)
                assert point_counts(X, es) == [count_points(X, e) for e in es], (p, m, X)


def digest(items):
    return hashlib.sha256(repr(items).encode()).hexdigest()[:16]


def test_point_sets_and_root_sets_keep_their_pinned_digests():
    F25, F49 = make_field(5, 2), make_field(7, 2)
    points = {
        "833aab3e8f1b2daa": (curve(2, [5, 0, 1, 0, 0, 0, 0, 0, 0, 1], 47), 2),
        "6908fd0c12fc1dea": (curve(6, [0, 1, 0, 0, 0, 1], 5), 2),
        "5d8ae17ba2aecff5": (SuperellipticCurve(3, Polynomial(F25, [1, F25.element([2, 1]), 0, 0, 1])), 2),
        "e2a20bb4220a2b20": (curve(23, [1, 0] + [1] * 31, 2), 11),
        "c75fe62d9fa07aa3": (curve(3, [1, 0, 1, 0, 0, 0, 0, 0, 0, 1], 2), 13),
        "aeaac34d00dd915f": (curve(4, [3, 1, 0, 2, 0, 1], 7), 3),
    }
    for pinned, (X, e) in points.items():
        got = [P if P[0] == "inf" else (P[0].coeffs, P[1].coeffs) for P in enumerate_points(X, e)]
        assert digest(got) == pinned, (X, e)
    x = Polynomial(F49, [0, 1])
    split = (x - Polynomial(F49, [F49.element([3, 2])])) * (x - Polynomial(F49, [F49.element([0, 5])]))
    roots = {
        "1d41a06a50a1ea33": (Polynomial(make_field(47), [0, -1] + [0] * 45 + [1]), make_field(47, 2)),
        "539f8a40947ac54f": (split * (x * x + Polynomial(F49, [F49.element([1, 1])])), F49),
        "6df9035c84f8c8a4": (Polynomial(make_field(7), [6, 0, 0, 0, 0, 0, 0, 0, 1]), F49),
        "804a0e4f14a6af27": (Polynomial(make_field(65537), [-6, 11, -6, 1]), make_field(65537)),
        "516c965025c77a00": (Polynomial(make_field(2), [1, 1, 0, 1, 1] + [0] * 8 + [1]), make_field(2, 13)),
    }
    for pinned, (f, K) in roots.items():
        assert digest(sorted(r.coeffs for r in roots_in_field(f, K))) == pinned, (f, K)


def test_gl2_lift_with_determinant_two_permutes_the_fp2_points():
    # x -> (2 x + 1) over y^3 = x^5 - x, scaled by lambda = the generator of
    # F_25: f(A x) (c x + d)^6 = det(A) lambda^6 f(x), and mu^3 matches it
    X = curve(3, [0, -1, 0, 0, 0, 1], 5)
    K = make_field(5, 2)
    lam = K.gen()
    mu = next(z for z in K.elements() if not z.is_zero() and z**3 == K.element(2) * lam**6)
    sigma = CurveAutomorphism(tuple(K.element(v) * lam for v in (2, 1, 0, 1)), mu)
    pts = enumerate_points(X, 2)
    assert {_normalize_point(apply_automorphism(X, sigma, P), K) for P in pts} == set(pts)
    assert apply_automorphism(X, sigma, INFINITY) == INFINITY
