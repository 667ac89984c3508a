import random

import pytest
from sympy.polys.domains import ZZ
from sympy.polys.galoistools import gf_div, gf_gcd, gf_mul, gf_pow, gf_rem, gf_sqf_p, gf_strip

from superell import ff
from superell.ff import _kronecker_bytes, _polygcd, _polymul, make_field
from superell.ff import FieldMismatchError
from superell.linalg import FieldMatrix
from superell.poly import Polynomial, is_squarefree, poly_gcd, poly_pow, roots_in_field

KERNEL_PRIMES = [2, 3, 1009, 1000003]


def schoolbook_ints(a, b, p):
    """Product of residue lists (ascending degree) without trailing zeros."""
    out = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = (out[i + j] + x * y) % p
    while out and out[-1] == 0:
        out.pop()
    return out


def to_gf(coeffs):
    """Ascending residues -> sympy's descending dense form."""
    return gf_strip([ZZ(c) for c in reversed(coeffs)])


def from_gf(coeffs):
    return [int(c) for c in reversed(coeffs)]


def test_square_of_x5_minus_x_over_f5():
    F5 = make_field(5)
    f = Polynomial(F5, [0, -1, 0, 0, 0, 1])
    expected = schoolbook_ints([0, 4, 0, 0, 0, 1], [0, 4, 0, 0, 0, 1], 5)
    got = poly_pow(f, 2)
    assert [c.lift() for c in got.coeffs] == expected
    # x^10 + 3 x^6 + x^2
    assert got == Polynomial(F5, [0, 0, 1, 0, 0, 0, 3, 0, 0, 0, 1])


def test_pow_zero_exponent_and_zero_base():
    F7 = make_field(7)
    f = Polynomial(F7, [3, 1])
    assert poly_pow(f, 0) == Polynomial.one(F7)
    assert poly_pow(Polynomial.zero(F7), 3) == Polynomial.zero(F7)
    assert poly_pow(Polynomial.zero(F7), 0) == Polynomial.one(F7)


def test_coeff_extraction():
    F3 = make_field(3)
    f = Polynomial(F3, [0, -1, 0, 0, 0, 1])  # x^5 - x
    assert f.coeff(5).lift() == 1
    assert f.coeff(-1).is_zero()
    assert f.coeff(99).is_zero()
    F5 = make_field(5)
    sq = poly_pow(Polynomial(F5, [0, -1, 0, 0, 0, 1]), 2)
    assert sq.coeff(4).is_zero()


def test_pow_additivity_random():
    rng = random.Random(11)
    F5 = make_field(5)
    for _ in range(25):
        f = Polynomial(F5, [rng.randrange(5) for _ in range(rng.randrange(1, 5))])
        a, b = rng.randrange(4), rng.randrange(4)
        assert poly_pow(f, a + b) == poly_pow(f, a) * poly_pow(f, b)


@pytest.mark.parametrize("p", [3, 5, 7])
def test_freshman_dream(p):
    rng = random.Random(p)
    F = make_field(p)
    for _ in range(10):
        f = Polynomial(F, [rng.randrange(p) for _ in range(4)])
        g = Polynomial(F, [rng.randrange(p) for _ in range(4)])
        assert poly_pow(f + g, p) == poly_pow(f, p) + poly_pow(g, p)


def test_squarefree_examples():
    F3 = make_field(3)
    assert is_squarefree(Polynomial(F3, [0, -1, 0, 0, 0, 1]))  # x^5 - x
    F5 = make_field(5)
    assert not is_squarefree(Polynomial(F5, [0, 0, 1]))  # x^2
    F7 = make_field(7)
    assert is_squarefree(Polynomial(F7, [0, -1] + [0] * 5 + [1]))  # x^7 - x
    with pytest.raises(ValueError):
        is_squarefree(Polynomial.zero(F3))


def test_pth_power_is_not_squarefree():
    F3 = make_field(3)
    # (x + 1)^3 = x^3 + 1 has zero derivative
    assert not is_squarefree(Polynomial(F3, [1, 0, 0, 1]))


def test_roots_by_exhaustive_evaluation():
    F5 = make_field(5)
    f = Polynomial(F5, [0, -1, 0, 0, 0, 1])
    assert roots_in_field(f, F5) == set(F5.elements())

    F3 = make_field(3)
    g = Polynomial(F3, [1, 0, 1])  # x^2 + 1
    assert roots_in_field(g, F3) == set()
    F9 = make_field(3, 2)
    got = roots_in_field(g, F9)
    # independent scan of all nine elements
    lifted = g.lift_coeffs(F9)
    expected = {a for a in F9.elements() if lifted.eval(a).is_zero()}
    assert got == expected
    t = F9.gen()
    assert got == {t, -t}


@pytest.mark.parametrize("p", [3, 5])
def test_roots_in_field_match_brute_force_over_fp2(p):
    rng = random.Random(p)
    Fp, K = make_field(p), make_field(p, 2)
    for _ in range(25):
        n = rng.randrange(1, 9)
        f = Polynomial(Fp, [rng.randrange(p) for _ in range(n)] + [1])
        lifted = f.lift_coeffs(K)
        assert roots_in_field(f, K) == {a for a in K.elements() if lifted.eval(a).is_zero()}
        g = Polynomial(K, [K.element([rng.randrange(p), rng.randrange(p)]) for _ in range(n)] + [1])
        assert roots_in_field(g, K) == {a for a in K.elements() if g.eval(a).is_zero()}
    # every element is a root of x^q - x, and x^q - x + 1 has none
    q = K.order
    assert roots_in_field(Polynomial(Fp, [0, -1] + [0] * (q - 2) + [1]), K) == set(K.elements())
    assert roots_in_field(Polynomial(Fp, [1, -1] + [0] * (q - 2) + [1]), K) == set()


def test_root_count_bounded_by_degree():
    rng = random.Random(3)
    F7 = make_field(7)
    for _ in range(30):
        coeffs = [rng.randrange(7) for _ in range(rng.randrange(2, 7))]
        f = Polynomial(F7, coeffs)
        if f.is_zero():
            continue
        assert len(roots_in_field(f, F7)) <= max(f.degree, 0)


def test_divmod_round_trip():
    rng = random.Random(19)
    F5 = make_field(5)
    for _ in range(40):
        f = Polynomial(F5, [rng.randrange(5) for _ in range(rng.randrange(1, 8))])
        g = Polynomial(F5, [rng.randrange(5) for _ in range(rng.randrange(1, 5))])
        if g.is_zero():
            continue
        q, r = divmod(f, g)
        assert q * g + r == f
        assert r.degree < g.degree or r.is_zero()


def test_gcd_of_known_factors():
    F5 = make_field(5)
    x = Polynomial.x(F5)
    one = Polynomial.one(F5)
    a = (x + one) * (x + one.scale(2))
    b = (x + one) * (x + one.scale(3))
    assert poly_gcd(a, b) == x + one


def test_eval_in_extension():
    F3 = make_field(3)
    F9 = make_field(3, 2)
    f = Polynomial(F3, [1, 0, 1])
    t = F9.gen()
    assert f.eval(t).is_zero()


# -- the Kronecker product kernel against independent oracles ----------------


@pytest.mark.parametrize("p", KERNEL_PRIMES)
def test_polymul_matches_schoolbook_and_sympy(p):
    rng = random.Random(p)
    F = make_field(p)
    for _ in range(40):
        a = [rng.randrange(p) for _ in range(rng.randrange(0, 30))]
        b = [rng.randrange(p) for _ in range(rng.randrange(0, 30))]
        want = schoolbook_ints(a, b, p)
        assert _polymul(a, b, F) == want
        assert want == from_gf(gf_mul(to_gf(a), to_gf(b), p, ZZ))
        assert _polymul(a, a, F) == schoolbook_ints(a, a, p)  # squaring packs once


@pytest.mark.parametrize("p", KERNEL_PRIMES)
@pytest.mark.parametrize("n, m", [(1, 1), (1, 7), (5, 9), (64, 64), (300, 257)])
def test_polymul_at_the_width_bound(p, n, m):
    # all coefficients p - 1: the middle slots reach min(n, m) (p-1)^2, the
    # bound the slot width must exceed
    F = make_field(p)
    a, b = [p - 1] * n, [p - 1] * m
    assert _polymul(a, b, F) == schoolbook_ints(a, b, p)
    assert _polymul(a, a, F) == schoolbook_ints(a, a, p)


# (p, n, w): n-coefficient factors give the exact slot width w, the least
# with 2^(8w) > n (p-1)^2, including the widths that `array` lacks
EXACT_WIDTHS = [(53, 60, 3), (1009, 60, 4), (65537, 40, 5), (1048573, 40, 6), (16777213, 40, 7),
                (2**31 - 1, 2, 8), (2**31 - 1, 40, 9), (2**61 - 1, 40, 16)]


@pytest.mark.parametrize("p, n, w", EXACT_WIDTHS)
def test_polymul_at_exact_widths_matches_sympy(p, n, w):
    rng = random.Random(n * p)
    F = make_field(p)
    for a, b in [([p - 1] * n, [p - 1] * (n + 3)),
                 ([rng.randrange(p) for _ in range(n)], [rng.randrange(p) for _ in range(2 * n)])]:
        assert _kronecker_bytes(a, b, F)[1] == w
        assert _polymul(a, b, F) == from_gf(gf_mul(to_gf(a), to_gf(b), p, ZZ))
        assert _polymul(a, a, F) == from_gf(gf_mul(to_gf(a), to_gf(a), p, ZZ))


def test_kronecker_square_keeps_the_exact_width():
    # 20k coefficients at p = 1009: slots up to 20000 (p-1)^2 < 2^40 take 5
    # bytes, not the 8 of the next array width.  For a = (p-1, ..., p-1),
    # (p-1)^2 = 1 mod p, so slot n of a^2 is min(n + 1, 2N - 1 - n) mod p.
    p, N = 1009, 20000
    F, a = make_field(p), [p - 1] * N
    assert _kronecker_bytes(a, a, F)[1] == 5
    assert _polymul(a, a, F) == [min(n + 1, 2 * N - 1 - n) % p for n in range(2 * N - 1)]


@pytest.mark.parametrize("p", KERNEL_PRIMES)
def test_polynomial_products_and_powers_match_sympy(p):
    rng = random.Random(1000 + p)
    F = make_field(p)
    for _ in range(8):
        coeffs = [rng.randrange(p) for _ in range(rng.randrange(1, 9))]
        other = [rng.randrange(p) for _ in range(rng.randrange(1, 9))]
        f, g = Polynomial(F, coeffs), Polynomial(F, other)
        assert [c.lift() for c in (f * f).coeffs] == schoolbook_ints(coeffs, coeffs, p)
        assert [c.lift() for c in (f * g).coeffs] == schoolbook_ints(coeffs, other, p)
        for e in (0, 1, 2, 5, 16, 37):
            got = [c.lift() for c in poly_pow(f, e).coeffs]
            assert got == from_gf(gf_pow(to_gf(coeffs), e, p, ZZ))


# -- Euclid on F_p ints against sympy -----------------------------------------


def lifts(f):
    return [c.lift() for c in f.coeffs]


def check_euclid_against_sympy(F, a, b):
    p = F.p
    f, g = Polynomial(F, a), Polynomial(F, b)
    assert lifts(poly_gcd(f, g)) == from_gf(gf_gcd(to_gf(a), to_gf(b), p, ZZ))
    if not g.is_zero():
        q, r = divmod(f, g)
        sq, sr = gf_div(to_gf(a), to_gf(b), p, ZZ)
        assert (lifts(q), lifts(r)) == (from_gf(sq), from_gf(sr))
        assert (f // g, f % g) == (q, r)
    if not f.is_zero():
        assert is_squarefree(f) == gf_sqf_p(to_gf(a), p, ZZ)


@pytest.mark.parametrize("p", [2, 3, 7, 1009])
def test_euclid_over_fp_matches_sympy(p):
    rng = random.Random(3000 + p)
    F = make_field(p)

    def rand(lo, hi):
        return [rng.randrange(p) for _ in range(rng.randrange(lo, hi))]

    for _ in range(40):
        a, b, c = rand(0, 12), rand(1, 8), rand(1, 5)
        check_euclid_against_sympy(F, a, b)
        check_euclid_against_sympy(F, _polymul(a, c, F), _polymul(b, c, F))  # a shared factor
        check_euclid_against_sympy(F, _polymul(b, _polymul(c, c, F), F), a)  # a square factor
        lead = rng.randrange(2, p) if p > 2 else 1
        check_euclid_against_sympy(F, a, b + [lead])  # divisor with a non-unit leading coefficient
    for const in ([1], [p - 1]):
        check_euclid_against_sympy(F, const, [1, 1])
        check_euclid_against_sympy(F, [1, 1, p - 1], const)
    h = Polynomial(F, [1, 1, 0, 1])
    hp = poly_pow(h, p)
    assert hp.derivative().is_zero()  # a p-th power: f' = 0
    check_euclid_against_sympy(F, lifts(hp), [1, 1])
    assert not is_squarefree(hp)


@pytest.mark.parametrize("p", [2, 3, 47, 1009])
def test_raw_gcd_over_fp_is_the_last_remainder(p):
    # `_polygcd` is not made monic: it returns the last nonzero remainder of
    # Euclid, which division with remainder fixes, so sympy's remainders
    # give the same list; the shared factor keeps some gcds nontrivial
    rng = random.Random(4000 + p)
    F = make_field(p)
    for _ in range(60):
        c = [rng.randrange(p) for _ in range(rng.randrange(1, 4))]
        a, b = ([rng.randrange(p) for _ in range(rng.randrange(0, 12))] for _ in range(2))
        if rng.randrange(2):
            a, b = _polymul(a, c, F), _polymul(b, c, F)
        x, y = to_gf(a), to_gf(b)
        while y:
            x, y = y, gf_rem(x, y, p, ZZ)
        assert _polygcd(a, b, F) == from_gf(x)


@pytest.mark.parametrize("p", [2, 5, 1009])
def test_euclid_errors_over_fp(p):
    F = make_field(p)
    f, zero = Polynomial(F, [1, 2, 1]), Polynomial.zero(F)
    with pytest.raises(ZeroDivisionError):
        divmod(f, zero)
    with pytest.raises(ZeroDivisionError):
        f % zero
    with pytest.raises(ValueError):
        is_squarefree(zero)
    assert poly_gcd(zero, zero) == zero
    assert divmod(zero, f) == (zero, zero)
    with pytest.raises(FieldMismatchError):
        poly_gcd(f, Polynomial(make_field(3 if p != 3 else 5), [1, 1]))


@pytest.mark.parametrize("p, k", [(3, 2), (5, 2)])
def test_euclid_over_fp2_properties(p, k):
    rng = random.Random(p)
    F = make_field(p, k)

    def rand(lo, hi):
        return Polynomial(F, [[rng.randrange(p) for _ in range(k)] for _ in range(rng.randrange(lo, hi))])

    for _ in range(30):
        a, b, c = rand(0, 7), rand(1, 6), rand(2, 4)
        if not b.is_zero():
            q, r = divmod(a, b)
            assert q * b + r == a and r.degree < b.degree
        if c.degree >= 1:
            d = poly_gcd(a * c, b * c)
            assert d.leading() == F.one()
            assert (a * c) % d == Polynomial.zero(F) and (b * c) % d == Polynomial.zero(F)
            assert d % c.monic() == Polynomial.zero(F)
            if not b.is_zero():
                assert not is_squarefree(b * c * c)
    elems = [t for t in F.elements()][:4]
    linear = [Polynomial(F, [-t, F.one()]) for t in elems]
    prod = linear[0] * linear[1] * linear[2] * linear[3]
    assert is_squarefree(prod)
    assert not is_squarefree(prod * linear[2])


# -- every F_q against a FieldElement reference -------------------------------
# The schoolbook product and long division on FieldElements that Polynomial
# ran over F_{p^k} before it stored flat residues, kept as the reference.

EXTENSIONS = [(3, 2), (5, 2), (3, 3), (3, 4), (7, 3)]  # F_9, F_25, F_27, F_81, F_343


def ref_mul(f, g):
    F = f.field
    if f.is_zero() or g.is_zero():
        return Polynomial.zero(F)
    out = [F.zero()] * (f.degree + g.degree + 1)
    for i, a in enumerate(f.coeffs):
        if not a.is_zero():
            for j, b in enumerate(g.coeffs):
                out[i + j] = out[i + j] + a * b
    return Polynomial(F, out)


def ref_pow(f, e):
    out = Polynomial.one(f.field)
    for _ in range(e):
        out = ref_mul(out, f)
    return out


def ref_divmod(f, g):
    F = f.field
    rem = list(f.coeffs)
    q = [F.zero()] * max(len(rem) - g.degree, 0)
    inv_lead = g.leading().inverse()
    while len(rem) - 1 >= g.degree and rem:
        if rem[-1].is_zero():
            rem.pop()
            continue
        c = rem[-1] * inv_lead
        shift = len(rem) - 1 - g.degree
        q[shift] = c
        for i, b in enumerate(g.coeffs):
            rem[shift + i] = rem[shift + i] - c * b
        rem.pop()
    return Polynomial(F, q), Polynomial(F, rem)


def ref_monic(f):
    if f.is_zero():
        return f
    inv = f.leading().inverse()
    return Polynomial(f.field, [c * inv for c in f.coeffs])


def ref_gcd(f, g):
    while not g.is_zero():
        f, g = g, ref_divmod(f, g)[1]
    return ref_monic(f)


def ref_derivative(f):
    F = f.field
    return Polynomial(F, [F.element(n) * c for n, c in enumerate(f.coeffs)][1:])


def random_poly(rng, F, n):
    return Polynomial(F, [[rng.randrange(F.p) for _ in range(F.k)] for _ in range(n)])


@pytest.mark.parametrize("p, k", EXTENSIONS)
def test_products_and_powers_over_fpk_match_the_reference(p, k):
    rng = random.Random(10 * p + k)
    F = make_field(p, k)
    for _ in range(12):
        f, g = random_poly(rng, F, rng.randrange(0, 12)), random_poly(rng, F, rng.randrange(0, 12))
        assert f * g == ref_mul(f, g)
        assert f * f == ref_mul(f, f)
        for e in (0, 1, 2, 3, 7):
            assert poly_pow(f, e) == ref_pow(f, e)
    big = random_poly(rng, F, 60)
    assert big * big == ref_mul(big, big)


@pytest.mark.parametrize("p, k", EXTENSIONS)
def test_euclid_derivative_and_monic_over_fpk_match_the_reference(p, k):
    rng = random.Random(20 * p + k)
    F = make_field(p, k)
    for _ in range(15):
        a, b, c = (random_poly(rng, F, rng.randrange(lo, hi)) for lo, hi in ((0, 12), (1, 7), (1, 4)))
        if not b.is_zero():
            assert divmod(a, b) == ref_divmod(a, b)
        assert poly_gcd(a, b) == ref_gcd(a, b)
        assert poly_gcd(a * c, b * c) == ref_gcd(ref_mul(a, c), ref_mul(b, c))
        assert a.derivative() == ref_derivative(a)
        assert a.monic() == ref_monic(a)
        zeros = (F.zero(),) * 12
        A, B = a.coeffs + zeros, b.coeffs + zeros
        assert a + b == Polynomial(F, [x + y for x, y in zip(A, B)])
        assert a - b == Polynomial(F, [x - y for x, y in zip(A, B)])
        assert -a == Polynomial(F, [-x for x in a.coeffs])
        t = F.element([rng.randrange(p) for _ in range(k)])
        assert a.scale(t) == Polynomial(F, [x * t for x in a.coeffs])


@pytest.mark.parametrize("p, k", [(3, 2), (5, 2), (3, 3), (7, 3), (3, 4), (5, 4)])
@pytest.mark.parametrize("n, m", [(1, 1), (1, 6), (5, 9), (33, 40)])
def test_fpk_product_at_the_width_bound(p, k, n, m):
    # every residue p - 1: the middle slot of each coefficient sums
    # min(n, m) k products (p-1)^2, the bound the slot width must exceed
    F = make_field(p, k)
    f, g = Polynomial(F, [[p - 1] * k] * n), Polynomial(F, [[p - 1] * k] * m)
    assert f * g == ref_mul(f, g)
    assert f * f == ref_mul(f, f)


@pytest.mark.parametrize("p, k, n, w", [(3, 2, 31, 1), (3, 2, 32, 2), (3, 4, 15, 1), (3, 4, 16, 2),
                                        (5, 3, 5, 1), (5, 3, 6, 2)])
def test_fpk_slot_width_is_exact(p, k, n, w):
    # n k (p-1)^2 sits just below or at 2^(8w'), w' the width below w
    F = make_field(p, k)
    a = [p - 1] * (n * k)
    assert _kronecker_bytes(a, a, F)[1] == w
    f = Polynomial(F, [[p - 1] * k] * n)
    assert f * f == ref_mul(f, f)


def test_residues_are_the_one_coercion_boundary(monkeypatch):
    F, G = make_field(5, 2), make_field(5, 3)
    f = Polynomial(F, [3, [1, 2], F.gen(), 0, 0])
    assert f.residues == (3, 0, 1, 2, 0, 1) and f.degree == 2
    assert f.coeffs == (F.element(3), F.element([1, 2]), F.gen())
    assert (f.coeff(1), f.coeff(7), f.leading()) == (F.element([1, 2]), F.zero(), F.gen())
    for bad in ([G.one()], [make_field(5).one()]):
        with pytest.raises(FieldMismatchError):
            Polynomial(F, bad)
    with pytest.raises(ValueError):
        Polynomial(F, [[1, 2, 3]])
    # ints become residues without a FieldElement, here and in FieldMatrix
    built = []
    init = ff.FieldElement.__init__
    monkeypatch.setattr(ff.FieldElement, "__init__", lambda self, *a: built.append(1) or init(self, *a))
    g = Polynomial(F, list(range(40)))
    FieldMatrix(F, [[1, 2, 3], [4, 5, 6]])
    assert g * g == poly_pow(g, 2) and divmod(g, f)[1].degree < 2
    assert built == []
