import random

import pytest
from sympy.polys.domains import ZZ
from sympy.polys.galoistools import gf_div, gf_gcd, gf_mul, gf_pow, gf_sqf_p, gf_strip

from superell.ff import _kronecker_bytes, _polymul, make_field
from superell.ff import FieldMismatchError
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
    for _ in range(40):
        a = [rng.randrange(p) for _ in range(rng.randrange(0, 30))]
        b = [rng.randrange(p) for _ in range(rng.randrange(0, 30))]
        want = schoolbook_ints(a, b, p)
        assert _polymul(a, b, p) == want
        assert want == from_gf(gf_mul(to_gf(a), to_gf(b), p, ZZ))
        assert _polymul(a, a, p) == schoolbook_ints(a, a, p)  # squaring packs once


@pytest.mark.parametrize("p", KERNEL_PRIMES)
@pytest.mark.parametrize("n, m", [(1, 1), (1, 7), (5, 9), (64, 64), (300, 257)])
def test_polymul_at_the_width_bound(p, n, m):
    # all coefficients p - 1: the middle slots reach min(n, m) (p-1)^2, the
    # bound the slot width must exceed
    a, b = [p - 1] * n, [p - 1] * m
    assert _polymul(a, b, p) == schoolbook_ints(a, b, p)
    assert _polymul(a, a, p) == schoolbook_ints(a, a, p)


# (p, n, w): n-coefficient factors give the exact slot width w, the least
# with 2^(8w) > n (p-1)^2, including the widths that `array` lacks
EXACT_WIDTHS = [(53, 60, 3), (1009, 60, 4), (65537, 40, 5), (1048573, 40, 6), (16777213, 40, 7),
                (2**31 - 1, 2, 8), (2**31 - 1, 40, 9), (2**61 - 1, 40, 16)]


@pytest.mark.parametrize("p, n, w", EXACT_WIDTHS)
def test_polymul_at_exact_widths_matches_sympy(p, n, w):
    rng = random.Random(n * p)
    for a, b in [([p - 1] * n, [p - 1] * (n + 3)),
                 ([rng.randrange(p) for _ in range(n)], [rng.randrange(p) for _ in range(2 * n)])]:
        assert _kronecker_bytes(a, b, p)[1] == w
        assert _polymul(a, b, p) == from_gf(gf_mul(to_gf(a), to_gf(b), p, ZZ))
        assert _polymul(a, a, p) == from_gf(gf_mul(to_gf(a), to_gf(a), p, ZZ))


def test_kronecker_square_keeps_the_exact_width():
    # 20k coefficients at p = 1009: slots up to 20000 (p-1)^2 < 2^40 take 5
    # bytes, not the 8 of the next array width.  For a = (p-1, ..., p-1),
    # (p-1)^2 = 1 mod p, so slot n of a^2 is min(n + 1, 2N - 1 - n) mod p.
    p, N = 1009, 20000
    a = [p - 1] * N
    assert _kronecker_bytes(a, a, p)[1] == 5
    assert _polymul(a, a, p) == [min(n + 1, 2 * N - 1 - n) % p for n in range(2 * N - 1)]


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
        check_euclid_against_sympy(F, _polymul(a, c, p), _polymul(b, c, p))  # a shared factor
        check_euclid_against_sympy(F, _polymul(b, _polymul(c, c, p), p), a)  # a square factor
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
