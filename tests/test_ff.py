import contextlib
import gc
import io
import itertools
import random
import time

import pytest

import sympy
from sympy.polys.domains import ZZ
from sympy.polys.galoistools import gf_irreducible_p

from superell import canonical_module, cli, decide_irreducibility, hasse_witt, parse_curve
from superell.ff import (
    FieldDescriptor,
    FieldMismatchError,
    _LogTables,
    NonPrimeModulusError,
    _inverse,
    _mul_matrix,
    _norm,
    _pack,
    _power,
    _primitive_element,
    _smallest_irreducible,
    _times,
    _unpack,
    frobenius,
    is_prime,
    lift_to,
    make_field,
    primes_up_to,
)
from superell import ff
from superell.poly import Polynomial


def brute_force_smallest_irreducible_quadratic(p):
    # scan (const, linear) ascending; irreducible <=> no roots for degree 2
    for c0 in range(p):
        for c1 in range(p):
            if all((a * a + c1 * a + c0) % p != 0 for a in range(p)):
                return (c0, c1, 1)
    raise AssertionError


def test_prime_field_has_no_modulus():
    F5 = make_field(5, 1)
    assert F5.p == 5 and F5.k == 1 and F5.modulus is None


def test_f9_modulus_is_smallest_lexicographic():
    F9 = make_field(3, 2)
    assert F9.modulus == brute_force_smallest_irreducible_quadratic(3)
    assert F9.modulus == (1, 0, 1)  # x^2 + 1


def test_f25_modulus_matches_independent_scan():
    F25 = make_field(5, 2)
    assert F25.modulus == brute_force_smallest_irreducible_quadratic(5)


def test_non_prime_rejected():
    with pytest.raises(NonPrimeModulusError):
        make_field(4, 1)
    with pytest.raises(ValueError):
        make_field(5, 0)


def test_degree_four_field_over_f2():
    # forces the full irreducibility test (gcd with x^(p^i) - x)
    F16 = make_field(2, 4)
    # independent scan: first vector (c0, c1, c2, c3) in ascending tuple
    # order whose monic quartic has no linear or quadratic factor
    def divides(small, big):
        big = list(big)
        while len(big) >= len(small):
            if big[-1]:
                shift = len(big) - len(small)
                big = [(x - y) % 2 for x, y in zip(big, [0] * shift + list(small))]
            big.pop()
        return not any(big)

    import itertools

    smalls = [(0, 1), (1, 1), (1, 1, 1)]  # x, x+1, x^2+x+1
    expected = None
    for low in itertools.product(range(2), repeat=4):
        cand = list(low) + [1]
        if not any(divides(s, cand) for s in smalls):
            expected = tuple(cand)
            break
    assert F16.modulus == expected == (1, 0, 0, 1, 1)  # x^4 + x^3 + 1
    one = F16.one()
    for a in F16.elements():
        if not a.is_zero():
            assert a**15 == one


def test_frobenius_fixes_prime_field():
    F5 = make_field(5)
    a = F5.element(2)
    assert frobenius(a) == a


def test_frobenius_on_f9_generator():
    F9 = make_field(3, 2)
    t = F9.gen()
    # t^2 = -1, so t^3 = -t; check against direct repeated multiplication
    assert t * t == -F9.one()
    assert frobenius(t) == t * t * t == -t


def test_frobenius_of_zero():
    F49 = make_field(7, 2)
    assert frobenius(F49.zero()) == F49.zero()


def test_arith_examples():
    F5 = make_field(5)
    assert F5.element(3) * F5.element(4) == F5.element(2)
    F7 = make_field(7)
    assert F7.element(2).inverse() == F7.element(4)
    with pytest.raises(ZeroDivisionError):
        F7.zero().inverse()


def test_field_mismatch_rejected():
    F5, F7 = make_field(5), make_field(7)
    with pytest.raises(FieldMismatchError):
        F5.element(1) + F7.element(1)


def test_extension_inverse_round_trip():
    rng = random.Random(7)
    for p, k in ((3, 2), (5, 2), (7, 2), (3, 3)):
        K = make_field(p, k)
        elems = list(K.elements())
        for _ in range(50):
            a = elems[rng.randrange(1, len(elems))]
            assert a * a.inverse() == K.one()


@pytest.mark.parametrize("p", [3, 5, 7])
def test_frobenius_additivity(p):
    K = make_field(p, 2)
    rng = random.Random(p)
    elems = list(K.elements())
    for _ in range(100):
        a = elems[rng.randrange(len(elems))]
        b = elems[rng.randrange(len(elems))]
        assert frobenius(a + b) == frobenius(a) + frobenius(b)


@pytest.mark.parametrize("p,k", [(3, 2), (5, 2), (7, 2), (2, 4)])
def test_frobenius_iterated_k_times_is_identity(p, k):
    K = make_field(p, k)
    rng = random.Random(p * k)
    elems = list(K.elements())
    for _ in range(200):
        a = elems[rng.randrange(len(elems))]
        b = a
        for _ in range(k):
            b = frobenius(b)
        assert b == a


def test_multiplicative_group_order():
    for p, k in ((3, 2), (5, 2), (7, 2)):
        K = make_field(p, k)
        one = K.one()
        for a in K.elements():
            if not a.is_zero():
                assert a ** (p**k - 1) == one


def test_lift_to_extension():
    F3 = make_field(3)
    F9 = make_field(3, 2)
    a = lift_to(F3.element(2), F9)
    assert a.field == F9 and a == F9.element(2)
    with pytest.raises(FieldMismatchError):
        lift_to(F9.gen(), make_field(3, 3))


def test_is_prime_small_values():
    assert [n for n in range(2, 30) if is_prime(n)] == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]


def test_is_prime_agrees_with_the_sieve():
    from superell import casecheck

    assert casecheck.primes_up_to is primes_up_to
    assert primes_up_to(1) == [] and primes_up_to(2) == [2]
    assert [n for n in range(-5, 2000) if is_prime(n)] == primes_up_to(1999)
    assert is_prime(1000003) and is_prime(2**31 - 1)
    assert not is_prime(1000003 * 3) and not is_prime(1009**2)
    # a small factor ends the search at once, however large the cofactor
    assert not is_prime(2 * (2**61 - 1))


def test_is_prime_rejects_strong_pseudoprimes():
    # strong pseudoprimes to the bases 2; 2, 3, 5, 7; and 2, ..., 23
    assert not any(is_prime(n) for n in (2047, 3215031751, 3825123056546413051))
    assert is_prime(2**61 - 1) and is_prime(2**79 - 67)  # both below 3.3e24
    # above the bound a witness still proves a product of two primes composite
    assert not is_prime((2**61 - 1) * (2**31 - 1))


def test_is_prime_refuses_what_it_cannot_certify():
    with pytest.raises(ValueError, match="cannot certify"):
        is_prime(2**127 - 1)
    with pytest.raises(ValueError):
        make_field(2**127 - 1)


@pytest.mark.parametrize("p, k", [(2, 1), (2, 5), (3, 1), (3, 4), (5, 3), (5, 4), (7, 2), (13, 1)])
def test_log_tables_evaluate_like_horner(p, k):
    rng = random.Random(100 * p + k)
    Fp, K = make_field(p), make_field(p, k)
    for _ in range(6):
        n = rng.randrange(0, 9)
        if k > 1 and rng.random() < 0.5:
            f = Polynomial(K, [K.element([rng.randrange(p) for _ in range(k)]) for _ in range(n)] + [K.one()])
        else:
            f = Polynomial(Fp, [rng.randrange(p) for _ in range(n)] + [rng.randrange(1, p)])
        tables = _LogTables(K, f)
        xs = [K.zero()] + [tables.element(i) for i in range(K.order - 1)]
        assert set(xs) == set(K.elements())  # g is primitive
        for x, L in zip(xs, tables):
            v = f.eval(x)
            assert v.is_zero() if L < 0 else tables.element(L) == v


@pytest.mark.parametrize("p, k, n", [(2, 13, 16), (3, 10, 32)])
def test_log_tables_add_wide_sums_in_groups(p, k, n):
    # the k residues of a sum of n table entries overflow a 64-bit word
    # (16 terms over F_(2^13): 13 * 5 > 64), so the terms go in two groups
    # whose sums are reduced mod p before the lookup
    K = make_field(p, k)
    f = Polynomial(make_field(p), [1, 0] + [1] * (n - 1))
    tables = _LogTables(K, f)
    assert len(tables.groups) == 2
    logs = list(tables)
    assert tables.element(logs[0]) == K.one()  # f(0)
    for i in range(0, K.order - 1, 101):
        v = f.eval(tables.element(i))
        assert v.is_zero() if logs[i + 1] < 0 else tables.element(logs[i + 1]) == v


def narrow_index(v):
    """sum_u r_u p^u for the residues r_u of v."""
    return sum(r * v.field.p**u for u, r in enumerate(v.coeffs))


def assert_values_match_eval(tables, f, samples):
    """values() against the narrow index of f.eval at x = 0 and at about
    `samples` of the g^i."""
    K = tables.field
    values = list(tables.values())
    assert len(values) == K.order and values[0] == narrow_index(f.eval(K.zero()))
    for i in range(0, K.order - 1, max(1, (K.order - 1) // samples)):
        assert values[i + 1] == narrow_index(f.eval(tables.element(i))), i


# (p, k, nonzero terms, word bytes, groups): 13 residues of 2 bits fit a
# 4-byte word, 13 of 4 bits do not; k = 1 at p = 65537 leaves no Barrett
# headroom in 32-bit slots
@pytest.mark.parametrize("p, k, terms, width, groups", [
    (2, 13, 3, 4, 1), (2, 13, 20, 8, 2), (47, 2, 10, 4, 1), (5, 3, 6, 4, 1), (65537, 1, 5, 8, 1)])
def test_log_table_values_at_both_word_widths(p, k, terms, width, groups):
    rng = random.Random(p * k + terms)
    f = Polynomial(make_field(p), [rng.randrange(1, p) for _ in range(terms - 1)] + [0] * (21 - terms) + [1])
    tables = _LogTables(make_field(p, k), f)
    assert tables.exp.itemsize == width and tables.narrows.itemsize == (width if k == 1 else 4)
    assert len(tables.groups) == groups
    assert_values_match_eval(tables, f, 300)


@pytest.mark.parametrize("p, k", [(47, 2), (5, 3), (2, 13)])
@pytest.mark.parametrize("width", [4, 8])
def test_log_table_values_reduce_group_by_group(p, k, width, monkeypatch):
    # a 64-bit limit of 3 (p - 1) leaves room for two terms per group, so
    # every run adds five groups' planes, each reduced before the next; the
    # same limit for 32-bit slots leaves 8-byte words
    K = make_field(p, k)
    f = Polynomial(K, [K.element([(3 * j + u) % p for u in range(k)]) for j in range(9)] + [1])
    wide = list(_LogTables(K, f).values())
    monkeypatch.setitem(ff._SLOT_LIMIT, 64, 3 * (p - 1))
    if width == 8:
        monkeypatch.setitem(ff._SLOT_LIMIT, 32, 3 * (p - 1))
    tables = _LogTables(K, f)
    assert len(tables.groups) == 5 and tables.exp.itemsize == width
    assert list(tables.values()) == wide
    assert_values_match_eval(tables, f, 100)


@pytest.mark.parametrize("p,k", [(2, 1), (3, 3), (7, 2), (1009, 1), (3, 4), (5, 3)])
def test_residue_inverse_times_c_is_one(p, k):
    # the inverse and the norm share one elimination of y -> c y; the norm
    # is also c^((q-1)/(p-1)), whose residues lie in F_p
    K = make_field(p, k)
    one = list(K.one().coeffs)
    M = (K.order - 1) // (p - 1)
    for c in K.elements():
        assert _power(K, c.coeffs, M) == (_norm(K, c.coeffs),) + (0,) * (k - 1)
        if c.is_zero():
            with pytest.raises(ZeroDivisionError):
                _inverse(K, c.coeffs)
            continue
        inv = _inverse(K, c.coeffs)
        assert len(inv) == k
        assert _times(_mul_matrix(K, inv), c.coeffs, p) == one
        assert c.inverse().coeffs == inv


# -- the residue packer shared by linalg and the Kronecker products ----------


@pytest.mark.parametrize("w", range(1, 10))
def test_pack_round_trips_at_every_width(w):
    rng = random.Random(w)
    top = (1 << 8 * w) - 1
    for values in ([], [0], [top], [top] * 37, [rng.randrange(top + 1) for _ in range(101)]):
        x = _pack(values, w)
        assert x == int.from_bytes(b"".join(v.to_bytes(w, "little") for v in values), "little")
        assert _unpack(x, len(values), w) == values


# -- the primitive element, filtered through the norm -----------------------


def plain_primitive_element(K):
    """The first nonzero g in elements() order with g^((q-1)/r) != 1 for
    every prime r | q-1, by FieldElement powers."""
    Q = K.order - 1
    primes = sympy.primefactors(Q)
    return next(g for g in K.elements() if not g.is_zero() and all(g ** (Q // r) != K.one() for r in primes))


# N(x) is a square at every k = 2 and odd p here, so the first line t x holds
# no generator and is skipped; p = 2 and k = 4 scan every element
@pytest.mark.parametrize("p, k", [(2, 2), (2, 3), (3, 2), (3, 3), (3, 7), (2, 13), (13, 3), (5, 5), (211, 2),
                                  (29, 2), (47, 2), (2003, 2), (3, 4), (5, 4),
                                  (2, 1), (3, 1), (7, 1), (41, 1), (1009, 1), (65537, 1)])
def test_primitive_element_is_the_first_generator_in_element_order(p, k):
    K = make_field(p, k)
    assert _primitive_element(K) == plain_primitive_element(K)


def test_primitive_element_of_f_2003_squared_skips_the_square_norm_line():
    # x^2 + 1 is the modulus and N(x) = 1, so all of t x fails; scanning that
    # line took about 3.5 ms per call
    K = make_field(2003, 2)
    readings = []
    for _ in range(5):
        start = time.process_time()
        _primitive_element(K)
        readings.append(time.process_time() - start)
    assert min(readings) < 0.5e-3, f"_primitive_element(F_(2003^2)) took {min(readings) * 1e3:.2f} ms of CPU"


def plain_quadratic_generator(K):
    """The first nonzero g = v0 + v1 x in elements() order with g^((q-1)/r)
    != 1 for every prime r | q-1, on int pairs mod x^2 = c0 + c1 x.  A power
    of g = v1 x on the first line is v1^E x^E, x^E formed once per E."""
    p, Q = K.p, K.order - 1
    c0, c1 = -K.modulus[0] % p, -K.modulus[1] % p

    def mul(a, b):
        t = a[1] * b[1]
        return (a[0] * b[0] + t * c0) % p, (a[0] * b[1] + a[1] * b[0] + t * c1) % p

    def power(a, e):
        result = (1, 0)
        while e:
            result, a, e = mul(result, a) if e & 1 else result, mul(a, a), e >> 1
        return result

    exps = [Q // r for r in sympy.primefactors(Q)]
    x_to = [power((0, 1), E) for E in exps]
    for g in itertools.product(range(p), repeat=2):
        if g == (0, 0):
            continue
        if g[0] == 0:
            powers = ((pow(g[1], E, p) * a % p, pow(g[1], E, p) * b % p) for E, (a, b) in zip(exps, x_to))
        else:
            powers = (power(g, E) for E in exps)
        if all(y != (1, 0) for y in powers):
            return g


def test_primitive_element_at_k_2_is_the_plain_search_for_every_p_below_2100():
    # the search powers u = g^(p-1) = conj(g)^2 / N(g) to (p+1)/r at k = 2
    for p in primes_up_to(2099):
        K = make_field(p, 2)
        assert _primitive_element(K).coeffs == plain_quadratic_generator(K), p


def test_make_field_12007_cubed_skips_the_constant_term_zero():
    # every candidate with c_0 = 0 is divisible by x; scanning them took 49 s
    start = time.process_time()
    K = make_field(12007, 3)
    elapsed = time.process_time() - start
    assert K.modulus == (1, 0, 1, 1)  # x^3 + x^2 + 1; x^3 + 1, the one candidate before it, has the root -1
    assert gf_irreducible_p([ZZ(1), ZZ(1), ZZ(0), ZZ(1)], 12007, ZZ)
    assert elapsed < 0.5, f"make_field(12007, 3) took {elapsed:.2f} s of CPU"


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13])
@pytest.mark.parametrize("k", [2, 3, 4])
def test_pinned_modulus_is_the_least_irreducible_by_sympy(p, k):
    # candidates (c_0, ..., c_(k-1)) in tuple order, constant term most
    # significant; sympy reads x^k + ... + c_0 in descending order
    def irreducible(low):
        return gf_irreducible_p([ZZ(1)] + [ZZ(c) for c in reversed(low)], p, ZZ)

    modulus = _smallest_irreducible(make_field(p), k)
    assert len(modulus) == k + 1 and modulus[-1] == 1
    assert irreducible(modulus[:-1])
    for low in itertools.product(range(p), repeat=k):
        if low == modulus[:-1]:
            break
        assert not irreducible(low)
    assert make_field(p, k).modulus == modulus


def test_a_supplied_modulus_is_verified_and_the_pinned_one_is_not_rebuilt():
    assert FieldDescriptor(5, 2, (2, 0, 1)).modulus == (2, 0, 1)  # x^2 + 2: -2 is no square mod 5
    with pytest.raises(ValueError, match="reducible"):
        FieldDescriptor(5, 2, (1, 0, 1))  # x^2 + 1 = (x - 2)(x + 2)
    K = make_field(5, 2)
    assert K._prime == make_field(5) and make_field(5)._prime is None


def test_fields_and_their_callers_leave_no_reference_cycles():
    # every descriptor is freed by its reference count, not by the cyclic collector
    def text_classify():
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(["classify", "y^2 = x^5 - x mod 7", "--e", "1,2"]) == 0

    gc.collect()
    gc.disable()
    try:
        make_field(5)
        make_field(5, 2)
        text_classify()
        decide_irreducibility(canonical_module(5, 3))
        hasse_witt(parse_curve("y^2 = x^7 + 3*x + 1 mod 31"))
        assert gc.collect() == 0
    finally:
        gc.enable()
