import pytest

from designdim.fields import _monic_polys, is_prime, make_field, prime_power

SMALL_ORDERS = [q for q in range(2, 65) if prime_power(q) is not None]
EXTENSION_ORDERS = [q for q in range(2, 257) if (pp := prime_power(q)) and pp[1] >= 2]


def test_gf2_addition():
    f = make_field(2, 1)
    assert f.order == 2
    assert f.add(1, 1) == 0


def test_gf3_inverse_of_two():
    f = make_field(3, 1)
    assert f.mul(2, 2) == 1
    assert f.inv(2) == 2


def test_gf4_modulus_and_square():
    # the unique irreducible quadratic over GF(2) is x^2 + x + 1, and under
    # it x * x = x + 1 (element 2 encodes x, element 3 encodes x + 1)
    f = make_field(2, 2)
    assert f.modulus == (1, 1, 1)
    assert f.order == 4
    assert f.mul(2, 2) == 3


def test_known_canonical_moduli():
    assert make_field(2, 3).modulus == (1, 1, 0, 1)  # x^3 + x + 1
    assert make_field(3, 2).modulus == (1, 0, 1)  # x^2 + 1


def test_modulus_is_deterministic():
    assert make_field(2, 4).modulus == make_field(2, 4).modulus


def test_rejects_non_prime_characteristic():
    with pytest.raises(ValueError, match="not prime"):
        make_field(4, 1)
    with pytest.raises(ValueError, match="not prime"):
        make_field(1, 1)


def test_rejects_bad_degree_and_oversize():
    with pytest.raises(ValueError):
        make_field(2, 0)
    with pytest.raises(ValueError, match="exceeds maximum"):
        make_field(2, 17)


def test_prime_power_detection():
    assert prime_power(8) == (2, 3)
    assert prime_power(9) == (3, 2)
    assert prime_power(7) == (7, 1)
    assert prime_power(6) is None
    assert prime_power(1) is None
    assert is_prime(2) and is_prime(97) and not is_prime(91)


def test_unit_laws_and_inverses_exhaustive():
    for q in SMALL_ORDERS:
        f = make_field(*prime_power(q))
        assert len(set(f.elements)) == q
        for a in f.elements:
            assert f.add(a, 0) == a
            assert f.mul(a, 1) == a
            assert f.add(a, f.neg(a)) == 0
            if a:
                assert f.mul(a, f.inv(a)) == 1
                assert f.mul(f.inv(a), a) == 1
        with pytest.raises(ZeroDivisionError):
            f.inv(0)


def test_commutativity_exhaustive():
    for q in SMALL_ORDERS:
        f = make_field(*prime_power(q))
        for a in f.elements:
            for b in f.elements:
                assert f.add(a, b) == f.add(b, a)
                assert f.mul(a, b) == f.mul(b, a)
                assert f.sub(a, b) == f.neg(f.sub(b, a))


def test_associativity_and_distributivity_exhaustive():
    """Full triple loops for every field with at most 64 elements."""
    for q in SMALL_ORDERS:
        f = make_field(*prime_power(q))
        for a in f.elements:
            for b in f.elements:
                ab = f.mul(a, b)
                a_plus_b = f.add(a, b)
                for c in f.elements:
                    assert f.mul(ab, c) == f.mul(a, f.mul(b, c))
                    assert f.add(a_plus_b, c) == f.add(a, f.add(b, c))
                    assert f.mul(f.add(b, c), a) == f.add(f.mul(b, a), f.mul(c, a))


def test_pow_matches_repeated_multiplication():
    f = make_field(3, 2)
    for a in f.elements:
        acc = 1
        for n in range(6):
            assert f.pow(a, n) == acc
            acc = f.mul(acc, a)


def _digits(a, p, e):
    return [a // p**i % p for i in range(e)]


def _undigits(ds, p):
    return sum(d * p**i for i, d in enumerate(ds))


@pytest.mark.parametrize("q", EXTENSION_ORDERS)
def test_extension_field_addition_is_digitwise(q):
    """An element's base-p digits are its polynomial coefficients, so sum,
    negation and difference act on each digit mod p, on every pair."""
    p, e = prime_power(q)
    f = make_field(p, e)
    digits = [_digits(a, p, e) for a in f.elements]
    for a in f.elements:
        assert f.neg(a) == _undigits([-x % p for x in digits[a]], p)
        for b in f.elements:
            assert f.add(a, b) == _undigits([(x + y) % p for x, y in zip(digits[a], digits[b])], p)
            assert f.sub(a, b) == _undigits([(x - y) % p for x, y in zip(digits[a], digits[b])], p)


def test_is_prime_matches_a_sieve():
    limit = 10_000
    sieve = [False, False] + [True] * (limit - 2)
    for n in range(2, limit):
        if sieve[n]:
            for m in range(n * n, limit, n):
                sieve[m] = False
    assert [is_prime(n) for n in range(-5, limit)] == [False] * 5 + sieve


@pytest.mark.parametrize("p, degree", [(2, 1), (2, 2), (2, 3), (2, 4), (3, 1), (3, 2), (3, 3),
                                       (5, 2), (7, 2)])
def test_monic_polys_count_up_the_low_coefficients(p, degree):
    """p^degree distinct monic polynomials, in increasing order of the
    base-p number whose digits are their low coefficients, constant
    digit lowest: the order that picks every canonical modulus."""
    polys = list(_monic_polys(degree, p))
    assert len(set(polys)) == len(polys) == p**degree
    assert all(len(c) == degree + 1 and c[-1] == 1 for c in polys)
    assert [_undigits(c[:-1], p) for c in polys] == list(range(p**degree))
