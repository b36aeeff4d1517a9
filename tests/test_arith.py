"""Integer factorization: Miller-Rabin, next_prime and Pollard-Brent."""

import random
from math import prod

import pytest

from gl2tors.arith import factorint, is_probable_prime, next_prime


def _random_prime(rng, bits):
    p = rng.getrandbits(bits) | (1 << (bits - 1)) | 1
    while not is_probable_prime(p):
        p += 2
    return p


def test_factorint_cycle_search_case():
    # Brent's search must double its stride to find this factor.
    assert factorint(861037643) == {7951: 1, 108293: 1}


def test_factorint_roundtrip_semiprimes():
    rng = random.Random(20260815)
    for _ in range(60):
        p = _random_prime(rng, rng.randint(8, 32))
        q = _random_prime(rng, rng.randint(8, 32))
        n = p * q * rng.choice((1, 1, 2, 9, p))
        f = factorint(n)
        assert prod(r ** e for r, e in f.items()) == n
        assert all(is_probable_prime(r) for r in f)
        assert list(f) == sorted(f)
    assert factorint(-12) == {2: 2, 3: 1}
    assert factorint(1) == factorint(0) == {}


def test_next_prime():
    assert [next_prime(n) for n in (-5, 0, 1, 2, 3, 4, 13, 24, 89)] == [
        2, 2, 2, 3, 5, 5, 17, 29, 97]
    assert next_prime(2 ** 61 - 2) == 2 ** 61 - 1


# The smallest strong pseudoprime to the first k prime bases, for the k
# at which it changes (Jaeschke 1993; Sorenson and Webster 2017): each is
# composite, and is_probable_prime, which tries all 13 bases, says so.
STRONG_PSEUDOPRIMES = (2047, 1373653, 25326001, 3215031751, 2152302898747,
                       3474749660383, 341550071728321, 3825123056546413051,
                       318665857834031151167461)


def test_strong_pseudoprimes_are_composite():
    for n in STRONG_PSEUDOPRIMES:
        f = factorint(n)
        assert sum(f.values()) > 1
        assert prod(p ** e for p, e in f.items()) == n
        assert not is_probable_prime(n)


def test_primality_matches_sieve():
    bound = 2 * 10 ** 5
    sieve = bytearray([1]) * bound
    sieve[:2] = b"\0\0"
    for i in range(2, int(bound ** 0.5) + 1):
        if sieve[i]:
            sieve[i * i::i] = bytearray(len(range(i * i, bound, i)))
    assert [n for n in range(bound) if is_probable_prime(n)] == [
        n for n in range(bound) if sieve[n]]


def test_primality_matches_sympy_between_pseudoprimes():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(20261018)
    bounds = (2,) + STRONG_PSEUDOPRIMES + (10 ** 30,)
    for low, high in zip(bounds, bounds[1:]):
        for _ in range(40):
            n = rng.randrange(low, high)
            p = int(sympy.nextprime(n))
            for m in (n, p, p + 2):
                assert is_probable_prime(m) == sympy.isprime(m), m
