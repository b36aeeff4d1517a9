"""Integer factorization: Miller-Rabin, Pollard-Brent and divisors."""

import random
from math import prod

from gl2tors.arith import divisors, factorint, is_probable_prime


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


def test_divisors():
    assert divisors(-12) == [1, 2, 3, 4, 6, 12]
    assert divisors(1) == [1]
