"""Integer factorization helpers: Miller-Rabin on the first 13 prime
bases, deterministic below 3.3 * 10^24, the next prime above n, and
Brent's variant of Pollard rho."""

from __future__ import annotations

from math import gcd, isqrt

# Deterministic witness set for n < 3.3 * 10^24.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)


def is_probable_prime(n: int) -> bool:
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def next_prime(n: int) -> int:
    """The least prime greater than n."""
    if n < 2:
        return 2
    n += 1 + n % 2
    while not is_probable_prime(n):
        n += 2
    return n


def _pollard_brent(n: int) -> int:
    """A nontrivial factor of composite odd n.

    Brent's cycle search on x -> x^2 + c: the stride r doubles each
    round, gcds are taken over blocks of m products, and a block whose
    gcd is n is replayed one step at a time from its saved start ys.
    When even that gives n, the next constant c is tried.
    """
    if n % 2 == 0:
        return 2
    m = 128
    c = 1
    while True:
        y, r, q, d = 2, 1, 1, 1
        while d == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and d == 1:
                ys = y
                for _ in range(min(m, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                d = gcd(q, n)
                k += m
            r *= 2
        if d == n:
            d = 1
            while d == 1:
                ys = (ys * ys + c) % n
                d = gcd(abs(x - ys), n)
        if d != n:
            return d
        c += 1


def factorint(n: int) -> dict[int, int]:
    """Prime factorization of |n| as {prime: exponent}; 0 and +-1 give {}."""
    n = abs(n)
    if n <= 1:
        return {}
    out: dict[int, int] = {}
    for p in _SMALL_PRIMES:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    stack = [n] if n > 1 else []
    while stack:
        m = stack.pop()
        if m == 1:
            continue
        if is_probable_prime(m):
            out[m] = out.get(m, 0) + 1
            continue
        r = isqrt(m)
        if r * r == m:
            stack.extend((r, r))
            continue
        d = _pollard_brent(m)
        stack.extend((d, m // d))
    return dict(sorted(out.items()))


def is_square(n: int) -> bool:
    if n < 0:
        return False
    r = isqrt(n)
    return r * r == n
