"""Small exact-arithmetic helpers written independently of gl2tors.

The workload generators use them to stratify inputs, and the output
oracles use them to check results without going through the code paths
under test. Integers and Fractions only; nothing here imports gl2tors.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt

# Torsion structures over Q (Mazur): cyclic (m,) or (2, 2k).
MAZUR = frozenset([(m,) for m in (1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 12)]
                  + [(2, 2 * k) for k in (1, 2, 3, 4)])


def mat_mul(a, b, n):
    """Product of 2x2 matrices given as row-major 4-tuples, mod n."""
    return ((a[0] * b[0] + a[1] * b[2]) % n, (a[0] * b[1] + a[1] * b[3]) % n,
            (a[2] * b[0] + a[3] * b[2]) % n, (a[2] * b[1] + a[3] * b[3]) % n)


def mat_det(a, n):
    return (a[0] * a[3] - a[1] * a[2]) % n


def mat_inv(a, n):
    di = pow(mat_det(a, n), -1, n)
    return ((di * a[3]) % n, (-di * a[1]) % n, (-di * a[2]) % n,
            (di * a[0]) % n)


def group_elements(gens, n, limit=None):
    """Element set of the subgroup of GL2(Z/n) generated by gens; stops
    early, with more than limit elements, once it passes limit."""
    ident = (1, 0, 0, 1)
    gens = [tuple(g[i] % n for i in range(4)) for g in gens]
    seen = {ident}
    frontier = [ident]
    while frontier and (limit is None or len(seen) <= limit):
        nxt = []
        for x in frontier:
            for g in gens:
                y = mat_mul(x, g, n)
                if y not in seen:
                    seen.add(y)
                    nxt.append(y)
        frontier = nxt
    return seen


def conjugate_gens(gens, x, n):
    """Generators of x^-1 G x."""
    xi = mat_inv(x, n)
    return [mat_mul(mat_mul(xi, tuple(g), n), x, n) for g in gens]


def orbit_size(elements, v, n):
    return len({((v[0] * c[0] + v[1] * c[2]) % n,
                 (v[0] * c[1] + v[1] * c[3]) % n) for c in elements})


def b_invariants(a):
    a1, a2, a3, a4, a6 = a
    b2 = a1 * a1 + 4 * a2
    b4 = 2 * a4 + a1 * a3
    b6 = a3 * a3 + 4 * a6
    b8 = (a1 * a1 * a6 + 4 * a2 * a6 - a1 * a3 * a4 + a2 * a3 * a3
          - a4 * a4)
    return b2, b4, b6, b8


def discriminant(a):
    b2, b4, b6, b8 = b_invariants(a)
    return -b2 * b2 * b8 - 8 * b4 ** 3 - 27 * b6 * b6 + 9 * b2 * b4 * b6


def frobenius_trace(a, p):
    """a_p of an integral Weierstrass model at a good prime p."""
    if p == 2:
        a1, a2, a3, a4, a6 = a
        count = 1 + sum(1 for x in range(2) for y in range(2)
                        if (y * y + a1 * x * y + a3 * y
                            - x ** 3 - a2 * x * x - a4 * x - a6) % 2 == 0)
        return p + 1 - count
    b2, b4, b6, _ = b_invariants(a)
    half = (p - 1) // 2
    s = 0
    for x in range(p):
        g = (4 * x ** 3 + b2 * x * x + 2 * b4 * x + b6) % p
        if g:
            s += 1 if pow(g, half, p) == 1 else -1
    return -s


def poly_eval(coeffs, x):
    """Horner evaluation of low-to-high coefficients at a Fraction."""
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def _divisors(n):
    n = abs(n)
    small = [d for d in range(1, isqrt(n) + 1) if n % d == 0]
    return sorted(set(small + [n // d for d in small]))


def rational_roots(coeffs):
    """Rational roots of an integer polynomial with small outer
    coefficients, by the rational root theorem and trial division."""
    coeffs = list(coeffs)
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    roots = set()
    k = 0
    while coeffs[k] == 0:
        k += 1
    if k:
        roots.add(Fraction(0))
        coeffs = coeffs[k:]
    if len(coeffs) > 1:
        for q in _divisors(coeffs[-1]):
            for p in _divisors(coeffs[0]):
                for r in (Fraction(p, q), Fraction(-p, q)):
                    if poly_eval(coeffs, r) == 0:
                        roots.add(r)
    return sorted(roots)


def is_rational_square(v: Fraction) -> bool:
    if v < 0:
        return False
    n, d = v.numerator, v.denominator
    return isqrt(n) ** 2 == n and isqrt(d) ** 2 == d


def height(v: Fraction) -> int:
    return max(abs(v.numerator), v.denominator)


def det(rows):
    """Determinant of a square Fraction matrix by Gaussian elimination."""
    m = [list(map(Fraction, r)) for r in rows]
    n = len(m)
    out = Fraction(1)
    for k in range(n):
        piv = next((i for i in range(k, n) if m[i][k] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != k:
            m[k], m[piv] = m[piv], m[k]
            out = -out
        out *= m[k][k]
        for i in range(k + 1, n):
            f = m[i][k] / m[k][k]
            if f:
                for j in range(k, n):
                    m[i][j] -= f * m[k][j]
    return out


def sylvester(f, g):
    """Sylvester matrix of low-to-high coefficient lists f, g (formal
    degrees len-1)."""
    df, dg = len(f) - 1, len(g) - 1
    size = df + dg
    rows = []
    for i in range(dg):
        rows.append([0] * i + f[::-1] + [0] * (size - i - df - 1))
    for i in range(df):
        rows.append([0] * i + g[::-1] + [0] * (size - i - dg - 1))
    return rows


def primes_upto(bound):
    sieve = bytearray([1]) * (bound + 1)
    sieve[:2] = b"\0\0"
    for i in range(2, isqrt(bound) + 1):
        if sieve[i]:
            sieve[i * i::i] = bytearray(len(range(i * i, bound + 1, i)))
    return [i for i in range(bound + 1) if sieve[i]]

