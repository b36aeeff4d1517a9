"""Packed 2x2 matrices over Z/nZ and their row action on (Z/n)^2.

Packed codes are the representation every group, action and curve
computation works with: the matrix (a, b; c, d) mod n, entries reduced
to [0, n), is the Python int ((a*n + b)*n + c)*n + d. This module is the
only one that knows that layout. Vectors are (x, y) int pairs, and
matrices act on them as row vectors from the right:
(x, y)*M = (x*a + y*c, x*b + y*d).

A code splits into its rows: x = r1*n^2 + r2 with r1 = x // n^2 the
packed first row a*n + b and r2 = x % n^2 the packed second row c*n + d.
Each row of x*g is that row of x times g, so for a fixed g the product
is two lookups in row tables (see code_mul_tables). code_trace and
code_det use only integer arithmetic, so they also work elementwise on
numpy int64 arrays of codes, as code_act does on a pair of int64 arrays.

GMat and TorVec are input and output types only: GMat parses and prints
a matrix and converts to and from its code; TorVec is an (x, y, modulus)
value for vectors handed to or returned from the library.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from .arith import is_probable_prime


def _check_modulus(n: int) -> None:
    if n < 2:
        raise ValueError(f"modulus must be >= 2, got {n}")


def code_pack(a: int, b: int, c: int, d: int, n: int) -> int:
    """The code of (a, b; c, d) mod n; entries are reduced first."""
    return (((a % n) * n + b % n) * n + c % n) * n + d % n


def code_entries(x: int, n: int) -> tuple[int, int, int, int]:
    """The entries (a, b, c, d) of a packed matrix."""
    n2 = n * n
    return x // (n2 * n), (x // n2) % n, (x // n) % n, x % n


def code_mul(x: int, y: int, n: int) -> int:
    """Product of two packed 2x2 matrices mod n."""
    n2 = n * n
    n3 = n2 * n
    xa, xb, xc, xd = x // n3, (x // n2) % n, (x // n) % n, x % n
    ya, yb, yc, yd = y // n3, (y // n2) % n, (y // n) % n, y % n
    return ((((xa * ya + xb * yc) % n) * n + (xa * yb + xb * yd) % n) * n
            + (xc * ya + xd * yc) % n) * n + (xc * yb + xd * yd) % n


def code_mul_tables(g: int, n: int) -> tuple[list[int], list[int]]:
    """Row tables (hi, lo) of right multiplication by the packed matrix g:
    lo[a*n + b] is the packed row (a, b)*g, hi[r] = lo[r] * n^2, and

        code_mul(x, g, n) == hi[x // n^2] + lo[x % n^2]

    for every code x in [0, n^4), singular ones included."""
    ga, gb, gc, gd = code_entries(g, n)
    lo = [(a * ga + b * gc) % n * n + (a * gb + b * gd) % n
          for a in range(n) for b in range(n)]
    n2 = n * n
    return [r * n2 for r in lo], lo


def code_det(x: int, n: int) -> int:
    n2 = n * n
    n3 = n2 * n
    return (x // n3 * (x % n) - (x // n2) % n * ((x // n) % n)) % n


def code_trace(x: int, n: int) -> int:
    return (x // (n * n * n) + x % n) % n


def code_inverse(x: int, n: int) -> int:
    """Inverse of a packed matrix; raises if det is not a unit, reporting
    the det."""
    a, b, c, d = code_entries(x, n)
    det = (a * d - b * c) % n
    if gcd(det, n) != 1:
        raise ValueError(f"matrix not invertible mod {n}: det = {det}")
    di = pow(det, -1, n)
    return code_pack(di * d, -di * b, -di * c, di * a, n)


def code_act(v: tuple[int, int], x: int, n: int) -> tuple[int, int]:
    """Row action v*M of the packed matrix x on the pair v = (v0, v1)."""
    a, b, c, d = code_entries(x, n)
    v0, v1 = v
    return (v0 * a + v1 * c) % n, (v0 * b + v1 * d) % n


@dataclass(frozen=True)
class GMat:
    """A 2x2 matrix over Z/nZ, entries row-major (a, b; c, d)."""

    a: int
    b: int
    c: int
    d: int
    modulus: int

    def __post_init__(self) -> None:
        _check_modulus(self.modulus)
        n = self.modulus
        object.__setattr__(self, "a", self.a % n)
        object.__setattr__(self, "b", self.b % n)
        object.__setattr__(self, "c", self.c % n)
        object.__setattr__(self, "d", self.d % n)

    def entries(self):
        return (self.a, self.b, self.c, self.d)

    def code(self) -> int:
        return code_pack(self.a, self.b, self.c, self.d, self.modulus)

    @classmethod
    def from_code(cls, code: int, n: int) -> "GMat":
        return cls(*code_entries(code, n), n)

    def __repr__(self) -> str:
        return (f"[[{self.a},{self.b}],[{self.c},{self.d}]]"
                f" (mod {self.modulus})")


def least_nonresidue(p: int) -> int:
    """Smallest positive quadratic non-residue mod an odd prime p."""
    if p == 2 or not is_probable_prime(p):
        raise ValueError(f"expected an odd prime, got {p}")
    squares = {(x * x) % p for x in range(p)}
    return next(v for v in range(2, p) if v not in squares)


@dataclass(frozen=True)
class TorVec:
    """A vector in (Z/nZ)^2, for vectors entering or leaving the library."""

    x: int
    y: int
    modulus: int

    def __post_init__(self) -> None:
        _check_modulus(self.modulus)
        object.__setattr__(self, "x", self.x % self.modulus)
        object.__setattr__(self, "y", self.y % self.modulus)

    def __repr__(self) -> str:
        return f"({self.x},{self.y}) (mod {self.modulus})"


def vector_exact_order(v: TorVec) -> int:
    """Least k >= 1 with k*v = 0; equals n / gcd(x, y, n)."""
    return v.modulus // gcd(v.x, v.y, v.modulus)
