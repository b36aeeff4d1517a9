"""Packed matrix arithmetic mod n and the row action on int pairs."""

import random
from math import gcd

import pytest

from gl2tors.groups import closure
from gl2tors.modmat import (GMat, TorVec, code_act, code_det, code_entries,
                            code_inverse, code_mul, code_mul_tables,
                            code_pack, code_trace, least_nonresidue,
                            vector_exact_order)


def _random_code(rng, n):
    return code_pack(rng.randrange(n), rng.randrange(n), rng.randrange(n),
                     rng.randrange(n), n)


def test_swap_times_diagonal():
    # (0,1;1,0) * diag(2,5) = (0,5;2,0) mod 9
    prod = code_mul(code_pack(0, 1, 1, 0, 9), code_pack(2, 0, 0, 5, 9), 9)
    assert code_entries(prod, 9) == (0, 5, 2, 0)


def test_det_trace():
    M = code_pack(2, 2, 3, 8, 9)
    assert code_det(M, 9) == 1  # 16 - 6 = 10 = 1 mod 9
    assert code_trace(M, 9) == 1


def test_inverse_values():
    assert code_entries(code_inverse(code_pack(1, 1, 0, 1, 9), 9),
                        9) == (1, 8, 0, 1)
    assert code_entries(code_inverse(code_pack(1, 0, 0, 2, 3), 3),
                        3) == (1, 0, 0, 2)
    M = code_pack(2, 2, 3, 8, 9)
    assert code_mul(M, code_inverse(M, 9), 9) == code_pack(1, 0, 0, 1, 9)


def test_inverse_error_reports_det():
    with pytest.raises(ValueError, match="det = 3"):
        code_inverse(code_pack(1, 0, 0, 3, 9), 9)


def test_element_orders():
    assert closure([(1, 0, 0, -1)], 9).order == 2
    assert closure([(1, 1, 0, 1)], 3).order == 3
    assert closure([(1, 1, 0, 1)], 9).order == 9
    assert closure([(1, 0, 0, 1)], 7).order == 1
    with pytest.raises(ValueError):
        closure([(0, 0, 0, 1)], 9)


def test_least_nonresidue():
    assert least_nonresidue(3) == 2
    assert least_nonresidue(5) == 2
    assert least_nonresidue(7) == 3
    with pytest.raises(ValueError):
        least_nonresidue(2)
    with pytest.raises(ValueError):
        least_nonresidue(9)


def test_vector_exact_order():
    assert vector_exact_order(TorVec(3, 6, 9)) == 3
    assert vector_exact_order(TorVec(1, 0, 9)) == 9
    assert vector_exact_order(TorVec(0, 0, 9)) == 1
    full = [1 for x in range(9) for y in range(9)
            if vector_exact_order(TorVec(x, y, 9)) == 9]
    assert len(full) == 72


def test_row_action():
    # v*M with v a row vector: (1,0)*(a,b;c,d) = (a,b)
    M = code_pack(4, 5, 6, 7, 9)
    assert code_act((1, 0), M, 9) == (4, 5)
    assert code_act((0, 1), M, 9) == (6, 7)
    assert code_act((2, 3), M, 9) == ((8 + 18) % 9, (10 + 21) % 9)


def test_code_roundtrip_and_mul():
    rng = random.Random(101)
    for _ in range(1000):
        n = rng.choice((3, 9, 27))
        A = GMat(rng.randrange(n), rng.randrange(n), rng.randrange(n),
                 rng.randrange(n), n)
        B = GMat(rng.randrange(n), rng.randrange(n), rng.randrange(n),
                 rng.randrange(n), n)
        assert GMat.from_code(A.code(), n) == A
        assert code_entries(A.code(), n) == A.entries()
        a, b, c, d = A.entries()
        e, f, g, h = B.entries()
        assert code_entries(code_mul(A.code(), B.code(), n), n) == (
            (a * e + b * g) % n, (a * f + b * h) % n,
            (c * e + d * g) % n, (c * f + d * h) % n)
        assert code_det(A.code(), n) == (a * d - b * c) % n


def test_det_multiplicative_random():
    rng = random.Random(7)
    for _ in range(1000):
        n = rng.choice((9, 27))
        A = _random_code(rng, n)
        B = _random_code(rng, n)
        assert code_det(code_mul(A, B, n), n) == \
            code_det(A, n) * code_det(B, n) % n


def test_random_inverses():
    rng = random.Random(13)
    done = 0
    while done < 500:
        n = rng.choice((9, 27))
        A = _random_code(rng, n)
        if code_det(A, n) % 3 == 0:
            continue
        ident = code_pack(1, 0, 0, 1, n)
        assert code_mul(A, code_inverse(A, n), n) == ident
        assert code_mul(code_inverse(A, n), A, n) == ident
        done += 1


@pytest.mark.parametrize("n", range(2, 13))
def test_row_tables_give_code_mul(n):
    # x*g is hi[x // n^2] + lo[x % n^2] for every code x, singular or not.
    rng = random.Random(n)
    gens = []
    while len(gens) < 3:
        g = _random_code(rng, n)
        if gcd(code_det(g, n), n) == 1:
            gens.append(g)
    n2 = n * n
    for g in gens:
        hi, lo = code_mul_tables(g, n)
        assert len(hi) == len(lo) == n2
        assert all(hi[x // n2] + lo[x % n2] == code_mul(x, g, n)
                   for x in range(n2 * n2))
