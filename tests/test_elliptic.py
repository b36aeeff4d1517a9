"""Curve invariants, point counts, image filtering, and rational torsion."""

import random
from dataclasses import replace
from fractions import Fraction
from math import gcd, lcm

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from gl2tors import elliptic, polynomial
from gl2tors.arith import factorint, is_square, next_prime
from gl2tors.catalog import (EMBEDDED_LEVEL9, TORSION_BY_DEGREE,
                             identify_candidates, named_group)
from gl2tors.elliptic import (_MAZUR_PRIME_POWERS, CM_J, CurveQ,
                              IdentifyResult, _division_polys,
                              _on_given_model, _psi3, _torsion_bound,
                              _two_division_cubic, count_points, curve_Et,
                              curve_invariants, frobenius_signature,
                              group_class_set, identify_image, is_cm_j,
                              parse_curve, rational_3isogeny_kernel,
                              torsion_over_Q, two_torsion_image)
from gl2tors.groups import standard_subgroup
from gl2tors.polynomial import UniPoly, _int_rational_roots, rational_roots

E37 = parse_curve("[0,0,1,-1,0]")
E14A4 = parse_curve("[1,0,1,-1,0]")
E14A6 = parse_curve("[1,0,1,-171,-874]")

# A curve whose 2-division cubic G(x) = 4x^3 + 4x + 4 a6 is exact in
# int64 for every x below EDGE_N, with its largest value within 10^8 of
# 2^63, and one whose G(1) already exceeds 2^63.
EDGE_N = 2003
E_EDGE_IN = CurveQ(0, 0, 0, 1, 2 ** 61 - EDGE_N ** 3 - EDGE_N - 1)
E_EDGE_OUT = CurveQ(0, 0, 0, 1, 2 ** 61 - 1)
E_LARGE = CurveQ(Fraction(-7, 3), Fraction(98765, 11), Fraction(5, 2),
                 Fraction(-123456789, 13), Fraction(987654321, 17))


def test_parse_curve():
    assert E37.coefficients() == (0, 0, 1, -1, 0)
    assert repr(E37) == "[0,0,1,-1,0]"
    assert parse_curve("[0, 0, 0, 1/2, 0]").a4 == Fraction(1, 2)
    with pytest.raises(ValueError):
        parse_curve("1,2,3,4,5")
    with pytest.raises(ValueError):
        parse_curve("[1,2,3]")
    with pytest.raises(ValueError):
        parse_curve("[1,2,3,4,x]")
    with pytest.raises(ValueError, match="zero denominator in '1/0'"):
        parse_curve("[1/0,0,0,1,1]")
    assert parse_curve("[ -3/6 ,+2,0,0,1]").a1 == Fraction(-1, 2)
    for bad in ("1e5", "1.0", "1_0", "\u0661"):
        with pytest.raises(ValueError, match="expected an integer or p/q"):
            parse_curve(f"[{bad},0,0,0,1]")


def test_singular_rejected():
    with pytest.raises(ValueError, match="singular"):
        CurveQ(0, 0, 0, 0, 0)
    with pytest.raises(ValueError, match="singular"):
        CurveQ(0, 0, 0, -3, 2)  # disc = 0


def test_invariants_frozen():
    i37 = curve_invariants(E37)
    assert (i37.b2, i37.b4, i37.b6, i37.b8) == (0, -2, 1, -1)
    assert (i37.c4, i37.c6, i37.disc) == (48, -216, 37)
    assert i37.j == Fraction(110592, 37)
    i4 = curve_invariants(E14A4)
    assert (i4.c4, i4.c6, i4.disc) == (25, -253, -28)
    assert i4.j == Fraction(-15625, 28)
    i6 = curve_invariants(E14A6)
    assert (i6.c4, i6.c6, i6.disc) == (8185, 742643, -1835008)
    assert i6.j == Fraction(-548347731625, 1835008)


def invariants_reference(E):
    """b, c invariants, disc and j by the textbook formulas in Fractions."""
    a1, a2, a3, a4, a6 = E.coefficients()
    b2 = a1 * a1 + 4 * a2
    b4 = 2 * a4 + a1 * a3
    b6 = a3 * a3 + 4 * a6
    b8 = (a1 * a1 * a6 + 4 * a2 * a6 - a1 * a3 * a4 + a2 * a3 * a3
          - a4 * a4)
    c4 = b2 * b2 - 24 * b4
    c6 = -b2 ** 3 + 36 * b2 * b4 - 216 * b6
    disc = -b2 * b2 * b8 - 8 * b4 ** 3 - 27 * b6 * b6 + 9 * b2 * b4 * b6
    return (b2, b4, b6, b8, c4, c6, disc, c4 ** 3 / disc)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.lists(st.builds(Fraction, st.integers(-60, 60),
                          st.integers(1, 12)), min_size=5, max_size=5))
def test_invariants_from_integral_model_match_formulas(a):
    try:
        E = CurveQ(*a)
    except ValueError:
        return  # singular
    inv = curve_invariants(E)
    got = (inv.b2, inv.b4, inv.b6, inv.b8, inv.c4, inv.c6, inv.disc, inv.j)
    assert got == invariants_reference(E)
    assert all(type(v) is Fraction for v in got)


def test_curve_et():
    E = curve_Et(1)
    assert (E.a4, E.a6) == (69, 362)
    inv = curve_invariants(E)
    assert inv.disc == 2 ** 12 * 3 ** 6 * (1 - 27)
    assert inv.j == Fraction(12167, 26)
    assert curve_invariants(curve_Et(Fraction(1, 2))).disc != 0
    with pytest.raises(ValueError, match="singular"):
        curve_Et(3)


def test_ap_frozen():
    for p, ap in ((2, -2), (3, -3), (5, -2), (7, -1), (11, -5), (13, -2)):
        n, a = count_points(E37, p)
        assert a == ap and n == p + 1 - ap
    for E in (E14A4, E14A6):
        for p, ap in ((3, -2), (5, 0), (11, 0), (13, -4)):
            assert count_points(E, p)[1] == ap


def count_points_naive(E, p):
    """Direct double loop over the long model reduced mod p, a good prime
    for E; the oracle for count_points. The loop over y is one numpy
    comparison per x, so a prime near 10^4 takes under a second."""
    a1, a2, a3, a4, a6 = (c.numerator * pow(c.denominator, -1, p) % p
                          for c in E.coefficients())
    y = np.arange(p, dtype=np.int64)
    n = 1
    for x in range(p):
        rhs = (x ** 3 + a2 * x * x + a4 * x + a6) % p
        n += int(np.count_nonzero((y * y + (a1 * x + a3) * y) % p == rhs))
    return n, p + 1 - n


def test_count_points_matches_naive():
    for E in (E37, E14A4):
        for p in (3, 5, 11, 13):
            assert count_points(E, p) == count_points_naive(E, p)
    E = CurveQ(0, 0, 0, Fraction(1, 2), 0)
    assert count_points(E, 3) == count_points_naive(E, 3) == (4, 0)


@pytest.mark.parametrize("p", [5003, 10007, 15013])
def test_count_points_matches_naive_at_large_primes(p):
    # E_LARGE's cubic is too large for the int64 table, so count_points
    # evaluates it from its coefficients reduced modulo p.
    assert count_points(E_LARGE, p) == count_points_naive(E_LARGE, p)


def cubic_fits(E, N):
    """_cubic_fits_int64 on E's 2-division cubic."""
    return elliptic._cubic_fits_int64(
        _two_division_cubic(curve_invariants(E)), N)


def good_primes(E, primes):
    u, _, _, disc = E._model
    return [p for p in primes if u % p and disc % p]


def primes_upto(n):
    return [p for p in range(2, n + 1)
            if all(p % d for d in range(2, int(p ** 0.5) + 1))]


def test_point_counts_table_matches_naive():
    # Every prime below 200 and every eighth one up to 3000, in one call.
    primes = good_primes(E37, sorted(set(primes_upto(200))
                                     | set(primes_upto(3000)[::8])))
    assert cubic_fits(E37, primes[-1])
    assert elliptic._point_counts(E37, primes) == [
        count_points_naive(E37, p)[0] for p in primes]


def test_point_counts_at_the_int64_bound():
    primes = good_primes(E_EDGE_IN, primes_upto(60) + [1999, EDGE_N])
    assert primes[-1] == EDGE_N
    assert cubic_fits(E_EDGE_IN, EDGE_N)
    assert not cubic_fits(E_EDGE_IN, EDGE_N + 1)
    assert elliptic._point_counts(E_EDGE_IN, primes) == [
        count_points_naive(E_EDGE_IN, p)[0] for p in primes]
    primes = good_primes(E_EDGE_OUT, primes_upto(60) + [1999, EDGE_N])
    assert not cubic_fits(E_EDGE_OUT, 2)
    assert elliptic._point_counts(E_EDGE_OUT, primes) == [
        count_points_naive(E_EDGE_OUT, p)[0] for p in primes]


# Primes on both sides of _mod's switch to the reciprocal form, which
# takes the G slice from p = 521 on and the squares slice from p = 1031.
SWITCH_PRIMES = [509, 521, 1021, 1031, 9967, 9973]
E_NEGATIVE = CurveQ(0, 0, 0, -1, -7)  # G(x) = 4x^3 - 4x - 28 < 0 at x <= 1


@pytest.mark.parametrize("E", [E14A4, E_NEGATIVE, E_LARGE],
                         ids=["table", "negative-cubic", "large"])
def test_point_counts_on_both_sides_of_the_mod_switch(E):
    assert cubic_fits(E, 10 ** 4) == (E is not E_LARGE)
    primes = good_primes(E, SWITCH_PRIMES)
    assert len(primes) == len(SWITCH_PRIMES)
    assert elliptic._point_counts(E, primes) == [
        count_points_naive(E, p)[0] for p in primes]


def form_mod_reference(C, p, q, m):
    """sum C[i] p^i q^(e - i) mod m, e = len(C) - 1, by Horner on int64
    with every step reduced by %: each step's two products of residues
    sum to less than 2 * m^2, which fits in int64 for every m < 2^31."""
    pm, qm = p % m, q % m
    acc = np.full(p.shape, C[-1] % m, dtype=np.int64)
    qpow = np.ones_like(qm)
    for c in reversed(C[:-1]):
        qpow = qpow * qm % m
        acc = (acc * pm + c % m * qpow) % m
    return acc


def test_point_counts_large_path_above_2_to_the_21():
    # Above 2^21 E37's cubic leaves the int64 table and _point_counts
    # evaluates it by polynomial._form_mod. The oracle evaluates G with
    # form_mod_reference, which reduces every step by %, and sums the
    # quadratic character.
    p = next_prime(2 ** 21 + 2 ** 19)
    assert not cubic_fits(E37, p)
    x = np.arange(p, dtype=np.int64)
    g = form_mod_reference(_two_division_cubic(curve_invariants(E37)), x,
                           1, p)
    square = np.zeros(p, dtype=bool)
    square[x * x % p] = True
    chi = np.where(g == 0, 0, np.where(square[g], 1, -1))
    assert elliptic._point_counts(E37, [p]) == [p + 1 + int(chi.sum())]


def test_mod_matches_remainder_on_both_sides_of_the_switch():
    # -2^63 and 2^63 - 1 on both branches: on the reciprocal one,
    # a // p * p at -2^63 leaves int64 and the subtraction wraps back.
    rng = np.random.default_rng(33)
    for size in (1, polynomial._RECIPROCAL_MIN - 1,
                 polynomial._RECIPROCAL_MIN, 4099):
        a = rng.integers(-2 ** 62, 2 ** 62, size)
        a[:2] = [-2 ** 63, 2 ** 63 - 1][:size]
        for p in (3, 509, 521, 9973, 2 ** 31 - 1):
            r = polynomial._mod(a, p)
            assert r.dtype == np.int64
            assert r.tolist() == [int(x) % p for x in a]


def test_point_counts_horner_matches_naive():
    primes = good_primes(E_LARGE, primes_upto(400) + [5003])
    assert not cubic_fits(E_LARGE, 2)
    assert elliptic._point_counts(E_LARGE, primes) == [
        count_points_naive(E_LARGE, p)[0] for p in primes]


def test_point_counts_horner_matches_table(monkeypatch):
    # The per-prime Horner path, forced on a curve the table covers.
    primes = good_primes(E14A4, primes_upto(3000))
    table = elliptic._point_counts(E14A4, primes)
    monkeypatch.setattr(elliptic, "_cubic_fits_int64",
                        lambda cubic, N: False)
    assert elliptic._point_counts(E14A4, primes) == table


def test_cubic_fits_int64_matches_the_bound():
    """cubic_fits(E, N) holds exactly when 4N^3 + |b2|N^2 + 2|b4|N
    + |b6| < 2^63, on seeded integral curves whose large a1, a2 and a4
    make b2 and b4 nonzero, at N on both sides of where that bound
    crosses 2^63; the table counts points at the last good prime it
    allows."""
    rnd = random.Random(31)
    for _ in range(6):
        a1, a2, a3, a4, a6 = (rnd.randint(-2 ** k, 2 ** k)
                              for k in (20, 35, 10, 50, 59))
        E = CurveQ(a1, a2, a3, a4, a6)
        b2, b4, b6 = a1 * a1 + 4 * a2, 2 * a4 + a1 * a3, a3 * a3 + 4 * a6
        assert b2 and b4

        def fits(N):
            return (4 * N ** 3 + abs(b2) * N ** 2 + 2 * abs(b4) * N
                    + abs(b6) < 2 ** 63)

        lo, hi = 0, 2 ** 21  # fits(lo) and not fits(hi)
        while hi - lo > 1:
            mid = (lo + hi) // 2
            lo, hi = (mid, hi) if fits(mid) else (lo, mid)
        assert lo > 2
        for N in (1, lo // 2, lo - 1, lo, lo + 1, lo + 2, 2 * lo):
            assert cubic_fits(E, N) == fits(N) == (N <= lo)
        primes = good_primes(E, primes_upto(lo))[-1:]
        assert elliptic._point_counts(E, primes) == [
            count_points_naive(E, p)[0] for p in primes]


@pytest.mark.parametrize("E,bound", [(E37, 3000), (E_EDGE_IN, EDGE_N),
                                     (E_EDGE_OUT, 2000), (E_LARGE, 2000)],
                         ids=["table", "edge-in", "edge-out", "horner"])
def test_frobenius_prior_on_both_sides_of_the_int64_bound(E, bound):
    want = frobenius_signature(E, 3, bound)
    sig = frobenius_signature(E, 3, 20)
    for b in (100, 700, bound):
        sig = elliptic._extend(E, sig, b)
    assert sig == want
    # Against the one-prime count, which goes through its own guard.
    counts = {}
    for p in good_primes(E, primes_upto(bound)):
        if p != 3:
            cls = (count_points(E, p)[1] % 3, p % 3)
            counts[cls] = counts.get(cls, 0) + 1
    assert want.counts == counts


def test_count_points_guards():
    with pytest.raises(ValueError, match="bad reduction"):
        count_points(E14A4, 2)
    with pytest.raises(ValueError, match="bad reduction"):
        count_points(E14A4, 7)
    with pytest.raises(ValueError, match="bad reduction"):
        count_points(E37, 37)
    with pytest.raises(ValueError, match="not prime"):
        count_points(E37, 9)
    with pytest.raises(ValueError, match="scaling denominator"):
        count_points(CurveQ(0, 0, 0, Fraction(1, 2), 0), 2)


# The first prime above 2^31, the bound of polynomial._form_mod's
# int64 contract.
PRIME_ABOVE_2_31 = 2_147_483_659


@pytest.fixture
def no_arrays(monkeypatch):
    """Make the prime sieve and the point counts fail if they run, so a
    guard is seen to raise before either builds an array."""
    def fail(*args):
        raise AssertionError("arrays built before the 2^31 guard")
    monkeypatch.setattr(elliptic, "_prime_range", fail)
    monkeypatch.setattr(elliptic, "_point_counts", fail)


def test_count_points_rejects_a_prime_above_2_to_the_31(no_arrays):
    assert next_prime(2 ** 31) == PRIME_ABOVE_2_31
    with pytest.raises(ValueError,
                       match=r"p must be below 2\^31, got 2147483659"):
        count_points(E37, PRIME_ABOVE_2_31)


def test_frobenius_signature_rejects_a_bound_of_2_to_the_31(no_arrays):
    with pytest.raises(ValueError, match=r"prime bound must be below 2\^31"):
        frobenius_signature(E37, 3, 2 ** 31)


def test_identify_image_rejects_a_bound_of_2_to_the_31(no_arrays):
    with pytest.raises(ValueError, match=r"prime bound must be below 2\^31"):
        identify_image(E37, 3, identify_candidates(3), 2 ** 31)


def test_frobenius_signature():
    sig = frobenius_signature(E37, 3, 100)
    assert sig.first_prime == {(0, 1): 19, (0, 2): 17, (1, 1): 13,
                               (1, 2): 2, (2, 1): 7, (2, 2): 23}
    assert sig.classes == frozenset(sig.first_prime)
    # 25 primes up to 100, minus p = 3 (the level) and p = 37 (bad).
    assert sum(sig.counts.values()) == sig.primes == 23
    assert sig.skipped == 2
    sig4 = frobenius_signature(E14A4, 3, 100)
    assert sig4.first_prime == {(0, 2): 5, (2, 1): 13}
    with pytest.raises(ValueError, match="level"):
        frobenius_signature(E37, 5, 100)
    with pytest.raises(ValueError, match="bound"):
        frobenius_signature(E37, 3, 10)


def test_group_class_set():
    assert group_class_set(named_group("3Cs.1.1")) == frozenset(
        {(2, 1), (0, 2), (1, 1)})


def test_identify_image_37a1():
    res = identify_image(E37, 3, identify_candidates(3), 300)
    assert res.survivors == ("GL2(F3)",)
    assert res.eliminated == (("3B.1.1", 2, (1, 2)),
                              ("3B.1.2", 2, (1, 2)),
                              ("3Cs.1.1", 2, (1, 2)))
    assert res.uncovered["GL2(F3)"] == ()


def test_identify_image_14a():
    res = identify_image(E14A4, 3, identify_candidates(3), 300)
    assert res.survivors == ("GL2(F3)", "3B.1.1", "3B.1.2", "3Cs.1.1")
    assert res.observed == frozenset({(0, 2), (2, 1)})
    assert res.uncovered["3Cs.1.1"] == ((1, 1),)
    assert res.uncovered["GL2(F3)"] == ((0, 1), (1, 1), (1, 2), (2, 2))
    res6 = identify_image(E14A6, 3, identify_candidates(3), 300)
    assert "3B.1.2" in res6.survivors


def test_identify_image_guards():
    with pytest.raises(ValueError, match="empty"):
        identify_image(E37, 3, [], 300)
    with pytest.raises(ValueError, match="level"):
        identify_image(E37, 3, [named_group("2B")], 300)
    with pytest.raises(ValueError, match="level must be 2, 3 or 9, got 5"):
        identify_image(E37, 5, [standard_subgroup("full", 5)], 300)
    with pytest.raises(ValueError, match="prime bound must be >= 20, got 19"):
        identify_image(E37, 3, identify_candidates(3), 19)


def _candidates(ell):
    if ell == 9:
        return [standard_subgroup("full", 9)] + [named_group(label)
                                                 for label in EMBEDDED_LEVEL9]
    return identify_candidates(ell)


def identify_reference(E, ell, cands, bound):
    """Containment filtering on one signature at the full bound."""
    sig = frobenius_signature(E, ell, bound)
    survivors, eliminated, uncovered = [], [], {}
    for H in cands:
        allowed = group_class_set(H)
        bad = sig.classes - allowed
        if bad:
            cls = min(bad, key=sig.first_prime.get)
            eliminated.append((H.label, sig.first_prime[cls], cls))
        else:
            survivors.append(H.label)
            uncovered[H.label] = tuple(sorted(allowed - sig.classes))
    return IdentifyResult(ell, bound, sig.classes, tuple(survivors),
                          tuple(eliminated), uncovered, sig.primes,
                          sig.skipped, sig.primes)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.lists(st.builds(Fraction, st.integers(-50, 50),
                          st.integers(1, 4)), min_size=5, max_size=5),
       st.sampled_from((2, 3, 9)), st.integers(20, 3000))
# Rational 3-isogenies (14a4, 14a6) and rational 2-torsion (15a1): these
# never show every class, so sampling runs to the bound.
@example([1, 0, 1, -1, 0], 3, 3000)
@example([1, 0, 1, -171, -874], 3, 3000)
@example([1, 1, 1, -10, -10], 2, 3000)
def test_identify_image_matches_full_bound_signature(a, ell, bound):
    try:
        E = CurveQ(*a)
    except ValueError:
        assume(False)
    cands = _candidates(ell)
    got = identify_image(E, ell, cands, bound)
    want = identify_reference(E, ell, cands, bound)
    assert got.sampled <= got.primes
    assert got == replace(want, sampled=got.sampled)


def test_identify_image_stops_once_every_class_is_seen(monkeypatch):
    # Every prime handed to the point-count kernel, over all its calls.
    calls = []
    point_counts = elliptic._point_counts

    def counting(E, primes):
        calls.extend(primes)
        return point_counts(E, primes)
    monkeypatch.setattr(elliptic, "_point_counts", counting)
    res = identify_image(E37, 3, identify_candidates(3), 10 ** 4)
    assert len(calls) < 150
    assert res.sampled < res.primes == 1227
    # Each step of the schedule counts only the primes above the last.
    assert len(calls) == len(set(calls)) == res.sampled
    calls.clear()
    res = identify_image(E14A4, 3, identify_candidates(3), 2000)
    # A 3B image never shows (0, 1), (1, 2) or (2, 2).
    assert res.sampled == res.primes == 300
    assert len(calls) == len(set(calls)) == res.sampled
    assert calls.count(1999) == 1


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.lists(st.builds(Fraction, st.integers(-50, 50),
                          st.integers(1, 4)), min_size=5, max_size=5),
       st.sampled_from((2, 3, 9)), st.integers(20, 5000))
@example([1, 0, 1, -1, 0], 3, 5000)
def test_frobenius_prior_chain_equals_one_shot(a, ell, bound):
    try:
        E = CurveQ(*a)
    except ValueError:
        assume(False)
    b = min(bound, elliptic._FIRST_BOUND)
    sig = frobenius_signature(E, ell, b)
    while b < bound:
        b = min(bound, b * elliptic._GROWTH)
        sig = elliptic._extend(E, sig, b)
    want = frobenius_signature(E, ell, bound)
    assert sig == want
    assert list(sig.counts) == list(want.counts)
    assert list(sig.first_prime) == list(want.first_prime)
    # Extending to the same bound adds nothing.
    assert elliptic._extend(E, want, bound) == want


def good_primes_reference(E, ell, low, bound):
    """The primes in (low, bound] dividing none of ell, u and the
    integral discriminant, and the number of the others."""
    primes = [p for p in primes_upto(bound) if p > low]
    good = [p for p in good_primes(E, primes) if ell % p]
    return good, len(primes) - len(good)


E11A1 = parse_curve("[0,-1,1,-10,-20]")  # integral discriminant -11^5
E_RATIONAL = CurveQ(Fraction(1, 2), 0, Fraction(1, 3), Fraction(-1, 5),
                    Fraction(7, 4))  # u = 60


@pytest.mark.parametrize("E,ell", [(E37, 9), (E11A1, 3), (E_RATIONAL, 9),
                                   (E_RATIONAL, 2), (E_LARGE, 3)],
                         ids=["p-divides-ell", "negative-disc",
                              "p-divides-u", "u-and-ell", "large-disc"])
def test_good_primes_matches_brute_force_split(E, ell):
    for low, bound in [(0, 1), (0, 2), (0, 20), (2, 3), (3, 3), (10, 10),
                       (20, 10), (3, 37), (36, 37), (37, 37), (37, 101),
                       (10, 11), (11, 12), (59, 61), (100, 3000)]:
        assert elliptic._good_primes(E, ell, low, bound) == (
            good_primes_reference(E, ell, low, bound))


def test_good_primes_passes_over_each_kind_of_bad_prime():
    # p | ell: 3 at level 9, while 37 divides the discriminant.
    assert elliptic._good_primes(E37, 9, 0, 40) == (
        [2, 5, 7, 11, 13, 17, 19, 23, 29, 31], 2)
    # p | disc < 0.
    assert E11A1._model[3] == -11 ** 5
    assert elliptic._good_primes(E11A1, 3, 10, 13) == ([13], 1)
    # p | u: 2, 3 and 5 divide u = 60 of a rational model. Each divides
    # the integral discriminant u^12 * disc too, as every p | u does: disc
    # has weight 12 in the a_i and no a1^12 term.
    assert E_RATIONAL._model[0] == 60
    assert all(E_RATIONAL._model[3] % p == 0 for p in (2, 3, 5))
    assert elliptic._good_primes(E_RATIONAL, 9, 0, 6)[1] == 3
    # The bound is included and low is not.
    assert elliptic._good_primes(E37, 3, 13, 17) == ([17], 0)
    assert elliptic._good_primes(E37, 3, 17, 17) == ([], 0)


def test_primes_dividing_u_divide_the_integral_discriminant():
    # Why _good_primes and _torsion_bound test disc alone: p | u puts p
    # in A2, A3, A4 and A6, hence in b4, b6, b8 and disc.
    rnd = random.Random(33)
    seen = set()
    models = 0
    while models < 1000:
        a = [Fraction(rnd.randint(-10 ** 4, 10 ** 4),
                      rnd.choice((1, 2, 3, 4, 5, 6, 9, 12, 25, 49, 11)))
             for _ in range(5)]
        try:
            E = CurveQ(*a)
        except ValueError:
            continue
        models += 1
        u, _, _, disc = E._model
        for p in factorint(u):
            seen.add(p)
            assert disc % p == 0
    assert {2, 3, 5, 7, 11} <= seen


def test_two_torsion_image():
    assert _two_division_cubic(curve_invariants(E37)) == [1, -4, 0, 4]
    assert _on_given_model([1, -4, 0, 4], 1) == (1, 1, [1, -4, 0, 4])
    # 4x^3 - 3/4 x - 1/16 = 1/16 * (64x^3 - 12x - 1); u = 64.
    E = parse_curve("[0,0,0,-3/16,-1/64]")
    inv = curve_invariants(E)
    assert inv.u == 64
    assert _on_given_model(_two_division_cubic(inv), inv.u) == (
        1, 16, [-1, -12, 0, 64])
    assert two_torsion_image(parse_curve("[0,0,0,-1,0]")) == "2Cs"
    assert two_torsion_image(E14A4) == "2B"
    assert two_torsion_image(parse_curve("[0,0,0,-3,-1]")) == "2Cn"
    # The same curve with (x, y) scaled by (1/4, 1/8): the integral
    # model's scale u is 64.
    assert two_torsion_image(parse_curve("[0,0,0,-3/16,-1/64]")) == "2Cn"
    assert two_torsion_image(E37) == "GL2(F2)"
    assert two_torsion_image(parse_curve("[0,0,0,0,-2]")) == "GL2(F2)"


def test_rational_3isogeny_kernel():
    assert rational_3isogeny_kernel(E14A4) == [0]
    assert rational_3isogeny_kernel(E37) == []
    assert rational_3isogeny_kernel(parse_curve("[0,0,1,0,0]")) == [-1, 0]


def test_cm_table():
    assert len(CM_J) == 13
    assert is_cm_j(0)
    assert is_cm_j(54000)
    assert is_cm_j(-3375)
    assert is_cm_j(Fraction(-262537412640768000))
    assert not is_cm_j(Fraction(110592, 37))
    assert not is_cm_j(1)


def test_torsion_frozen():
    assert torsion_over_Q(E37) == (1,)
    assert torsion_over_Q(E14A4) == (6,)
    assert torsion_over_Q(parse_curve("[0,0,0,-1,0]")) == (2, 2)
    assert torsion_over_Q(parse_curve("[0,0,0,4,0]")) == (4,)
    assert torsion_over_Q(parse_curve("[0,0,0,1,0]")) == (2,)
    assert torsion_over_Q(parse_curve("[0,0,1,0,0]")) == (3,)
    assert torsion_over_Q(parse_curve("[0,0,0,0,1]")) == (6,)
    assert torsion_over_Q(parse_curve("[0,0,0,0,-2]")) == (1,)
    E = parse_curve("[24,4,1,-7,29]")
    # The gcd of the point counts (6, 2, 1, ...) reaches 1 at the third
    # good prime.
    assert _torsion_bound(E) == 1
    assert torsion_over_Q(E) == (1,)
    assert torsion_over_Q(parse_curve("[361/8,3,3,361/8,297/5]")) == (1,)


# Curves by Cremona label: one for each of the fifteen torsion groups
# over Q (Mazur), then three more whose reduction bound N of
# _torsion_bound exceeds the order, as it also does for 15a8, 15a2 and
# 15a1.
TORSION_PINS = [
    ("37a1", "[0,0,1,-1,0]", (1,), 1),
    ("46a1", "[1,-1,0,-10,-12]", (2,), 2),
    ("19a3", "[0,1,1,1,0]", (3,), 3),
    ("15a8", "[1,1,1,0,0]", (4,), 8),
    ("11a1", "[0,-1,1,-10,-20]", (5,), 5),
    ("14a1", "[1,0,1,4,-6]", (6,), 6),
    ("26b1", "[1,-1,1,-3,3]", (7,), 7),
    ("15a4", "[1,1,1,35,-28]", (8,), 8),
    ("54b3", "[1,-1,1,-14,29]", (9,), 9),
    ("66c1", "[1,0,0,-45,81]", (10,), 10),
    ("90c3", "[1,-1,1,-122,1721]", (12,), 12),
    ("15a2", "[1,1,1,-135,-660]", (2, 2), 8),
    ("15a1", "[1,1,1,-10,-10]", (2, 4), 8),
    ("30a2", "[1,0,1,-19,26]", (2, 6), 12),
    ("210e2", "[1,0,0,-1070,7812]", (2, 8), 16),
    ("11a2", "[0,-1,1,-7820,-263580]", (1,), 5),
    ("15a5", "[1,1,1,-2160,-39540]", (2,), 8),
    ("15a7", "[1,1,1,-80,242]", (4,), 8),
]


def _ec_add(P, Q, A):
    """P + Q on y^2 = x^3 + Ax + B, with None for the point at infinity."""
    if P is None:
        return Q
    if Q is None:
        return P
    x1, y1 = P
    x2, y2 = Q
    if x1 == x2:
        if y1 == -y2:
            return None
        lam = (3 * x1 * x1 + A) / (2 * y1)
    else:
        lam = (y2 - y1) / (x2 - x1)
    x3 = lam * lam - x1 - x2
    return (x3, lam * (x1 - x3) - y1)


def _has_order_at_most_12(P, A) -> bool:
    mult = None
    for _ in range(12):
        mult = _ec_add(mult, P, A)
        if mult is None:
            return True
    return False


def reduced_short_model(E):
    """Integral A, B with E isomorphic over Q to y^2 = x^3 + Ax + B:
    A = -27 c4 u^4 and B = -54 c6 u^6 with u = lcm(den c4, den c6), then
    divided by every p^4, p^6 they allow, which keeps the discriminant
    small."""
    inv = curve_invariants(E)
    u = lcm(inv.c4.denominator, inv.c6.denominator)
    A, B = int(-27 * inv.c4 * u ** 4), int(-54 * inv.c6 * u ** 6)
    for p in factorint(gcd(A, B)):
        while A % p ** 4 == 0 and B % p ** 6 == 0:
            A, B = A // p ** 4, B // p ** 6
    return A, B


def torsion_nagell_lutz(E):
    """E(Q)_tors by Nagell-Lutz on reduced_short_model(E); the oracle for
    torsion_over_Q, which works on the given model. On an integral short
    model every torsion point is integral with y = 0 or y^2 dividing
    4A^3 + 27B^2; a candidate is kept when its order is at most 12."""
    A, B = reduced_short_model(E)
    square_divisor_roots = [1]
    for p, e in factorint(4 * A ** 3 + 27 * B ** 2).items():
        square_divisor_roots = [d * p ** k for d in square_divisor_roots
                                for k in range(e // 2 + 1)]
    points = set()
    for y in [0] + square_divisor_roots:
        for x in rational_roots(UniPoly.from_coeffs([B - y * y, A, 0, 1])):
            if x.denominator == 1:
                points.update({(x, Fraction(y)), (x, Fraction(-y))})
    torsion = [P for P in points if _has_order_at_most_12(P, Fraction(A))]
    n = len(torsion) + 1
    if sum(1 for _, y in torsion if y == 0) == 3:
        return (2, n // 2)
    return (n,)


@pytest.mark.parametrize("curve, structure, bound", [
    pytest.param(*pin[1:], id=pin[0]) for pin in TORSION_PINS])
def test_torsion_pins(curve, structure, bound):
    E = parse_curve(curve)
    assert _torsion_bound(E) == bound
    assert torsion_over_Q(E) == torsion_nagell_lutz(E) == structure


def _rescaled(E, lam):
    """The model with a_i * lam^i, isomorphic to E over Q."""
    return CurveQ(*(a * lam ** i for a, i in zip(
        (E.a1, E.a2, E.a3, E.a4, E.a6), (1, 2, 3, 4, 6))))


@pytest.mark.parametrize("curve, structure", [
    pytest.param(pin[1], pin[2], id=pin[0]) for pin in TORSION_PINS
    if pin[0] in ("54b3", "210e2")])
@pytest.mark.parametrize("lam", [Fraction(1, 30), Fraction(1, 396),
                                 Fraction(35, 2)])
def test_short_model_of_rescaled_curve(curve, structure, lam):
    # The oracle's short model divides the powers of 2, 3, 5, 7 and 11
    # that lam puts into A, B out again; torsion_over_Q works on the
    # rescaled model itself.
    E = parse_curve(curve)
    R = _rescaled(E, lam)
    assert reduced_short_model(R) == reduced_short_model(E)
    assert torsion_over_Q(R) == torsion_nagell_lutz(R) == structure


def scaled_poly(scaled):
    """The UniPoly n / d * P of a scaled list (n, d, P), after checking
    that n / d is reduced and positive and that P is primitive."""
    n, d, P = scaled
    assert n > 0 and d > 0 and gcd(n, d) == 1
    assert gcd(*P) == 1 and P[-1] != 0
    return Fraction(n, d) * UniPoly.from_coeffs(P)


@pytest.mark.parametrize("A, B", [(1, 1), (-1, 0), (0, 1), (-7, 10),
                                  (Fraction(3, 4), Fraction(-5, 8))])
def test_division_polys_on_short_model(A, B):
    # At a1 = a2 = a3 = 0: b2 = 0, b4 = 2A, b6 = 4B and b8 = -A^2.
    A, B = Fraction(A), Fraction(B)
    f = _division_polys(curve_invariants(CurveQ(0, 0, 0, A, B)))
    x = UniPoly.x()
    assert scaled_poly(f(3)) == (3 * x ** 4 + 6 * A * x ** 2 + 12 * B * x
                                 - A * A)
    assert scaled_poly(f(4)) == 2 * (
        x ** 6 + 5 * A * x ** 4 + 20 * B * x ** 3 - 5 * A * A * x ** 2
        - 4 * A * B * x - 8 * B * B - A ** 3)


# Fraction UniPoly references for the integer lists: the 2-division
# cubic, psi_3 and the division polynomials of the given model written
# with its rational b-invariants, and the three operations on them.
def cubic_reference(E):
    inv = curve_invariants(E)
    return UniPoly.from_coeffs([inv.b6, 2 * inv.b4, inv.b2, 4])


def psi3_reference(E):
    inv = curve_invariants(E)
    return UniPoly.from_coeffs([inv.b8, 3 * inv.b6, 3 * inv.b4, inv.b2, 3])


def division_polys_reference(E):
    inv = curve_invariants(E)
    b2, b4, b6, b8 = inv.b2, inv.b4, inv.b6, inv.b8
    g2 = cubic_reference(E) ** 2
    memo = {1: UniPoly.constant(1), 2: UniPoly.constant(1),
            3: psi3_reference(E),
            4: UniPoly.from_coeffs([b4 * b8 - b6 * b6, b2 * b8 - b4 * b6,
                                    10 * b8, 10 * b6, 5 * b4, b2, 2])}

    def f(n):
        if n not in memo:
            m = n // 2
            if n % 2 == 0:
                memo[n] = f(m) * (f(m + 2) * f(m - 1) ** 2
                                  - f(m - 2) * f(m + 1) ** 2)
            elif m % 2 == 0:
                memo[n] = g2 * f(m + 2) * f(m) ** 3 - f(m - 1) * f(m + 1) ** 3
            else:
                memo[n] = f(m + 2) * f(m) ** 3 - g2 * f(m - 1) * f(m + 1) ** 3
        return memo[n]
    return f


def two_torsion_image_reference(E):
    nroots = len(rational_roots(cubic_reference(E)))
    disc = curve_invariants(E).disc
    return {3: "2Cs", 1: "2B"}.get(nroots) or (
        "2Cn" if is_square(disc.numerator) and is_square(disc.denominator)
        else "GL2(F2)")


def torsion_reference(E):
    """torsion_over_Q's search on the Fraction division polynomials."""
    N = _torsion_bound(E)
    if N == 1:
        return (1,)
    cubic = cubic_reference(E)
    two_roots = rational_roots(cubic)
    f = division_polys_reference(E)
    n = 1
    for q, cap in _MAZUR_PRIME_POWERS.items():
        size, k = 1, q
        while N % k == 0 and k <= cap:
            more = 1 + len(two_roots) if k % 2 == 0 else 1
            if k > 2:
                for r in rational_roots(f(k)):
                    y2 = cubic(r)
                    more += 2 * (is_square(y2.numerator)
                                 and is_square(y2.denominator))
            if more == size:
                break
            size, k = more, k * q
        n *= size
    return (2, n // 2) if len(two_roots) == 3 else (n,)


REFERENCE_CURVES = [pytest.param(pin[1], lam, id=f"{pin[0]}@{lam}")
                    for pin in TORSION_PINS
                    for lam in (1, Fraction(1, 30), Fraction(1, 396),
                                Fraction(35, 2))]


@pytest.mark.parametrize("curve, lam", REFERENCE_CURVES)
def test_integer_lists_match_the_fraction_reference(curve, lam):
    E = _rescaled(parse_curve(curve), Fraction(lam))
    inv = curve_invariants(E)
    assert scaled_poly(_on_given_model(_two_division_cubic(inv), inv.u)) \
        == cubic_reference(E)
    assert scaled_poly(_on_given_model(_psi3(inv), inv.u)) \
        == psi3_reference(E)
    f, ref = _division_polys(inv), division_polys_reference(E)
    for k in (3, 4, 5, 7, 8, 9):
        assert scaled_poly(f(k)) == ref(k), k
        assert _int_rational_roots(f(k)[2]) == rational_roots(ref(k)), k
    assert two_torsion_image(E) == two_torsion_image_reference(E)
    assert rational_3isogeny_kernel(E) == rational_roots(psi3_reference(E))
    assert torsion_over_Q(E) == torsion_reference(E)


def test_mazur_prime_powers_match_the_degree_1_table():
    # The exponent of C_m is m, and of C2 x C2k it is 2k.
    largest = {}
    for structure in TORSION_BY_DEGREE[1]:
        for q, e in factorint(max(structure)).items():
            largest[q] = max(largest.get(q, 1), q ** e)
    assert _MAZUR_PRIME_POWERS == largest


SMALL_INTS = st.integers(-12, 12).map(Fraction)
SMALL_FRACTIONS = st.builds(Fraction, st.integers(-12, 12),
                            st.integers(1, 4))
TORSION_CURVES = st.one_of(
    st.lists(st.one_of(SMALL_INTS, SMALL_FRACTIONS), min_size=5,
             max_size=5),
    # Tate normal form y^2 + (1-c)xy - by = x^3 - bx^2: when (0, 0) has
    # finite order, that order is at least 4.
    st.tuples(SMALL_FRACTIONS, SMALL_FRACTIONS).map(
        lambda bc: [1 - bc[1], -bc[0], -bc[0], 0, 0]))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(TORSION_CURVES)
def test_torsion_matches_nagell_lutz(a):
    try:
        E = CurveQ(*a)
    except ValueError:
        return  # singular
    assert torsion_over_Q(E) == torsion_nagell_lutz(E)
