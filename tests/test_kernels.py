"""The integer kernels against Fraction references.

Each search reference evaluates with Fraction arithmetic at every grid
point, the way the searches did before they moved to integers; the
fiber search must return exactly the zero set of F on the grid, and the
pairs of a j-value match keyed by Fractions with each point's kind and
j-value, also when its keys are taken modulo primes small enough to
collide. farey_fractions must equal the reference grid in any order of
heights, from several threads too, with each value shared through its
memo and each list the caller's own; the point-count references start
from the rational invariants and count points on the long model
directly. The root finder must return exactly
the roots planted in a product of linear factors and those of the
rational root theorem on division polynomials, and the resultant must
agree with a Sylvester determinant taken by Fraction Gaussian
elimination, at non-integer and integer values of the kept variable;
so must the integer resultant in the cases of its recurrence that small
random inputs rarely reach. The fiber discriminants must agree with it
at one more value than their degree bound, and planted resultants must
read off the digits at 2^B exactly: a negative top coefficient, one
near the bound, a zero resultant and zero rows. The modular Horner
_form_mod must agree with the exact one reduced mod m for moduli up to
2^31 - 1. The square sieve of the searches must keep every grid point
where a form with a planted square is a square, the exact square kernel
after it must return exactly those squares, and its grid must hold the
points of the reference grid.
The kernel must agree with the exact reference and with the sieve path
on forms just below and at its int64 bound, at values k^2 and k^2 +- 1
where float64 rounds the root, on negative values and on constant
forms. The integer key that orders the grid must strictly increase
along the reference grid, and along the closest neighbours at height
1000."""

import functools
import operator
import random
import sys
import threading
from fractions import Fraction
from itertools import permutations, product
from math import isqrt, lcm, prod

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from gl2tors import elliptic, jmaps, polynomial
from gl2tors.arith import is_square
from gl2tors.elliptic import (CurveQ, _on_given_model, _psi3,
                              _two_division_cubic, count_points,
                              curve_invariants, frobenius_signature)
from gl2tors.jmaps import (JMAP_LABELS, POLE, fiber_curve, fiber_points,
                           jmap_eval, named_jmap, search_hyperelliptic,
                           search_plane, zeta3_descent_search)
from gl2tors.polynomial import (BiPoly, UniPoly, _eval_int_at, _form_mod,
                                _grid_arrays, _grid_key, _int_rational_roots,
                                _int_resultant, farey_fractions,
                                rational_roots, resultant)
from test_elliptic import E37, count_points_naive

SETTINGS = settings(max_examples=60, deadline=None)

coeff = st.fractions(min_value=-12, max_value=12, max_denominator=6)
height = st.integers(min_value=1, max_value=12)


def sqrt_exact(v: Fraction):
    if v < 0:
        return None
    rp, rq = isqrt(v.numerator), isqrt(v.denominator)
    if rp * rp == v.numerator and rq * rq == v.denominator:
        return Fraction(rp, rq)
    return None


def grid_reference(H):
    return sorted({Fraction(p, q) for q in range(1, H + 1)
                   for p in range(-H, H + 1)})


def hyperelliptic_reference(h, f, H):
    out = []
    for x in grid_reference(H):
        hv = h(x)
        r = sqrt_exact(hv * hv + 4 * f(x))
        if r is not None:
            out.extend((x, y) for y in sorted({(-hv + r) / 2,
                                               (-hv - r) / 2}))
    return sorted(out)


def zeta3_reference(H):
    hits = []
    for t in grid_reference(H):
        v = t ** 3 - 27
        if sqrt_exact(v) is not None:
            hits.append((t, "b=0"))
        if sqrt_exact(-v / 3) is not None:
            hits.append((t, "a=0"))
    return sorted(hits)


def jmap_reference(m, x):
    d = m.den(x)
    return POLE if d == 0 else m.num(x) / d


def test_farey_fractions_matches_set_sort():
    for H in range(1, 41):
        grid = farey_fractions(H)
        assert grid == grid_reference(H)
        assert all(type(x) is Fraction for x in grid)


@functools.cache
def reference_arrays(H):
    """Numerators, denominators and heights max(|p|, q) of
    grid_reference(H). The grid at h <= H is the part of it with height
    at most h, in the same order."""
    ref = grid_reference(H)
    num = np.array([x.numerator for x in ref])
    den = np.array([x.denominator for x in ref])
    return num, den, np.maximum(np.abs(num), den)


def matches_reference(grid, h, H):
    num, den, height = reference_arrays(H)
    keep = height <= h
    return (len(grid) == keep.sum()
            and np.array_equal([x.numerator for x in grid], num[keep])
            and np.array_equal([x.denominator for x in grid], den[keep]))


@pytest.fixture
def empty_memo():
    """The memo of grid Fractions, emptied before the test."""
    polynomial._fraction.cache_clear()


def test_farey_fractions_in_any_height_order(empty_memo):
    farey_fractions(200)
    heights = list(range(60, 0, -1)) + random.Random(17).sample(
        range(1, 221), 220)
    for h in heights:
        assert matches_reference(farey_fractions(h), h, 220), h


def test_farey_fractions_shares_values_but_not_lists(empty_memo):
    first = farey_fractions(5)
    first.reverse()
    first[0] = Fraction(7)
    second = farey_fractions(5)
    assert second == grid_reference(5) and second is not first
    larger = {x: x for x in farey_fractions(30)}
    assert all(larger[x] is x for x in second)
    assert all(map(operator.is_, farey_fractions(5), second))


def test_farey_fractions_is_safe_from_threads(empty_memo):
    reference_arrays(220)
    bad = []

    def walk(seed):
        for h in random.Random(seed).sample(range(1, 121), 120):
            if not matches_reference(farey_fractions(h), h, 220):
                bad.append((seed, h))
    threads = [threading.Thread(target=walk, args=(seed,))
               for seed in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(th.is_alive() for th in threads)
    assert bad == []


@SETTINGS
@given(st.lists(coeff, max_size=4), st.lists(coeff, min_size=1, max_size=8),
       st.booleans(), height)
def test_search_hyperelliptic_matches_reference(hc, fc, zero_disc, H):
    h = UniPoly.from_coeffs(hc)
    f = UniPoly.from_coeffs(fc)
    if zero_disc:
        f = h * h * Fraction(-1, 4)
    pts = search_hyperelliptic(h, f, H)
    assert pts == hyperelliptic_reference(h, f, H)
    assert all(type(v) is Fraction for pt in pts for v in pt)


def test_search_hyperelliptic_zero_disc_examples():
    h = UniPoly.from_coeffs([Fraction(1, 3), 0, 2])
    f = h * h * Fraction(-1, 4)
    assert search_hyperelliptic(h, f, 5) == hyperelliptic_reference(h, f, 5)
    assert search_hyperelliptic(UniPoly(), UniPoly(), 2) == [
        (x, 0) for x in grid_reference(2)]


@SETTINGS
@given(st.integers(min_value=1, max_value=30))
def test_zeta3_descent_matches_reference(H):
    hits = zeta3_descent_search(H)
    assert [(h.t, h.case) for h in hits] == zeta3_reference(H)


def test_sieve_residue_tables():
    assert jmaps._SIEVE_M == prod(jmaps._SQUARES)
    for m, square in jmaps._SQUARES.items():
        assert {r for r in range(m) if square[r]} == {
            x * x % m for x in range(m)}


def test_grid_arrays_match_grid_reference():
    for H in range(1, 61):
        p, q = _grid_arrays(H)
        assert p.dtype == q.dtype == np.int64
        pairs = list(zip(p.tolist(), q.tolist()))
        assert len(set(pairs)) == len(pairs)
        assert set(pairs) == {(x.numerator, x.denominator)
                              for x in grid_reference(H)}
    with pytest.raises(ValueError, match="height"):
        _grid_arrays(0)


def test_grid_key_increases_along_the_grid():
    for H in range(1, 61):
        keys = [_grid_key(x.numerator, x.denominator, H)
                for x in grid_reference(H)]
        assert all(a < b for a, b in zip(keys, keys[1:])), H
    # At H = 1000 the closest grid neighbours are a/(H - 1) and c/H with
    # c(H - 1) - aH = +-1, 1/(H(H - 1)) apart; the ends, +-H and
    # +-(H - 1), give the keys of largest size. int64 keys must agree.
    H = 1000
    closest = [tuple(sorted((Fraction(a, H - 1), Fraction(c, H))))
               for a in range(-H, H + 1) for sign in (1, -1)
               for c, r in [divmod(a * H + sign, H - 1)]
               if r == 0 and abs(c) <= H]
    assert len(closest) == 4
    assert all(hi - lo == Fraction(1, H * (H - 1)) for lo, hi in closest)
    ends = [(Fraction(-H), Fraction(1 - H)), (Fraction(H - 1), Fraction(H))]
    for lo, hi in closest + ends:
        keys = [_grid_key(x.numerator, x.denominator, H) for x in (lo, hi)]
        p = np.array([lo.numerator, hi.numerator], dtype=np.int64)
        q = np.array([lo.denominator, hi.denominator], dtype=np.int64)
        assert keys[0] < keys[1], (lo, hi)
        assert _grid_key(p, q, H).tolist() == keys


def _form_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, u in enumerate(a):
        for j, v in enumerate(b):
            out[i + j] += u * v
    return out


def square_points_reference(C, H):
    """The sorted (p, q, r) with C(p, q) = r^2, by exact Python integers
    at every grid point."""
    return sorted((p, q, isqrt(v)) for p, q in zip(
        *(a.tolist() for a in _grid_arrays(H)))
        for v in [_eval_int_at(C, p, q)] if is_square(v))


def sieve_path(C, H, sieved_points=jmaps._sieved_points):
    """The sorted (p, q, r) of the sieve and the exact Python test, the
    path _square_points takes above the int64 bound, on any form."""
    return sorted((p, q, isqrt(v)) for p, q in sieved_points(C, H)
                  for v in [_eval_int_at(C, p, q)] if is_square(v))


@pytest.fixture
def sieve_calls(monkeypatch):
    """The heights at which _square_points fell back to the sieve."""
    calls = []
    real = jmaps._sieved_points
    monkeypatch.setattr(jmaps, "_sieved_points",
                        lambda C, H: calls.append(H) or real(C, H))
    return calls


@settings(max_examples=80, deadline=None)
@given(st.integers(min_value=0, max_value=8),
       st.integers(min_value=1, max_value=14), st.randoms())
def test_sieve_keeps_every_square(e, H, rnd):
    """A form sum C[i] p^i q^(e-i) with a square planted at a grid point
    (p0, q0): C = (q0 p - p0 q) * B + q0^e u^2 q^e, so C(p0, q0) =
    (q0^e u)^2. Coefficients reach past 2^70, and p0 may be negative."""
    grid = list(zip(*(a.tolist() for a in _grid_arrays(H))))
    p0, q0 = rnd.choice(grid)
    big = 2 ** rnd.choice((4, 40, 80))
    u = rnd.randint(0, 2 ** 40)
    if e == 0:
        C = [u * u]
    else:
        C = _form_mul([-p0, q0],
                      [rnd.randint(-big, big) for _ in range(e)])
        C[0] += q0 ** e * u * u
    assert len(C) == e + 1
    kept = set(jmaps._sieved_points(C, H))
    assert (p0, q0) in kept
    squares = {(p, q) for p, q in grid if is_square(_eval_int_at(C, p, q))}
    assert squares <= kept
    # The survivors are exactly the points whose value is a square
    # modulo each of the four moduli.
    residues = {m: {x * x % m for x in range(m)} for m in jmaps._SQUARES}
    assert kept == {(p, q) for p, q in grid
                    if all(_eval_int_at(C, p, q) % m in residues[m]
                           for m in residues)}
    # The exact kernel keeps exactly the integer squares, each with its
    # root r >= 0; on the zero form every grid point is a hit with r = 0.
    for form in (C, [0]):
        assert sorted(jmaps._square_points(form, H)) == (
            square_points_reference(form, H))


@pytest.mark.parametrize("e", [1, 2, 3, 6])
@pytest.mark.parametrize("H", [1, 2, 7, 12])
@pytest.mark.parametrize("above", [False, True])
def test_square_points_at_the_int64_bound(e, H, above, sieve_calls):
    """Forms with H^e * sum |C| just below 2^62 take the int64 pass, and
    those at 2^62 the sieve; both equal the exact reference. C[0] = u^2
    plants a square at (0, 1), and the leading coefficient makes up
    sum |C| exactly."""
    rnd = random.Random(1000 * e + 10 * H + above)
    total = (2 ** 62 - 1) // H ** e + above
    u = rnd.randint(0, isqrt(total // 2))
    C = [u * u] + [rnd.randint(-total // (4 * e), total // (4 * e))
                   for _ in range(e - 1)]
    C.append(rnd.choice((-1, 1)) * (total - sum(abs(c) for c in C)))
    assert (_eval_int_at([abs(c) for c in C], H, H) < 2 ** 62) != above
    got = sorted(jmaps._square_points(C, H))
    assert sieve_calls == ([H] if above else [])
    assert (0, 1, u) in got
    assert got == square_points_reference(C, H) == sieve_path(C, H)


# k near 2^26, 2^26.5 and 2^31 - 1: float64 holds k^2 exactly up to
# 2^53, and above that its square root may round v = k^2 - 1 up to k.
NEAR_SQUARE_ROOTS = [2 ** 26 - 1, 2 ** 26, 2 ** 26 + 1, 94_906_265,
                     94_906_266, 94_906_267, 2 ** 31 - 2, 2 ** 31 - 1]


@pytest.mark.parametrize("k", NEAR_SQUARE_ROOTS)
def test_square_points_near_large_squares(k, sieve_calls):
    """The values k^2 - 1, k^2 and k^2 + 1, and their negatives, as the
    form A*q + p at H = 1 (p = -1, 0, 1) and as constant forms."""
    A = k * k
    forms = [[A, 1], [-A, 1]] + [[v] for v in (A - 1, A, A + 1, -A)]
    for C in forms:
        got = sorted(jmaps._square_points(C, 1))
        assert got == square_points_reference(C, 1) == sieve_path(C, 1)
    assert sieve_calls == []
    assert sorted(jmaps._square_points([A, 1], 1)) == [(0, 1, k)]
    assert sorted(jmaps._square_points([A], 1)) == [
        (p, 1, k) for p in (-1, 0, 1)]


def test_square_points_float_root_needs_correcting():
    # The cases above reach the downward step: for these k the float64
    # square root of k^2 - 1 rounds up to k.
    late = [k for k in NEAR_SQUARE_ROOTS
            if int(np.sqrt(np.float64(k * k - 1))) == k]
    assert late == NEAR_SQUARE_ROOTS[2:]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("C, H", [
    ([0, 1], 12), ([-4, 0, 1], 9), ([0, 0, -1], 5), ([-1], 3),
    ([0], 1), ([0], 6), ([9], 4), ([2 ** 60], 2)])
def test_square_points_signs_and_constant_forms(C, H, sieve_calls):
    """Forms that take negative values (p, p^2 - 4q^2, -q^2, -1), with no
    floating-point warning, the zero form, on which every grid point is
    a hit with r = 0, and constant square forms, on which every grid
    point is a hit with r = sqrt(c)."""
    got = sorted(jmaps._square_points(C, H))
    assert got == square_points_reference(C, H) == sieve_path(C, H)
    assert sieve_calls == []
    if len(C) == 1 and C[0] >= 0:
        p, q = _grid_arrays(H)
        assert got == sorted((a, b, isqrt(C[0]))
                             for a, b in zip(p.tolist(), q.tolist()))


@pytest.mark.parametrize("m", [2, 3, 46_337, 46_349, 64 * 63 * 65 * 11,
                               1_000_000_007, 2 ** 31 - 1])
def test_form_mod_matches_exact_horner(m):
    """_form_mod agrees with the exact homogenised Horner reduced mod m on
    forms of degree 0-12 with coefficients up to 2^200 in size, at
    negative and positive p and at q = 0, with q an array and the
    scalar 1, up to m = 2^31 - 1, the largest modulus its int64 claim
    covers. 46,337 and 46,349 reduce every 3 and every 2 steps; at m = 2
    and 3 degree 70 also runs, past any cap short of the degree at m = 2
    and in runs of 60 unreduced steps at m = 3. Each form is evaluated
    on 48 points and on 520, where _mod takes its reciprocal branch."""
    rnd = random.Random(m)
    edges = [-m, -1, 0, 1, m - 1, m, 2 ** 63 - 1, -2 ** 63]
    degrees = list(range(13)) + [70] * (m <= 3)
    for size in (40, 512):
        p = np.array([rnd.randint(-2 ** 62, 2 ** 62) for _ in range(size)]
                     + edges, dtype=np.int64)
        q = np.array([rnd.randint(0, 2 ** 62) for _ in range(p.size - 2)]
                     + [0, 1], dtype=np.int64)
        for e in degrees:
            for bits in (4, 62, 200):
                C = [rnd.randint(-2 ** bits, 2 ** bits) for _ in range(e + 1)]
                for qs in (q, 1):
                    got = _form_mod(C, p, qs, m)
                    assert got.dtype == np.int64
                    assert got.tolist() == [
                        _eval_int_at(C, a, b) % m for a, b in
                        zip(p.tolist(),
                            np.broadcast_to(qs, p.shape).tolist())]


# Every rational pole of the six maps, so that each map meets its own.
POLES = [Fraction(v) for v in (-1, 0, 1, 3)]


@SETTINGS
@given(st.sampled_from(JMAP_LABELS),
       st.one_of(st.sampled_from(POLES),
                 st.fractions(min_value=-50, max_value=50,
                              max_denominator=50),
                 st.integers(min_value=-50, max_value=50)))
def test_jmap_eval_matches_reference(label, x):
    m = named_jmap(label)
    want = jmap_reference(m, Fraction(x))
    got = jmap_eval(m, x)
    if want is POLE:
        assert got is POLE
    else:
        assert type(got) is Fraction and got == want


def test_jmap_eval_poles_of_every_map():
    for label in JMAP_LABELS:
        m = named_jmap(label)
        for x in POLES:
            assert (jmap_eval(m, x) is POLE) == (m.den(x) == 0)
    assert sum(jmap_eval(named_jmap(lab), x) is POLE
               for lab in JMAP_LABELS for x in POLES) == 7


def test_jmap_eval_rejects_float():
    with pytest.raises(TypeError):
        jmap_eval(named_jmap("2B"), 0.5)


def plane_reference(F, H):
    grid = grid_reference(H)
    return sorted((s, t) for s in grid for t in grid if F(s, t) == 0)


@pytest.mark.parametrize("a, b", [("3Cs.1.1", "9B0-9a"),
                                  ("no-9-isogeny", "2B"),
                                  ("2B", "3Cs.1.1")])
def test_search_plane_is_the_zero_set_of_F(a, b):
    C = fiber_curve(named_jmap(a), named_jmap(b))
    assert search_plane(C, 4) == plane_reference(C.F, 4)


def fiber_reference(curve, H):
    """The fiber search keyed by Fraction j-values from Fraction map
    evaluation, with POLE as one more key: every pole pair is a point."""
    grid = grid_reference(H)
    by_j = {}
    for s in grid:
        by_j.setdefault(jmap_reference(curve.jmap_s, s), []).append(s)
    return sorted((s, t) for t in grid
                  for s in by_j.get(jmap_reference(curve.jmap_t, t), ()))


def test_search_plane_fiber_matches_fraction_keyed_reference():
    for a, b in permutations(JMAP_LABELS, 2):
        curve = fiber_curve(named_jmap(a), named_jmap(b))
        assert search_plane(curve, 8) == fiber_reference(curve, 8), (a, b)


@functools.cache
def labelled_fiber_reference(a, b, H):
    return fiber_reference(fiber_curve(named_jmap(a), named_jmap(b)), H)


@pytest.mark.parametrize("a, b, H", [
    ("3Cs.1.1", "9B0-9a", 30), ("2B", "9H0-9b", 30),
    ("no-9-isogeny", "2B", 30), ("2B", "2B", 20), ("Et", "9B0-9a", 20)])
def test_search_plane_matches_fraction_keyed_reference_higher(a, b, H):
    curve = fiber_curve(named_jmap(a), named_jmap(b))
    assert search_plane(curve, H) == labelled_fiber_reference(a, b, H)


@functools.cache
def labelled_fiber_points_reference(a, b, H):
    """(s, t, kind, j) for each point of the reference fiber search, with
    j from Fraction evaluation of the s-map."""
    curve = fiber_curve(named_jmap(a), named_jmap(b))
    out = []
    for s, t in labelled_fiber_reference(a, b, H):
        v = jmap_reference(curve.jmap_s, s)
        out.append((s, t, "pole", None) if v is POLE
                   else (s, t, "finite", v))
    return out


SMALL_PRIMES = (2, 3, 5, 7, 101)


@pytest.mark.parametrize("prime", SMALL_PRIMES + (jmaps._PRIME,))
def test_search_plane_keyed_modulo_a_small_prime(monkeypatch, prime):
    """The residue keys modulo a small prime collide often and vanish
    where no denominator does; the search must still be exact, on the
    diagonal fibers too, and so must each point's kind and j-value."""
    monkeypatch.setattr(jmaps, "_PRIME", prime)
    for a, b in product(JMAP_LABELS, repeat=2):
        curve = fiber_curve(named_jmap(a), named_jmap(b))
        want = labelled_fiber_points_reference(a, b, 8)
        assert search_plane(curve, 8) == [(s, t) for s, t, _, _ in want], \
            (a, b)
        assert [(fp.s, fp.t, fp.kind, fp.j)
                for fp in fiber_points(curve, 8)] == want, (a, b)


def test_small_primes_reach_every_key_branch():
    """At height 8 the primes above give: a prime dividing a model
    constant (9H0-9b has b = 8); a D(p, q) that vanishes modulo the prime
    but not in Q; finite values keyed after exact evaluation by their
    residue and by the key P, where the prime divides their denominator;
    and two distinct values sharing a residue."""
    assert named_jmap("9H0-9b")._model[2] == 8
    seen = set()
    for P in SMALL_PRIMES:
        by_residue = {}
        for label in JMAP_LABELS:
            m = named_jmap(label)
            _, _, b, D = m._model
            for x in grid_reference(8):
                d = _eval_int_at(D, x.numerator, x.denominator)
                v = jmap_reference(m, x)
                if d != 0 and d % P == 0:
                    seen.add("D vanishes mod P only")
                if v is POLE:
                    continue
                if b * d % P == 0:
                    seen.add("residue" if v.denominator % P else "key P")
                if v.denominator % P:
                    r = v.numerator * pow(v.denominator, -1, P) % P
                    if by_residue.setdefault(r, v) != v:
                        seen.add("collision")
    assert seen == {"D vanishes mod P only", "residue", "key P",
                    "collision"}


def _is_prime(n):
    return n >= 2 and all(n % d for d in range(2, isqrt(n) + 1))


def guard_reference(E, p):
    """count_points' checks, in its order, from the rational invariants."""
    if not _is_prime(p):
        raise ValueError(f"{p} is not prime")
    u = lcm(*(c.denominator for c in E.coefficients()))
    if u % p == 0:
        raise ValueError(f"p = {p} divides the scaling denominator")
    if (curve_invariants(E).disc * u ** 12) % p == 0:
        raise ValueError(f"bad reduction at p = {p}")


def count_points_reference(E, p):
    guard_reference(E, p)
    return count_points_naive(E, p)


def outcome(f, *args):
    try:
        return f(*args)
    except ValueError as e:
        return "ValueError", str(e)


curve_coeff = st.fractions(min_value=-20, max_value=20, max_denominator=6)


def make_curve(coeffs):
    try:
        return CurveQ(*coeffs)
    except ValueError:
        assume(False)


@SETTINGS
@given(st.lists(curve_coeff, min_size=5, max_size=5),
       st.one_of(st.sampled_from([p for p in range(2, 201) if _is_prime(p)]),
                 st.integers(min_value=1, max_value=200)))
def test_count_points_matches_naive_on_random_curves(coeffs, p):
    E = make_curve(coeffs)
    assert outcome(count_points, E, p) == outcome(count_points_reference,
                                                  E, p)


def frobenius_reference(E, ell, bound):
    counts, first, skipped = {}, {}, 0
    for p in range(2, bound + 1):
        if not _is_prime(p):
            continue
        if ell % p == 0 or outcome(guard_reference, E, p) is not None:
            skipped += 1
            continue
        cls = (count_points_naive(E, p)[1] % ell, p % ell)
        counts[cls] = counts.get(cls, 0) + 1
        first.setdefault(cls, p)
    return counts, first, skipped


@settings(max_examples=25, deadline=None)
@given(st.lists(curve_coeff, min_size=5, max_size=5),
       st.sampled_from((2, 3, 9)), st.integers(min_value=20, max_value=60))
def test_frobenius_signature_matches_reference(coeffs, ell, bound):
    E = make_curve(coeffs)
    sig = frobenius_signature(E, ell, bound)
    counts, first, skipped = frobenius_reference(E, ell, bound)
    assert (sig.counts, sig.first_prime, sig.skipped) == (counts, first,
                                                          skipped)
    assert list(sig.counts) == sorted(counts)
    assert list(sig.first_prime) == sorted(first)
    assert sig.primes + sig.skipped == sum(map(_is_prime,
                                               range(bound + 1)))


def test_curve_model_is_not_compared():
    E = CurveQ(1, 2, 3, 4, 5)
    F = CurveQ(*map(Fraction, (1, 2, 3, 4, 5)))
    assert E == F and hash(E) == hash(F)
    assert repr(E) == repr(F) == "[1,2,3,4,5]"
    assert E != CurveQ(1, 2, 3, 4, 6)


def test_frobenius_signature_computes_invariants_once(monkeypatch):
    calls = []

    def counting(E):
        calls.append(E)
        return curve_invariants(E)
    monkeypatch.setattr(elliptic, "curve_invariants", counting)
    sig = frobenius_signature(E37, 3, 2000)
    assert sig.primes == 301 and sig.skipped == 2
    assert len(calls) <= 1


X = UniPoly.x()
# No real root, and 306-bit outer coefficients: the planted roots must
# be lifted far past the prime they are found at.
BIG_K = 2 ** 305 + 7
BIG_COFACTOR = BIG_K * X ** 2 + (BIG_K + 1) * X + BIG_K


def planted(num, den):
    return st.lists(st.tuples(num, den, st.integers(min_value=1,
                                                    max_value=3)),
                    min_size=1, max_size=4)


def plant(roots, cofactor):
    P = cofactor
    for a, b, mult in roots:
        P = P * (b * X - a) ** mult
    return P, sorted({Fraction(a, b) for a, b, _ in roots})


@SETTINGS
@given(planted(st.integers(min_value=-2 ** 120, max_value=2 ** 120),
               st.integers(min_value=1, max_value=2 ** 120)))
def test_rational_roots_finds_planted_roots_of_large_height(roots):
    P, want = plant(roots, BIG_COFACTOR)
    assert rational_roots(P) == want


@SETTINGS
@given(planted(st.integers(min_value=-12, max_value=12),
               st.integers(min_value=1, max_value=12)))
def test_rational_roots_finds_small_planted_roots(roots):
    P, want = plant(roots, X ** 2 + X + 1)
    assert rational_roots(P) == want


@pytest.mark.parametrize("P, want", [
    # The square has a root mod every prime (one of 2, 3, 6 is a square
    # mod p), so only the square-free part has a usable prime.
    (((X ** 2 - 2) * (X ** 2 - 3) * (X ** 2 - 6)) ** 2 * (3 * X - 5),
     [Fraction(5, 3)]),
    # The leading coefficient is divisible by 2, 3, 5 and 7.
    ((210 * X - 11) * (X ** 2 + X + 1), [Fraction(11, 210)]),
    # Two of the roots meet mod every prime below 30.
    (prod(X - k for k in range(1, 31)), list(range(1, 31))),
    # A repeated linear factor: 1 is a double root mod 3 and mod 5, and
    # only the second of them replaces P by its square-free part.
    ((X - 1) ** 2 * (2 * X + 3), [Fraction(-3, 2), 1]),
])
def test_rational_roots_prime_choice_edge_cases(P, want):
    assert rational_roots(P) == want


def rational_roots_reference(P):
    """The candidates of the rational root theorem that are roots."""
    c = P.integer_coeffs()
    k = next(i for i, v in enumerate(c) if v)

    def divisors(n):
        return [d for i in range(1, isqrt(n) + 1) if n % i == 0
                for d in (i, n // i)]
    candidates = {Fraction(sign * a, b) for a in divisors(abs(c[k]))
                  for b in divisors(abs(c[-1])) for sign in (1, -1)}
    roots = {x for x in candidates if P(x) == 0}
    return sorted(roots | ({Fraction(0)} if k else set()))


def test_rational_roots_of_division_polynomials_match_reference():
    rng = random.Random(20261018)
    curves = 0
    while curves < 300:
        try:
            E = CurveQ(*(rng.randint(-50, 50) for _ in range(5)))
        except ValueError:
            continue
        curves += 1
        inv = curve_invariants(E)
        for X in (_two_division_cubic(inv), _psi3(inv)):
            _, _, c = _on_given_model(X, inv.u)
            P = UniPoly.from_coeffs(c)
            assert _int_rational_roots(c) == rational_roots(P) \
                == rational_roots_reference(P), E


def sylvester_reference(F, G, axis, x):
    """Res(F, G) at kept variable = x: the Sylvester determinant of the
    specialised coefficient lists at their formal degrees, by Fraction
    Gaussian elimination."""
    def specialised(P):
        out = [Fraction(0)] * (P.degree(axis) + 1)
        for (i, j), c in P._c.items():
            e, o = (i, j) if axis == 0 else (j, i)
            out[e] += c * x ** o
        return out[::-1]
    f, g = specialised(F), specialised(G)
    df, dg = len(f) - 1, len(g) - 1
    zero = [Fraction(0)]
    rows = ([zero * i + f + zero * (dg - 1 - i) for i in range(dg)]
            + [zero * i + g + zero * (df - 1 - i) for i in range(df)])
    n = len(rows)
    det = Fraction(1)
    for k in range(n):
        piv = next((i for i in range(k, n) if rows[i][k] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != k:
            rows[k], rows[piv] = rows[piv], rows[k]
            det = -det
        det *= rows[k][k]
        for i in range(k + 1, n):
            r = rows[i][k] / rows[k][k]
            rows[i] = [a - r * b for a, b in zip(rows[i], rows[k])]
    return det


bipoly = st.dictionaries(
    st.tuples(st.integers(min_value=0, max_value=2),
              st.integers(min_value=0, max_value=2)),
    st.fractions(min_value=-6, max_value=6, max_denominator=5),
    max_size=5).map(BiPoly)


@settings(max_examples=40, deadline=None)
@given(bipoly, bipoly, bipoly, st.sampled_from((0, 1)),
       st.integers(min_value=-2, max_value=2), st.booleans())
def test_resultant_matches_fraction_sylvester(A, B, C, axis, k0, common):
    v, w = BiPoly.variable(axis), BiPoly.variable(1 - axis)
    # The leading coefficient of F in v vanishes at w = k0.
    F = A + (w - k0) * v ** (max(A.degree(axis), 0) + 1)
    G = B + Fraction(3, 2) * v ** (max(B.degree(axis), 0) + 1)
    if common:
        # A leading term above C, as for F and G: C + v is zero at C = -v.
        shared = C + v ** (max(C.degree(axis), 0) + 1)
        F, G = F * shared, G * shared
    R = resultant(F, G, axis)
    if common:
        assert R.is_zero()
    df, dg = F.degree(axis), G.degree(axis)
    bound = dg * F.degree(1 - axis) + df * G.degree(1 - axis)
    assert R.degree <= bound
    for k in range(bound + 1):
        x = Fraction(3 * k - 7, 3)
        assert R(x) == sylvester_reference(F, G, axis, x)
    for k in range(-2, 3):
        assert R(k) == sylvester_reference(F, G, axis, Fraction(k))


B5 = [1, 0, 0, 0, 2, 3]


@pytest.mark.parametrize("a, b", [
    # a = x*b + (x^2 + 2x + 3): the remainder drops three degrees.
    ([3, 3, 1, 0, 0, 2, 3], B5),
    # 2x^4 + 3 over 3x^2 - 5: from degree 2 straight to degree 0.
    ([3, 0, 0, 0, 2], [-5, 0, 3]),
    # Equal degrees: delta = 0 in the first step.
    ([2, -1, 0, 5], [7, 3, -4, 1]),
    # deg a < deg b with both degrees odd: the swap changes the sign.
    ([4, 1], [-2, 0, 5, 3]),
    ([1, -3, 0, 2], B5),
    # A degree-0 argument.
    ([-6], [1, 2, 0, 3]),
    ([1, 2, 0, 3], [-6]),
    # A common root x = 1: (x - 1)(x + 2) and (x - 1)(x^2 + 1).
    ([-2, 1, 1], [-1, 1, -1, 1]),
])
def test_int_resultant_matches_fraction_sylvester(a, b):
    def ref(u, v):
        return sylvester_reference(UniPoly.from_coeffs(u).to_bipoly(0),
                                   UniPoly.from_coeffs(v).to_bipoly(0), 0, 0)
    assert _int_resultant(a, b) == ref(a, b)
    assert _int_resultant(b, a) == ref(b, a)


def test_resultant_skips_node_where_both_leads_vanish():
    s, t = BiPoly.variable(0), BiPoly.variable(1)
    # Both leading coefficients in s vanish at t = 2, so the
    # formal-degree determinant there is 0; only F's vanishes at t = 0.
    F = t * (t - 2) * s ** 2 + (t + 1) * s + 3
    G = (t - 2) * (t + 4) * s ** 3 - s + t * t - 5
    R = resultant(F, G, 0)
    assert sylvester_reference(F, G, 0, Fraction(2)) == 0
    assert not R.is_zero()
    for k in range(-6, 7):
        assert R(k) == sylvester_reference(F, G, 0, Fraction(k))
        x = Fraction(2 * k + 1, 4)
        assert R(x) == sylvester_reference(F, G, 0, x)


@pytest.mark.parametrize("a, b, axis", [
    # The curves workload's eight discriminant directions.
    *[("2B", b, 0) for b in ("3Cs.1.1", "9B0-9a", "Et", "no-9-isogeny")],
    *[(b, "2B", 1) for b in ("3Cs.1.1", "9B0-9a", "Et", "no-9-isogeny")],
    # resultant-evidence's R1, of degree 174 (its R2 is the last above).
    ("2B", "9H0-9b", 0)])
def test_fiber_discriminants_match_fraction_sylvester(a, b, axis):
    F = fiber_curve(named_jmap(a), named_jmap(b)).F
    G = F.derivative(axis)
    R = resultant(F, G, axis)
    bound = (G.degree(axis) * F.degree(1 - axis)
             + F.degree(axis) * G.degree(1 - axis))
    assert 40 < R.degree <= bound
    # Agreement at bound + 1 values pins every coefficient.
    for k in range(bound + 1):
        x = Fraction(k - bound // 2)
        assert R(x) == sylvester_reference(F, G, axis, x)


def test_planted_resultants_read_off_the_digits():
    v, w = BiPoly.variable(0), BiPoly.variable(1)
    M = 2 ** 40 + 5
    p = sum((w ** e for e in range(5)), BiPoly())
    cases = {
        # -2 w^3 + w^2 + 4: a negative top coefficient over a zero one.
        "negative top": (v * v - w * w * v + 1, w * v - 2, [4, 0, 1, -2]),
        # Res(a v + b, c v + d) = ad - bc = M^2 + (M - 1)^2, within a
        # factor 4 of the bound (2M - 1)^2 on it.
        "near the bound": (M * v - (M - 1), (M - 1) * v + M,
                           [M * M + (M - 1) ** 2]),
        # (M^2 + (M - 1)^2) p(w)^2 for p = 1 + w + ... + w^4: the middle
        # coefficient 5 (M^2 + (M - 1)^2) is over 8 times the product
        # M^2 of the largest coefficients, but within the bound.
        "wide rows": (p * (M * v + M - 1), p * ((1 - M) * v + M),
                      [(M * M + (M - 1) ** 2) * c
                       for c in (1, 2, 3, 4, 5, 4, 3, 2, 1)]),
        "common factor": ((v - w) * (v + 3), (v - w) * (w * v - 1), []),
        # F has a zero row in v^2 and v^3.
        "zero rows": ((w + 1) * v ** 4 + w * v - 3, v * v + w,
                      [9, 0, -6, -5, 1, 2, 1]),
    }
    for name, (F, G, want) in cases.items():
        assert resultant(F, G, 0) == UniPoly.from_coeffs(want), name
    F, G, want = cases["near the bound"]
    norm = (2 * M - 1) ** 2
    assert norm // 4 < want[0] <= norm
