"""The integer search kernels against Fraction references.

Each reference evaluates with Fraction arithmetic at every grid point,
the way the searches did before they moved to integers."""

from fractions import Fraction
from math import isqrt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gl2tors.jmaps import (JMAP_LABELS, POLE, jmap_eval, named_jmap,
                           search_hyperelliptic, zeta3_descent_search)
from gl2tors.polynomial import UniPoly, farey_fractions

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
