"""The arithmetic UniPoly and BiPoly share, on random sparse values.

Every operation is checked against evaluation: (P op Q)(pt) must equal
P(pt) op Q(pt) at random rational points, with int and Fraction operands
on either side. Equal values built in different ways must compare and
hash equal, the two classes never compare equal to each other, and the
integer models keep every sign and have coprime coefficients."""

from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gl2tors.polynomial import BiPoly, UniPoly

SETTINGS = settings(max_examples=60, deadline=None, derandomize=True)

fractions = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 5))
scalars = st.one_of(st.integers(-9, 9), fractions)
unipolys = st.dictionaries(st.integers(0, 5), fractions,
                           max_size=5).map(UniPoly)
bipolys = st.dictionaries(st.tuples(st.integers(0, 3), st.integers(0, 3)),
                          fractions, max_size=6).map(BiPoly)
# Each case: a polynomial strategy and a strategy for its points.
CASES = {
    "uni": (unipolys, st.tuples(fractions)),
    "bi": (bipolys, st.tuples(fractions, fractions)),
}
KINDS = pytest.mark.parametrize("kind", sorted(CASES))


@KINDS
@SETTINGS
@given(data=st.data())
def test_operations_commute_with_evaluation(kind, data):
    polys, points = CASES[kind]
    P, Q = data.draw(polys), data.draw(polys)
    pt = data.draw(points)
    k = data.draw(st.integers(0, 3))
    p, q = P(*pt), Q(*pt)
    assert (P + Q)(*pt) == p + q
    assert (P - Q)(*pt) == p - q
    assert (-P)(*pt) == -p
    assert (P * Q)(*pt) == p * q
    assert (P ** k)(*pt) == p ** k


@KINDS
@SETTINGS
@given(data=st.data())
def test_scalar_operands_on_either_side(kind, data):
    polys, points = CASES[kind]
    P = data.draw(polys)
    c = data.draw(scalars)
    pt = data.draw(points)
    p = P(*pt)
    assert (P + c)(*pt) == (c + P)(*pt) == p + c
    assert (P - c)(*pt) == p - c
    assert (c - P)(*pt) == c - p
    assert (P * c)(*pt) == (c * P)(*pt) == p * c
    assert (3 - P)(*pt) == 3 - p
    assert (P * Fraction(1, 2))(*pt) == p / 2
    cls = type(P)
    assert cls.constant(c) == c and c == cls.constant(c)
    assert (P == c) == (P.items() == cls.constant(c).items())


@KINDS
@SETTINGS
@given(data=st.data())
def test_equal_values_compare_and_hash_equal(kind, data):
    polys, _ = CASES[kind]
    P, Q, R = data.draw(polys), data.draw(polys), data.draw(polys)
    cls = type(P)
    const = dict(P.items()).get(cls.ONE, 0)
    pairs = [
        (P + Q, Q + P),
        (P * Q, Q * P),
        ((P + Q) * R, P * R + Q * R),
        (P - Q, -(Q - P)),
        (P - P, cls()),
        (P ** 2, P * P),
        (P ** 0, cls.constant(1)),
        (cls(dict(reversed(P.items()))), P),
        (cls({**dict(P.items()), cls.ONE: 0}), P - const),
    ]
    for a, b in pairs:
        assert a == b and not a != b
        assert hash(a) == hash(b)
    assert P + 1 != P and not P + 1 == P
    assert (2 * P == P) == P.is_zero()


def test_constant_zero_terms_are_dropped():
    assert UniPoly({0: 0, 2: Fraction(0, 3)}) == UniPoly() == 0
    assert BiPoly({(1, 1): 0}).is_zero()
    assert hash(UniPoly({0: 0, 1: 2})) == hash(UniPoly({1: 2}))


@SETTINGS
@given(c=scalars)
def test_unipoly_and_bipoly_never_compare_equal(c):
    U, B = UniPoly.constant(c), BiPoly.constant(c)
    assert U != B and B != U
    assert not U == B and not B == U
    assert U == c == B


def test_foreign_operands_are_refused():
    U, B = UniPoly.x(), BiPoly.variable(0)
    for a, b in ((U, B), (B, U), (U, "x"), (B, 1.5)):
        for op in (lambda: a + b, lambda: a - b, lambda: a * b,
                   lambda: b + a, lambda: b - a, lambda: b * a):
            with pytest.raises(TypeError):
                op()
    for P in (U, B):
        with pytest.raises(ValueError, match="negative power"):
            P ** -1


def _sign(v) -> int:
    return (v > 0) - (v < 0)


@SETTINGS
@given(P=unipolys)
def test_integer_coeffs_are_coprime_and_keep_signs(P):
    if P.is_zero():
        with pytest.raises(ValueError):
            P.integer_coeffs()
        return
    ints = P.integer_coeffs()
    assert all(type(v) is int for v in ints)
    assert gcd(*ints) == 1
    assert len(ints) == P.degree + 1
    assert _sign(ints[-1]) == _sign(P.leading())
    assert [_sign(v) for v in ints] == [_sign(P.coeff(e))
                                        for e in range(P.degree + 1)]
    # P is a positive rational multiple of its integer model.
    scale = P.leading() / ints[-1]
    assert scale > 0
    assert P == scale * UniPoly.from_coeffs(ints)
    assert P._content() == scale


@SETTINGS
@given(F=bipolys)
def test_primitive_is_coprime_and_keeps_signs(F):
    G = F.primitive()
    if F.is_zero():
        assert G.is_zero()
        return
    values = [v for _, v in G.items()]
    assert all(v.denominator == 1 for v in values)
    assert gcd(*(v.numerator for v in values)) == 1
    assert [k for k, _ in G.items()] == [k for k, _ in F.items()]
    assert [_sign(v) for v in values] == [_sign(v) for _, v in F.items()]
    lead = max(F.items())[0]
    scale = dict(F.items())[lead] / dict(G.items())[lead]
    assert scale > 0
    assert F == scale * G
    assert F._content() == scale
    assert G.primitive() == G
