"""Polynomial arithmetic, parsing, root finding, and resultants."""

import time
from fractions import Fraction
from math import comb, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gl2tors.polynomial import (BiPoly, PolyParseError, UniPoly, _int_mul,
                                _int_rational_roots, _product_size,
                                farey_fractions, parse_bipoly, parse_poly,
                                poly_gcd, rational_roots, resultant)

X = UniPoly.x()


def test_unipoly_basics():
    P = UniPoly.from_coeffs([1, -2, 0, 1])  # 1 - 2x + x^3
    assert P.degree == 3
    assert P.coeff(1) == -2
    assert P(2) == 5
    assert P(Fraction(1, 2)) == Fraction(1, 8)
    assert P.derivative() == UniPoly.from_coeffs([-2, 0, 3])
    assert UniPoly().degree == -1
    assert UniPoly().is_zero()
    with pytest.raises(ValueError):
        UniPoly().leading()


def test_unipoly_arithmetic():
    assert (X + 1) * (X - 1) == X ** 2 - 1
    assert (X + 1) ** 3 == X ** 3 + 3 * X ** 2 + 3 * X + 1
    assert 2 * X - X == X


def test_integer_coeffs():
    P = parse_poly("1/2*x^2 - 1/3")
    assert P.integer_coeffs() == [-2, 0, 3]
    assert parse_poly("-x + 1").integer_coeffs() == [1, -1]
    assert parse_poly("4*x^2 - 8").integer_coeffs() == [-2, 0, 1]
    with pytest.raises(ValueError):
        UniPoly().integer_coeffs()


def test_parse_poly_values():
    P = parse_poly("x^3 - 2*x + 1")
    assert P == X ** 3 - 2 * X + 1
    assert parse_poly("(1 - x)^2") == 1 - 2 * X + X ** 2
    assert parse_poly("2/3*x").coeff(1) == Fraction(2, 3)
    assert parse_poly("-x^2")(2) == -4
    assert parse_poly("2 - -3")(0) == 5
    assert parse_poly("t^2 + 1", var="t") == X ** 2 + 1


def test_parse_refuses_powers_past_the_size_bound():
    assert parse_poly("(x+1)^255").coeff(128) == comb(255, 128)
    assert parse_poly("x^65535 + 2^65535").degree == 65535
    assert parse_bipoly("(s+t+1)^31").degree(0) == 31
    for text in ("(x+1)^256", "x^65536", "2^65536", "(1/2*x)^32768"):
        with pytest.raises(PolyParseError, match="too large"):
            parse_poly(text)
    with pytest.raises(PolyParseError, match=r"\^32 too large"):
        parse_bipoly("(s+t+1)^32")


@settings(max_examples=60, deadline=None)
@given(st.dictionaries(st.tuples(st.integers(0, 3), st.integers(0, 3)),
                       st.fractions(-40, 40, max_denominator=12),
                       max_size=4),
       st.integers(0, 6))
def test_power_size_bounds_the_power(coeffs, e):
    P = BiPoly(coeffs)
    terms, bits = _product_size((P, e))
    items = (P ** e).items()
    assert len(items) <= terms
    assert all(abs(v.numerator).bit_length() <= bits
               and v.denominator.bit_length() <= bits for _, v in items)
    uni = UniPoly({i: v for (i, j), v in P._c.items() if j == 0})
    assert _product_size((uni, e)) == _product_size((uni.to_bipoly(0), e))


def test_parse_refuses_products_past_the_size_bound():
    # A power is e equal factors: the same bound holds on each side of *.
    assert parse_poly("(x+1)^127*(x+1)^128").coeff(128) == comb(255, 128)
    assert parse_poly("x^32768*x^32767").degree == 65535
    assert parse_bipoly("s^255*t^255").degree(1) == 255
    for text in ("(x+1)^128*(x+1)^128", "x^32768*x^32768",
                 "(1/2*x)^128*(x+1)^128"):
        with pytest.raises(PolyParseError, match="product too large"):
            parse_poly(text)
    with pytest.raises(PolyParseError, match="product too large"):
        parse_bipoly("s^256*t^255")
    start = time.perf_counter()
    with pytest.raises(PolyParseError,
                       match=r"^product too large: 511 terms x 511 bits"):
        parse_poly("*".join(["(x+1)^255"] * 8))
    assert time.perf_counter() - start < 1


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(
           st.dictionaries(st.tuples(st.integers(0, 3), st.integers(0, 3)),
                           st.fractions(-40, 40, max_denominator=12),
                           max_size=4),
           st.integers(0, 3)), min_size=1, max_size=3))
def test_product_size_bounds_the_product(factors):
    factors = [(BiPoly(c), e) for c, e in factors]
    terms, bits = _product_size(*factors)
    items = prod((P ** e for P, e in factors),
                 start=BiPoly.constant(1)).items()
    assert len(items) <= terms
    assert all(abs(v.numerator).bit_length() <= bits
               and v.denominator.bit_length() <= bits for _, v in items)


def test_parse_poly_errors():
    with pytest.raises(PolyParseError, match="unexpected token"):
        parse_poly("x**2")
    with pytest.raises(PolyParseError, match="trailing"):
        parse_poly("2x")
    with pytest.raises(PolyParseError, match="expected 'num'"):
        parse_poly("x^-1")
    with pytest.raises(PolyParseError, match="zero denominator"):
        parse_poly("1/0")
    with pytest.raises(PolyParseError, match="unknown variable"):
        parse_poly("y")
    with pytest.raises(PolyParseError, match="unexpected end"):
        parse_poly("x + ")
    with pytest.raises(PolyParseError, match="unexpected character"):
        parse_poly("x $")


def test_parse_bipoly():
    F = parse_bipoly("s^2*t - 3*s + t^2")
    assert F(1, 2) == 3
    assert F.degree(0) == 2 and F.degree(1) == 2
    assert parse_bipoly("s*t^2 - 1")(2, 3) == 17
    G = parse_bipoly("u - v", vars=("u", "v"))
    assert G(5, 3) == 2


def test_bipoly_helpers():
    F = parse_bipoly("2/3*s + 4/3*t")
    assert F.primitive() == parse_bipoly("s + 2*t")
    assert (X ** 2 + 1).to_bipoly(1) == parse_bipoly("t^2 + 1")
    assert parse_bipoly("s^2*t").derivative(0) == parse_bipoly("2*s*t")


def test_farey_fractions():
    grid = farey_fractions(2)
    assert grid == [Fraction(v) for v in
                    (-2, -1, Fraction(-1, 2), 0, Fraction(1, 2), 1, 2)]
    assert farey_fractions(1) == [-1, 0, 1]
    with pytest.raises(ValueError):
        farey_fractions(0)


def test_poly_gcd():
    g = poly_gcd(X ** 2 - 1, (X - 1) * (X + 2))
    assert g == X - 1
    assert poly_gcd(X ** 2 - 1, UniPoly()) == X ** 2 - 1
    assert poly_gcd(2 * X + 2, 4 * X + 4) == X + 1
    g = (X - Fraction(1, 2)) * (X ** 2 + Fraction(2, 3) * X + 5)
    A = g * (Fraction(3, 7) * X ** 2 - 2)
    B = Fraction(-5, 4) * g * (X + Fraction(1, 3)) ** 2
    assert poly_gcd(A, B) == g
    assert poly_gcd(B, A) == g
    assert poly_gcd(UniPoly(), B) == g * (X + Fraction(1, 3)) ** 2
    assert poly_gcd(UniPoly(), UniPoly()) == UniPoly()


def test_rational_roots_small():
    assert rational_roots(X ** 2 - 1) == [-1, 1]
    assert rational_roots(X ** 2 + 3) == []
    assert rational_roots(X ** 3 - 27) == [3]
    assert rational_roots(parse_poly(
        "3*x^4 + 19*x^3 + 3*x^2 + 22*x + 19")) == [Fraction(-19, 3)]
    assert rational_roots(3 * X ** 4 - 24 * X) == [0, 2]
    assert rational_roots(parse_poly("3*x^4 - 6*x^2 + 3*x - 1")) == []
    assert rational_roots((X - 1) ** 2) == [1]
    assert rational_roots(X) == [0]
    assert rational_roots(UniPoly.constant(5)) == []
    with pytest.raises(ValueError):
        rational_roots(UniPoly())


def test_int_rational_roots_take_any_integer_list():
    # Neither content nor trailing powers of x need dividing out first.
    assert _int_rational_roots([0, 0, 12, -10, 2]) == [0, 2, 3]
    assert _int_rational_roots([-6, 0, 4]) == []
    assert _int_rational_roots([5]) == []
    P = 3 * X ** 4 - 24 * X
    assert _int_rational_roots([0, -24, 0, 0, 3]) == rational_roots(P)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.lists(st.integers(-2 ** 70, 2 ** 70), min_size=1, max_size=8),
       st.lists(st.integers(-2 ** 70, 2 ** 70), min_size=1, max_size=8))
def test_int_mul_matches_unipoly_product(a, b):
    got = _int_mul(a, b)
    assert len(got) == len(a) + len(b) - 1
    assert UniPoly.from_coeffs(got) == (UniPoly.from_coeffs(a)
                                        * UniPoly.from_coeffs(b))


def test_rational_roots_large_coefficients():
    # Outer coefficients far beyond the factoring cutoff force the
    # Hensel-lifting path.
    K = 2 ** 305 + 7
    P = (X - 1) * (3 * X + 2) * (K * X ** 2 + (K + 1) * X + K)
    assert P.leading().numerator.bit_length() > 300
    assert rational_roots(P) == [Fraction(-2, 3), 1]


def test_rational_roots_recovers_a_root_of_large_height():
    # A root of height about 1.1e12 next to a 305-bit cofactor: its
    # reconstruction needs a modulus far above any word-size prime.
    K = 2 ** 305 + 7
    a, b = 2 ** 40 + 15, 3 ** 20
    P = (b * X - a) * (K * X ** 2 + (K + 1) * X + K)
    assert rational_roots(P) == [Fraction(a, b)]


def test_resultant_linear():
    F = parse_bipoly("s - t")
    G = parse_bipoly("s + t")
    assert resultant(F, G, 0) == UniPoly.from_coeffs([0, 2])
    assert resultant(F, G, 1) == UniPoly.from_coeffs([0, -2])


def test_resultant_common_factor_vanishes():
    F = parse_bipoly("s - t")
    assert resultant(F, parse_bipoly("2*s - 2*t"), 0).is_zero()


def test_resultant_interpolated():
    # Degrees 4 and 3 in s and degree bound 3 * 4 + 4 * 3 = 24 in t:
    # every coefficient of the resultant is read off one evaluation.
    F = parse_bipoly("(s - t)^4")
    G = parse_bipoly("(s + t)^3")
    R = resultant(F, G, 0)
    assert R == 4096 * X ** 12


def test_resultant_degree_guard():
    with pytest.raises(ValueError, match="positive degree"):
        resultant(parse_bipoly("t + 1"), parse_bipoly("s"), 0)
