"""Root finding and resultants against sympy, an optional independent
oracle (installed in some environments, not a dependency)."""

import random
from fractions import Fraction

import pytest

from gl2tors.jmaps import named_jmap
from gl2tors.polynomial import BiPoly, rational_roots, resultant

sympy = pytest.importorskip("sympy")
s, t = sympy.symbols("s t")


def to_sympy(P: BiPoly):
    return sum(sympy.Rational(v.numerator, v.denominator) * s ** i * t ** j
               for (i, j), v in P.items())


def unipoly_coeffs(R):
    return [R.coeff(e) for e in range(R.degree + 1)]


def sympy_coeffs(expr, var):
    low_to_high = sympy.Poly(expr, var).all_coeffs()[::-1]
    return [Fraction(int(c.p), int(c.q)) for c in low_to_high]


def fiber(a, b):
    """The fiber equation of two named j-maps, as resultant-evidence
    builds it: a in s against b in t."""
    ma, mb = named_jmap(a), named_jmap(b)
    return (ma.num.to_bipoly(0) * mb.den.to_bipoly(1)
            - mb.num.to_bipoly(1) * ma.den.to_bipoly(0))


@pytest.mark.parametrize("a, b, axis", [("2B", "9H0-9b", 0),
                                        ("no-9-isogeny", "2B", 1)])
def test_resultant_evidence_roots_are_the_sympy_linear_factors(a, b, axis):
    F = fiber(a, b)
    R = resultant(F, F.derivative(axis), axis)
    x = sympy.Symbol("x")
    expr = sum(sympy.Rational(c.numerator, c.denominator) * x ** e
               for e, c in enumerate(unipoly_coeffs(R)))
    _, factors = sympy.factor_list(expr)
    linear = sorted(Fraction(-c0, c1) for c1, c0 in
                    (tuple(int(c) for c in sympy.Poly(f, x).all_coeffs())
                     for f, _ in factors if sympy.degree(f, x) == 1))
    assert rational_roots(R) == linear


def test_resultant_evidence_resultant_matches_sympy():
    G = fiber("no-9-isogeny", "2B")
    R = resultant(G, G.derivative(1), 1)
    Gs = to_sympy(G)
    assert unipoly_coeffs(R) == sympy_coeffs(
        sympy.resultant(Gs, sympy.diff(Gs, t), t), s)


def random_bipoly(rng, deg):
    return BiPoly({(rng.randrange(deg + 1), rng.randrange(deg + 1)):
                   Fraction(rng.randint(-9, 9), rng.randint(1, 4))
                   for _ in range(5)})


@pytest.mark.parametrize("seed", range(6))
def test_random_resultants_match_sympy(seed):
    rng = random.Random(seed)
    axis = seed % 2
    v = BiPoly.variable(axis)
    F = random_bipoly(rng, 3) + v ** 4
    G = random_bipoly(rng, 2) * v + Fraction(rng.randint(1, 9), 2)
    R = resultant(F, G, axis)
    elim, kept = (s, t) if axis == 0 else (t, s)
    want = sympy.resultant(to_sympy(F), to_sympy(G), elim)
    got = unipoly_coeffs(R)
    assert got == (sympy_coeffs(want, kept) if want != 0 else [])
