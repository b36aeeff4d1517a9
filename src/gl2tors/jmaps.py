"""Named j-maps, fiber-product curves, and exact bounded-height searches.

Heights are measured on p/q in lowest terms as max(|p|, q); a height-H
search sweeps the full grid of such rationals. Searches are exhaustive
within the grid and are reported as evidence, never as completeness
proofs.

The searches evaluate in integers: a polynomial of degree d at x = p/q
is taken as q^d * P(p/q) by homogenised Horner on its integer model.
`jmap_eval` builds one Fraction, the value. `search_plane` gives each
point of the `farey_fractions` grid one key per map, its value modulo a
prime (or the prime itself for "infinity"), by polynomial._form_mod on
the (p, q) arrays, and joins the keys; it calls `jmap_eval` only where a
denominator vanishes modulo the prime and to confirm each match, and its
docstring says why no point is missed. `fiber_points` returns the same
points with the j-values that confirmation found. Every square test
(`search_hyperelliptic`, a zero discriminant included, and both forms of
`zeta3_descent_search`) is `_square_points`, which takes one of two
paths over the whole grid, and the hits are sorted by `_grid_key`.
When H^e * sum |C[i]| < 2^62, every Horner partial value of the form
fits in int64: `_eval_int_at` runs once on the grid arrays, and an
integer square root from float64, corrected in int64, decides every
point. Above that bound the sieve runs first, _form_mod evaluating the
form modulo 64 * 63 * 65 * 11 and keeping the points whose value is a
square modulo each of 64, 63, 65 and 11. A non-square modulo some m is
not a square, so the sieve drops only points the exact test would
reject; an `isqrt` on the exact integer decides every survivor.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from fractions import Fraction
from math import isqrt

import numpy as np

from .polynomial import (BiPoly, UniPoly, _eval_int_at, _form_mod, _frac,
                         _grid_arrays, _grid_key, _sorted_grid_arrays,
                         farey_fractions, poly_gcd)


class _Pole:
    """Sentinel for evaluation at a zero of the denominator."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "pole"


POLE = _Pole()


def _scaled_int(P: UniPoly) -> tuple[Fraction, list[int]]:
    """(c, C) with P = c * C, C a primitive integer coefficient list, low
    to high; the zero polynomial gives (0, [0])."""
    if P.is_zero():
        return Fraction(0), [0]
    return P._content(), P.integer_coeffs()


@dataclass(frozen=True)
class JMap:
    """A rational function num/den in one variable, in lowest terms."""

    label: str
    num: UniPoly
    den: UniPoly
    # Integer model (a, N, b, D): num/den = (a*N)/(b*D) with N and D
    # primitive integer coefficient lists padded to one common length.
    _model: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.den.is_zero():
            raise ValueError("zero denominator")
        g = poly_gcd(self.num, self.den)
        if g.degree > 0:
            raise ValueError(
                f"num and den share the factor {g!r}; reduce first")
        cn, N = _scaled_int(self.num)
        cd, D = _scaled_int(self.den)
        ratio = cn / cd
        width = max(len(N), len(D))
        object.__setattr__(self, "_model", (
            ratio.numerator, N + [0] * (width - len(N)),
            ratio.denominator, D + [0] * (width - len(D))))

    def __call__(self, x):
        return jmap_eval(self, x)


def jmap_eval(m: JMap, x) -> Fraction | _Pole:
    """Value of the map at x; POLE when the denominator vanishes there."""
    x = _frac(x)
    p, q = x.numerator, x.denominator
    a, N, b, D = m._model
    d = _eval_int_at(D, p, q)
    if d == 0:
        return POLE
    return Fraction(a * _eval_int_at(N, p, q), b * d)


X = UniPoly.x()

# Each map is assembled from its factored form; construction arithmetic
# is the only source of the expanded coefficients.
_JMAPS = {
    "2B": JMap("2B", 256 * (X + 1) ** 3, X),
    "3Cs.1.1": JMap(
        "3Cs.1.1",
        27 * (X + 1) ** 3 * (X + 3) ** 3 * (X ** 2 + 3) ** 3,
        X ** 3 * (X ** 2 + 3 * X + 3) ** 3),
    "9B0-9a": JMap(
        "9B0-9a",
        (X + 3) ** 3 * (X ** 3 + 9 * X ** 2 + 27 * X + 3) ** 3,
        X * (X ** 2 + 9 * X + 27)),
    "9H0-9b": JMap(
        "9H0-9b",
        (X ** 3 - 3 * X ** 2 - 9 * X + 3) ** 3
        * (X ** 3 + 9 * X ** 2 - 9 * X - 9) ** 3
        * (X ** 6 - 18 * X ** 5 + 171 * X ** 4 + 180 * X ** 3
           - 297 * X ** 2 - 162 * X + 189) ** 3,
        8 * (X ** 2 - 1) ** 3 * (X ** 2 + 3) ** 9
        * (X ** 3 - 9 * X ** 2 - 9 * X + 9) ** 3),
    "no-9-isogeny": JMap(
        "no-9-isogeny",
        (X + 3) * (X ** 2 - 3 * X + 9) * (X ** 3 + 3) ** 3,
        X ** 3),
    "Et": JMap("Et", X ** 3 * (X ** 3 - 24) ** 3, X ** 3 - 27),
}

JMAP_LABELS = tuple(sorted(_JMAPS))


def named_jmap(label: str) -> JMap:
    """One of the six built-in maps; see JMAP_LABELS."""
    if label not in _JMAPS:
        raise ValueError(f"unknown j-map {label!r}; expected one of "
                         f"{', '.join(JMAP_LABELS)}")
    return _JMAPS[label]


@dataclass(frozen=True)
class PlaneCurve:
    """The fiber curve F(s, t) = 0 of two j-maps jmap_s and jmap_t; the
    pole loci (denominator zero sets) are part of the curve."""

    jmap_s: JMap
    jmap_t: JMap

    @property
    def label(self) -> str:
        return f"fiber({self.jmap_s.label},{self.jmap_t.label})"

    @functools.cached_property
    def F(self) -> BiPoly:
        """num_s(s)*den_t(t) - num_t(t)*den_s(s), primitive; built on the
        first read, since the search reads only the maps."""
        a, b = self.jmap_s, self.jmap_t
        return (a.num.to_bipoly(0) * b.den.to_bipoly(1)
                - b.num.to_bipoly(1) * a.den.to_bipoly(0)).primitive()


def fiber_curve(a: JMap, b: JMap) -> PlaneCurve:
    """The curve num_a(s)*den_b(t) - num_b(t)*den_a(s) = 0 whose points
    off the pole loci are pairs with equal j-value."""
    return PlaneCurve(a, b)


@dataclass(frozen=True)
class FiberPoint:
    """A rational point on a fiber curve, classified (see fiber_points)."""

    s: Fraction
    t: Fraction
    kind: str  # "finite" or "pole"
    j: Fraction | None


# The prime of search_plane's residue keys. It is below 2^30, so each
# product of two residues is below 2^60 and int64 never overflows.
_PRIME = 1_000_000_007


def search_plane(curve: PlaneCurve, height: int) -> list[tuple]:
    """All grid points (s, t) with F(s, t) = 0, sorted: the pairs with
    j_s(s) = j_t(t), and every pair of poles.

    Each map is keyed on the grid modulo the prime P = _PRIME, each grid
    point by one key in [0, P], and the keys are joined. Where b*D(p, q)
    is a unit mod P, the key is a*N(p, q) / (b*D(p, q)) mod P; elsewhere
    `jmap_eval` gives the exact value v, keyed v mod P when P does not
    divide den v, and P ("infinity mod P") when it does, or at a pole.
    Every match of keys is confirmed by exact `jmap_eval` equality, so a
    collision adds no point; POLE equals itself and no Fraction.

    No point is missed. Let j(s) = j(t) = v. If P does not divide den v,
    both keys are v mod P, whichever branch gave them. If P divides
    den v, then P divides b*D at both points, since den v divides it, so
    both are keyed P, as two poles are. A grid point on F = 0 with a pole
    on one side has a pole on the other too, since num and den are
    coprime."""
    return [(s, t) for s, t, _ in _fiber_matches(curve, height)]


def fiber_points(curve: PlaneCurve, height: int) -> list[FiberPoint]:
    """The points of search_plane, in its order, each with the j-value
    the search confirmed: kind "finite" with j, or "pole" with j None."""
    return [FiberPoint(s, t, "pole", None) if v is POLE
            else FiberPoint(s, t, "finite", v)
            for s, t, v in _fiber_matches(curve, height)]


def _fiber_matches(curve: PlaneCurve, height: int) -> list[tuple]:
    """The sorted (s, t, v) of search_plane, v = j_s(s) = j_t(t) or POLE."""
    grid = farey_fractions(height)
    p, q = _sorted_grid_arrays(height)
    ks = _residue_keys(curve.jmap_s, p, q)
    kt = _residue_keys(curve.jmap_t, p, q)
    j_s = functools.cache(lambda i: jmap_eval(curve.jmap_s, grid[i]))
    j_t = functools.cache(lambda j: jmap_eval(curve.jmap_t, grid[j]))
    # The grid ascends, so index order is value order.
    pairs = sorted((i, j) for i, j in _key_matches(ks, kt)
                   if j_s(i) == j_t(j))
    return [(grid[i], grid[j], j_s(i)) for i, j in pairs]


def _residue_keys(m: JMap, p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """The key in [0, P], P = _PRIME, of m at each grid point p/q (see
    search_plane)."""
    P = _PRIME
    a, N, b, D = m._model
    n = _form_mod([a * c for c in N], p, q, P)
    d = _form_mod([b * c for c in D], p, q, P)
    inv, base, e = np.ones_like(d), d, P - 2  # d^(P - 2) = 1/d (Fermat)
    while e:
        if e & 1:
            inv = inv * base % P
        base = base * base % P
        e >>= 1
    keys = n * inv % P
    for i in np.flatnonzero(d == 0).tolist():
        v = jmap_eval(m, Fraction(int(p[i]), int(q[i])))
        keys[i] = P
        if v is not POLE and v.denominator % P:
            keys[i] = v.numerator * pow(v.denominator, -1, P) % P
    return keys


def _key_matches(ks: np.ndarray, kt: np.ndarray) -> list[tuple[int, int]]:
    """Every index pair (i, j) with ks[i] == kt[j]."""
    order = np.argsort(ks)
    sorted_ks = ks[order]
    lo = np.searchsorted(sorted_ks, kt, "left")
    count = np.searchsorted(sorted_ks, kt, "right") - lo
    # Run k of the output holds s-positions lo[k], ..., lo[k] + count[k] - 1.
    start = np.repeat(lo - (np.cumsum(count) - count), count)
    i = order[start + np.arange(count.sum())]
    return list(zip(i.tolist(), np.repeat(np.arange(kt.size), count).tolist()))


def search_hyperelliptic(h: UniPoly, f: UniPoly,
                         height: int) -> list[tuple]:
    """Rational points (x, y) with y^2 + h(x)*y = f(x), x on the height
    grid, found by exact square testing of the completed square.

    With disc = h^2 + 4f = (a/b) * P, P primitive of degree d and e the
    even number d or d + 1, disc(p/q) is a rational square exactly when
    a*b * q^e * P(p/q) is an integer square; a zero disc has a = 0, so
    every grid point is a hit."""
    ch, H = _scaled_int(h)
    scale, P = _scaled_int(h * h + 4 * f)
    b = scale.denominator
    if len(P) % 2 == 0:
        P.append(0)  # odd degree d: evaluate at degree e = d + 1
    half = (len(P) - 1) // 2
    LP = [scale.numerator * b * c for c in P]
    out = []
    for p, q, r in sorted(_square_points(LP, height),
                          key=lambda hit: _grid_key(hit[0], hit[1], height)):
        # y = (-h(x) -+ r / E) / 2 with h(x) = A / D, as one Fraction each.
        A = ch.numerator * _eval_int_at(H, p, q)
        D = ch.denominator * q ** (len(H) - 1)
        E = b * q ** half
        x = Fraction(p, q)
        out.append((x, Fraction(-A * E - r * D, 2 * D * E)))
        if r:
            out.append((x, Fraction(-A * E + r * D, 2 * D * E)))
    return out


# An integer that is a non-square modulo some m is not a square.
# _SQUARES[m][r] says whether r is a square modulo m; together the four
# moduli pass about 1 residue in 119 modulo their product. That holds for
# uniform residues only: the values of real forms pass 6-9% of the grid
# (6.4% for 4q(p^3 + q^3) at H = 1000).
_SQUARES = {m: np.isin(np.arange(m), np.arange(m) ** 2 % m)
            for m in (64, 63, 65, 11)}
_SIEVE_M = 64 * 63 * 65 * 11


def _sieved_points(C: list[int], height: int) -> list[tuple[int, int]]:
    """The (p, q) of the height grid, in no order, at which the integer
    form sum C[i] p^i q^(e - i), e = len(C) - 1, is a square modulo each
    of 64, 63, 65 and 11; every point where it is a square is among them.

    The form is evaluated modulo M = 64 * 63 * 65 * 11 by _form_mod."""
    p, q = _grid_arrays(height)
    acc = _form_mod(C, p, q, _SIEVE_M)
    keep = np.ones(p.shape, dtype=bool)
    for m, square in _SQUARES.items():
        keep &= square[acc % m]
    return list(zip(p[keep].tolist(), q[keep].tolist()))


def _square_points(C: list[int], height: int) -> list[tuple[int, int, int]]:
    """The (p, q, r) of the height grid, in no order, at which the integer
    form sum C[i] p^i q^(e - i) equals r^2 with r >= 0.

    When H^e * sum |C[i]| < 2^62, every Horner partial value of the form
    on the grid is below that bound, so one int64 pass over the whole
    grid is exact: r = floor(sqrt(max(v, 0))) from float64, corrected by
    one step each way in int64. Otherwise the sieve picks the points and
    the exact test runs on each of them."""
    if _eval_int_at([abs(c) for c in C], height, height) < 2 ** 62:
        p, q = _grid_arrays(height)
        v = np.broadcast_to(_eval_int_at(C, p, q), p.shape)
        r = np.sqrt(np.maximum(v, 0)).astype(np.int64)
        # The two steps make r the exact floor whatever the rounding of v
        # to float64 and of np.sqrt; v < 2^62 keeps r <= 2^31 and
        # (r + 1)^2 < 2^63.
        r -= r * r > v
        r += (r + 1) ** 2 <= v
        hit = r * r == v
        return list(zip(p[hit].tolist(), q[hit].tolist(), r[hit].tolist()))
    out = []
    for p, q in _sieved_points(C, height):
        v = _eval_int_at(C, p, q)
        r = isqrt(v) if v > 0 else 0
        if r * r == v:
            out.append((p, q, r))
    return out


@dataclass(frozen=True)
class DescentHit:
    """A parameter found by one of the two square conditions, flagged."""

    t: Fraction
    case: str  # "b=0" or "a=0"
    flag: str  # "", "cm", or "excluded-singular"


def zeta3_descent_search(height: int) -> list[DescentHit]:
    """Parameters t where y^2 = t^3 - 27 forces y into Q(zeta_3) with
    2ab = 0: either y = a rational (t^3 - 27 square) or y = b*sqrt(-3)
    ((27 - t^3)/3 square). Singular t = 3 is flagged, as are the CM
    parameters t = 0 and t = -6.

    At t = p/q the conditions are that (p^3 - 27q^3)*q, respectively
    -3*(p^3 - 27q^3)*q, is an integer square."""
    # Low to high in p, with q making up degree 4.
    forms = (("a=0", [81, 0, 0, -3, 0]), ("b=0", [-27, 0, 0, 1, 0]))
    hits = sorted((_grid_key(p, q, height), case, p, q) for case, C in forms
                  for p, q, _ in _square_points(C, height))
    return [_flag_hit(Fraction(p, q), case) for _, case, p, q in hits]


def _flag_hit(t: Fraction, case: str) -> DescentHit:
    if t == 3:
        return DescentHit(t, case, "excluded-singular")
    if t in (0, -6):
        return DescentHit(t, case, "cm")
    return DescentHit(t, case, "")
