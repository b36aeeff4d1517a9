"""Elliptic curves over Q: invariants, point counts, mod-n image evidence,
and rational torsion.

Curves are long Weierstrass models [a1, a2, a3, a4, a6] with rational
coefficients. Each curve computes its integral model once, when it is
built: the scale u (lcm of the denominators), the integers u^i * a_i,
their b2, b4, b6, b8 and the integer discriminant u^12 * disc.
curve_invariants hands these integers on; its Fraction b, c invariants,
disc and j are divided out by powers of u only when they are read.

The curve polynomials (the 2-division cubic, psi_3 and f(4), from which
the division-polynomial recursion builds the rest) are integer
coefficient lists in B2, B4, B6, B8, each written once. Point counts sum
a quadratic character over the cubic of the integral model mod p (an
int64 table, or _form_mod for p < 2^31). The 2-torsion image, the
3-isogeny kernel and the torsion search move each list to the given
model's x = X / u^2 as a rational scale times a primitive integer list,
so every x-coordinate found lies on the given model, and a Fraction is
built only for each root found. Torsion is bounded by the gcd of a few
point counts and then read off the division polynomials.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from itertools import zip_longest
from math import gcd, lcm

import numpy as np

from .arith import is_probable_prime, is_square, next_prime
from .catalog import is_admissible_torsion
from .groups import GenGroup
from .modmat import code_det, code_trace
from .polynomial import (_eval_int_at, _form_mod, _int_mul,
                         _int_rational_roots, _mod)


@dataclass(frozen=True)
class CurveQ:
    """A nonsingular long Weierstrass model over Q."""

    a1: Fraction
    a2: Fraction
    a3: Fraction
    a4: Fraction
    a6: Fraction
    # Integral model (u, (A1, A2, A3, A4, A6), (b2, b4, b6, b8), disc): u
    # is the lcm of the denominators, A_i = u^i * a_i, and b2, b4, b6, b8
    # and disc are the integer invariants of the A_i (u^i times the
    # rational b_i, and disc = u^12 times the rational discriminant).
    _model: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        for name in ("a1", "a2", "a3", "a4", "a6"):
            v = getattr(self, name)
            if isinstance(v, int):
                object.__setattr__(self, name, Fraction(v))
            elif not isinstance(v, Fraction):
                raise TypeError(f"{name} must be rational")
        u = lcm(*(c.denominator for c in self.coefficients()))
        A1, A2, A3, A4, A6 = (c.numerator * (u ** i // c.denominator)
                              for c, i in zip(self.coefficients(),
                                              (1, 2, 3, 4, 6)))
        b2 = A1 * A1 + 4 * A2
        b4 = 2 * A4 + A1 * A3
        b6 = A3 * A3 + 4 * A6
        b8 = (A1 * A1 * A6 + 4 * A2 * A6 - A1 * A3 * A4 + A2 * A3 * A3
              - A4 * A4)
        disc = -b2 * b2 * b8 - 8 * b4 ** 3 - 27 * b6 * b6 + 9 * b2 * b4 * b6
        if disc == 0:
            raise ValueError("singular model: discriminant is zero")
        object.__setattr__(self, "_model", (u, (A1, A2, A3, A4, A6),
                                            (b2, b4, b6, b8), disc))

    def coefficients(self):
        return (self.a1, self.a2, self.a3, self.a4, self.a6)

    def __repr__(self) -> str:
        return "[" + ",".join(str(c) for c in self.coefficients()) + "]"


_RATIONAL = re.compile(r"[+-]?[0-9]+(/[0-9]+)?")


def parse_rational(text: str) -> Fraction:
    """Parse an integer or p/q written in ASCII digits, with an optional
    sign and surrounding whitespace. Exponent and decimal notation are
    rejected: Fraction('1e100000000') would compute 10**100000000 before
    any check could run."""
    s = text.strip()
    if not _RATIONAL.fullmatch(s):
        raise ValueError(f"expected an integer or p/q, got {s!r}")
    num, _, den = s.partition("/")
    if den and int(den) == 0:
        raise ValueError(f"zero denominator in {s!r}")
    return Fraction(int(num), int(den or 1))


def parse_curve(text: str) -> CurveQ:
    """Parse '[a1,a2,a3,a4,a6]' with integer or p/q entries."""
    s = text.strip()
    if not (s.startswith("[") and s.endswith("]")):
        raise ValueError(f"expected [a1,a2,a3,a4,a6], got {text!r}")
    parts = s[1:-1].split(",")
    if len(parts) != 5:
        raise ValueError(f"expected 5 coefficients, got {len(parts)}")
    return CurveQ(*map(parse_rational, parts))


@dataclass(frozen=True)
class Invariants:
    """A curve's invariants. The fields are the integers of its integral
    model (CurveQ._model): the scale u, and the b-invariants B2, B4, B6,
    B8 and the discriminant D of A_i = u^i * a_i. The standard b, c
    invariants, discriminant and j of the given model are Fractions read
    off them on first use: b_i = B_i / u^i, c_i = C_i / u^i and disc =
    D / u^12, where C4 and C6 are the c-invariants of the B_i."""

    u: int
    B2: int
    B4: int
    B6: int
    B8: int
    D: int

    @cached_property
    def b2(self) -> Fraction:
        return Fraction(self.B2, self.u ** 2)

    @cached_property
    def b4(self) -> Fraction:
        return Fraction(self.B4, self.u ** 4)

    @cached_property
    def b6(self) -> Fraction:
        return Fraction(self.B6, self.u ** 6)

    @cached_property
    def b8(self) -> Fraction:
        return Fraction(self.B8, self.u ** 8)

    @property
    def _C4(self) -> int:
        return self.B2 * self.B2 - 24 * self.B4

    @cached_property
    def c4(self) -> Fraction:
        return Fraction(self._C4, self.u ** 4)

    @cached_property
    def c6(self) -> Fraction:
        B2 = self.B2
        return Fraction(-B2 ** 3 + 36 * B2 * self.B4 - 216 * self.B6,
                        self.u ** 6)

    @cached_property
    def disc(self) -> Fraction:
        return Fraction(self.D, self.u ** 12)

    @cached_property
    def j(self) -> Fraction:
        return Fraction(self._C4 ** 3, self.D)


def curve_invariants(E: CurveQ) -> Invariants:
    """E's invariants, read off its integral model (see Invariants); the
    one place where this module reads them."""
    u, _, (b2, b4, b6, b8), disc = E._model
    return Invariants(u, b2, b4, b6, b8, disc)


def curve_Et(t) -> CurveQ:
    """The one-parameter family y^2 = x^3 - 3t(t^3-24)x + 2(t^6-36t^3+216),
    nonsingular away from t = 3 (where it degenerates)."""
    t = Fraction(t)
    if t == 3:
        raise ValueError("t = 3 gives a singular fiber")
    return CurveQ(0, 0, 0, -3 * t * (t ** 3 - 24),
                  2 * (t ** 6 - 36 * t ** 3 + 216))


def _below_2_31_guard(what: str, n: int) -> None:
    if n >= 2 ** 31:  # past the int64 contract of _form_mod
        raise ValueError(f"{what} must be below 2^31, got {n}")


def count_points(E: CurveQ, p: int) -> tuple[int, int]:
    """(#E(F_p) including the point at infinity, a_p = p + 1 - #E)."""
    _below_2_31_guard("p", p)
    if not is_probable_prime(p):
        raise ValueError(f"{p} is not prime")
    u, _, _, disc = E._model
    if u % p == 0:
        raise ValueError(f"p = {p} divides the scaling denominator")
    if disc % p == 0:
        raise ValueError(f"bad reduction at p = {p}")
    n, = _point_counts(E, [p])
    return n, p + 1 - n


# The curve polynomials are written once each, as low-to-high integer
# lists in X = u^2 x on the integral model, whose coefficient of X^k is a
# form of weight 2 (deg - k) in B2, B4, B6, B8 (B_i of weight i). The
# point counts evaluate them there; _on_given_model moves them to x.


def _two_division_cubic(inv: Invariants) -> list[int]:
    """G(X) = 4X^3 + B2 X^2 + 2 B4 X + B6 = psi_2^2, the discriminant in Y
    of the integral model's equation: (2Y + A1 X + A3)^2 = G(X) on it."""
    return [inv.B6, 2 * inv.B4, inv.B2, 4]


def _psi3(inv: Invariants) -> list[int]:
    """The 3-division polynomial 3X^4 + B2 X^3 + 3 B4 X^2 + 3 B6 X + B8."""
    return [inv.B8, 3 * inv.B6, 3 * inv.B4, inv.B2, 3]


def _on_given_model(P: list[int], u: int) -> tuple[int, int, list[int]]:
    """(n, d, Q) with u^(-2 deg P) * P(u^2 x) = n / d * Q(x): the curve
    polynomial P on the given model's x, as a reduced positive scale n / d
    times a primitive integer list Q with P's signs. At u = 1, Q is P
    divided by its content."""
    u2 = u * u
    return _scaled(1, u2 ** (len(P) - 1),
                   [c * u2 ** k for k, c in enumerate(P)])


def _scaled(n: int, d: int, P: list[int]) -> tuple[int, int, list[int]]:
    """n / d * P as (n', d', Q), with n' / d' reduced and Q = P divided
    by its content, for n, d > 0 and P nonzero."""
    c = gcd(*P)
    n *= c
    g = gcd(n, d)
    return n // g, d // g, [v // c for v in P]


def _cubic_fits_int64(cubic: list[int], N: int) -> bool:
    """Whether the 2-division cubic G is exact in int64 at every x < N:
    each Horner partial value there is below G at N with its coefficients
    made absolute, 4N^3 + |b2|N^2 + 2|b4|N + |b6|, and this asks that
    bound to be below 2^63 (N < 1.3 * 10^6 when the b_i are small)."""
    return _eval_int_at([abs(c) for c in cubic], N, 1) < 2 ** 63


def _point_counts(E: CurveQ, primes) -> list[int]:
    """#E(F_p), the point at infinity included, for each prime p in
    primes, every one of them good for E."""
    _, (a1, a2, a3, a4, a6), _, _ = E._model
    # #E = p + 1 + sum over x of chi(G(x)), G the 2-division cubic. chi is
    # 1 on the nonzero squares, which the h^2 with h <= p/2 already give,
    # and -1 on the other nonzero values, so the sum is twice the number
    # of nonzero square values less the number of nonzero values.
    # The x and their squares h^2 are built once, up to the largest prime
    # N; G is tabulated there too where _cubic_fits_int64, and otherwise
    # _form_mod evaluates it at the x < p (one reduction for p <= 46,341).
    cubic = _two_division_cubic(curve_invariants(E))
    N = max(primes, default=0)
    xs = np.arange(N, dtype=np.int64)
    H = xs[:N // 2 + 1] ** 2
    G = _eval_int_at(cubic, xs, 1) if _cubic_fits_int64(cubic, N) else None
    counts = []
    for p in primes:
        if p == 2:  # the affine points (x, y) of the integral model mod 2
            counts.append(1 + sum(
                (y * y + a1 * x * y + a3 * y) % 2
                == (x ** 3 + a2 * x * x + a4 * x + a6) % 2
                for x in (0, 1) for y in (0, 1)))
            continue
        g = _form_mod(cubic, xs[:p], 1, p) if G is None else _mod(G[:p], p)
        square = np.zeros(p, dtype=bool)
        square[_mod(H[:p // 2 + 1], p)] = True
        square[0] = False
        counts.append(p + 1 + 2 * int(np.count_nonzero(square[g]))
                      - int(np.count_nonzero(g)))
    return counts


def _prime_range(bound: int) -> list[int]:
    sieve = np.ones(bound + 1, dtype=bool)
    sieve[:2] = False
    for i in range(2, int(bound ** 0.5) + 1):
        if sieve[i]:
            sieve[i * i:: i] = False
    return np.flatnonzero(sieve).tolist()


@dataclass(frozen=True)
class FrobSignature:
    """Observed (trace, det) classes mod ell over good primes up to a
    bound, with multiplicities and the first prime realizing each."""

    ell: int
    bound: int
    counts: dict
    first_prime: dict
    skipped: int  # primes <= bound dividing ell or the discriminant

    @property
    def classes(self) -> frozenset:
        return frozenset(self.counts)

    @property
    def primes(self) -> int:
        """The number of good primes sampled."""
        return sum(self.counts.values())


def _good_primes(E: CurveQ, ell: int, low: int,
                 bound: int) -> tuple[list[int], int]:
    """(good, passed_over) over the primes p with low < p <= bound: good
    lists those that Frobenius sampling counts, which divide neither the
    level nor the integral discriminant, and passed_over counts the
    others. A prime dividing the scaling denominator u divides that
    discriminant too: if p | u, then v_p(A_i) >= (i - 1) v_p(u), so p
    divides A2, A3, A4 and A6, hence b4, b6 and b8, and disc = -b2^2 b8
    - 8 b4^3 - 27 b6^2 + 9 b2 b4 b6 is 0 mod p."""
    bad = ell * E._model[3]
    primes = [p for p in _prime_range(bound) if p > low]
    good = [p for p in primes if bad % p]
    return good, len(primes) - len(good)


def frobenius_signature(E: CurveQ, ell: int, bound: int) -> FrobSignature:
    """Sample (a_p mod ell, p mod ell) over the good primes p <= bound of
    `_good_primes`, counting the others as skipped."""
    if ell not in (2, 3, 9):
        raise ValueError(f"level must be 2, 3 or 9, got {ell}")
    if bound < 20:
        raise ValueError(f"prime bound must be >= 20, got {bound}")
    _below_2_31_guard("prime bound", bound)
    return _extend(E, FrobSignature(ell, 0, {}, {}, 0), bound)


def _extend(E: CurveQ, sig: FrobSignature, bound: int) -> FrobSignature:
    """sig, a signature of E at a bound no larger than bound, extended to
    bound: only the good primes above sig.bound are counted, and the
    result equals frobenius_signature(E, sig.ell, bound)."""
    ell = sig.ell
    counts, first = dict(sig.counts), dict(sig.first_prime)
    good, passed_over = _good_primes(E, ell, sig.bound, bound)
    for p, n in zip(good, _point_counts(E, good)):
        cls = ((p + 1 - n) % ell, p % ell)
        counts[cls] = counts.get(cls, 0) + 1
        first.setdefault(cls, p)
    return FrobSignature(ell, bound, dict(sorted(counts.items())),
                         dict(sorted(first.items())),
                         sig.skipped + passed_over)


def group_class_set(H: GenGroup) -> frozenset:
    """(trace, det) classes of <H, -I>, the coarsest Frobenius-visible
    invariant of H up to the quadratic twist ambiguity. -I is central, so
    <H, -I> is H together with -H, and -g has class (-tr g, det g)."""
    n = H.modulus
    classes = {(code_trace(c, n), code_det(c, n)) for c in H.element_codes}
    return frozenset(classes | {(-t % n, d) for t, d in classes})


@dataclass(frozen=True)
class IdentifyResult:
    """Containment filtering of candidate images against observed classes.

    A candidate is eliminated when some observed class falls outside its
    class set (rigorous, up to twist); survivors are merely consistent
    with the data. uncovered maps each survivor to the classes it allows
    that were never observed. primes and skipped count the good primes
    up to bound and the bad ones passed over (see FrobSignature);
    sampled counts the good primes that were point-counted, which is
    fewer than primes when every class was seen before the bound."""

    ell: int
    bound: int
    observed: frozenset
    survivors: tuple[str, ...]
    eliminated: tuple[tuple[str, int, tuple], ...]
    uncovered: dict
    primes: int
    skipped: int
    sampled: int


# identify_image samples the primes up to _FIRST_BOUND, then up to
# _GROWTH times that, and so on up to its bound, and stops once every
# (trace, det) class mod ell has been seen.
_FIRST_BOUND = 64
_GROWTH = 4


def _saturated_signature(E: CurveQ, ell: int, bound: int) -> FrobSignature:
    """frobenius_signature(E, ell, b) at the first b of the schedule where
    all ell * phi(ell) classes (a_p mod ell, p mod ell) occur, or at b =
    bound. The first step is frobenius_signature and each later one
    `_extend`s the last one's signature, so every good prime up to b is
    counted once; once no class is missing no later prime can add a
    class or an earlier first prime: the classes and first primes equal
    those at the full bound."""
    b = min(bound, _FIRST_BOUND)
    sig = frobenius_signature(E, ell, b)
    every_class = ell * sum(gcd(d, ell) == 1 for d in range(ell))
    while len(sig.counts) < every_class and b < bound:
        b = min(bound, b * _GROWTH)
        sig = _extend(E, sig, b)
    return sig


def identify_image(E: CurveQ, ell: int, candidates,
                   bound: int) -> IdentifyResult:
    """Filter candidate mod-ell images by Frobenius class containment."""
    _below_2_31_guard("prime bound", bound)
    cands = list(candidates)
    if not cands:
        raise ValueError("empty candidate list")
    for H in cands:
        if H.modulus != ell:
            raise ValueError(
                f"candidate {H.label!r} has level {H.modulus}, not {ell}")
    sig = _saturated_signature(E, ell, bound)
    # The primes above the sampled bound are sorted into good and bad
    # without a point count.
    tail, tail_skipped = _good_primes(E, ell, sig.bound, bound)
    survivors = []
    eliminated = []
    uncovered = {}
    for H in cands:
        allowed = group_class_set(H)
        bad = sorted(c for c in sig.classes if c not in allowed)
        if bad:
            c = min(bad, key=lambda c: sig.first_prime[c])
            eliminated.append((H.label, sig.first_prime[c], c))
        else:
            survivors.append(H.label)
            uncovered[H.label] = tuple(sorted(allowed - sig.classes))
    return IdentifyResult(ell, bound, sig.classes, tuple(survivors),
                          tuple(eliminated), uncovered,
                          sig.primes + len(tail), sig.skipped + tail_skipped,
                          sig.primes)


def two_torsion_image(E: CurveQ) -> str:
    """Galois image on E[2] by factoring the 2-division cubic
    4x^3 + b2 x^2 + 2 b4 x + b6 of the given model: '2Cs' (split), '2B'
    (one root), '2Cn' (irreducible, square discriminant), or 'GL2(F2)'.
    The cubic's discriminant is 16 * disc E, a square exactly when the
    integral model's D = u^12 * disc E is."""
    inv = curve_invariants(E)
    _, _, cubic = _on_given_model(_two_division_cubic(inv), inv.u)
    nroots = len(_int_rational_roots(cubic))
    if nroots == 3:
        return "2Cs"
    if nroots == 1:
        return "2B"
    return "2Cn" if is_square(inv.D) else "GL2(F2)"


def rational_3isogeny_kernel(E: CurveQ) -> list[Fraction]:
    """x-coordinates of rational order-3 points: rational roots of psi_3
    on the given model."""
    inv = curve_invariants(E)
    return _int_rational_roots(_on_given_model(_psi3(inv), inv.u)[2])


# The thirteen j-invariants of CM curves over Q.
CM_J = frozenset(Fraction(v) for v in (
    0, 54000, -12288000, 1728, 287496, -3375, 16581375, 8000, -32768,
    -884736, -884736000, -147197952000, -262537412640768000))


def is_cm_j(j) -> bool:
    """Whether j is one of the thirteen rational CM j-invariants."""
    return Fraction(j) in CM_J


# Good primes whose point counts bound the torsion, and the largest
# power of each prime that Mazur's theorem allows in the exponent of
# E(Q)_tors; any other prime dividing the bound is ruled out.
_TORSION_PRIMES = 6
_MAZUR_PRIME_POWERS = {2: 8, 3: 9, 5: 5, 7: 7}


def _torsion_bound(E: CurveQ) -> int:
    """gcd of #E(F_p) over up to _TORSION_PRIMES good primes p >= 3,
    stopping at 1. E(Q)_tors injects into each E(F_p), so its order
    divides the result. Good means prime to the integral discriminant,
    which every prime dividing u divides too (see _good_primes)."""
    bad = E._model[3]
    n = 0
    good = 0
    p = 2
    while good < _TORSION_PRIMES and n != 1:
        p = next_prime(p)
        if bad % p:
            n = gcd(n, count_points(E, p)[0])
            good += 1
    return n


def _times(*factors):
    """The product of scaled lists (n, d, P), each n / d * P(x) with P
    primitive: a product of primitive lists is primitive (Gauss's lemma),
    so only the scale is reduced."""
    n, d, P = factors[0]
    for fn, fd, F in factors[1:]:
        n, d, P = n * fn, d * fd, _int_mul(P, F)
    g = gcd(n, d)
    return n // g, d // g, P


def _minus(a, b):
    """a - b for scaled lists (n, d, P): one lcm of the denominators, then
    _scaled's one content pass. In the recursion of _division_polys both
    terms have the degree of the difference, and their leading
    coefficients, constants times powers of u, never cancel."""
    (an, ad, A), (bn, bd, B) = a, b
    d = lcm(ad, bd)
    ka, kb = an * (d // ad), bn * (d // bd)
    g = gcd(ka, kb)
    ka, kb = ka // g, kb // g
    return _scaled(g, d, [ka * x - kb * y
                          for x, y in zip_longest(A, B, fillvalue=0)])


def _division_polys(inv: Invariants):
    """f(n): the x-only n-division polynomial of the curve with invariants
    inv, psi_n for odd n and psi_n / psi_2 for even n (Silverman, AEC,
    Ex. 3.7), on the given model as a scaled list (a, b, Q): f(n) = a / b
    * Q(x), with a / b > 0 and Q a primitive integer list. Its roots are
    the x-coordinates of the points P with nP = 0 and 2P != 0, so the
    2-division cubic is never zero at one of them."""
    u, B2, B4, B6, B8 = inv.u, inv.B2, inv.B4, inv.B6, inv.B8
    cubic = _on_given_model(_two_division_cubic(inv), u)
    g2 = _times(cubic, cubic)  # psi_2^4
    one = (1, 1, [1])
    memo = {1: one, 2: one, 3: _on_given_model(_psi3(inv), u),
            4: _on_given_model([B4 * B8 - B6 * B6, B2 * B8 - B4 * B6,
                                10 * B8, 10 * B6, 5 * B4, B2, 2], u)}

    def f(n: int):
        if n not in memo:
            m = n // 2
            if n % 2 == 0:
                memo[n] = _times(f(m), _minus(
                    _times(f(m + 2), f(m - 1), f(m - 1)),
                    _times(f(m - 2), f(m + 1), f(m + 1))))
            else:
                a = _times(f(m + 2), f(m), f(m), f(m))
                b = _times(f(m - 1), f(m + 1), f(m + 1), f(m + 1))
                memo[n] = (_minus(_times(g2, a), b) if m % 2 == 0
                           else _minus(a, _times(g2, b)))
        return memo[n]
    return f


def torsion_over_Q(E: CurveQ):
    """Torsion structure of E(Q): (m,) for cyclic C_m, (2, 2k) for
    C2 x C2k.

    The order divides the reduction bound N of _torsion_bound, so N = 1
    ends the search. Otherwise the q-part for each prime q | N is
    E(Q)[q^e], where q^e is the largest power of q dividing N within
    Mazur's cap: the 2-torsion from the rational roots of the 2-division
    cubic, plus two points for each rational root x of the division
    polynomial f(q^e) at which that cubic is a rational square. The
    powers q, q^2, ... are tried in turn, and the first that adds no
    point ends the q-part."""
    N = _torsion_bound(E)
    if N == 1:
        return (1,)
    inv = curve_invariants(E)
    n_c, d_c, cubic = _on_given_model(_two_division_cubic(inv), inv.u)
    two_roots = _int_rational_roots(cubic)
    f = _division_polys(inv)

    def killed_by(k: int) -> int:
        """#E(Q)[k], for k a prime power."""
        size = 1 + len(two_roots) if k % 2 == 0 else 1
        if k > 2:
            for r in _int_rational_roots(f(k)[2]):
                # The cubic at r = p/q is n_c / d_c * V / q^3, with V =
                # q^3 cubic(p/q): a rational square iff n_c d_c V q is
                # the square of an integer.
                p, q = r.numerator, r.denominator
                if is_square(n_c * d_c * _eval_int_at(cubic, p, q) * q):
                    size += 2
        return size

    n = 1
    for q, cap in _MAZUR_PRIME_POWERS.items():
        size, k = 1, q
        while N % k == 0 and k <= cap:
            more = killed_by(k)
            if more == size:
                break
            size, k = more, k * q
        n *= size
    if len(two_roots) == 3:
        if n % 4 != 0:
            raise AssertionError(f"full 2-torsion in a group of order {n}")
        structure = (2, n // 2)
    else:
        structure = (n,)
    if not is_admissible_torsion(structure, 1):
        raise AssertionError(f"impossible torsion {structure}")
    return structure
