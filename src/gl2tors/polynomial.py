"""Exact polynomial arithmetic over Q in one and two variables.

UniPoly and BiPoly are immutable sparse maps from exponent keys to
nonzero Fractions. Their shared core _Poly holds all that does not
depend on the key shape: ==, hash, +, -, *, ** with int and Fraction
operands, and _content, the positive rational c with P / c a primitive
integer polynomial, which integer_coeffs, primitive and the integer
models of the resultant divide out.

Rational roots have one path, _int_rational_roots, on a low-to-high
integer coefficient list: the roots modulo the least usable small prime,
found by evaluation, are lifted by Newton's iteration until rational
reconstruction recovers all of them, and every candidate is verified
exactly; the candidates are the only Fractions built. rational_roots
runs it on the primitive integer model of a UniPoly, and elliptic hands
it its curve polynomials, integer lists multiplied by _int_mul.
Resultants of the integer models are read off the balanced base-2^B
digits of one value of the subresultant pseudo-remainder sequence, at
w = 2^B (Kronecker substitution). _pseudo_remainder is the one
remainder loop: the gcd runs the primitive PRS on it, the resultant the
subresultant PRS.

Integer forms sum C[i] p^i q^(e - i) have one evaluator each way:
_eval_int_at, the exact homogenised Horner (also on int64 arrays known
to fit), and _form_mod, the same Horner modulo m < 2^31 on int64 arrays,
for the search keys, the square sieve and the point counts of curves
too large for an int64 table, reducing by _mod only as int64 needs.
"""

from __future__ import annotations

import functools
import operator
import sys
from fractions import Fraction
from math import gcd, isqrt, lcm, prod

import numpy as np

from .arith import next_prime


_ZERO = Fraction(0)


def _frac(v) -> Fraction:
    if isinstance(v, Fraction):
        return v
    if isinstance(v, int):
        return Fraction(v)
    raise TypeError(f"expected int or Fraction, got {type(v).__name__}")


class _Poly:
    """A sparse map self._c from exponent keys to nonzero Fractions. A
    subclass validates keys in __init__ and sets ONE, the key of the
    constant term, and _add_keys, the key of a product of monomials."""

    __slots__ = ("_c",)

    @classmethod
    def constant(cls, v):
        return cls({cls.ONE: _frac(v)})

    def items(self):
        return sorted(self._c.items())

    def is_zero(self) -> bool:
        return not self._c

    def _coerce(self, other):
        if isinstance(other, (int, Fraction)):
            return self.constant(other)
        if isinstance(other, type(self)):
            return other
        return None

    def __eq__(self, other) -> bool:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self._c == o._c

    def __hash__(self) -> int:
        return hash(tuple(sorted(self._c.items())))

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        c = dict(self._c)
        for k, v in o._c.items():
            c[k] = c.get(k, _ZERO) + v
        return type(self)(c)

    __radd__ = __add__

    def __neg__(self):
        return type(self)({k: -v for k, v in self._c.items()})

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        add = self._add_keys
        c = {}
        for k1, v1 in self._c.items():
            for k2, v2 in o._c.items():
                k = add(k1, k2)
                c[k] = c.get(k, _ZERO) + v1 * v2
        return type(self)(c)

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if k < 0:
            raise ValueError("negative power")
        out = self.constant(1)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def _content(self) -> Fraction:
        """The positive rational c with self / c a primitive integer
        polynomial: the gcd of the numerators over the lcm of the
        denominators (0 for the zero polynomial)."""
        vs = self._c.values()
        return Fraction(gcd(*(v.numerator for v in vs)),
                        lcm(*(v.denominator for v in vs)))


class UniPoly(_Poly):
    """A univariate polynomial over Q, stored as {exponent: coefficient}."""

    __slots__ = ()
    ONE = 0
    _add_keys = operator.add

    def __init__(self, coeffs: dict[int, Fraction] | None = None):
        c = {}
        for e, v in (coeffs or {}).items():
            v = _frac(v)
            if v != 0:
                if e < 0:
                    raise ValueError(f"negative exponent {e}")
                c[e] = v
        self._c = c

    @classmethod
    def from_coeffs(cls, low_to_high) -> "UniPoly":
        return cls({e: _frac(v) for e, v in enumerate(low_to_high)})

    @classmethod
    def x(cls) -> "UniPoly":
        return cls({1: Fraction(1)})

    def coeff(self, e: int) -> Fraction:
        return self._c.get(e, _ZERO)

    @property
    def degree(self) -> int:
        """Degree, with the zero polynomial reported as -1."""
        return max(self._c) if self._c else -1

    def leading(self) -> Fraction:
        if not self._c:
            raise ValueError("zero polynomial has no leading coefficient")
        return self._c[max(self._c)]

    def __call__(self, x) -> Fraction:
        x, acc = _frac(x), _ZERO
        for e in range(self.degree, -1, -1):
            acc = acc * x + self._c.get(e, _ZERO)
        return acc

    def derivative(self) -> "UniPoly":
        return UniPoly({e - 1: v * e for e, v in self._c.items() if e > 0})

    def integer_coeffs(self) -> list[int]:
        """Primitive integer coefficient list, low to high, after clearing
        denominators and content. Sign of the leading term is preserved."""
        if self.is_zero():
            raise ValueError("zero polynomial")
        c = self._content()
        n, d = c.numerator, c.denominator
        ints = [0] * (self.degree + 1)
        for e, v in self._c.items():
            ints[e] = v.numerator * d // (v.denominator * n)
        return ints

    def to_bipoly(self, axis: int) -> "BiPoly":
        """Embed as a BiPoly depending only on variable 0 (s) or 1 (t)."""
        if axis == 0:
            return BiPoly({(e, 0): v for e, v in self._c.items()})
        return BiPoly({(0, e): v for e, v in self._c.items()})

    def __repr__(self) -> str:
        if self.is_zero():
            return "UniPoly(0)"
        parts = []
        for e, v in sorted(self._c.items(), reverse=True):
            parts.append(f"{v}*x^{e}" if e else f"{v}")
        return "UniPoly(" + " + ".join(parts) + ")"


class BiPoly(_Poly):
    """A polynomial in two variables s, t over Q: {(i, j): coefficient}."""

    __slots__ = ()
    ONE = (0, 0)

    @staticmethod
    def _add_keys(a, b):
        return (a[0] + b[0], a[1] + b[1])

    def __init__(self, coeffs: dict[tuple[int, int], Fraction] | None = None):
        c = {}
        for (i, j), v in (coeffs or {}).items():
            v = _frac(v)
            if v != 0:
                if i < 0 or j < 0:
                    raise ValueError(f"negative exponent ({i},{j})")
                c[(i, j)] = v
        self._c = c

    @classmethod
    def variable(cls, axis: int) -> "BiPoly":
        return cls({(1, 0) if axis == 0 else (0, 1): Fraction(1)})

    def degree(self, axis: int) -> int:
        if not self._c:
            return -1
        return max(k[axis] for k in self._c)

    def __call__(self, s, t) -> Fraction:
        s, t = _frac(s), _frac(t)
        acc = _ZERO
        for (i, j), v in self._c.items():
            acc += v * s ** i * t ** j
        return acc

    def derivative(self, axis: int) -> "BiPoly":
        c = {}
        for (i, j), v in self._c.items():
            e = (i, j)[axis]
            if e == 0:
                continue
            k = (i - 1, j) if axis == 0 else (i, j - 1)
            c[k] = c.get(k, _ZERO) + v * e
        return BiPoly(c)

    def primitive(self) -> "BiPoly":
        """Scale by a positive rational so coefficients are coprime
        integers; sign of the lexicographically leading term preserved."""
        if self.is_zero():
            return self
        c = self._content()
        return BiPoly({k: v / c for k, v in self._c.items()})

    def __repr__(self) -> str:
        if self.is_zero():
            return "BiPoly(0)"
        parts = []
        for (i, j), v in sorted(self._c.items(), reverse=True):
            parts.append(f"{v}*s^{i}*t^{j}")
        return "BiPoly(" + " + ".join(parts) + ")"


class PolyParseError(ValueError):
    pass


# A product or power parses only while terms * bits of its _product_size
# <= this: (x+1)^255 takes 0.2 s, (x+1)^3000 and 2^1000000000 over 10 s,
# eight factors (x+1)^255 14 s (2-core host, Py 3.11).
_MAX_POWER_SIZE = 1 << 16


def _product_size(*factors: tuple[_Poly, int]) -> tuple[int, int]:
    """Bounds on the terms of the product of P^e over the (P, e) factors
    and on the bits of each numerator and denominator in it: with
    P = Q / L, Q integral, the product of |Q|_1^e and of L^e."""
    degrees = {}
    bits = 1
    for P, e in factors:
        keys = [k if isinstance(k, tuple) else (k,) for k in P._c]
        for axis, d in enumerate(map(max, zip(*keys))):
            degrees[axis] = degrees.get(axis, 0) + e * d
        L = lcm(*(v.denominator for v in P._c.values()))
        norm = sum(abs(v.numerator) * L // v.denominator
                   for v in P._c.values())
        bits += e * (max(norm, L) - 1).bit_length()
    return prod(d + 1 for d in degrees.values()), bits


def _check_size(what: str, *factors: tuple[_Poly, int]) -> None:
    """Raise PolyParseError when the product of the factors is too large
    to expand."""
    terms, bits = _product_size(*factors)
    if terms * bits > _MAX_POWER_SIZE:
        raise PolyParseError(f"{what} too large: {terms} terms "
                             f"x {bits} bits > {_MAX_POWER_SIZE}")


def _tokenize(text: str):
    toks = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if "0" <= ch <= "9":
            j = i
            while j < len(text) and "0" <= text[j] <= "9":
                j += 1
            try:
                toks.append(("num", int(text[i:j]), i))
            except ValueError:  # past Python's limit on converted digits
                raise PolyParseError(
                    f"integer at position {i} too long: {j - i} digits > "
                    f"{sys.get_int_max_str_digits()}") from None
            i = j
            continue
        if ch.isalpha():
            j = i
            while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                j += 1
            toks.append(("name", text[i:j], i))
            i = j
            continue
        if ch in "+-*^()/":
            toks.append((ch, ch, i))
            i += 1
            continue
        raise PolyParseError(f"unexpected character {ch!r} at position {i}")
    return toks


class _Parser:
    """Recursive descent over +, -, *, ^ and rational literals a/b.

    '/' is only allowed between two integer literals; exponents are
    nonnegative integers. Multiplication is always explicit."""

    def __init__(self, toks, varmap):
        self.toks = toks
        self.pos = 0
        self.varmap = varmap

    def peek(self):
        return self.toks[self.pos] if self.pos < len(self.toks) else None

    def take(self, kind=None):
        tok = self.peek()
        if tok is None:
            raise PolyParseError("unexpected end of input")
        if kind is not None and tok[0] != kind:
            raise PolyParseError(
                f"expected {kind!r}, got {tok[1]!r} at position {tok[2]}")
        self.pos += 1
        return tok

    def parse(self):
        try:
            out = self.expr()
        except RecursionError:
            raise PolyParseError("expression nested too deeply") from None
        if self.peek() is not None:
            tok = self.peek()
            raise PolyParseError(
                f"trailing input {tok[1]!r} at position {tok[2]}")
        return out

    def expr(self):
        # A leading '-' is the unary minus of the first atom.
        out = self.term()
        while self.peek() and self.peek()[0] in "+-":
            op = self.take()[0]
            rhs = self.term()
            out = out + rhs if op == "+" else out - rhs
        return out

    def term(self):
        out = self.factor()
        while self.peek() and self.peek()[0] == "*":
            self.take()
            rhs = self.factor()
            _check_size("product", (out, 1), (rhs, 1))
            out = out * rhs
        return out

    def factor(self):
        base = self.atom()
        if self.peek() and self.peek()[0] == "^":
            self.take()
            e = self.take("num")[1]
            _check_size(f"power ^{e}", (base, e))
            base = base ** e
        return base

    def atom(self):
        tok = self.peek()
        if tok is None:
            raise PolyParseError("unexpected end of input")
        if tok[0] == "-":
            self.take()
            return -self.factor()
        if tok[0] == "num":
            self.take()
            num = tok[1]
            if self.peek() and self.peek()[0] == "/":
                self.take()
                den = self.take("num")[1]
                if den == 0:
                    raise PolyParseError("zero denominator in literal")
                return self.const(Fraction(num, den))
            return self.const(Fraction(num))
        if tok[0] == "name":
            self.take()
            if tok[1] not in self.varmap:
                raise PolyParseError(
                    f"unknown variable {tok[1]!r} at position {tok[2]}")
            return self.varmap[tok[1]]
        if tok[0] == "(":
            self.take()
            out = self.expr()
            self.take(")")
            return out
        raise PolyParseError(
            f"unexpected token {tok[1]!r} at position {tok[2]}")

    def const(self, v):
        sample = next(iter(self.varmap.values()))
        return type(sample).constant(v)


def parse_poly(text: str, var: str = "x") -> UniPoly:
    """Parse a univariate polynomial literal in the named variable."""
    return _Parser(_tokenize(text), {var: UniPoly.x()}).parse()


def parse_bipoly(text: str, vars: tuple[str, str] = ("s", "t")) -> BiPoly:
    """Parse a polynomial literal in two named variables."""
    varmap = {vars[0]: BiPoly.variable(0), vars[1]: BiPoly.variable(1)}
    return _Parser(_tokenize(text), varmap).parse()


def poly_gcd(A: UniPoly, B: UniPoly) -> UniPoly:
    """Monic gcd over Q, by a primitive pseudo-remainder sequence on the
    integer models of A and B."""
    a = _int_gcd([] if A.is_zero() else A.integer_coeffs(),
                 [] if B.is_zero() else B.integer_coeffs())
    if not a:
        return UniPoly()
    return UniPoly({e: Fraction(c, a[-1]) for e, c in enumerate(a)})


def _int_gcd(a: list[int], b: list[int]) -> list[int]:
    """A gcd in Z[x] of two low-to-high integer coefficient lists (empty
    for zero), up to sign and content."""
    while b:
        a, b = b, _primitive(_pseudo_remainder(a, b))
    return a


def _pseudo_remainder(a: list[int], b: list[int]) -> list[int]:
    """lead(b)^(deg a - deg b + 1) * (a mod b), or a if deg a < deg b, on
    low-to-high integer coefficient lists with b nonzero; trailing zeros
    are stripped. The power is exact, as the subresultant PRS of
    _int_resultant needs: each step multiplies by lead(b) once, even
    where the coefficient it clears is already zero."""
    r = list(a)
    lb = b[-1]
    for shift in range(len(a) - len(b), -1, -1):
        lr = r.pop()
        r = [c * lb for c in r]
        for i, c in enumerate(b[:-1]):
            r[shift + i] -= lr * c
    while r and r[-1] == 0:
        r.pop()
    return r


def _int_mul(a: list[int], b: list[int]) -> list[int]:
    """The product of two low-to-high integer coefficient lists."""
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def _primitive(c: list[int]) -> list[int]:
    g = gcd(*c)
    return [v // g for v in c] if g > 1 else c


_fraction = functools.lru_cache(maxsize=None)(Fraction)


def farey_fractions(height: int) -> list[Fraction]:
    """All rationals p/q in lowest terms with |p| <= height and
    1 <= q <= height, sorted ascending: _grid_arrays(height) ordered by
    _grid_key. Every call returns a new list, which the caller owns, but
    the Fractions in it are shared: each is built once, by a
    process-wide memo keyed on (p, q)."""
    p, q = _sorted_grid_arrays(height)
    return list(map(_fraction, p.tolist(), q.tolist()))


def _sorted_grid_arrays(height: int) -> tuple[np.ndarray, np.ndarray]:
    """The (p, q) of farey_fractions(height), in its order, as int64."""
    p, q = _grid_arrays(height)
    order = np.argsort(_grid_key(p, q, height))
    return p[order], q[order]


def _grid_key(p, q, height: int):
    """p * height^2 // q on ints or int64 arrays (exact while height^3 <
    2^63): distinct grid values differ by at least 1/height^2, since
    their denominators are at most height, so the key orders the grid."""
    return p * height ** 2 // q


def _grid_arrays(height: int) -> tuple[np.ndarray, np.ndarray]:
    """(p, q), two int64 arrays holding every coprime pair with |p| <=
    height and 1 <= q <= height once, in no order: the points of the
    height grid, with no Fraction built.

    A boolean mask over the (2 * height + 1) * height rectangle drops the
    pairs that some r in 2..height divides, one strided slice per r."""
    if height < 1:
        raise ValueError(f"height must be >= 1, got {height}")
    keep = np.ones((height, 2 * height + 1), dtype=bool)  # [q - 1, p + H]
    for r in range(2, height + 1):
        keep[r - 1::r, height % r::r] = False
    q, p = np.nonzero(keep)
    return (p.astype(np.int64, copy=False) - height,
            q.astype(np.int64, copy=False) + 1)


def rational_roots(P: UniPoly) -> list[Fraction]:
    """All rational roots of P, sorted, without multiplicity: those of
    its primitive integer model (_int_rational_roots)."""
    if P.is_zero():
        raise ValueError("zero polynomial has every rational root")
    return _int_rational_roots(P.integer_coeffs())


def _int_rational_roots(coeffs: list[int]) -> list[Fraction]:
    """All rational roots of a nonzero low-to-high integer coefficient
    list, sorted, without multiplicity; a Fraction is built only for each
    candidate root that rational reconstruction returns.

    Powers of x are deflated first; _hensel_roots finds the roots of the
    rest, verifies each one exactly and says why none is missed.
    """
    k = 0
    while coeffs[k] == 0:
        k += 1
    roots = _hensel_roots(coeffs[k:])
    if k > 0:
        roots.append(Fraction(0))
    return sorted(roots)


def _eval_int_at(coeffs: list[int], p: int, q: int) -> int:
    """q^deg * P(p/q), an integer (homogenized Horner)."""
    d = len(coeffs) - 1
    acc = coeffs[d]
    qpow = 1
    for i in range(d - 1, -1, -1):
        qpow *= q
        acc = acc * p + coeffs[i] * qpow
    return acc


_RECIPROCAL_MIN = 512


def _mod(a: np.ndarray | int, m: int) -> np.ndarray | int:
    """a % m for an int or an int64 array a and an int m > 0. numpy's //
    by a scalar multiplies by a precomputed reciprocal (libdivide), where
    % divides each element in hardware; below _RECIPROCAL_MIN elements %
    is still the cheaper call. Both round toward -inf, and at a = -2^63
    the wrap of a // m * m past int64 is undone by the subtraction."""
    return (a % m if getattr(a, "size", 0) < _RECIPROCAL_MIN
            else a - a // m * m)


def _form_mod(C: list[int], p: np.ndarray, q: np.ndarray | int,
              m: int) -> np.ndarray:
    """sum C[i] p^i q^(e - i) mod m, e = len(C) - 1, at every (p, q), by
    Horner on int64 arrays (q may be an int), exact for every m < 2^31.
    With the coefficients, p, q and the powers of q reduced, a step takes
    an accumulator below B to one below B (m - 1) + (m - 1)^2, so it is
    reduced every k steps and at the end, k <= e the most steps that stay
    below 2^63 from a residue: 3 or more up to m = 46,341 (all e at m = 2,
    where the bound grows by 1 a step), 2 up to 1,664,511, 1 above."""
    e = len(C) - 1
    top, k = m - 1, 0
    while k < e and (top := top * (m - 1) + (m - 1) ** 2) < 2 ** 63:
        k += 1
    pm, qm, acc = _mod(p, m), _mod(q, m), C[-1] % m
    for j in range(1, e + 1):
        qpow = qm if j == 1 else _mod(qpow * qm, m)
        acc = acc * pm + C[e - j] % m * qpow
        if j % k == 0 or j == e:
            acc = _mod(acc, m)
    return acc if e else np.full(p.shape, acc, dtype=np.int64)


def _value_and_slope(c: list[int], r: int, m: int) -> tuple[int, int]:
    """c(r) and c'(r) mod m, by one Horner pass."""
    f = df = 0
    for v in reversed(c):
        df = (df * r + f) % m
        f = (f * r + v) % m
    return f, df


def _simple_roots_mod(c: list[int], p: int) -> list[int] | None:
    """The roots of c in F_p, found by evaluating c and c' at every
    residue, or None if one of them is a multiple root."""
    roots = []
    for r in range(p):
        f, df = _value_and_slope(c, r, p)
        if f == 0:
            if df == 0:
                return None
            roots.append(r)
    return roots


def _rational_reconstruct(r: int, m: int) -> Fraction | None:
    bound = isqrt(m // 2)
    r0, t0 = m, 0
    r1, t1 = r % m, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1 = r1, r0 - q * r1
        t0, t1 = t1, t0 - q * t1
    if t1 == 0 or abs(t1) > bound or gcd(r1, t1) != 1:
        return None
    return Fraction(r1, t1)


def _exact_quotient(a: list[int], b: list[int]) -> list[int]:
    """a / b on low-to-high integer coefficient lists, for a b that
    divides a in Z[x]."""
    r = list(a)
    db, lb = len(b) - 1, b[-1]
    q = [0] * (len(a) - db)
    for k in range(len(q) - 1, -1, -1):
        c = q[k] = r[k + db] // lb
        for i, v in enumerate(b):
            r[k + i] -= c * v
    if any(r):
        raise ArithmeticError("polynomial division is not exact")
    return q


def _squarefree_part(c: list[int]) -> list[int]:
    """c / gcd(c, c'), an integer polynomial with the same roots as c,
    each simple."""
    g = _int_gcd(c, _primitive([e * v for e, v in enumerate(c)][1:]))
    return c if len(g) == 1 else _exact_quotient(c, g)


def _hensel_roots(coeffs: list[int]) -> list[Fraction]:
    """Every rational root of an integer polynomial with nonzero constant
    term.

    The primes are walked upward from 2 to the first p that does not
    divide lead S and at which every root of S mod p is simple. S is the
    input until a second prime turns up a multiple root (the first is
    often a prime dividing the discriminant of a square-free input); then
    it becomes its square-free part, since a repeated factor can leave a
    multiple root at every prime. Once S is square-free, every prime not
    dividing lead(S) * disc(S) qualifies, so the walk ends.

    No root is missed: a root a/b of S in lowest terms has a | S(0) and
    b | lead S, so b is a unit mod p and a/b reduces to a root r of S
    mod p. That root is simple, so Newton's iteration lifts r uniquely
    to p^(2^k), and the lift is a/b mod p^(2^k). Lifting stops once the
    modulus m exceeds 2*H^2 for H = max(|S(0)|, |lead S|), where
    rational reconstruction modulo m returns a/b. The lifts of the other
    roots mod p give no candidate or one that fails the exact check.
    """
    S, multiple, p = coeffs, 0, 2
    while True:
        if S[-1] % p:
            roots = _simple_roots_mod(S, p)
            if roots is not None:
                break
            multiple += 1
            if multiple == 2:
                S = _squarefree_part(S)
                continue
        p = next_prime(p)
    height = max(abs(S[0]), abs(S[-1]))
    target = 2 * height * height
    out = []
    for r in roots:
        m = p
        while m <= target:
            m *= m
            f, df = _value_and_slope(S, r, m)
            r = (r - f * pow(df, -1, m)) % m
        cand = _rational_reconstruct(r, m)
        if (cand is not None
                and _eval_int_at(S, cand.numerator, cand.denominator) == 0):
            out.append(cand)
    return out


def _integer_model(B: BiPoly, axis: int) -> tuple[Fraction, list[list[int]]]:
    """(content, rows) with B = content * sum rows[e][o] * v^e * w^o,
    where v is the eliminated variable, w the kept one and the integer
    rows are coprime; rows all have length deg_w(B) + 1."""
    c = B._content()
    n, d = c.numerator, c.denominator
    rows = [[0] * (B.degree(1 - axis) + 1) for _ in range(B.degree(axis) + 1)]
    for (i, j), v in B._c.items():
        e, o = (i, j) if axis == 0 else (j, i)
        rows[e][o] = v.numerator * d // (v.denominator * n)
    return c, rows


def _int_resultant(a: list[int], b: list[int]) -> int:
    """Res(a, b) of two low-to-high integer coefficient lists with
    nonzero leading coefficients, by the subresultant pseudo-remainder
    sequence (Brown and Traub 1971; Cohen, GTM 138, Algorithm 3.3.7).
    Every division in it is exact."""
    da, db = len(a) - 1, len(b) - 1
    s = 1
    if da < db:
        a, b, da, db = b, a, db, da
        if da & db & 1:
            s = -1
    g = h = 1
    while db > 0:
        delta = da - db
        if da & db & 1:
            s = -s
        r = _pseudo_remainder(a, b)
        if not r:
            return 0
        a, b = b, [c // (g * h ** delta) for c in r]
        da, db = db, len(r) - 1
        g = a[-1]
        h = g ** delta * h // h ** delta
    return s * b[0] ** da * h // h ** da


def resultant(F: BiPoly, G: BiPoly, axis: int = 0) -> UniPoly:
    """Resultant of F and G with respect to the eliminated axis
    (0 for s, 1 for t), as a polynomial in the other variable.

    F and G are scaled to coprime integer models, F = c_F * F' and
    G = c_G * G', and Res(F, G) = c_F^deg(G) * c_G^deg(F) * Res(F', G').
    Res(F', G'), in Z[w] for the kept variable w, specialises at every
    integer w where neither leading coefficient of F' or G' in the
    eliminated variable vanishes: there both keep their degrees, so its
    value is the resultant of the two integer coefficient lists, a
    subresultant PRS (_int_resultant).

    One evaluation at w = 2^B gives every coefficient (Kronecker
    substitution; Harvey, J. Symbolic Comput. 44, 2009). With |P| the
    sum of the absolute integer coefficients of P,
    B = bit_length(|F'|^deg(G) * |G'|^deg(F)) + 2, and this is exact:
    - Res(F', G') is the Sylvester determinant, whose rows hold the
      coefficients of F' or G' in the eliminated variable, each a
      polynomial in w. Over the permutation expansion, |a b| <= |a| |b|
      and |a + b| <= |a| + |b| bound |Res(F', G')| by the permanent of
      the entries' |.|, at most the product of its row sums,
      |F'|^deg(G) * |G'|^deg(F) < 2^(B - 2); so is each coefficient.
    - Each coefficient of a leading coefficient of F' or G' is at most
      |F'| or |G'|, also below 2^(B - 2); a nonzero one of degree k has
      |value at 2^B| >= 2^(Bk) - 2^(B - 2) * (2^(Bk) - 1) / (2^B - 1)
      > 0, so neither vanishes at 2^B and specialisation holds there.
    - The value at 2^B is sum r_i 2^(Bi) with every |r_i| < 2^(B - 2),
      and the base-2^B digits in [-2^(B - 1), 2^(B - 1)) of an integer
      are unique, so the balanced digits of the value are the r_i.

    The PRS runs on numbers of about B * deg_w bits, and B grows with
    the eliminated degree, so the cost does too: on the package's
    degree-3 fiber discriminants it takes 0.1-0.5 ms, on the fiber of
    3Cs.1.1 x 9B0-9a, axis 0 (degree 12), 0.85-1.0 s (2-core Xeon,
    Python 3.11).
    """
    df, dg = F.degree(axis), G.degree(axis)
    if df < 1 or dg < 1:
        raise ValueError("both inputs must have positive degree in the "
                         "eliminated variable")
    cf, frows = _integer_model(F, axis)
    cg, grows = _integer_model(G, axis)
    norm = (sum(abs(c) for row in frows for c in row) ** dg
            * sum(abs(c) for row in grows for c in row) ** df)
    b = norm.bit_length() + 2

    def at(row):
        acc = 0
        for c in reversed(row):
            acc = (acc << b) + c
        return acc

    r = _int_resultant(list(map(at, frows)), list(map(at, grows)))
    mask, half = (1 << b) - 1, 1 << (b - 1)
    scale = cf ** dg * cg ** df
    out = {}
    e = 0
    while r:
        digit = r & mask
        r >>= b
        if digit >= half:
            digit -= mask + 1
            r += 1
        if digit:
            out[e] = scale * digit
        e += 1
    return UniPoly(out)
