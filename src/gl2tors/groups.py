"""Subgroups of GL2(Z/nZ): closure, standard constructions, classification.

A group is a list of generator codes plus a lazily computed element set,
both packed integer codes (see modmat); vectors are (x, y) int pairs.
GMat appears only where matrices enter or leave: generator input, the
`generators` view and membership tests. All iteration is in sorted code
or (x, y) order so results are deterministic.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from math import gcd

from .arith import factorint, is_probable_prime
from .modmat import (GMat, code_act, code_det, code_entries, code_inverse,
                     code_mul, code_pack, code_trace, least_nonresidue)


def gl2_order(n: int) -> int:
    """|GL2(Z/nZ)| = n^4 * prod_{p|n} (1 - 1/p)(1 - 1/p^2)."""
    if n < 2:
        raise ValueError(f"modulus must be >= 2, got {n}")
    out = n ** 4
    for p in factorint(n):
        out = out // p * (p - 1) // (p * p) * (p * p - 1)
    return out


def _check_invertible(code: int, n: int) -> None:
    d = code_det(code, n)
    if gcd(d, n) != 1:
        raise ValueError(f"generator not invertible mod {n}: det = {d}")


def closure_codes(gen_codes, n: int) -> frozenset[int]:
    """Set of all products of the given packed generators (BFS closure)."""
    ident = code_pack(1, 0, 0, 1, n)
    gens = sorted(set(gen_codes))
    for g in gens:
        _check_invertible(g, n)
    seen = {ident}
    frontier = [ident]
    while frontier:
        nxt = []
        for x in frontier:
            for g in gens:
                y = code_mul(x, g, n)
                if y not in seen:
                    seen.add(y)
                    nxt.append(y)
        frontier = nxt
    return frozenset(seen)


@dataclass(frozen=True)
class GenGroup:
    """A subgroup of GL2(Z/nZ) given by generator codes, elements on
    demand.

    Equality and hashing compare the modulus, the generator codes and the
    label, not the element set: two generator lists of one subgroup give
    unequal values. Compare `element_codes` to test for the same subgroup.
    """

    modulus: int
    gen_codes: tuple[int, ...]
    label: str = ""
    _codes: frozenset[int] | None = field(default=None, repr=False,
                                          compare=False)

    @classmethod
    def from_generators(cls, gens, n: int, label: str = "") -> "GenGroup":
        """Generators given as GMat values or (a, b, c, d) rows mod n."""
        codes = []
        for g in gens:
            M = g if isinstance(g, GMat) else GMat(*g, n)
            if M.modulus != n:
                raise ValueError(
                    f"generator modulus {M.modulus} does not match {n}")
            codes.append(M.code())
            _check_invertible(codes[-1], n)
        return cls(n, tuple(codes), label)

    @classmethod
    def from_codes(cls, codes, n: int, label: str = "") -> "GenGroup":
        """Wrap an already closed element set, picking greedy generators."""
        codes = frozenset(codes)
        return cls(n, tuple(greedy_generators(codes, n)), label, codes)

    @property
    def generators(self) -> tuple[GMat, ...]:
        """The generators as GMat values, for output."""
        return tuple(GMat.from_code(c, self.modulus) for c in self.gen_codes)

    @property
    def element_codes(self) -> frozenset[int]:
        if self._codes is None:
            codes = closure_codes(self.gen_codes, self.modulus)
            object.__setattr__(self, "_codes", codes)
        return self._codes

    @property
    def order(self) -> int:
        return len(self.element_codes)

    @property
    def index(self) -> int:
        return gl2_order(self.modulus) // self.order

    def __contains__(self, M: GMat) -> bool:
        if M.modulus != self.modulus:
            return False
        return M.code() in self.element_codes

    def __len__(self) -> int:
        return self.order

    def __repr__(self) -> str:
        name = self.label or "subgroup"
        return (f"<{name} mod {self.modulus}, "
                f"{len(self.gen_codes)} generators>")


def greedy_generators(codes: frozenset[int], n: int) -> list[int]:
    """Small generating set: sweep elements, add any not yet generated."""
    gens: list[int] = []
    have = {code_pack(1, 0, 0, 1, n)}
    for c in sorted(codes):
        if c not in have:
            gens.append(c)
            have = set(closure_codes(gens, n))
            if len(have) == len(codes):
                break
    return gens


def closure(gens, n: int, label: str = "") -> GenGroup:
    """Group generated by the given matrices (elements computed eagerly)."""
    G = GenGroup.from_generators(gens, n, label)
    G.element_codes
    return G


def _units(n: int) -> list[int]:
    return [u for u in range(1, n) if gcd(u, n) == 1]


def _is_odd_prime_power(n: int) -> bool:
    f = factorint(n)
    return len(f) == 1 and 2 not in f


def _primitive_root(n: int) -> int:
    """Smallest primitive root mod an odd prime power, checked by order."""
    p = min(factorint(n))
    target = n // p * (p - 1)
    for g in range(2, n):
        if gcd(g, n) != 1:
            continue
        k, acc = 1, g % n
        while acc != 1:
            acc = acc * g % n
            k += 1
        if k == target:
            return g
    raise AssertionError(f"no primitive root mod {n}")


STANDARD_KINDS = ("full", "sl2", "borel", "split-cartan",
                  "split-cartan-normalizer", "nonsplit-cartan",
                  "nonsplit-cartan-normalizer")


def standard_order(kind: str, n: int) -> int:
    """Textbook order of a standard subgroup at an odd prime level n = p."""
    p = n
    return {
        "full": gl2_order(p),
        "sl2": gl2_order(p) // (p - 1),
        "borel": p * (p - 1) ** 2,
        "split-cartan": (p - 1) ** 2,
        "split-cartan-normalizer": 2 * (p - 1) ** 2,
        "nonsplit-cartan": p * p - 1,
        "nonsplit-cartan-normalizer": 2 * (p * p - 1),
    }[kind]


@functools.lru_cache(maxsize=None)
def standard_subgroup(kind: str, n: int, phi: int | None = None) -> GenGroup:
    """One of the named subgroups of GL2(Z/nZ), with explicit elements.

    Cartan kinds require n to be an odd prime power; nonsplit kinds
    additionally require a quadratic non-residue phi.
    """
    if kind not in STANDARD_KINDS:
        raise ValueError(f"unknown kind {kind!r}; expected one of "
                         f"{', '.join(STANDARD_KINDS)}")
    if kind == "full":
        if n != 2 and not _is_odd_prime_power(n):
            raise ValueError(
                f"full GL2 construction needs a prime power, got {n}")
        g = 1 if n == 2 else _primitive_root(n)
        label = f"GL2(F{n})" if is_probable_prime(n) else f"GL2(Z/{n})"
        G = GenGroup.from_generators(
            [(1, 1, 0, 1), (1, 0, 1, 1), (g, 0, 0, 1)], n, label)
        if G.order != gl2_order(n):
            raise AssertionError("full GL2 generators failed to generate")
        return G
    if kind == "sl2":
        G = GenGroup.from_generators([(1, 1, 0, 1), (1, 0, 1, 1)], n,
                                     f"SL2(Z/{n})")
        if G.order != gl2_order(n) // len(_units(n)):
            raise AssertionError("SL2 generators failed to generate")
        return G
    if not _is_odd_prime_power(n):
        raise ValueError(f"cartan kinds need an odd prime power, got {n}")
    units = _units(n)
    if kind in ("nonsplit-cartan", "nonsplit-cartan-normalizer"):
        if phi is None:
            raise ValueError(f"kind {kind!r} requires a non-residue phi")
        if pow_is_square(phi, n):
            raise ValueError(f"phi = {phi} is a square mod {n}")
        codes = set()
        for a in range(n):
            for b in range(n):
                if gcd((a * a - b * b * phi) % n, n) == 1:
                    codes.add(code_pack(a, b * phi, b, a, n))
        if kind == "nonsplit-cartan-normalizer":
            j = code_pack(1, 0, 0, -1, n)
            codes |= {code_mul(j, c, n) for c in set(codes)}
        return GenGroup.from_codes(codes, n, f"{kind}({n})")
    if kind == "borel":
        codes = {code_pack(a, b, 0, d, n)
                 for a in units for d in units for b in range(n)}
        g = _primitive_root(n)
        gens = (code_pack(g, 0, 0, 1, n), code_pack(1, 0, 0, g, n),
                code_pack(1, 1, 0, 1, n))
        return GenGroup(n, gens, f"borel({n})", frozenset(codes))
    g = _primitive_root(n)
    codes = {code_pack(a, 0, 0, d, n) for a in units for d in units}
    gens = (code_pack(g, 0, 0, 1, n), code_pack(1, 0, 0, g, n))
    if kind == "split-cartan-normalizer":
        t = code_pack(0, 1, 1, 0, n)
        codes |= {code_mul(t, c, n) for c in set(codes)}
        gens += (t,)
    return GenGroup(n, gens, f"{kind}({n})", frozenset(codes))


def pow_is_square(v: int, n: int) -> bool:
    v %= n
    return any((x * x) % n == v for x in range(n))


def contains_minus_identity(G: GenGroup) -> bool:
    n = G.modulus
    return code_pack(-1, 0, 0, -1, n) in G.element_codes


def det_image(G: GenGroup) -> frozenset[int]:
    """Set of determinants attained, as reduced residues."""
    n = G.modulus
    return frozenset(code_det(c, n) for c in G.element_codes)


def det_surjective(G: GenGroup) -> bool:
    return len(det_image(G)) == len(_units(G.modulus))


def exact_order_vectors(n: int) -> list[tuple[int, int]]:
    """All (x, y) in (Z/n)^2 of exact additive order n, sorted."""
    return [(x, y) for x in range(n) for y in range(n) if gcd(x, y, n) == 1]


def fixes_full_order_vector(codes, n: int) -> bool:
    """Whether every packed matrix in codes fixes one common vector of
    exact order n."""
    return any(all(code_act(v, c, n) == v for c in codes)
               for v in exact_order_vectors(n))


@dataclass(frozen=True)
class Applicability:
    """Outcome of the applicability test, with the first failing reason."""

    ok: bool
    reason: str


def is_applicable(G: GenGroup) -> Applicability:
    """Proper subgroup, -I in G, det onto, and some element with trace 0
    and det -1 fixing a vector of exact order n."""
    n = G.modulus
    if G.order == gl2_order(n):
        return Applicability(False, "not proper")
    if not contains_minus_identity(G):
        return Applicability(False, "-I not in subgroup")
    if not det_surjective(G):
        return Applicability(False, "det not surjective")
    minus_one = (n - 1) % n
    for c in sorted(G.element_codes):
        if code_trace(c, n) == 0 and code_det(c, n) == minus_one \
                and fixes_full_order_vector((c,), n):
            return Applicability(True, "applicable")
    return Applicability(False,
                         "no trace-0 det--1 element fixes a full-order vector")


@functools.lru_cache(maxsize=None)
def _full_codes(n: int) -> tuple[int, ...]:
    return tuple(sorted(standard_subgroup("full", n).element_codes))


def is_conjugate_subgroup(G: GenGroup, H: GenGroup) -> bool:
    """True iff some x in GL2(Z/nZ) has x^-1 G x contained in H."""
    if G.modulus != H.modulus:
        raise ValueError(
            f"modulus mismatch: {G.modulus} vs {H.modulus}")
    n = G.modulus
    if G.order > H.order or H.order % G.order != 0:
        return False
    if not det_image(G) <= det_image(H):
        return False
    hc = H.element_codes
    for x in _full_codes(n):
        xi = code_inverse(x, n)
        if all(code_mul(code_mul(xi, g, n), x, n) in hc
               for g in G.gen_codes):
            return True
    return False


def is_conjugate(G: GenGroup, H: GenGroup) -> bool:
    """True iff G and H are conjugate in GL2(Z/nZ)."""
    if G.modulus != H.modulus:
        raise ValueError(
            f"modulus mismatch: {G.modulus} vs {H.modulus}")
    if G.order != H.order:
        return False
    if det_image(G) != det_image(H):
        return False
    n = G.modulus
    if sorted(code_trace(c, n) for c in G.element_codes) != \
            sorted(code_trace(c, n) for c in H.element_codes):
        return False
    return is_conjugate_subgroup(G, H)


def reduce_level(G: GenGroup, m: int) -> GenGroup:
    """Image of G under entrywise reduction mod m (m must divide n)."""
    if G.modulus % m != 0:
        raise ValueError(f"{m} does not divide level {G.modulus}")
    if m < 2:
        raise ValueError(f"target level must be >= 2, got {m}")
    gens = [code_entries(c, G.modulus) for c in G.gen_codes]
    label = f"{G.label} mod {m}" if G.label else ""
    return closure(gens, m, label)


def stable_lines(G: GenGroup) -> int:
    """Number of free rank-1 submodules of (Z/n)^2 fixed setwise by G."""
    n = G.modulus
    lines = {}
    for x, y in exact_order_vectors(n):
        key = frozenset((k * x % n, k * y % n) for k in range(n))
        lines.setdefault(key, (x, y))
    # v generates its line, so v*g in the line for each generator means
    # the line maps into itself; invertibility gives equality.
    return sum(1 for key, v in lines.items()
               if all(code_act(v, g, n) in key for g in G.gen_codes))


@dataclass(frozen=True)
class SubgroupClass:
    """A conjugacy-class tag from the coarse classification."""

    tag: str
    projective_order: int


DICKSON_TAGS = ("borel-contained", "contains-SL2", "split-cartan-normalizer",
                "nonsplit-cartan-normalizer", "exceptional-A4",
                "exceptional-S4", "exceptional-A5", "other")


def _projective_order(G: GenGroup) -> int:
    """Order of the image of G in PGL2: |G| / |G ∩ scalars|."""
    n = G.modulus
    scalars = {code_pack(u, 0, 0, u, n) for u in _units(n)}
    return G.order // len(scalars & G.element_codes)


def dickson_classify(G: GenGroup) -> SubgroupClass:
    """Coarse class of a subgroup of GL2(F_p), p an odd prime.

    Ties break toward borel-contained: a group stabilizing a line is
    reported as such even when it also sits in a Cartan normalizer.
    """
    p = G.modulus
    if p == 2 or not is_probable_prime(p):
        raise ValueError(f"classification needs an odd prime level, got {p}")
    if stable_lines(G) > 0:
        return SubgroupClass("borel-contained", _projective_order(G))
    sl2 = standard_subgroup("sl2", p).element_codes
    if sl2 <= G.element_codes:
        return SubgroupClass("contains-SL2", _projective_order(G))
    phi = least_nonresidue(p)
    for kind in ("split-cartan-normalizer", "nonsplit-cartan-normalizer"):
        N = standard_subgroup(kind, p,
                              phi if kind.startswith("nonsplit") else None)
        if is_conjugate_subgroup(G, N):
            return SubgroupClass(kind, _projective_order(G))
    po = _projective_order(G)
    if G.order % p != 0:
        if po == 12:
            return SubgroupClass("exceptional-A4", po)
        if po == 24:
            return SubgroupClass("exceptional-S4", po)
        if po == 60:
            return SubgroupClass("exceptional-A5", po)
    return SubgroupClass("other", po)
