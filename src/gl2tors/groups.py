"""Subgroups of GL2(Z/nZ): closure, standard constructions, classification.

A group is a list of generator codes plus a lazily computed element set
and right Cayley table, both from one BFS over the generators (see
`_closure_table`); the subgroup searches in `action` run over the table
through `_homomorphisms`, so this module alone reads its edge layout.
The BFS walks level by level in Python; once a level holds
_LEVEL_SWITCH (256) elements, at levels n with n^4 <= 2^20, numpy runs
the remaining levels and gives the same codes, edges and element set.
Matrices are packed integer codes (see modmat), vectors (x, y) int pairs.
GMat appears only where matrices enter or leave: generator input, the
`generators` view and membership tests. Every walk whose order can reach
a result is in sorted code or (x, y) order, so results are deterministic.
Conjugacy is decided by a search over GL2(Z/nZ), after one invariant:
the (trace, det) class counts of `_class_counts`. The search, the class
counts and the applicability test (off the entries of g - I) are numpy
passes over a group's element codes and, for the search, `_full_codes`,
GL2 in code order, built on first use per level. The search tests
_CONJUGATOR_BLOCK (256) elements of GL2 at a time against a dense
membership array of n^4 entries, and stops at the first block with a hit.
"""

from __future__ import annotations

import functools
from array import array
from collections import Counter
from dataclasses import dataclass, field
from math import gcd
from typing import NamedTuple

import numpy as np

from .arith import factorint, is_probable_prime
from .modmat import (GMat, code_act, code_det, code_entries, code_mul,
                     code_mul_tables, code_pack, code_trace,
                     least_nonresidue)


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


class CayleyTable(NamedTuple):
    """The right Cayley graph of a group on its generators, by element
    index, as the closure BFS finds it: 8 + 4k bytes per element.

    codes holds the elements in BFS order from the identity, which is
    index 0. With k generators, edges[i*k + j] is the index of
    codes[i] * gen_j: a tree edge, the first to reach its target, when
    that target is the next index not yet reached, else a check edge.
    Walking edges in order therefore meets each element's tree edge
    before any edge leaving it or any check edge into it.
    """

    codes: array
    edges: array


# The closure BFS hands its remaining levels to numpy once a level holds
# _LEVEL_SWITCH elements, at levels n with n^4 <= _TAIL_MAX_CODES: the tail
# keeps two dense int32 arrays of n^4 entries, at most 4 MB each (n <= 32).
_LEVEL_SWITCH = 256
_TAIL_MAX_CODES = 2 ** 20


def _closure_table(gen_codes, n: int) -> tuple[frozenset[int], CayleyTable]:
    """Element set and Cayley table of the group the packed generators
    generate, from the one closure BFS; raises ValueError when a
    generator is not invertible mod n.

    Each of the |G|*k products x*g is two lookups in g's row tables
    (modmat.code_mul_tables, k*n^2 entries in all), after one divmod of
    x into its rows; the BFS makes no code_mul call. It walks level by
    level, and once a level holds _LEVEL_SWITCH elements and
    n^4 <= _TAIL_MAX_CODES, `_closure_tail` runs the remaining levels
    in numpy with the same result."""
    for g in gen_codes:
        _check_invertible(g, n)
    tables = [code_mul_tables(g, n) for g in gen_codes]
    n2 = n * n
    ident = code_pack(1, 0, 0, 1, n)
    codes = [ident]
    index = {ident: 0}
    edges = []
    tail = n2 * n2 <= _TAIL_MAX_CODES
    start = 0
    while start < len(codes):
        level = codes[start:]
        if tail and len(level) >= _LEVEL_SWITCH:
            return _closure_tail(tables, n, codes, edges, start)
        start = len(codes)
        for x in level:
            r1, r2 = divmod(x, n2)
            for hi, lo in tables:
                y = hi[r1] + lo[r2]
                i = index.get(y)
                if i is None:
                    i = index[y] = len(codes)
                    codes.append(y)
                edges.append(i)
    return frozenset(index), CayleyTable(array("q", codes), array("i", edges))


def _closure_tail(tables, n: int, codes: list, edges: list,
                  start: int) -> tuple[frozenset[int], CayleyTable]:
    """Finish the closure BFS in numpy from the level codes[start:], given
    the codes and edges found so far; the result equals the Python BFS.

    Each level's products come from the row tables as arrays, in edge
    order, and a dense code -> index array (-1 when absent) gives their
    indices. A product not yet indexed takes its first position in the
    level: positions scattered in reverse leave the first one written
    last. New elements are numbered in first-occurrence order, as in the
    Python BFS, so each first occurrence is a tree edge."""
    n2 = n * n
    k = len(tables)
    his = np.array([t[0] for t in tables], dtype=np.int64).reshape(k, n2)
    los = np.array([t[1] for t in tables], dtype=np.int64).reshape(k, n2)
    where = np.full(n2 * n2, -1, dtype=np.int32)
    first = np.empty(n2 * n2, dtype=np.int32)
    level = np.array(codes[start:], dtype=np.int64)
    found = [np.array(codes, dtype=np.int64)]
    where[found[0]] = np.arange(len(codes), dtype=np.int32)
    size = len(codes)
    out = [np.array(edges, dtype=np.int32)]
    while level.size:
        r1, r2 = np.divmod(level, n2)
        prod = (his[:, r1] + los[:, r2]).T.ravel()  # edge order
        e = where[prod]
        new = np.flatnonzero(e < 0)
        ys = prod[new]
        order = np.arange(ys.size, dtype=np.int32)
        first[ys[::-1]] = order[::-1]
        is_first = first[ys] == order
        level = ys[is_first]
        where[level] = np.arange(size, size + level.size, dtype=np.int32)
        size += level.size
        e[new] = where[ys]
        found.append(level)
        out.append(e)
    codes_out = np.concatenate(found)
    # From a dict, as the Python BFS builds it: the same iteration order.
    return (frozenset(dict.fromkeys(codes_out.tolist())),
            CayleyTable(array("q", codes_out.tobytes()),
                        array("i", np.concatenate(out).tobytes())))


def _homomorphisms(G: GenGroup, mul, images):
    """The homomorphisms from G to the group with multiplication table mul
    that send the generators to one of the assignments in images.

    Each is yielded as the list phi of images of G.table.codes. An
    assignment is propagated along the tree edges of the cached Cayley
    table and compared on its check edges, stopping at the first
    mismatch.
    """
    edges = G.table.edges
    size = len(G.table.codes)
    k = len(G.gen_codes)
    by = tuple(zip(*mul))  # by[a][x] = x * a
    for assign in images:
        cols = [by[a] for a in assign]
        phi = [0] * size
        i = j = 0  # edges[i*k + j] leaves codes[i] by generator j
        reached = 1
        for e in edges:
            v = cols[j][phi[i]]
            if e == reached:
                phi[e] = v
                reached += 1
            elif phi[e] != v:
                break
            j += 1
            if j == k:
                i += 1
                j = 0
        else:
            yield phi


# The most row-table entries (k*n^2, k generators at level n) a group may
# build: n = 1000 with one generator peaks at about 107 MB.
_MAX_TABLE_ENTRIES = 10 ** 6


def closure_codes(gen_codes, n: int) -> frozenset[int]:
    """Set of all products of the given packed generators (one table BFS)."""
    return _closure_table(gen_codes, n)[0]


@dataclass(frozen=True)
class GenGroup:
    """A subgroup of GL2(Z/nZ) given by generator codes, elements on
    demand.

    `element_codes` and `table` (the right Cayley table, see CayleyTable)
    are cached on the value; a group built from generators gets both from
    one BFS on first use of either. Equality and hashing ignore both
    caches: they compare the modulus, the generator codes and the label,
    so two generator lists of one subgroup give unequal values. Compare
    `element_codes` to test for the same subgroup.
    """

    modulus: int
    gen_codes: tuple[int, ...]
    label: str = ""
    _codes: frozenset[int] | None = field(default=None, repr=False,
                                          compare=False)
    _table: CayleyTable | None = field(default=None, repr=False,
                                       compare=False)

    @classmethod
    def from_generators(cls, gens, n: int, label: str = "") -> "GenGroup":
        """Generators given as GMat values or (a, b, c, d) rows mod n, at
        most _MAX_TABLE_ENTRIES row-table entries (k*n^2) in all."""
        codes = []
        for g in gens:
            M = g if isinstance(g, GMat) else GMat(*g, n)
            if M.modulus != n:
                raise ValueError(
                    f"generator modulus {M.modulus} does not match {n}")
            codes.append(M.code())
            _check_invertible(codes[-1], n)
        if len(codes) * n * n > _MAX_TABLE_ENTRIES:
            raise ValueError(f"{len(codes)} generator(s) at level {n} need "
                             f"{len(codes) * n * n} row-table entries, "
                             f"more than {_MAX_TABLE_ENTRIES}")
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

    def _close(self) -> None:
        """Fill both caches from one BFS; raises ValueError when the
        generators do not reach exactly a given element set (`from_codes`)."""
        codes, table = _closure_table(self.gen_codes, self.modulus)
        if self._codes is None:
            object.__setattr__(self, "_codes", codes)
        elif codes != self._codes:
            raise ValueError(
                f"generators reach {len(codes)} elements, not the given "
                f"element set of {len(self._codes)}")
        object.__setattr__(self, "_table", table)

    @property
    def element_codes(self) -> frozenset[int]:
        if self._codes is None:
            self._close()
        return self._codes

    @property
    def table(self) -> CayleyTable:
        """The cached right Cayley table: |G| codes and |G|*k edges."""
        if self._table is None:
            self._close()
        return self._table

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
    """Group generated by the given matrices, closed eagerly."""
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
def standard_subgroup(kind: str, n: int) -> GenGroup:
    """One of the named subgroups of GL2(Z/nZ). The nonsplit kinds are
    built from their element sets, the others from generators alone.

    Cartan kinds require n to be an odd prime power p^k. The nonsplit
    kinds embed Z/n[sqrt(phi)] with phi the least non-residue mod p,
    which is a non-residue mod n too.
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
    if kind in ("nonsplit-cartan", "nonsplit-cartan-normalizer"):
        phi = least_nonresidue(min(factorint(n)))
        codes = set()
        for a in range(n):
            for b in range(n):
                if gcd((a * a - b * b * phi) % n, n) == 1:
                    codes.add(code_pack(a, b * phi, b, a, n))
        if kind == "nonsplit-cartan-normalizer":
            j = code_pack(1, 0, 0, -1, n)
            codes |= {code_mul(j, c, n) for c in set(codes)}
        return GenGroup.from_codes(codes, n, f"{kind}({n})")
    g = _primitive_root(n)
    gens = (code_pack(g, 0, 0, 1, n), code_pack(1, 0, 0, g, n))
    if kind == "borel":
        gens += (code_pack(1, 1, 0, 1, n),)
    elif kind == "split-cartan-normalizer":
        gens += (code_pack(0, 1, 1, 0, n),)
    return GenGroup(n, gens, f"{kind}({n})")


def contains_minus_identity(G: GenGroup) -> bool:
    n = G.modulus
    return code_pack(-1, 0, 0, -1, n) in G.element_codes


def det_image(G: GenGroup) -> frozenset[int]:
    """Set of determinants attained, as reduced residues.

    det is a homomorphism, so this is the subgroup of (Z/n)^x generated
    by the generators' determinants; no element is visited.
    """
    n = G.modulus
    dets = {code_det(g, n) for g in G.gen_codes}
    seen = {1}
    frontier = [1]
    while frontier:
        frontier = [y for y in {x * d % n for x in frontier for d in dets}
                    if y not in seen]
        seen.update(frontier)
    return frozenset(seen)


def det_surjective(G: GenGroup) -> bool:
    return len(det_image(G)) == len(_units(G.modulus))


def exact_order_vectors(n: int) -> list[tuple[int, int]]:
    """All (x, y) in (Z/n)^2 of exact additive order n, sorted."""
    return [(x, y) for x in range(n) for y in range(n) if gcd(x, y, n) == 1]


@dataclass(frozen=True)
class Applicability:
    """Outcome of the applicability test, with the first failing reason."""

    ok: bool
    reason: str


def is_applicable(G: GenGroup) -> Applicability:
    """Proper subgroup, -I in G, det onto, and some element with trace 0
    and det -1 fixing a vector of exact order n.

    With M = g - I, g fixes one exactly when det M = 0 mod q*gcd(M, q)
    for each q = p^k || n: over Z/q, M has Smith form diag(p^a, p^b),
    a <= b, p^a = gcd(M, q), and vM = 0 has a solution of exact order q
    iff b >= k. Moving an entry by q moves det M by a multiple of q*p^a;
    the CRT joins the q. At odd n all such g pass: g^2 = I, so g fixes
    the rows of g + I, not all 0 mod p as -I has trace -2."""
    n = G.modulus
    if G.order == gl2_order(n):
        return Applicability(False, "not proper")
    if not contains_minus_identity(G):
        return Applicability(False, "-I not in subgroup")
    if not det_surjective(G):
        return Applicability(False, "det not surjective")
    codes = _code_array(G)
    cands = codes[(code_trace(codes, n) == 0) & (code_det(codes, n) == n - 1)]
    a, b, c, d = code_entries(cands, n)
    a, d = a - 1, d - 1
    det, content = a * d - b * c, np.gcd(np.gcd(a, b), np.gcd(c, d))
    fixes = [det % (q * np.gcd(content, q)) == 0
             for q in (p ** k for p, k in factorint(n).items())]
    if np.all(fixes, axis=0).any():
        return Applicability(True, "applicable")
    return Applicability(False,
                         "no trace-0 det--1 element fixes a full-order vector")


@functools.lru_cache(maxsize=None)
def _full_codes(n: int) -> np.ndarray:
    """GL2(Z/nZ) in increasing code order, at any level, as a read-only
    int64 array: the codes below n^4 whose determinant is a unit."""
    x = np.arange(n ** 4, dtype=np.int64)
    x = x[np.gcd(code_det(x, n), n) == 1]
    x.flags.writeable = False
    return x


def _code_array(G: GenGroup) -> np.ndarray:
    """The element codes of G as an int64 array, in set order."""
    return np.fromiter(G.element_codes, dtype=np.int64, count=G.order)


def _class_counts(G: GenGroup) -> Counter:
    """How many elements of G have each (trace, det), from one bincount
    of the element codes' keys. Conjugation keeps both, so x^-1 G x <= H
    needs each count of G to be at most that of H."""
    n = G.modulus
    codes = _code_array(G)
    counts = np.bincount(code_trace(codes, n) * n + code_det(codes, n))
    keys = np.flatnonzero(counts)
    return Counter({divmod(k, n): c
                    for k, c in zip(keys.tolist(), counts[keys].tolist())})


# The conjugacy search tests this many x per numpy pass. In the groups
# workload most true answers come within the first few hundred x, and
# one pass over all of GL2 was slower than testing one x at a time.
_CONJUGATOR_BLOCK = 256


def is_conjugate_subgroup(G: GenGroup, H: GenGroup) -> bool:
    """True iff some x in GL2(Z/nZ) has x^-1 G x contained in H.

    Lagrange's test and `_class_counts` containment are necessary
    conditions; the search over `_full_codes` decides. It takes the x in
    blocks of _CONJUGATOR_BLOCK, in code order, and for each block packs
    x^-1 g x for every generator g from entrywise int64 arithmetic, then
    looks the codes up in a dense membership array of H's n^4 codes. It
    reads only G's generators and the element sets, never a Cayley
    table."""
    if G.modulus != H.modulus:
        raise ValueError(
            f"modulus mismatch: {G.modulus} vs {H.modulus}")
    n = G.modulus
    if H.order % G.order != 0 or not _class_counts(G) <= _class_counts(H):
        return False
    member = np.zeros(n ** 4, dtype=bool)
    member[_code_array(H)] = True
    inverse = np.zeros(n, dtype=np.int64)
    units = _units(n)
    inverse[units] = [pow(u, -1, n) for u in units]
    # Generator entries as columns: each block's arrays are k x block.
    ga, gb, gc, gd = code_entries(
        np.array(G.gen_codes, dtype=np.int64)[:, None], n)
    full = _full_codes(n)
    for start in range(0, full.size, _CONJUGATOR_BLOCK):
        a, b, c, d = code_entries(full[start:start + _CONJUGATOR_BLOCK], n)
        # x^-1 = det^-1 (d, -b; -c, a). Before code_pack reduces them,
        # the entries of x^-1 g x stay below 4n^4 in size.
        di = inverse[(a * d - b * c) % n]
        ia, ib, ic, id_ = di * d, -di * b, -di * c, di * a
        p, q = ia * ga + ib * gc, ia * gb + ib * gd
        r, t = ic * ga + id_ * gc, ic * gb + id_ * gd
        y = code_pack(p * a + q * c, p * b + q * d,
                      r * a + t * c, r * b + t * d, n)
        if member[y].all(axis=0).any():
            return True
    return False


def is_conjugate(G: GenGroup, H: GenGroup) -> bool:
    """True iff G and H are conjugate in GL2(Z/nZ): of equal order, with
    x^-1 G x contained in H for some x."""
    if G.modulus != H.modulus:
        raise ValueError(
            f"modulus mismatch: {G.modulus} vs {H.modulus}")
    return G.order == H.order and is_conjugate_subgroup(G, H)


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
    """Number of free rank-1 submodules of (Z/n)^2 fixed setwise by G.

    The line of a vector v of exact order n maps into itself under g
    exactly when det(v; v*g) = 0 mod n: completing v to a basis (v, u),
    v*g = c*v + e*u has det(v; v*g) = e*det(v; u) with det(v; u) a unit.
    Each line has phi(n) such generators v, so the stable lines are the
    stable generators counted over phi(n)."""
    n = G.modulus
    x, y = np.array(exact_order_vectors(n), dtype=np.int64).T
    stable = np.ones(x.shape, dtype=bool)
    for g in G.gen_codes:
        gx, gy = code_act((x, y), g, n)
        stable &= (x * gy - y * gx) % n == 0
    return int(stable.sum()) // len(_units(n))


@dataclass(frozen=True)
class SubgroupClass:
    """A conjugacy-class tag from the coarse classification."""

    tag: str
    projective_order: int


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
    for kind in ("split-cartan-normalizer", "nonsplit-cartan-normalizer"):
        if is_conjugate_subgroup(G, standard_subgroup(kind, p)):
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
