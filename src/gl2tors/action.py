"""Orbits of the row action on (Z/n)^2 and small-index subgroup searches.

Work is on packed codes and (x, y) int pairs; TorVec appears only in the
results (OrbitRecord, ComplementWitness) and the orbit_stabilizer
argument.

Index-2 subgroups and the classes of index-3 subgroups are found through
homomorphisms onto C2 and S3: images of the generators are chosen, then
propagated along the tree edges of the group's cached Cayley table
(GenGroup.table, built once by the closure BFS) and kept only when every
check edge agrees (groups._homomorphisms). The search works on element
indices and the small target group's multiplication table, so it does
no matrix arithmetic. By the coset action every such subgroup is a
kernel or a point stabilizer.

For index 3 only assignments that generate a transitive subgroup of S3
are tried (one with a 3-cycle, or two distinct transpositions), and of
those only the least of each orbit under conjugation by S3. Two index-3
subgroups are conjugate in G exactly when their coset actions are
conjugate by S3, so the homomorphisms found are one per G-conjugacy
class of index-3 subgroups; `index3_fixing_count` reads the point-0
stabilizer of each. An index-3 subgroup fixing a vector v lies in the
stabilizer of v, so the orbit of v has size 1 or 3: the count tests only
such vectors, and skips the search when the group has none. Orbit
sizes come from each generator's permutation of the n^2 pairs, built in
one numpy pass (`_orbit_sizes`).
"""

from __future__ import annotations

import functools
import itertools
import operator
from dataclasses import dataclass

import numpy as np

from .groups import GenGroup, _homomorphisms, exact_order_vectors
from .modmat import TorVec, code_act, code_mul, code_pack


@dataclass(frozen=True)
class OrbitRecord:
    """Orbit of a vector under a subgroup, with its stabilizer."""

    base: TorVec
    orbit: frozenset[TorVec]
    stabilizer: GenGroup

    @property
    def orbit_size(self) -> int:
        return len(self.orbit)


def orbit_stabilizer(G: GenGroup, v: TorVec) -> OrbitRecord:
    """Orbit v*G and the stabilizer subgroup {g : v*g = v}."""
    n = G.modulus
    if v.modulus != n:
        raise ValueError(f"modulus mismatch: {v.modulus} vs {n}")
    # One numpy pass; the images of v mark a table over the n^2 vectors.
    codes = np.fromiter(G.element_codes, np.int64, G.order)
    wx, wy = code_act((v.x, v.y), codes, n)
    hit = np.zeros(n * n, dtype=bool)
    hit[wx * n + wy] = True
    orbit = frozenset(TorVec(w // n, w % n, n)
                      for w in np.flatnonzero(hit).tolist())
    stab = codes[(wx == v.x) & (wy == v.y)].tolist()
    S = GenGroup.from_codes(stab, n,
                            f"stab({v.x},{v.y})" if not G.label
                            else f"stab({v.x},{v.y}) in {G.label}")
    if len(orbit) * S.order != G.order:
        raise AssertionError(
            f"orbit-stabilizer fails: {len(orbit)} * {S.order} != {G.order}")
    return OrbitRecord(v, orbit, S)


_S3 = ((0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0))
# Target groups as 0-based multiplication tables, identity 0. In S3,
# (p*q)(i) = q(p(i)), matching left-to-right matrix products.
_C2_MUL = ((0, 1), (1, 0))
_S3_MUL = tuple(tuple(_S3.index((q[p[0]], q[p[1]], q[p[2]])) for q in _S3)
                for p in _S3)
# _S3_FIXES[v]: whether S3 element v fixes the point 0.
_S3_FIXES = tuple(p[0] == 0 for p in _S3)
# _S3_CONJ[s][v] = s^-1 * v * s.
_S3_CONJ = tuple(tuple(_S3_MUL[_S3_MUL[s].index(0)][_S3_MUL[v][s]]
                       for v in range(len(_S3))) for s in range(len(_S3)))


@functools.lru_cache(maxsize=None)
def _s3_representatives(k: int) -> tuple[tuple[int, ...], ...]:
    """The assignments of S3 elements to k generators that generate a
    transitive subgroup, one per orbit under conjugation by S3 (the least
    of its orbit), in increasing order."""
    reps = []
    for assign in itertools.product(range(len(_S3)), repeat=k):
        orbit = {0}
        for _ in range(2):  # the orbit of 0 under <assign>
            orbit |= {_S3[v][i] for v in assign for i in orbit}
        if len(orbit) == 3 and assign == min(
                tuple(conj[v] for v in assign) for conj in _S3_CONJ):
            reps.append(assign)
    return tuple(reps)


def index2_subgroups(G: GenGroup) -> list[frozenset[int]]:
    """All index-2 subgroups, as element-code sets, deduplicated."""
    images = [a for a in itertools.product((0, 1), repeat=len(G.gen_codes))
              if any(a)]
    codes = G.table.codes
    subs = {frozenset(itertools.compress(codes, map(operator.not_, phi)))
            for phi in _homomorphisms(G, _C2_MUL, images)}
    return sorted(subs, key=sorted)


def index3_fixing_count(G: GenGroup) -> int:
    """Number of conjugacy classes of index-3 subgroups of G fixing some
    vector of exact order 9 pointwise: the homomorphisms found whose
    point-0 stabilizer H fixes such a v (then x^-1 H x fixes v*x). Level
    must be 9.

    An index-3 H fixing v lies in Stab_G(v), so the orbit of v under G
    has size dividing 3. Only vectors with orbit size 1 or 3 (from
    `_orbit_sizes`) are tried, and when there are none the
    count is 0 with no homomorphism search. The table is read first, so
    generators that miss a given element set still raise ValueError."""
    if G.modulus != 9:
        raise ValueError(f"expected level 9, got {G.modulus}")
    codes = G.table.codes
    vectors = exact_order_vectors(9)
    size = _orbit_sizes(G, vectors)
    candidates = [v for v in vectors if size[v] in (1, 3)]
    if not candidates:
        return 0
    images = _s3_representatives(len(G.gen_codes))
    # Lists: each candidate walks the codes once.
    stabilizers = (
        list(itertools.compress(codes, map(_S3_FIXES.__getitem__, phi)))
        for phi in _homomorphisms(G, _S3_MUL, images))
    return sum(any(all(code_act(v, c, 9) == v for c in H)
                   for v in candidates) for H in stabilizers)


def minus_one_complements(H: GenGroup) -> list[GenGroup]:
    """Index-2 subgroups of H not containing -I, in a deterministic order.

    Each such C has H = C x {I, -I}, so projecting H's generators onto C
    (g, or -g when g is not in C) generates C; identity and repeated
    images are dropped, so C has at most as many generators as H."""
    n = H.modulus
    minus = code_pack(-1, 0, 0, -1, n)
    if minus not in H.element_codes:
        raise ValueError("-I is not in the subgroup")
    ident = code_pack(1, 0, 0, 1, n)
    out = []
    for s in index2_subgroups(H):
        if minus not in s:
            images = (g if g in s else code_mul(g, minus, n)
                      for g in H.gen_codes)
            gens = tuple(dict.fromkeys(c for c in images if c != ident))
            label = f"{H.label}-comp{len(out) + 1}" if H.label else ""
            out.append(GenGroup(n, gens, label, s))
    return out


@dataclass(frozen=True)
class ComplementWitness:
    """A candidate subgroup together with a vector whose orbit has the
    stated index in the ambient torsion module action sense."""

    subgroup: GenGroup
    vector: TorVec
    index: int

    def verify(self) -> bool:
        rec = orbit_stabilizer(self.subgroup, self.vector)
        return (rec.orbit_size == self.index
                and rec.orbit_size * rec.stabilizer.order
                == self.subgroup.order)


def _orbit_sizes(C: GenGroup, vectors) -> dict:
    """Size of the orbit of each pair under C; vectors must be a union of
    orbits. One code_act call on arrays gives each generator's
    permutation of the n^2 pairs, by index x*n + y, and one BFS per orbit
    walks those permutations."""
    n = C.modulus
    pairs = np.divmod(np.arange(n * n, dtype=np.int64), n)
    wx, wy = code_act(pairs, np.array(C.gen_codes, dtype=np.int64)[:, None],
                      n)
    perms = (wx * n + wy).tolist()
    index = [x * n + y for x, y in vectors]
    size = [0] * (n * n)  # -1 once reached, then the orbit's size
    for v in index:
        if size[v]:
            continue
        size[v] = -1
        orbit = [v]
        for w in orbit:  # grows while it is walked
            for perm in perms:
                u = perm[w]
                if not size[u]:
                    size[u] = -1
                    orbit.append(u)
        m = len(orbit)
        for w in orbit:
            size[w] = m
    return dict(zip(vectors, map(size.__getitem__, index)))


def index6_complement_search(H: GenGroup) -> list[ComplementWitness]:
    """Witnesses (C, v) with C = H or an index-2 complement of -I in H and
    v of exact order 9 whose orbit under C has size exactly 6."""
    n = H.modulus
    if n != 9:
        raise ValueError(f"expected level 9, got {n}")
    candidates = [H] + minus_one_complements(H)
    # Exact order is kept by invertible matrices, so these vectors are a
    # union of orbits.
    vectors = exact_order_vectors(n)
    out = []
    for C in candidates:
        size = _orbit_sizes(C, vectors)
        out.extend(ComplementWitness(C, TorVec(x, y, n), 6)
                   for x, y in vectors if size[x, y] == 6)
    return out
