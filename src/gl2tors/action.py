"""Orbits of the row action on (Z/n)^2 and small-index subgroup searches.

Work is on packed codes and (x, y) int pairs; TorVec appears only in the
results (OrbitRecord, ComplementWitness) and the orbit_stabilizer
argument.

Index-2 and index-3 subgroups are enumerated through homomorphisms onto
C2 and S3: images of the generators are chosen freely, then propagated
over the whole Cayley graph and kept only when every edge is consistent.
By the coset action this finds every subgroup of those indices.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .groups import GenGroup, exact_order_vectors, fixes_full_order_vector
from .modmat import TorVec, code_act, code_inverse, code_mul, code_pack


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
    p = (v.x, v.y)
    orbit = set()
    stab = []
    for c in sorted(G.element_codes):
        w = code_act(p, c, n)
        orbit.add(w)
        if w == p:
            stab.append(c)
    S = GenGroup.from_codes(stab, n,
                            f"stab({v.x},{v.y})" if not G.label
                            else f"stab({v.x},{v.y}) in {G.label}")
    if len(orbit) * S.order != G.order:
        raise AssertionError(
            f"orbit-stabilizer fails: {len(orbit)} * {S.order} != {G.order}")
    return OrbitRecord(v, frozenset(TorVec(x, y, n) for x, y in orbit), S)


def orbit_of_vector(codes, v: tuple[int, int], n: int) -> frozenset:
    """Orbit of the pair v under an explicit element-code set."""
    return frozenset(code_act(v, c, n) for c in codes)


_S3 = ((0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0))


def _perm_mul(p, q):
    # (p*q)(i) = q(p(i)), matching left-to-right matrix products.
    return (q[p[0]], q[p[1]], q[p[2]])


def _hom_kernels(G: GenGroup, images, mul, ident, keep):
    """Subgroups arising as preimages under homomorphisms to a small group.

    images: candidate image tuples for the generator list; mul/ident give
    the target group; keep(phi_values) decides which assignment to retain
    and maps it to the subgroup's element set.
    """
    n = G.modulus
    gens = G.gen_codes
    codes = sorted(G.element_codes)
    id_code = code_pack(1, 0, 0, 1, n)
    found = []
    for assign in images:
        phi = {id_code: ident}
        frontier = [id_code]
        ok = True
        while frontier and ok:
            nxt = []
            for x in frontier:
                for g, ig in zip(gens, assign):
                    y = code_mul(x, g, n)
                    val = mul(phi[x], ig)
                    if y in phi:
                        if phi[y] != val:
                            ok = False
                            break
                    else:
                        phi[y] = val
                        nxt.append(y)
                if not ok:
                    break
            frontier = nxt
        if ok and len(phi) == len(codes):
            sub = keep(phi)
            if sub is not None:
                found.append(sub)
    return found


def index2_subgroups(G: GenGroup) -> list[frozenset[int]]:
    """All index-2 subgroups, as element-code sets, deduplicated."""
    images = [a for a in itertools.product((0, 1), repeat=len(G.gen_codes))
              if any(a)]
    subs = _hom_kernels(
        G, images, mul=lambda x, y: x ^ y, ident=0,
        keep=lambda phi: frozenset(c for c, v in phi.items() if v == 0))
    out = []
    for s in subs:
        if s not in out:
            out.append(s)
    return sorted(out, key=sorted)


def index3_subgroups(G: GenGroup) -> list[frozenset[int]]:
    """All index-3 subgroups: point stabilizers of transitive actions on
    three cosets, i.e. homomorphisms to S3 with transitive image."""
    k = len(G.gen_codes)
    images = list(itertools.product(_S3, repeat=k))

    def keep(phi):
        hit = {p[0] for p in phi.values()}
        if hit != {0, 1, 2}:
            return None
        return frozenset(c for c, p in phi.items() if p[0] == 0)

    subs = _hom_kernels(G, images, mul=_perm_mul, ident=(0, 1, 2), keep=keep)
    out = []
    for s in subs:
        if s not in out:
            out.append(s)
    return sorted(out, key=sorted)


def _conjugacy_classes(G: GenGroup, subs) -> list[list[frozenset[int]]]:
    """Partition subgroup element-sets into G-conjugacy classes."""
    n = G.modulus
    gen_pairs = [(g, code_inverse(g, n)) for g in G.gen_codes]
    remaining = list(subs)
    classes = []
    while remaining:
        seed = remaining[0]
        seen = {seed}
        frontier = [seed]
        while frontier:
            nxt = []
            for s in frontier:
                for g, gi in gen_pairs:
                    t = frozenset(code_mul(code_mul(gi, c, n), g, n)
                                  for c in s)
                    if t not in seen:
                        seen.add(t)
                        nxt.append(t)
            frontier = nxt
        classes.append(sorted(seen, key=sorted))
        remaining = [s for s in remaining if s not in seen]
    return classes


def index3_fixing_count(G: GenGroup) -> int:
    """Number of conjugacy classes of index-3 subgroups of G fixing some
    vector of exact order 9 pointwise. Level must be 9."""
    if G.modulus != 9:
        raise ValueError(f"expected level 9, got {G.modulus}")
    subs = [s for s in index3_subgroups(G)
            if fixes_full_order_vector(s, 9)]
    if not subs:
        return 0
    return len(_conjugacy_classes(G, subs))


def minus_one_complements(H: GenGroup) -> list[GenGroup]:
    """Index-2 subgroups of H not containing -I, in a deterministic order."""
    n = H.modulus
    minus = code_pack(-1, 0, 0, -1, n)
    if minus not in H.element_codes:
        raise ValueError("-I is not in the subgroup")
    out = []
    for s in index2_subgroups(H):
        if minus not in s:
            label = f"{H.label}-comp{len(out) + 1}" if H.label else ""
            out.append(GenGroup.from_codes(s, n, label))
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


def index6_complement_search(H: GenGroup) -> list[ComplementWitness]:
    """Witnesses (C, v) with C = H or an index-2 complement of -I in H and
    v of exact order 9 whose orbit under C has size exactly 6."""
    n = H.modulus
    if n != 9:
        raise ValueError(f"expected level 9, got {n}")
    candidates = [H] + minus_one_complements(H)
    vectors = exact_order_vectors(n)
    out = []
    for C in candidates:
        codes = C.element_codes
        for x, y in vectors:
            if len(orbit_of_vector(codes, (x, y), n)) == 6:
                out.append(ComplementWitness(C, TorVec(x, y, n), 6))
    return out
