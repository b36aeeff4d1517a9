"""The table-driven closure and subgroup searches against element-wise
references.

The closure reference is the set BFS that `groups` ran before the table
BFS gave a group its element set, and the table reference is the table
BFS as it ran before its products came from row tables: one code_mul per
edge. The homomorphism reference propagates
each assignment of generator images over the Cayley graph with code_mul
and a dict, the way `action` did before it kept a Cayley table on the
group; the index-6 reference takes every orbit over the whole element
set. Random generator lists include the identity and repeated
generators, which give the table self-loops and duplicate check edges.
The index-3 reference walks every assignment in S3^k and keeps the
point-0 stabilizer of each transitive homomorphism, and a BFS that
conjugates subgroups by the generators sorts them into G-conjugacy
classes: the S3 search must find one homomorphism per class of the
reference's subgroups, and the index-3 fixing count must count the
classes of those that fix a vector of exact order 9. The closure's numpy
tail is checked against the table reference with `_LEVEL_SWITCH` moved,
and the orbit-size pruning of the index-3 count on seeded groups with no
orbit of size 1 or 3, with orbits of size 3 and with a fixed vector.
The conjugacy reference tries every invertible x below n^4 on the whole
element set, against `is_conjugate` and `is_conjugate_subgroup` on
seeded conjugate, equal-order and subgroup pairs, with the search's
block boundaries moved around each pair's first conjugator. The
orbit-size reference walks each orbit with one code_act per pair and
generator, and the applicability reference tests each trace-0 det--1
element of the element set against every vector of exact order n; the
applicability test's reading of g - I is also checked against that
enumeration on every trace-0 det--1 element at eight levels."""

import itertools
import random
from collections import Counter
from math import gcd

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gl2tors import action, groups
from gl2tors.action import (_S3, _S3_MUL, ComplementWitness, _homomorphisms,
                            _orbit_sizes, _s3_representatives,
                            index2_subgroups, index3_fixing_count,
                            index6_complement_search, minus_one_complements)
from gl2tors.catalog import (EMBEDDED_LEVEL9, NAMED_GROUP_GENERATORS,
                             named_group)
from gl2tors.elliptic import group_class_set
from gl2tors.groups import (STANDARD_KINDS, GenGroup, closure,
                            closure_codes, contains_minus_identity,
                            det_image, exact_order_vectors,
                            standard_subgroup)
from gl2tors.modmat import (TorVec, code_act, code_det, code_inverse,
                            code_mul, code_pack, code_trace)

SETTINGS = settings(max_examples=40, deadline=None, derandomize=True)


def closure_reference(gen_codes, n):
    """All products of the packed generators, by a BFS over a set."""
    ident = code_pack(1, 0, 0, 1, n)
    gens = sorted(set(gen_codes))
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


def table_reference(gen_codes, n):
    """Codes in BFS order and the edge list of the right Cayley table, by
    the table BFS with one code_mul per edge."""
    ident = code_pack(1, 0, 0, 1, n)
    codes = [ident]
    index = {ident: 0}
    edges = []
    for x in codes:
        for g in gen_codes:
            y = code_mul(x, g, n)
            i = index.get(y)
            if i is None:
                i = index[y] = len(codes)
                codes.append(y)
            edges.append(i)
    return codes, edges


def hom_kernels_reference(G, images, mul, ident, keep):
    """Preimages under homomorphisms to a small group, by walking the whole
    Cayley graph with code_mul for every assignment of images."""
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
    out = []
    for s in found:
        if s not in out:
            out.append(s)
    return sorted(out, key=sorted)


S3 = ((0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0))


def index2_reference(G):
    images = [a for a in itertools.product((0, 1), repeat=len(G.gen_codes))
              if any(a)]
    return hom_kernels_reference(
        G, images, mul=lambda x, y: x ^ y, ident=0,
        keep=lambda phi: frozenset(c for c, v in phi.items() if v == 0))


def index3_reference(G):
    def keep(phi):
        if {p[0] for p in phi.values()} != {0, 1, 2}:
            return None
        return frozenset(c for c, p in phi.items() if p[0] == 0)

    return hom_kernels_reference(
        G, itertools.product(S3, repeat=len(G.gen_codes)),
        mul=lambda p, q: (q[p[0]], q[p[1]], q[p[2]]), ident=(0, 1, 2),
        keep=keep)


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


def assert_one_homomorphism_per_class(G):
    """The S3 search finds one homomorphism per G-conjugacy class of the
    reference's index-3 subgroups: each point-0 stabilizer lies in one
    class, no two in the same class, and every class is met."""
    codes = G.table.codes
    images = _s3_representatives(len(G.gen_codes))
    found = [frozenset(c for c, v in zip(codes, phi) if _S3[v][0] == 0)
             for phi in _homomorphisms(G, _S3_MUL, images)]
    classes = _conjugacy_classes(G, index3_reference(G))
    hit = sorted(i for s in found for i, cls in enumerate(classes)
                 if s in cls)
    assert len(found) == len(classes)
    assert hit == list(range(len(classes)))


def fixes_full_order_vector(codes, n):
    """Whether every packed matrix in codes fixes one common vector of
    exact order n, one code_act call per vector and matrix."""
    return any(all(code_act(v, c, n) == v for c in codes)
               for v in exact_order_vectors(n))


def index3_fixing_count_reference(G):
    subs = [s for s in index3_reference(G) if fixes_full_order_vector(s, 9)]
    return len(_conjugacy_classes(G, subs)) if subs else 0


def index6_reference(H):
    n = H.modulus
    minus = code_pack(-1, 0, 0, -1, n)
    candidates = [H]
    for s in index2_reference(H):
        if minus not in s:
            label = f"{H.label}-comp{len(candidates)}" if H.label else ""
            candidates.append(GenGroup.from_codes(s, n, label))
    def orbit(C, v):
        return {code_act(v, c, n) for c in C.element_codes}

    out = []
    for C in candidates:
        for x, y in exact_order_vectors(n):
            if len(orbit(C, (x, y))) == 6:
                out.append(ComplementWitness(C, TorVec(x, y, n), 6))
    return out


def witness_key(wits):
    return [(sorted(w.subgroup.element_codes), w.subgroup.label,
             w.vector, w.index) for w in wits]


def _matrix(kind, seed, n):
    if kind == "identity":
        return (1, 0, 0, 1)
    rng = random.Random(seed)
    while True:
        a, b, c, d = (rng.randrange(n) for _ in range(4))
        if kind == "upper":
            c = 0
        if gcd(a * d - b * c, n) == 1:
            return (a, b, c, d)


def generator_lists(n, max_size=3):
    """1-3 generators mod n, each a uniformly random invertible matrix, a
    random upper-triangular one (small groups) or the identity, with the
    last generator optionally a repeat of the first."""
    gen = st.tuples(st.sampled_from(("random", "upper", "identity")),
                    st.integers(0, 2 ** 32)).map(lambda t: _matrix(*t, n))
    return st.tuples(st.lists(gen, min_size=1, max_size=max_size),
                     st.booleans()).map(
        lambda t: t[0][:-1] + t[0][:1] if t[1] and len(t[0]) > 1
        else t[0])


@SETTINGS
@given(st.sampled_from((2, 3, 5, 7, 9)).flatmap(
    lambda n: st.tuples(st.just(n), generator_lists(n))))
def test_closure_matches_reference(case):
    n, gens = case
    G = GenGroup.from_generators(gens, n)
    want = closure_reference(G.gen_codes, n)
    assert G.element_codes == want
    assert sorted(G.table.codes) == sorted(want)
    assert closure_codes(G.gen_codes, n) == want


@SETTINGS
@given(st.sampled_from((2, 3, 5, 7, 9, 11)).flatmap(
    lambda n: st.tuples(st.just(n), generator_lists(n))))
def test_table_matches_reference(case):
    # Row-table products leave the BFS order and every edge unchanged.
    n, gens = case
    G = GenGroup.from_generators(gens, n)
    codes, edges = table_reference(G.gen_codes, n)
    assert list(G.table.codes) == codes
    assert list(G.table.edges) == edges


def _closed_with_switch(switch, gen_codes, n):
    """groups._closure_table with the numpy tail taking over at the first
    level of `switch` elements: 1 runs every level in numpy, 10**9 none."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(groups, "_LEVEL_SWITCH", switch)
        return groups._closure_table(gen_codes, n)


def assert_tail_matches_reference(switch, gen_codes, n):
    # The same BFS order, edges and element set; the set also iterates in
    # the order of the one the Python BFS builds from its dict.
    codes, edges = table_reference(gen_codes, n)
    elements, table = _closed_with_switch(switch, gen_codes, n)
    assert list(table.codes) == codes
    assert list(table.edges) == edges
    assert elements == closure_reference(gen_codes, n)
    assert list(elements) == list(frozenset(dict.fromkeys(codes)))


@pytest.mark.parametrize("switch", [1, 7, 10 ** 9])
@settings(SETTINGS, max_examples=25)
@given(st.sampled_from((2, 3, 9, 11)).flatmap(
    lambda n: st.tuples(st.just(n), generator_lists(n))))
def test_closure_tail_matches_reference(switch, case):
    # 1: numpy from the identity on; 7: handed over mid-BFS on small
    # groups; 10**9: the Python BFS throughout.
    n, gens = case
    G = GenGroup.from_generators(gens, n)
    assert_tail_matches_reference(switch, G.gen_codes, n)


LEVEL27_GENERATORS = {
    "borel": [(2, 0, 0, 1), (1, 0, 0, 2), (1, 1, 0, 1)],
    "split-cartan-normalizer": [(2, 0, 0, 1), (1, 0, 0, 2), (0, 1, 1, 0)],
    "sl2": [(1, 1, 0, 1), (1, 0, 1, 1)],
    "upper-repeat": [(4, 5, 0, 7), (1, 3, 0, 1), (4, 5, 0, 7)],
}


@pytest.mark.parametrize("switch", [1, groups._LEVEL_SWITCH, 10 ** 9])
@pytest.mark.parametrize("name", sorted(LEVEL27_GENERATORS))
def test_closure_tail_matches_reference_at_27(name, switch):
    G = GenGroup.from_generators(LEVEL27_GENERATORS[name], 27)
    assert_tail_matches_reference(switch, G.gen_codes, 27)


def test_tail_raises_on_singular_generator():
    singular = (code_pack(1, 1, 0, 3, 3),)
    with pytest.raises(ValueError, match="not invertible"):
        _closed_with_switch(1, singular, 3)


def test_tail_raises_when_generators_miss_elements(monkeypatch):
    monkeypatch.setattr(groups, "_LEVEL_SWITCH", 1)
    full = standard_subgroup("full", 9)
    G = GenGroup(9, full.gen_codes[:1], "", full.element_codes)
    with pytest.raises(ValueError, match="not the given element set"):
        G.table
    with pytest.raises(ValueError):
        index3_fixing_count(G)


def test_conjugacy_reads_element_sets_not_tables():
    # Generators that miss the given element set make the table raise,
    # but the conjugacy search reads only element sets and G's
    # generators, so it answers as it did before it ran on arrays.
    full = standard_subgroup("full", 9)
    G = GenGroup(9, full.gen_codes[:1], "", full.element_codes)
    borel = standard_subgroup("borel", 9)
    assert groups.is_conjugate_subgroup(borel, G)
    assert groups.is_conjugate_subgroup(G, full)
    assert groups.is_conjugate(G, full)
    assert not groups.is_conjugate_subgroup(G, borel)
    with pytest.raises(ValueError, match="not the given element set"):
        G.table


def _classes_reference(H):
    n = H.modulus
    codes = closure_reference(H.gen_codes + (code_pack(-1, 0, 0, -1, n),),
                              n)
    return frozenset((code_trace(c, n), code_det(c, n)) for c in codes)


@SETTINGS
@given(st.sampled_from((2, 3, 9)).flatmap(
    lambda n: st.tuples(st.just(n), generator_lists(n))))
def test_group_class_set_matches_reference(case):
    n, gens = case
    H = GenGroup.from_generators(gens, n)
    assert group_class_set(H) == _classes_reference(H)


def test_group_class_set_adds_minus_h():
    H = named_group("3B.1.1")
    assert not contains_minus_identity(H)
    classes = group_class_set(H)
    assert classes == _classes_reference(H)
    own = {(code_trace(c, 3), code_det(c, 3)) for c in H.element_codes}
    assert own < classes


def test_one_walk_per_group(monkeypatch):
    # closure() and then both homomorphism searches close the generators
    # once: one table BFS gives the elements and the table, with one
    # edge per product of an element with a generator.
    tables = []
    closure_table = groups._closure_table

    def counting_closure_table(gen_codes, n):
        out = closure_table(gen_codes, n)
        tables.append(out[1])
        return out

    monkeypatch.setattr(groups, "_closure_table", counting_closure_table)
    G = closure([(1, 1, 0, 1), (2, 0, 0, 5), (1, 0, 3, 1)], 9)
    index2_subgroups(G)
    index3_fixing_count(G)
    assert len(tables) == 1
    assert len(tables[0].edges) == G.order * len(G.gen_codes)


def test_singular_generator_is_rejected_from_either_cache():
    singular = (code_pack(1, 1, 0, 3, 3),)
    with pytest.raises(ValueError, match="not invertible"):
        GenGroup(3, singular).element_codes
    with pytest.raises(ValueError, match="not invertible"):
        GenGroup(3, singular).table


@SETTINGS
@given(st.sampled_from((3, 5, 7, 9)).flatmap(
    lambda n: st.tuples(st.just(n), generator_lists(n))))
def test_index2_and_index3_match_reference(case):
    n, gens = case
    G = GenGroup.from_generators(gens, n)
    assert index2_subgroups(G) == index2_reference(G)
    assert_one_homomorphism_per_class(G)


@SETTINGS
@given(generator_lists(9, max_size=2), st.booleans())
def test_level9_searches_match_reference(gens, with_minus_one):
    if with_minus_one:
        gens = gens + [(-1, 0, 0, -1)]
    G = GenGroup.from_generators(gens, 9)
    assert index3_fixing_count(G) == index3_fixing_count_reference(G)
    if contains_minus_identity(G):
        assert (witness_key(index6_complement_search(G))
                == witness_key(index6_reference(G)))


def _no_homomorphisms(*args):
    raise AssertionError("homomorphism search run")


def _pruning_group(seed):
    """A seeded level-9 group on 1-2 generators: uniformly random ones, or
    upper-triangular ones with lower-right entry 4 or 7 (the orbit of
    (0, 1) is then {(0, 1), (0, 4), (0, 7)}) or 1 (they fix (0, 1))."""
    rng = random.Random(seed)
    kind = ("random", "orbit3", "fixed")[seed % 3]
    gens = []
    while len(gens) < 1 + seed // 3 % 2:
        a, b, c, d = (rng.randrange(9) for _ in range(4))
        if kind != "random":
            c, d = 0, rng.choice((4, 7)) if kind == "orbit3" else 1
        if gcd(a * d - b * c, 9) == 1:
            gens.append((a, b, c, d))
    return GenGroup.from_generators(gens, 9)


def test_index3_pruning_by_orbit_size():
    # An index-3 subgroup fixing v lies in Stab_G(v), so only vectors with
    # orbit size 1 or 3 are tried. The seeds cover all three cases: no
    # such vector (the count is 0 without a homomorphism search), orbit-3
    # vectors only, and a fixed vector (every class then counts).
    seen = set()
    for seed in range(24):
        G = _pruning_group(seed)
        sizes = set(_orbit_sizes(G, exact_order_vectors(9)).values())
        count = index3_fixing_count(G)
        assert count == index3_fixing_count_reference(G), seed
        if 1 in sizes:
            seen.add("fixed")
            images = _s3_representatives(len(G.gen_codes))
            assert count == len(list(_homomorphisms(G, _S3_MUL, images)))
        elif 3 in sizes:
            seen.add("orbit3")
        else:
            seen.add("none")
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(action, "_homomorphisms", _no_homomorphisms)
                assert index3_fixing_count(G) == 0
    assert seen == {"none", "orbit3", "fixed"}


def test_index3_pruned_complement_still_raises(monkeypatch):
    # Two of the three generators of a -I complement reach 54 of its 162
    # elements, with no orbit of size 1 or 3: the count would be 0 without
    # a homomorphism search, but the table is read first and raises.
    C = minus_one_complements(standard_subgroup("borel", 9))[0]
    G = GenGroup(9, C.gen_codes[1:], "", C.element_codes)
    sizes = set(_orbit_sizes(G, exact_order_vectors(9)).values())
    assert not sizes & {1, 3}
    assert len(closure_codes(G.gen_codes, 9)) < C.order
    monkeypatch.setattr(action, "_homomorphisms", _no_homomorphisms)
    with pytest.raises(ValueError, match="not the given element set"):
        index3_fixing_count(G)


def orbit_sizes_reference(C, vectors):
    """Size of the orbit of each pair under C, one BFS per orbit with one
    code_act call per pair and generator."""
    n = C.modulus
    size = {}
    for v in vectors:
        if v in size:
            continue
        orbit = [v]
        seen = {v}
        for w in orbit:
            for g in C.gen_codes:
                u = code_act(w, g, n)
                if u not in seen:
                    seen.add(u)
                    orbit.append(u)
        for w in orbit:
            size[w] = len(orbit)
    return size


@SETTINGS
@given(st.sampled_from((3, 5, 9, 11)).flatmap(
    lambda n: st.tuples(st.just(n), generator_lists(n))))
def test_orbit_sizes_match_reference(case):
    n, gens = case
    G = GenGroup.from_generators(gens, n)
    pairs = [(x, y) for x in range(n) for y in range(n)]
    assert action._orbit_sizes(G, pairs) == orbit_sizes_reference(G, pairs)
    vectors = exact_order_vectors(n)
    assert (action._orbit_sizes(G, vectors)
            == orbit_sizes_reference(G, vectors))


def applicable_reference(G):
    """is_applicable as a loop over the element set, testing each trace-0
    det--1 element against every vector of exact order n."""
    n = G.modulus
    if G.order == groups.gl2_order(n):
        return groups.Applicability(False, "not proper")
    if not contains_minus_identity(G):
        return groups.Applicability(False, "-I not in subgroup")
    if not groups.det_surjective(G):
        return groups.Applicability(False, "det not surjective")
    for c in G.element_codes:
        if (code_trace(c, n), code_det(c, n)) == (0, n - 1) \
                and fixes_full_order_vector((c,), n):
            return groups.Applicability(True, "applicable")
    return groups.Applicability(
        False, "no trace-0 det--1 element fixes a full-order vector")


@settings(SETTINGS, max_examples=80)
@given(st.sampled_from((2, 3, 4, 5, 6, 8, 9, 12, 16, 18)).flatmap(
    lambda n: st.tuples(st.just(n), generator_lists(n))))
def test_is_applicable_matches_reference(case):
    # -I joins half the groups, so that more of them reach the last
    # clause; at even n its p = 2 factor can fail.
    n, gens = case
    if len(gens) % 2:
        gens = gens + [(-1, 0, 0, -1)]
    G = GenGroup.from_generators(gens, n)
    assert groups.is_applicable(G) == applicable_reference(G)


def trace0_det_minus1_codes(n):
    """Every code mod n of trace 0 and det -1, in code order."""
    x = np.arange(n ** 4, dtype=np.int64)
    return x[(code_trace(x, n) == 0) & (code_det(x, n) == n - 1)]


def applicable_on(g, n):
    """is_applicable on the element set {g, -I}, given generators whose
    determinants cover the units: the first three clauses pass, so the
    last one decides, on g alone (-I has trace 0 only at n = 2, where it
    is I and fixes every vector)."""
    gens = tuple(code_pack(1, 0, 0, u, n) for u in range(1, n)
                 if gcd(u, n) == 1)
    minus = code_pack(-1, 0, 0, -1, n)
    return groups.is_applicable(
        GenGroup(n, gens, "", frozenset({g, minus}))).ok


@pytest.mark.parametrize("n", [2, 4, 6, 8, 9, 12, 16, 18])
def test_applicability_matches_enumeration_per_element(n):
    # Each element of trace 0 and det -1 against every vector of exact
    # order n; at n = 4, 8, 12 and 16 some of them fix none.
    codes = trace0_det_minus1_codes(n)
    x, y = np.array(exact_order_vectors(n), dtype=np.int64).T
    wx, wy = code_act((x, y), codes[:, None], n)
    fixes = ((wx == x) & (wy == y)).any(axis=1).tolist()
    assert [applicable_on(g, n) for g in codes.tolist()] == fixes
    assert all(fixes) == (n % 4 != 0)


@pytest.mark.parametrize("n", [3, 5, 7, 9, 15, 21, 25, 27])
def test_applicability_at_odd_levels(n):
    # At odd n every element of trace 0 and det -1 fixes a vector of
    # exact order n, so the last clause holds whenever G has one.
    assert all(applicable_on(g, n)
               for g in trace0_det_minus1_codes(n).tolist())


@pytest.mark.parametrize("n, gens", [
    (9, [(2, 0, 0, 1), (1, 0, 0, 2), (-1, 0, 0, -1)]),
    (37, [(2, 0, 0, 1), (1, 0, 0, 2), (1, 1, 0, 1)]),
    (101, [(2, 0, 0, 1), (-1, 0, 0, -1), (1, 0, 0, 3)]),
    (101, [(0, 1, 1, 0), (-1, 0, 0, -1), (3, 0, 0, 3), (1, 0, 0, 2)]),
])
def test_is_applicable_at_large_levels(n, gens):
    # At these levels an array of n^4 entries would not fit in memory;
    # is_applicable and the class counts read only the group's codes.
    G = closure(gens, n)
    assert groups.is_applicable(G) == applicable_reference(G)
    assert groups.is_applicable(G).ok
    assert groups._class_counts(G) == Counter(
        (code_trace(c, n), code_det(c, n)) for c in G.element_codes)


def test_table_layout():
    # Identity first, then BFS order; each edge names codes[i] * gen_j.
    G = GenGroup.from_generators([(1, 1, 0, 1), (1, 1, 0, 1), (1, 0, 0, 1),
                                  (2, 0, 0, 1)], 3)
    codes, edges = G.table
    k = len(G.gen_codes)
    assert codes[0] == code_pack(1, 0, 0, 1, 3)
    assert sorted(codes) == sorted(G.element_codes)
    assert len(edges) == len(codes) * k
    # No edge runs ahead of the numbering, so the tree edges, those whose
    # target is the next index not yet reached, reach 1, 2, ... in order.
    tree = []
    for pos, e in enumerate(edges):
        i, j = divmod(pos, k)
        assert 0 <= e <= len(tree) + 1
        if e == len(tree) + 1:
            tree.append(j)
        assert codes[e] == code_mul(codes[i], G.gen_codes[j], 3)
    assert len(tree) == len(codes) - 1
    # The repeated generator and the identity only give check edges.
    assert set(tree) <= {0, 3}


def test_table_is_cached_and_not_compared():
    G = closure([(1, 1, 0, 1), (2, 0, 0, 5)], 9, "B")
    fresh = GenGroup(9, G.gen_codes, "B")
    table = G.table
    assert G.table is table
    assert G == fresh and hash(G) == hash(fresh)
    assert repr(G) == repr(fresh)
    assert fresh.table == table


def test_table_raises_when_generators_miss_elements():
    full = standard_subgroup("full", 9)
    G = GenGroup(9, full.gen_codes[:1], "", full.element_codes)
    with pytest.raises(ValueError, match="not the given element set"):
        G.table
    with pytest.raises(ValueError):
        index2_subgroups(G)
    with pytest.raises(ValueError):
        index3_fixing_count(G)


def test_trivial_group_without_generators():
    G = GenGroup.from_codes([code_pack(1, 0, 0, 1, 5)], 5)
    assert G.gen_codes == ()
    assert index2_subgroups(G) == index2_reference(G) == []
    assert index3_reference(G) == []
    assert_one_homomorphism_per_class(G)


@settings(SETTINGS, max_examples=60)
@given(st.sampled_from((5, 7, 9, 11)).flatmap(
    lambda n: st.tuples(st.just(n), generator_lists(n))))
def test_det_image_matches_elementwise(case):
    n, gens = case
    G = GenGroup.from_generators(gens, n)
    assert det_image(G) == frozenset(code_det(c, n)
                                     for c in G.element_codes)


def _s3_mul(p, q):
    return (q[p[0]], q[p[1]], q[p[2]])


def _s3_transitive(assign):
    """Whether the permutations generate a transitive subgroup of S3, by
    closing the subgroup they generate."""
    group = {(0, 1, 2)}
    while True:
        more = group | {_s3_mul(p, S3[v]) for p in group for v in assign}
        if more == group:
            return {p[0] for p in group} == {0, 1, 2}
        group = more


def _s3_conjugates(assign):
    inverse = {p: next(q for q in S3 if _s3_mul(p, q) == (0, 1, 2))
               for p in S3}
    return {tuple(S3.index(_s3_mul(_s3_mul(inverse[s], S3[v]), s))
                  for v in assign) for s in S3}


@pytest.mark.parametrize("k, count", [(1, 1), (2, 7), (3, 41), (4, 235)])
def test_s3_representatives(k, count):
    # Indices into _S3, whose order the reference's S3 repeats.
    assert _S3 == S3
    reps = _s3_representatives(k)
    assert len(reps) == count
    assert all(_s3_transitive(a) for a in reps)
    rep_set = set(reps)
    for assign in itertools.product(range(6), repeat=k):
        if _s3_transitive(assign):
            assert len(_s3_conjugates(assign) & rep_set) == 1, assign


def _level9_groups():
    """The standard subgroups at level 9 and the catalog level-9 groups,
    each followed by its -I complements."""
    groups_ = [standard_subgroup(kind, 9) for kind in STANDARD_KINDS]
    groups_ += [named_group(label) for label in EMBEDDED_LEVEL9]
    out = []
    for G in groups_:
        out.append(G)
        if contains_minus_identity(G):
            out.extend(minus_one_complements(G))
    return out


LEVEL9_GROUPS = _level9_groups()


COMPLEMENT_PARENTS = [G for G in LEVEL9_GROUPS + [
    named_group(label) for label in NAMED_GROUP_GENERATORS
    if label not in EMBEDDED_LEVEL9] if contains_minus_identity(G)]


@pytest.mark.parametrize("H", COMPLEMENT_PARENTS,
                         ids=[f"{H.label}@{H.modulus}"
                              for H in COMPLEMENT_PARENTS])
def test_complements_carry_projected_generators(H):
    n = H.modulus
    minus = code_pack(-1, 0, 0, -1, n)
    kernels = [s for s in index2_subgroups(H) if minus not in s]
    comps = minus_one_complements(H)
    assert [C.element_codes for C in comps] == kernels
    for C, s in zip(comps, kernels):
        assert set(C.gen_codes) <= s
        assert len(C.gen_codes) <= len(H.gen_codes)
        assert closure_codes(C.gen_codes, n) == s


@pytest.mark.parametrize("G", LEVEL9_GROUPS,
                         ids=[G.label for G in LEVEL9_GROUPS])
def test_index3_matches_reference_on_level9_groups(G):
    assert_one_homomorphism_per_class(G)
    assert index3_fixing_count(G) == index3_fixing_count_reference(G)


@pytest.mark.parametrize("G, nsubs, nclasses", [
    (named_group("9H0-9b"), 13, 5),
    (named_group("9B0-9a"), 7, 5),
    (named_group("9J0-9b"), 4, 2),
    (standard_subgroup("split-cartan", 9), 4, 4),
], ids=["9H0-9b", "9B0-9a", "9J0-9b", "split-cartan"])
def test_index3_class_counts(G, nsubs, nclasses):
    # One homomorphism per class: the S3 search over conjugacy
    # representatives finds as many as the conjugation BFS finds classes.
    subs = index3_reference(G)
    assert len(subs) == nsubs
    assert len(_conjugacy_classes(G, subs)) == nclasses
    images = _s3_representatives(len(G.gen_codes))
    assert len(list(_homomorphisms(G, _S3_MUL, images))) == nclasses


def _is_normal(G, codes):
    n = G.modulus
    return all(frozenset(code_mul(code_mul(code_inverse(g, n), c, n), g, n)
                         for c in codes) == codes for g in G.gen_codes)


def test_index3_from_c3_images_only():
    # An abelian group maps onto C3, never onto S3: every index-3
    # subgroup is normal.
    G = standard_subgroup("split-cartan", 9)
    subs = index3_reference(G)
    assert len(subs) == 4
    assert all(_is_normal(G, s) for s in subs)
    assert_one_homomorphism_per_class(G)


def test_index3_from_s3_images():
    # 9H0-9b maps onto S3: besides the one normal index-3 subgroup (a C3
    # image), the point stabilizers of S3 images are not normal.
    G = named_group("9H0-9b")
    subs = index3_reference(G)
    assert len(subs) == 13
    assert sum(_is_normal(G, s) for s in subs) == 1
    assert_one_homomorphism_per_class(G)


def first_conjugator_reference(G, H):
    """The least invertible x below n^4 that maps the whole element set
    of G into H by x^-1 g x, or None."""
    n = G.modulus
    hc = H.element_codes
    for x in range(n ** 4):
        if gcd(code_det(x, n), n) == 1:
            xi = code_inverse(x, n)
            if all(code_mul(code_mul(xi, g, n), x, n) in hc
                   for g in G.element_codes):
                return x
    return None


def conjugate_into_reference(G, H):
    """Whether some invertible x below n^4 maps the whole element set of
    G into H by x^-1 g x."""
    return first_conjugator_reference(G, H) is not None


def _conjugate_by(G, x):
    n = G.modulus
    xi = code_inverse(x, n)
    return GenGroup(n, tuple(code_mul(code_mul(xi, g, n), x, n)
                             for g in G.gen_codes))


def _conjugacy_pairs(n):
    """Seeded pairs at level n, by kind: ("conjugate", G, x^-1 G x),
    ("subgroup", S, G) for S = x^-1 <g1> x a proper subgroup of a
    conjugate of G = <g1, g2>, and, among all the groups, ("same order",
    A, B) for distinct groups of equal order and ("divides", A, B) when
    |A| properly divides |B|. Groups take 1-2 random or upper-triangular
    generators; the reflection diag(-1, 1), -I and the swap join them
    (at even n > 2 the reflection and the swap share their trace and det
    classes but are not conjugate)."""
    rng = random.Random(n)
    full = groups._full_codes(n).tolist()
    family = [closure([g], n) for g in
              ((-1, 0, 0, 1), (-1, 0, 0, -1), (0, 1, 1, 0))]
    pairs = []
    for i in range(12):
        kind = ("random", "upper")[i % 2]
        gens = [_matrix(kind, rng.randrange(2 ** 32), n)
                for _ in range(1 + i // 2 % 2)]
        G = closure(gens, n)
        if n == 9 and G.order > 216:
            continue  # keeps the reference's searches short
        family.append(G)
        pairs.append(("conjugate", G, _conjugate_by(G, rng.choice(full))))
        S = closure(gens[:1], n)
        if S.order < G.order:
            pairs.append(("subgroup", _conjugate_by(S, rng.choice(full)), G))
    for A, B in itertools.combinations(family, 2):
        A, B = sorted((A, B), key=lambda K: K.order)
        if A.element_codes == B.element_codes or B.order % A.order:
            continue
        pairs.append(("same order" if A.order == B.order else "divides",
                      A, B))
    return pairs


@pytest.mark.parametrize("n", [2, 3, 4, 5, 7, 9, 11])
def test_conjugacy_matches_reference(n):
    seen = Counter()
    for kind, G, H in _conjugacy_pairs(n):
        into = conjugate_into_reference(G, H)
        assert groups.is_conjugate_subgroup(G, H) == into, (kind, G, H)
        assert groups.is_conjugate(G, H) == (G.order == H.order and into)
        seen[kind, into] += 1
    assert seen["conjugate", True] >= 6 and seen["subgroup", True] >= 2
    assert seen["divides", True] >= 1
    if n != 2:  # In GL2(F2) = S3, subgroups of equal order are conjugate.
        assert seen["same order", False] >= 1 and seen["divides", False] >= 1


@pytest.mark.parametrize("n", [2, 3, 4, 5, 7, 9, 11])
def test_class_counts_count_trace_det_classes(n):
    for kind, G, H in _conjugacy_pairs(n):
        for K in (G, H):
            assert groups._class_counts(K) == Counter(
                (code_trace(c, n), code_det(c, n)) for c in K.element_codes)
        if kind == "conjugate":
            assert groups._class_counts(G) == groups._class_counts(H)


@pytest.mark.parametrize("n", [4, 7, 11])
def test_conjugacy_search_blocks(n, monkeypatch):
    # GL2 has 96, 2,016 and 13,200 elements: one partial block, and 8 and
    # 52 blocks of which the last is partial. Each true pair is found at
    # the block size in use and with a block boundary just before and
    # just after its first conjugator, at its index f in code order.
    full = groups._full_codes(n).tolist()
    block = groups._CONJUGATOR_BLOCK
    where = Counter()
    for kind, G, H in _conjugacy_pairs(n):
        x = first_conjugator_reference(G, H)
        if x is None:
            continue
        f = full.index(x)
        where["first block" if f < block else "later block"] += 1
        if f >= len(full) // block * block:
            where["last, partial block"] += 1
        for size in (block, f, f + 1):
            monkeypatch.setattr(groups, "_CONJUGATOR_BLOCK", max(1, size))
            assert groups.is_conjugate_subgroup(G, H), (kind, f, size)
        monkeypatch.undo()
    if n == 4:
        assert where["last, partial block"] == where["first block"] > 0
    else:
        assert where["later block"] >= 2 and where["first block"] >= 2


@pytest.mark.parametrize("n", [6, 10])
def test_conjugacy_search_scans_every_block(n, monkeypatch):
    # The reflection and the swap have equal class counts at even n but
    # are not conjugate, so the search tests every block: 2 at n = 6
    # (288 elements) and 12 at n = 10 (2,880), the last one partial.
    reflection = closure([(-1, 0, 0, 1)], n)
    swap = closure([(0, 1, 1, 0)], n)
    assert groups._class_counts(reflection) == groups._class_counts(swap)
    blocks = []
    pack = groups.code_pack

    def counting_pack(*args):  # one call per block
        blocks.append(args[0].shape)
        return pack(*args)

    monkeypatch.setattr(groups, "code_pack", counting_pack)
    assert not groups.is_conjugate_subgroup(reflection, swap)
    size = len(groups._full_codes(n))
    block = groups._CONJUGATOR_BLOCK
    assert len(blocks) == -(-size // block)
    assert blocks[-1] == (1, size % block)
    assert not conjugate_into_reference(reflection, swap)


@pytest.mark.parametrize("n", range(2, 13))
def test_full_codes_match_scan(n):
    assert groups._full_codes(n).tolist() == [
        x for x in range(n ** 4) if gcd(code_det(x, n), n) == 1]


def test_conjugacy_rejects_mismatched_levels():
    G, H = closure([(1, 1, 0, 1)], 3), closure([(1, 1, 0, 1)], 9)
    for f in (groups.is_conjugate, groups.is_conjugate_subgroup):
        with pytest.raises(ValueError, match="modulus mismatch"):
            f(G, H)
