"""The table-driven closure and subgroup searches against element-wise
references.

The closure reference is the set BFS that `groups` ran before the table
BFS gave a group its element set. The homomorphism reference propagates
each assignment of generator images over the Cayley graph with code_mul
and a dict, the way `action` did before it kept a Cayley table on the
group; the index-6 reference takes every orbit with `orbit_of_vector`
over the whole element set. Random generator lists include the identity
and repeated generators, which give the table self-loops and duplicate
check edges."""

import itertools
import random
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gl2tors import groups
from gl2tors.action import (ComplementWitness, _conjugacy_classes,
                            index2_subgroups, index3_fixing_count,
                            index3_subgroups, index6_complement_search,
                            orbit_of_vector)
from gl2tors.catalog import named_group
from gl2tors.elliptic import group_class_set
from gl2tors.groups import (GenGroup, closure, closure_codes,
                            contains_minus_identity, det_image,
                            exact_order_vectors, fixes_full_order_vector,
                            standard_subgroup)
from gl2tors.modmat import TorVec, code_det, code_mul, code_pack, code_trace

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
    out = []
    for C in candidates:
        for x, y in exact_order_vectors(n):
            if len(orbit_of_vector(C.element_codes, (x, y), n)) == 6:
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
    # closure() and then both homomorphism searches make each product of
    # an element with a generator once: the table BFS gives the elements.
    calls = []

    def counting_mul(x, g, n):
        calls.append(None)
        return code_mul(x, g, n)

    monkeypatch.setattr(groups, "code_mul", counting_mul)
    G = closure([(1, 1, 0, 1), (2, 0, 0, 5), (1, 0, 3, 1)], 9)
    index2_subgroups(G)
    index3_subgroups(G)
    assert len(calls) == G.order * len(G.gen_codes)


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
    assert index3_subgroups(G) == index3_reference(G)


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


def test_table_layout():
    # Identity first, then BFS order; each edge names codes[i] * gen_j.
    G = GenGroup.from_generators([(1, 1, 0, 1), (1, 1, 0, 1), (1, 0, 0, 1),
                                  (2, 0, 0, 1)], 3)
    codes, edges = G.table
    k = len(G.gen_codes)
    assert codes[0] == code_pack(1, 0, 0, 1, 3)
    assert sorted(codes) == sorted(G.element_codes)
    assert len(edges) == len(codes) * k
    tree = [~e for e in edges if e < 0]
    assert tree == list(range(1, len(codes)))
    for pos, e in enumerate(edges):
        i, j = divmod(pos, k)
        dst = ~e if e < 0 else e
        assert codes[dst] == code_mul(codes[i], G.gen_codes[j], 3)
    # The repeated generator and the identity only give check edges.
    assert all(e >= 0 for e in edges[1::k]) and all(e >= 0
                                                    for e in edges[2::k])


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
        index3_subgroups(G)


def test_trivial_group_without_generators():
    G = GenGroup.from_codes([code_pack(1, 0, 0, 1, 5)], 5)
    assert G.gen_codes == ()
    assert index2_subgroups(G) == index2_reference(G) == []
    assert index3_subgroups(G) == index3_reference(G) == []


@settings(SETTINGS, max_examples=60)
@given(st.sampled_from((5, 7, 9, 11)).flatmap(
    lambda n: st.tuples(st.just(n), generator_lists(n))))
def test_det_image_matches_elementwise(case):
    n, gens = case
    G = GenGroup.from_generators(gens, n)
    assert det_image(G) == frozenset(code_det(c, n)
                                     for c in G.element_codes)
