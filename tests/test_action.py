"""Orbit-stabilizer records and the small-index subgroup searches."""

import random
from math import gcd

import pytest

from gl2tors.action import (ComplementWitness, index2_subgroups,
                            index3_fixing_count, index6_complement_search,
                            minus_one_complements, orbit_stabilizer)
from gl2tors.catalog import EMBEDDED_LEVEL9, named_group
from gl2tors.groups import GenGroup, reduce_level, standard_subgroup
from gl2tors.modmat import GMat, TorVec, code_act, vector_exact_order


def test_orbit_stabilizer_full_gl2f3():
    G = standard_subgroup("full", 3)
    rec = orbit_stabilizer(G, TorVec(1, 0, 3))
    assert rec.orbit_size == 8
    assert rec.stabilizer.order == 6
    assert rec.orbit_size * rec.stabilizer.order == G.order
    assert rec.orbit == frozenset(TorVec(x, y, 3) for x in range(3)
                                  for y in range(3)) - {TorVec(0, 0, 3)}


def test_orbit_stabilizer_borel():
    B = named_group("3B.1.1")
    rec = orbit_stabilizer(B, TorVec(1, 0, 3))
    assert rec.orbit == frozenset(
        (TorVec(1, 0, 3), TorVec(1, 1, 3), TorVec(1, 2, 3)))
    assert rec.stabilizer.order == 2


def orbit_stabilizer_reference(G, v):
    """The orbit pairs and the stabilizer codes of v under G, from one
    code_act per element; the oracle for orbit_stabilizer."""
    p = (v.x, v.y)
    orbit = set()
    stab = []
    for c in G.element_codes:
        w = code_act(p, c, G.modulus)
        orbit.add(w)
        if w == p:
            stab.append(c)
    return orbit, frozenset(stab)


def _orbit_cases():
    """Seeded (group, vector) pairs at levels 2, 3, 5, 9 and 27: unlabelled
    groups on one or two random generators, labelled standard subgroups
    (the nonsplit kinds among them built by `from_codes`), and element
    sets rewrapped by `from_codes` with and without a label, each with a
    random vector."""
    rng = random.Random(33)
    cases = []
    while len(cases) < 240:
        n = rng.choice((2, 3, 5, 9, 27))
        kind = rng.randrange(3)
        if kind == 0:
            k = rng.randint(1, 2 if n < 27 else 1)
            gens = []
            while len(gens) < k:
                a, b, c, d = (rng.randrange(n) for _ in range(4))
                if gcd(a * d - b * c, n) == 1:
                    gens.append(GMat(a, b, c, d, n).code())
            G = GenGroup(n, tuple(gens))
        elif kind == 1:
            kinds = ["full", "sl2"] if n < 27 else []
            if n > 2:
                kinds += ["borel", "split-cartan", "split-cartan-normalizer",
                          "nonsplit-cartan", "nonsplit-cartan-normalizer"]
            G = standard_subgroup(rng.choice(kinds), n)
        else:
            H = standard_subgroup("borel" if n > 2 else "full", n)
            G = GenGroup.from_codes(H.element_codes, n,
                                    rng.choice(("", f"B{n}")))
        cases.append((G, TorVec(rng.randrange(n), rng.randrange(n), n)))
    return cases


def test_orbit_stabilizer_matches_the_element_loop():
    cases = _orbit_cases()
    assert {G.modulus for G, _ in cases} == {2, 3, 5, 9, 27}
    assert any(G.label for G, _ in cases)
    assert any(not G.label for G, _ in cases)
    for G, v in cases:
        orbit, stab = orbit_stabilizer_reference(G, v)
        rec = orbit_stabilizer(G, v)
        assert rec.orbit == frozenset(TorVec(x, y, G.modulus)
                                      for x, y in orbit)
        assert rec.stabilizer.element_codes == stab
        assert rec.stabilizer.label == (
            f"stab({v.x},{v.y}) in {G.label}" if G.label
            else f"stab({v.x},{v.y})")


def test_orbit_modulus_mismatch():
    with pytest.raises(ValueError, match="modulus mismatch"):
        orbit_stabilizer(named_group("3B.1.1"), TorVec(1, 0, 9))


def test_embedded_level9_orders():
    assert named_group("9B0-9a").order == 324
    assert named_group("9H0-9b").order == 108
    assert named_group("9J0-9b").order == 108


def test_minus_one_complements():
    expected = {"9B0-9a": [162, 162], "9H0-9b": [54, 54], "9J0-9b": [54, 54]}
    minus = GMat(-1, 0, 0, -1, 9)
    for lab in EMBEDDED_LEVEL9:
        H = named_group(lab)
        comps = minus_one_complements(H)
        assert [C.order for C in comps] == expected[lab]
        assert [C.label for C in comps] == [f"{lab}-comp1", f"{lab}-comp2"]
        for C in comps:
            assert minus not in C
            assert C.element_codes <= H.element_codes
    with pytest.raises(ValueError, match="-I"):
        minus_one_complements(named_group("3B.1.1"))


def test_complements_reduce_mod3():
    expected = {"9B0-9a": [6, 6], "9H0-9b": [2, 2], "9J0-9b": [6, 6]}
    for lab in EMBEDDED_LEVEL9:
        orders = [reduce_level(C, 3).order
                  for C in minus_one_complements(named_group(lab))]
        assert orders == expected[lab]
        assert all(6 % o == 0 for o in orders)


def test_index2_subgroups_sizes():
    H = named_group("9H0-9b")
    subs = index2_subgroups(H)
    assert all(len(s) == H.order // 2 for s in subs)
    assert len(subs) >= 2


def test_index3_fixing_counts():
    for lab in EMBEDDED_LEVEL9:
        H = named_group(lab)
        counts = [index3_fixing_count(H)]
        counts += [index3_fixing_count(C) for C in minus_one_complements(H)]
        assert counts == [0, 0, 1], lab
        assert all(c <= 2 for c in counts)


def test_index3_fixing_count_guards():
    with pytest.raises(ValueError, match="level 9"):
        index3_fixing_count(named_group("3B.1.1"))
    trivial = GenGroup.from_generators([(1, 0, 0, 1)], 9)
    assert index3_fixing_count(trivial) == 0


def test_index6_witnesses():
    for lab in EMBEDDED_LEVEL9:
        wits = index6_complement_search(named_group(lab))
        assert len(wits) == 36, lab
        assert all(w.index == 6 for w in wits)
        assert all(vector_exact_order(w.vector) == 9 for w in wits)
        assert all(w.verify() for w in wits)


def test_index6_first_witness_9h():
    wits = index6_complement_search(named_group("9H0-9b"))
    first = wits[0]
    assert first.subgroup.label == "9H0-9b"
    assert (first.vector.x, first.vector.y) == (1, 2)


def test_index6_full_group_has_none():
    assert index6_complement_search(standard_subgroup("full", 9)) == []


def test_index6_level_guard():
    with pytest.raises(ValueError, match="level 9"):
        index6_complement_search(named_group("3B.1.1"))


def test_witness_verify_rejects_wrong_index():
    bad = ComplementWitness(named_group("9H0-9b"), TorVec(1, 2, 9), 5)
    assert not bad.verify()
