"""Group closure, standard subgroups, applicability, classification."""

import math
import random

import pytest

from gl2tors.catalog import named_group
from gl2tors.groups import (STANDARD_KINDS, GenGroup, _full_codes,
                            _projective_order, closure,
                            contains_minus_identity, det_image,
                            det_surjective, dickson_classify,
                            exact_order_vectors, gl2_order,
                            greedy_generators, is_applicable, is_conjugate,
                            is_conjugate_subgroup, reduce_level,
                            stable_lines, standard_order, standard_subgroup)
from gl2tors.modmat import (GMat, code_act, code_entries, code_inverse,
                            code_mul, code_pack)


def test_gl2_order():
    assert gl2_order(2) == 6
    assert gl2_order(3) == 48
    assert gl2_order(9) == 3888
    assert gl2_order(27) == 314928
    assert gl2_order(5) == 480
    with pytest.raises(ValueError):
        gl2_order(1)


def test_full_group_closure():
    G3 = standard_subgroup("full", 3)
    assert G3.order == 48
    assert G3.label == "GL2(F3)"
    G9 = standard_subgroup("full", 9)
    assert G9.order == 3888
    assert G9.label == "GL2(Z/9)"
    G27 = standard_subgroup("full", 27)
    assert G27.order == 314928


def test_standard_orders_match_formulas():
    for p in (3, 5, 7):
        for kind in STANDARD_KINDS:
            G = standard_subgroup(kind, p)
            assert G.order == standard_order(kind, p), (kind, p)
            # Attached generators must regenerate the element set.
            reclosed = closure([g.entries() for g in G.generators], p)
            assert reclosed.order == G.order, (kind, p)


@pytest.mark.parametrize("p,k", [(3, 2), (5, 2), (3, 3), (7, 2)])
def test_nonsplit_orders_at_prime_powers(p, k):
    # The units of Z/p^k[sqrt(phi)], and the normalizer doubles them.
    order = p ** (2 * k - 2) * (p * p - 1)
    assert standard_subgroup("nonsplit-cartan", p ** k).order == order
    assert standard_subgroup("nonsplit-cartan-normalizer",
                             p ** k).order == 2 * order


def test_standard_subgroup_errors():
    with pytest.raises(ValueError, match="unknown kind"):
        standard_subgroup("weird", 5)
    with pytest.raises(ValueError, match="odd prime power"):
        standard_subgroup("split-cartan", 2)
    with pytest.raises(ValueError, match="prime power"):
        standard_subgroup("full", 6)


def test_borel_mod3():
    B = named_group("3B.1.1")
    assert B.order == 6
    assert B.index == 8
    assert not contains_minus_identity(B)
    assert det_image(B) == frozenset({1, 2})
    assert det_surjective(B)
    assert GMat(1, 1, 0, 1, 3) in B
    assert GMat(0, 1, 1, 0, 3) not in B
    assert GMat(1, 1, 0, 1, 9) not in B  # wrong modulus


def test_closure_rejects_singular_generator():
    with pytest.raises(ValueError, match="not invertible"):
        closure([(1, 1, 0, 3)], 3)
    with pytest.raises(ValueError, match="does not match"):
        GenGroup.from_generators([GMat(1, 0, 0, 1, 3)], 9)


def test_from_generators_caps_the_row_tables():
    # k generators at level n need k*n^2 row-table entries; 10^6 is the
    # most accepted.
    assert GenGroup.from_generators([(1, 0, 0, 1)], 1000).modulus == 1000
    four = GenGroup.from_generators([(1, 0, 0, 1)] * 4, 500)
    assert len(four.gen_codes) == 4
    with pytest.raises(ValueError, match="1002001 row-table entries"):
        GenGroup.from_generators([(1, 0, 0, 1)], 1001)
    with pytest.raises(ValueError, match="1008005 row-table entries"):
        GenGroup.from_generators([(1, 0, 0, 1)] * 5, 449)


def test_greedy_generators_roundtrip():
    B = standard_subgroup("borel", 5)
    G = GenGroup.from_codes(B.element_codes, 5)
    assert G.order == B.order == 80
    assert len(greedy_generators(B.element_codes, 5)) <= 4


def test_equality_compares_generators_not_elements():
    a = code_pack(1, 1, 0, 1, 9)
    b = code_pack(2, 0, 0, 5, 9)
    G = GenGroup(9, (a, b), "B")
    H = GenGroup(9, (b, a), "B")
    assert G.element_codes == H.element_codes
    assert G != H
    assert G == GenGroup(9, (a, b), "B")
    assert hash(G) == hash(GenGroup(9, (a, b), "B"))
    assert G != GenGroup(9, (a, b), "other")


def test_applicability_reasons():
    assert is_applicable(standard_subgroup("full", 9)).reason == "not proper"
    assert is_applicable(named_group("3B.1.1")).reason == "-I not in subgroup"
    assert is_applicable(
        standard_subgroup("sl2", 3)).reason == "det not surjective"
    r = is_applicable(standard_subgroup("nonsplit-cartan", 3))
    assert not r.ok
    assert r.reason == "no trace-0 det--1 element fixes a full-order vector"
    ok = is_applicable(named_group("9B0-9a"))
    assert ok.ok and ok.reason == "applicable"


def test_is_conjugate():
    B1 = named_group("3B.1.1")
    B2 = named_group("3B.1.2")
    assert not is_conjugate(B1, B2)
    # Conjugating by the antidiagonal gives the lower-triangular copy.
    conj = closure([(2, 0, 0, 1), (1, 0, 1, 1)], 3)
    assert is_conjugate(B1, conj)
    with pytest.raises(ValueError, match="modulus mismatch"):
        is_conjugate(B1, named_group("9B0-9a"))


def test_is_conjugate_subgroup():
    B1 = named_group("3B.1.1")
    borel = standard_subgroup("borel", 3)
    assert is_conjugate_subgroup(B1, borel)
    assert is_conjugate_subgroup(named_group("3Cs.1.1"), B1)
    assert not is_conjugate_subgroup(standard_subgroup("sl2", 3), B1)


@pytest.mark.parametrize("n", [2, 3, 5, 9])
def test_full_codes_are_the_full_group(n):
    assert _full_codes(n).tolist() == sorted(
        standard_subgroup("full", n).element_codes)


@pytest.mark.parametrize("n", [6, 12, 18])
def test_conjugacy_at_composite_levels(n):
    assert len(_full_codes(n)) == gl2_order(n)
    G = closure([(1, 1, 0, 1), (-1, 0, 0, 1)], n)
    rng = random.Random(n)
    x = rng.choice(_full_codes(n).tolist())
    xi = code_inverse(x, n)
    H = closure([code_entries(code_mul(code_mul(xi, g, n), x, n), n)
                 for g in G.gen_codes], n)
    assert H.element_codes != G.element_codes
    assert is_conjugate(G, H)
    assert is_conjugate_subgroup(G, H)
    assert is_conjugate_subgroup(closure([(1, 1, 0, 1)], n), H)
    reflection = closure([(-1, 0, 0, 1)], n)
    minus = closure([(-1, 0, 0, -1)], n)
    assert not is_conjugate(reflection, minus)
    assert not is_conjugate_subgroup(reflection, minus)
    # Same order, traces and determinants: only the search tells them
    # apart, since diag(-1, 1) is the identity mod 2 and the swap is not.
    swap = closure([(0, 1, 1, 0)], n)
    assert not is_conjugate(reflection, swap)
    assert not is_conjugate_subgroup(reflection, swap)


def test_stable_lines():
    assert stable_lines(named_group("3B.1.1")) == 1
    assert stable_lines(named_group("3B.1.2")) == 1
    assert stable_lines(standard_subgroup("full", 3)) == 0
    assert stable_lines(standard_subgroup("sl2", 3)) == 0
    assert stable_lines(standard_subgroup("split-cartan", 3)) == 2


def stable_lines_reference(G):
    """Each line of (Z/n)^2 as the frozenset of multiples of one vector of
    exact order n; a line is stable when each generator maps that vector
    into it."""
    n = G.modulus
    lines = {}
    for x, y in exact_order_vectors(n):
        key = frozenset((k * x % n, k * y % n) for k in range(n))
        lines.setdefault(key, (x, y))
    return sum(1 for key, v in lines.items()
               if all(code_act(v, g, n) in key for g in G.gen_codes))


def _random_unit_code(rng, n, upper):
    """A random invertible packed matrix mod n, upper triangular when
    upper is set (so that some lines are stable)."""
    while True:
        a, b, c, d = (rng.randrange(n) for _ in range(4))
        c = 0 if upper else c
        if math.gcd(a * d - b * c, n) == 1:
            return code_pack(a, b, c, d, n)


@pytest.mark.parametrize("n", range(3, 28))
def test_stable_lines_matches_line_sets(n):
    groups = []
    for kind in STANDARD_KINDS:
        try:
            groups.append(standard_subgroup(kind, n))
        except ValueError:
            pass
    rng = random.Random(n)
    for _ in range(8):
        k = rng.randint(1, 3)
        upper = rng.random() < 0.5
        groups.append(GenGroup(n, tuple(_random_unit_code(rng, n, upper)
                                        for _ in range(k))))
    for G in groups:
        assert stable_lines(G) == stable_lines_reference(G), (n, G)


def test_dickson_classify():
    assert dickson_classify(named_group("3B.1.1")).tag == "borel-contained"
    assert dickson_classify(
        standard_subgroup("full", 3)).tag == "contains-SL2"
    assert dickson_classify(
        standard_subgroup("sl2", 3)).tag == "contains-SL2"
    assert dickson_classify(
        standard_subgroup("split-cartan", 3)).tag == "borel-contained"
    N = standard_subgroup("split-cartan-normalizer", 3)
    cls = dickson_classify(N)
    assert cls.tag == "split-cartan-normalizer"
    assert cls.projective_order == 4
    assert dickson_classify(
        standard_subgroup("nonsplit-cartan", 3)
    ).tag == "nonsplit-cartan-normalizer"
    with pytest.raises(ValueError, match="odd prime"):
        dickson_classify(named_group("9B0-9a"))


def test_reduce_level():
    assert reduce_level(named_group("9H0-9b"), 3).order == 4
    assert reduce_level(named_group("9B0-9a"), 3).order == 12
    assert reduce_level(named_group("9J0-9b"), 3).order == 12
    with pytest.raises(ValueError, match="does not divide"):
        reduce_level(named_group("3B.1.1"), 2)
    with pytest.raises(ValueError):
        reduce_level(named_group("9B0-9a"), 1)


def test_exact_order_and_fixed_vectors():
    assert len(exact_order_vectors(9)) == 72
    assert len(exact_order_vectors(3)) == 8
    assert exact_order_vectors(3) == [(0, 1), (0, 2), (1, 0), (1, 1),
                                      (1, 2), (2, 0), (2, 1), (2, 2)]
    M = code_pack(1, 1, 0, 1, 3)
    fixed = [(x, y) for x in range(3) for y in range(3)
             if code_act((x, y), M, 3) == (x, y)]
    assert fixed == [(0, 0), (0, 1), (0, 2)]


def _projective_order_by_scalar_classes(G):
    """Oracle: count the classes of G under multiplication by scalars."""
    n = G.modulus
    scalars = [code_pack(u, 0, 0, u, n) for u in range(1, n)]
    return len({min(code_mul(s, c, n) for s in scalars)
                for c in G.element_codes})


@pytest.mark.parametrize("p", [3, 5, 7, 11])
@pytest.mark.parametrize("kind", ["full", "borel", "split-cartan-normalizer",
                                  "sl2"])
def test_projective_order_matches_scalar_classes(kind, p):
    G = standard_subgroup(kind, p)
    assert _projective_order(G) == _projective_order_by_scalar_classes(G)
