"""Named j-maps, fiber curves, and the exact bounded searches."""

from fractions import Fraction
from itertools import product

import pytest

from gl2tors.jmaps import (_PRIME, JMAP_LABELS, POLE, JMap, _residue_keys,
                           fiber_curve, fiber_points, jmap_eval, named_jmap,
                           search_hyperelliptic, search_plane,
                           zeta3_descent_search)
from gl2tors.polynomial import (_RECIPROCAL_MIN, BiPoly, UniPoly,
                                _sorted_grid_arrays, farey_fractions,
                                parse_poly)

X = UniPoly.x()


def test_jmap_spot_values():
    assert named_jmap("2B")(1) == 2048
    assert named_jmap("2B")(Fraction(1, 2)) == 1728
    assert named_jmap("3Cs.1.1")(1) == Fraction(884736, 343)
    assert named_jmap("9B0-9a")(1) == Fraction(4096000, 37)
    assert named_jmap("no-9-isogeny")(3) == 54000
    assert named_jmap("no-9-isogeny")(-3) == 0
    assert named_jmap("Et")(-6) == -12288000


def test_jmap_poles():
    assert jmap_eval(named_jmap("Et"), 3) is POLE
    assert jmap_eval(named_jmap("2B"), 0) is POLE
    assert jmap_eval(named_jmap("9H0-9b"), 1) is POLE
    assert jmap_eval(named_jmap("9H0-9b"), -1) is POLE
    assert repr(POLE) == "pole"


@pytest.mark.parametrize("label", ["2B", "9H0-9b"])
def test_residue_keys_match_exact_values(label):
    # Each key is the exact value mod P, or P at a pole (0 for 2B, +-1
    # for 9H0-9b); the grid is past _RECIPROCAL_MIN points, so _mod
    # divides by its reciprocal.
    m = named_jmap(label)
    p, q = _sorted_grid_arrays(30)
    assert p.size > _RECIPROCAL_MIN
    values = [jmap_eval(m, x) for x in farey_fractions(30)]
    assert POLE in values
    assert _residue_keys(m, p, q).tolist() == [
        _PRIME if v is POLE or v.denominator % _PRIME == 0
        else v.numerator * pow(v.denominator, -1, _PRIME) % _PRIME
        for v in values]


def test_jmap_labels():
    assert JMAP_LABELS == ("2B", "3Cs.1.1", "9B0-9a", "9H0-9b", "Et",
                           "no-9-isogeny")
    with pytest.raises(ValueError, match="unknown j-map"):
        named_jmap("nope")


def test_jmap_validation():
    with pytest.raises(ValueError, match="share the factor"):
        JMap("bad", X ** 2 - 1, X - 1)
    with pytest.raises(ValueError, match="zero denominator"):
        JMap("bad", X, UniPoly())


def test_fiber_curve_labels():
    C = fiber_curve(named_jmap("3Cs.1.1"), named_jmap("9B0-9a"))
    assert C.label == "fiber(3Cs.1.1,9B0-9a)"
    assert C.F == C.F.primitive()


def eager_F(ma, mb):
    """num_a(s)*den_b(t) - num_b(t)*den_a(s), primitive, assembled from
    the coefficients: the F that fiber_curve built before F was lazy."""
    c = {}
    for i in range(max(ma.num.degree, ma.den.degree) + 1):
        for j in range(max(mb.num.degree, mb.den.degree) + 1):
            c[i, j] = (ma.num.coeff(i) * mb.den.coeff(j)
                       - mb.num.coeff(j) * ma.den.coeff(i))
    return BiPoly(c).primitive()


def test_fiber_curve_builds_F_on_first_read():
    for a, b in product(JMAP_LABELS, repeat=2):
        ma, mb = named_jmap(a), named_jmap(b)
        C = fiber_curve(ma, mb)
        assert "F" not in vars(C)
        assert C.F == eager_F(ma, mb), (a, b)
        assert C.F is C.F


def test_fiber_curves_of_the_same_maps_are_equal():
    C = fiber_curve(named_jmap("2B"), named_jmap("9H0-9b"))
    D = fiber_curve(named_jmap("2B"), named_jmap("9H0-9b"))
    assert not C.F.is_zero()  # C has built F and D has not
    assert C == D and hash(C) == hash(D)
    assert C != fiber_curve(named_jmap("9H0-9b"), named_jmap("2B"))


def test_fiber_3cs_9b_points():
    C = fiber_curve(named_jmap("3Cs.1.1"), named_jmap("9B0-9a"))
    pts = search_plane(C, 30)
    assert pts == [(-3, -3), (-1, -3), (0, 0)]
    kinds = fiber_points(C, 30)
    assert [(fp.s, fp.t) for fp in kinds] == pts
    assert [fp.kind for fp in kinds] == ["finite", "finite", "pole"]
    assert kinds[0].j == 0 and kinds[1].j == 0 and kinds[2].j is None


def test_fiber_2b_9h_points():
    C = fiber_curve(named_jmap("2B"), named_jmap("9H0-9b"))
    pts = search_plane(C, 30)
    assert pts == [(0, -1), (0, 1)]
    assert [(fp.s, fp.t, fp.kind) for fp in fiber_points(C, 30)] == [
        (s, t, "pole") for s, t in pts]


def test_fiber_no9_2b_j_values():
    C = fiber_curve(named_jmap("no-9-isogeny"), named_jmap("2B"))
    pts = search_plane(C, 30)
    assert (Fraction(0), Fraction(0)) in pts
    finite_j = {fp.j for fp in fiber_points(C, 30) if fp.kind == "finite"}
    assert finite_j == {Fraction(0), Fraction(54000)}


def test_search_hyperelliptic():
    h = parse_poly("x^3 + 1")
    f = parse_poly("-9*x^3")
    pts = search_hyperelliptic(h, f, 100)
    assert pts == [(-1, -3), (-1, 3), (0, -1), (0, 0)]
    assert search_hyperelliptic(UniPoly(), X ** 3, 2) == [
        (0, 0), (1, -1), (1, 1)]


def test_zeta3_descent_search():
    hits = zeta3_descent_search(10)
    assert [(h.t, h.case, h.flag) for h in hits] == [
        (Fraction(-6), "a=0", "cm"),
        (Fraction(0), "a=0", "cm"),
        (Fraction(3), "a=0", "excluded-singular"),
        (Fraction(3), "b=0", "excluded-singular"),
    ]
    kept = sorted({h.t for h in zeta3_descent_search(50)
                   if h.flag != "excluded-singular"})
    assert kept == [Fraction(-6), Fraction(0)]
