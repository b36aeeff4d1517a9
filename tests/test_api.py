"""The public API: every exported name, the README's list of them, and
the interface the benchmark client (perfbench/client.py) reads."""

import re
from pathlib import Path

import gl2tors
import gl2tors.cli

# Every name perfbench/client.py calls as gl2tors.<name>.
CLIENT_NAMES = (
    "BiPoly", "CurveQ", "UniPoly", "closure", "dickson_classify",
    "fiber_curve", "identify_candidates", "identify_image",
    "index3_fixing_count", "index6_complement_search", "is_applicable",
    "is_conjugate", "minus_one_complements", "named_group", "named_jmap",
    "parse_catalog", "rational_3isogeny_kernel", "rational_roots",
    "resultant", "search_hyperelliptic", "search_plane", "stable_lines",
    "torsion_over_Q", "two_torsion_image", "zeta3_descent_search",
)


def test_all_names_resolve():
    assert len(set(gl2tors.__all__)) == len(gl2tors.__all__)
    for name in gl2tors.__all__:
        assert getattr(gl2tors, name) is not None, name


def test_client_names_exported():
    assert len(CLIENT_NAMES) == 25
    for name in CLIENT_NAMES:
        assert name in gl2tors.__all__, name
        assert callable(getattr(gl2tors, name)), name
    assert callable(gl2tors.cli.main)


def test_generators_have_entries():
    G = gl2tors.named_group("9H0-9b")
    assert [g.entries() for g in G.generators] == [
        (1, 0, 3, 1), (5, 3, 0, 2), (2, 0, 1, 1)]


def test_element_codes_are_packed_ints():
    n = 9
    G = gl2tors.named_group("9H0-9b")
    assert all(type(c) is int for c in G.element_codes)
    for g in G.generators:
        a, b, c, d = g.entries()
        assert ((a * n + b) * n + c) * n + d in G.element_codes
    assert max(G.element_codes) < n ** 4


def test_witness_vector_coordinates():
    w = gl2tors.index6_complement_search(gl2tors.named_group("9H0-9b"))[0]
    assert (w.vector.x, w.vector.y) == (1, 2)
    assert type(w.vector.x) is int and type(w.vector.y) is int


def test_readme_lists_the_api():
    """The bullet list after "The supported API is `gl2tors.__all__`" in
    README.md names each exported name, and nothing else."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(
        encoding="utf-8")
    start = readme.index("The supported API is `gl2tors.__all__`:")
    bullets = readme[start:].split("\n\n")[1]
    assert bullets.startswith("- ")
    names = re.findall(r"`([^`]+)`", bullets)
    assert len(names) == len(set(names))
    assert set(names) == set(gl2tors.__all__)
