"""Built-in group tables, catalog parsing, and the torsion tables."""

from pathlib import Path

import pytest

from gl2tors import groups
from gl2tors.catalog import (EMBEDDED_LEVEL9, NAMED_GROUP_GENERATORS,
                             CatalogEntry, CatalogError, TORSION_BY_DEGREE,
                             identify_candidates, is_admissible_torsion,
                             named_group, parse_catalog,
                             parse_generator_rows, serialize_catalog)

SAMPLE = Path(__file__).resolve().parent.parent / "sample_catalog.txt"


def test_named_group_orders():
    expected = {"2B": 2, "3B.1.1": 6, "3B.1.2": 6, "3Cs.1.1": 2,
                "9B0-9a": 324, "9J0-9b": 108, "9H0-9b": 108}
    assert set(expected) == set(NAMED_GROUP_GENERATORS)
    for label, order in expected.items():
        G = named_group(label)
        assert G.order == order
        assert G.label == label
    with pytest.raises(ValueError, match="unknown group label"):
        named_group("nope")


def test_embedded_level9():
    assert EMBEDDED_LEVEL9 == ("9B0-9a", "9H0-9b", "9J0-9b")
    assert all(NAMED_GROUP_GENERATORS[l][0] == 9 for l in EMBEDDED_LEVEL9)


def test_identify_candidates():
    assert [G.label for G in identify_candidates(2)] == ["GL2(F2)", "2B"]
    assert [G.label for G in identify_candidates(3)] == [
        "GL2(F3)", "3B.1.1", "3B.1.2", "3Cs.1.1"]
    with pytest.raises(ValueError, match="no built-in candidates"):
        identify_candidates(5)


def test_parse_catalog_roundtrip():
    entries = [CatalogEntry(lab, lev, gens)
               for lab, (lev, gens) in sorted(NAMED_GROUP_GENERATORS.items())]
    text = serialize_catalog(entries)
    assert parse_catalog(text) == entries
    # Comments and blank lines are skipped.
    assert parse_catalog("# header\n\n" + text) == entries


def test_sample_catalog_file():
    entries = parse_catalog(SAMPLE.read_text())
    assert {e.label for e in entries} == set(NAMED_GROUP_GENERATORS)
    for e in entries:
        assert e.group().order == named_group(e.label).order


def test_parse_catalog_errors():
    with pytest.raises(CatalogError, match="line 1: expected"):
        parse_catalog("justalabel")
    with pytest.raises(CatalogError, match="line 2: duplicate label"):
        parse_catalog("g 3 [[1,1,0,1]]\ng 3 [[1,1,0,1]]")
    with pytest.raises(CatalogError, match="line 1: level 'x'"):
        parse_catalog("g x [[1,1,0,1]]")
    with pytest.raises(CatalogError, match="line 1: level must be >= 2"):
        parse_catalog("g 1 [[1,1,0,1]]")
    with pytest.raises(CatalogError, match="line 1: bad generator list"):
        parse_catalog("g 3 [[")
    with pytest.raises(CatalogError, match="4-entry integer rows"):
        parse_catalog("g 3 [1,1,0,1]")
    with pytest.raises(CatalogError, match="4-entry integer rows"):
        parse_catalog("g 3 [[1,1,0]]")
    with pytest.raises(CatalogError, match="line 1: .*not invertible"):
        parse_catalog("g 3 [[1,1,0,3]]")
    with pytest.raises(CatalogError, match="line 3"):
        parse_catalog("# comment\n\nbadline")


def test_parse_generator_rows():
    assert parse_generator_rows("[[1,1,0,1],[2,0,0,1]]", 3) == (
        (1, 1, 0, 1), (2, 0, 0, 1))
    for text in ("[[true,1,0,1]]", "[[1,1,0,false]]", "[]", "[[1,1],[0,1]]",
                 '[["a",1,0,1]]', "[[1.0,1,0,1]]", "{}"):
        with pytest.raises(CatalogError, match="^generators must be"):
            parse_generator_rows(text, 3)
    with pytest.raises(CatalogError, match="^level must be >= 2, got 1"):
        parse_generator_rows("[[1,1,0,1]]", 1)
    with pytest.raises(ValueError, match="not invertible"):
        parse_generator_rows("[[1,1,0,3]]", 3)
    entry, = parse_catalog("g 3 [[1,1,0,1]]")
    assert all(type(v) is int for row in entry.generators for v in row)


def test_parse_catalog_rejects_level_above_table_cap(monkeypatch):
    def closure_must_not_run(gen_codes, n):
        raise AssertionError("closure started")

    monkeypatch.setattr(groups, "_closure_table", closure_must_not_run)
    with pytest.raises(CatalogError, match="line 2: .*row-table entries"):
        parse_catalog("ok 1000 [[1,0,0,1]]\nbig 1001 [[1,0,0,1]]")
    with pytest.raises(CatalogError, match="line 1: .*row-table entries"):
        parse_catalog("two 708 [[1,0,0,1],[1,1,0,1]]")


def test_catalog_entry_group():
    level, gens = NAMED_GROUP_GENERATORS["9B0-9a"]
    entry = CatalogEntry("9B0-9a", level, gens)
    assert entry.group().order == 324


def test_torsion_table_sizes():
    assert len(TORSION_BY_DEGREE[1]) == 15
    assert len(TORSION_BY_DEGREE[2]) == 22
    assert len(TORSION_BY_DEGREE[3]) == 20
    assert len(TORSION_BY_DEGREE[6]) == 33


def test_admissible_torsion():
    assert not is_admissible_torsion((3, 18), 6)
    assert is_admissible_torsion((18,), 3)
    assert not is_admissible_torsion((18,), 1)
    assert not is_admissible_torsion((11,), 1)
    assert not is_admissible_torsion((11,), 6)
    assert is_admissible_torsion((16,), 2)
    assert not is_admissible_torsion((16,), 1)
    assert is_admissible_torsion((2, 14), 3)
    assert not is_admissible_torsion((2, 14), 2)
    assert is_admissible_torsion((6, 6), 6)
    assert not is_admissible_torsion((6, 6), 2)
    assert is_admissible_torsion((1, 5), 1)  # normalized to (5,)
    assert is_admissible_torsion((4, 12), 6)
    assert is_admissible_torsion((3, 12), 6)
    assert is_admissible_torsion((2, 18), 6)
    assert is_admissible_torsion((30,), 6)
    assert not is_admissible_torsion((20,), 6)
    assert all(is_admissible_torsion((9,), d) for d in (1, 2, 3, 6))


def test_admissible_torsion_errors():
    with pytest.raises(ValueError, match="no table for degree"):
        is_admissible_torsion((2,), 4)
    with pytest.raises(ValueError, match=r"a \| b"):
        is_admissible_torsion((2, 3), 1)
    with pytest.raises(ValueError, match="bad structure"):
        is_admissible_torsion((0,), 1)
    with pytest.raises(ValueError, match="bad structure"):
        is_admissible_torsion((1, 2, 3), 1)


def test_public_api_imports():
    import gl2tors
    assert gl2tors.__version__ == "0.1.0"
    for name in ("named_group", "run_all", "parse_catalog", "fiber_curve",
                 "torsion_over_Q", "index6_complement_search"):
        assert hasattr(gl2tors, name)
