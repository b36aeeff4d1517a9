"""Random input at the program's edges: the CLI, the polynomial parser and
the catalog parser.

A command may end only with exit code 0, 1, 2 or 64, never with an
exception, and --json output must parse. The parsers may raise only
their own error types, and a parsed catalog must survive
serialize_catalog. Exponents in generated polynomial text stay at one
digit: the parser expands powers, so longer ones would cost time, not
coverage. Generated curves have integer and p/q coefficients. Numbers in
exponent notation, with exponents up to 10^9, are generated for curves
and j-map arguments: they must be usage errors, not a hang."""

import contextlib
import io
import json
import re
from math import gcd

from hypothesis import example, given, settings
from hypothesis import strategies as st

from gl2tors.catalog import (NAMED_GROUP_GENERATORS, CatalogEntry,
                             CatalogError, parse_catalog, serialize_catalog)
from gl2tors.cli import main
from gl2tors.jmaps import JMAP_LABELS
from gl2tors.polynomial import PolyParseError, UniPoly, parse_poly

SETTINGS = settings(max_examples=80, deadline=None, derandomize=True)

FRACTIONS = st.fractions(min_value=-60, max_value=60, max_denominator=12)
INTS = st.integers(-20, 20)


def _poly_text(terms) -> str:
    return " + ".join(f"({c})*x^{e}" for c, e in terms) or "0"


POLYS = st.lists(st.tuples(INTS, st.integers(0, 5)), max_size=4).map(
    _poly_text)
MODELS = st.one_of(
    POLYS.map(lambda f: f"y^2 = {f}"),
    st.tuples(POLYS, POLYS).map(lambda hf: f"y^2 + ({hf[0]})*y = {hf[1]}"),
    st.sampled_from(["y^3 = x", "x^2", "y^2 = x^²", "y^2 + x = 1",
                     "=", "y^2 = ((x)"]))
# Numbers in exponent notation, which the CLI must refuse without
# expanding them: Fraction("1e100000000") alone takes minutes.
EXPONENTS = st.tuples(st.integers(-9, 9), st.sampled_from("eE"),
                      st.integers(0, 10 ** 9)).map(
    lambda t: f"{t[0]}{t[1]}{t[2]}")
CURVES = st.one_of(
    st.lists(INTS.map(str), min_size=5,
             max_size=5).map(lambda v: "[" + ",".join(v) + "]"),
    st.lists(FRACTIONS.map(str), min_size=5,
             max_size=5).map(lambda v: "[" + ",".join(v) + "]"),
    st.tuples(st.lists(INTS.map(str), min_size=4, max_size=4),
              st.integers(0, 4), EXPONENTS).map(
        lambda t: "[" + ",".join(t[0][:t[1]] + [t[2]] + t[0][t[1]:]) + "]"),
    st.sampled_from(["[1,2]", "[1/0,0,0,1,1]", "[a,b,c,d,e]", "",
                     "[0,0,0,0,0]", "[1/2,0,0,-1,0]"]))
GROUPS = st.sampled_from(sorted(NAMED_GROUP_GENERATORS) + [
    "nosuch", "[[1,1,0,1]]", "[[1,0,0,2],[0,1,1,0]]", "[[0,0,0,0]]",
    "[1,2]", "[[1.5,0,0,1]]", "[[1,1,0,1]"])
LABELS = st.sampled_from(JMAP_LABELS + ("nope",))
HEIGHTS = st.integers(-1, 3).map(str)

ARGV = st.one_of(
    st.tuples(st.just("jmap"), LABELS,
              st.one_of(FRACTIONS.map(str), EXPONENTS,
                        st.sampled_from(["1/0", "zz", "3/", "-"]))),
    st.tuples(st.just("torsion"), CURVES),
    st.tuples(st.just("identify"), CURVES, st.just("--level"),
              st.sampled_from(["2", "3", "5"]), st.just("--prime-bound"),
              st.integers(10, 60).map(str)),
    st.tuples(st.just("group"), GROUPS, st.just("--level"),
              st.integers(-1, 12).map(str)),
    st.tuples(st.just("group"), GROUPS),
    st.tuples(st.just("search-index"), GROUPS, st.just("--mode"),
              st.sampled_from(["3", "6", "4"])),
    st.tuples(st.just("fiber-search"), LABELS, LABELS, st.just("--height"),
              HEIGHTS),
    st.tuples(st.just("curve-search"), MODELS, st.just("--height"), HEIGHTS),
).map(list)


@settings(SETTINGS, max_examples=200)
@given(ARGV, st.booleans(), st.sampled_from([[], ["extra"], ["--bogus"]]))
@example(["torsion", "[361/8,3,3,361/8,297/5]"], False, [])
def test_main_exits_cleanly_on_random_argv(argv, as_json, extra):
    argv = argv + (["--json"] if as_json else []) + extra
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as e:
            code = e.code
    assert code in (0, 1, 2, 64), (argv, code)
    assert "Traceback" not in err.getvalue()
    if as_json and code in (0, 1):
        assert isinstance(json.loads(out.getvalue()), dict)


POLY_TEXT = st.one_of(
    st.text(alphabet="x0123456789+-*^()/ ", max_size=16),
    st.text(max_size=8))


@SETTINGS
@given(POLY_TEXT.filter(lambda t: not re.search(r"\^\s*\d\d", t)))
@example("x^²")
@example("(" * 400 + "x" + ")" * 400)
@example("-" * 3000 + "x")
def test_parse_poly_raises_only_its_own_error(text):
    try:
        assert isinstance(parse_poly(text), UniPoly)
    except PolyParseError:
        pass


@SETTINGS
@given(st.dictionaries(st.integers(0, 8), FRACTIONS.filter(bool),
                       max_size=5))
def test_parse_poly_reads_rendered_polynomials(coeffs):
    text = " + ".join(f"({c})*x^{e}" for e, c in coeffs.items()) or "0"
    assert parse_poly(text) == UniPoly(coeffs)


@SETTINGS
@given(st.text(alphabet="ab9 \n#[],0123-.x", max_size=60))
@example("a 9 " + "[" * 5000)
def test_parse_catalog_raises_only_catalog_error(text):
    try:
        entries = parse_catalog(text)
    except CatalogError:
        return
    assert parse_catalog(serialize_catalog(entries)) == entries


def _invertible_rows(level: int):
    return st.lists(
        st.tuples(*[st.integers(-30, 30)] * 4).filter(
            lambda r: gcd(r[0] * r[3] - r[1] * r[2], level) == 1),
        min_size=1, max_size=3)


ENTRIES = st.lists(
    st.tuples(st.text(alphabet="ab9.-", min_size=1, max_size=8),
              st.integers(2, 30)).flatmap(
        lambda lv: _invertible_rows(lv[1]).map(
            lambda rows: CatalogEntry(lv[0], lv[1], tuple(rows)))),
    max_size=4, unique_by=lambda e: e.label)


@SETTINGS
@given(ENTRIES)
def test_serialize_catalog_round_trips(entries):
    assert parse_catalog(serialize_catalog(entries)) == entries
