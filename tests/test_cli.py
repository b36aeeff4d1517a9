"""CLI subcommands: CHECK line grammar, exit codes, and JSON output."""

import hashlib
import json
import re
import sys
import time

import pytest

from gl2tors import catalog, cli, groups, jmaps
from gl2tors.arith import next_prime
from gl2tors.cli import main
from gl2tors.verify import VerificationReport


def assert_usage_exit(argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 64


def assert_catalog_exit(argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2


def test_no_command_is_usage_error():
    assert_usage_exit([])
    assert_usage_exit(["bogus"])


def test_torsion(capsys):
    assert main(["torsion", "[1,0,1,-1,0]"]) == 0
    out = capsys.readouterr().out
    assert "torsion: C6" in out
    assert "CHECK torsion pass curve=[1,0,1,-1,0] structure=C6" in out


def test_torsion_trivial_and_split(capsys):
    assert main(["torsion", "[0,0,1,-1,0]"]) == 0
    assert "torsion: C1 (trivial)" in capsys.readouterr().out
    assert main(["torsion", "[0,0,0,-1,0]"]) == 0
    assert "torsion: C2+C2" in capsys.readouterr().out


def test_torsion_with_a_1000_digit_denominator(capsys):
    # y^2 = x^3 + 1 with (x, y) scaled by (1/D^2, 1/D^3), D a semiprime
    # of 167 digits: a6 = 1/D^6 has 1,000 digits, and so does the scale
    # u = D^6 of the integral model. The search runs on u's powers and
    # never factors u, so this takes milliseconds.
    D = next_prime(10 ** 83) * next_prime(4 * 10 ** 83)
    assert len(str(D ** 6)) == 1000
    t0 = time.perf_counter()
    assert main(["torsion", f"[0,0,0,0,1/{D ** 6}]"]) == 0
    assert time.perf_counter() - t0 < 10
    assert "torsion: C6" in capsys.readouterr().out


def test_torsion_bad_curve():
    assert_usage_exit(["torsion", "[1,2]"])


def test_jmap(capsys):
    assert main(["jmap", "Et", "-6"]) == 0
    out = capsys.readouterr().out
    assert "Et(-6) = -12288000" in out
    assert "CHECK jmap.Et pass x=-6 value=-12288000" in out
    assert main(["jmap", "Et", "3"]) == 0
    assert "Et(3) = pole" in capsys.readouterr().out


def test_jmap_json(capsys):
    assert main(["jmap", "Et", "-6", "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data == {"label": "Et", "x": "-6", "value": "-12288000"}


def test_jmap_negative_fraction_after_double_dash(capsys):
    assert main(["jmap", "Et", "--", "-3/2"]) == 0
    out = capsys.readouterr().out
    assert "Et(-3/2) = -1167051/512" in out
    assert "CHECK jmap.Et pass x=-3/2 value=-1167051/512" in out
    assert main(["jmap", "Et", "--json", "--", "-3/2"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data == {"label": "Et", "x": "-3/2", "value": "-1167051/512"}


def test_jmap_negative_fraction_without_double_dash(capsys):
    assert main(["jmap", "Et", "--", "-3/2"]) == 0
    with_dash = capsys.readouterr().out
    assert main(["jmap", "Et", "-3/2"]) == 0
    assert capsys.readouterr().out == with_dash
    for argv in (["jmap", "Et", "-3/2", "--json"],
                 ["jmap", "Et", "--json", "-3/2"]):
        assert main(argv) == 0
        data = json.loads(capsys.readouterr().out)
        assert data == {"label": "Et", "x": "-3/2", "value": "-1167051/512"}


@pytest.mark.parametrize("argv", [["jmap", "-h", "Et", "-3/2"],
                                  ["jmap", "Et", "-3/2", "-h"]])
def test_jmap_help_around_a_negative_fraction(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 0
    assert "usage: gl2tors jmap" in capsys.readouterr().out


def test_jmap_usage_errors():
    assert_usage_exit(["jmap", "nope", "0"])
    assert_usage_exit(["jmap", "Et", "zz"])


@pytest.mark.parametrize("argv", [["jmap", "Et", "-3/0"], ["group", "nope"]])
def test_usage_error_inside_a_command_names_it(argv, capsys):
    # Raised by the command after parsing, so the usage shown is the
    # command's own and not the list of every command.
    assert_usage_exit(argv)
    err = capsys.readouterr().err
    assert err.startswith(f"usage: gl2tors {argv[0]} ")
    assert "Traceback" not in err


def test_group_builtin(capsys):
    assert main(["group", "3B.1.1"]) == 0
    out = capsys.readouterr().out
    assert "order: 6" in out
    assert ("CHECK group.3B.1.1 pass order=6 index=8 minus_id=False "
            "applicable=False") in out


def test_group_json(capsys):
    assert main(["group", "9B0-9a", "--json"]) == 0
    facts = json.loads(capsys.readouterr().out)
    assert facts["order"] == 324
    assert facts["level"] == 9
    assert facts["minus_id"] is True
    assert facts["applicable"] is True
    assert "class" not in facts  # only reported at prime levels
    assert main(["group", "3B.1.1", "--json"]) == 0
    facts3 = json.loads(capsys.readouterr().out)
    assert facts3["class"] == "borel-contained"
    assert facts3["stable_lines"] == 1


def test_group_inline(capsys):
    assert main(["group", "[[1,1,0,1]]", "--level", "9"]) == 0
    assert "order: 9" in capsys.readouterr().out
    assert_usage_exit(["group", "[[1,1,0,1]]"])  # missing --level
    assert_usage_exit(["group", "nosuchgroup"])


@pytest.mark.parametrize("rows", [
    '[["a",1,0,1]]', "[[1,1],[0,1]]", "[]", "[[true,1,0,1]]"])
def test_group_inline_rows_are_checked_as_in_a_catalog(rows, capsys):
    assert_usage_exit(["group", rows, "--level", "3"])
    err = capsys.readouterr().err
    assert err.splitlines()[-1].endswith(
        "generators must be a nonempty list of 4-entry integer rows")
    assert "Traceback" not in err
    with pytest.raises(catalog.CatalogError, match="line 1: generators"):
        catalog.parse_catalog(f"g 3 {rows}")


def _closure_must_not_run(gen_codes, n):
    raise AssertionError(f"closure of {len(gen_codes)} generator(s) at "
                         f"level {n} was started")


def test_group_inline_rejects_level_above_table_cap(monkeypatch, capsys):
    # One generator at level 1001 needs 1001^2 row-table entries, above
    # the cap of 10^6: a usage error before any closure starts.
    monkeypatch.setattr(groups, "_closure_table", _closure_must_not_run)
    assert_usage_exit(["group", "[[1000,0,0,1000]]", "--level", "1001"])
    assert "row-table entries" in capsys.readouterr().err


def test_search_index_mode3(capsys):
    assert main(["search-index", "9H0-9b", "--mode", "3"]) == 0
    out = capsys.readouterr().out
    assert "CHECK search-index.9H0-9b.mode3 pass counts=0,0,1" in out


def test_search_index_mode6(capsys):
    assert main(["search-index", "9H0-9b", "--mode", "6"]) == 0
    out = capsys.readouterr().out
    assert ("CHECK search-index.9H0-9b.mode6 pass witnesses=36 "
            "verified=True") in out
    assert "sample [('9H0-9b', (1, 2))" in out


def test_search_index_guards(tmp_path, capsys):
    assert_usage_exit(["search-index", "3B.1.1", "--mode", "3"])
    assert_usage_exit(["search-index", "9H0-9b"])  # --mode is required
    cat = tmp_path / "cat.txt"
    cat.write_text("nominus 9 [[1,1,0,1]]\n")
    assert_usage_exit(["search-index", "nominus", "--mode", "6",
                       "--catalog", str(cat)])
    assert main(["search-index", "nominus", "--mode", "3",
                 "--catalog", str(cat)]) == 0
    assert ("CHECK search-index.nominus.mode3 pass counts=1"
            in capsys.readouterr().out)


def test_search_index_missing_catalog():
    assert_catalog_exit(["search-index", "x", "--mode", "3",
                         "--catalog", "/nonexistent/cat.txt"])


def test_search_index_rejects_inline_generators(capsys):
    assert_usage_exit(["search-index", "[[1,1,0,1]]", "--mode", "3"])
    err = capsys.readouterr().err
    assert err.splitlines()[-1].endswith(
        "search-index takes a built-in or catalog label")
    assert "--level" not in err
    assert "Traceback" not in err


def test_identify(capsys):
    assert main(["identify", "[0,0,1,-1,0]", "--prime-bound", "300"]) == 0
    out = capsys.readouterr().out
    assert "consistent-with: GL2(F3)" in out
    assert "eliminated: 3B.1.1 (class (1, 2) at p=2)" in out
    assert ("CHECK identify pass curve=[0,0,1,-1,0] level=3 "
            "survivors=GL2(F3) primes=60 skipped=2") in out
    # Every class mod 3 is seen by p = 61, so the primes above it are
    # counted but not point-counted.
    assert out.rstrip().endswith("primes=60 skipped=2 sampled=16")


def test_identify_level2(capsys):
    assert main(["identify", "[0,0,1,-1,0]", "--level", "2",
                 "--prime-bound", "100"]) == 0
    out = capsys.readouterr().out
    assert "consistent-with: GL2(F2)" in out
    assert "eliminated: 2B (class (1, 1) at p=3)" in out


def test_identify_json(capsys):
    assert main(["identify", "[0,0,1,-1,0]", "--json",
                 "--prime-bound", "300"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["survivors"] == ["GL2(F3)"]
    assert data["eliminated"][0] == ["3B.1.1", 2, [1, 2]]
    # 62 primes up to 300: p = 3 divides the level, p = 37 the discriminant.
    assert (data["primes"], data["skipped"]) == (60, 2)
    assert data["sampled"] == 16
    assert_usage_exit(["identify", "[9,9]"])


def test_fiber_search(capsys):
    assert main(["fiber-search", "3Cs.1.1", "9B0-9a", "--height", "8"]) == 0
    out = capsys.readouterr().out
    assert "(-3, -3) finite j=0" in out
    assert "(0, 0) pole" in out
    assert ("CHECK fiber-search.3Cs.1.1x9B0-9a evidence-only height=8 "
            "(-3,-3):finite (-1,-3):finite (0,0):pole") in out
    assert_usage_exit(["fiber-search", "3Cs.1.1", "nope"])


def test_fiber_search_json(capsys):
    assert main(["fiber-search", "3Cs.1.1", "9B0-9a", "--height", "8",
                 "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["curve"] == "fiber(3Cs.1.1,9B0-9a)"
    assert data["points"][0] == {"s": "-3", "t": "-3", "kind": "finite",
                                 "j": "0"}


# sha256 of the fiber-search output at height 30, text and then --json.
FIBER_SEARCH_SHA256 = {
    ("2B", "2B"): (
        "d251d2fe5a12e32f0181217fc3415d1081a420fa7d55eba1524e600b8047a591",
        "84158263447d09e59051f00f005ca2935fdbe50ef6358ac00363212d64751515"),
    ("3Cs.1.1", "9B0-9a"): (
        "01a1cae202b4dff29f517aa2ccc880b9fe01fcb2430f47d739d729f2a557bc2e",
        "7b6f71463c0d07d5de76330d0fb98b626bd196879e64499b8febd0bdf7da6e7e"),
    ("no-9-isogeny", "2B"): (
        "0394de75a5aef09d202f1bc2cd017cba78cbd88b69efc91120b6932a20636480",
        "c3c9fdc0620d8ab319db7b07a02ee1403329b8dc41573753b2385e9e9b40d445"),
}


@pytest.mark.parametrize("a, b", list(FIBER_SEARCH_SHA256))
def test_fiber_search_output_pinned(capsys, a, b):
    for flags, want in zip(([], ["--json"]), FIBER_SEARCH_SHA256[a, b]):
        assert main(["fiber-search", a, b, "--height", "30", *flags]) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == want, flags


def test_curve_search(capsys):
    assert main(["curve-search", "y^2 + (x^3 + 1)*y = -9*x^3",
                 "--height", "20"]) == 0
    out = capsys.readouterr().out
    assert "(-1, -3)" in out
    assert "CHECK curve-search evidence-only height=20 points=4" in out
    assert main(["curve-search", "y^2 = x^3", "--height", "2"]) == 0
    assert "points=3" in capsys.readouterr().out


def test_curve_search_above_the_int64_bound(capsys, monkeypatch):
    # The constant 10^20 puts H^e * sum |C| past 2^62, so the search
    # takes the sieve and the exact Python test, not the int64 pass.
    sieved = []
    real = jmaps._sieved_points
    monkeypatch.setattr(jmaps, "_sieved_points",
                        lambda C, H: sieved.append(H) or real(C, H))
    assert main(["curve-search", "y^2 = x^3 - x + 100000000000000000000",
                 "--height", "30"]) == 0
    assert sieved == [30]
    y = 10 ** 10
    points = [(x, s * y) for x in (-1, 0, 1) for s in (-1, 1)]
    assert capsys.readouterr().out == "".join(
        f"({x}, {v})\n" for x, v in points) + (
        "CHECK curve-search evidence-only height=30 points=6 "
        + " ".join(f"({x},{v})" for x, v in points) + "\n")


def test_curve_search_bad_model():
    assert_usage_exit(["curve-search", "y^3 = x"])
    assert_usage_exit(["curve-search", "x^2"])


MAX_DIGITS = sys.get_int_max_str_digits()
TOO_MANY_DIGITS = (f"value has more than {MAX_DIGITS} digits; "
                   f"PYTHONINTMAXSTRDIGITS raises the limit")


@pytest.mark.parametrize("argv,message", [
    (["fiber-search", "3Cs.1.1", "9B0-9a", "--height", "0"],
     "height must be >= 1, got 0"),
    (["curve-search", "y^2 = x^3", "--height", "-3"],
     "height must be >= 1, got -3"),
    (["identify", "[0,0,1,-1,0]", "--prime-bound", "5"],
     "prime bound must be >= 20, got 5"),
    (["verify-all", "--height", "0"], "height must be >= 1, got 0"),
    (["curve-search", "y^2 = x^3 + 1", "--height", "100000000"],
     "height must be <= 1000, got 100000000"),
    (["fiber-search", "2B", "2B", "--height", "1001"],
     "height must be <= 1000, got 1001"),
    (["verify-all", "--height", "100000000"],
     "height must be <= 1000, got 100000000"),
    (["identify", "[0,0,1,-1,0]", "--prime-bound",
      "100000000000000000000"],
     "prime bound must be <= 100000, got 100000000000000000000"),
    (["verify-all", "--prime-bound", "100001"],
     "prime bound must be <= 100000, got 100001"),
    (["torsion", "[1/0,0,0,1,1]"], "zero denominator in '1/0'"),
    (["identify", "[1/0,0,0,1,1]"], "zero denominator in '1/0'"),
    (["torsion", "[1e100000000,0,0,0,1]"],
     "expected an integer or p/q, got '1e100000000'"),
    (["jmap", "Et", "1e100000000"], "bad rational '1e100000000'"),
    (["curve-search", "y^2 = 2^1000000000"],
     "power ^1000000000 too large: 1 terms x 1000000001 bits > 65536"),
    (["curve-search", "y^2 = (x+1)^3000"],
     "power ^3000 too large: 3001 terms x 3001 bits > 65536"),
    (["curve-search", "y^2 = " + "*".join(["(x+1)^255"] * 8)],
     "product too large: 511 terms x 511 bits > 65536"),
    # Values and literals past Python's limit on the digits of an int
    # converted to or from text.
    (["jmap", "9H0-9b", "9" * 200], TOO_MANY_DIGITS),
    (["curve-search", "y^2 = 4^32000", "--height", "1"], TOO_MANY_DIGITS),
    (["curve-search", "y^2 = 4^32000", "--height", "1", "--json"],
     TOO_MANY_DIGITS),
    (["curve-search", "y^2 = x^3 + " + "9" * 5000],
     f"integer at position 12 too long: 5000 digits > {MAX_DIGITS}"),
    # Positions are in the model as typed, not in the part parsed.
    (["curve-search", "y^2 = x^3 + z"], "unknown variable 'z' at position 12"),
    (["curve-search", "y^2 + (x+?)*y = x^3"],
     "unexpected character '?' at position 9"),
], ids=["fiber-search", "curve-search", "identify", "verify-all",
        "curve-search-huge", "fiber-search-cap", "verify-all-huge",
        "identify-prime-bound-huge", "verify-all-prime-bound-cap",
        "torsion-zero-denominator", "identify-zero-denominator",
        "torsion-exponent", "jmap-exponent", "curve-search-power-bits",
        "curve-search-power-terms", "curve-search-product",
        "jmap-value-digits", "curve-search-value-digits",
        "curve-search-value-digits-json", "curve-search-literal-digits",
        "curve-search-right-side-position", "curve-search-h-term-position"])
def test_bad_numbers_are_usage_errors(argv, message, capsys):
    start = time.perf_counter()
    assert_usage_exit(argv)
    # Fraction('1e100000000') alone would take minutes.
    assert time.perf_counter() - start < 1
    err = capsys.readouterr().err
    assert err.splitlines()[-1].endswith(message)
    assert "Traceback" not in err


@pytest.mark.parametrize("text", [
    "1.5", "1e3", "1E3", "1_000", "\u0663", "0x10", "inf", "nan", "1/-2",
    "+-1", "", "/2", "2/"])
def test_rationals_outside_the_documented_forms(text, capsys):
    assert_usage_exit(["jmap", "Et", text])
    assert_usage_exit(["torsion", f"[{text},0,0,0,1]"])
    assert "Traceback" not in capsys.readouterr().err


def _stub_reports(ok: bool):
    return [VerificationReport("alpha", "pass" if ok else "fail", "x=1", 0.0),
            VerificationReport("beta", "evidence-only", "y=2", 0.0)]


def test_verify_all_stubbed(monkeypatch, capsys, tmp_path):
    seen = {}

    def fake_run_all(height, prime_bound, catalog):
        seen.update(height=height, prime_bound=prime_bound, catalog=catalog)
        return _stub_reports(True)

    monkeypatch.setattr(cli, "run_all", fake_run_all)
    cat = tmp_path / "cat.txt"
    cat.write_text("extra 9 [[1,1,0,1]]\n")
    assert main(["verify-all", "--height", "7", "--catalog", str(cat)]) == 0
    out = capsys.readouterr().out
    assert "CHECK alpha pass" in out
    assert "CHECK beta evidence-only" in out
    assert "2/2 checks ok" in out
    assert seen["height"] == 7
    # The CLI hands run_all the parsed entries, so the file is parsed once.
    assert seen["catalog"] == catalog.parse_catalog("extra 9 [[1,1,0,1]]\n")

    monkeypatch.setattr(cli, "run_all",
                        lambda **kw: _stub_reports(False))
    assert main(["verify-all"]) == 1


def test_verify_all_json_stubbed(monkeypatch, capsys):
    monkeypatch.setattr(cli, "run_all", lambda **kw: _stub_reports(True))
    assert main(["verify-all", "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert [c["check_id"] for c in data["checks"]] == ["alpha", "beta"]
    assert data["checks"][0]["status"] == "pass"


def test_verify_all_catalog_errors(tmp_path, capsys):
    assert_catalog_exit(["verify-all", "--catalog", "/nonexistent/cat.txt"])
    assert "cannot read catalog" in capsys.readouterr().err
    bad = tmp_path / "bad.txt"
    bad.write_text("zzz\n")
    assert_catalog_exit(["verify-all", "--catalog", str(bad)])
    assert "bad catalog" in capsys.readouterr().err


def test_verify_all_detects_mutated_table(monkeypatch, capsys):
    # Corrupting a built-in generator table must fail the battery.
    monkeypatch.setitem(catalog.NAMED_GROUP_GENERATORS, "3B.1.1",
                        (3, ((1, 1, 0, 1),)))
    assert main(["verify-all"]) == 1
    assert "CHECK group-orders fail" in capsys.readouterr().out


CHECK_LINE = re.compile(r"CHECK \S+ (pass|fail|evidence-only) \S.*")

# One argv per command; verify-all runs on stubbed reports, one failing.
EVERY_COMMAND = {
    "verify-all": ["verify-all", "--height", "5"],
    "group": ["group", "3B.1.1"],
    "search-index": ["search-index", "9H0-9b", "--mode", "3"],
    "identify": ["identify", "[0,0,1,-1,0]", "--prime-bound", "100"],
    "jmap": ["jmap", "Et", "-6"],
    "fiber-search": ["fiber-search", "3Cs.1.1", "9B0-9a", "--height", "4"],
    "curve-search": ["curve-search", "y^2 = x^3", "--height", "2"],
    "torsion": ["torsion", "[1,0,1,-1,0]"],
}


@pytest.mark.parametrize("command", sorted(EVERY_COMMAND))
def test_every_command_prints_checks_or_one_json_document(
        command, monkeypatch, capsys):
    monkeypatch.setattr(cli, "run_all", lambda **kw: _stub_reports(False))
    argv = EVERY_COMMAND[command]
    code = main(argv)
    lines = capsys.readouterr().out.splitlines()
    first = next(i for i, line in enumerate(lines)
                 if line.startswith("CHECK "))
    checks = lines[first:]
    if command == "verify-all":
        assert re.fullmatch(r"\d+/\d+ checks ok", checks.pop())
    assert checks and all(CHECK_LINE.fullmatch(c) for c in checks)
    assert code == (1 if any(c.split()[2] == "fail" for c in checks) else 0)

    assert main(argv + ["--json"]) == code
    assert isinstance(json.loads(capsys.readouterr().out), dict)


class _ClosedPipe:
    """A stdout whose reader has gone away, as under `| head -3`."""

    def __init__(self, fd):
        self.fd = fd

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")

    def flush(self):
        raise BrokenPipeError(32, "Broken pipe")

    def fileno(self):
        return self.fd


def test_closed_pipe_exits_without_traceback(monkeypatch, capsys, tmp_path):
    with open(tmp_path / "stdout", "w") as f:
        monkeypatch.setattr(sys, "argv", ["gl2tors", "jmap", "Et", "-6",
                                          "--json"])
        monkeypatch.setattr(sys, "stdout", _ClosedPipe(f.fileno()))
        with pytest.raises(SystemExit) as exc:
            cli.main_entry()
    assert exc.value.code == 2
    assert "Traceback" not in capsys.readouterr().err
