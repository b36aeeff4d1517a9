"""Individual verification checks and the report plumbing."""

import os
import subprocess
import sys
from pathlib import Path

from gl2tors import catalog, verify
from gl2tors.catalog import (NAMED_GROUP_GENERATORS, CatalogEntry,
                             parse_catalog)
from gl2tors.verify import (VerificationReport, _run, check_catalog_entry,
                            check_et_family, check_group_orders,
                            check_stable_lines)


def test_run_catches_exceptions():
    r = _run("boom", lambda: 1 / 0)
    assert r.check_id == "boom"
    assert r.status == "fail"
    assert r.details.startswith("error:")
    assert r.seconds >= 0


def test_check_group_orders():
    r = check_group_orders()
    assert r.status == "pass"
    assert "gl2_f3=48" in r.details


def test_check_stable_lines():
    r = check_stable_lines()
    assert r.status == "pass"
    assert r.details == "3B.1.1=1 3B.1.2=1"


def test_check_et_family():
    r = check_et_family()
    assert r.status == "pass"


def test_check_catalog_entry_level9(monkeypatch):
    level, gens = NAMED_GROUP_GENERATORS["9H0-9b"]
    entry = CatalogEntry("9H0-9b", level, gens)
    built = []
    closure = catalog.closure
    monkeypatch.setattr(catalog, "closure",
                        lambda *a: built.append(a) or closure(*a))
    reports = check_catalog_entry(entry)
    assert len(built) == 1  # both checks share one group
    assert [r.check_id for r in reports] == [
        "catalog.9H0-9b.group", "catalog.9H0-9b.level9"]
    assert all(r.status == "evidence-only" for r in reports)
    assert "order=108" in reports[0].details
    assert "index3-counts=[0, 0, 1]" in reports[1].details
    assert "index6-witnesses=36" in reports[1].details
    assert "bound-ok=True" in reports[1].details


def test_check_catalog_entry_reports_a_bad_group_as_failures():
    # Not invertible mod 9 (det 3): each check fails with the error.
    reports = check_catalog_entry(CatalogEntry("bad", 9, ((1, 1, 0, 3),)))
    assert [r.status for r in reports] == ["fail", "fail"]
    assert all("not invertible" in r.details for r in reports)


def test_check_catalog_entry_level3():
    level, gens = NAMED_GROUP_GENERATORS["3B.1.1"]
    reports = check_catalog_entry(CatalogEntry("3B.1.1", level, gens))
    assert [r.check_id for r in reports] == ["catalog.3B.1.1.group"]
    assert "applicable=False" in reports[0].details


def test_run_all_checks_each_catalog_entry(monkeypatch):
    # The built-in checks are stubbed; only the catalog part runs.
    for name in dir(verify):
        if name.startswith("check_") and name != "check_catalog_entry":
            monkeypatch.setattr(verify, name, lambda *a, _n=name, **k:
                                VerificationReport(_n, "pass", "", 0.0))
    entries = parse_catalog("a 3 [[1,1,0,1]]\nb 9 [[1,1,0,1]]\n")
    ids = [r.check_id for r in verify.run_all(catalog=entries)]
    assert ids[-3:] == ["catalog.a.group", "catalog.b.group",
                        "catalog.b.level9"]
    assert len(ids) == len(verify.run_all()) + 3


def test_property_suites_fail_under_optimize():
    # Under python -O assert statements vanish; the suites must still
    # catch an a_p outside the Hasse bound.
    code = (
        "import sys\n"
        "import gl2tors.verify as v\n"
        "assert sys.flags.optimize\n"
        "v.count_points = lambda E, p: (1, 3 * p)\n"
        "r = v.check_property_suites()\n"
        "print(r.status, r.details)\n")
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.startswith("fail "), out.stdout
    assert "Hasse bound" in out.stdout
