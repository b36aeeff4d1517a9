"""Individual verification checks, the battery table and the report
plumbing."""

import ast
import inspect
import os
import subprocess
import sys
from pathlib import Path

import pytest

from gl2tors import catalog, verify
from gl2tors.catalog import (NAMED_GROUP_GENERATORS, CatalogEntry,
                             parse_catalog)
from gl2tors.verify import _run, check_catalog_entry

ROOT = Path(__file__).resolve().parents[1]


def built_in_checks() -> list[str]:
    """Names of the check functions in run_all's table, in table order:
    the private functions of verify that run_all names, other than _run."""
    return [name for name in verify.run_all.__code__.co_names
            if name.startswith("_") and name != "_run"
            and inspect.isfunction(getattr(verify, name, None))]


def stub_built_in_checks(monkeypatch, failing: str | None = None) -> None:
    """Replace every built-in check by one that passes, except `failing`,
    which raises."""
    def passes(*args):
        return "pass", "stub"

    def raises(*args):
        raise RuntimeError("stub")
    for name in built_in_checks():
        monkeypatch.setattr(verify, name,
                            raises if name == failing else passes)


def battery_checks() -> tuple[str, ...]:
    """BATTERY_CHECKS of perfbench/run.py, read with ast."""
    tree = ast.parse((ROOT / "perfbench" / "run.py").read_text())
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and getattr(node.targets[0], "id", None) == "BATTERY_CHECKS"):
            return ast.literal_eval(node.value)
    raise LookupError("no BATTERY_CHECKS in perfbench/run.py")


BUILT_IN_IDS = [c for c in battery_checks() if not c.startswith("catalog.")]


def test_run_catches_exceptions():
    r = _run("boom", lambda: 1 / 0)
    assert r.check_id == "boom"
    assert r.status == "fail"
    assert r.details.startswith("error:")
    assert r.seconds >= 0


def test_check_group_orders():
    status, details = verify._group_orders()
    assert status == "pass"
    assert "gl2_f3=48" in details


def test_check_stable_lines():
    status, details = verify._stable_lines()
    assert status == "pass"
    assert details == "3B.1.1=1 3B.1.2=1"


def test_check_et_family():
    status, _ = verify._et_family()
    assert status == "pass"


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
    stub_built_in_checks(monkeypatch)
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
        "r = v._run('property-suites', v._property_suites)\n"
        "print(r.status, r.details)\n")
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.startswith("fail "), out.stdout
    assert "Hasse bound" in out.stdout


def test_verify_all_leaves_numpy_ma_unimported():
    # A plain np.unique call imports numpy.ma (numpy 2.4), which raises a
    # process's peak memory by about 1.3 MB; no check needs it.
    code = ("import sys\n"
            "from gl2tors import cli\n"
            "code = cli.main(['verify-all'])\n"
            "print(code, 'numpy.ma' in sys.modules, file=sys.stderr)\n")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stderr.split() == ["0", "False"], out.stderr


def test_table_names_one_check_per_built_in_id():
    assert len(built_in_checks()) == len(BUILT_IN_IDS) == 13


@pytest.mark.parametrize("failing", range(len(BUILT_IN_IDS)),
                         ids=BUILT_IN_IDS)
def test_run_all_reports_a_raising_check_as_its_own_failure(monkeypatch,
                                                            failing):
    # Row `failing` raises and every other row passes: only its id fails,
    # and no row is dropped or moved.
    stub_built_in_checks(monkeypatch, built_in_checks()[failing])
    reports = verify.run_all()
    assert [r.check_id for r in reports] == BUILT_IN_IDS
    assert [r.check_id for r in reports if r.status == "fail"] == [
        BUILT_IN_IDS[failing]]
    assert reports[failing].details.startswith("error:")
    assert all(r.status == "pass" for i, r in enumerate(reports)
               if i != failing)


def test_run_all_ids_are_the_benchmark_battery_checks(monkeypatch):
    # perfbench/run.py reads one verify.check.<id>.s metric per id of the
    # sample-catalog battery; a renamed or moved row would zero one.
    stub_built_in_checks(monkeypatch)
    entries = parse_catalog((ROOT / "sample_catalog.txt").read_text())
    ids = [r.check_id for r in verify.run_all(catalog=entries)]
    assert tuple(ids) == battery_checks()
