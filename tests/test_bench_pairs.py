"""scripts/bench_pairs.py runs a run that printed no result line once
more, keeps the failed run under `reruns`, and uses the rerun only when
it printed a result; its summary gives each metric's bound, verdict and
gain flag, and each workload its rerun count. It stops with exit code 2
when a checkout's client does not start, and with `--default-seed` runs
the change's default-seed and traced runs before the pairs, stopping
when one is not correct. `run` and `probe` are replaced, so no benchmark
runs here, except for a fake checkout whose perfbench/run.py reports the
bytecode setting and the caches it sees."""

import importlib.util
import json
import textwrap
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "bench_pairs.py"


def load():
    spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def fake_runs(mod, monkeypatch, results):
    calls = []

    def run(checkout, workload, seed, seconds, trace=0):
        calls.append((checkout, workload, seed, trace))
        result = results.pop(0)
        return {"exit_code": 0 if result else 1,
                "stderr_tail": [] if result else ["JSONDecodeError"],
                "wrong": [], "result": result}
    monkeypatch.setattr(mod, "run", run)
    monkeypatch.setattr(mod, "probe", lambda checkout: None)
    return calls


def test_rerun_replaces_a_run_without_result(monkeypatch, capsys):
    mod = load()
    calls = fake_runs(mod, monkeypatch, [None, {"ok": 1}])
    doc = {"reruns": [], "runs_without_result": []}
    r = mod.run_or_rerun(doc, "parent", "P", "grid", 7, 1.0)
    assert r["result"] == {"ok": 1}
    assert calls == [("P", "grid", 7, 0)] * 2
    assert doc["reruns"] == [{"workload": "grid", "seed": 7,
                              "side": "parent", "trace": 0, "exit_code": 1,
                              "stderr_tail": ["JSONDecodeError"]}]
    assert doc["runs_without_result"] == []
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 2 and "rerunning" in err[0] and "rerun" in err[1]


def test_rerun_happens_once(monkeypatch):
    mod = load()
    calls = fake_runs(mod, monkeypatch, [None, None])
    doc = {"reruns": [], "runs_without_result": []}
    r = mod.run_or_rerun(doc, "change", "C", "battery", None, 1.0, trace=1)
    assert r["result"] is None and len(calls) == 2
    assert len(doc["reruns"]) == 1
    assert doc["runs_without_result"] == [
        {"workload": "battery", "seed": None, "side": "change", "trace": 1,
         "exit_code": 1}]


def test_a_run_with_result_is_not_rerun(monkeypatch):
    mod = load()
    calls = fake_runs(mod, monkeypatch, [{"ok": 1}])
    doc = {"reruns": [], "runs_without_result": []}
    assert mod.run_or_rerun(doc, "change", "C", "curves", 3, 1.0)["result"]
    assert len(calls) == 1 and doc["reruns"] == []


def test_summary_skips_pairs_without_result():
    mod = load()
    metrics = {name: {"value": 1.0} for name in mod.METRICS}
    ok = {"result": {"metrics": metrics}}
    pairs = [{"parent": ok, "change": ok},
             {"parent": ok, "change": {"result": None}}]
    summary = mod.summarize(pairs, mod.end_to_end_metrics())
    assert summary["wall_s"]["parent_median"] == 1.0
    assert summary["wall_s"]["change_lower_in"] == 0


def test_summary_reads_bounds_from_the_benchmark():
    mod = load()
    metrics = mod.end_to_end_metrics()
    assert set(metrics) == set(mod.METRICS)
    pairs = [{side: {"result": {"metrics": {
        name: {"value": v} for name in mod.METRICS}}}
        for side, v in (("parent", 1.0), ("change", 1.2))}] * 4
    summary = mod.summarize(pairs, metrics)
    assert summary["wall_s"]["bound"] == metrics["wall_s"]["bound"] == 0.25
    assert summary["wall_s"]["verdict"] == "ok"
    assert summary["peak_rss_mb"]["bound"] == 0.1
    assert summary["peak_rss_mb"]["verdict"] == "worse"


def test_verdicts():
    mod = load()
    lower = {"bound": 0.25, "better": "lower"}
    higher = {"bound": 0.25, "better": "higher"}
    assert mod.verdict([0.9, 1.0, 1.1], [0.9, 1.2, 1.3], lower) == "ok"
    assert mod.verdict([0.9, 1.0, 1.1], [1.2, 1.3, 1.4], lower) == "worse"
    assert mod.verdict([0.9, 1.0, 1.1], [0.6, 0.7, 0.8], higher) == "worse"
    assert mod.verdict([0.9, 1.0, 1.1], [1.2, 1.3, 1.4], higher) == "ok"
    # A parent spread wider than the bound cannot tell a change apart,
    # unless the change is worse by more than the bound all the same.
    assert mod.verdict([0.8, 1.0, 1.3], [0.9, 1.0, 1.1], lower) == (
        "unresolved")
    assert mod.verdict([0.8, 1.0, 1.3], [1.3, 1.4, 1.5], lower) == "worse"


def run_record(mod, value):
    return {"wrong": [], "result": {
        "correct": True, "failed": 0,
        "metrics": {name: {"value": value} for name in mod.METRICS}}}


def wall_pairs(mod, parent, change):
    return [{"parent": run_record(mod, x), "change": run_record(mod, y)}
            for x, y in zip(parent, change)]


def test_gain_needs_nine_wins_in_ten_and_a_gap_past_the_iqr():
    mod = load()
    metrics = mod.end_to_end_metrics()

    def gain(pairs):
        return mod.summarize(pairs, metrics)["wall_s"]["gain"]
    # Parent quartiles 1.0225, 1.045, 1.0675: an IQR of 0.045.
    parent = [1.0 + i / 100 for i in range(10)]
    nine_wins = [0.9] * 9 + [1.2]
    summary = mod.summarize(wall_pairs(mod, parent, nine_wins), metrics)
    assert summary["wall_s"]["change_lower_in"] == 9
    assert summary["wall_s"]["gain"] is True
    # The same 9 wins by 0.1 against a parent IQR of 0.45.
    wide = [1.0 + i / 10 for i in range(10)]
    close = [x - 0.1 for x in wide[:9]] + [wide[9] + 0.1]
    summary = mod.summarize(wall_pairs(mod, wide, close), metrics)
    assert summary["wall_s"]["change_lower_in"] == 9
    assert summary["wall_s"]["gain"] is False
    # 8 wins, a tie and a loss: the tie counts for neither side.
    assert gain(wall_pairs(mod, parent, [0.9] * 8 + [parent[8], 1.2])) \
        is False
    # An eleventh pair whose change printed no result is a loss: 9 of 11.
    pairs = wall_pairs(mod, parent, nine_wins)
    pairs.append({"parent": run_record(mod, 1.0),
                  "change": {"wrong": [], "result": None}})
    assert gain(pairs) is False
    # Winning all of fewer than 10 pairs.
    assert gain(wall_pairs(mod, parent[:3], [0.5] * 3)) is False
    # A failed operation, an incorrect run or a WRONG line in the change
    # and none in the parent; the same failed operation on both sides.
    for side, key, bad in (("change", "failed", 1),
                           ("change", "correct", False),
                           ("change", "wrong", ["# WRONG: x"]),
                           ("both", "failed", 1)):
        pairs = wall_pairs(mod, parent, nine_wins)
        for s in ("parent", "change") if side == "both" else (side,):
            run = pairs[3][s]
            (run if key == "wrong" else run["result"])[key] = bad
        assert gain(pairs) is (side == "both"), (side, key)
    # Where higher is better, the same rule runs the other way.
    higher = {"better": "higher"}
    qa = [1.0225, 1.045, 1.0675]
    assert mod.gain(wall_pairs(mod, parent, [2.0] * 10), parent, [2.0] * 10,
                    qa, [2.0, 2.0, 2.0], higher) is True
    assert mod.gain(wall_pairs(mod, parent, nine_wins), parent, nine_wins,
                    qa, [0.9, 0.9, 0.9], higher) is False


def test_each_workload_counts_its_reruns(monkeypatch, tmp_path):
    mod = load()
    metrics = {name: {"value": 1.0} for name in mod.METRICS}
    ok = {"metrics": metrics, "correct": True, "failed": 0}
    # grid: seed 1 runs parent then change; the change's first run
    # prints nothing. groups: both runs print a result.
    fake_runs(mod, monkeypatch, [ok, None, ok, ok, ok])
    out = tmp_path / "bench.json"
    monkeypatch.setattr("sys.argv", [
        "bench_pairs.py", "--parent", "P", "--change", "C",
        "--workloads", "grid,groups", "--seeds", "1", "--out", str(out)])
    assert mod.main() == 0
    doc = json.loads(out.read_text())
    assert doc["workloads"]["grid"]["reruns"] == 1
    assert doc["workloads"]["groups"]["reruns"] == 0
    assert [r["workload"] for r in doc["reruns"]] == ["grid"]
    assert doc["workloads"]["grid"]["summary"]["wall_s"]["verdict"] == "ok"


FAKE_CLIENT = 'print("ready")\n'
FAKE_RUN = textwrap.dedent("""\
    import json
    import os
    from pathlib import Path

    print(json.dumps({
        "metrics": {name: {"value": 1.0} for name in (
            "setup_s", "wall_s", "op_p50_ms", "op_p90_ms", "peak_rss_mb")},
        "correct": True, "failed": 0,
        "dont_write_bytecode": os.environ.get("PYTHONDONTWRITEBYTECODE"),
        "caches": [str(p) for top in ("src", "perfbench")
                   for p in Path(top).rglob("__pycache__")]}))
""")


def fake_checkout(root: Path) -> Path:
    """A checkout with a perfbench/run.py that prints one result line, a
    perfbench/client.py that prints `ready`, and a planted __pycache__
    under src/ and perfbench/."""
    (root / "perfbench").mkdir(parents=True)
    (root / "perfbench" / "run.py").write_text(FAKE_RUN)
    (root / "perfbench" / "client.py").write_text(FAKE_CLIENT)
    for cache in (root / "perfbench" / "__pycache__",
                  root / "src" / "pkg" / "__pycache__"):
        cache.mkdir(parents=True)
        (cache / "mod.cpython.pyc").write_bytes(b"")
    return root


def test_both_sides_run_without_bytecode(monkeypatch, tmp_path):
    mod = load()
    monkeypatch.delenv("PYTHONDONTWRITEBYTECODE", raising=False)
    parent = fake_checkout(tmp_path / "parent")
    change = fake_checkout(tmp_path / "change")
    out = tmp_path / "bench.json"
    monkeypatch.setattr("sys.argv", [
        "bench_pairs.py", "--parent", str(parent), "--change", str(change),
        "--workloads", "groups", "--seeds", "1-2", "--seconds", "1",
        "--out", str(out)])
    assert mod.main() == 0
    doc = json.loads(out.read_text())
    assert doc["environment"] == {"PYTHONDONTWRITEBYTECODE": "1"}
    for pair in doc["workloads"]["groups"]["pairs"]:
        for side in ("parent", "change"):
            result = pair[side]["result"]
            assert result["dont_write_bytecode"] == "1"
            assert result["caches"] == []
    assert not list(tmp_path.rglob("__pycache__"))


def test_a_checkout_that_does_not_start_stops_before_any_run(
        monkeypatch, tmp_path, capsys):
    mod = load()
    calls = fake_runs(mod, monkeypatch, [])
    started = []

    def probe(checkout):
        started.append(checkout)
        return "exit code 1: ImportError: x" if checkout == "C" else None
    monkeypatch.setattr(mod, "probe", probe)
    out = tmp_path / "bench.json"
    monkeypatch.setattr("sys.argv", [
        "bench_pairs.py", "--parent", "P", "--change", "C", "--workloads",
        "curves", "--seeds", "1-10", "--default-seed", "--out", str(out)])
    assert mod.main() == 2
    assert started == ["P", "C"] and calls == [] and not out.exists()
    err = capsys.readouterr().err.splitlines()
    assert err == ["bench_pairs: the change checkout C does not start: "
                   "exit code 1: ImportError: x"]


def test_probe_starts_the_client(tmp_path):
    mod = load()
    good = fake_checkout(tmp_path / "good")
    assert mod.probe(str(good)) is None
    # No perfbench/client.py: the interpreter exits 2.
    (tmp_path / "bare").mkdir()
    reason = mod.probe(str(tmp_path / "bare"))
    assert reason.startswith("exit code 2: ") and "\n" not in reason
    assert mod.probe(str(tmp_path / "missing")) is not None


def test_default_seed_runs_come_before_the_pairs(monkeypatch, tmp_path):
    mod = load()
    metrics = {name: {"value": 1.0} for name in mod.METRICS}
    ok = {"metrics": metrics, "correct": True, "failed": 0}
    calls = fake_runs(mod, monkeypatch, [ok] * 8)
    out = tmp_path / "bench.json"
    monkeypatch.setattr("sys.argv", [
        "bench_pairs.py", "--parent", "P", "--change", "C", "--workloads",
        "grid,curves", "--seeds", "1", "--default-seed", "--out", str(out)])
    assert mod.main() == 0
    assert calls == [("C", "grid", None, 0), ("C", "grid", None, 1),
                     ("C", "curves", None, 0), ("C", "curves", None, 1),
                     ("P", "grid", 1, 0), ("C", "grid", 1, 0),
                     ("P", "curves", 1, 0), ("C", "curves", 1, 0)]
    doc = json.loads(out.read_text())
    assert [r["correct"] for r in doc["traced_runs"]] == [True, True]
    assert [r["workload"] for r in doc["default_seed_runs"]] == [
        "grid", "curves"]


def test_an_incorrect_traced_run_stops_before_the_pairs(
        monkeypatch, tmp_path, capsys):
    mod = load()
    metrics = {name: {"value": 1.0} for name in mod.METRICS}
    ok = {"metrics": metrics, "correct": True, "failed": 0}
    wrong = {**ok, "correct": False}
    calls = fake_runs(mod, monkeypatch, [ok, wrong])
    out = tmp_path / "bench.json"
    monkeypatch.setattr("sys.argv", [
        "bench_pairs.py", "--parent", "P", "--change", "C", "--workloads",
        "curves,grid", "--seeds", "1-10", "--default-seed",
        "--out", str(out)])
    assert mod.main() == 2
    assert calls == [("C", "curves", None, 0), ("C", "curves", None, 1)]
    doc = json.loads(out.read_text())
    assert doc["traced_runs"] == [{"side": "change", "workload": "curves",
                                   "exit_code": 0, "correct": False,
                                   "wrong": []}]
    assert doc["workloads"] == {}
    err = capsys.readouterr().err.splitlines()
    assert err == ["bench_pairs: the change checkout C: its traced curves "
                   "run is not correct (exit code 0)"]
