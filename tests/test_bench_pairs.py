"""scripts/bench_pairs.py runs a run that printed no result line once
more, keeps the failed run under `reruns`, and uses the rerun only when
it printed a result. `run` is replaced, so no benchmark runs here."""

import importlib.util
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
    summary = mod.summarize(pairs)
    assert summary["wall_s"]["parent_median"] == 1.0
    assert summary["wall_s"]["change_lower_in"] == 0
