"""Alternating parent/change runs of perfbench/run.py, written as JSON.

    python3 scripts/bench_pairs.py --parent PARENT_CHECKOUT \
        --change CHANGE_CHECKOUT --workloads curves,battery \
        --seeds 1401-1410 --out BENCH.json

For seed N the pair runs the parent first when N is odd and the change
first when N is even, each side from its own checkout, with
`python3 perfbench/run.py --workload W --seed N --seconds S --trace 0`.
Every run keeps its exit code, the tail of its stderr and its result
line (the last stdout line, parsed as JSON), or null when it printed
none. A run without a result line is run once more with the same seed,
side and workload: the failed run's exit code and stderr tail go under
`reruns`, both runs are listed on stderr, and the rerun takes the failed
run's place. A run that still printed no result is listed under
`runs_without_result`, and its pair stays out of the summary. The
summary gives, per end-to-end metric, the median and quartiles (numpy's
linear interpolation) of each side, the number of pairs in which the
change read lower, the metric's relative `bound` from BENCHMARK.json and
a `verdict`: `worse` when the change's median is worse than the
parent's by more than the bound, else `unresolved` when the parent's
interquartile range is wider than the bound, else `ok`, and a `gain`
flag, true only when at least 10 pairs have both results, the change
reads better in at least 9 of every 10 pairs run (a tie counts for
neither side, a pair without a change result against the change), the
change has no more failed operations and no more incorrect runs than
the parent, and its median is better than the parent's by more than
the parent's interquartile range. Each workload also counts the runs
of its pairs that were rerun. `--default-seed` adds one run of the
change per workload at perfbench's default seed, where it checks the
recorded digests, and one traced run (`--trace 1`) of the change per
workload at that seed, whose exit code, `correct` and `# WRONG:` lines
go under `traced_runs`; a traced run is incorrect when a layer counter
reads zero on its home workload.

It fails fast, with exit code 2 and a one-line message on stderr that
names the checkout. Before the first run each checkout is started once
with `perfbench/client.py probe`, and the script stops if one does not
print `ready` and exit 0. With `--default-seed` the change's
default-seed and traced runs come before the pairs, and the script
writes what it has and stops if one of them prints no result line, is
not correct or prints a `# WRONG:` line.

Both sides compile their sources alike: before the first run the
`__pycache__` directories under each checkout's `src/` and `perfbench/`
are deleted, and every run has PYTHONDONTWRITEBYTECODE=1 (recorded under
`environment`), so neither side imports from bytecode.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np

METRICS = ("setup_s", "wall_s", "op_p50_ms", "op_p90_ms", "peak_rss_mb")
STDERR_LINES = 20
BENCHMARK = Path(__file__).resolve().parents[1] / "BENCHMARK.json"
ENVIRONMENT = {"PYTHONDONTWRITEBYTECODE": "1"}


def run(checkout: str, workload: str, seed: int | None,
        seconds: float, trace: int = 0) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seconds", str(seconds), "--trace", str(trace)]
    if seed is not None:
        cmd += ["--seed", str(seed)]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True,
                          env={**os.environ, **ENVIRONMENT})
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    return {"exit_code": proc.returncode,
            "stderr_tail": proc.stderr.splitlines()[-STDERR_LINES:],
            "wrong": [ln for ln in lines if ln.startswith("# WRONG:")],
            "result": result}


def run_or_rerun(doc: dict, side: str, checkout: str, workload: str,
                 seed: int | None, seconds: float, trace: int = 0) -> dict:
    """run(), repeated once when the first run printed no result line."""
    r = run(checkout, workload, seed, seconds, trace)
    if r["result"] is not None:
        return r
    where = {"workload": workload, "seed": seed, "side": side,
             "trace": trace}
    doc["reruns"].append({**where, "exit_code": r["exit_code"],
                          "stderr_tail": r["stderr_tail"]})
    print(f"{workload} seed {seed} {side} trace {trace}: no result line, "
          f"exit code {r['exit_code']}; rerunning", file=sys.stderr)
    r = run(checkout, workload, seed, seconds, trace)
    print(f"{workload} seed {seed} {side} trace {trace} rerun: "
          + ("result line" if r["result"] is not None
             else f"no result line, exit code {r['exit_code']}"),
          file=sys.stderr)
    if r["result"] is None:
        doc["runs_without_result"].append({**where,
                                           "exit_code": r["exit_code"]})
    return r


def probe(checkout: str) -> str | None:
    """Start the checkout's client once, set-up only: None when it printed
    `ready` and exited 0, else why not, in one line."""
    try:
        proc = subprocess.run(
            [sys.executable, "perfbench/client.py", "probe"], cwd=checkout,
            capture_output=True, text=True,
            env={**os.environ, **ENVIRONMENT})
    except OSError as e:
        return str(e)
    if proc.returncode == 0 and proc.stdout.startswith("ready"):
        return None
    last = (proc.stderr.strip().splitlines() or ["no stderr"])[-1]
    return f"exit code {proc.returncode}: {last}"


def clear_bytecode(checkout: str) -> None:
    """Delete every __pycache__ under the checkout's src/ and perfbench/."""
    for top in ("src", "perfbench"):
        for cache in sorted(Path(checkout, top).rglob("__pycache__")):
            shutil.rmtree(cache)


def end_to_end_metrics() -> dict:
    """BENCHMARK.json's end-to-end metrics: name -> its entry."""
    with open(BENCHMARK) as f:
        return {m["name"]: m for m in json.load(f)["end_to_end"]}


def verdict(qa: list[float], qb: list[float], metric: dict) -> str:
    """`worse`, `unresolved` or `ok` for parent and change quartiles."""
    bound = metric["bound"] * abs(qa[1])
    worse = qb[1] - qa[1] if metric["better"] == "lower" else qa[1] - qb[1]
    if worse > bound:
        return "worse"
    return "unresolved" if qa[2] - qa[0] > bound else "ok"


def gain(pairs: list[dict], a: list[float], b: list[float],
         qa: list[float], qb: list[float], metric: dict) -> bool:
    """The `gain` flag (see the module docstring) for the metric values
    a, b and quartiles qa, qb of the pairs with both results."""
    sign = 1 if metric["better"] == "lower" else -1
    better_in = sum(sign * (x - y) > 0 for x, y in zip(a, b))
    if (len(a) < 10 or 10 * better_in < 9 * len(pairs)
            or sign * (qa[1] - qb[1]) <= qa[2] - qa[0]):
        return False

    def count(side, bad):
        return sum(bad(p[side]) for p in pairs if p[side]["result"])
    return all(count("change", bad) <= count("parent", bad) for bad in (
        lambda r: r["result"]["failed"],
        lambda r: not r["result"]["correct"] or bool(r["wrong"])))


def summarize(pairs: list[dict], metrics: dict) -> dict:
    done = [p for p in pairs
            if p["parent"]["result"] and p["change"]["result"]]
    out = {}
    for name in METRICS if done else ():
        a = [p["parent"]["result"]["metrics"][name]["value"] for p in done]
        b = [p["change"]["result"]["metrics"][name]["value"] for p in done]
        qa = [round(float(q), 5) for q in np.percentile(a, [25, 50, 75])]
        qb = [round(float(q), 5) for q in np.percentile(b, [25, 50, 75])]
        out[name] = {"parent_median": qa[1], "parent_q1": qa[0],
                     "parent_q3": qa[2], "change_median": qb[1],
                     "change_q1": qb[0], "change_q3": qb[2],
                     "change_lower_in": sum(y < x for x, y in zip(a, b)),
                     "bound": metrics[name]["bound"],
                     "verdict": verdict(qa, qb, metrics[name]),
                     "gain": gain(pairs, a, b, qa, qb, metrics[name])}
    return out


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True)
    ap.add_argument("--change", required=True)
    ap.add_argument("--workloads", default="battery,grid,groups,curves")
    ap.add_argument("--seeds", type=seed_range, required=True,
                    help="a seed or an inclusive range such as 1401-1410")
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--default-seed", action="store_true")
    ap.add_argument("--out", required=True)
    args = ap.parse_args()
    sides = {"parent": args.parent, "change": args.change}
    metrics = end_to_end_metrics()
    for side, checkout in sides.items():
        clear_bytecode(checkout)
        reason = probe(checkout)
        if reason:
            return fail(f"the {side} checkout {checkout} does not start: "
                        f"{reason}")
    doc = {"command": "python3 perfbench/run.py --workload W --seed N "
                      f"--seconds {args.seconds:g} --trace 0",
           "host": {"python": platform.python_version(),
                    "os": platform.system()},
           "environment": ENVIRONMENT,
           "order": "pair for seed N runs parent first when N is odd and "
                    "change first when N is even",
           "workloads": {}, "reruns": [], "runs_without_result": []}
    workloads = args.workloads.split(",")
    if args.default_seed:
        doc["default_seed_runs"], doc["traced_runs"] = [], []
        for w in workloads:
            r = run_or_rerun(doc, "change", args.change, w, None,
                             args.seconds)
            doc["default_seed_runs"].append({"side": "change",
                                             "workload": w, **r})
            t = run_or_rerun(doc, "change", args.change, w, None,
                             args.seconds, trace=1)
            doc["traced_runs"].append({
                "side": "change", "workload": w,
                "exit_code": t["exit_code"],
                "correct": t["result"]["correct"] if t["result"] else None,
                "wrong": t["wrong"]})
            for mode, x in (("default-seed", r), ("traced", t)):
                if not (x["result"] and x["result"]["correct"]
                        and not x["wrong"]):
                    write(args.out, doc)
                    return fail(f"the change checkout {args.change}: its "
                                f"{mode} {w} run is not correct (exit code "
                                f"{x['exit_code']})")
    for w in workloads:
        pairs = []
        for seed in args.seeds:
            order = (("parent", "change") if seed % 2
                     else ("change", "parent"))
            pair = {"seed": seed, "first": order[0]}
            for side in order:
                pair[side] = run_or_rerun(doc, side, sides[side], w, seed,
                                          args.seconds)
            pairs.append(pair)
        results = [p[s]["result"] for p in pairs for s in sides
                   if p[s]["result"]]
        doc["workloads"][w] = {
            "seeds": args.seeds, "pair_count": len(pairs),
            "all_correct": all(r["correct"] for r in results),
            "failed_operations": {
                s: sum(p[s]["result"]["failed"] for p in pairs
                       if p[s]["result"]) for s in sides},
            "reruns": sum(r["workload"] == w for r in doc["reruns"]),
            "summary": summarize(pairs, metrics), "pairs": pairs}
    write(args.out, doc)
    return 0


def fail(message: str) -> int:
    print(f"bench_pairs: {message}", file=sys.stderr)
    return 2


def write(path: str, doc: dict) -> None:
    with open(path, "w") as f:
        json.dump(doc, f, indent=1)
        f.write("\n")


if __name__ == "__main__":
    sys.exit(main())
