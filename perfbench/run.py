"""gl2tors benchmark: one command per workload, seed and mode.

    python3 perfbench/run.py --workload grid --seed 1 --seconds 20 --trace 0

Run from the root of a checkout. Inputs are generated from the seed
here; each pass runs them in a fresh interpreter (perfbench/client.py),
one operation at a time, closed loop, single thread. Untraced runs make
--seconds // PASS_S passes and time each operation by its median pass,
in seconds at the reference host speed (REF_S); traced runs make one
untraced and one traced pass and report per-layer metrics. The last
line of output is one JSON object.

    python3 perfbench/run.py --record    # rewrite perfbench/expected/
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import workloads
from tracer import LAYERS

HERE = Path(__file__).resolve().parent
CLIENT = HERE / "client.py"
EXPECTED = HERE / "expected"
DEFAULT_SEED = 1
PROBES = 3
# Nominal time of client.speed_probe's loop (its typical time on a
# shared 2.1 GHz Xeon). End-to-end times are given at the host speed at
# which the loop takes this long: each stretch of measured time is
# multiplied by REF_S over the probe time measured around it. A shared
# host slows every operation by about the same factor as the loop, and
# the scaling takes that factor out.
REF_S = 3.0e-4
DEADLINE_S = 165.0
# A run makes --seconds // PASS_S passes (at least one), so the pass
# count never depends on how fast the code under test is. Curves makes
# the most: with three passes, the host's slow spells spread its
# ten-seed wall_s by 20%, and more passes average over more of them.
PASS_S = {"battery": 20, "grid": 6, "groups": 6, "curves": 4}

# Per-operation wall-clock ceilings, fixed per workload. The battery is
# one verify-all call.
CEILING_S = {"battery": 120.0, "grid": 5.0, "groups": 5.0, "curves": 0.5}
# Traced passes are slower; the ceiling scales so that tracing alone
# cannot turn a result into a timeout.
TRACE_CEILING_FACTOR = 4.0

SETUP_MODULES = ("numpy", "gl2tors") + tuple(
    f"gl2tors.{m}" for m in ("arith", "modmat", "polynomial", "groups",
                             "catalog", "action", "elliptic", "jmaps",
                             "verify", "cli"))
BATTERY_CHECKS = (
    "group-orders", "standard-orders", "index3-bound", "index6-witnesses",
    "stable-lines", "hyperelliptic-cm", "descent-cm", "fiber-3cs-9b",
    "fiber-2b-9h", "identify-images", "et-family", "property-suites",
    "resultant-evidence", "catalog.2B.group", "catalog.3B.1.1.group",
    "catalog.3B.1.2.group", "catalog.3Cs.1.1.group",
    "catalog.9B0-9a.group", "catalog.9B0-9a.level9",
    "catalog.9J0-9b.group", "catalog.9J0-9b.level9",
    "catalog.9H0-9b.group", "catalog.9H0-9b.level9")

# Per-layer metrics: name -> (unit, better, workload it must be non-zero
# on, or None). Values come from the traced pass.
PER_LAYER: dict[str, tuple] = {
    "modmat.code_mul.calls": ("count", "lower", "groups"),
    "groups.closure_codes.calls": ("count", "lower", "groups"),
    "groups.closure_codes.self_s": ("s", "lower", "groups"),
    "groups.closure_codes.elements": ("count", "lower", "groups"),
    "groups.is_conjugate_subgroup.self_s": ("s", "lower", "groups"),
    "groups.dickson_classify.self_s": ("s", "lower", "groups"),
    "groups.is_applicable.self_s": ("s", "lower", "groups"),
    "action.index3_fixing_count.self_s": ("s", "lower", "groups"),
    "action.index6_complement_search.self_s": ("s", "lower", "groups"),
    "action.orbit_stabilizer.calls": ("count", "lower", "battery"),
    "action.hom_assignments": ("count", "lower", "groups"),
    "action.hom_hit_ratio": ("ratio", "higher", "groups"),
    "polynomial.farey_fractions.calls": ("count", "lower", "grid"),
    "polynomial.farey_fractions.self_s": ("s", "lower", "grid"),
    "polynomial.farey_fractions.distinct_heights": ("count", "lower",
                                                    "grid"),
    "polynomial.resultant.self_s": ("s", "lower", "curves"),
    "polynomial.rational_roots.calls": ("count", "lower", "curves"),
    "polynomial.rational_roots.self_s": ("s", "lower", "curves"),
    "jmaps.search_hyperelliptic.self_s": ("s", "lower", "grid"),
    "jmaps.search_plane.self_s": ("s", "lower", "grid"),
    "jmaps.zeta3_descent_search.self_s": ("s", "lower", "grid"),
    "jmaps.jmap_eval.calls": ("count", "lower", "grid"),
    "jmaps.grid_points": ("count", "lower", "grid"),
    "jmaps.hit_ratio": ("ratio", "higher", "grid"),
    "elliptic.count_points.self_s": ("s", "lower", "curves"),
    "elliptic.frobenius_signature.self_s": ("s", "lower", "curves"),
    "elliptic.torsion_over_Q.self_s": ("s", "lower", "curves"),
    "elliptic.count_points.calls": ("count", "lower", "curves"),
    "elliptic.curve_invariants.calls": ("count", "lower", "curves"),
    "elliptic.primes_sampled": ("count", "lower", "curves"),
    "elliptic.good_prime_ratio": ("ratio", "higher", "curves"),
    "arith.factorint.calls": ("count", "lower", "curves"),
    "arith.factorint.self_s": ("s", "lower", "curves"),
    "arith.is_probable_prime.calls": ("count", "lower", "curves"),
    "catalog.named_group.calls": ("count", "lower", "groups"),
    "catalog.parse_catalog.self_s": ("s", "lower", "groups"),
}
PER_LAYER.update({f"verify.check.{c}.s": ("s", "lower", "battery")
                  for c in BATTERY_CHECKS})
PER_LAYER["cli.main.self_s"] = ("s", "lower", "battery")
PER_LAYER.update({f"setup.{m.removeprefix('gl2tors.')}.s":
                  ("s", "lower", "all") for m in SETUP_MODULES})
PER_LAYER.update({f"layer.{layer}.self_s": ("s", "lower", home) for
                  layer, home in zip(LAYERS, (
                      "groups", "groups", "groups", "grid", "grid",
                      "curves", "curves", "groups", "battery", "battery"))})
PER_LAYER["trace.overhead_s"] = ("s", "lower", None)

END_TO_END = {"setup_s": "s", "wall_s": "s", "op_p50_ms": "ms",
              "op_p90_ms": "ms", "peak_rss_mb": "MB"}


class BenchError(Exception):
    pass


def _spawn(root, args, payload=None, deadline=None, flags=(), stderr=None):
    """Start a client; return (set-up seconds, stdout after 'ready',
    stderr text). Waits for the child in every case."""
    cmd = [sys.executable, *flags, str(CLIENT), *args]
    t0 = perf_counter()
    proc = subprocess.Popen(cmd, cwd=root, stdin=subprocess.PIPE,
                            stdout=subprocess.PIPE, stderr=stderr,
                            text=True)
    try:
        first = proc.stdout.readline()
        setup = perf_counter() - t0
        timeout = None if deadline is None else max(1.0, deadline
                                                    - perf_counter())
        out, err = proc.communicate(payload, timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise BenchError("client passed the run deadline")
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if first.strip() != "ready" or proc.returncode != 0:
        raise BenchError(f"client failed (exit {proc.returncode}): "
                         f"{first.strip()} {out[-300:]}")
    return setup, out, err


def _pass(root, workload, ops, deadline, spans=None):
    """One fresh-interpreter pass; traced when a spans file is given."""
    ceiling = CEILING_S[workload] * (TRACE_CEILING_FACTOR if spans else 1)
    args = ["run", repr(ceiling)] + ([str(spans)] if spans else [])
    setup, out, _ = _spawn(root, args, json.dumps(ops), deadline)
    res = json.loads(out.strip().splitlines()[-1])
    res["setup"] = (setup, setup * REF_S / res["setup_ref"])
    if workload == "battery":
        _check_battery(res)
    return res


def _check_battery(res):
    """The battery is one operation, the verify-all call. It fails when
    it exits non-zero, when a check fails, or when its report with
    `seconds` removed differs from the recorded one."""
    rec = res["ops"][0]
    if rec["status"] != "ok":
        return
    ref_path = EXPECTED / "battery_report.json"
    errors = [f"check {c['check_id']} failed: {c['details']}"
              for c in json.loads(rec["report"])["checks"]
              if c["status"] == "fail"]
    if rec["exit"] != 0:
        errors.append(f"verify-all exited {rec['exit']}")
    if (ref_path.exists()
            and rec["report"] != ref_path.read_text().rstrip("\n")):
        errors.append("report is not byte-identical to the record")
    if errors:
        rec["status"], rec["error"] = "wrong", "; ".join(errors)


def _digest_problems(workload, seed, res):
    """Compare with the outputs recorded at the default seed."""
    path = EXPECTED / "digests.json"
    if seed != DEFAULT_SEED or workload == "battery" or not path.exists():
        return []
    want = json.loads(path.read_text()).get(workload)
    got = [r.get("digest") for r in res["ops"]]
    if want is None or len(want) != len(got):
        return [f"{workload}: {len(got)} outputs, record has "
                f"{None if want is None else len(want)}"]
    return [f"op {i} ({r['kind']}) output differs from the record"
            for i, (w, r) in enumerate(zip(want, res["ops"]))
            if w is not None and r["status"] == "ok" and r["digest"] != w]


def _probe_setup(root, deadline):
    """(seconds, seconds at the reference speed) of one set-up."""
    setup, out, _ = _spawn(root, ["probe"], None, deadline)
    return setup, setup * REF_S / json.loads(out)["setup_ref"]


def _end_to_end(passes, setups):
    """The end-to-end metrics at the reference speed, and the same
    times unscaled, which are printed but are not metrics."""
    # Each operation is timed by its median over the passes it completed
    # in. Failed operations stay in the percentiles (at the ceiling, for
    # a hang) but not in wall_s, which would otherwise count the
    # ceiling; failed and fail_ratio report them.
    scaled, raw = {"ops": [], "wall": 0.0}, {"ops": [], "wall": 0.0}
    for i in range(len(passes[0]["ops"])):
        runs = [p["ops"][i] for p in passes]
        ok = [r for r in runs if r["status"] == "ok"]
        for out, key, scale in ((scaled, "t", REF_S), (raw, "s", 1.0)):
            t = statistics.median(r[key] * scale for r in ok or runs)
            out["ops"].append(t * 1e3)
            out["wall"] += t if ok else 0.0
    metrics, unscaled = {}, {}
    for m, out, k in ((metrics, scaled, 1), (unscaled, raw, 0)):
        out["ops"].sort()
        m.update(setup_s=statistics.median(x[k] for x in setups),
                 wall_s=out["wall"], op_p50_ms=statistics.median(out["ops"]),
                 op_p90_ms=_p90(out["ops"]))
    metrics["peak_rss_mb"] = statistics.median(p["peak_rss_mb"]
                                               for p in passes)
    return metrics, unscaled


def _p90(values):
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def _importtime(root, deadline):
    """Self import time per module, from `python -X importtime`."""
    _, _, err = _spawn(root, ["probe"], None, deadline,
                       flags=("-X", "importtime"), stderr=subprocess.PIPE)
    out = {}
    for line in err.splitlines():
        parts = [p.strip() for p in line.removeprefix(
            "import time:").split("|")]
        if len(parts) == 3 and parts[2] in SETUP_MODULES:
            self_us, cum_us = int(parts[0]), int(parts[1])
            # numpy is one dependency: count all of it.
            out[parts[2]] = (cum_us if parts[2] == "numpy" else self_us) / 1e6
    return out


def _per_layer(workload, base, traced, importtimes):
    tr = traced["trace"]
    calls, self_s, ctr = tr["calls"], tr["self_s"], tr["counters"]
    m = {}
    for name in PER_LAYER:
        parts = name.split(".")
        key = ".".join(parts[:2])
        if parts[-1] == "calls":
            m[name] = calls.get(key, 0)
        elif parts[-1] == "self_s" and parts[0] != "layer":
            m[name] = self_s.get(key, 0.0)
    m["groups.closure_codes.elements"] = ctr.get(
        "groups.closure_codes.elements", 0)
    m["action.hom_assignments"] = ctr.get("action.hom_assignments", 0)
    m["action.hom_hit_ratio"] = (ctr.get("action.hom_found", 0)
                                 / max(1, ctr.get("action.hom_assignments",
                                                  0)))
    m["polynomial.farey_fractions.distinct_heights"] = tr["distinct_heights"]
    m["jmaps.grid_points"] = ctr.get("jmaps.grid_points", 0)
    m["jmaps.hit_ratio"] = (ctr.get("jmaps.points_found", 0)
                            / max(1, ctr.get("jmaps.grid_points", 0)))
    m["elliptic.primes_sampled"] = ctr.get("elliptic.primes_sampled", 0)
    m["elliptic.good_prime_ratio"] = (
        ctr.get("elliptic.good_primes", 0)
        / max(1, ctr.get("elliptic.primes_sampled", 0)))
    checks = base["ops"][0].get("check_seconds", {})
    for c in BATTERY_CHECKS:
        m[f"verify.check.{c}.s"] = checks.get(c, 0.0)
    for mod in SETUP_MODULES:
        m[f"setup.{mod.removeprefix('gl2tors.')}.s"] = importtimes.get(mod,
                                                                       0.0)
    for layer, s in tr["layers"].items():
        if layer in LAYERS:
            m[f"layer.{layer}.self_s"] = s
    # Operations past the ceiling are left out: their time is the
    # (scaled) ceiling, not work.
    m["trace.overhead_s"] = sum(
        t["s"] - b["s"] for b, t in zip(base["ops"], traced["ops"])
        if b["status"] == t["status"] == "ok")
    return m


def _print_end_to_end(workload, passes, setups, metrics, unscaled,
                      attempted, failed):
    nops = len(passes[0]["ops"])
    probes = sum(p["probes"] for p in passes)
    print(f"# {workload}: {len(passes)} pass(es) of {nops} operations, "
          f"closed loop, 1 client, 1 thread, ceiling "
          f"{CEILING_S[workload]} s per operation; times at the reference "
          f"speed ({probes} speed probes of nominally {REF_S * 1e3} ms), "
          f"unscaled seconds in brackets")
    median = (f"each operation's median of {len(passes)} passes"
              if len(passes) > 1 else "each operation's time")
    notes = {"setup_s": f"median of {len(setups)} interpreter starts",
             "wall_s": f"sum over the completed operations of {median}",
             "op_p50_ms": f"median over {nops} operations of {median}",
             "op_p90_ms": f"90th percentile over {nops} operations of "
                          f"{median}" + (" (fewer than 100 samples: not "
                                         "a tail estimate)"
                                         if nops < 100 else ""),
             "peak_rss_mb": f"median of {len(passes)} passes"}
    for k, unit in END_TO_END.items():
        raw = f"[{unscaled[k]:.4f}]" if k in unscaled else ""
        print(f"{k:<14} {metrics[k]:>12.4f} {unit:<3} {raw:>12} {notes[k]}")
    print(f"{'fail_ratio':<14} {failed / attempted:>12.4f}     "
          f"{failed}/{attempted} operations failed")
    print("time waited: not applicable (one thread, no queues)")


def run(args) -> int:
    root = Path.cwd()
    if not (root / "src" / "gl2tors" / "__init__.py").is_file():
        print("perfbench: no src/gl2tors here; run from the root of a "
              "gl2tors checkout", file=sys.stderr)
        return 2
    catalog = root / "sample_catalog.txt"
    if not catalog.is_file():
        print("perfbench: sample_catalog.txt is missing", file=sys.stderr)
        return 2
    deadline = perf_counter() + DEADLINE_S
    text = catalog.read_text()
    ops = workloads.generate(args.workload, args.seed, text)
    problems = []
    if json.dumps(ops) != json.dumps(workloads.generate(args.workload,
                                                        args.seed, text)):
        problems.append("the same seed generated different inputs")
    _spawn(root, ["probe"], None, deadline)  # compiles bytecode
    passes = []
    if args.trace:
        base = _pass(root, args.workload, ops, deadline)
        out_dir = root / ".perfbench_out"
        out_dir.mkdir(exist_ok=True)
        spans = out_dir / f"spans-{args.workload}-{args.seed}.jsonl"
        traced = _pass(root, args.workload, ops, deadline, spans)
        passes = [base, traced]
        if ([(r["status"], r.get("digest")) for r in base["ops"]]
                != [(r["status"], r.get("digest")) for r in traced["ops"]]):
            problems.append("traced outputs differ from untraced outputs")
        metrics = _per_layer(args.workload, base, traced,
                             _importtime(root, deadline))
        for name, (_, _, home) in PER_LAYER.items():
            if home in (args.workload, "all") and not metrics[name]:
                problems.append(f"{name} is zero on {args.workload}")
        if traced["trace"]["missing"]:
            print("# not traced: " + " ".join(traced["trace"]["missing"]))
        print(f"# traced pass: {traced['trace']['spans']} spans in {spans}")
        for name, v in metrics.items():
            print(f"{name:<44} {v:>14.6f} {PER_LAYER[name][0]}")
    else:
        setups = [_probe_setup(root, deadline) for _ in range(PROBES)]
        npasses = max(1, int(args.seconds // PASS_S[args.workload]))
        passes = [_pass(root, args.workload, ops, deadline)
                  for _ in range(npasses)]
        setups += [p["setup"] for p in passes]
        metrics, unscaled = _end_to_end(passes, setups)
    for p in passes:
        problems += _digest_problems(args.workload, args.seed, p)
        problems += [f"{r['kind']}: {r.get('error')}" for r in p["ops"]
                     if r["status"] in ("wrong", "error")]
    attempted = sum(len(p["ops"]) for p in passes)
    failed = sum(r["status"] != "ok" for p in passes for r in p["ops"])
    if not args.trace:
        _print_end_to_end(args.workload, passes, setups, metrics, unscaled,
                          attempted, failed)
    timeouts = [r["kind"] for p in passes for r in p["ops"]
                if r["status"] == "timeout"]
    if timeouts:
        print(f"# past the ceiling: {len(timeouts)} operation(s) of kinds "
              f"{', '.join(sorted(set(timeouts)))}")
    for msg in problems[:20]:
        print(f"# WRONG: {msg}")
    units = ({k: v[0] for k, v in PER_LAYER.items()} if args.trace
             else END_TO_END)
    print(json.dumps({
        "correct": not problems, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in metrics.items()}}))
    return 0


def record() -> int:
    """Record the default-seed outputs of the current code as the
    reference the oracles compare against."""
    root = Path.cwd()
    EXPECTED.mkdir(exist_ok=True)
    text = (root / "sample_catalog.txt").read_text()
    digests = {}
    for w in ("battery", "grid", "groups", "curves"):
        res = _pass(root, w, workloads.generate(w, DEFAULT_SEED, text),
                    perf_counter() + 600)
        if w == "battery":
            (EXPECTED / "battery_report.json").write_text(
                res["ops"][0]["report"] + "\n")
        else:
            digests[w] = [r.get("digest") if r["status"] == "ok" else None
                          for r in res["ops"]]
    (EXPECTED / "digests.json").write_text(json.dumps(digests, indent=1)
                                           + "\n")
    return 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=("battery", "grid", "groups",
                                          "curves"))
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--record", action="store_true")
    args = p.parse_args(argv)
    if args.record:
        return record()
    if args.workload is None:
        p.error("--workload is required")
    try:
        return run(args)
    except BenchError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
