"""One fresh-interpreter run of a workload against gl2tors.

Started by run.py from the root of a checkout. It imports gl2tors from
the checkout's src/ directory, prints `ready` (the end of set-up), reads
the generated operations as JSON on stdin, runs them back to back, one
at a time, each under a SIGALRM wall-clock ceiling, then checks every
output and prints one JSON result line.

    python3 perfbench/client.py probe                  # set-up only
    python3 perfbench/client.py run CEILING [SPANS_FILE]   # SPANS_FILE: traced

Host speed. On a shared host the same pass can take 50% longer from one
minute to the next, and every operation slows by about the same factor.
So the client times a fixed reference loop (`speed_probe`) right after
set-up and, in untraced runs, after every PROBE_EVERY_S of process CPU
time (SIGPROF). Each operation's time is given twice: `s`, the seconds
it took with the probes inside it taken out, and `t`, the same stretch
of time with each piece between two probes divided by the median probe
time around it (the nine nearest probes), so `t` counts reference-loop
durations. run.py turns `t` into seconds at a fixed reference speed.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import resource
import signal
import statistics
import sys
from bisect import bisect_left, bisect_right
from fractions import Fraction
from time import perf_counter

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, SRC)

import gl2tors  # noqa: E402
import gl2tors.cli  # noqa: E402

if not os.path.abspath(gl2tors.__file__).startswith(SRC + os.sep):
    sys.exit(f"gl2tors was imported from {gl2tors.__file__}, not {SRC}")
print("ready", flush=True)

# The probe does small-int arithmetic only. It allocates nothing the
# garbage collector tracks and keeps its working set in the first-level
# cache, so what the program did just before barely changes its time
# (under 4% inside a workload against back-to-back; probes that
# allocate strings, use big ints or look up a dict were slower by 6-22%
# inside a workload, so they would partly measure the program itself).
# 0.25-0.4 ms on a shared 2.1 GHz Xeon.
PROBE_LOOP = 4000
PROBE_EVERY_S = 0.02
SETUP_PROBES = 11
PROBE_T: list[float] = []
PROBE_D: list[float] = []


def speed_probe(signum=None, frame=None):
    t0 = perf_counter()
    s = 0
    for i in range(PROBE_LOOP):
        s += i * i % 7
    PROBE_T.append(t0)
    PROBE_D.append(perf_counter() - t0)


for _ in range(SETUP_PROBES):
    speed_probe()
SETUP_REF = statistics.median(PROBE_D)

import exact  # noqa: E402
import tracer as tracing  # noqa: E402

g = gl2tors


class Ceiling(BaseException):
    """Raised by SIGALRM; a BaseException so library handlers that catch
    Exception (verify._run) cannot swallow it."""


def _alarm(signum, frame):
    raise Ceiling()


def _timed(fn, ceiling):
    """Run fn under the ceiling; return (status, result, start, end)."""
    status, result = "ok", None
    t0 = perf_counter()
    try:
        signal.setitimer(signal.ITIMER_REAL, ceiling)
        try:
            result = fn()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    except Ceiling:
        status = "timeout"
    except Exception as e:  # noqa: BLE001 - an operation error is a result
        status, result = "error", f"{type(e).__name__}: {e}"
    return status, result, t0, perf_counter()


def _probe_medians():
    """The median time of the nine probes around each probe."""
    return [statistics.median(PROBE_D[max(0, j - 4):j + 5])
            for j in range(len(PROBE_D))]


def _op_times(a, b, medians):
    """(seconds, reference-loop durations) of the stretch [a, b], with
    the probes that ran inside it taken out."""
    i, j = bisect_right(PROBE_T, a), bisect_left(PROBE_T, b)
    seconds = scaled = 0.0
    start, ref = a, medians[max(0, i - 1)]
    for k in range(i, j):
        seconds += PROBE_T[k] - start
        scaled += (PROBE_T[k] - start) / ref
        start, ref = PROBE_T[k] + PROBE_D[k], medians[k]
    seconds += b - start
    scaled += (b - start) / ref
    return seconds, scaled


def _fr(v: Fraction) -> str:
    return f"{v.numerator}/{v.denominator}"


def _pt(p) -> str:
    return ",".join(_fr(Fraction(c)) for c in p)


def _bivariate_model(h, f):
    """y^2 + h(x) y - f(x) as a BiPoly in (x, y)."""
    c = {(0, 2): 1}
    for e, v in enumerate(h):
        c[(e, 1)] = c.get((e, 1), 0) + v
    for e, v in enumerate(f):
        c[(e, 0)] = c.get((e, 0), 0) - v
    return g.BiPoly(c)


# Each kind maps (op, env) to (run, check, canon). run is timed; check
# returns None or a reason the output is wrong; canon renders the output
# for the digest. env carries objects between the operations of a slot.

def k_search_hyperelliptic(op, env):
    h = g.UniPoly.from_coeffs(op["h"])
    f = g.UniPoly.from_coeffs(op["f"])
    H = op["height"]

    def check(pts):
        F = _bivariate_model(op["h"], op["f"])
        if pts != sorted(set(pts)):
            return "points not sorted and distinct"
        for x, y in pts:
            if exact.height(x) > H:
                return f"x={x} above height {H}"
            if F(x, y) != 0:
                return f"({x},{y}) not on the curve"
        return None
    return (lambda: g.search_hyperelliptic(h, f, H), check,
            lambda pts: ";".join(_pt(p) for p in pts))


def k_search_plane(op, env):
    a, b = g.named_jmap(op["a"]), g.named_jmap(op["b"])
    H = op["height"]

    def check(pts):
        F = g.fiber_curve(a, b).F
        if pts != sorted(pts):
            return "points not sorted"
        for s, t in pts:
            if max(exact.height(s), exact.height(t)) > H:
                return f"({s},{t}) above height {H}"
            if F(s, t) != 0:
                return f"({s},{t}) not on the fiber curve"
        return None
    return (lambda: g.search_plane(g.fiber_curve(a, b), H), check,
            lambda pts: ";".join(_pt(p) for p in pts))


def k_zeta3_descent_search(op, env):
    H = op["height"]

    def check(hits):
        for hit in hits:
            v = hit.t ** 3 - 27
            ok = exact.is_rational_square(
                v if hit.case == "b=0" else -v / 3)
            flag = ("excluded-singular" if hit.t == 3
                    else "cm" if hit.t in (0, -6) else "")
            if not ok or hit.flag != flag or exact.height(hit.t) > H:
                return f"bad hit {hit}"
        return None
    return (lambda: g.zeta3_descent_search(H), check,
            lambda hits: ";".join(f"{_fr(h.t)}:{h.case}:{h.flag}"
                                  for h in hits))


def k_identify_image(op, env):
    E, ell, bound = g.CurveQ(*op["curve"]), op["level"], op["bound"]
    a = op["curve"]

    def check(r):
        cands = {H.label: H for H in g.identify_candidates(ell)}
        if set(r.survivors) | {e[0] for e in r.eliminated} != set(cands):
            return "candidates lost"
        classes = {}
        for label, H in cands.items():
            m = ell - 1
            els = exact.group_elements(
                [x.entries() for x in H.generators] + [(m, 0, 0, m)], ell)
            classes[label] = {((c[0] + c[3]) % ell, exact.mat_det(c, ell))
                              for c in els}
        for label in r.survivors:
            if not set(r.observed) <= classes[label]:
                return f"survivor {label} misses an observed class"
        disc = exact.discriminant(a)
        for label, p, cls in r.eliminated:
            if p > bound or disc % p == 0 or ell % p == 0:
                return f"{label} eliminated at a bad prime {p}"
            ap = exact.frobenius_trace(a, p)
            if tuple(cls) != (ap % ell, p % ell) or cls in classes[label]:
                return f"{label} eliminated by a wrong class at {p}"
        return None
    return (lambda: g.identify_image(E, ell, g.identify_candidates(ell),
                                     bound),
            check,
            lambda r: json.dumps([sorted(r.observed), r.survivors,
                                  r.eliminated]))


def _two_division_roots(a):
    b2, b4, b6, _ = exact.b_invariants(a)
    return exact.rational_roots([b6, 2 * b4, b2, 4])


def _psi3_roots(a):
    b2, b4, b6, b8 = exact.b_invariants(a)
    return exact.rational_roots([b8, 3 * b6, 3 * b4, b2, 3])


def k_two_torsion_image(op, env):
    a = op["curve"]
    E = g.CurveQ(*a)

    def check(label):
        n = len(_two_division_roots(a))
        want = {3: "2Cs", 1: "2B"}.get(n)
        if want is None:
            b2, b4, b6, _ = exact.b_invariants(a)
            A, B, C, D = 4, b2, 2 * b4, b6
            disc = (18 * A * B * C * D - 4 * B ** 3 * D + B * B * C * C
                    - 4 * A * C ** 3 - 27 * A * A * D * D)
            want = ("2Cn" if disc > 0 and exact.is_rational_square(
                Fraction(disc)) else "GL2(F2)")
        return None if label == want else f"{label} != {want}"
    return lambda: g.two_torsion_image(E), check, str


def k_rational_3isogeny_kernel(op, env):
    a = op["curve"]
    E = g.CurveQ(*a)

    def check(xs):
        want = _psi3_roots(a)
        return None if list(xs) == want else f"{xs} != {want}"
    return (lambda: g.rational_3isogeny_kernel(E), check,
            lambda xs: ";".join(map(_fr, xs)))


def k_torsion_over_Q(op, env):
    a = op["curve"]
    E = g.CurveQ(*a)

    def check(s):
        s = tuple(s)
        if s not in exact.MAZUR:
            return f"{s} is not a torsion structure over Q"
        order = s[0] * (s[1] if len(s) == 2 else 1)
        two = len(_two_division_roots(a))
        want_two = 3 if len(s) == 2 else (1 if order % 2 == 0 else 0)
        if two != want_two:
            return f"{s} disagrees with {two} rational 2-torsion roots"
        if order % 3 == 0 and not _psi3_roots(a):
            return f"{s} has 3-torsion but psi3 has no rational root"
        return None
    return lambda: g.torsion_over_Q(E), check, str


def k_discriminant_roots(op, env):
    a, b = g.named_jmap(op["a"]), g.named_jmap(op["b"])
    axis = op["axis"]

    def run():
        F = g.fiber_curve(a, b).F
        R = g.resultant(F, F.derivative(axis), axis)
        return R, g.rational_roots(R)

    def check(out):
        R, roots = out
        rc = [R.coeff(e) for e in range(R.degree + 1)]
        for r in roots:
            if exact.poly_eval(rc, r) != 0:
                return f"root {r} does not vanish"
        F = g.fiber_curve(a, b).F
        d = F.degree(axis)
        for k in op["nodes"]:
            f = [Fraction(0)] * (d + 1)
            for (i, j), v in F.items():
                e, o = (i, j) if axis == 0 else (j, i)
                f[e] += v * Fraction(k) ** o
            df = [e * f[e] for e in range(1, d + 1)]
            if exact.det(exact.sylvester(f, df)) != exact.poly_eval(rc, k):
                return f"resultant wrong at node {k}"
        return None
    return (run, check,
            lambda out: json.dumps([[_fr(c) for c in
                                     (out[0].coeff(e) for e in
                                      range(out[0].degree + 1))],
                                    [_fr(r) for r in out[1]]]))


def _order_check(G, gens, level):
    want = len(exact.group_elements([tuple(x) for x in gens], level))
    return None if G.order == want else f"order {G.order} != {want}"


def k_parse_catalog(op, env):
    def run():
        entries = g.parse_catalog(op["text"])
        env["catalog"] = {e.label: e for e in entries}
        return entries

    def check(entries):
        for e in entries:
            bad = _order_check(e.group(), e.generators, e.level)
            if bad:
                return f"{e.label}: {bad}"
        return None
    return run, check, lambda es: ";".join(
        f"{e.label}:{e.level}:{e.generators}" for e in es)


def _group_canon(G):
    codes = sorted(G.element_codes)
    return f"{G.modulus}:{G.order}:" + hashlib.sha256(
        repr(codes).encode()).hexdigest()[:16]


def k_base_group(op, env):
    src, slot, level = op["source"], op["slot"], op["level"]

    def run():
        if "named" in src:
            G = g.named_group(src["named"])
        elif "catalog" in src:
            G = env["catalog"][src["catalog"]].group()
        else:
            G = g.closure([tuple(x) for x in op["gens"]], level)
        env[slot, "base"] = G
        return G
    return run, lambda G: _order_check(G, op["gens"], level), _group_canon


def k_closure(op, env):
    slot, level = op["slot"], op["level"]

    def run():
        G = g.closure([tuple(x) for x in op["gens"]], level)
        env[slot, "conj"] = G
        return G
    return run, lambda G: _order_check(G, op["gens"], level), _group_canon


def k_is_conjugate(op, env):
    slot = op["slot"]
    return (lambda: g.is_conjugate(env[slot, "conj"], env[slot, "base"]),
            lambda r: None if r is True else "conjugates reported apart",
            str)


def _invariant(kind, fn, canon=str):
    """An operation on the base or the conjugated group of a slot; the
    conjugate's result must equal the base group's."""
    def make(op, env):
        slot, of = op["slot"], op["of"]

        def run():
            r = fn(env[slot, of])
            env[slot, of, kind] = canon(r)
            return r

        def check(r):
            if of == "conj" and env.get((slot, "base", kind)) != canon(r):
                return (f"{kind} changed under conjugation: "
                        f"{env.get((slot, 'base', kind))} -> {canon(r)}")
            return None
        return run, check, canon
    return make


def _complement_counts(G):
    return sorted(g.index3_fixing_count(C)
                  for C in g.minus_one_complements(G))


def k_index6_complement_search(op, env):
    slot = op["slot"]
    closures = {}

    def check(wits):
        for w in wits:
            if not w.verify():
                return f"witness {w.vector} fails verify()"
            key = id(w.subgroup)
            if key not in closures:
                closures[key] = exact.group_elements(
                    [x.entries() for x in w.subgroup.generators], 9)
            v = (w.vector.x, w.vector.y)
            if exact.orbit_size(closures[key], v, 9) != 6:
                return f"orbit of {v} is not of size 6"
        return None
    return (lambda: g.index6_complement_search(env[slot, "conj"]), check,
            lambda wits: ";".join(f"{_group_canon(w.subgroup)}@"
                                  f"{w.vector.x},{w.vector.y}"
                                  for w in wits))


def _split_report(stdout):
    """verify-all --json output as (report without timings, seconds per
    check)."""
    checks = json.loads(stdout)["checks"]
    seconds = {c["check_id"]: c.pop("seconds") for c in checks}
    return json.dumps({"checks": checks}, indent=2), seconds


def k_verify_all(op, env):
    def run():
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = gl2tors.cli.main(op["argv"])
        return code, buf.getvalue()
    # run.py compares the report with the recorded one.
    return (run, lambda out: None,
            lambda out: f"{out[0]}:{_split_report(out[1])[0]}")


# The lambdas look functions up on the package at call time, so traced
# passes call the wrapped versions.
KINDS = {
    "search_hyperelliptic": k_search_hyperelliptic,
    "search_plane": k_search_plane,
    "zeta3_descent_search": k_zeta3_descent_search,
    "identify_image": k_identify_image,
    "two_torsion_image": k_two_torsion_image,
    "rational_3isogeny_kernel": k_rational_3isogeny_kernel,
    "torsion_over_Q": k_torsion_over_Q,
    "discriminant_roots": k_discriminant_roots,
    "parse_catalog": k_parse_catalog,
    "base_group": k_base_group,
    "closure": k_closure,
    "is_conjugate": k_is_conjugate,
    "is_applicable": _invariant("is_applicable",
                                lambda G: g.is_applicable(G),
                                lambda a: str(a.ok)),
    "index3_fixing_count": _invariant(
        "index3_fixing_count", lambda G: g.index3_fixing_count(G)),
    "complements_index3": _invariant("complements_index3",
                                     _complement_counts),
    "index6_complement_search": k_index6_complement_search,
    "dickson_classify": _invariant("dickson_classify",
                                   lambda G: g.dickson_classify(G),
                                   lambda c: c.tag),
    "stable_lines": _invariant("stable_lines", lambda G: g.stable_lines(G)),
    "verify_all": k_verify_all,
}


def run_ops(ops, ceiling, tracer=None):
    """Run the operations back to back; check them afterwards."""
    env: dict = {}
    done = []
    t_start = perf_counter()
    for i, op in enumerate(ops):
        run, check, canon = KINDS[op["kind"]](op, env)
        if tracer is not None:
            close = tracer.op_span(i, op["kind"])
            status, result, a, b = _timed(run, ceiling)
            close()
        else:
            status, result, a, b = _timed(run, ceiling)
        done.append((op, status, result, a, b, check, canon))
    wall = perf_counter() - t_start
    signal.setitimer(signal.ITIMER_PROF, 0)
    medians = _probe_medians()
    records = []
    for i, (op, status, result, a, b, check, canon) in enumerate(done):
        s, t = _op_times(a, b, medians)
        rec = {"kind": op["kind"], "status": status, "s": s, "t": t}
        if status == "ok":
            try:
                reason = check(result)
                text = canon(result)
                if op["kind"] == "verify_all":
                    rec["exit"] = result[0]
                    rec["report"], rec["check_seconds"] = _split_report(
                        result[1])
            except Exception as e:  # noqa: BLE001 - report, do not crash
                reason, text = f"oracle raised {type(e).__name__}: {e}", ""
            if reason:
                rec["status"], rec["error"] = "wrong", reason
            rec["digest"] = hashlib.sha256(text.encode()).hexdigest()[:16]
        elif status == "error":
            rec["error"] = result
        records.append(rec)
    return wall, records


def main(argv):
    if argv[1] == "probe":
        print(json.dumps({"setup_ref": SETUP_REF}))
        return 0
    ceiling = float(argv[2])
    spans_path = argv[3] if len(argv) > 3 else None
    ops = json.load(sys.stdin)
    signal.signal(signal.SIGALRM, _alarm)
    tr = None
    if spans_path:
        tr = tracing.Tracer()
        tr.install()
    else:
        signal.signal(signal.SIGPROF, speed_probe)
        signal.setitimer(signal.ITIMER_PROF, PROBE_EVERY_S, PROBE_EVERY_S)
    wall, records = run_ops(ops, ceiling, tr)
    out = {"wall_s": wall, "ops": records, "setup_ref": SETUP_REF,
           "probes": len(PROBE_D),
           "peak_rss_mb": resource.getrusage(
               resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    if tr is not None:
        out["trace"] = {
            "calls": dict(tr.calls), "self_s": dict(tr.self_s),
            "counters": dict(tr.counters),
            "distinct_heights": len(tr.heights),
            "layers": tr.layer_self(), "spans": len(tr.spans),
            "missing": tr.missing,
        }
        with open(spans_path, "w", encoding="utf-8") as fh:
            for s in tr.spans:
                fh.write(json.dumps(s) + "\n")
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
