"""The full verification battery: every headline computation as a timed,
self-describing check.

A built-in check is a plain function that returns (status, details):
status is "pass", "fail" or "evidence-only", details one line of what it
found. `run_all` lists the checks once, as a table of (check_id, function)
rows in report order, and wraps each row in `_run`, which times it and
turns an exception into a fail line, so that one broken check never
stops the battery. Exhaustive computations report pass/fail;
bounded-height searches always report evidence-only on success, since a
grid sweep can never prove completeness.
"""

from __future__ import annotations

import functools
import random
import time
from dataclasses import dataclass
from fractions import Fraction
from math import gcd

import numpy as np

from . import catalog as _catalog
from .action import (index3_fixing_count, index6_complement_search,
                     minus_one_complements, orbit_stabilizer)
from .elliptic import (CurveQ, count_points, curve_Et, curve_invariants,
                       identify_image, is_cm_j, parse_curve, torsion_over_Q)
from .groups import (STANDARD_KINDS, GenGroup, contains_minus_identity,
                     dickson_classify, is_applicable, stable_lines,
                     standard_order, standard_subgroup)
from .jmaps import (fiber_curve, fiber_points, jmap_eval, named_jmap,
                    search_hyperelliptic, search_plane, zeta3_descent_search)
from .modmat import TorVec, code_det, code_inverse, code_mul, code_pack
from .polynomial import _grid_arrays, parse_poly, rational_roots, resultant


@dataclass
class VerificationReport:
    check_id: str
    status: str  # "pass", "fail", or "evidence-only"
    details: str
    seconds: float


def _run(check_id: str, fn) -> VerificationReport:
    t0 = time.monotonic()
    try:
        status, details = fn()
    except Exception as e:  # noqa: BLE001 - a check must never crash the run
        status, details = "fail", f"error: {e!r}"
    return VerificationReport(check_id, status, details,
                              time.monotonic() - t0)


def _group_orders():
    full = standard_subgroup("full", 3)
    B = _catalog.named_group("3B.1.1")
    ok = (full.order == 48 and B.order == 6 and B.index == 8
          and not contains_minus_identity(B))
    det = (f"gl2_f3={full.order} borel_order={B.order} "
           f"borel_index={B.index} minus_id={contains_minus_identity(B)}")
    return ("pass" if ok else "fail"), det


def _standard_orders():
    bad = []
    for p in (3, 5, 7):
        for kind in STANDARD_KINDS:
            G = standard_subgroup(kind, p)
            expected = standard_order(kind, p)
            reclosed = GenGroup(p, G.gen_codes)
            if G.order != expected or reclosed.order != expected:
                bad.append((kind, p, G.order, reclosed.order, expected))
    if bad:
        return "fail", f"mismatches={bad}"
    return "pass", "kinds=7 primes=3,5,7 all-match"


def index3_counts(G: GenGroup) -> list[int]:
    """Index-3 fixing class counts of G, then of each index-2 complement
    of -I in G when G contains -I."""
    counts = [index3_fixing_count(G)]
    if contains_minus_identity(G):
        counts += [index3_fixing_count(C) for C in minus_one_complements(G)]
    return counts


def index3_bound_ok(counts: list[int]) -> bool:
    """The paper's bound: at most 2 classes in each of index3_counts."""
    return all(c <= 2 for c in counts)


def _index3_bound():
    rows = []
    ok = True
    for lab in _catalog.EMBEDDED_LEVEL9:
        counts = index3_counts(_catalog.named_group(lab))
        rows.append(f"{lab}:{','.join(map(str, counts))}")
        ok = ok and index3_bound_ok(counts)
    return ("pass" if ok else "fail"), " ".join(rows)


def _index6_witnesses():
    rows = []
    ok = True
    for lab in _catalog.EMBEDDED_LEVEL9:
        H = _catalog.named_group(lab)
        wits = index6_complement_search(H)
        ok = ok and len(wits) > 0 and all(w.verify() for w in wits)
        rows.append(f"{lab}:{len(wits)}")
    full = standard_subgroup("full", 9)
    wfull = index6_complement_search(full)
    ok = ok and len(wfull) == 0
    rows.append(f"GL2(Z/9):{len(wfull)}")
    return ("pass" if ok else "fail"), " ".join(rows)


def _stable_lines():
    n1 = stable_lines(_catalog.named_group("3B.1.1"))
    n2 = stable_lines(_catalog.named_group("3B.1.2"))
    ok = n1 == 1 and n2 == 1
    return ("pass" if ok else "fail"), f"3B.1.1={n1} 3B.1.2={n2}"


def _hyperelliptic_cm(fiber_height: int):
    h = parse_poly("x^3 + 1")
    f = parse_poly("-9*x^3")
    pts = search_hyperelliptic(h, f, 100)
    C = fiber_curve(named_jmap("no-9-isogeny"), named_jmap("2B"))
    jvals = {fp.j for fp in fiber_points(C, fiber_height)
             if fp.kind == "finite"}
    ok = (jvals <= {Fraction(0), Fraction(54000)}
          and all(is_cm_j(j) for j in jvals) and len(pts) > 0)
    det = (f"model-points={len(pts)} j-values="
           f"{sorted(map(str, jvals))} all-cm={ok}")
    return ("evidence-only" if ok else "fail"), det


def _descent_cm():
    hits = zeta3_descent_search(200)
    kept = sorted({h.t for h in hits if h.flag != "excluded-singular"})
    ok = kept == [Fraction(-6), Fraction(0)]
    flagged = sorted({str(h.t) for h in hits
                      if h.flag == "excluded-singular"})
    det = f"kept={[str(t) for t in kept]} excluded={flagged}"
    return ("evidence-only" if ok else "fail"), det


def _fiber_3cs_9b(height: int):
    C = fiber_curve(named_jmap("3Cs.1.1"), named_jmap("9B0-9a"))
    kinds = []
    ok = True
    for fp in fiber_points(C, height):
        kinds.append(f"({fp.s},{fp.t}):{fp.kind}"
                     + (f":j={fp.j}" if fp.kind == "finite" else ""))
        if fp.kind == "finite" and fp.j != 0:
            ok = False
    return ("evidence-only" if ok else "fail"), " ".join(kinds)


def _fiber_2b_9h(height: int):
    C = fiber_curve(named_jmap("2B"), named_jmap("9H0-9b"))
    pts = search_plane(C, height)
    ok = all(s == 0 for s, _ in pts)
    det = " ".join(f"({s},{t})" for s, t in pts) or "no-points"
    return ("evidence-only" if ok else "fail"), det + f" all-s0={ok}"


def _identify_images(bound: int):
    cands = _catalog.identify_candidates(3)
    r37 = identify_image(parse_curve("[0,0,1,-1,0]"), 3, cands, bound)
    r14a4 = identify_image(parse_curve("[1,0,1,-1,0]"), 3, cands, bound)
    r14a6 = identify_image(parse_curve("[1,0,1,-171,-874]"), 3, cands,
                           bound)
    ok = (r37.survivors == ("GL2(F3)",)
          and "3B.1.1" in r14a4.survivors
          and "3B.1.2" in r14a6.survivors)
    det = (f"37a1={list(r37.survivors)} "
           f"14a4={list(r14a4.survivors)} "
           f"14a6={list(r14a6.survivors)}")
    return ("pass" if ok else "fail"), det


_ET_SAMPLES = (Fraction(1), Fraction(2), Fraction(4), Fraction(-1),
               Fraction(-6), Fraction(1, 2), Fraction(-3, 2), Fraction(5),
               Fraction(7, 3), Fraction(-10))


def _et_family():
    jmap = named_jmap("Et")
    scale = 2 ** 12 * 3 ** 6
    for t in _ET_SAMPLES:
        E = curve_Et(t)
        inv = curve_invariants(E)
        if inv.disc != scale * (t ** 3 - 27):
            return "fail", f"disc mismatch at t={t}"
        if inv.j != jmap_eval(jmap, t):
            return "fail", f"j mismatch at t={t}"
    try:
        curve_Et(3)
        return "fail", "t=3 not rejected"
    except ValueError:
        pass
    return "pass", f"samples={len(_ET_SAMPLES)} disc-and-j-match"


def _resultant_evidence():
    """Discriminant resultants of the two degree-3 fiber directions have
    rational roots only at already-known pole or CM parameters."""
    m2b = named_jmap("2B")
    m9h = named_jmap("9H0-9b")
    mno = named_jmap("no-9-isogeny")
    F = fiber_curve(m2b, m9h).F
    R1 = resultant(F, F.derivative(0), 0)
    roots1 = rational_roots(R1)
    G = fiber_curve(mno, m2b).F
    R2 = resultant(G, G.derivative(1), 1)
    roots2 = rational_roots(R2)
    ok = (set(roots1) <= {Fraction(-1), Fraction(1)}
          and set(roots2) <= {Fraction(-3), Fraction(0)})
    det = (f"deg1={R1.degree} roots1={[str(r) for r in roots1]} "
           f"deg2={R2.degree} roots2={[str(r) for r in roots2]}")
    return ("evidence-only" if ok else "fail"), det


# Every property suite draws its instances from this seed.
_SEED = 20260815


def _random_invertible(rng: random.Random, n: int) -> int:
    """Code of a random invertible matrix mod n."""
    while True:
        x = code_pack(rng.randrange(n), rng.randrange(n), rng.randrange(n),
                      rng.randrange(n), n)
        if gcd(code_det(x, n), n) == 1:
            return x


def _require(ok: bool, what: str) -> None:
    """Fail a property suite; an explicit raise, so it holds under -O."""
    if not ok:
        raise AssertionError(what)


def prop_orbit_stabilizer() -> int:
    """|orbit| * |stabilizer| = |G| for random groups and vectors."""
    rng = random.Random(_SEED)
    for _ in range(100):
        n = rng.choice((2, 3, 9))
        gens = tuple(_random_invertible(rng, n)
                     for _ in range(rng.randint(1, 2)))
        G = GenGroup(n, gens)
        v = TorVec(rng.randrange(n), rng.randrange(n), n)
        rec = orbit_stabilizer(G, v)
        _require(rec.orbit_size * rec.stabilizer.order == G.order,
                 f"|orbit| * |stabilizer| != |G| for {v} under {gens}")
    return 100


def prop_hasse() -> int:
    """|a_p| <= 2 sqrt(p) on random curves at random good primes."""
    rng = random.Random(_SEED)
    done = 0
    while done < 100:
        E = _random_curve(rng)
        if E is None:
            continue
        p = rng.choice((5, 7, 11, 13, 17, 19, 23, 29, 31, 101, 199))
        try:
            _, a_p = count_points(E, p)
        except ValueError:
            continue
        _require(a_p * a_p <= 4 * p, f"a_{p} = {a_p} breaks the Hasse bound")
        done += 1
    return done


def _random_curve(rng: random.Random) -> CurveQ | None:
    try:
        return CurveQ(*(Fraction(rng.randint(-8, 8)) for _ in range(5)))
    except ValueError:
        return None


def prop_det_multiplicative() -> int:
    """det(AB) = det(A) det(B) on packed codes for n in {9, 27}."""
    rng = random.Random(_SEED)
    for _ in range(200):
        n = rng.choice((9, 27))
        A = _random_invertible(rng, n)
        B = _random_invertible(rng, n)
        _require(code_det(code_mul(A, B, n), n)
                 == code_det(A, n) * code_det(B, n) % n,
                 f"det is not multiplicative on {A}, {B} mod {n}")
    return 200


def prop_conjugation_invariance() -> int:
    """Classification tags, stable-line counts (level 3) and index-3
    fixing counts (level 9) are unchanged under conjugation."""
    rng = random.Random(_SEED)
    for i in range(100):
        n = 3 if i % 2 == 0 else 9
        G = GenGroup(n, (_random_invertible(rng, n),))
        x = _random_invertible(rng, n)
        conj = _conjugated(G, x)
        if n == 3:
            _require(stable_lines(G) == stable_lines(conj),
                     f"stable lines change under conjugation by {x}")
            _require(dickson_classify(G).tag == dickson_classify(conj).tag,
                     f"class tag changes under conjugation by {x}")
        else:
            _require(index3_fixing_count(G) == index3_fixing_count(conj),
                     f"index-3 count changes under conjugation by {x}")
    return 100


def _conjugated(G: GenGroup, x: int) -> GenGroup:
    """x^-1 G x, for the packed matrix x."""
    n = G.modulus
    xi = code_inverse(x, n)
    return GenGroup(n, tuple(code_mul(code_mul(xi, g, n), x, n)
                             for g in G.gen_codes))


def prop_search_monotonicity() -> int:
    """Lower-height searches are subsets of higher-height searches."""
    rng = random.Random(_SEED)
    h = parse_poly("x^3 + 1")
    f = parse_poly("-9*x^3")
    for _ in range(100):
        h1 = rng.randint(1, 20)
        h2 = rng.randint(h1, 40)
        # The grid that search_hyperelliptic scans, each coprime pair
        # (p, q) keyed p * (h2 + 1) + q, one key per pair as 1 <= q <= h2.
        low, high = (p * (h2 + 1) + q
                     for p, q in (_grid_arrays(h) for h in (h1, h2)))
        _require(np.isin(low, high).all(),
                 f"_grid_arrays({h1}) pairs not inside _grid_arrays({h2})")
        _require(set(search_hyperelliptic(h, f, h1))
                 <= set(search_hyperelliptic(h, f, h2)),
                 f"height-{h1} points not inside height {h2}")
    return 100


def prop_mazur_membership() -> int:
    """Computed rational torsion always lies in the degree-1 table."""
    rng = random.Random(_SEED)
    done = 0
    while done < 100:
        E = _random_curve(rng)
        if E is None:
            continue
        structure = torsion_over_Q(E)
        _require(_catalog.is_admissible_torsion(structure, 1),
                 f"torsion {structure} of {E} is not in the degree-1 table")
        done += 1
    return done


PROPERTY_SUITES = (
    ("orbit-stabilizer", prop_orbit_stabilizer),
    ("hasse-bound", prop_hasse),
    ("det-multiplicative", prop_det_multiplicative),
    ("conjugation-invariance", prop_conjugation_invariance),
    ("search-monotonicity", prop_search_monotonicity),
    ("mazur-membership", prop_mazur_membership),
)


def _property_suites():
    return "pass", " ".join(f"{name}={fn()}" for name, fn in PROPERTY_SUITES)


def check_catalog_entry(entry) -> list[VerificationReport]:
    """Evidence checks for one user-supplied catalog entry."""
    out = []
    # Built once, inside the checks, so that a build error is a fail line.
    group = functools.cache(entry.group)

    def facts():
        G = group()
        app = is_applicable(G)
        det = (f"order={G.order} index={G.index} "
               f"minus_id={contains_minus_identity(G)} "
               f"applicable={app.ok} reason={app.reason!r}")
        return "evidence-only", det
    out.append(_run(f"catalog.{entry.label}.group", facts))
    if entry.level == 9:
        def level9():
            G = group()
            counts = index3_counts(G)
            wits = (index6_complement_search(G)
                    if contains_minus_identity(G) else [])
            det = (f"index3-counts={counts} index6-witnesses={len(wits)} "
                   f"bound-ok={index3_bound_ok(counts)}")
            return "evidence-only", det
        out.append(_run(f"catalog.{entry.label}.level9", level9))
    return out


def run_all(height: int = 30, prime_bound: int = 10000,
            catalog: list | None = None) -> list[VerificationReport]:
    """Run every check; bounded searches take the given height and the
    identification step the given prime bound. Each CatalogEntry in
    `catalog` (as catalog.parse_catalog returns them) adds its evidence
    checks."""
    checks = (
        ("group-orders", _group_orders),
        ("standard-orders", _standard_orders),
        ("index3-bound", _index3_bound),
        ("index6-witnesses", _index6_witnesses),
        ("stable-lines", _stable_lines),
        ("hyperelliptic-cm", functools.partial(_hyperelliptic_cm, height)),
        ("descent-cm", _descent_cm),
        ("fiber-3cs-9b", functools.partial(_fiber_3cs_9b, height)),
        ("fiber-2b-9h", functools.partial(_fiber_2b_9h, height)),
        ("identify-images", functools.partial(_identify_images, prime_bound)),
        ("et-family", _et_family),
        ("property-suites", _property_suites),
        ("resultant-evidence", _resultant_evidence),
    )
    reports = [_run(check_id, fn) for check_id, fn in checks]
    for entry in catalog or ():
        reports.extend(check_catalog_entry(entry))
    return reports
