"""Seeded input generators for the four workloads.

Each generator returns a JSON-serialisable list of operations. The same
(workload, seed) always gives the same list. Compositions are stratified
(fixed counts per operation kind; fixed schedules of heights, degrees,
prime bounds and group orders; the seed picks coefficients, generators,
conjugators and the order of operations) so that runs with different
seeds do comparable amounts of work.
"""

from __future__ import annotations

import itertools
import random
from math import gcd

from exact import conjugate_gens, discriminant, group_elements, mat_det

JMAP_LABELS = ("2B", "3Cs.1.1", "9B0-9a", "9H0-9b", "Et", "no-9-isogeny")
# max(deg num, deg den) of each named j-map.
JMAP_DEGREE = {"2B": 3, "3Cs.1.1": 12, "9B0-9a": 12, "9H0-9b": 36, "Et": 12,
               "no-9-isogeny": 12}

# A curve whose torsion computation does not finish:
# arith._pollard_brent(861037643 = 7951 * 108293) never leaves its loop.
KNOWN_HANG_CURVE = [24, 4, 1, -7, 29]

# Discriminant resultants of fiber curves that take well under a second:
# 2B against a degree-12 map, eliminating the 2B coordinate (degree 3).
# Directions eliminating a degree-12 coordinate take 2-3 s, degree-12 by
# degree-12 pairs over 6 s, and any direction with a degree-36 (9H0-9b)
# side up to 282 s, so they are left out.
RESULTANT_DIRECTIONS = tuple(
    [("2B", b, 0) for b in ("3Cs.1.1", "9B0-9a", "Et", "no-9-isogeny")]
    + [(b, "2B", 1) for b in ("3Cs.1.1", "9B0-9a", "Et", "no-9-isogeny")])

LEVEL9_BUILTIN = ("9B0-9a", "9H0-9b", "9J0-9b")
LEVEL9_TABLES = {
    "9B0-9a": [(1, 1, 0, 1), (2, 0, 0, 5), (1, 0, 0, 2)],
    "9J0-9b": [(1, 3, 0, 1), (2, 2, 3, 8), (2, 1, 0, 1)],
    "9H0-9b": [(1, 0, 3, 1), (5, 3, 0, 2), (2, 0, 1, 1)],
}

# Random subgroups are drawn by rejection until the closure has the
# slot's (order, contains -I); the strata fix the work per run while the
# seed picks the generators. Level -> generator count -> targets, each
# used STRATUM_SLOTS times. Each target has probability at least 3%
# under uniform random generators.
STRATUM_SLOTS = 2
GROUP_STRATA = {
    9: {1: [(6, False), (12, True), (18, True), (24, True)],
        2: [(108, True), (162, True), (324, True), (648, True),
            (1296, True), (1944, True), (3888, True)]},
    5: {1: [(4, False), (24, True)], 2: [(96, True), (480, True)]},
    7: {1: [(6, False), (48, True)], 2: [(1008, True), (2016, True)]},
    11: {1: [(10, False), (120, True)], 2: [(6600, True), (13200, True)]},
}


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"perfbench/{workload}/{seed}")


def _nonzero(rng, lo, hi):
    v = 0
    while v == 0:
        v = rng.randint(lo, hi)
    return v


def _random_invertible(rng, n):
    while True:
        m = tuple(rng.randrange(n) for _ in range(4))
        if gcd(mat_det(m, n), n) == 1:
            return m


def _random_curve(rng):
    while True:
        a = [rng.randint(-50, 50) for _ in range(5)]
        if discriminant(a) != 0:
            return a


def grid(seed: int) -> list[dict]:
    rng = _rng("grid", seed)
    ops = []
    # Degrees follow the height, so every seed evaluates the same
    # (height, degree) pairs; the seed picks coefficients and order.
    for height in range(5, 55):
        fdeg, hdeg = 2 + height % 6, height % 5 - 1
        f = [rng.randint(-9, 9) for _ in range(fdeg)] + [_nonzero(rng, -9, 9)]
        h = ([rng.randint(-3, 3) for _ in range(hdeg)]
             + [_nonzero(rng, -3, 3)]) if hdeg >= 0 else []
        ops.append({"kind": "search_hyperelliptic", "h": h, "f": f,
                    "height": height})
    # Ordered pairs grouped by total map degree, which sets the cost; the
    # class of each height is fixed and the seed picks a pair within it.
    by_cost: dict[int, list] = {}
    for a, b in itertools.permutations(JMAP_LABELS, 2):
        cost = JMAP_DEGREE[a] + JMAP_DEGREE[b]
        by_cost.setdefault(cost, []).append((a, b))
    costs = sorted(by_cost)
    for height in range(5, 25):
        a, b = rng.choice(by_cost[costs[height % len(costs)]])
        ops.append({"kind": "search_plane", "a": a, "b": b,
                    "height": height})
    for height in range(5, 45):
        ops.append({"kind": "zeta3_descent_search", "height": height})
    rng.shuffle(ops)
    return ops


def curves(seed: int) -> list[dict]:
    rng = _rng("curves", seed)
    ops = []
    for i in range(32):
        ops.append({"kind": "identify_image", "curve": _random_curve(rng),
                    "level": 2 + i % 2, "bound": 1500 + 30 * i})
    # About one random curve in five has a torsion computation that runs
    # into the factorisation hang, so only a few random curves get one:
    # each hang costs the whole ceiling.
    slots = [_random_curve(rng) for _ in range(80)] + [KNOWN_HANG_CURVE]
    for i, a in enumerate(slots):
        ops.append({"kind": "two_torsion_image", "curve": a})
        ops.append({"kind": "rational_3isogeny_kernel", "curve": a})
        if i < 5 or a is KNOWN_HANG_CURVE:
            ops.append({"kind": "torsion_over_Q", "curve": a})
    for a, b, axis in RESULTANT_DIRECTIONS:
        ops.append({"kind": "discriminant_roots", "a": a, "b": b,
                    "axis": axis, "nodes": [rng.randint(-60, 60)
                                            for _ in range(2)]})
    rng.shuffle(ops)
    return ops


def _group_slot(rng, level, base, source):
    x = _random_invertible(rng, level)
    minus_one = (level - 1, 0, 0, level - 1)
    return {"level": level, "base": [list(g) for g in base],
            "source": source,
            "conj": [list(g) for g in conjugate_gens(base, x, level)],
            "minus_one": minus_one in group_elements(base, level)}


def _stratified_gens(rng, level, k, order, minus_one):
    target = (level - 1, 0, 0, level - 1)
    while True:
        gens = [_random_invertible(rng, level) for _ in range(k)]
        els = group_elements(gens, level, limit=order)
        if len(els) == order and (target in els) == minus_one:
            return gens


def groups(seed: int, catalog_text: str) -> list[dict]:
    rng = _rng("groups", seed)
    slots = []
    # Built-in level-9 groups (named_group) and the same groups read
    # from the catalog file, each against a random conjugate.
    for label in LEVEL9_BUILTIN:
        for source in ({"named": label}, {"catalog": label}):
            slots.append(_group_slot(rng, 9, LEVEL9_TABLES[label], source))
    for level, by_k in GROUP_STRATA.items():
        for k, targets in by_k.items():
            for order, minus_one in targets * STRATUM_SLOTS:
                gens = _stratified_gens(rng, level, k, order, minus_one)
                slots.append(_group_slot(rng, level, gens, {"gens": k}))
    rng.shuffle(slots)
    ops = [{"kind": "parse_catalog", "text": catalog_text}]
    for i, s in enumerate(slots):
        ops.append({"kind": "base_group", "slot": i, "level": s["level"],
                    "gens": s["base"], "source": s["source"]})
        ops.append({"kind": "closure", "slot": i, "level": s["level"],
                    "gens": s["conj"]})
        ops.append({"kind": "is_conjugate", "slot": i})
        targets = ("base", "conj")
        for t in targets:
            ops.append({"kind": "is_applicable", "slot": i, "of": t})
        if s["level"] == 9:
            for t in targets:
                ops.append({"kind": "index3_fixing_count", "slot": i,
                            "of": t})
            if s["minus_one"]:
                for t in targets:
                    ops.append({"kind": "complements_index3", "slot": i,
                                "of": t})
                ops.append({"kind": "index6_complement_search", "slot": i,
                            "of": "conj"})
        else:
            for t in targets:
                ops.append({"kind": "dickson_classify", "slot": i, "of": t})
                ops.append({"kind": "stable_lines", "slot": i, "of": t})
    return ops


def battery(seed: int) -> list[dict]:
    # The battery is the fixed default verify-all run; the seed is unused.
    return [{"kind": "verify_all",
             "argv": ["verify-all", "--catalog", "sample_catalog.txt",
                      "--json"]}]


def generate(workload: str, seed: int, catalog_text: str) -> list[dict]:
    if workload == "grid":
        return grid(seed)
    if workload == "curves":
        return curves(seed)
    if workload == "groups":
        return groups(seed, catalog_text)
    if workload == "battery":
        return battery(seed)
    raise ValueError(f"unknown workload {workload!r}")
