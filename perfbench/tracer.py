"""Tracing of gl2tors from the outside, for the per-layer metrics.

The tracer wraps the public functions the workloads call into and
rebinds every name that refers to them in every gl2tors module, so that
`from .x import f` copies are traced as well as the defining module.
Each wrapped call is a span (name, start, end, parent, operation id);
spans stay in memory until the run ends. Very hot leaves (matrix code
products, j-map and polynomial evaluation, Miller-Rabin) are counted and
timed but not stored as spans. Self time is a call's duration minus the
time of the wrapped calls made inside it.
"""

from __future__ import annotations

import sys
from collections import defaultdict
from time import perf_counter

from exact import primes_upto

LEAF, SPAN = "leaf", "span"

# (module, attribute, policy). Methods are written Class.method.
TARGETS = (
    ("modmat", "code_mul", LEAF), ("modmat", "code_det", LEAF),
    ("modmat", "code_trace", LEAF), ("modmat", "mat_mul", LEAF),
    ("modmat", "mat_inverse", LEAF),
    ("groups", "closure_codes", SPAN), ("groups", "closure", SPAN),
    ("groups", "greedy_generators", SPAN), ("groups", "is_conjugate", SPAN),
    ("groups", "is_conjugate_subgroup", SPAN),
    ("groups", "is_applicable", SPAN), ("groups", "dickson_classify", SPAN),
    ("groups", "stable_lines", SPAN), ("groups", "det_image", SPAN),
    ("groups", "contains_minus_identity", SPAN),
    ("groups", "standard_subgroup", SPAN),
    ("groups", "exact_order_vectors", SPAN),
    ("groups", "fixed_vectors", SPAN),
    ("action", "index3_fixing_count", SPAN),
    ("action", "index6_complement_search", SPAN),
    ("action", "orbit_stabilizer", SPAN),
    ("action", "minus_one_complements", SPAN),
    ("action", "index2_subgroups", SPAN),
    ("action", "index3_subgroups", SPAN),
    ("action", "orbit_of_vector", SPAN),
    ("polynomial", "farey_fractions", SPAN),
    ("polynomial", "resultant", SPAN),
    ("polynomial", "rational_roots", SPAN),
    ("polynomial", "poly_gcd", SPAN), ("polynomial", "parse_poly", SPAN),
    ("polynomial", "UniPoly.__call__", LEAF),
    ("polynomial", "BiPoly.__call__", LEAF),
    ("jmaps", "search_hyperelliptic", SPAN), ("jmaps", "search_plane", SPAN),
    ("jmaps", "zeta3_descent_search", SPAN), ("jmaps", "jmap_eval", LEAF),
    ("jmaps", "fiber_curve", SPAN), ("jmaps", "classify_fiber_point", LEAF),
    ("jmaps", "named_jmap", LEAF),
    ("elliptic", "count_points", SPAN),
    ("elliptic", "frobenius_signature", SPAN),
    ("elliptic", "torsion_over_Q", SPAN),
    ("elliptic", "identify_image", SPAN),
    ("elliptic", "curve_invariants", LEAF),
    ("elliptic", "two_torsion_image", SPAN),
    ("elliptic", "rational_3isogeny_kernel", SPAN),
    ("elliptic", "group_class_set", SPAN), ("elliptic", "parse_curve", SPAN),
    ("arith", "factorint", SPAN), ("arith", "is_probable_prime", LEAF),
    ("arith", "square_divisor_roots", SPAN),
    ("catalog", "named_group", SPAN), ("catalog", "parse_catalog", SPAN),
    ("catalog", "identify_candidates", SPAN),
    ("catalog", "is_admissible_torsion", SPAN),
    ("verify", "run_all", SPAN), ("verify", "check_catalog_entry", SPAN),
    ("cli", "main", SPAN),
)

LAYERS = ("modmat", "groups", "action", "polynomial", "jmaps", "elliptic",
          "arith", "catalog", "verify", "cli")


class Tracer:
    """Spans and per-function counters for one traced run."""

    def __init__(self):
        self.active = False
        self.op = -1
        self.spans: list = []
        # Open frames: [span index for children, accumulated child time].
        self.stack: list = []
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.counters = defaultdict(float)
        self.heights: set = set()
        self.last_grid = 0
        self.missing: list = []

    def wrap(self, name, fn, record, post=None):
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            stack = tracer.stack
            parent = stack[-1][0] if stack else -1
            index = parent
            if record:
                index = len(tracer.spans)
                tracer.spans.append(None)
            frame = [index, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                dur = t1 - t0
                tracer.calls[name] += 1
                tracer.self_s[name] += dur - frame[1]
                if stack:
                    stack[-1][1] += dur
                if record:
                    tracer.spans[index] = (name, t0, t1, parent, tracer.op)
            if post is not None:
                post(tracer, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Wrap every target and rebind every gl2tors name bound to it."""
        mods = {n: m for n, m in sys.modules.items()
                if n == "gl2tors" or n.startswith("gl2tors.")}
        replace = {}
        for modname, attr, policy in TARGETS:
            mod = mods.get(f"gl2tors.{modname}")
            owner_name, _, meth = attr.partition(".")
            owner = getattr(mod, owner_name, None) if mod else None
            fn = getattr(owner, meth, None) if meth else owner
            if fn is None:
                self.missing.append(f"{modname}.{attr}")
                continue
            name = f"{modname}.{attr}"
            wrapper = self.wrap(name, fn, policy == SPAN, POST.get(name))
            if meth:
                setattr(owner, meth, wrapper)
            else:
                replace[id(fn)] = (fn, wrapper)
        for mod in mods.values():
            for key, value in list(vars(mod).items()):
                hit = replace.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(mod, key, hit[1])

    def op_span(self, op_id, kind):
        """Enter the top-level span of one operation; returns the closer."""
        self.op = op_id
        self.active = True
        index = len(self.spans)
        self.spans.append(None)
        frame = [index, 0.0]
        self.stack.append(frame)
        t0 = perf_counter()

        def close():
            t1 = perf_counter()
            self.active = False
            self.stack.clear()
            name = f"op.{kind}"
            self.calls[name] += 1
            self.self_s[name] += (t1 - t0) - frame[1]
            self.spans[index] = (name, t0, t1, -1, op_id)
        return close

    def layer_self(self) -> dict:
        out = {layer: 0.0 for layer in LAYERS}
        out["bench"] = 0.0
        for name, s in self.self_s.items():
            layer = name.split(".", 1)[0]
            out[layer if layer in out else "bench"] += s
        return out


def _post_closure_codes(tr, args, result):
    tr.counters["groups.closure_codes.elements"] += len(result)


def _post_index2(tr, args, result):
    tr.counters["action.hom_assignments"] += 2 ** len(args[0].generators) - 1
    tr.counters["action.hom_found"] += len(result)


def _post_index3(tr, args, result):
    tr.counters["action.hom_assignments"] += 6 ** len(args[0].generators)
    tr.counters["action.hom_found"] += len(result)


def _post_farey(tr, args, result):
    tr.heights.add(args[0])
    tr.last_grid = len(result)


def _grid_post(factor):
    # Each search builds its grid with one farey_fractions call, whose
    # size _post_farey has just stored.
    def post(tr, args, result):
        tr.counters["jmaps.grid_points"] += factor * tr.last_grid
        tr.counters["jmaps.points_found"] += len(result)
    return post


def _post_frobenius(tr, args, result):
    tr.counters["elliptic.primes_sampled"] += len(primes_upto(args[2]))
    tr.counters["elliptic.good_primes"] += sum(result.counts.values())


POST = {
    "groups.closure_codes": _post_closure_codes,
    "action.index2_subgroups": _post_index2,
    "action.index3_subgroups": _post_index3,
    "polynomial.farey_fractions": _post_farey,
    "jmaps.search_hyperelliptic": _grid_post(1),
    "jmaps.zeta3_descent_search": _grid_post(1),
    # Fiber searches evaluate both maps on the grid.
    "jmaps.search_plane": _grid_post(2),
    "elliptic.frobenius_signature": _post_frobenius,
}
