"""Command-line verification front end.

Every command prints human-readable lines plus machine-readable lines of
the form `CHECK <id> <status> <payload>`, where status is pass, fail, or
evidence-only (mandatory for bounded-height searches) and payload is
space-separated key=value text. Exit codes: 0 all checks passed, 1 some
check failed, 2 environment error (e.g. unreadable catalog), 64 usage.
The `pass` that identify, group and torsion emit means "computed": those
commands report a result and check nothing against it.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from . import catalog as _catalog
from .action import (index3_fixing_count, index6_complement_search,
                     minus_one_complements)
from .elliptic import identify_image, parse_curve, torsion_over_Q
from .groups import (contains_minus_identity, det_image, dickson_classify,
                     is_applicable, stable_lines)
from .jmaps import (JMAP_LABELS, POLE, classify_fiber_point, fiber_curve,
                    jmap_eval, named_jmap, search_hyperelliptic,
                    search_plane)
from .polynomial import PolyParseError, parse_poly
from .verify import run_all

USAGE_EXIT = 64


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(USAGE_EXIT)


def _int_at_least(low: int, what: str):
    """An argparse type: an integer >= low, else a one-line usage error."""
    def parse(text: str) -> int:
        try:
            v = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"{what} must be an integer, got {text!r}") from None
        if v < low:
            raise argparse.ArgumentTypeError(
                f"{what} must be >= {low}, got {v}")
        return v
    return parse


# Grid searches need a height of at least 1; Frobenius sampling needs a
# prime bound of at least 20 (see elliptic.frobenius_signature).
_height = _int_at_least(1, "height")
_prime_bound = _int_at_least(20, "prime bound")


def _build_parser() -> _Parser:
    p = _Parser(prog="gl2tors",
                description="Verification battery for mod-9 image "
                            "computations and exact point searches")
    sub = p.add_subparsers(dest="command", required=True)

    va = sub.add_parser("verify-all", parents=[], help="run every check")
    va.add_argument("--height", type=_height, default=30,
                    help="grid height for fiber searches (default 30)")
    va.add_argument("--prime-bound", type=_prime_bound, default=10000,
                    help="prime bound for image identification "
                         "(default 10000)")
    va.add_argument("--catalog", help="optional catalog file of extra "
                                      "groups to check")
    va.add_argument("--json", action="store_true",
                    help="emit a JSON report instead of text")

    g = sub.add_parser("group", help="facts about a subgroup")
    g.add_argument("group", help="built-in label, or JSON generator rows")
    g.add_argument("--level", type=int,
                   help="level when generators are given inline")
    g.add_argument("--json", action="store_true")

    si = sub.add_parser("search-index",
                        help="index-3 fixing counts or index-6 witnesses")
    si.add_argument("group", help="built-in label or catalog label")
    si.add_argument("--mode", choices=("3", "6"), required=True)
    si.add_argument("--catalog", help="catalog file providing the label")
    si.add_argument("--json", action="store_true")

    idp = sub.add_parser("identify",
                         help="filter candidate mod-ell images of a curve")
    idp.add_argument("curve", help="[a1,a2,a3,a4,a6]")
    idp.add_argument("--level", type=int, choices=(2, 3), default=3)
    idp.add_argument("--prime-bound", type=_prime_bound, default=10000)
    idp.add_argument("--json", action="store_true")

    jm = sub.add_parser("jmap", help="evaluate a named j-map")
    jm.add_argument("label", help=f"one of {', '.join(JMAP_LABELS)}")
    jm.add_argument("x", help="rational argument p/q")
    jm.add_argument("--json", action="store_true")

    fs = sub.add_parser("fiber-search",
                        help="rational points on a fiber of two j-maps")
    fs.add_argument("label_a")
    fs.add_argument("label_b")
    fs.add_argument("--height", type=_height, default=30)
    fs.add_argument("--json", action="store_true")

    cs = sub.add_parser("curve-search",
                        help="bounded search on y^2 + h(x)*y = f(x)")
    cs.add_argument("model",
                    help="'y^2 = f(x)' or 'y^2 + (h)*y = f' in variable x")
    cs.add_argument("--height", type=_height, default=30)
    cs.add_argument("--json", action="store_true")

    to = sub.add_parser("torsion", help="rational torsion of a curve")
    to.add_argument("curve", help="[a1,a2,a3,a4,a6]")
    to.add_argument("--json", action="store_true")
    return p


def _emit(check_id: str, status: str, payload: str) -> None:
    print(f"CHECK {check_id} {status} {payload}")


def _structure_str(structure) -> str:
    if len(structure) == 1:
        return f"C{structure[0]}"
    return f"C{structure[0]}+C{structure[1]}"


def _load_group(args, parser):
    text = args.group
    if text in _catalog.NAMED_GROUP_GENERATORS:
        return _catalog.named_group(text)
    if getattr(args, "catalog", None):
        entries = {e.label: e for e in _read_catalog(args.catalog)}
        if text in entries:
            return entries[text].group()
    if text.lstrip().startswith("["):
        if args.__dict__.get("level") is None:
            parser.error("inline generators require --level")
        try:
            rows = json.loads(text)
            from .groups import closure
            return closure([tuple(r) for r in rows], args.level, "inline")
        except (ValueError, TypeError) as e:
            parser.error(f"bad generator rows: {e}")
    parser.error(f"unknown group {text!r}")


def _read_catalog(path: str) -> list:
    try:
        with open(path, encoding="utf-8") as f:
            text = f.read()
    except OSError as e:
        print(f"gl2tors: cannot read catalog: {e}", file=sys.stderr)
        raise SystemExit(2)
    try:
        return _catalog.parse_catalog(text)
    except _catalog.CatalogError as e:
        print(f"gl2tors: bad catalog: {e}", file=sys.stderr)
        raise SystemExit(2)


def _cmd_verify_all(args) -> int:
    catalog_text = None
    if args.catalog:
        try:
            with open(args.catalog, encoding="utf-8") as f:
                catalog_text = f.read()
        except OSError as e:
            print(f"gl2tors: cannot read catalog: {e}", file=sys.stderr)
            return 2
        try:
            _catalog.parse_catalog(catalog_text)
        except _catalog.CatalogError as e:
            print(f"gl2tors: bad catalog: {e}", file=sys.stderr)
            return 2
    reports = run_all(height=args.height, prime_bound=args.prime_bound,
                      catalog_text=catalog_text)
    if args.json:
        print(json.dumps({"checks": [r.__dict__ for r in reports]},
                         indent=2))
    else:
        for r in reports:
            _emit(r.check_id, r.status, f"seconds={r.seconds:.2f} "
                                        f"{r.details}")
        npass = sum(r.status != "fail" for r in reports)
        print(f"{npass}/{len(reports)} checks ok")
    return 1 if any(r.status == "fail" for r in reports) else 0


def _cmd_group(args, parser) -> int:
    G = _load_group(args, parser)
    app = is_applicable(G)
    facts = {
        "label": G.label or "inline",
        "level": G.modulus,
        "order": G.order,
        "index": G.index,
        "minus_id": contains_minus_identity(G),
        "det_onto": len(det_image(G)),
        "applicable": app.ok,
        "reason": app.reason,
    }
    if G.modulus in (2, 3, 5, 7):
        facts["class"] = dickson_classify(G).tag if G.modulus != 2 else "-"
        facts["stable_lines"] = stable_lines(G)
    if args.json:
        print(json.dumps(facts, indent=2))
    else:
        for k, v in facts.items():
            print(f"{k}: {v}")
        _emit(f"group.{facts['label']}", "pass",
              f"order={G.order} index={G.index} "
              f"minus_id={facts['minus_id']} applicable={app.ok}")
    return 0


def _cmd_search_index(args, parser) -> int:
    G = _load_group(args, parser)
    if G.modulus != 9:
        parser.error(f"search-index needs a level-9 group, got level "
                     f"{G.modulus}")
    label = G.label or "inline"
    if args.mode == "3":
        counts = [index3_fixing_count(G)]
        if contains_minus_identity(G):
            counts += [index3_fixing_count(C)
                       for C in minus_one_complements(G)]
        ok = all(c <= 2 for c in counts)
        if args.json:
            print(json.dumps({"label": label, "mode": 3, "counts": counts,
                              "bound_ok": ok}, indent=2))
        else:
            print(f"index-3 fixing class counts (group, then complements): "
                  f"{counts}")
            _emit(f"search-index.{label}.mode3",
                  "pass" if ok else "fail",
                  f"counts={','.join(map(str, counts))}")
        return 0 if ok else 1
    if not contains_minus_identity(G):
        parser.error("mode 6 requires -I in the group")
    wits = index6_complement_search(G)
    ok = all(w.verify() for w in wits)
    sample = [(w.subgroup.label or "H", (w.vector.x, w.vector.y))
              for w in wits[:3]]
    if args.json:
        print(json.dumps({"label": label, "mode": 6, "witnesses": len(wits),
                          "verified": ok, "sample": sample}, indent=2))
    else:
        print(f"index-6 orbit witnesses: {len(wits)} (sample {sample})")
        _emit(f"search-index.{label}.mode6", "pass" if ok else "fail",
              f"witnesses={len(wits)} verified={ok}")
    return 0 if ok else 1


def _cmd_identify(args, parser) -> int:
    try:
        E = parse_curve(args.curve)
    except ValueError as e:
        parser.error(str(e))
    cands = _catalog.identify_candidates(args.level)
    res = identify_image(E, args.level, cands, args.prime_bound)
    if args.json:
        print(json.dumps({
            "curve": args.curve, "level": args.level,
            "bound": args.prime_bound,
            "primes": res.primes, "skipped": res.skipped,
            "observed": sorted(map(list, res.observed)),
            "survivors": list(res.survivors),
            "eliminated": [[l, p, list(c)] for l, p, c in res.eliminated],
            "uncovered": {k: list(map(list, v))
                          for k, v in res.uncovered.items()},
        }, indent=2))
        return 0
    print(f"observed classes mod {args.level}: "
          f"{sorted(res.observed)} (primes <= {args.prime_bound})")
    print(f"consistent-with: {', '.join(res.survivors)}")
    for label, p, cls in res.eliminated:
        print(f"eliminated: {label} (class {cls} at p={p})")
    for label in res.survivors:
        unc = res.uncovered[label]
        if unc:
            print(f"note: {label} allows unobserved classes {list(unc)}")
    _emit("identify", "pass",
          f"curve={args.curve.replace(' ', '')} level={args.level} "
          f"survivors={','.join(res.survivors)} primes={res.primes} "
          f"skipped={res.skipped}")
    return 0


def _cmd_jmap(args, parser) -> int:
    try:
        m = named_jmap(args.label)
    except ValueError as e:
        parser.error(str(e))
    try:
        x = Fraction(args.x)
    except (ValueError, ZeroDivisionError):
        parser.error(f"bad rational {args.x!r}")
    v = jmap_eval(m, x)
    out = "pole" if v is POLE else str(v)
    if args.json:
        print(json.dumps({"label": args.label, "x": str(x), "value": out}))
    else:
        print(f"{args.label}({x}) = {out}")
        _emit(f"jmap.{args.label}", "pass", f"x={x} value={out}")
    return 0


def _cmd_fiber_search(args, parser) -> int:
    try:
        ma = named_jmap(args.label_a)
        mb = named_jmap(args.label_b)
    except ValueError as e:
        parser.error(str(e))
    C = fiber_curve(ma, mb)
    pts = search_plane(C, args.height)
    rows = []
    for s, t in pts:
        fp = classify_fiber_point(C, s, t)
        rows.append({"s": str(s), "t": str(t), "kind": fp.kind,
                     "j": None if fp.j is None else str(fp.j)})
    if args.json:
        print(json.dumps({"curve": C.label, "height": args.height,
                          "points": rows}, indent=2))
        return 0
    for r in rows:
        extra = f" j={r['j']}" if r["j"] is not None else ""
        print(f"({r['s']}, {r['t']}) {r['kind']}{extra}")
    payload = " ".join(f"({r['s']},{r['t']}):{r['kind']}" for r in rows) \
        or "no-points"
    _emit(f"fiber-search.{args.label_a}x{args.label_b}", "evidence-only",
          f"height={args.height} {payload}")
    return 0


def _parse_model(text: str):
    """'y^2 = f' or 'y^2 + (h)*y = f', polynomials in x."""
    if "=" not in text:
        raise PolyParseError("model needs '='")
    lhs, rhs = text.split("=", 1)
    f = parse_poly(rhs.strip())
    lhs = lhs.strip()
    if lhs == "y^2":
        return parse_poly("0"), f
    if not (lhs.startswith("y^2") and lhs[3:].strip().startswith("+")):
        raise PolyParseError(f"left side must be y^2 [+ (h)*y], got {lhs!r}")
    mid = lhs[3:].strip()[1:].strip()
    if not mid.endswith("*y"):
        raise PolyParseError(f"h-term must end with '*y', got {mid!r}")
    return parse_poly(mid[:-2].strip()), f


def _cmd_curve_search(args, parser) -> int:
    try:
        h, f = _parse_model(args.model)
    except PolyParseError as e:
        parser.error(str(e))
    pts = search_hyperelliptic(h, f, args.height)
    if args.json:
        print(json.dumps({"model": args.model, "height": args.height,
                          "points": [[str(x), str(y)] for x, y in pts]},
                         indent=2))
        return 0
    for x, y in pts:
        print(f"({x}, {y})")
    payload = " ".join(f"({x},{y})" for x, y in pts) or "no-points"
    _emit("curve-search", "evidence-only",
          f"height={args.height} points={len(pts)} {payload}")
    return 0


def _cmd_torsion(args, parser) -> int:
    try:
        E = parse_curve(args.curve)
    except ValueError as e:
        parser.error(str(e))
    structure = torsion_over_Q(E)
    s = _structure_str(structure)
    if args.json:
        print(json.dumps({"curve": args.curve,
                          "structure": list(structure), "name": s}))
        return 0
    print(f"torsion: {s}" + (" (trivial)" if structure == (1,) else ""))
    _emit("torsion", "pass",
          f"curve={args.curve.replace(' ', '')} structure={s}")
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command == "verify-all":
        return _cmd_verify_all(args)
    if args.command == "group":
        return _cmd_group(args, parser)
    if args.command == "search-index":
        return _cmd_search_index(args, parser)
    if args.command == "identify":
        return _cmd_identify(args, parser)
    if args.command == "jmap":
        return _cmd_jmap(args, parser)
    if args.command == "fiber-search":
        return _cmd_fiber_search(args, parser)
    if args.command == "curve-search":
        return _cmd_curve_search(args, parser)
    if args.command == "torsion":
        return _cmd_torsion(args, parser)
    parser.error(f"unknown command {args.command!r}")
    return USAGE_EXIT


def main_entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    main_entry()
