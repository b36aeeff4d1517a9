"""Command-line verification front end.

Every command prints human-readable lines plus machine-readable lines of
the form `CHECK <id> <status> <payload>`, where status is pass, fail, or
evidence-only (mandatory for bounded-height searches) and payload is
space-separated key=value text; with --json it prints one indented JSON
document instead. The exit code comes from the check statuses: 0 when no
check failed, 1 when one did; 2 is an environment error (e.g. unreadable
catalog, or stdout closed before the output was written) and 64 a usage
error. The `pass` that identify, group and torsion emit means "computed":
those commands report a result and check nothing against it.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys

from . import catalog as _catalog
from .action import index6_complement_search
from .elliptic import (identify_image, parse_curve, parse_rational,
                       torsion_over_Q)
from .groups import (closure, contains_minus_identity, det_image,
                     dickson_classify, is_applicable, stable_lines)
from .jmaps import (JMAP_LABELS, POLE, fiber_curve, fiber_points, jmap_eval,
                    named_jmap, search_hyperelliptic)
from .polynomial import PolyParseError, parse_poly
from .verify import index3_bound_ok, index3_counts, run_all

USAGE_EXIT = 64

_NEGATIVE_FRACTION = re.compile(r"-[0-9]+/[0-9]+")


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(USAGE_EXIT)

    def _parse_optional(self, arg_string):
        # argparse takes -6 and -1.5 for arguments but -3/2 for an
        # unknown option; no option of this CLI looks like a fraction.
        if _NEGATIVE_FRACTION.fullmatch(arg_string):
            return None
        return super()._parse_optional(arg_string)


def _int_at_least(low: int, what: str, high: int | None = None):
    """An argparse type: an integer >= low (and <= high, if given), else a
    one-line usage error."""
    def parse(text: str) -> int:
        try:
            v = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"{what} must be an integer, got {text!r}") from None
        if v < low:
            raise argparse.ArgumentTypeError(
                f"{what} must be >= {low}, got {v}")
        if high is not None and v > high:
            raise argparse.ArgumentTypeError(
                f"{what} must be <= {high}, got {v}")
        return v
    return parse


# Grid searches need a height of at least 1. A search that hits every grid
# point grows as H^2: by peak RSS, fiber-search 2B 2B takes about 1.4 KB per
# H^2 (218 MB at H = 400) and curve-search 'y^2 = x^2' about 1.4 KB (1.36 GB
# at H = 1000), so the cap turns what would be a failed allocation into a
# usage error.
_height = _int_at_least(1, "height", 1000)
# Frobenius sampling needs a prime bound of at least 20 (see
# elliptic.frobenius_signature). A curve whose Frobenius classes never
# all show, such as 14a4 with its 3B image, counts points at every good
# prime up to the bound. Its identify took 0.06, 0.23 and 0.82 s at
# bounds of 10^4, 2 * 10^4 and 4 * 10^4 (2-core Xeon host, Python
# 3.11), so each doubling costs about 3.5 times as much: about 5 s at
# the cap of 10^5 and about 5 minutes at 10^6. The cap stays far inside
# the bound under which elliptic._point_counts tabulates its cubic in
# int64 (N < 1.3 * 10^6 for small coefficients), and it turns the sieve
# of a huge bound, which would fail to allocate, into a usage error.
_prime_bound = _int_at_least(20, "prime bound", 10 ** 5)


def _build_parser() -> _Parser:
    p = _Parser(prog="gl2tors",
                description="Verification battery for mod-9 image "
                            "computations and exact point searches")
    sub = p.add_subparsers(dest="command", required=True)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true",
                        help="emit one JSON document instead of text")

    def command(name, run, **kw):
        sp = sub.add_parser(name, parents=[common], **kw)
        sp.set_defaults(run=run, parser=sp)
        return sp

    va = command("verify-all", _cmd_verify_all, help="run every check")
    va.add_argument("--height", type=_height, default=30,
                    help="grid height for fiber searches (default 30)")
    va.add_argument("--prime-bound", type=_prime_bound, default=10000,
                    help="prime bound for image identification "
                         "(default 10000)")
    va.add_argument("--catalog", help="optional catalog file of extra "
                                      "groups to check")

    g = command("group", _cmd_group, help="facts about a subgroup")
    g.add_argument("group", help="built-in label, or JSON generator rows")
    g.add_argument("--level", type=int,
                   help="level when generators are given inline")

    si = command("search-index", _cmd_search_index,
                 help="index-3 fixing counts or index-6 witnesses")
    si.add_argument("group", help="built-in label or catalog label")
    si.add_argument("--mode", choices=("3", "6"), required=True)
    si.add_argument("--catalog", help="catalog file providing the label")

    idp = command("identify", _cmd_identify,
                  help="filter candidate mod-ell images of a curve")
    idp.add_argument("curve", help="[a1,a2,a3,a4,a6]")
    idp.add_argument("--level", type=int, choices=(2, 3), default=3)
    idp.add_argument("--prime-bound", type=_prime_bound, default=10000)

    jm = command("jmap", _cmd_jmap, help="evaluate a named j-map")
    jm.add_argument("label", help=f"one of {', '.join(JMAP_LABELS)}")
    jm.add_argument("x", help="rational argument: an integer or p/q, "
                              "with an optional sign, as in: jmap Et -3/2")

    fs = command("fiber-search", _cmd_fiber_search,
                 help="rational points on a fiber of two j-maps")
    fs.add_argument("label_a")
    fs.add_argument("label_b")
    fs.add_argument("--height", type=_height, default=30)

    cs = command("curve-search", _cmd_curve_search,
                 help="bounded search on y^2 + h(x)*y = f(x)")
    cs.add_argument("model",
                    help="'y^2 = f(x)' or 'y^2 + (h)*y = f' in variable x")
    cs.add_argument("--height", type=_height, default=30)

    to = command("torsion", _cmd_torsion, help="rational torsion of a curve")
    to.add_argument("curve", help="[a1,a2,a3,a4,a6]")
    return p


def _check(check_id: str, status: str, payload: str) -> str:
    """One machine-readable line: `CHECK <id> <status> <payload>`."""
    return f"CHECK {check_id} {status} {payload}"


def _read_catalog(path: str) -> list:
    """Parsed catalog entries; exit 2 if the file is unreadable or bad."""
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


def _text(v, parser) -> str:
    """str(v), or a usage error past sys.get_int_max_str_digits()."""
    try:
        return str(v)
    except ValueError:
        parser.error(f"value has more than {sys.get_int_max_str_digits()} "
                     f"digits; PYTHONINTMAXSTRDIGITS raises the limit")


def _labeled_group(label: str, catalog_path: str | None):
    """The built-in group, else the catalog entry, with this label; None
    if there is neither."""
    if label in _catalog.NAMED_GROUP_GENERATORS:
        return _catalog.named_group(label)
    if catalog_path:
        for entry in _read_catalog(catalog_path):
            if entry.label == label:
                return entry.group()
    return None


def _cmd_verify_all(args, parser):
    entries = _read_catalog(args.catalog) if args.catalog else None
    reports = run_all(height=args.height, prime_bound=args.prime_bound,
                      catalog=entries)
    lines = [_check(r.check_id, r.status,
                    f"seconds={r.seconds:.2f} {r.details}") for r in reports]
    npass = sum(r.status != "fail" for r in reports)
    lines.append(f"{npass}/{len(reports)} checks ok")
    return ({"checks": [r.__dict__ for r in reports]}, lines,
            npass < len(reports))


def _cmd_group(args, parser):
    G = _labeled_group(args.group, None)
    if G is None:
        if not args.group.lstrip().startswith("["):
            parser.error(f"unknown group {args.group!r}")
        if args.level is None:
            parser.error("inline generators require --level")
        try:
            rows = _catalog.parse_generator_rows(args.group, args.level)
        except ValueError as e:
            parser.error(str(e))
        G = closure(rows, args.level, "inline")
    app = is_applicable(G)
    facts = {
        "label": G.label,
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
    lines = [f"{k}: {v}" for k, v in facts.items()]
    lines.append(_check(f"group.{G.label}", "pass",
                        f"order={G.order} index={G.index} "
                        f"minus_id={facts['minus_id']} applicable={app.ok}"))
    return facts, lines, False


def _cmd_search_index(args, parser):
    G = _labeled_group(args.group, args.catalog)
    if G is None:
        parser.error(f"unknown group {args.group!r}: search-index takes a "
                     f"built-in or catalog label")
    if G.modulus != 9:
        parser.error(f"search-index needs a level-9 group, got level "
                     f"{G.modulus}")
    label = G.label
    if args.mode == "3":
        counts = index3_counts(G)
        ok = index3_bound_ok(counts)
        return ({"label": label, "mode": 3, "counts": counts,
                 "bound_ok": ok},
                [f"index-3 fixing class counts (group, then complements): "
                 f"{counts}",
                 _check(f"search-index.{label}.mode3",
                        "pass" if ok else "fail",
                        f"counts={','.join(map(str, counts))}")],
                not ok)
    if not contains_minus_identity(G):
        parser.error("mode 6 requires -I in the group")
    wits = index6_complement_search(G)
    ok = all(w.verify() for w in wits)
    sample = [(w.subgroup.label or "H", (w.vector.x, w.vector.y))
              for w in wits[:3]]
    return ({"label": label, "mode": 6, "witnesses": len(wits),
             "verified": ok, "sample": sample},
            [f"index-6 orbit witnesses: {len(wits)} (sample {sample})",
             _check(f"search-index.{label}.mode6", "pass" if ok else "fail",
                    f"witnesses={len(wits)} verified={ok}")],
            not ok)


def _cmd_identify(args, parser):
    try:
        E = parse_curve(args.curve)
    except ValueError as e:
        parser.error(str(e))
    cands = _catalog.identify_candidates(args.level)
    res = identify_image(E, args.level, cands, args.prime_bound)
    doc = {
        "curve": args.curve, "level": args.level,
        "bound": args.prime_bound,
        "primes": res.primes, "skipped": res.skipped,
        "sampled": res.sampled,
        "observed": sorted(map(list, res.observed)),
        "survivors": list(res.survivors),
        "eliminated": [[l, p, list(c)] for l, p, c in res.eliminated],
        "uncovered": {k: list(map(list, v))
                      for k, v in res.uncovered.items()},
    }
    lines = [f"observed classes mod {args.level}: "
             f"{sorted(res.observed)} (primes <= {args.prime_bound})",
             f"consistent-with: {', '.join(res.survivors)}"]
    lines += [f"eliminated: {label} (class {cls} at p={p})"
              for label, p, cls in res.eliminated]
    lines += [f"note: {label} allows unobserved classes "
              f"{list(res.uncovered[label])}"
              for label in res.survivors if res.uncovered[label]]
    lines.append(_check("identify", "pass",
                        f"curve={args.curve.replace(' ', '')} "
                        f"level={args.level} "
                        f"survivors={','.join(res.survivors)} "
                        f"primes={res.primes} skipped={res.skipped} "
                        f"sampled={res.sampled}"))
    return doc, lines, False


def _cmd_jmap(args, parser):
    try:
        m = named_jmap(args.label)
    except ValueError as e:
        parser.error(str(e))
    try:
        x = parse_rational(args.x)
    except ValueError:
        parser.error(f"bad rational {args.x!r}")
    v = jmap_eval(m, x)
    out = "pole" if v is POLE else _text(v, parser)
    return ({"label": args.label, "x": str(x), "value": out},
            [f"{args.label}({x}) = {out}",
             _check(f"jmap.{args.label}", "pass", f"x={x} value={out}")],
            False)


def _cmd_fiber_search(args, parser):
    try:
        ma = named_jmap(args.label_a)
        mb = named_jmap(args.label_b)
    except ValueError as e:
        parser.error(str(e))
    C = fiber_curve(ma, mb)
    rows = [{"s": str(fp.s), "t": str(fp.t), "kind": fp.kind,
             "j": None if fp.j is None else str(fp.j)}
            for fp in fiber_points(C, args.height)]
    lines = [f"({r['s']}, {r['t']}) {r['kind']}"
             + (f" j={r['j']}" if r["j"] is not None else "") for r in rows]
    payload = " ".join(f"({r['s']},{r['t']}):{r['kind']}" for r in rows) \
        or "no-points"
    lines.append(_check(f"fiber-search.{args.label_a}x{args.label_b}",
                        "evidence-only", f"height={args.height} {payload}"))
    return ({"curve": C.label, "height": args.height, "points": rows},
            lines, False)


def _parse_model(text: str):
    """'y^2 = f' or 'y^2 + (h)*y = f', polynomials in x. Each part is
    parsed with the rest blanked, so error positions are those in text."""
    if "=" not in text:
        raise PolyParseError("model needs '='")
    lhs, rhs = text.split("=", 1)
    f = parse_poly(" " * (len(lhs) + 1) + rhs)
    head = lhs.strip()
    if head == "y^2":
        return parse_poly("0"), f
    if not (head.startswith("y^2") and head[3:].strip().startswith("+")):
        raise PolyParseError(f"left side must be y^2 [+ (h)*y], got {head!r}")
    plus = lhs.index("+") + 1
    mid = lhs.rstrip()[plus:]
    if not mid.endswith("*y"):
        raise PolyParseError(f"h-term must end with '*y', got {mid.strip()!r}")
    return parse_poly(" " * plus + mid[:-2]), f


def _cmd_curve_search(args, parser):
    try:
        h, f = _parse_model(args.model)
    except PolyParseError as e:
        parser.error(str(e))
    pts = [(str(x), _text(y, parser))
           for x, y in search_hyperelliptic(h, f, args.height)]
    lines = [f"({x}, {y})" for x, y in pts]
    payload = " ".join(f"({x},{y})" for x, y in pts) or "no-points"
    lines.append(_check("curve-search", "evidence-only",
                        f"height={args.height} points={len(pts)} "
                        f"{payload}"))
    return ({"model": args.model, "height": args.height,
             "points": [list(pt) for pt in pts]}, lines, False)


def _cmd_torsion(args, parser):
    try:
        E = parse_curve(args.curve)
    except ValueError as e:
        parser.error(str(e))
    structure = torsion_over_Q(E)
    s = "+".join(f"C{m}" for m in structure)
    return ({"curve": args.curve, "structure": list(structure), "name": s},
            [f"torsion: {s}" + (" (trivial)" if structure == (1,) else ""),
             _check("torsion", "pass",
                    f"curve={args.curve.replace(' ', '')} structure={s}")],
            False)


def main(argv=None) -> int:
    """Run one command and print its result: the text and CHECK lines, or
    with --json one JSON document. Returns 1 if a check failed, else 0;
    usage errors (64) and unreadable catalogs (2) raise SystemExit."""
    args = _build_parser().parse_args(argv)
    doc, lines, failed = args.run(args, args.parser)
    print(json.dumps(doc, indent=2) if args.json else "\n".join(lines))
    return 1 if failed else 0


def main_entry() -> None:
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed the pipe (as `| head` does). Point stdout at
        # devnull so that the interpreter's last flush cannot fail again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        sys.exit(2)
    sys.exit(code)


if __name__ == "__main__":
    main_entry()
