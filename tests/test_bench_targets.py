"""Every gl2tors function that the benchmark both traces and gives a
per-layer metric with a home workload still exists.

perfbench/tracer.py wraps its TARGETS by name and skips a missing one,
and perfbench/run.py marks a traced run incorrect when a PER_LAYER metric
reads zero on its home workload. Deleting such a function would fail no
other test. Both files are read with ast, never imported or edited."""

import ast
import importlib
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def homed_metrics() -> list[str]:
    """PER_LAYER names whose home workload is not None, from the dict
    literal and the single-key assignments of perfbench/run.py."""
    tree = ast.parse((PERFBENCH / "run.py").read_text())
    out = []
    for node in tree.body:
        if (isinstance(node, ast.AnnAssign)
                and getattr(node.target, "id", None) == "PER_LAYER"):
            pairs = zip(node.value.keys, node.value.values)
        elif (isinstance(node, ast.Assign)
              and isinstance(node.targets[0], ast.Subscript)
              and getattr(node.targets[0].value, "id", None) == "PER_LAYER"):
            pairs = [(node.targets[0].slice, node.value)]
        else:
            continue
        out += [ast.literal_eval(k) for k, v in pairs
                if ast.literal_eval(v)[2] is not None]
    return out


def traced_targets() -> set[tuple[str, str]]:
    """(module, attribute) of each entry of TARGETS in perfbench/tracer.py."""
    tree = ast.parse((PERFBENCH / "tracer.py").read_text())
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and getattr(node.targets[0], "id", None) == "TARGETS"):
            return {(t.elts[0].value, t.elts[1].value)
                    for t in node.value.elts}
    raise LookupError("no TARGETS in perfbench/tracer.py")


def measured_functions() -> list[str]:
    targets = traced_targets()
    names = {metric.rpartition(".")[0] for metric in homed_metrics()}
    return sorted(name for name in names
                  if tuple(name.split(".", 1)) in targets)


FUNCTIONS = measured_functions()


def test_parsing_finds_the_measured_functions():
    assert {"modmat.code_mul", "groups.closure_codes",
            "action.index3_fixing_count", "cli.main"} <= set(FUNCTIONS)


@pytest.mark.parametrize("name", FUNCTIONS)
def test_measured_function_exists(name):
    module, _, attr = name.partition(".")
    obj = importlib.import_module(f"gl2tors.{module}")
    for part in attr.split("."):
        obj = getattr(obj, part, None)
    assert callable(obj), f"gl2tors.{name} is gone"
