"""The benchmark can find every seca name it wraps or replaces.

``perfbench/spans.py`` looks up kernel ops and layer functions by name, and
``perfbench/workloads.py`` replaces a few module functions to time and
count them and reads names and calls functions of the seca modules it
imports, so renaming or deleting one of them breaks a benchmark run.
This checks each lookup without installing the tracer or running a
workload.
"""

import ast
import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
SPANS = PERFBENCH / "spans.py"
WORKLOADS = PERFBENCH / "workloads.py"

# the module functions perfbench/workloads.py replaces while it runs
PATCHED = [("seca.trainer", "train_task"),
           ("seca.trainer", "draw_pseudo_batch"),
           ("seca.trainer", "replay_losses"),
           ("seca.trainer", "fit_gaussians"),
           ("seca.cli", "run_stream")]


def _spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


spans = _spans()


def _chain(node) -> tuple[str, ...] | None:
    """``a.b.c`` as ("a", "b", "c"), or None unless it starts at a name."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    return (node.id, *reversed(parts)) if isinstance(node, ast.Name) else None


def _module_aliases(tree) -> dict[str, str]:
    """Alias -> module of each ``from seca import <module> as <alias>``."""
    return {a.asname or a.name: f"seca.{a.name}" for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.module == "seca"
            for a in node.names
            if importlib.util.find_spec(f"seca.{a.name}") is not None}


def _workload_reads(tree, aliases) -> dict[tuple[str, ...], set[str]]:
    """Each whole attribute chain the tree reads from a module alias, with
    the keywords of every call made through that chain."""
    inner = {id(node.value) for node in ast.walk(tree)
             if isinstance(node, ast.Attribute)}
    reads: dict[tuple[str, ...], set[str]] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and id(node) not in inner \
                and isinstance(node.ctx, ast.Load):
            chain = _chain(node)
            if chain and chain[0] in aliases:
                reads.setdefault(chain, set())
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and _chain(node.func) in reads:
            reads[_chain(node.func)].update(k.arg for k in node.keywords
                                          if k.arg)
    return reads


_TREE = ast.parse(WORKLOADS.read_text())
ALIASES = _module_aliases(_TREE)
READS = _workload_reads(_TREE, ALIASES)


@pytest.mark.parametrize("op", spans.TENSOR_OPS)
def test_tensor_op_resolves(op):
    assert callable(getattr(importlib.import_module("seca.tensor"), op))


@pytest.mark.parametrize("module,attr", [
    (module, attr) for module, attr, _, _ in spans.LAYER_FUNCS])
def test_layer_function_resolves(module, attr):
    obj = importlib.import_module(module)
    for part in attr.split("."):
        obj = getattr(obj, part)
    assert callable(obj)


@pytest.mark.parametrize("module,attr", PATCHED)
def test_patched_function_resolves(module, attr):
    assert attr in (PERFBENCH / "workloads.py").read_text()
    assert callable(getattr(importlib.import_module(module), attr))


def test_workload_reads_found():
    # the scan sees the names the workloads are built from
    assert {("TR", "train_task"), ("cli", "TRIALS"),
            ("E", "AdapterStack", "FIELDS")} <= set(READS)


@pytest.mark.parametrize("chain", sorted(READS), ids=".".join)
def test_workload_read_resolves(chain):
    obj = importlib.import_module(ALIASES[chain[0]])
    for part in chain[1:]:
        obj = getattr(obj, part)
    if READS[chain]:
        params = inspect.signature(obj).parameters
        assert READS[chain] <= set(params), sorted(READS[chain] - set(params))
