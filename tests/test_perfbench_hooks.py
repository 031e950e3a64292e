"""The benchmark can find every seca name it wraps or replaces.

``perfbench/spans.py`` looks up kernel ops and layer functions by name, and
``perfbench/workloads.py`` replaces a few module functions to time and
count them, so renaming or deleting one of them breaks a benchmark run.
This checks each lookup without installing the tracer or running a
workload.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
SPANS = PERFBENCH / "spans.py"

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
