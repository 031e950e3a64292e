"""The benchmark's tracer can find every seca name it wraps.

``perfbench/spans.py`` looks up kernel ops and layer functions by name, so
renaming or deleting one of them breaks a traced benchmark run. This
checks each lookup without installing the tracer.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


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
