"""Every function the benchmark's traced run wraps must still exist in src/.

``perfbench/spec.py`` lists the traced layers as (module, attribute path)
pairs in its ``LAYERS`` literal; a renamed function would otherwise break
``perfbench/run.py --trace 1`` without any tier-1 test noticing.  The file is
read, not imported.
"""

import ast
import importlib
from functools import cached_property
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _layers() -> dict:
    tree = ast.parse((ROOT / "perfbench" / "spec.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "LAYERS" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/spec.py defines no LAYERS literal")


TARGETS = [(layer, module, path) for layer, pairs in _layers().items() for module, path in pairs]


def test_layers_are_listed():
    assert TARGETS  # an empty list would parametrize no test at all


@pytest.mark.parametrize(
    "layer, module, path", TARGETS, ids=[f"{layer}:{path}" for layer, _, path in TARGETS]
)
def test_trace_target_resolves_in_src(layer, module, path):
    owner = importlib.import_module(module)
    assert (ROOT / "src") in Path(owner.__file__).resolve().parents
    *outer, attr = path.split(".")
    for name in outer:
        owner = getattr(owner, name)
    # The tracer replaces a method in its class's own namespace, and wraps
    # the function of a cached property.
    target = vars(owner)[attr] if outer else getattr(owner, attr)
    assert callable(target) or isinstance(target, cached_property), f"{layer}: {module}.{path}"
