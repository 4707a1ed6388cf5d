"""The traced benchmark run (`bench/run.py --trace 1`) wraps functions by name.

A rename in `biderlie` would otherwise surface only when a traced run
starts; this resolves every target the way the tracer does.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _load_targets():
    sys.path.insert(0, str(BENCH))
    try:
        spec = importlib.util.spec_from_file_location("bench_layers", BENCH / "layers.py")
        layers = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(layers)
    finally:
        sys.path.remove(str(BENCH))
    return layers.TARGETS


TARGETS = _load_targets()


@pytest.mark.parametrize("target", TARGETS, ids=lambda t: f"{t.module}:{t.attr}")
def test_trace_target_resolves(target):
    # the tracer replaces a method in its class's own namespace and a
    # function by its module-level name
    module = importlib.import_module(target.module)
    owner_name, _, attr = target.attr.rpartition(".")
    if owner_name:
        owner = getattr(module, owner_name, None)
        assert isinstance(owner, type), f"{target.module}.{owner_name} is not a class"
        assert attr in vars(owner), f"{target.module}.{target.attr} is not defined on the class"
    else:
        assert callable(getattr(module, attr, None)), f"{target.module}.{attr} is missing"
