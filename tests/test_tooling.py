"""The benchmark's tracer replaces package functions by name, at the module
or class they are called through; every such name must still exist."""

import importlib.util
from pathlib import Path

LAYERS = Path(__file__).resolve().parents[1] / "bench" / "layers.py"


def test_every_traced_name_resolves():
    spec = importlib.util.spec_from_file_location("bench_layers", LAYERS)
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)  # defines the tracer; installs nothing
    assert layers._WRAPPED
    for owner, attribute, span in layers._WRAPPED:
        assert callable(getattr(owner, attribute, None)), f"{owner.__name__}.{attribute} ({span}) is gone"
