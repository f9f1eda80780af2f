"""Names that other code looks up in the package must resolve."""

import importlib
import importlib.util
from pathlib import Path

import pgsi

LAYERS = Path(__file__).resolve().parents[1] / "benchmark" / "layers.py"


def test_public_names_resolve():
    for name in pgsi.__all__:
        assert hasattr(pgsi, name), name


def test_benchmark_wrapped_attributes_resolve():
    # the benchmark's tracer replaces these module attributes by name; a
    # rename would otherwise surface only as a failed benchmark run
    spec = importlib.util.spec_from_file_location("benchmark_layers", LAYERS)
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    assert layers.WRAPPED
    for module_name, attr, _ in layers.WRAPPED:
        module = importlib.import_module(module_name)
        assert callable(getattr(module, attr, None)), (module_name, attr)
