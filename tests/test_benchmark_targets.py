"""The functions the benchmark's tracer wraps by name still exist in dmrecon.

The tracer reports a vanished target as absent rather than failing, so only
the benchmark's own smoke test, outside these testpaths, would notice a
rename. benchmarks/tracer.py is loaded from its source without writing
bytecode next to it.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "benchmarks" / "tracer.py"


@pytest.fixture(scope="module")
def tracer():
    spec = importlib.util.spec_from_file_location("benchmark_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    dont_write, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = dont_write
    return module


def test_every_target_is_a_callable(tracer):
    missing = [t for t in tracer.TARGETS if not callable(getattr(*tracer._resolve(t), None))]
    assert not missing, f"traced names missing from dmrecon: {missing}"
