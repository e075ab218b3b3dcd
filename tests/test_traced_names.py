"""Every name the benchmark tracer patches must exist in dppred.

``perfbench/tracing.py`` wraps module globals by name, so a refactor that
renames or drops one breaks traced benchmark runs. This test fails first.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _traced_names():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    dont_write = sys.dont_write_bytecode
    sys.dont_write_bytecode = True  # leave no cache files beside the benchmark
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = dont_write
    return module.TRACED_NAMES


@pytest.mark.parametrize("module,attr", [(m, a) for m, a, _ in _traced_names()])
def test_traced_name_resolves(module, attr):
    assert callable(getattr(importlib.import_module(module), attr, None)), f"{module}.{attr}"
