"""Every function the benchmark's traced run wraps still exists.

bench/tracing.py rebinds the names in its SPANS table by attribute lookup;
a renamed or deleted function would only fail the traced benchmark run.
This check makes it fail the plain test suite as well.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.SPANS


@pytest.mark.parametrize(
    "module_name, attr", [(m, a) for m, a, _, _ in _load_spans()]
)
def test_traced_name_resolves(module_name, attr):
    owner = importlib.import_module(f"exoticaffine.{module_name}")
    for part in attr.split("."):
        owner = getattr(owner, part)
    assert callable(owner)
