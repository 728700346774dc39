"""The traced benchmark run wraps named functions of each layer; every one
of them must exist, so that removing or renaming a public function fails
here rather than in the benchmark."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _targets():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer.TARGETS


TARGETS = _targets()


@pytest.mark.parametrize(
    "module_name, func_name", [t[:2] for t in TARGETS], ids=[t[2] for t in TARGETS]
)
def test_traced_target_exists(module_name, func_name):
    module = importlib.import_module(f"tfrenorm.{module_name}")
    assert callable(getattr(module, func_name, None))
