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


@pytest.mark.parametrize("module_name, class_name, attr", [
    ("indices", "Multiindex", "__post_init__"),
    ("kernel", "SpectralField", "to_fourier"),
    ("kernel", "SpectralField", "to_physical"),
])
def test_patched_class_attribute_exists(module_name, class_name, attr):
    """The traced run replaces these class attributes to count validations
    and transforms."""
    cls = getattr(importlib.import_module(f"tfrenorm.{module_name}"), class_name)
    assert callable(cls.__dict__.get(attr))


def test_public_constructor_runs_the_patched_validation(monkeypatch):
    """``indices.multiindex.validated`` counts calls of the class attribute
    ``Multiindex.__post_init__``: the public constructor must look it up
    there, so that the count sees every boundary validation."""
    from tfrenorm.indices import Multiindex, parse_multiindex

    calls = []
    original = Multiindex.__post_init__

    def counted(m):
        calls.append(m)
        original(m)

    monkeypatch.setattr(Multiindex, "__post_init__", counted)
    m = Multiindex(((1, 1),), ((0, 2),))
    parse_multiindex("e1+2f0")
    assert len(calls) == 2
    assert str(m) == "e1+2f0"
