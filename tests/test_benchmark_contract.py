"""The benchmark uses the library by name: the traced run wraps named
functions of each layer, and the workload jobs call the public API.  Every
one of them must exist and behave, so that removing or renaming a public
name fails here rather than in the benchmark."""

import importlib
import importlib.util
import random
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TARGETS = _load("tracer").TARGETS
WORKLOADS = _load("workloads").WORKLOADS


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


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_one_benchmark_job_of_each_kind_runs_and_checks(name):
    """Each job checks its own output and raises when the check fails."""
    workload = WORKLOADS[name]()
    workload.setup()
    jobs = {}
    for kind, params in workload.cycle(random.Random(f"contract/{name}")):
        jobs.setdefault(kind, params)
    for kind, params in jobs.items():
        workload.run(kind, params, None)
