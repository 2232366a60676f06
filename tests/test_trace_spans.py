"""The benchmark's span names against the code they name.

``perfbench/tracer.py`` wraps every public function of an mmdrl module,
and the ``__init__`` and public methods found in a public class's own
``__dict__``. A workload whose required span or counted span names
anything else records nothing, and its traced run fails. This test only
reads the two benchmark files.
"""

import importlib
import importlib.util
import inspect
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"_perfbench_{name}", PERFBENCH / f"{name}.py")
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


WORKLOADS = _load("workloads").WORKLOADS
TRACER = _load("tracer")
SPANS = sorted({span for w in WORKLOADS.values() for span in w.spans} | set(TRACER.COUNTERS))


def _wrapped(name: str) -> bool:
    """Whether ``tracer.install`` wraps the span ``name``."""
    short, *rest = name.split(".")
    if short not in TRACER.MODULES:
        return False
    module = importlib.import_module(f"mmdrl.{short}")
    obj = vars(module).get(rest[0])
    if rest[0].startswith("_") or getattr(obj, "__module__", None) != module.__name__:
        return False
    if len(rest) == 1:
        return inspect.isfunction(obj)
    if len(rest) != 2 or not inspect.isclass(obj):
        return False
    member = vars(obj).get(rest[1])
    if rest[1].startswith("_") and rest[1] != "__init__":
        return False
    if isinstance(member, (classmethod, staticmethod)):
        member = member.__func__
    return inspect.isfunction(member)


def test_every_workload_requires_spans():
    assert WORKLOADS and all(w.spans for w in WORKLOADS.values())


@pytest.mark.parametrize("name", SPANS)
def test_span_names_a_wrapped_callable(name):
    assert _wrapped(name), f"{name} is not a public function or class member that the tracer wraps"
