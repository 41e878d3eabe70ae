"""The span names the benchmark's tracer reports must name real functions.

``bench/tracing.py`` wraps the package's public functions from outside
and reads their spans back by name.  A renamed, privatised or generator
function would leave its metric reading 0 without an error, so the
names are resolved here, against the package, on every test run.
"""

from __future__ import annotations

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

import splitclosure.expansion as expansion

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_tracing = _load_tracing()
# the two names layer_metrics reads besides CALLS and SELF_MS
SPAN_NAMES = sorted(
    set(_tracing.CALLS)
    | set(_tracing.SELF_MS)
    | {"expansion.construction_a", "expansion.select_construction"}
)


@pytest.mark.parametrize("name", SPAN_NAMES)
def test_span_name_resolves_to_a_public_function(name):
    short, attr = name.split(".")
    module = importlib.import_module(f"splitclosure.{short}")
    assert not attr.startswith("_")
    obj = getattr(module, attr)
    if name == "digraph.DiGraph":  # the tracer wraps the constructor
        obj = obj.__init__
    assert obj.__module__ == module.__name__
    function = inspect.unwrap(obj)  # through a cache decorator
    assert inspect.isfunction(function)
    assert not inspect.isgeneratorfunction(function)


def test_split_loop_calls_the_rules_through_module_globals(two_clasps, monkeypatch):
    calls = {"construction_a": 0, "construction_b": 0, "select_construction": 0}
    for attr in calls:
        genuine = getattr(expansion, attr)

        def counted(*args, _attr=attr, _genuine=genuine, **kwargs):
            calls[_attr] += 1
            return _genuine(*args, **kwargs)

        monkeypatch.setattr(expansion, attr, counted)
    expansion.expand_to_preorder(two_clasps)
    assert calls == {"construction_a": 1, "construction_b": 1, "select_construction": 2}
