"""Every exported name and every name the benchmark tracer wraps exists; the
records are immutable NamedTuples and ScenarioConfig is the only dataclass."""

import ast
import dataclasses
import importlib
import inspect
import pkgutil
from pathlib import Path

import pytest

import decoreg

MODULES = sorted(m.name for m in pkgutil.iter_modules(decoreg.__path__))
TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def traced_names():
    """perfbench/tracing.py's TRACED list, read from its source without
    importing it."""
    for node in ast.parse(TRACING.read_text()).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "TRACED" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/tracing.py defines no TRACED list")


@pytest.mark.parametrize("module", MODULES)
def test_all_names_resolve(module):
    mod = importlib.import_module(f"decoreg.{module}")
    missing = [name for name in getattr(mod, "__all__", []) if not hasattr(mod, name)]
    assert not missing


@pytest.mark.parametrize("module", ["solver", "certificates", "guarantees"])
def test_no_function_takes_an_optional_context(module):
    """The model context is passed in, never rebuilt behind a ``ctx=None``."""
    mod = importlib.import_module(f"decoreg.{module}")
    optional = [
        name
        for name in mod.__all__
        if inspect.isfunction(getattr(mod, name))
        and "ctx" in (params := inspect.signature(getattr(mod, name)).parameters)
        and params["ctx"].default is not inspect.Parameter.empty
    ]
    assert not optional


@pytest.mark.parametrize("module, name", traced_names())
def test_traced_name_exists(module, name):
    assert module in MODULES
    assert hasattr(importlib.import_module(f"decoreg.{module}"), name)


RECORDS = [
    ("certificates", "DualCertificate"),
    ("experiments", "ScenarioAnalysis"),
    ("experiments", "ScenarioResult"),
    ("guarantees", "UniquenessVerdict"),
    ("guarantees", "StabilityBound"),
    ("guarantees", "BoundCheck"),
    ("guarantees", "BoundCheckReport"),
    ("norms", "DecompositionModel"),
    ("norms", "Membership"),
    ("solver", "SolverOptions"),
    ("solver", "SolveReport"),
    ("solver", "ICContext"),
    ("solver", "ICSolution"),
]


@pytest.mark.parametrize("module, name", RECORDS)
def test_records_are_immutable_named_tuples(module, name):
    record = getattr(importlib.import_module(f"decoreg.{module}"), name)
    assert issubclass(record, tuple) and record._fields
    instance = record._make([None] * len(record._fields))
    for field in record._fields:
        with pytest.raises(AttributeError):
            setattr(instance, field, 1.0)


def test_scenario_config_is_the_only_dataclass():
    """The records are NamedTuples and the validated types plain classes;
    only ScenarioConfig keeps ``dataclasses.replace`` re-running its
    validation."""
    exported = {
        name: getattr(mod, name)
        for mod in (importlib.import_module(f"decoreg.{m}") for m in MODULES)
        for name in getattr(mod, "__all__", [])
    }
    assert [name for name, obj in exported.items() if dataclasses.is_dataclass(obj)] == [
        "ScenarioConfig"
    ]
