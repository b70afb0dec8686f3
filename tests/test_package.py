"""The package's export list, derived from the names its imports bind; its
records; and what importing the CLI loads."""

import copy
import os
import subprocess
import sys
from pathlib import Path
from types import ModuleType

import pytest

import flowrefine
from flowrefine import (
    Component,
    Counterexample,
    EnumerationBounds,
    Invariant,
    Monitor,
    PremiseCheck,
    PremiseReport,
    RefinementStep,
    ScriptResult,
    StreamTuple,
    System,
    chaos,
)
from flowrefine.archfile import ArchDoc, ComponentSpec
from flowrefine.behaviors import Node
from flowrefine.errors import InterfaceError
from flowrefine.reporting import as_json


def test_export_list_is_sorted_and_public():
    names = flowrefine.__all__
    assert names == sorted(names)
    for name in names:
        assert not name.startswith("_")
        assert not isinstance(getattr(flowrefine, name), ModuleType)


def test_star_import_binds_exactly_the_export_list():
    namespace: dict = {}
    exec("from flowrefine import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == flowrefine.__all__


def test_only_submodules_are_public_modules():
    # A helper module bound at top level (say ``sys``) would be a public
    # attribute that the export list silently leaves out.
    for name, value in vars(flowrefine).items():
        if isinstance(value, ModuleType) and not name.startswith("_"):
            assert value.__name__ == "flowrefine." + name


def test_cli_import_loads_no_code_generator():
    """Records are plain classes, so starting a command imports neither
    ``dataclasses`` nor the ``inspect`` it pulls in (with ``ast``, ``dis``
    and ``tokenize``), and runs no generated code."""
    code = ("import sys, flowrefine.cli; "
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    env = dict(os.environ, PYTHONPATH=str(Path(flowrefine.__file__).parent.parent))
    proc = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True,
                          env=env, check=True)
    assert proc.stdout == "[]\n"


BOUNDS = EnumerationBounds(1, 1, {"a": ("x",), "b": ("x",), "c": ("x",)})
C, D = Component("C", chaos(("a",), ("b",), BOUNDS)), Component("D", chaos((), ("c",), BOUNDS))
SYSTEM = System({"a"}, {"b", "c"}, (C, D), BOUNDS)
HISTORY = StreamTuple({"a": [("x",)]})
FAILED = PremiseCheck("env-compatible", False, "no", Counterexample("invariant-violated"))


def anything(history):
    return True


def case(cls, given, attributes, other, hashable=True, same=None, refused=()):
    """A record: its class; the arguments given (by position, in this
    order, or by keyword); every attribute it then has, in field order;
    arguments that make it a different value; whether it hashes; arguments
    that leave it the same value; and arguments its constructor refuses,
    each with its error and message."""
    return pytest.param(cls, given, attributes, other, hashable, same or {}, refused,
                        id=cls.__name__)


RECORDS = [
    case(Node, {"form": "relay"}, {"form": "relay", "kwargs": (), "args": (), "line": 0},
         {"line": 3}),
    case(Counterexample, {"kind": "output-not-included", "inputs": HISTORY},
         {"kind": "output-not-included", "inputs": HISTORY, "output": None, "run": None,
          "inputs_b": None, "note": ""}, {"note": "why"}),
    case(PremiseCheck, {"check": "totality", "passed": True},
         {"check": "totality", "passed": True, "detail": "", "counterexample": None},
         {"passed": False}),
    case(PremiseReport, {"subject": "validate"},
         {"subject": "validate", "checks": (), "ok": True}, {"subject": "fold"}),
    case(PremiseReport, {"subject": "rule", "checks": (FAILED,)},
         {"subject": "rule", "checks": (FAILED,), "ok": False}, {"checks": ()}),
    case(Invariant, {"name": "any", "channels": ["b", "a"], "predicate": anything},
         {"name": "any", "channels": ("a", "b"), "predicate": anything,
          "prefix_monotone": False, "monitor": None}, {"prefix_monotone": True},
         same={"predicate": lambda history: False,
               "monitor": Monitor(0, lambda state, slc: state, bool)}),
    case(RefinementStep, {"rule": "remove-component", "params": {"name": "C"}},
         {"rule": "remove-component", "params": {"name": "C"}}, {"params": {"name": "D"}},
         hashable=False,
         refused=[({"rule": "merge", "params": {}}, ValueError, "unknown rule 'merge'"),
                  ({"rule": "remove-component"}, ValueError,
                   "rule 'remove-component' takes name; got none")]),
    case(ScriptResult, {"system": SYSTEM, "reports": ()},
         {"system": SYSTEM, "reports": (), "failed_index": None}, {"failed_index": 0}),
    case(Component, {"name": "C", "machine": C.machine}, {"name": "C", "machine": C.machine},
         {"name": "E"},
         refused=[({"name": "", "machine": C.machine}, InterfaceError,
                   "component names must be nonempty")]),
    case(System, {"inputs": ["a"], "outputs": ("c", "b"), "components": (D, C),
                  "bounds": BOUNDS},
         {"inputs": frozenset("a"), "outputs": frozenset("bc"), "components": (C, D),
          "bounds": BOUNDS}, {"components": (C,)}),
    case(ComponentSpec, {"name": "C", "reads": ("a",), "writes": ("b",), "machine": "m",
                         "line": 4},
         {"name": "C", "reads": ("a",), "writes": ("b",), "machine": "m", "line": 4},
         {"line": 5}, hashable=False),
    case(ArchDoc, {}, {"horizon": 0, "burst": 0, "alphabets": {}, "inputs": (), "outputs": (),
                       "machines": {}, "components": (), "bounds_line": 1}, {"horizon": 2},
         hashable=False),
]


@pytest.mark.parametrize("cls, given, attributes, other, hashable, same, refused", RECORDS)
def test_record(cls, given, attributes, other, hashable, same, refused):
    """A record is built by position or by keyword, with its defaults, and
    normalizes what its constructor does; records of equal fields, copies
    among them, are equal, and hash alike where they hash at all; ``as_json`` writes its
    fields in order, leaving out those that are ``None`` or empty text."""
    record = cls(*given.values())
    assert {name: getattr(record, name) for name in attributes} == attributes
    twin, alike = cls(**given), cls(**{**given, **same})
    assert record == twin == alike == copy.copy(record) and not record != twin
    assert record != cls(**{**given, **other})
    assert record != (*given.values(),)
    if hashable:
        assert hash(record) == hash(twin) == hash(alike) and len({record, twin, alike}) == 1
    else:
        with pytest.raises(TypeError):
            hash(record)
    for name, value in attributes.items():
        if name not in given and isinstance(value, dict):
            assert getattr(record, name) is not getattr(twin, name)
    assert list(as_json(record)) == [name for name, value in attributes.items()
                                     if value is not None and value != ""]
    for arguments, error, message in refused:
        with pytest.raises(error, match=message):
            cls(**arguments)
