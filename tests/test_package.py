"""The package's export list, derived from the names its imports bind; its
records and other frozen objects, and how they copy; and what importing the
CLI loads."""

import copy
import os
import pickle
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
    TimedStream,
    adapt,
    chaos,
    tiny_profile,
)
from flowrefine.archfile import ArchDoc, ComponentSpec
from flowrefine.behaviors import Node, compose
from flowrefine.case_study import build_original_system
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
    and ``tokenize``), and runs no generated code; nor does it import
    ``copy`` or ``pickle`` to let frozen objects copy."""
    code = ("import sys, flowrefine.cli; "
            "print(sorted({'dataclasses', 'inspect', 'copy', 'pickle'} & set(sys.modules)))")
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


def case(cls, given, attributes, other, hashable=True, same=None, refused=(), pickles=True):
    """A record: its class; the arguments given (by position, in this
    order, or by keyword); every attribute it then has, in field order;
    arguments that make it a different value; whether it hashes; arguments
    that leave it the same value; arguments its constructor refuses, each
    with its error and message; and whether it pickles, as a record that
    holds no function does."""
    return pytest.param(cls, given, attributes, other, hashable, same or {}, refused, pickles,
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
               "monitor": Monitor(0, lambda state, slc: state, bool)}, pickles=False),
    case(RefinementStep, {"rule": "remove-component", "params": {"name": "C"}},
         {"rule": "remove-component", "params": {"name": "C"}}, {"params": {"name": "D"}},
         hashable=False,
         refused=[({"rule": "merge", "params": {}}, ValueError, "unknown rule 'merge'"),
                  ({"rule": "remove-component"}, ValueError,
                   "rule 'remove-component' takes name; got none")]),
    case(ScriptResult, {"system": SYSTEM, "reports": ()},
         {"system": SYSTEM, "reports": (), "failed_index": None}, {"failed_index": 0},
         pickles=False),
    case(Component, {"name": "C", "machine": C.machine}, {"name": "C", "machine": C.machine},
         {"name": "E"},
         refused=[({"name": "", "machine": C.machine}, InterfaceError,
                   "component names must be nonempty")], pickles=False),
    case(System, {"inputs": ["a"], "outputs": ("c", "b"), "components": (D, C),
                  "bounds": BOUNDS},
         {"inputs": frozenset("a"), "outputs": frozenset("bc"), "components": (C, D),
          "bounds": BOUNDS}, {"components": (C,)}, pickles=False),
    case(ComponentSpec, {"name": "C", "reads": ("a",), "writes": ("b",), "machine": "m",
                         "line": 4},
         {"name": "C", "reads": ("a",), "writes": ("b",), "machine": "m", "line": 4},
         {"line": 5}, hashable=False),
    case(ArchDoc, {}, {"horizon": 0, "burst": 0, "alphabets": {}, "inputs": (), "outputs": (),
                       "machines": {}, "components": (), "bounds_line": 1}, {"horizon": 2},
         hashable=False),
]


@pytest.mark.parametrize("cls, given, attributes, other, hashable, same, refused, pickles",
                         RECORDS)
def test_record(cls, given, attributes, other, hashable, same, refused, pickles):
    """A record is built by position or by keyword, with its defaults, and
    normalizes what its constructor does; records of equal fields, copies
    among them, are equal, and hash alike where they hash at all; ``as_json`` writes its
    fields in order, leaving out those that are ``None`` or empty text."""
    record = cls(*given.values())
    assert {name: getattr(record, name) for name in attributes} == attributes
    twin, alike = cls(**given), cls(**{**given, **same})
    assert record == twin == alike == copy.copy(record) == copy.deepcopy(record)
    assert not record != twin
    if pickles:
        assert pickle.loads(pickle.dumps(record)) == record
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


STREAM = TimedStream([("x",), (), ("x", "y")])
FROZEN = [STREAM, StreamTuple({"a": STREAM, "b": [(), (), ("y",)]}), BOUNDS]


@pytest.mark.parametrize("value", FROZEN, ids=lambda value: type(value).__name__)
def test_stream_and_bounds_copies(value):
    """Streams, stream tuples and bounds copy and pickle as equal values
    that hash alike and are themselves immutable."""
    for twin in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
        assert twin == value and hash(twin) == hash(value) and twin in {value}
        with pytest.raises(AttributeError, match="is immutable"):
            twin.horizon = 0
    if isinstance(value, EnumerationBounds):
        assert list(pickle.loads(pickle.dumps(value)).tuples("ab")) == list(value.tuples("ab"))


def test_pickled_stream_hashes_anew_under_another_hash_seed():
    """A stream tuple pickled under one hash seed hashes, once loaded under
    another, as one built there: its hash of strings is not carried over."""
    env = dict(os.environ, PYTHONPATH=str(Path(flowrefine.__file__).parent.parent))
    build = "from flowrefine import StreamTuple; x = StreamTuple({'a': [('x',), ('y',)]})"
    dump = build + "; import pickle, sys; sys.stdout.buffer.write(pickle.dumps(x))"
    data = subprocess.run([sys.executable, "-c", dump], capture_output=True, check=True,
                          env=dict(env, PYTHONHASHSEED="1")).stdout
    load = (build + "; import pickle, sys; y = pickle.loads(sys.stdin.buffer.read()); "
            "print(y == x, hash(y) == hash(x), y in {x}, y.items[0][1] in {x['a']})")
    proc = subprocess.run([sys.executable, "-c", load], input=data, capture_output=True,
                          check=True, env=dict(env, PYTHONHASHSEED="7"))
    assert proc.stdout == b"True True True True\n"


def test_machine_copies_as_itself():
    """A leaf, a ``compose`` and a view copy as themselves, since their
    functions close over their parts and their numbering; a copied system
    shares its machines.  A machine does not pickle, for the same reason."""
    system = build_original_system(tiny_profile())
    product = compose([component.machine for component in system.components])
    view = adapt(C.machine, ("a", "z"), ("b",))
    for machine in (C.machine, product, view):
        assert copy.copy(machine) is machine and copy.deepcopy(machine) is machine
        with pytest.raises((pickle.PicklingError, AttributeError)) as info:
            pickle.dumps(machine)
        assert "immutable" not in str(info.value)
    twin = copy.deepcopy(system)
    assert twin == system and twin is not system
    assert all(a.machine is b.machine for a, b in zip(twin.components, system.components))
