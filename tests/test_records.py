"""The record helper against its oracle, ``dataclasses``, and a start-up guard
that importing ``leavitt.cli`` and every other module of the package generates
and compiles no code at run time."""

import dataclasses
import functools
import json
import subprocess
import sys

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from helpers import dataclass_twin, record_classes
from leavitt import records
from leavitt.digraph import GeometricCycle
from leavitt.fields import Field, Polynomial
from leavitt.ideals import AdmissiblePair, IdealPresentation, pair_lattice, validated_ideal
from leavitt.io import cast_ideal
from leavitt.quotients import radical_quotient
from leavitt.records import FrozenInstanceError, record

from conftest import load_graph
from test_io_cli import child_env

RECORDS = record_classes()

#: Field values: a few atoms that compare equal across types (1, True,
#: Fraction(1)), and containers, some of them unhashable.
ATOMS = (st.none() | st.booleans() | st.integers(-2, 3) | st.sampled_from(["a", "v1", ""])
         | st.fractions(min_value=-2, max_value=2, max_denominator=3))
VALUES = st.recursive(
    ATOMS, lambda inner: (st.tuples(inner, inner) | st.frozensets(ATOMS, max_size=3)
                          | st.lists(inner, max_size=2)
                          | st.dictionaries(st.sampled_from(["a", "b"]), inner, max_size=2)),
    max_leaves=4)


@functools.cache
def twin_of(cls):
    return dataclass_twin(cls)


def outcome(make):
    """("ok", result) or ("raised", exception type name, message)."""
    try:
        return ("ok", make())
    except Exception as exc:  # noqa: BLE001 - any difference is the finding
        return ("raised", type(exc).__name__, str(exc))


def same_outcome(ours, theirs):
    """Both raised the same error, or both returned results whose repr is the
    same (or fails the same way, as a class's own repr may on odd values)."""
    assert ours[0] == theirs[0], (ours, theirs)
    if ours[0] == "raised":
        assert ours == theirs
    else:
        assert outcome(lambda: repr(ours[1])) == outcome(lambda: repr(theirs[1]))


@st.composite
def calls(draw, cls):
    """Arguments for cls(...): sometimes too few or too many positional ones,
    and keywords that may repeat a positional one or name no field."""
    names = cls.__record__.names
    args = draw(st.lists(VALUES, max_size=len(names) + 1))
    keys = draw(st.lists(st.sampled_from(names + ("bogus",)), unique=True, max_size=2))
    return args, {k: draw(VALUES) for k in keys}


@st.composite
def valid_calls(draw, cls):
    """Arguments that bind: every field without a default, by position or keyword."""
    spec = cls.__record__
    n = len(spec.names)
    k = draw(st.integers(n - len(spec.defaults), n))
    args = draw(st.lists(VALUES, min_size=k, max_size=k))
    keys = draw(st.lists(st.sampled_from(spec.names[k:]), unique=True)) if k < n else []
    return args, {key: draw(VALUES) for key in keys}


def build(cls, data):
    """One instance of cls and one of its twin from the same drawn arguments."""
    args, kwargs = data.draw(valid_calls(cls))
    ours = outcome(lambda: cls(*args, **kwargs))
    theirs = outcome(lambda: twin_of(cls)(*args, **kwargs))
    same_outcome(ours, theirs)
    assume(ours[0] == "ok")
    return ours[1], theirs[1]


def test_every_record_class_is_found():
    assert len(RECORDS) == 35 and IdealPresentation in RECORDS
    # every one frozen: the record's refusing __setattr__/__delattr__, and a hash
    for cls in RECORDS:
        for method in ("__setattr__", "__delattr__", "__hash__"):
            assert vars(cls)[method].__module__ == records.__name__, (cls, method)


@pytest.mark.parametrize("cls", RECORDS, ids=lambda c: c.__name__)
@settings(max_examples=20)
@given(data=st.data())
def test_init_repr_eq_hash_match_dataclass(cls, data):
    args, kwargs = data.draw(calls(cls))
    ours = outcome(lambda: cls(*args, **kwargs))
    theirs = outcome(lambda: twin_of(cls)(*args, **kwargs))
    same_outcome(ours, theirs)  # also TypeError texts and __post_init__ errors
    if ours[0] == "raised":
        return
    mine, twin = ours[1], theirs[1]
    same_outcome(outcome(lambda: hash(mine)), outcome(lambda: hash(twin)))
    assert mine.__eq__(twin) is NotImplemented and mine != twin
    other_mine, other_twin = build(cls, data)
    assert (mine == other_mine) == (twin == other_twin)
    assert (mine == cls(*args, **kwargs)) == (twin == twin_of(cls)(*args, **kwargs))


@pytest.mark.parametrize("cls", RECORDS, ids=lambda c: c.__name__)
@settings(max_examples=15)
@given(data=st.data())
def test_replace_matches_dataclass(cls, data):
    mine, twin = build(cls, data)
    names = cls.__record__.names
    keys = data.draw(st.lists(st.sampled_from(names + ("bogus",)), unique=True, max_size=2))
    changes = {k: data.draw(VALUES) for k in keys}
    same_outcome(outcome(lambda: records.replace(mine, **changes)),
                 outcome(lambda: dataclasses.replace(twin, **changes)))


@pytest.mark.parametrize("cls", RECORDS, ids=lambda c: c.__name__)
@settings(max_examples=15)
@given(data=st.data())
def test_assignment_and_deletion_match_dataclass(cls, data):
    mine, twin = build(cls, data)
    value = data.draw(VALUES)
    for name in cls.__record__.names + ("extra",):
        ours = outcome(lambda: setattr(mine, name, value))
        same_outcome(ours, outcome(lambda: setattr(twin, name, value)))
        assert ours[0] == "raised"
        same_outcome(outcome(lambda: delattr(mine, name)),
                     outcome(lambda: delattr(twin, name)))
    same_outcome(("ok", mine), ("ok", twin))


def test_missing_and_extra_arguments_are_type_errors():
    for cls in RECORDS:
        names, defaults = cls.__record__.names, cls.__record__.defaults
        too_many = [None] * (len(names) + 1)
        for args in ([], too_many) if len(defaults) < len(names) else (too_many,):
            with pytest.raises(TypeError) as ours:
                cls(*args)
            with pytest.raises(TypeError) as theirs:
                twin_of(cls)(*args)
            assert str(ours.value) == str(theirs.value)


def test_validated_ideal_is_read_only():
    g, q = load_graph("loop"), Field.rationals()
    c = GeometricCycle.of(["e"])
    theta = {c: Polynomial.of(q, [1, -2, 1])}
    j = IdealPresentation(q, AdmissiblePair(frozenset()), beta=[c], theta=theta)
    theta[c] = Polynomial.of(q, [1, -1])  # j holds its own copy
    v = validated_ideal(g, j)
    assert v.ideal.beta == (c,) and v.ideal.labels == {c: "C1"}
    assert v.ideal.theta == {c: Polynomial.of(q, [1, -2, 1])}
    with pytest.raises(TypeError):
        v.ideal.theta[c] = Polynomial.of(q, [1, -1])
    with pytest.raises(TypeError):
        v.ideal.labels[c] = "D"
    with pytest.raises(FrozenInstanceError):
        v.ideal.name = "other"
    with pytest.raises(TypeError, match="unhashable"):  # as a frozen dataclass would
        hash(v)
    # derived ideals are new values that keep the C1… labels
    d = records.replace(j, name="again")
    assert d.labels == {c: "C1"} and d.labels is not j.labels and d.name == "again"
    assert cast_ideal(j, Field.gf(5)).labels == {c: "C1"}
    assert radical_quotient(g, j).j_prime.labels == {c: "C1"}
    empty = IdealPresentation(q, AdmissiblePair(frozenset()))
    assert empty.theta == {} and empty.labels == {} and empty.beta == ()
    assert empty == IdealPresentation(q, AdmissiblePair(frozenset()))


def test_cached_property_on_a_frozen_record():
    lattice = pair_lattice(load_graph("sq2"))
    first = lattice.elements[0]
    assert lattice.index(first) == 0 and "_positions" in vars(lattice)
    with pytest.raises(FrozenInstanceError, match="cannot assign to field '_positions'"):
        lattice._positions = {}


def test_frozen_error_is_an_attribute_error():
    assert issubclass(FrozenInstanceError, AttributeError)
    with pytest.raises(AttributeError):
        Field.rationals().p = 3


@pytest.mark.parametrize("body, message", [
    ("class R(dict):\n    x: int", "inheritance"),
    ("class R:\n    __slots__ = ('x',)\n    x: int", "__slots__"),
    ("class R:\n    x: int\n    def __eq__(self, other): return True", "__eq__"),
    ("class R:\n    x: 'ClassVar[int]'", "unsupported annotation"),
    ("class R:\n    x: int = 1\n    y: int", "follows default"),
])
def test_unsupported_features_fail_loudly(body, message):
    namespace = {}
    exec(body, namespace)
    with pytest.raises(TypeError, match=message):
        record(namespace["R"])


def test_unsupported_options_and_mutable_defaults_fail_loudly():
    for option in ({"order": True}, {"frozen": False}):
        with pytest.raises(TypeError):
            record(**option)

    class WithList:
        xs: list = []

    with pytest.raises(ValueError, match="hashable default such as a tuple"):
        record(WithList)
    with pytest.raises(TypeError, match="record instances"):
        records.replace(object())


#: Run in a fresh interpreter: record every compile/exec of generated source
#: (a file name such as "<string>") made while code of the package is on the
#: stack with no import of a module outside the package in between, then list
#: which of the named modules the import left behind.  ``import leavitt.cli``
#: loads only the modules the CLI needs at start, so every other module of the
#: package is imported after it.
STARTUP_PROBE = """
import json, os, sys, traceback
generated = []
def hook(event, args):
    if event == "compile":
        filename = args[1]
    elif event == "exec":
        filename = getattr(args[0], "co_filename", "")
    else:
        return
    if not str(filename).startswith("<"):
        return
    for frame in reversed(traceback.extract_stack()[:-1]):
        if frame.filename.startswith("<frozen importlib"):
            return  # code made while importing a module outside the package
        if os.sep + "leavitt" + os.sep in frame.filename:
            generated.append([event, str(filename), frame.filename, frame.lineno])
            return
sys.addaudithook(hook)
import leavitt.cli
package = os.path.dirname(leavitt.__file__)
for name in sorted(os.listdir(package)):
    if name.endswith(".py") and name != "__init__.py":
        __import__("leavitt." + name[:-3])
print(json.dumps({"generated": generated,
                  "modules": sorted(m for m in sys.modules if m.startswith("leavitt.")),
                  "after": [m for m in ("dataclasses", "inspect") if m in sys.modules]}))
"""


def test_cli_import_generates_no_code():
    bare = subprocess.run([sys.executable, "-c", "import json, sys; print(json.dumps("
                           "[m for m in ('dataclasses', 'inspect') if m in sys.modules]))"],
                          capture_output=True, text=True, env=child_env())
    assert bare.returncode == 0, bare.stderr
    proc = subprocess.run([sys.executable, "-c", STARTUP_PROBE],
                          capture_output=True, text=True, env=child_env())
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert report["generated"] == []
    assert {"leavitt.fields", "leavitt.ideals", "leavitt.io", "leavitt.ktheory",
            "leavitt.quotients"} <= set(report["modules"])
    assert set(report["after"]) <= set(json.loads(bare.stdout))
