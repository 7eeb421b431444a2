"""Record classes without code generation: the part of ``dataclasses`` leavitt uses.

Every value type of the package is a small record: annotated fields, an
``__init__`` that takes them in order, field-wise ``==``, a hash, a
``QualName(a=…, b=…)`` repr, and no assignment after construction.  In
Python 3.11, ``@dataclass(frozen=True)`` builds each of those methods by
``exec`` of generated source, and importing it pulls in ``inspect`` and
``ast``: for the package's 34 dataclasses that was 201 generated methods and
about 40 ms of every CLI process on a 2-vCPU virtual machine.  :func:`record`
installs shared, pre-written methods instead, so a class costs a few
dictionary writes and runs no ``exec``, ``eval`` or ``compile``.

Covered, with the behaviour of the frozen ``dataclasses`` equivalent:

* ``@record``: fields are the class's own annotations, in order, with plain
  (hashable) defaults; a field without a default may not follow one with a
  default;
* ``__init__`` by position or keyword, with the same ``TypeError`` texts for
  missing, surplus, repeated and unknown arguments, then ``__post_init__``
  if the class defines one (it may normalise through ``object.__setattr__``);
* ``__eq__`` between instances of the same class (else ``NotImplemented``),
  comparing the field tuples;
* ``__hash__`` of the field tuple;
* ``__setattr__``/``__delattr__`` raise :class:`FrozenInstanceError` (an
  ``AttributeError``);
* ``__repr__`` as ``QualName(a=…, b=…)`` unless the class defines its own;
* :func:`replace`, which builds a new instance and so reruns
  ``__post_init__``.

Not covered, and refused with a ``TypeError`` at class creation rather than
silently treated differently: any option (``order``, ``frozen=False``, …),
``slots`` (a ``__slots__`` in the body), ``KW_ONLY``, ``ClassVar`` and
``InitVar`` annotations, inheritance between records (a record's bases must
be just ``object``), a class that defines its own ``__init__``, ``__eq__``,
``__hash__``, ``__setattr__`` or ``__delattr__``, and (a ``ValueError``)
mutable defaults.  Neither are ``field()``, ``fields()``, ``asdict()``,
``__match_args__`` or the recursion guard of the dataclass repr.
``functools.cached_property`` works, since records keep an instance ``__dict__``.
"""

from __future__ import annotations

from operator import attrgetter

__all__ = ["FrozenInstanceError", "record", "replace"]

_MISSING = object()
_UNSUPPORTED_ANNOTATIONS = ("ClassVar", "InitVar", "KW_ONLY")
_OWN_METHODS = ("__init__", "__eq__", "__hash__", "__setattr__", "__delattr__")
_set = object.__setattr__


class FrozenInstanceError(AttributeError):
    """Assignment to, or deletion of, an attribute of a frozen record."""


class _Spec:
    """What :func:`record` read off a class, kept as its ``__record__``."""

    __slots__ = ("names", "defaults", "values")

    def __init__(self, names, defaults, values):
        self.names = names  # the fields, in order
        self.defaults = defaults  # name -> default value
        self.values = values  # instance -> tuple of its field values


def replace(obj, /, **changes):
    """A copy of the record ``obj`` with ``changes``; runs ``__init__`` again."""
    spec = getattr(type(obj), "__record__", None)
    if spec is None:
        raise TypeError("replace() should be called on record instances")
    for name, value in zip(spec.names, spec.values(obj)):
        changes.setdefault(name, value)
    return type(obj)(**changes)


def _arg_list(names) -> str:
    """``'a'``, ``'a' and 'b'``, ``'a', 'b', and 'c'``, as CPython writes them."""
    quoted = [repr(n) for n in names]
    if len(quoted) == 1:
        return quoted[0]
    if len(quoted) == 2:
        return f"{quoted[0]} and {quoted[1]}"
    return ", ".join(quoted[:-1]) + ", and " + quoted[-1]


def record(cls, /):
    """Class decorator: make ``cls`` a record (see the module docstring)."""
    qualname = cls.__qualname__
    if cls.__bases__ != (object,):
        raise TypeError(f"record {qualname}: inheritance is not supported")
    if "__slots__" in cls.__dict__:
        raise TypeError(f"record {qualname}: __slots__ is not supported")
    for method in _OWN_METHODS:
        if method in cls.__dict__:
            raise TypeError(f"record {qualname}: defines its own {method}")

    annotations = cls.__dict__.get("__annotations__", {})
    names = tuple(annotations)
    defaults = {}  # name -> default value, for names[n_required:]
    for name in names:
        if any(word in str(annotations[name]) for word in _UNSUPPORTED_ANNOTATIONS):
            raise TypeError(f"record {qualname}: field {name!r} has an unsupported "
                            f"annotation {annotations[name]!r}")
        default = cls.__dict__.get(name, _MISSING)
        if default is _MISSING:
            if defaults:
                raise TypeError(f"non-default argument {name!r} follows default argument")
            continue
        if type(default).__hash__ is None:
            raise ValueError(f"mutable default {type(default)} for field {name}: use a "
                             "hashable default such as a tuple, or normalise in __post_init__")
        defaults[name] = default
    n_fields, n_required = len(names), len(names) - len(defaults)
    index = {name: i for i, name in enumerate(names)}
    slots = tuple(defaults.get(name, _MISSING) for name in names)  # default per position
    post_init = cls.__dict__.get("__post_init__")

    if n_fields == 1:
        get_one = attrgetter(names[0])

        def values(obj):
            return (get_one(obj),)
    else:
        values = attrgetter(*names)

    def bind(args, kwargs):
        """The full field list for ``__init__(*args, **kwargs)``, or the TypeError
        CPython raises for a function with this signature."""
        given = len(args)
        bound = [*args, *slots[given:]]
        for name, value in kwargs.items():  # keywords first, as CPython checks them
            i = index.get(name, -1)
            if i < given:
                problem = ("got an unexpected keyword argument" if i < 0
                           else "got multiple values for argument")
                raise TypeError(f"{qualname}.__init__() {problem} {name!r}")
            bound[i] = value
        if given > n_fields:
            takes = (f"from {n_required + 1} to {n_fields + 1}" if defaults
                     else f"{n_fields + 1}")
            raise TypeError(f"{qualname}.__init__() takes {takes} positional arguments "
                            f"but {given + 1} were given")
        if given < n_required:
            missing = [names[i] for i in range(given, n_required) if bound[i] is _MISSING]
            if missing:
                raise TypeError(f"{qualname}.__init__() missing {len(missing)} required "
                                f"positional argument{'s' if len(missing) > 1 else ''}: "
                                f"{_arg_list(missing)}")
        return bound

    def __init__(self, *args, **kwargs):
        if kwargs or len(args) != n_fields:
            args = bind(args, kwargs)
        # one attribute at a time, as the generated code does: filling the
        # instance dict wholesale would slow down every later attribute read
        for name, value in zip(names, args):
            _set(self, name, value)
        if post_init is not None:
            post_init(self)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return values(self) == values(other)
        return NotImplemented

    def __hash__(self):
        return hash(values(self))

    def __setattr__(self, name, value):
        if type(self) is cls or name in annotations:
            raise FrozenInstanceError(f"cannot assign to field {name!r}")
        super(cls, self).__setattr__(name, value)

    def __delattr__(self, name):
        if type(self) is cls or name in annotations:
            raise FrozenInstanceError(f"cannot delete field {name!r}")
        super(cls, self).__delattr__(name)

    def __repr__(self):
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(names, values(self)))
        return f"{self.__class__.__qualname__}({fields})"

    methods = {"__init__": __init__, "__eq__": __eq__, "__hash__": __hash__,
               "__setattr__": __setattr__, "__delattr__": __delattr__}
    if "__repr__" not in cls.__dict__:
        methods["__repr__"] = __repr__
    for method_name, method in methods.items():
        method.__qualname__ = f"{qualname}.{method_name}"
        setattr(cls, method_name, method)
    cls.__record__ = _Spec(names, defaults, values)
    return cls
