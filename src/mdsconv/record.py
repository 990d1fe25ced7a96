"""Frozen records: the immutable value classes of the package.

A subclass of `Record` declares its fields as annotations, in order, with
optional trailing defaults as class attributes.  It gets a generated
`__init__` taking the fields positionally or by keyword and then calling
`__post_init__` when the class defines one, equality (same class and
equal fields), hashing by fields unless the class defines its own
`__hash__`, and a `Name(field=value, ...)` repr.  Assigning or deleting
an attribute raises AttributeError.  Records pickle by their instance
dict, and unpickling runs no check; `FieldSpec` pickles as `GF(q)`.

`kept` is the one rule for a value derived once and kept on a record
(plans' parity checks, report and executable, codes' parity parts,
encoders and restrictions, parity forms, a field's product and unit
rows), which `==`, `hash` and `replace` never see.
`FieldSpec` is a record: `(p, m)` identify the field.

Each class has two constructors with the same parameters and defaults.
The checked one, `Cls(...)`, runs `__post_init__`: it is for values from
outside the program (plan documents, library callers, `replace`).
A checked constructor keeps each sequence field as tuples (`freeze`), so
a record built from lists equals and hashes as one built from tuples.
`Cls._trusted(...)`, also generated, sets the fields and skips
`__post_init__`: it is for values the program derives from operands that
were already checked, such as computed matrices, restricted codes and
lowered plans, whose invariants hold by construction.  A class declared
with `trusted=False` gets no `_trusted`: `FieldSpec`, whose
`__post_init__` also sets the attributes derived from its fields, so a
field the program derives comes from `GF(q)`.

The package does not use `dataclasses` for this: importing it (with
`inspect`, `ast` and `typing`) and generating its methods took a large
share of the start-up of every CLI process.
"""

from __future__ import annotations

from operator import is_

_TEMPLATE = """\
def __init__(self, {params}):
{sets}{post}
def _trusted(cls, {params}):
    self = _new(cls)
{sets}    return self

def __eq__(self, other):
    if other.__class__ is self.__class__:
        return ({mine},) == ({theirs},)
    return NotImplemented

def __hash__(self):
    return hash(({mine},))
"""


class Record:
    """Base of the frozen records; `_fields` names a subclass's fields in order."""

    def __init_subclass__(cls, trusted: bool = True):
        own = cls.__dict__
        names = tuple(own.get("__annotations__", ()))
        defaults = tuple(own[n] for n in names if n in own)
        if any(n in own for n in names[: len(names) - len(defaults)]):
            raise TypeError(f"{cls.__name__}: a field without a default follows one with a default")
        ns = {"_set": object.__setattr__, "_new": object.__new__}
        exec(_TEMPLATE.format(
            params=", ".join(names),
            sets="".join(f"    _set(self, {n!r}, {n})\n" for n in names),
            post="    self.__post_init__()\n" if "__post_init__" in own else "",
            mine=", ".join(f"self.{n}" for n in names),
            theirs=", ".join(f"other.{n}" for n in names),
        ), ns)
        ns["__init__"].__defaults__ = ns["_trusted"].__defaults__ = defaults or None
        if not trusted:
            del ns["_trusted"]
        for name in ("__init__", "_trusted", "__eq__", "__hash__"):
            if name in ns and name not in own:
                ns[name].__qualname__ = f"{cls.__qualname__}.{name}"
                setattr(cls, name, classmethod(ns[name]) if name == "_trusted" else ns[name])
        cls._fields = names

    def __repr__(self) -> str:
        body = ", ".join(f"{n}={getattr(self, n)!r}" for n in self._fields)
        return f"{type(self).__qualname__}({body})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


def replace(obj: Record, **changes) -> Record:
    """A new record of obj's class with `changes` applied: its `__init__`
    runs (and validates) again, and values kept on obj are not copied."""
    return type(obj)(**{**{n: getattr(obj, n) for n in obj._fields}, **changes})


def freeze(obj: Record, **depths: int) -> None:
    """In a checked constructor: keep each named field of obj with its
    lists and tuples, down to `depth` levels, as tuples.  Any other value
    is kept as given, for the constructor's checks to refuse as before."""
    for name, depth in depths.items():
        value = getattr(obj, name)
        if depth > 1 or type(value) is not tuple:
            object.__setattr__(obj, name, _tuples(value, depth))


def _tuples(value, depth: int):
    if not isinstance(value, (list, tuple)):
        return value
    if depth == 1:
        return tuple(value)
    # A value that is already tuples down to `depth`, as plan documents give
    # their grids and layouts, is kept, at any depth.
    items = tuple([_tuples(v, depth - 1) for v in value])
    return value if type(value) is tuple and all(map(is_, items, value)) else items


def kept(obj: Record, name: str, derive, *args):
    """`derive(*args)`, kept on obj as `name` from the first call: a record
    never changes, and `==`, `hash` and `replace` see only its fields.  Read
    by `getattr`, as reading `obj.__dict__` makes CPython build the dict."""
    value = getattr(obj, name, None)
    if value is None:
        value = derive(*args)
        object.__setattr__(obj, name, value)
    return value
