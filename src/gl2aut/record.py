"""Frozen value records, written by hand.

The standard library's record-class decorator costs a fresh process about
10 ms to import (it loads `inspect`, `ast`, `dis` and `tokenize`) and about
1 ms per decorated class, whose methods it generates with `exec` (Python
3.11 on a 2-vCPU Xeon).  A `Record` subclass lists its fields in
`__slots__`; this base gives it the rest of a frozen record:

  * the constructor takes the fields in slot order, by position or keyword;
  * ``==`` compares the field tuples, only between instances of one class;
  * ``hash`` is the hash of the field tuple;
  * ``repr`` is ``Name(f=..., g=...)``;
  * assigning or deleting an attribute raises AttributeError;
  * copy and pickle rebuild the record through its constructor.

A ``"__dict__"`` entry in ``__slots__`` is not a field.  A subclass writes
its own ``__init__`` when a field has a default, when the values need a
check, or when it is built in a hot loop; it stores each field with
``object.__setattr__`` and takes the fields in slot order.
"""

from __future__ import annotations


class Record:
    __slots__ = ()
    _fields: tuple = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields = cls._fields + tuple(
            name for name in cls.__dict__.get("__slots__", ()) if name != "__dict__")

    def __init__(self, *args, **kwargs):
        names = self._fields
        if len(args) > len(names) or kwargs.keys() != set(names[len(args):]):
            raise TypeError(f"{type(self).__qualname__}() takes the fields {names}")
        for name, value in zip(names, args):
            object.__setattr__(self, name, value)
        for name, value in kwargs.items():
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __reduce__(self):
        return type(self), self._values()

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
