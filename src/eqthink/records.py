"""Immutable value records: plain slotted classes that compare by value.

Terms, top-level forms, tokens, check results and reports are records.  A
record class lists its ``__slots__``, names in ``_fields`` the fields that
take part in ``==``, ``hash`` and ``repr``, and writes its own
``__init__`` through ``set_field``.  Fields left out of ``_fields`` (a
source location, ``App.shape``, a report's environment) are carried but
never compared or shown.  Two records are equal when they are of the same
class and their compared fields are equal; a record's hash is the hash of
the tuple of those fields.  Assigning or deleting a field raises
``AttributeError``; ``loader.Session``, which loading updates, is the one
record that allows both and so has no hash.

The methods are written once here rather than generated per class from
source at import, so start-up compiles nothing and imports neither
``inspect`` nor ``ast``.
"""

from __future__ import annotations

from operator import attrgetter

# How a record's own __init__ writes its fields past the frozen __setattr__.
set_field = object.__setattr__


class Record:
    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls) -> None:
        # _values(record) is the tuple of the compared fields, a 1-tuple for
        # one field, so that a record hashes as the tuple always did.
        names = cls._fields
        if len(names) == 1:
            one = attrgetter(names[0])
            cls._values = staticmethod(lambda record: (one(record),))
        elif names:
            cls._values = staticmethod(attrgetter(*names))

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values(self) == self._values(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values(self))

    def __repr__(self) -> str:
        shown = ", ".join(f"{n}={v!r}" for n, v in zip(self._fields, self._values(self)))
        return f"{self.__class__.__qualname__}({shown})"

    def __setstate__(self, state):
        # What copy and pickle restore: object.__getstate__ gives the slots
        # as (None, {name: value}).
        for name, value in state[1].items():
            set_field(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
