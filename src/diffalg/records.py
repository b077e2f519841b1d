"""Immutable result records with one definition of equality, hashing and repr.

A record class lists its fields in ``__slots__``, in constructor order, and
writes its own ``__init__``.  That stores each field with ``setfield``
(``object.__setattr__``), because a record's own ``__setattr__`` and
``__delattr__`` refuse every change.  ``_compared`` names the fields that
equality and hashing read, and ``_shown`` the ones ``repr`` prints, both in
field order.  Two records are equal only when they have the same type and
equal compared fields, so a record is never equal to a tuple or to a record
of another type; its hash is the hash of the tuple of its compared fields.
Copies and pickles rebuild a record through its constructor.

Records are plain classes, not frozen dataclasses: importing ``dataclasses``
(with ``inspect``, ``ast`` and ``dis``) and generating each class's methods
would cost every process milliseconds at start, and no command needs either.
Equality, hashing and ``repr`` are the ones a frozen dataclass would give.
"""

__all__ = ["Record", "setfield"]

setfield = object.__setattr__


class Record:
    __slots__ = ()
    _compared = _shown = ()

    def _key(self) -> tuple:
        return tuple([getattr(self, name) for name in self._compared])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key() == other._key()
        return NotImplemented

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._shown)
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return self.__class__, tuple([getattr(self, name) for name in self.__slots__])
