"""The base of the package's frozen value classes.

A value class lists its state in __slots__.  The names there that do not
start with an underscore are its fields, in order, after those of its
bases; a private slot holds state derived from the fields, such as a
step's kept vector.  A class may instead name its fields in _fields and
read each through a property from private slots, as Expression does.
__init__ validates its arguments and stores the fields with _store (or
object.__setattr__); after that, assigning or deleting any attribute
raises AttributeError.

== holds between two objects of the same class whose fields are equal,
hash is taken over the fields, and repr reads Name(field=value, ...).
Private slots take no part in them.  _replace, copy and pickle all go
through the constructor, so its checks run again and no private slot is
carried over.
"""

from __future__ import annotations


class Value:
    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        own = cls.__dict__.get("__slots__", ())
        cls._fields = cls._fields + tuple(name for name in own if name[0] != "_")

    def _store(self, *values) -> None:
        """Set the fields, in order, to values; for __init__ only."""
        for name, value in zip(self._fields, values):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join([f"{name}={getattr(self, name)!r}" for name in self._fields])
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def _replace(self, **changes):
        """A copy built by the constructor, with the named fields changed."""
        return type(self)(**dict(zip(self._fields, self._values()), **changes))

    def __reduce__(self):
        return _rebuilt, (type(self), self._values())


def _rebuilt(cls: type[Value], values: tuple) -> Value:
    return cls(**dict(zip(cls._fields, values)))
