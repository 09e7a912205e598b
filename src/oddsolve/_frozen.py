"""The one base of the package's immutable value classes.

A subclass lists its fields in ``__slots__``, with their annotations, and
``Frozen.__init__`` takes one value per field, in that order.  A subclass
that needs defaults or validation defines its own ``__init__`` and sets its
fields with one ``Frozen.__init__(self, ...)`` call.  Equality, hashing and
repr then run over the fields in order, as a frozen dataclass's would, and
assignment or deletion raises AttributeError.  Fields named with a leading
underscore stay out of the repr.  Copies and pickles go through
``__init__`` with the fields in order, so its parameters must take them in
that order.  The package builds no record with `dataclasses`: importing it
would pull `inspect` and its imports into every process that solves, runs
a parity routine or generates a reduction.
"""
from __future__ import annotations

__all__ = ["Frozen"]


class Frozen:
    __slots__ = ()

    def __init__(self, *values: object) -> None:
        for name, value in zip(self.__slots__, values, strict=True):
            object.__setattr__(self, name, value)

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._fields() == other._fields()  # type: ignore[attr-defined]
        return NotImplemented

    def __hash__(self) -> int:
        # raises TypeError when a field is unhashable, such as a dict
        return hash(self._fields())

    def __repr__(self) -> str:
        shown = ", ".join(f"{name}={getattr(self, name)!r}"
                          for name in self.__slots__ if not name.startswith("_"))
        return f"{type(self).__name__}({shown})"

    def __reduce__(self):
        # copy and pickle rebuild through __init__, which assignment would refuse
        return self.__class__, self._fields()

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")
