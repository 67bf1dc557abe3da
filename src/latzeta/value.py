"""The base of the package's value types.

A value type names its fields in ``_fields`` and stores them in
``__slots__``; its own ``__init__`` checks its arguments and sets the fields
with :meth:`Value._assign`.  Instances compare by their exact type and field
tuple and hash as that tuple does, and the fields are read-only.
"""

from __future__ import annotations

from typing import Tuple


class Value:
    """Frozen value: ``==`` by exact type and field tuple, the hash of the
    field tuple, and the repr ``Name(field=value, ...)``."""

    __slots__ = ()
    _fields: Tuple[str, ...] = ()

    def _assign(self, *values) -> None:
        """Set the fields, in ``_fields`` order, past the read-only guard."""
        for name, value in zip(self._fields, values):
            object.__setattr__(self, name, value)

    def _astuple(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if type(other) is type(self):
            return self._astuple() == other._astuple()
        return NotImplemented

    def __hash__(self):
        return hash(self._astuple())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}"
                           for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of "
                             f"{type(self).__qualname__}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of "
                             f"{type(self).__qualname__}")

    def __reduce__(self):
        # copy and pickle rebuild through __init__, never by assignment
        return type(self), self._astuple()
