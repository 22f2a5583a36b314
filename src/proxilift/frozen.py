"""The base of the package's immutable value types.

Each value type writes its own ``__init__``, which validates the arguments
and sets the fields with ``object.__setattr__``, and lists in ``_fields``
the fields that equality, hash and repr read.  Nothing is generated at
import: a class statement is all a value type costs.
"""

from __future__ import annotations


class _Frozen:
    """Equality, hash, repr and immutability from one ``_fields`` tuple.

    Two values are equal when they are of the same class and their fields
    are equal; a value of another class gets ``NotImplemented``.  The hash
    is that of the tuple of fields and the repr is ``Name(a=..., b=...)``.
    Setting or deleting an attribute raises ``AttributeError``.  Instances
    keep a ``__dict__``, where ``functools.cached_property`` stores what it
    builds.
    """

    _fields: tuple[str, ...] = ()

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(
            f"{name}={getattr(self, name)!r}" for name in self._fields
        )
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")
