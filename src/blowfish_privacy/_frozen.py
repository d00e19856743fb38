"""Bases for the package's immutable classes that validate or cache.

The fields of a class are its annotated names, in order. ``__init__``
checks and normalises its arguments and stores them with :meth:`Frozen._set`;
afterwards assigning or deleting an attribute raises :class:`AttributeError`.
``functools.cached_property`` still caches, since it writes the instance
``__dict__`` directly.

Plain classes rather than frozen dataclasses: decorating a dataclass compiles
generated source, about a millisecond a class, and every command's start-up
would pay it. Records with no checks are ``typing.NamedTuple``.
"""

from __future__ import annotations


class Frozen:
    """Immutable after ``__init__``; compares and hashes by identity."""

    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields = tuple(cls.__dict__.get("__annotations__", ()))

    def _set(self, **fields) -> None:
        self.__dict__.update(fields)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__name__}({fields})"


class Value(Frozen):
    """A :class:`Frozen` that compares and hashes as the tuple of its fields,
    equal only to an instance of the same class."""

    def _key(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())
