"""The base of the library's immutable value classes.

A value class's annotations are its fields, in constructor order, and
its `__init__` sets each once, through `__dict__`.  The base gives it
equality with values of the same class only, a hash equal to the hash of
the tuple of its fields and a repr that names them; a class may define
its own.  Assignment and deletion raise
`dataclasses.FrozenInstanceError`, imported only when it is raised:
`dataclasses` imports `inspect`, `ast` and `dis`, and with them `import
ftrees.cli` took 32 ms against 14 ms without (bytecode cached, Python
3.11.7, 2 vCPUs).
"""

from __future__ import annotations

from operator import attrgetter


def frozen_error(message: str) -> Exception:
    from dataclasses import FrozenInstanceError

    return FrozenInstanceError(message)


class Frozen:
    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls) -> None:
        cls._fields = tuple(cls.__annotations__)  # the class's own, in declaration order
        # one C call for the fields: a getattr loop made `==` 4-7x as slow as a dataclass's
        cls._key = attrgetter(*cls._fields)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._key(self) == self._key(other)
        return NotImplemented

    def __hash__(self) -> int:
        key = self._key(self)  # a single field comes back bare
        return hash(key if len(self._fields) > 1 else (key,))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name: str, value: object) -> None:
        raise frozen_error(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise frozen_error(f"cannot delete field {name!r}")
