"""The base of gridscore's records: value objects that print, compare and
hash by their fields and refuse changes once built.

The records are written by hand, not with ``@dataclass``, because a short
run's fixed cost is mostly start-up, and every ``gridscore`` command pays
it. Importing ``dataclasses`` also imports ``inspect``, ``ast``, ``dis``
and ``tokenize`` (8-14 ms), and each decorator writes its methods' source
and compiles it at every import (0.7-1.2 ms a class, for two dozen
classes; both on a shared 2-vCPU host). Hand-written methods are compiled
once, into the ``.pyc``. Do not fold the records back into ``@dataclass``:
``tests/test_import_budget.py`` fails if any module imports
``dataclasses`` at import time. ``dataclasses.fields``, ``replace``,
``asdict``, ``astuple`` and ``is_dataclass`` do not apply to these
records; :meth:`Record._replace` does the library's own replacing.

A record's fields are the parameters of its ``__init__``, in order. The
``__init__`` stores each with :data:`set_field`, as the generated code did
(writing to ``__dict__`` instead would make every instance larger), and
then checks them.
"""

from __future__ import annotations

import reprlib

#: How an ``__init__`` stores a field past the frozen ``__setattr__``.
set_field = object.__setattr__


class _Factory:
    """The default of a field that gets a new list or dict per record."""

    def __repr__(self) -> str:
        return "<factory>"  # as dataclasses showed such a default


FACTORY = _Factory()


class Record:
    """A frozen record: equal to a record of its own class with equal
    fields, hashed, printed and matched by its fields."""

    __match_args__: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        init = cls.__dict__.get("__init__")
        if init is not None:
            # Postponed evaluation leaves the string 'None'; the signature
            # shows None itself, as the generated __init__ had it.
            init.__annotations__["return"] = None
            code = init.__code__
            cls.__match_args__ = code.co_varnames[1:code.co_argcount]

    def _values(self) -> tuple:
        """The fields' values, in field order."""
        return tuple([getattr(self, name) for name in self.__match_args__])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    @reprlib.recursive_repr()
    def __repr__(self) -> str:
        fields = (f"{name}={getattr(self, name)!r}" for name in self.__match_args__)
        return f"{self.__class__.__qualname__}({', '.join(fields)})"

    def __setattr__(self, name, value):
        # The error a frozen dataclass raised; only a refused change pays
        # for importing it.
        from dataclasses import FrozenInstanceError

        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        from dataclasses import FrozenInstanceError

        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def _replace(self, **changes):
        """A record of the same class with ``changes`` made, built (and so
        checked) by its ``__init__``."""
        fields = dict(zip(self.__match_args__, self._values()))
        fields.update(changes)
        return self.__class__(**fields)
