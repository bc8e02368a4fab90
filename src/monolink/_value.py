"""The base of monolink's immutable value classes."""

from operator import attrgetter

_MISSING = object()  # the default of a field without one


class Value:
    """An immutable value whose fields are its class annotations, in order; a
    class attribute named like a field is its default.  Subclasses get an
    `__init__` by position or keyword that calls `__post_init__`, `==` and
    `hash` over the fields within one class, a `repr`, and AttributeError on
    assignment or deletion.  That `__init__` binds in Python, 0.3 us a call
    slower than a written-out one and 1-3 us with keywords or defaults, so a
    class built per case or degree row writes its own.  Not `dataclasses`:
    its import loads `inspect`, `ast`, `dis` and `tokenize`, and each frozen
    dataclass compiles and `exec`s its methods, about 1 ms per class at
    every start of a process that checks in ms (CPython 3.11).
    """

    def __init_subclass__(cls) -> None:
        fields = cls._fields = tuple(cls.__annotations__)
        cls._key = attrgetter(*fields)
        cls._defaults = tuple(vars(cls).get(f, _MISSING) for f in fields)
        cls._post_init = hasattr(cls, "__post_init__")

    def __init__(self, *args, **kwargs) -> None:
        fields = self._fields
        if kwargs or len(args) != len(fields):  # by position, keyword, default
            n = len(args)
            args += tuple(map(kwargs.pop, fields[n:], self._defaults[n:]))
            who = type(self).__name__
            if kwargs or n > len(fields):
                raise TypeError(f"{who}() takes {fields}: got {n} positional, "
                                f"unknown or repeated {list(kwargs)}")
            missing = [f for f, a in zip(fields[n:], args[n:]) if a is _MISSING]
            if missing:
                raise TypeError(f"{who}() missing {missing}")
        for name, value in zip(fields, args):
            object.__setattr__(self, name, value)
        if self._post_init:
            self.__post_init__()

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key(self) == self._key(other)

    def __hash__(self) -> int:
        return hash(self._key(self))

    def __repr__(self) -> str:
        args = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__qualname__}({args})"

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")
