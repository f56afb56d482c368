"""Immutable records: the part of frozen dataclasses this package uses.

``@frozen_record`` turns a class with annotated fields into a record: an
``__init__`` taking the fields in annotation order (positionally or by
keyword, class-level values as defaults) that then calls
``__post_init__`` when the class defines one, field-wise ``__eq__`` and
``__hash__`` between records of the same class, a ``Name(field=value)``
``__repr__``, and attributes that cannot be set or deleted afterwards.
Methods the class defines itself, such as ``__iter__``, are kept.

It stands in for ``dataclasses.dataclass(frozen=True)``, whose import
pulls in ``inspect``, ``ast`` and ``dis`` that nothing else here needs.
"""

_MISSING = object()


def frozen_record(cls):
    names = tuple(cls.__dict__.get("__annotations__", {}))
    defaults = {n: cls.__dict__[n] for n in names if n in cls.__dict__}

    def __init__(self, *args, **kwargs):
        if len(args) > len(names):
            raise TypeError(f"{cls.__name__} takes {len(names)} fields, got {len(args)}")
        values = dict(zip(names, args))
        for name, value in kwargs.items():
            if name not in names or name in values:
                raise TypeError(f"{cls.__name__}: unexpected or repeated field {name!r}")
            values[name] = value
        for name in names:
            value = values.get(name, defaults.get(name, _MISSING))
            if value is _MISSING:
                raise TypeError(f"{cls.__name__}: missing field {name!r}")
            object.__setattr__(self, name, value)
        if hasattr(self, "__post_init__"):
            self.__post_init__()

    def _fields(self):
        return tuple(getattr(self, n) for n in names)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return _fields(self) == _fields(other)

    def __hash__(self):
        return hash(_fields(self))

    def __repr__(self):
        body = ", ".join(f"{n}={getattr(self, n)!r}" for n in names)
        return f"{cls.__qualname__}({body})"

    def _frozen(self, name, *value):
        raise AttributeError(f"cannot set or delete field {name!r} of a frozen record")

    for method in (__init__, __eq__, __hash__, __repr__):
        method.__qualname__ = f"{cls.__qualname__}.{method.__name__}"
        setattr(cls, method.__name__, method)
    cls.__setattr__ = _frozen
    cls.__delattr__ = _frozen
    return cls
