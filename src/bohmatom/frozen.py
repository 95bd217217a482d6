"""The base of the package's immutable value classes, without the dataclasses module.

A subclass names its fields, in order, in `_fields`; its __init__ validates the
arguments and stores them with `_set`. As on a frozen dataclass, assigning to or
deleting an attribute raises AttributeError, and equality, hashing and repr go by
the fields in order. Building such a class takes no `exec` and no `inspect`.
"""


class Frozen:
    _fields: tuple[str, ...] = ()

    def _set(self, *values) -> None:
        """Store the field values, given in the order of _fields."""
        self.__dict__.update(zip(self._fields, values))

    def _astuple(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def _asdict(self) -> dict:
        """The fields and their values, in field order."""
        return dict(zip(self._fields, self._astuple()))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._astuple() == other._astuple()

    def __hash__(self):
        return hash(self._astuple())

    def __repr__(self):
        fields = ", ".join(f"{name}={value!r}" for name, value in self._asdict().items())
        return f"{type(self).__qualname__}({fields})"
