"""The verdict types shared by the verification routines, the error base,
and `Record`, the base of every value type of the library.

Checks never raise on mathematical failure; they collect human-readable
violation messages so that a command-line run can show everything that is
wrong with a hand-entered algebra at once.  A `Check` is one named axiom; a
`Report` is several of them, in the order they are printed.
"""

from __future__ import annotations

from operator import attrgetter

_setattr = object.__setattr__


class PhqError(Exception):
    """Base of every error the library raises.  Each subclass also keeps a
    builtin base (mostly ``ValueError``), so callers may catch either."""


class Record:
    """A frozen value whose fields are the annotations of its class, in order.

    A class attribute named after a field is that field's default.
    ``__init__`` takes the fields by position or keyword and then runs
    ``__post_init__``, which may normalize a field through
    ``object.__setattr__``.  Two records are equal when they have the same
    class and equal fields, and hash as the tuple of those; assigning
    or deleting an attribute raises `AttributeError`.  Instances keep a
    ``__dict__``, so `functools.cached_property` works on them.  No code is
    generated per class: the methods below serve every record, which keeps
    class creation and the imports it would need out of each start of
    ``phq``.
    """

    _fields: tuple[str, ...] = ()
    _defaults: dict = {}

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields = tuple(cls.__dict__.get("__annotations__", ()))
        cls._defaults = {name: cls.__dict__[name] for name in cls._fields if name in cls.__dict__}
        # the field values of an instance, a bare value for one field
        cls._get = attrgetter(*cls._fields)

    def __init__(self, *args, **kwargs):
        fields = self._fields
        if kwargs or len(args) != len(fields):
            args = self._bind(args, kwargs)
        # object.__setattr__ keeps the values inline: reading ``self.__dict__``
        # here would make a dict for each instance and slow every field read
        for name, value in zip(fields, args):
            _setattr(self, name, value)
        self.__post_init__()

    @classmethod
    def _bind(cls, args: tuple, kwargs: dict) -> list:
        """The field values of a call that is not exactly positional."""
        rest = cls._fields[len(args) :]
        if len(args) > len(cls._fields) or not kwargs.keys() <= set(rest):
            raise TypeError(f"{cls.__qualname__}() takes the fields {', '.join(cls._fields)}")
        try:
            return [*args, *[kwargs[f] if f in kwargs else cls._defaults[f] for f in rest]]
        except KeyError as missing:
            raise TypeError(f"{cls.__qualname__}() misses the field {missing}") from None

    def __post_init__(self):
        pass

    def _key(self) -> tuple:
        """The tuple of the fields."""
        key = self._get(self)
        return key if len(self._fields) > 1 else (key,)

    def _asdict(self) -> dict:
        return dict(zip(self._fields, self._key()))

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            get = self._get
            return get(self) == get(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._key())

    def __repr__(self) -> str:
        inner = ", ".join(f"{name}={value!r}" for name, value in zip(self._fields, self._key()))
        return f"{self.__class__.__qualname__}({inner})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to {name!r}: {self.__class__.__qualname__} is frozen")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete {name!r}: {self.__class__.__qualname__} is frozen")


class Check(Record):
    """Outcome of one verification: empty ``failures`` means it passed."""

    label: str
    failures: tuple[str, ...] = ()

    @property
    def ok(self) -> bool:
        return not self.failures

    def __bool__(self) -> bool:
        return self.ok

    def describe(self) -> str:
        if self.ok:
            return f"{self.label}: ok"
        lines = [f"{self.label}: FAIL"] + [f"  - {f}" for f in self.failures]
        return "\n".join(lines)


class Report(Record):
    """Outcome of several checks; ``report[label]`` is the part with that label."""

    parts: tuple[Check, ...]

    @property
    def ok(self) -> bool:
        return all(part.ok for part in self.parts)

    def __bool__(self) -> bool:
        return self.ok

    def __getitem__(self, label: str) -> Check:
        for part in self.parts:
            if part.label == label:
                return part
        raise KeyError(f"no check labelled {label!r}")
