"""Plain slotted records. A record's fields are its class's `__slots__`, filled
positionally or by keyword; a field left out takes its entry in `_defaults`,
and a default that is a type is called for a fresh value (a new dict, say).
Records compare by identity, and `repr` reads `Name(field=value, ...)`."""


class Record:
    __slots__ = ()
    _defaults: dict = {}

    def __init__(self, *args, **kwargs):
        names = self.__slots__
        if kwargs or len(args) != len(names):
            args = self._complete(args, kwargs)
        for name, value in zip(names, args):
            object.__setattr__(self, name, value)

    @classmethod
    def _complete(cls, args: tuple, kwargs: dict) -> list:
        values = list(args)
        for name in cls.__slots__[len(args):]:
            if name in kwargs:
                values.append(kwargs.pop(name))
            elif name in cls._defaults:
                default = cls._defaults[name]
                values.append(default() if isinstance(default, type) else default)
            else:
                raise TypeError(f"{cls.__name__}() missing argument {name!r}")
        if kwargs or len(values) > len(cls.__slots__):
            raise TypeError(f"{cls.__name__}() takes the fields {cls.__slots__}")
        return values

    def __reduce__(self):
        # copy and pickle rebuild a record through its constructor, since a
        # frozen one refuses the attribute assignments they would make
        return type(self), tuple(getattr(self, name) for name in self.__slots__)

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({fields})"


class Frozen(Record):
    """A record whose fields cannot be assigned or deleted once it is built."""

    __slots__ = ()

    def __setattr__(self, name, value=None):
        raise AttributeError(f"cannot assign or delete {name!r} of a frozen record")

    __delattr__ = __setattr__
