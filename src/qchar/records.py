"""Small value classes without ``dataclasses``.

``import dataclasses`` loads ``inspect`` and with it ``ast``, ``dis`` and
``tokenize`` at every cold start, for four record classes.  ``Record``
gives them the same behaviour from their ``__slots__``: the slots are the
fields, in order; ``repr`` names them; two records are equal only when
they are of the same class with equal fields (so never equal to a plain
tuple); a record is unhashable.  ``FrozenRecord`` adds hashing by the
fields and refuses assignment and deletion after ``__init__``.
"""

from __future__ import annotations

from operator import attrgetter


class Record:
    __slots__ = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        if cls.__slots__:
            # the field values in one C call: records key lru caches
            cls._fields = property(attrgetter(*cls.__slots__))

    def __repr__(self):
        fields = ", ".join("%s=%r" % (name, getattr(self, name)) for name in self.__slots__)
        return "%s(%s)" % (type(self).__name__, fields)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._fields == other._fields

    __hash__ = None


class FrozenRecord(Record):
    __slots__ = ()

    def _set(self, *values):
        """Set the fields, in order; for ``__init__`` only."""
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def __hash__(self):
        return hash(self._fields)

    def __setattr__(self, name, value):
        raise AttributeError("cannot assign to field %r of a frozen %s" % (name, type(self).__name__))

    def __delattr__(self, name):
        raise AttributeError("cannot delete field %r of a frozen %s" % (name, type(self).__name__))
