"""Immutable value records as named tuples.

A record class subclasses :func:`record` and, where its fields have rules,
checks them in ``__new__``. Equality and hashing are the tuple's, computed
in C, so records are cheap dict keys; building the class costs one small
``eval`` instead of generated methods.
"""

from collections import namedtuple


def _make(cls, iterable):
    return cls(*iterable)


def record(typename, field_names, defaults=None):
    """A :func:`collections.namedtuple` base class whose ``_make``, and so
    ``_replace``, builds through the subclass constructor: a plain named
    tuple's copies skip ``__new__`` and its checks."""
    base = namedtuple(typename, field_names, defaults=defaults)
    base._make = classmethod(_make)
    return base
