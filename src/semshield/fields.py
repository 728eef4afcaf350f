"""The one integer test, ``is_int``, the one count check, ``checked_int``, and
one checker for the per-field rules tables of the config dataclasses.

A table maps a field name to ``(kind, low, high)``.  ``kind`` is ``int`` (a
``checked_int`` count, stored back as a Python int), ``float`` (an int or float
of finite float value, not a bool), a class or tuple of classes, or a tuple of
the allowed strings.  ``low`` and ``high`` are inclusive bounds, or ``None``.
"""
from sys import float_info

import numpy as np


# Longest repr an error message quotes before cutting it short.
DESCRIBE_MAX_CHARS = 200


def describe(value) -> str:
    """``repr(value)`` for an error message, cut to ``DESCRIBE_MAX_CHARS``
    plus "...", or the value's type where repr fails: for an int past
    Python's digit limit for ``str``, a container nested past the recursion
    limit, or a container holding either."""
    try:
        text = repr(value)
    except (ValueError, RecursionError):
        size = f" with {value.bit_length()} bits" if isinstance(value, int) else ""
        return f"an object of type {type(value).__name__}{size}, too large to print"
    return text if len(text) <= DESCRIBE_MAX_CHARS else text[:DESCRIBE_MAX_CHARS] + "..."


def is_int(value) -> bool:
    """True for a Python or numpy int or an int subclass; False for a bool, a numpy bool and anything else."""
    return isinstance(value, (int, np.integer)) and type(value) is not bool


def checked_int(name: str, value, low: int | None = None, high: int | None = None, error=ValueError) -> int:
    """``value`` as a Python int, which neither overflows nor fails ``json.dumps``, or
    ``error`` naming ``name`` unless it ``is_int`` and lies in [``low``, ``high``] (``None``: no bound)."""
    if not is_int(value):
        raise error(f"{name} must be an integer, not {describe(value)}")
    value = int(value)
    if low is not None and value < low:
        raise error(f"{name} must be >= {low}")
    if high is not None and value > high:
        raise error(f"{name} must be <= {high}")
    return value


def check_fields(obj, rules: dict, error=ValueError) -> None:
    """Raise ``error``, naming the field, at the first field of ``obj`` that breaks its rule."""
    for name, (kind, low, high) in rules.items():
        value = getattr(obj, name)
        if kind is int:
            object.__setattr__(obj, name, checked_int(name, value, low, high, error))
            continue
        if kind is float:
            # Also false for NaN, and for an int too large to convert to a float.
            ok = isinstance(value, (int, float)) and type(value) is not bool and abs(value) <= float_info.max
            want = "a finite number"
        elif isinstance(kind, tuple) and isinstance(kind[0], str):
            # Only a string is looked up, so an unhashable value is no TypeError.
            ok, want = isinstance(value, str) and value in kind, "one of " + ", ".join(kind)
        else:
            classes = kind if isinstance(kind, tuple) else (kind,)
            ok, want = isinstance(value, classes), " or ".join(c.__name__ for c in classes)
        if not ok:
            raise error(f"{name} must be {want}, not {describe(value)}")
        if low is not None and value < low:
            raise error(f"{name} must be >= {low}")
        if high is not None and value > high:
            raise error(f"{name} must be <= {high}")
