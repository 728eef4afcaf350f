"""One checker for the per-field rules tables of the config dataclasses.

A table maps a field name to ``(kind, low, high)``.  ``kind`` is ``int``
(not a bool), ``float`` (an int or float of finite float value, not a
bool), a class or tuple of classes, or a tuple of the allowed strings.
``low`` and ``high`` are inclusive bounds; ``None`` means no bound.
``is_int`` and ``checked_int`` check the counts that library callers pass.
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
    """True for a Python or numpy int; False for a bool, an int subclass, and anything else."""
    return isinstance(value, (int, np.integer)) and type(value) is not bool


def checked_int(name: str, value, low: int) -> int:
    """``value`` as a Python int, so a small numpy int cannot overflow later sums,
    or ValueError unless it ``is_int`` and is >= ``low``."""
    if not is_int(value) or value < low:
        raise ValueError(f"{name} must be an integer >= {low}, not {describe(value)}")
    return int(value)


def check_fields(obj, rules: dict, error=ValueError) -> None:
    """Raise ``error``, naming the field, at the first field of ``obj`` that breaks its rule."""
    for name, (kind, low, high) in rules.items():
        value = getattr(obj, name)
        if kind is int:
            ok, want = isinstance(value, int) and type(value) is not bool, "an integer"
        elif kind is float:
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
