"""One checker for the per-field rules tables of the config dataclasses.

A table maps a field name to ``(kind, low, high)``.  ``kind`` is ``int``
(not a bool), ``float`` (an int or float of finite float value, not a
bool), a class or tuple of classes, or a tuple of the allowed strings.
``low`` and ``high`` are inclusive bounds; ``None`` means no bound.
"""
from sys import float_info


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
            raise error(f"{name} must be {want}, not {value!r}")
        if low is not None and value < low:
            raise error(f"{name} must be >= {low}")
        if high is not None and value > high:
            raise error(f"{name} must be <= {high}")
