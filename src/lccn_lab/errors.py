"""Exception types shared across the package, and the one type check of its data and configs.

ParameterError maps to CLI exit code 2 (bad usage or config), TrainingError
and InvariantError map to exit code 1 (runtime failure).
"""

import dataclasses
import numbers

# Keyed by declaration strings: the checked dataclasses use postponed annotations.
_TYPES = {"int": numbers.Integral, "float": numbers.Real, "bool": bool, "str": str}
# The built-in type each plain kind admits at once, before the slower ABC check.
_EXACT = {"int": int, "float": float, "bool": bool, "str": str}


class ParameterError(ValueError):
    """An argument or configuration value violates a documented precondition."""


class TrainingError(RuntimeError):
    """Optimization failed at runtime (non-finite loss or gradient, divergence)."""


class InvariantError(RuntimeError):
    """An internal bookkeeping invariant was violated; state is untrustworthy."""


def check_type(value, kind: str, name: str):
    """value itself if it is a `kind`: "int", "float", "bool" or "str"; else ParameterError.

    A bool is neither an int nor a float here; a kind that ends in " | None" also admits None.
    A value whose exact type is the kind's built-in one returns at once; any other value
    (a subclass, a numpy scalar, None) takes the `isinstance` check against `_TYPES`, which
    admits the same values.
    """
    if type(value) is _EXACT.get(kind):
        return value
    if value is None and kind.endswith(" | None"):
        return value
    wanted = _TYPES[kind.removesuffix(" | None")]
    if not isinstance(value, wanted) or (isinstance(value, bool) and wanted is not bool):
        raise ParameterError(f"{name} must be {kind}, got {value!r}")
    return value


def check_field_types(config) -> None:
    """`check_type` on each field of a dataclass declared as one of its kinds."""
    for f in dataclasses.fields(config):
        if f.type.removesuffix(" | None") in _TYPES:
            check_type(getattr(config, f.name), f.type, f.name)
