"""Exception types shared across the package, and the field-type check of its configs.

ParameterError maps to CLI exit code 2 (bad usage or config), TrainingError
and InvariantError map to exit code 1 (runtime failure).
"""

import dataclasses
import numbers

# Keyed by declaration strings: the checked dataclasses use postponed annotations.
_FIELD_TYPES = {"int": numbers.Integral, "float": numbers.Real, "bool": bool, "str": str}


class ParameterError(ValueError):
    """An argument or configuration value violates a documented precondition."""


class TrainingError(RuntimeError):
    """Optimization failed at runtime (non-finite loss or gradient, divergence)."""


class InvariantError(RuntimeError):
    """An internal bookkeeping invariant was violated; state is untrustworthy."""


def check_field_types(config) -> None:
    """ParameterError unless each `int`, `float`, `bool` or `str` field of a dataclass holds one.

    A bool is neither an int nor a float here; a field declared `... | None` may be None.
    """
    for f in dataclasses.fields(config):
        value = getattr(config, f.name)
        wanted = _FIELD_TYPES.get(f.type.removesuffix(" | None"))
        if wanted is None or (value is None and f.type.endswith(" | None")):
            continue
        if not isinstance(value, wanted) or (isinstance(value, bool) and wanted is not bool):
            raise ParameterError(f"{f.name} must be {f.type}, got {value!r}")
