"""Exception types shared across the package, its one type check and its one label check.

ParameterError maps to CLI exit code 2 (bad usage or config), TrainingError
and InvariantError map to exit code 1 (runtime failure). `check_type` checks
one scalar of data or config. Every label array that the package counts,
draws or one-hot encodes goes through `check_labels`; its first half,
`check_integers`, also serves the arrays that may hold the OOD sentinel.
"""

import dataclasses
import numbers

import numpy as np

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


# Below this many labels Python's `max` over the listed labels beats numpy's.
_LISTED_MAX = 48
# Dtype objects, which `astype` and `view` take faster than the scalar types.
_INT64, _UINT64 = np.dtype(np.int64), np.dtype(np.uint64)


def check_integers(values, name: str) -> np.ndarray:
    """values as a 1-d int64 array if they are integers, as a list or of any integer dtype.

    A float, bool, 2-d array or ragged nested list raises ParameterError, not
    truncated; an empty list is taken. uint64 is cast as numpy casts it:
    2**64 - 1 reads -1.
    """
    try:
        labels = np.asarray(values)
    except ValueError:  # a ragged nested list
        labels = None
    if labels is None or labels.ndim != 1 or (labels.dtype.kind not in "iu" and labels.size):
        raise ParameterError(f"{name} must be a 1-d array of integers")
    return labels.astype(_INT64, copy=False)


def check_labels(values, size: int, name: str) -> np.ndarray:
    """`check_integers`'s int64 array if each entry lies in [0, size); else ParameterError.

    Each refusal names `name`. Read as uint64, a negative label is at least
    2**63, so one `max` checks both ends: Python's over a short array's listed
    labels, numpy's over a long array's.
    """
    labels = check_integers(values, name)
    wide = labels.view(_UINT64)
    if wide.size < _LISTED_MAX:
        listed = wide.tolist()
        top = max(listed) if listed else -1
    else:
        top = wide.max()
    if top >= size:
        raise ParameterError(f"{name} out of range [0, {size})")
    return labels
