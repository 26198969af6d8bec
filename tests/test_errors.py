"""`check_type` admits and refuses each value as the plain `isinstance` rule does."""

import numbers
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

from lccn_lab.errors import ParameterError, check_type

KINDS = [base + tail for base in ("int", "float", "bool", "str") for tail in ("", " | None")]


class _Float(float):
    pass


VALUES = {
    "True": True, "False": False, "int": 3, "negative_int": -2, "float": 1.5, "nan": float("nan"),
    "np_float64": np.float64(1.5), "np_int64": np.int64(3), "np_bool": np.bool_(True),
    "fraction": Fraction(1, 2), "decimal": Decimal("1.5"), "None": None, "str": "1",
    "float_subclass": _Float(2.5), "list": [1],
}


def _isinstance_rule(value, kind):
    """The rule `check_type` was first written with: an ABC check, bools apart."""
    if value is None and kind.endswith(" | None"):
        return True
    wanted = {"int": numbers.Integral, "float": numbers.Real, "bool": bool, "str": str}[
        kind.removesuffix(" | None")
    ]
    return isinstance(value, wanted) and not (isinstance(value, bool) and wanted is not bool)


def _admits(value, kind):
    try:
        returned = check_type(value, kind, "value")
    except ParameterError:
        return False
    assert returned is value
    return True


@pytest.mark.parametrize("kind", KINDS)
def test_check_type_verdicts_follow_the_isinstance_rule(kind):
    assert {name: _admits(v, kind) for name, v in VALUES.items()} == {
        name: _isinstance_rule(v, kind) for name, v in VALUES.items()
    }


def test_check_type_frozen_verdicts():
    admitted = {kind: {name for name, v in VALUES.items() if _admits(v, kind)} for kind in KINDS}
    assert admitted["int"] == {"int", "negative_int", "np_int64"}
    assert admitted["float"] == {
        "int", "negative_int", "float", "nan", "np_float64", "np_int64", "fraction",
        "float_subclass",
    }
    assert admitted["bool"] == {"True", "False"}
    assert admitted["str"] == {"str"}
    for kind in ("int", "float", "bool", "str"):
        assert admitted[kind + " | None"] == admitted[kind] | {"None"}
