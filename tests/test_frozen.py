"""The package's value classes behave as frozen dataclasses did: construction with defaults and
validation, no assignment, and equality, hashing and repr by the fields in order."""

import pytest

from bohmatom import (
    AtomConfig,
    DiracGroundState,
    DomainError,
    QuantumNumbers,
    SchrodingerEigenstate,
    SphericalPoint,
    SpinOrientation,
    VelocityField,
)
from bohmatom.dilation import DilationReport
from bohmatom.grid import SphericalGrid


def _still(x, y, z):
    return (0.0, 0.0)


def _turning(x, y, z):
    return (-y, x)


# Each class, the fields of one value in order, and a value with one field changed.
VALUES = [
    (AtomConfig, {"Z": 2, "alpha": 0.01, "mass": 207.0}, {"mass": 1.0}),
    (SphericalPoint, {"r": 1.0, "theta": 0.5, "phi": 0.25}, {"phi": 0.5}),
    (QuantumNumbers, {"n": 3, "l": 2, "m": -1}, {"m": 1}),
    (DilationReport, {"mean_gamma": 1.1, "pointwise_max_gamma": 1.2, "rest_lifetime": 2e-6,
                      "dilated_lifetime": 2.2e-6}, {"dilated_lifetime": 2.3e-6}),
    (SphericalGrid, {"r_min": 0.5, "r_max": 3.0, "r_count": 2, "theta_count": 3, "phi_count": 4}, {"r_count": 5}),
    (VelocityField, {"planar": _still}, {"planar": _turning}),
    (DiracGroundState, {"spin": SpinOrientation.UP, "atom": AtomConfig(1)}, {"spin": SpinOrientation.DOWN}),
    (SchrodingerEigenstate, {"q": QuantumNumbers(2, 1, 1), "atom": AtomConfig(1)}, {"atom": AtomConfig(2)}),
]


@pytest.mark.parametrize("cls, fields, change", VALUES, ids=[v[0].__name__ for v in VALUES])
def test_value_class_is_a_frozen_record(cls, fields, change):
    value = cls(*fields.values())
    assert cls(**fields) == value and hash(cls(**fields)) == hash(value)
    assert cls(**{**fields, **change}) != value
    assert value != tuple(fields.values())
    assert value._asdict() == fields and list(value._asdict()) == list(fields)
    assert repr(value) == f"{cls.__qualname__}({', '.join(f'{k}={v!r}' for k, v in fields.items())})"
    name = next(iter(change))
    with pytest.raises(AttributeError):
        setattr(value, name, change[name])
    with pytest.raises(AttributeError):
        delattr(value, name)
    with pytest.raises(AttributeError):
        value.other = 1
    assert getattr(value, name) == fields[name]


def test_defaults_and_validation():
    assert AtomConfig(1) == AtomConfig(1, 0.0072973525693, 1.0)
    with pytest.raises(DomainError, match="r must be nonnegative"):
        SphericalPoint(-1.0, 0.0, 0.0)
    with pytest.raises(DomainError, match="l must lie in"):
        QuantumNumbers(1, 1, 0)
    with pytest.raises(DomainError, match="lifetimes must be positive"):
        DilationReport(1.0, 1.0, 0.0, 1.0)
