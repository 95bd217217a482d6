"""The package exports: each public name resolves, on first access, to its defining module's object."""

import importlib

import pytest

import bohmatom


@pytest.mark.parametrize("name", bohmatom.__all__)
def test_export_is_the_defining_modules_object(name):
    module = importlib.import_module(f"bohmatom.{bohmatom._EXPORTS[name]}")
    value = getattr(bohmatom, name)
    assert value is getattr(module, name)
    assert getattr(value, "__module__", module.__name__) == module.__name__  # defined there, not re-exported


def test_star_import_binds_every_export():
    namespace = {}
    exec("from bohmatom import *", namespace)
    for name in bohmatom.__all__:
        assert namespace[name] is getattr(bohmatom, name)


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        bohmatom.no_such_name
