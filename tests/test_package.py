"""The package exports: each public name resolves, on first access, to its defining module's object,
and the package runs without numpy."""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

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


def test_no_module_of_the_package_imports_numpy():
    package = Path(bohmatom.__file__).resolve().parent
    sources = sorted(package.glob("*.py"))
    assert sources
    for source in sources:
        for node in ast.walk(ast.parse(source.read_text(encoding="utf-8"), str(source))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""] if node.level == 0 else []
            else:
                continue
            assert not [n for n in names if n.split(".")[0] == "numpy"], f"{source.name}:{node.lineno}"


def test_every_export_resolves_without_numpy():
    code = (
        "import sys; sys.modules['numpy'] = None\n"
        "import bohmatom\n"
        "for name in bohmatom.__all__: getattr(bohmatom, name)\n"
        "print(len(bohmatom.__all__), sorted(m for m, v in sys.modules.items() if m.split('.')[0] == 'numpy' and v))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(bohmatom.__file__).resolve().parents[1])}
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    assert result.stdout == f"{len(bohmatom.__all__)} []\n"
