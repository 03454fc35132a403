"""The package's public names are those of its six submodules, it defines
two exception types, each a ValueError, and its sources parse as the
oldest Python that pyproject.toml names."""

import ast
import importlib
import pkgutil

import pytest

import dforge
from dforge import algebra, dynamics, effective, parsing, scenario, spaces

from conftest import REPO_ROOT

MODULES = (algebra, dynamics, effective, parsing, scenario, spaces)


def test_public_names_are_the_submodule_lists():
    names = [name for module in MODULES for name in module.__all__]
    assert len(names) == len(set(names)) == 40
    assert sorted(dforge.__all__) == sorted(names)
    for module in MODULES:
        for name in module.__all__:
            assert getattr(dforge, name) is getattr(module, name), name


def test_a_term_has_no_nested_types_and_no_constructor_aliases():
    for name in ("AtomOp", "BosonString"):
        assert not hasattr(dforge, name) and not hasattr(algebra, name), name
    assert not hasattr(algebra.Coefficient, "one")
    assert not hasattr(algebra.OperatorExpr, "zero")
    assert algebra.OperatorExpr() == algebra.OperatorExpr.from_monomials([])


def test_errors_are_value_errors_that_keep_only_a_position():
    package = [
        importlib.import_module(f"dforge.{info.name}")
        for info in pkgutil.iter_modules(dforge.__path__)
    ]
    defined = {
        value
        for module in package
        for value in vars(module).values()
        if isinstance(value, type)
        and issubclass(value, BaseException)
        and value.__module__ == module.__name__
    }
    # a sweep row that fails is a row with an error, not an exception type
    kept = {parsing.ParseError, parsing.IllegalCharacter}
    assert defined == kept
    assert all(ValueError in cls.__bases__ for cls in kept)
    for exc in (parsing.IllegalCharacter(3, "@"), parsing.ParseError(3, "number")):
        assert sorted(vars(exc)) == ["position"], type(exc)


@pytest.mark.parametrize("folder", ["src", "tests", "bench"])
def test_sources_parse_as_python_3_10(folder):
    # requires-python = ">=3.10"; this checks the syntax, not the standard library
    paths = sorted((REPO_ROOT / folder).rglob("*.py"))
    assert paths
    for path in paths:
        ast.parse(path.read_text(encoding="utf-8"), str(path), feature_version=(3, 10))
