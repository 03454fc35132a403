"""The package's public names are those of its six submodules, and it
defines three exception types, each a ValueError."""

import importlib
import pkgutil

import dforge
from dforge import algebra, dynamics, effective, parsing, scenario, spaces

MODULES = (algebra, dynamics, effective, parsing, scenario, spaces)


def test_public_names_are_the_submodule_lists():
    names = [name for module in MODULES for name in module.__all__]
    assert len(names) == len(set(names)) == 39
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
    kept = {parsing.ParseError, parsing.IllegalCharacter, dynamics.DispersiveRatioError}
    assert defined == kept
    assert all(ValueError in cls.__bases__ for cls in kept)
    instances = [
        parsing.IllegalCharacter(3, "@"),
        parsing.ParseError(3, "number"),
        dynamics.DispersiveRatioError(3.0, 5.0, "g1=30"),
    ]
    for exc in instances:
        with_position = isinstance(exc, (parsing.IllegalCharacter, parsing.ParseError))
        assert sorted(vars(exc)) == (["position"] if with_position else []), type(exc)
