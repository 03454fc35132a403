"""The package's public names are those of its six submodules, and its
errors are one ValueError family."""

import dforge
from dforge import algebra, dynamics, effective, errors, parsing, scenario, spaces

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
    instances = [
        errors.IllegalCharacter(3, "@"),
        errors.ParseError(3, "number"),
        errors.UnknownLevel("q"),
        errors.UnknownSection("plotting"),
        errors.MissingKey("n_max"),
        errors.UnboundParameter("g1"),
        errors.NonPositiveTruncation(0),
        errors.ZeroDetuning("delta"),
        errors.ResidualCoupling("r"),
        errors.FockOverflow(9, 8),
        errors.GridMismatch("different grid"),
        errors.NotHermitian(1.0),
        errors.DispersiveRatioError(3.0, 5.0, "g1=30"),
    ]
    classes = {
        value for value in vars(errors).values()
        if isinstance(value, type) and issubclass(value, errors.DforgeError)
    }
    assert {type(exc) for exc in instances} == classes - {errors.DforgeError}
    assert issubclass(errors.DforgeError, ValueError)
    for exc in instances:
        assert isinstance(exc, ValueError)
        with_position = isinstance(exc, (errors.IllegalCharacter, errors.ParseError))
        assert sorted(vars(exc)) == (["position"] if with_position else []), type(exc)
