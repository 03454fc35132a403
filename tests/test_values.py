"""Semantics of the package's value types: read-only fields, hashing by
value, keyword construction, and scalar products of expressions."""

from fractions import Fraction

import numpy as np
import pytest

from dforge import (
    Coefficient,
    Monomial,
    ObservableSeries,
    OperatorExpr,
    Run,
    ScanRow,
    SpaceSpec,
    TimeGrid,
    Token,
    Trajectory,
    parse_scenario,
    scale,
)

from conftest import LEVELS, REPO_ROOT


def _coefficient():
    return Coefficient.make(2, 1, ("g1",), ("delta",))


def _scenario():
    return parse_scenario((REPO_ROOT / "presets" / "dimensionless.cfg").read_text())


def _series():
    return ObservableSeries(np.zeros(2), {}, np.zeros(2), np.zeros((2, 2)), np.ones(2))


#: (name, builder, a field) of each hashable value type; every call of a
#: builder gives a new object equal to the last
HASHABLE = [
    ("Coefficient", _coefficient, "re"),
    ("Monomial", lambda: Monomial(_coefficient(), None, 1, 0), "coeff"),
    ("OperatorExpr", lambda: OperatorExpr.sigma("g", "e") + OperatorExpr.create(), "terms"),
    ("Token", lambda: Token("ident", "g1", 0), "lexeme"),
    ("SpaceSpec", lambda: SpaceSpec(LEVELS, 3), "n_max"),
    ("TimeGrid", lambda: TimeGrid(1.0, 3), "t_end"),
]


#: value types that hold a dict, an array or a list, so hash nothing
UNHASHABLE = [
    ("Scenario", _scenario, "params"),
    ("Trajectory", lambda: Trajectory(np.zeros(2), np.zeros((2, 3)), {}), "meta"),
    ("ObservableSeries", _series, "fidelity"),
    ("Run", lambda: Run(_series(), {}), "health"),
    ("ScanRow", lambda: ScanRow(100.0, 1e-3, True, {"method": "exact"}, None), "max_infidelity"),
    ("ScanRow-health", lambda: ScanRow(100.0, 1e-3, True, {"method": "exact"}, None), "health"),
    ("ScanRow-error", lambda: ScanRow(100.0, None, False, {}, "phase rounding"), "error"),
]


@pytest.mark.parametrize(
    "build, field",
    [c[1:] for c in HASHABLE + UNHASHABLE],
    ids=[c[0] for c in HASHABLE + UNHASHABLE],
)
def test_fields_are_read_only(build, field):
    value = build()
    with pytest.raises(AttributeError):
        setattr(value, field, getattr(value, field))
    with pytest.raises(AttributeError):
        value.extra = 1


@pytest.mark.parametrize("build", [c[1] for c in HASHABLE], ids=[c[0] for c in HASHABLE])
def test_equal_values_hash_equally(build):
    first, second = build(), build()
    assert first is not second
    assert first == second
    assert hash(first) == hash(second)
    assert len({first, second}) == 1


def test_keyword_construction():
    assert TimeGrid(t_end=1.0, samples=3) == TimeGrid(1.0, 3)
    assert SpaceSpec(levels=LEVELS, n_max=3) == SpaceSpec(LEVELS, 3)
    assert Coefficient(re=Fraction(0), im=Fraction(1)) == Coefficient.i()
    row = ScanRow(delta=1.0, max_infidelity=None, included=False, health={}, error="failed")
    assert row == ScanRow(1.0, None, False, {}, "failed")


def test_a_term_is_one_flat_record():
    assert Monomial._fields == ("coeff", "pair", "creators", "annihilators")
    m = Monomial(_coefficient(), pair=("e", "g"), annihilators=2)
    assert m == Monomial(_coefficient(), ("e", "g"), 0, 2)
    assert Monomial(_coefficient()).pair is None


@pytest.mark.parametrize("k", [3, -2, Fraction(1, 3)], ids=["int", "negative-int", "Fraction"])
def test_scalar_product_scales(k):
    expr = OperatorExpr.sigma("g", "e") * OperatorExpr.create() + OperatorExpr.identity()
    expected = scale(expr, Coefficient.make(k))
    for product in (k * expr, expr * k):
        assert type(product) is OperatorExpr
        assert product == expected
