"""Symbolic derivation and numerical validation of dispersive effective
Hamiltonians for multi-channel driven cavity QED systems."""

from .algebra import (
    AtomOp,
    BosonString,
    Coefficient,
    Monomial,
    OperatorExpr,
    add,
    adjoint,
    commutator,
    equal,
    multiply,
    pretty,
    project_out_level,
    scale,
)
from .dynamics import (
    ObservableSeries,
    ScanResult,
    ScanRow,
    TimeGrid,
    Trajectory,
    observables,
    propagate_effective,
    propagate_full,
    scan,
)
from .effective import (
    Channel,
    ChannelSpec,
    decompose,
    effective_hamiltonian,
    first_order_remainder_bound,
)
from .parsing import Token, parse_operator_expr, tokenize
from .scenario import Scenario, parse_scenario
from .spaces import (
    SpaceSpec,
    build_state,
    coherent_tail_mass,
    element_hermiticity_defect,
    hermiticity_defect,
    matrix_elements,
    parse_state,
    realize,
)

__version__ = "0.1.0"

__all__ = [
    "AtomOp",
    "BosonString",
    "Channel",
    "ChannelSpec",
    "Coefficient",
    "Monomial",
    "ObservableSeries",
    "OperatorExpr",
    "Scenario",
    "ScanResult",
    "ScanRow",
    "SpaceSpec",
    "TimeGrid",
    "Token",
    "Trajectory",
    "add",
    "adjoint",
    "build_state",
    "coherent_tail_mass",
    "commutator",
    "decompose",
    "effective_hamiltonian",
    "element_hermiticity_defect",
    "equal",
    "first_order_remainder_bound",
    "hermiticity_defect",
    "matrix_elements",
    "multiply",
    "observables",
    "parse_operator_expr",
    "parse_scenario",
    "parse_state",
    "pretty",
    "project_out_level",
    "propagate_effective",
    "propagate_full",
    "realize",
    "scale",
    "scan",
    "tokenize",
]
