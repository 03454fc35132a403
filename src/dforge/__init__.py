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
    hermiticity_defect,
    opnorm,
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
    "equal",
    "first_order_remainder_bound",
    "hermiticity_defect",
    "multiply",
    "observables",
    "opnorm",
    "parse_operator_expr",
    "parse_scenario",
    "pretty",
    "project_out_level",
    "propagate_effective",
    "propagate_full",
    "realize",
    "scale",
    "scan",
    "tokenize",
]
