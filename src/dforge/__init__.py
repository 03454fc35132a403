"""Symbolic derivation and numerical validation of dispersive effective
Hamiltonians for multi-channel driven cavity QED systems."""

from . import algebra, dynamics, effective, parsing, scenario, spaces
from .algebra import *
from .dynamics import *
from .effective import *
from .parsing import *
from .scenario import *
from .spaces import *

__version__ = "0.1.0"

__all__ = [
    *algebra.__all__,
    *dynamics.__all__,
    *effective.__all__,
    *parsing.__all__,
    *scenario.__all__,
    *spaces.__all__,
]
