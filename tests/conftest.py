import math
import random
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from dforge import (
    Coefficient,
    Monomial,
    OperatorExpr,
    first_order_remainder_bound,
    propagate_full,
    realize,
)

LEVELS = ("g", "r", "e")

REPO_ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture
def levels():
    return LEVELS


def three_level_drive() -> OperatorExpr:
    """The drive M of the single-mode competing one-/two-photon model:
    cavity channels g1 (g-r, photon emission), g2 (e-r, photon absorption)
    and classical drive Omega on g-r, all at common detuning delta."""
    sgr = OperatorExpr.sigma("g", "r")
    ser = OperatorExpr.sigma("e", "r")
    ad = OperatorExpr.create()
    a = OperatorExpr.annihilate()
    return drive_of(("g1", sgr * ad), ("g2", ser * a), ("Omega", sgr))


def mono(re, pair, m, n, num=(), den=(), im=0) -> Monomial:
    """The monomial (re + i*im) * num/den * |pair> ad^m a^n."""
    return Monomial(Coefficient.make(re, im, num, den), pair, m, n)


def sig(i, j):
    return (i, j)


def buffered_indices(space, degree: int) -> np.ndarray:
    """Basis indices whose Fock number is at most n_max - ``degree``, where
    ``degree`` ladder steps cannot reach the truncation."""
    fd = space.fock_dim
    return np.array([lv * fd + n for lv in range(len(space.levels)) for n in range(fd - degree)])


def rabi_survival(e1: float, e2: float, v: float, t: np.ndarray) -> np.ndarray:
    """Survival probability of the first basis state of [[e1, v], [v, e2]]."""
    wr = math.sqrt(v**2 + ((e1 - e2) / 2.0) ** 2)
    if wr == 0.0:
        return np.ones_like(t)
    return 1.0 - (v**2 / wr**2) * np.sin(wr * t) ** 2


def drive_of(*channels: tuple[str, OperatorExpr]) -> OperatorExpr:
    """M = sum_k lam_k A_k of (coupling symbol, operator) pairs."""
    return sum(
        (op * Coefficient.symbol(sym) for sym, op in channels), OperatorExpr()
    )


def full_run(drive: OperatorExpr, params, space, psi0, grid):
    """``propagate_full`` of ``drive``, realized on ``space`` at ``params``,
    at the bound detuning."""
    m = realize(drive, space, params)
    return propagate_full(m, params["delta"], psi0, grid)


def kick_bound(drive: OperatorExpr, params, space) -> float:
    """``first_order_remainder_bound`` of ``drive``, realized on ``space``
    at ``params``."""
    m = realize(drive, space, params)
    return first_order_remainder_bound(m, params["delta"])


def random_expr(
    rng: random.Random,
    max_terms: int = 3,
    max_boson: int = 3,
    symbols: tuple[str, ...] = (),
    allow_imag: bool = True,
) -> OperatorExpr:
    """Seeded random expression for property checks."""

    def scalar(bound: int):
        # an int, or in one draw of three a Fraction, which may not be whole
        n = rng.randint(-bound, bound)
        return Fraction(n, rng.randint(2, 4)) if rng.random() < 1 / 3 else n

    monos = []
    for _ in range(rng.randint(1, max_terms)):
        re = scalar(3)
        im = scalar(2) if allow_imag else 0
        if re == 0 and im == 0:
            re = 1
        num = tuple(
            rng.choice(symbols) for _ in range(rng.randint(0, 2)) if symbols
        )
        coeff = Coefficient.make(re, im, num, ())
        if rng.random() < 0.3:
            pair = None
        else:
            pair = (rng.choice(LEVELS), rng.choice(LEVELS))
        m = rng.randint(0, max_boson)
        n = rng.randint(0, max_boson - m)
        monos.append(Monomial(coeff, pair, m, n))
    return OperatorExpr.from_monomials(monos)
