import random
from fractions import Fraction
from pathlib import Path

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
    monos = []
    for _ in range(rng.randint(1, max_terms)):
        re = Fraction(rng.randint(-3, 3))
        im = Fraction(rng.randint(-2, 2)) if allow_imag else Fraction(0)
        if re == 0 and im == 0:
            re = Fraction(1)
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
