import random
from fractions import Fraction
from pathlib import Path

import pytest

from dforge import (
    Channel,
    ChannelSpec,
    Coefficient,
    Monomial,
    OperatorExpr,
)

LEVELS = ("g", "r", "e")

REPO_ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture
def levels():
    return LEVELS


def three_level_spec() -> ChannelSpec:
    """The single-mode competing one-/two-photon model: cavity channels
    g1 (g-r, photon emission), g2 (e-r, photon absorption) and classical
    drive Omega on g-r, all at common detuning delta."""
    sgr = OperatorExpr.sigma("g", "r")
    ser = OperatorExpr.sigma("e", "r")
    ad = OperatorExpr.create()
    a = OperatorExpr.annihilate()
    return ChannelSpec(
        channels=(
            Channel.from_symbol("g1", sgr * ad),
            Channel.from_symbol("g2", ser * a),
            Channel.from_symbol("Omega", sgr),
        ),
        delta="delta",
    )


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
