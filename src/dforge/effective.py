"""Second-order effective generator for N driven channels at common detuning.

Channels (lam_k, A_k) driven as lam_k (A_k e^{i d t} + A_k^dag e^{-i d t})
make one drive e^{i d t} M + e^{-i d t} M^dag with M = sum_k lam_k A_k
(``ChannelSpec.coupling``).  Its secular second-order generator is

    H_eff = [M, M^dag] / d = sum_{j,k} (lam_j lam_k / d) [A_j, A_k^dag],

which is Hermitian for real couplings; the cross terms j != k are the
competing processes.  The neglected first-order kick
K(t) = (M e^{i d t} - M^dag e^{-i d t}) / (i d) is bounded through the same
M: max_t ||K(t)|| <= 2 ||M|| / |d| (``first_order_remainder_bound``).  Every
channel shares the one detuning d; a channel has no syntax for its own.
"""

from __future__ import annotations

from typing import Mapping, NamedTuple

from ._lazy import np
from .algebra import (
    Coefficient,
    OperatorExpr,
    adjoint,
    commutator,
    scale,
)
from .spaces import SpaceSpec, realize

__all__ = [
    "Channel",
    "ChannelSpec",
    "effective_hamiltonian",
    "decompose",
    "first_order_remainder_bound",
]


class Channel(NamedTuple("Channel", [("lam", Coefficient), ("op", OperatorExpr)])):
    """One driven coupling: a real strength symbol and its operator."""

    __slots__ = ()

    def __new__(cls, lam: Coefficient, op: OperatorExpr):
        if not lam.is_real():
            raise ValueError("channel coupling must be real")
        if op.is_zero():
            raise ValueError("channel operator must be nonzero")
        return super().__new__(cls, lam, op)

    @staticmethod
    def from_symbol(symbol: str, op: OperatorExpr) -> "Channel":
        return Channel(Coefficient.symbol(symbol), op)


class ChannelSpec(NamedTuple("ChannelSpec", [("channels", tuple), ("delta", str)])):
    """Driven channels and the symbol of their common detuning."""

    __slots__ = ()

    def __new__(cls, channels: tuple[Channel, ...], delta: str):
        if not channels:
            raise ValueError("need at least one channel")
        for ch in channels:
            if delta in ch.lam.num or delta in ch.lam.den:
                raise ValueError(
                    f"detuning symbol {delta!r} collides with a coupling symbol"
                )
        return super().__new__(cls, channels, delta)

    def detuning(self, params: Mapping[str, float]) -> float:
        """The bound detuning; a ValueError if it is missing or zero."""
        try:
            delta = float(params[self.delta])
        except KeyError:
            raise ValueError(f"parameter symbol {self.delta!r} has no numeric binding") from None
        if delta == 0:
            raise ValueError(
                f"detuning {self.delta!r} is zero; the dispersive expansion divides by it"
            )
        return delta

    def coupling(self) -> OperatorExpr:
        """The drive operator M = sum_k lam_k A_k, in canonical form."""
        return OperatorExpr.from_monomials(
            m for ch in self.channels for m in scale(ch.op, ch.lam).terms
        )


def effective_hamiltonian(spec: ChannelSpec) -> OperatorExpr:
    """Canonical second-order generator [M, M^dag] / delta; every
    coefficient carries 1/delta."""
    m = spec.coupling()
    return scale(commutator(m, adjoint(m)), Coefficient.make(den=(spec.delta,)))


def decompose(
    h_eff: OperatorExpr, ground: str, excited: str
) -> dict[str, OperatorExpr]:
    """Partition monomials by shape relative to a (ground, excited) pair.

    stark: atom-diagonal with boson part 1 or ad*a; one_photon: sig(e,g)*a or
    sig(g,e)*ad; two_photon: the same with two quanta; displacement:
    atom-diagonal times a single ladder operator.  Parts sum to the input
    exactly.
    """
    buckets: dict[str, list] = {
        "stark": [],
        "one_photon": [],
        "two_photon": [],
        "displacement": [],
        "other": [],
    }
    lower = (excited, ground)  # sig(e,g), pairs with a^q
    raise_ = (ground, excited)  # sig(g,e), pairs with ad^q
    for m in h_eff.terms:
        pair, mc, ma = m.pair, m.creators, m.annihilators
        diagonal = pair is None or pair[0] == pair[1]
        if diagonal and (mc, ma) in ((0, 0), (1, 1)):
            buckets["stark"].append(m)
        elif pair == lower and (mc, ma) == (0, 1):
            buckets["one_photon"].append(m)
        elif pair == raise_ and (mc, ma) == (1, 0):
            buckets["one_photon"].append(m)
        elif pair == lower and (mc, ma) == (0, 2):
            buckets["two_photon"].append(m)
        elif pair == raise_ and (mc, ma) == (2, 0):
            buckets["two_photon"].append(m)
        elif diagonal and (mc, ma) in ((1, 0), (0, 1)):
            buckets["displacement"].append(m)
        else:
            buckets["other"].append(m)
    return {
        name: OperatorExpr.from_monomials(monos) for name, monos in buckets.items()
    }


def first_order_remainder_bound(
    spec: ChannelSpec, params: Mapping[str, float], space: SpaceSpec
) -> float:
    """Upper bound on the neglected oscillatory first-order term, valid for all t.

    The kick K(t) = (M e^{i delta t} - M^dag e^{-i delta t}) / (i delta)
    has max_t ||K(t)|| <= 2 ||M|| / |delta| (triangle inequality), with M
    realized on the truncated space.
    """
    delta = spec.detuning(params)
    m = realize(spec.coupling(), space, params)
    return 2.0 * float(np.linalg.norm(m, 2)) / abs(delta)
