"""Second-order effective generator for N driven channels at common detuning.

Channels (lam_k, A_k) driven as lam_k (A_k e^{i d t} + A_k^dag e^{-i d t})
make one drive e^{i d t} M + e^{-i d t} M^dag with M = sum_k lam_k A_k, the
operator that ``parse_scenario`` builds and ``Scenario.drive`` holds.  Its
secular second-order generator is

    H_eff = [M, M^dag] / d = sum_{j,k} (lam_j lam_k / d) [A_j, A_k^dag],

which is Hermitian for real couplings; the cross terms j != k are the
competing processes.  Every channel shares the one detuning d, the symbol
DELTA; a channel has no syntax for its own.

This layer is symbolic only and loads neither ``spaces`` nor numpy; the
numeric layer (``dynamics``) takes M and H_eff as realized matrices.
"""

from .algebra import (
    Coefficient,
    OperatorExpr,
    adjoint,
    commutator,
    scale,
)

__all__ = [
    "effective_hamiltonian",
    "decompose",
]

#: the symbol of the common detuning, in expressions and as a [params] key
DELTA = "delta"


def effective_hamiltonian(drive: OperatorExpr) -> OperatorExpr:
    """Canonical second-order generator [M, M^dag] / delta of the drive
    ``M``; every coefficient carries 1/delta."""
    return scale(commutator(drive, adjoint(drive)), Coefficient.make(den=(DELTA,)))


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

