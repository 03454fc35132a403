"""Second-order effective generator for N driven channels at common detuning.

Channels (lam_k, A_k) driven as lam_k (A_k e^{i d t} + A_k^dag e^{-i d t})
make one drive e^{i d t} M + e^{-i d t} M^dag with M = sum_k lam_k A_k, the
operator that ``parse_scenario`` builds and ``Scenario.drive`` holds.  Its
secular second-order generator is

    H_eff = [M, M^dag] / d = sum_{j,k} (lam_j lam_k / d) [A_j, A_k^dag],

which is Hermitian for real couplings; the cross terms j != k are the
competing processes.  Every channel shares the one detuning d, the symbol
DELTA; a channel has no syntax for its own.

``decompose`` names H_eff's parts, one-photon and two-photon among them,
from one table of term shapes.  This layer is symbolic only and loads
neither ``spaces`` nor numpy; the numeric layer (``dynamics``) takes M and
H_eff as realized matrices.
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


#: the part of each term shape (atom, creators, annihilators); any other is "other"
_SHAPES = {
    ("diagonal", 0, 0): "stark", ("diagonal", 1, 1): "stark",
    ("diagonal", 1, 0): "displacement", ("diagonal", 0, 1): "displacement",
    ("lower", 0, 1): "one_photon", ("raise", 1, 0): "one_photon",
    ("lower", 0, 2): "two_photon", ("raise", 2, 0): "two_photon",
}


def decompose(
    h_eff: OperatorExpr, ground: str, excited: str
) -> dict[str, OperatorExpr]:
    """Partition monomials by shape relative to a (ground, excited) pair; the
    parts sum to the input exactly.  ``_SHAPES`` gives the part of a term's
    atom and ladder powers.  The atom is "diagonal" (the identity or
    sig(L,L)), tested first, so even a collapsed pair (ground == excited)
    puts no diagonal term among the photon processes; else it is "lower"
    (sig(e,g)), "raise" (sig(g,e)) or none, which is "other".
    """
    sides = {(excited, ground): "lower", (ground, excited): "raise"}
    buckets: dict[str, list] = {
        name: [] for name in ("stark", "one_photon", "two_photon", "displacement", "other")
    }
    for m in h_eff.terms:
        atom = "diagonal" if m.pair is None or m.pair[0] == m.pair[1] else sides.get(m.pair)
        buckets[_SHAPES.get((atom, m.creators, m.annihilators), "other")].append(m)
    return {
        name: OperatorExpr.from_monomials(monos) for name, monos in buckets.items()
    }
