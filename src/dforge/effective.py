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
from one table of term shapes, and ``grading`` solves the drive's frame.
This layer is symbolic only and loads neither ``spaces`` nor numpy; the
numeric layer (``dynamics``) takes M, H_eff and the frame realized.
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
    "grading",
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


def grading(
    drive: OperatorExpr, levels: tuple[str, ...], params: dict[str, float]
) -> dict[str, tuple[int, int, int]] | None:
    """Each level's ints (phase, slope, den) of a grading G(L, n) = (phase +
    slope*n) / den of ``drive`` at ``params``, or None when it has none.

    Each shape sig(i,j) ad^p a^q of nonzero summed value (identity: sig(L,L)
    on every level) requires phi_i - phi_j + s*(p - q) = 1, with one slope s
    per connected part of the levels and phi = 0 at its first declared level.
    One walk carries phi as a + b*s in ints; an edge closing a loop fixes s or must hold.
    """
    values: dict = {}
    for m in drive.terms:
        for i, j in [m.pair] if m.pair else [(lv, lv) for lv in levels]:
            shape = (i, j, m.creators, m.annihilators)
            values[shape] = values.get(shape, 0) + m.coeff.evaluate(params)
    edges: dict[str, list] = {lv: [] for lv in levels}
    for (i, j, p, q), value in values.items():
        if value:  # phi_j = phi_i - 1 + (p - q)*s
            edges[i].append((j, -1, p - q))
            edges[j].append((i, 1, q - p))
    phi: dict[str, tuple[int, int]] = {}
    frame = dict.fromkeys(levels)
    for root in (lv for lv in levels if lv not in phi):  # the first level of each part
        phi[root], part, num, den = (0, 0), [root], 0, 0  # s = num/den, free while den is 0
        for i in part:  # grows as the walk reaches new levels
            for j, a, b in edges[i]:
                a, b = phi[i][0] + a, phi[i][1] + b
                if j not in phi:
                    phi[j] = (a, b)
                    part.append(j)
                    continue
                a, b = a - phi[j][0], b - phi[j][1]  # the loop's rule a + b*s = 0
                if b and not den:
                    num, den = (-a, b) if b > 0 else (a, -b)
                if a * (den or 1) + b * num:
                    return None
        den = den or 1
        frame.update((lv, (phi[lv][0] * den + phi[lv][1] * num, num, den)) for lv in part)
    return frame
