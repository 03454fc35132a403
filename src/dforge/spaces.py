"""Realization of symbolic expressions on (levels) x (Fock 0..n_max).

Basis ordering is level-major, Fock-minor: index(level_k, n) = k*(n_max+1) + n,
with levels in their declared order.  The ladder convention is
<n-1| a |n> = sqrt(n), and the hard cutoff gives ad|n_max> = 0.

A normal-ordered boson string has one closed-form element per column:

    <k| ad^p a^q |n> = sqrt(n!/(n-q)! * k!/(n-q)!),   k = n - q + p,

for q <= n and k <= n_max, and nothing else.  a^q only lowers and ad^p
raises monotonically from n - q to k, so with k <= n_max the truncated
product meets no cutoff and equals the untruncated one.  The element is taken
as <k| ad^p |n-q> <n-q| a^q |n>, one square root per factor.
``matrix_elements`` sums these over the monomials in pure Python; ``realize``,
the one path to a dense matrix, writes them into an array.  numpy is taken
from ``_lazy`` and loaded only when an array is built, so a caller that needs
only the elements (``derive``) never loads it.
"""

from __future__ import annotations

import cmath
import math
from typing import Mapping, NamedTuple

from ._lazy import np
from .algebra import OperatorExpr
from .errors import FockOverflow, NonPositiveTruncation, UnknownLevel

__all__ = [
    "SpaceSpec",
    "matrix_elements",
    "realize",
    "parse_state",
    "build_state",
    "coherent_tail_mass",
    "hermiticity_defect",
    "element_hermiticity_defect",
]


class SpaceSpec(NamedTuple("SpaceSpec", [("levels", tuple), ("n_max", int)])):
    __slots__ = ()

    def __new__(cls, levels: tuple[str, ...], n_max: int):
        if len(levels) < 2:
            raise ValueError("need at least two atomic levels")
        if len(set(levels)) != len(levels):
            raise ValueError("duplicate level labels")
        if n_max < 1:
            raise NonPositiveTruncation(n_max)
        return super().__new__(cls, levels, n_max)

    @property
    def fock_dim(self) -> int:
        return self.n_max + 1

    @property
    def dim(self) -> int:
        return len(self.levels) * self.fock_dim

    def level_index(self, label: str) -> int:
        try:
            return self.levels.index(label)
        except ValueError:
            raise UnknownLevel(label) from None

    def index(self, label: str, n: int) -> int:
        if not 0 <= n <= self.n_max:
            raise FockOverflow(n, self.n_max)
        return self.level_index(label) * self.fock_dim + n


def matrix_elements(
    expr: OperatorExpr, space: SpaceSpec, params: Mapping[str, float] | None = None
) -> dict[tuple[int, int], complex]:
    """Entries {(row, col): value} of an expression on the truncated space.

    Each monomial c |i><j| ad^p a^q contributes c * sqrt(n!/(n-q)! *
    k!/(n-q)!) at (index(i, k), index(j, n)) for every q <= n <= n_max with
    k = n - q + p <= n_max (an identity atom: on every level's block).
    Monomials that meet at an entry are summed in the order of
    ``expr.terms``; absent entries are zero.
    """
    params = params or {}
    fd = space.fock_dim
    out: dict[tuple[int, int], complex] = {}
    for m in expr.terms:
        c = m.coeff.evaluate(params)
        p, q = m.creators, m.annihilators
        if m.pair is None:
            blocks = [(lv * fd, lv * fd) for lv in range(len(space.levels))]
        else:
            i, j = m.pair
            blocks = [(space.level_index(i) * fd, space.level_index(j) * fd)]
        # both n and k = n - q + p stay in 0..n_max
        for n in range(q, min(space.n_max, space.n_max + q - p) + 1):
            k = n - q + p
            # <k| ad^p |n-q> <n-q| a^q |n>
            value = c * (math.sqrt(math.perm(k, p)) * math.sqrt(math.perm(n, q)))
            for row, col in blocks:
                key = (row + k, col + n)
                out[key] = out.get(key, 0.0) + value
    return out


def realize(
    expr: OperatorExpr, space: SpaceSpec, params: Mapping[str, float] | None = None
) -> np.ndarray:
    """Dense complex matrix of an expression on the truncated space: the
    entries of ``matrix_elements``, zero elsewhere."""
    out = np.zeros((space.dim, space.dim), dtype=complex)
    for (row, col), value in matrix_elements(expr, space, params).items():
        out[row, col] = value
    return out


def coherent_tail_mass(alpha: complex, n_max: int) -> float:
    """Poisson weight beyond the truncation, before renormalization.

    Each weight e^{-|alpha|^2} |alpha|^{2n} / n! is taken in log space, so
    e^{-|alpha|^2} does not underflow to zero while the weights near
    n = |alpha|^2 still count."""
    r = abs(alpha)
    if r == 0:
        return 0.0
    kept = math.fsum(
        math.exp(2 * n * math.log(r) - r * r - math.lgamma(n + 1))
        for n in range(n_max + 1)
    )
    return max(0.0, 1.0 - kept)


def read_number(text: str, kind=float):
    """``kind(text)`` for int, float or complex, but a ValueError for the
    digit-group underscores Python allows (``1_5``), which no config number
    has; signs, exponents and complex syntax read as Python reads them."""
    if "_" in text:
        raise ValueError(f"digit-group underscore in {text!r}")
    return kind(text)


def parse_state(
    descriptor: str, space: SpaceSpec
) -> tuple[int, int | None, complex | None]:
    """Check "level,n" or "level,coherent(alpha)" against the space without
    building the state: the level index, then (n, None) for a Fock state or
    (None, alpha) for a coherent one.

    Raises ValueError for a malformed descriptor (an n that is not an
    integer and an alpha that is not a complex number by ``read_number``
    included), for a non-finite amplitude and for one whose tail mass
    beyond n_max is 1.0 in double precision (Fock 0..n_max keep less of the state than the float
    resolution of 1), UnknownLevel for a level outside the space and
    FockOverflow for n outside 0..n_max.
    """
    try:
        label, rest = (part.strip() for part in descriptor.split(",", 1))
        if rest.startswith("coherent(") and rest.endswith(")"):
            n, alpha = None, read_number(rest[len("coherent(") : -1], complex)
        else:
            n, alpha = read_number(rest, int), None
    except ValueError:
        raise ValueError(f"bad state descriptor {descriptor!r}") from None
    lidx = space.level_index(label)
    if n is None:
        if not cmath.isfinite(alpha):
            raise ValueError(f"coherent amplitude {alpha} is not finite")
        if coherent_tail_mass(alpha, space.n_max) == 1.0:
            raise ValueError(
                f"coherent amplitude {alpha} leaves no weight on Fock 0..{space.n_max}"
            )
        return lidx, None, alpha
    space.index(label, n)
    return lidx, n, None


def build_state(descriptor: str, space: SpaceSpec) -> np.ndarray:
    """Unit state vector of a descriptor read by ``parse_state``: a basis
    vector, or the Poisson amplitudes of alpha on Fock 0..n_max, renormalized
    after the truncation."""
    lidx, n, alpha = parse_state(descriptor, space)
    psi = np.zeros(space.dim, dtype=complex)
    if n is not None:
        psi[lidx * space.fock_dim + n] = 1.0
        return psi
    n = np.arange(space.fock_dim)
    log_fact = np.cumsum(np.concatenate([[0.0], np.log(n[1:])]))
    amps = np.exp(
        -abs(alpha) ** 2 / 2 + n * np.log(complex(alpha)) - log_fact / 2
    ) if alpha != 0 else np.eye(space.fock_dim)[0].astype(complex)
    amps /= np.linalg.norm(amps)
    psi[lidx * space.fock_dim : (lidx + 1) * space.fock_dim] = amps
    return psi


def hermiticity_defect(mat: np.ndarray) -> float:
    return float(np.max(np.abs(mat - mat.conj().T)))


def element_hermiticity_defect(elements: Mapping[tuple[int, int], complex]) -> float:
    """``hermiticity_defect`` of the matrix with these entries, from the
    entries alone: max |h_rc - conj(h_cr)|, zero where both are absent."""
    return max(
        (abs(v - elements.get((c, r), 0).conjugate()) for (r, c), v in elements.items()),
        default=0.0,
    )
