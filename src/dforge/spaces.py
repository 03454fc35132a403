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
``matrix_elements`` sums these over the monomials in pure Python, with the
coefficients at the required ``params`` (``{}`` binds no symbol); ``realize``,
the one path to a dense matrix, writes them into an array.  numpy is taken
from ``_lazy`` and loaded only when an array is built, so a caller that needs
only the elements (``derive``) never loads it.  ``read_number`` is the one
reader of a config or ``--vary`` number.

A coherent state's Poisson amplitudes e^{-|alpha|^2/2} alpha^n / sqrt(n!)
are one log-space formula, which ``build_state`` renormalizes into the state
and ``coherent_tail_mass`` sums for the weight the truncation drops.
"""

from __future__ import annotations

import cmath
import math
from typing import Mapping, NamedTuple

from ._lazy import np
from .algebra import OperatorExpr

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
            raise ValueError(f"Fock truncation must be >= 1, got {n_max}")
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
            raise ValueError(f"unknown atomic level {label!r}") from None

    def index(self, label: str, n: int) -> int:
        if not 0 <= n <= self.n_max:
            raise ValueError(f"Fock index {n} exceeds truncation n_max={self.n_max}")
        return self.level_index(label) * self.fock_dim + n


def matrix_elements(
    expr: OperatorExpr, space: SpaceSpec, params: Mapping[str, float]
) -> dict[tuple[int, int], complex]:
    """Entries {(row, col): value} of an expression on the truncated space.

    Each monomial c |i><j| ad^p a^q contributes c * sqrt(n!/(n-q)! *
    k!/(n-q)!) at (index(i, k), index(j, n)) for every q <= n <= n_max with
    k = n - q + p <= n_max (an identity atom: on every level's block).
    Monomials that meet at an entry are summed in the order of
    ``expr.terms``; absent entries are zero.
    """
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
    expr: OperatorExpr, space: SpaceSpec, params: Mapping[str, float]
) -> np.ndarray:
    """Dense complex matrix of an expression on the truncated space: the
    entries of ``matrix_elements``, zero elsewhere."""
    out = np.zeros((space.dim, space.dim), dtype=complex)
    for (row, col), value in matrix_elements(expr, space, params).items():
        out[row, col] = value
    return out


def _poisson_amplitudes(alpha: complex, n_max: int) -> list[complex]:
    """e^{-|alpha|^2/2} alpha^n / sqrt(n!) for n = 0..n_max, unnormalized.

    Each is taken in log space, so e^{-|alpha|^2/2} does not underflow to
    zero while the amplitudes near n = |alpha|^2 still count."""
    if alpha == 0:
        return [1.0] + [0.0] * n_max
    log_alpha, r = cmath.log(alpha), abs(alpha)
    # r * r gives inf where r**2 would raise OverflowError
    return [
        cmath.exp(n * log_alpha - r * r / 2 - math.lgamma(n + 1) / 2)
        for n in range(n_max + 1)
    ]


def coherent_tail_mass(alpha: complex, n_max: int) -> float:
    """Poisson weight beyond the truncation, before renormalization."""
    kept = math.fsum(abs(c) ** 2 for c in _poisson_amplitudes(alpha, n_max))
    return max(0.0, 1.0 - kept)


def read_number(text: str, where: str, kind=float):
    """``kind(text)`` for int, float or complex, read as Python reads it but
    for the digit-group underscores (``1_5``) no config number has; text that
    does not read raises ValueError ``<where> is not a number`` (or ``an
    integer``)."""
    if "_" not in text:
        try:
            return kind(text)
        except ValueError:
            pass
    noun = "an integer" if kind is int else "a number"
    raise ValueError(f"{where} is not {noun}")


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
    resolution of 1), for a level outside the space and for n outside
    0..n_max.
    """
    try:
        label, rest = (part.strip() for part in descriptor.split(",", 1))
        if rest.startswith("coherent(") and rest.endswith(")"):
            n, alpha = None, read_number(rest[len("coherent(") : -1], descriptor, complex)
        else:
            n, alpha = read_number(rest, descriptor, int), None
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
    amps = np.array(_poisson_amplitudes(alpha, space.n_max), dtype=complex)
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
