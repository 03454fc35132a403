"""Propagation of the full time-dependent model and its effective counterpart.

The full interaction Hamiltonian with common detuning d is

    H(t) = e^{i d t} M + e^{-i d t} M^dag,   M = sum_k lam_k A_k.

Every channel shares the detuning, so the realized M usually has an integer
grading G: G_a - G_b = 1 wherever M[a, b] != 0.  Then
H(t) = R(d t) (M + M^dag) R(d t)^dag with R(phi) = diag(e^{i G phi}), and in
the rotating frame phi = R(d t)^dag psi the Hamiltonian M + M^dag + d*diag(G)
no longer depends on time (the Floquet picture of Shirley, Phys. Rev. 138,
B979, 1965).  One eigendecomposition of it gives every sample exactly,
psi(t) = R(d t) V e^{-i w t} V^dag psi0, with no time step ("exact").  The
signed detuning enters, so a negative d drives the same way as the derived
H_eff (which keeps the sign through 1/d).

A diagonal entry, or a pair M[a, b] and M[b, a] both nonzero, rules a grading
out; the identity is exact on the realized matrix, so the choice depends only
on the input.  Such a coupling is propagated with a midpoint-exponential rule
(second-order Magnus): per step h, psi <- exp(-i H(t + h/2) h) psi, each step
built from a Hermitian eigendecomposition ("eigh-per-step"), so every step is
unitary to machine precision.  The steps lie on one global grid t_j = j*h with
h = T/N, T = 2*pi/|d| and N >= 40 steps per period.  The midpoint phases
d*(j + 1/2)*h repeat with period N, so the N step unitaries of one period and
their product, the one-period (Floquet) propagator C, are built once and serve
the whole run: every sample is a partial step, a prefix product and a power of
C applied to the initial state.

The integrator error of a midpoint run is measured by step halving:
``step_halving`` runs it at N and 2N steps per period and returns the finer
run with the largest change of a sampled amplitude; an exact run is returned
as it is.  ``scan`` sweeps one parameter (the detuning, or a coupling) and
compares each value's full run with the effective trajectory; it is the one
sweep path, and ``simulate`` uses the same check.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .effective import ChannelSpec, effective_hamiltonian
from .errors import (
    DispersiveRatioError,
    GridMismatch,
    NotHermitian,
    StepTooLarge,
    UnboundParameter,
)
from .spaces import SpaceSpec, hermiticity_defect, realize

__all__ = [
    "TimeGrid",
    "Trajectory",
    "ObservableSeries",
    "propagate_full",
    "propagate_effective",
    "observables",
    "ScanRow",
    "ScanResult",
    "step_halving",
    "scan",
]

#: minimum number of integration steps per 2*pi/delta oscillation period
MIN_STEPS_PER_PERIOD = 40

#: horizon of a detuning scan: periods of the slowest effective Rabi cycle
HORIZON_PERIODS = 10.0


@dataclass(frozen=True)
class TimeGrid:
    t_end: float
    samples: int

    def __post_init__(self):
        if self.t_end <= 0:
            raise ValueError("t_end must be positive")
        if self.samples < 2:
            raise ValueError("need at least two samples")

    @property
    def times(self) -> np.ndarray:
        return np.linspace(0.0, self.t_end, self.samples)


@dataclass
class Trajectory:
    times: np.ndarray
    states: np.ndarray  # shape (samples, dim)
    meta: dict = field(default_factory=dict)


@dataclass
class ObservableSeries:
    times: np.ndarray
    populations: dict[str, np.ndarray]
    n_mean: np.ndarray
    photon_dist: np.ndarray  # shape (samples, n_max+1)
    fidelity: np.ndarray | None = None


def _coupling_matrix(
    spec: ChannelSpec, params: Mapping[str, float], space: SpaceSpec
) -> np.ndarray:
    m = np.zeros((space.dim, space.dim), dtype=complex)
    for ch in spec.channels:
        lam = ch.lam.evaluate(params)
        if lam == 0:
            continue
        m += lam * realize(ch.op, space, params)
    return m


def _step_unitaries(m: np.ndarray, phases: np.ndarray, h: float) -> np.ndarray:
    """exp(-i h H(phi)) for H(phi) = e^{i phi} M + h.c., batched over phases.

    Each step comes from a Hermitian eigendecomposition, so it is unitary to
    roundoff whatever the size of h.
    """
    z = np.exp(1j * phases)[:, None, None]
    w, v = np.linalg.eigh(z * m + np.conj(z) * m.conj().T)
    return (v * np.exp(-1j * h * w)[:, None, :]) @ v.conj().transpose(0, 2, 1)


def _grading(m: np.ndarray) -> np.ndarray | None:
    """Integers G with G_a - G_b = 1 wherever m[a, b] != 0, or None.

    The nonzero pattern of m is walked as a graph, with G = 0 at the root of
    each component.  A diagonal entry, or m[a, b] and m[b, a] both nonzero,
    is a contradiction.
    """
    edges: list[list[tuple[int, int]]] = [[] for _ in range(len(m))]
    for a, b in zip(*np.nonzero(m)):
        edges[a].append((b, -1))
        edges[b].append((a, 1))
    grade: list[int | None] = [None] * len(m)
    for root in range(len(m)):
        if grade[root] is not None:
            continue
        grade[root] = 0
        stack = [root]
        while stack:
            a = stack.pop()
            for b, step in edges[a]:
                if grade[b] is None:
                    grade[b] = grade[a] + step
                    stack.append(b)
                elif grade[b] != grade[a] + step:
                    return None
    return np.array(grade)


def _evolve(
    herm: np.ndarray, psi0: np.ndarray, times: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """exp(-i herm t) psi0 at every t, and the eigenvectors it came from."""
    w, v = np.linalg.eigh(herm)
    phases = np.exp(-1j * np.outer(times, w))
    return (phases * (v.conj().T @ psi0)) @ v.T, v


def _unitarity_defect(u: np.ndarray) -> float:
    """Largest |U^dag U - I| entry of a matrix or a stack of matrices."""
    gram = np.swapaxes(u.conj(), -1, -2) @ u
    return float(np.max(np.abs(gram - np.eye(u.shape[-1]))))


def _midpoint(
    m: np.ndarray, delta: float, n: int, psi0: np.ndarray, times: np.ndarray
) -> tuple[np.ndarray, float]:
    """Midpoint-exponential states at ``times`` on the grid h = 2*pi/(n*|delta|),
    and the largest unitarity defect of every step unitary built."""
    h = 2.0 * math.pi / (n * abs(delta))
    prefix = _step_unitaries(m, delta * (np.arange(n) + 0.5) * h, h)
    defect = _unitarity_defect(prefix)
    for r in range(1, n):
        prefix[r] = prefix[r] @ prefix[r - 1]

    states = np.empty((len(times), len(m)), dtype=complex)
    cycled = psi0  # C^q psi0
    q_done = 0
    for i, t in enumerate(times):
        j = math.floor(t / h + 1e-9)
        s = t - j * h
        q, r = divmod(j, n)
        for _ in range(q - q_done):
            cycled = prefix[-1] @ cycled
        q_done = q
        psi = cycled if r == 0 else prefix[r - 1] @ cycled
        if s > h * 1e-9:
            u = _step_unitaries(m, np.array([delta * (r * h + s / 2.0)]), s)[0]
            defect = max(defect, _unitarity_defect(u))
            psi = u @ psi
        states[i] = psi
    return states, defect


def propagate_full(
    spec: ChannelSpec,
    params: Mapping[str, float],
    space: SpaceSpec,
    psi0: np.ndarray,
    grid: TimeGrid,
    steps_per_period: int = MIN_STEPS_PER_PERIOD,
) -> Trajectory:
    """Propagate under the full oscillating Hamiltonian.

    With a grading G of the realized M the run is exact
    (``meta["step_builder"] == "exact"``): one eigendecomposition
    M + M^dag + delta*diag(G) = V diag(w) V^dag gives every sample as
    psi(t) = R(delta*t) V e^{-i w t} V^dag psi0, ``meta["step"]`` is the
    whole horizon (each sample is one exponential from t = 0) and
    ``meta["max_step_norm_defect"]`` is the largest |V^dag V - I| entry.

    Without a grading (``"eigh-per-step"``) the midpoint rule runs on the
    global grid t_j = j*h with h = 2*pi/(N*|delta|) and
    N = ``steps_per_period``.  The N step unitaries of one drive period are
    built in one batch and overwritten in place by their prefix products
    P_r = U_{r-1}...U_0, so the cycle is C = P_N.  A sample at
    t = (q*N + r)*h + s is exp(-i s H(j*h + s/2)) P_r C^q psi0 with j = q*N + r;
    as the samples increase, C^q psi0 is advanced one cycle at a time.
    ``meta["max_step_norm_defect"]`` is then the largest |U^dag U - I| entry
    over every step unitary built, the partial steps included.

    N below MIN_STEPS_PER_PERIOD raises StepTooLarge on either path.
    """
    try:
        delta = float(params[spec.delta])
    except KeyError:
        raise UnboundParameter(spec.delta) from None
    if delta == 0:
        raise ValueError("detuning must be nonzero for full propagation")
    n = steps_per_period
    if n < MIN_STEPS_PER_PERIOD:
        cap = 2.0 * math.pi / (MIN_STEPS_PER_PERIOD * abs(delta))
        raise StepTooLarge(cap * MIN_STEPS_PER_PERIOD / n if n > 0 else math.inf, cap)

    m = _coupling_matrix(spec, params, space)
    grade = _grading(m)
    times = grid.times
    psi0 = np.asarray(psi0, dtype=complex)
    if grade is None:
        states, defect = _midpoint(m, delta, n, psi0, times)
        meta = {
            "integrator": "midpoint-exponential",
            "step": 2.0 * math.pi / (n * abs(delta)),
            "steps_per_period": n,
            "step_builder": "eigh-per-step",
        }
    else:
        states, v = _evolve(m + m.conj().T + delta * np.diag(grade), psi0, times)
        states *= np.exp(1j * delta * np.outer(times, grade))  # R(delta*t)
        defect = _unitarity_defect(v)
        meta = {
            "integrator": "eigendecomposition",
            "step": grid.t_end,
            "step_builder": "exact",
        }

    norms = np.linalg.norm(states, axis=1)
    meta["norm_drift"] = float(np.max(np.abs(norms - 1.0)))
    meta["max_step_norm_defect"] = defect
    return Trajectory(times=times, states=states, meta=meta)


def propagate_effective(
    h_eff: np.ndarray, psi0: np.ndarray, grid: TimeGrid
) -> Trajectory:
    """Exact evolution under a time-independent Hermitian generator."""
    defect = hermiticity_defect(h_eff)
    if defect > 1e-10:
        raise NotHermitian(defect)
    times = grid.times
    herm = (h_eff + h_eff.conj().T) / 2.0
    states, _ = _evolve(herm, np.asarray(psi0, dtype=complex), times)
    return Trajectory(
        times=times,
        states=states,
        meta={"integrator": "eigendecomposition", "hermiticity_defect": defect},
    )


def observables(
    traj: Trajectory,
    space: SpaceSpec,
    reference: Trajectory | None = None,
) -> ObservableSeries:
    """Populations, mean photon number, photon distribution, optional fidelity."""
    probs = np.abs(traj.states) ** 2
    fd = space.fock_dim
    pops = {}
    for idx, label in enumerate(space.levels):
        pops[label] = probs[:, idx * fd : (idx + 1) * fd].sum(axis=1)
    dist = probs.reshape(len(traj.times), len(space.levels), fd).sum(axis=1)
    n_mean = dist @ np.arange(fd)
    fidelity = None
    if reference is not None:
        if len(reference.times) != len(traj.times) or not np.allclose(
            reference.times, traj.times
        ):
            raise GridMismatch("reference trajectory uses a different time grid")
        overlaps = np.einsum("ij,ij->i", reference.states.conj(), traj.states)
        fidelity = np.abs(overlaps) ** 2
    return ObservableSeries(
        times=traj.times,
        populations=pops,
        n_mean=n_mean,
        photon_dist=dist,
        fidelity=fidelity,
    )


@dataclass
class ScanRow:
    delta: float  # the row's detuning
    max_infidelity: float  # of the 2N run against the effective trajectory
    ratio: float  # |delta| / (lam_max * sqrt(n_peak + 1)), photon-enhanced
    included: bool  # rows with photon-enhanced ratio >= 20 enter the slope fit
    step_change: float | None = None  # max |psi_N - psi_2N|; None for an exact run


@dataclass
class ScanResult:
    rows: list[ScanRow]

    def slope(self) -> float | None:
        """Log-log slope of max infidelity vs |detuning| over included rows."""
        pts = [
            (math.log(abs(r.delta)), math.log(r.max_infidelity))
            for r in self.rows
            if r.included and r.max_infidelity > 0
        ]
        if len({p[0] for p in pts}) < 2:
            return None
        xs = np.array([p[0] for p in pts])
        ys = np.array([p[1] for p in pts])
        return float(np.polyfit(xs, ys, 1)[0])


def _max_coupling(spec: ChannelSpec, params: Mapping[str, float]) -> float:
    return max(abs(ch.lam.evaluate(params).real) for ch in spec.channels)


def step_halving(
    spec: ChannelSpec,
    params: Mapping[str, float],
    space: SpaceSpec,
    psi0: np.ndarray,
    grid: TimeGrid,
    steps_per_period: int = MIN_STEPS_PER_PERIOD,
) -> tuple[Trajectory, float | None]:
    """Propagate the full model and measure its integrator error.

    An exact run has no step to halve: it is returned with None.  A midpoint
    run is repeated at 2N steps per period; the 2N trajectory is returned
    with the largest change of a sampled amplitude between the two runs.
    """
    coarse = propagate_full(
        spec, params, space, psi0, grid, steps_per_period=steps_per_period
    )
    if coarse.meta["step_builder"] == "exact":
        return coarse, None
    fine = propagate_full(
        spec, params, space, psi0, grid, steps_per_period=2 * steps_per_period
    )
    return fine, float(np.max(np.abs(coarse.states - fine.states)))


def scan(
    spec: ChannelSpec,
    params: Mapping[str, float],
    space: SpaceSpec,
    psi0: np.ndarray,
    grid: TimeGrid,
    key: str,
    values: Sequence[float],
    steps_per_period: int = MIN_STEPS_PER_PERIOD,
) -> ScanResult:
    """Worst full-vs-effective infidelity with ``params[key]`` set to each value.

    Validity is judged per row by the dispersive ratio |delta| / (lam_max *
    sqrt(n_peak + 1)): lam_max is the row's largest bare coupling and n_peak
    the largest mean photon number along its effective trajectory, so the
    ratio measures the detuning against the photon-enhanced coupling that
    the dynamics actually sees (the critical-photon-number condition
    n << delta^2 / (4 lam^2)).  Rows with a ratio below 5 are rejected; below
    20 a validity warning is emitted and the row is reported but excluded
    from the slope fit.  A row without coupling has nothing to check and
    reads 0.

    The sample count of ``grid`` is kept.  When ``key`` is the detuning, each
    row runs on a dimensionless horizon of HORIZON_PERIODS slow Rabi cycles,
    t_end = HORIZON_PERIODS * |delta| / lam_max^2; any other key keeps the
    t_end of ``grid``.  Each row goes through ``step_halving``:
    ``max_infidelity`` is that of the run it returns and
    ``ScanRow.step_change`` the step-halving change (None for an exact run).
    The slope is fitted against |detuning|, so only a detuning scan has one.
    """
    h_sym = effective_hamiltonian(spec)
    rows = []
    for value in values:
        local = dict(params)
        local[key] = value
        delta = float(local[spec.delta])
        lam = _max_coupling(spec, local)
        if lam == 0:
            rows.append(ScanRow(delta=delta, max_infidelity=0.0, ratio=math.inf, included=True))
            continue
        t_end = HORIZON_PERIODS * abs(delta) / lam**2 if key == spec.delta else grid.t_end
        local_grid = TimeGrid(t_end=t_end, samples=grid.samples)
        eff = propagate_effective(realize(h_sym, space, local), psi0, local_grid)
        n_peak = float(np.max(observables(eff, space).n_mean))
        ratio = abs(delta) / (lam * math.sqrt(n_peak + 1.0))
        if ratio < 5.0:
            raise DispersiveRatioError(ratio, 5.0)
        included = True
        if ratio < 20.0:
            warnings.warn(
                f"detuning/coupling ratio {ratio:.1f} < 20: dispersive "
                "approximation marginal; excluded from slope fit",
                stacklevel=2,
            )
            included = False
        full, change = step_halving(
            spec, local, space, psi0, local_grid, steps_per_period=steps_per_period
        )
        obs = observables(full, space, reference=eff)
        rows.append(
            ScanRow(
                delta=delta,
                max_infidelity=float(np.max(1.0 - obs.fidelity)),
                ratio=ratio,
                included=included,
                step_change=change,
            )
        )
    return ScanResult(rows=rows)
