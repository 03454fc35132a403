"""Propagation of the full time-dependent model and its effective counterpart.

The full interaction Hamiltonian with common detuning d is

    H(t) = e^{i d t} M + e^{-i d t} M^dag,   M = sum_k lam_k A_k,

the ``Scenario.drive`` that ``parse_scenario`` sums from the channel lines.
Every channel shares the detuning, so the drive usually has a grading G,
G_a - G_b = 1 wherever M[a, b] != 0, which ``effective.grading`` solves from
the drive's terms at the run's params before anything is realized, so the
path does not depend on n_max.  Then H(t) = R(d t) (M + M^dag) R(d t)^dag with
R(phi) = diag(e^{i G phi}), and in the rotating frame phi = R(d t)^dag psi the
Hamiltonian M + M^dag + d*diag(G) no longer depends on time (the Floquet
picture of Shirley, Phys. Rev. 138, B979, 1965).  One eigendecomposition of it
gives every sample exactly, psi(t) = R(d t) V e^{-i w t} V^dag psi0, with no
time step ("exact").  The signed detuning enters, so a negative d drives the
same way as the derived H_eff (which keeps the sign through 1/d).

A diagonal term, or sig(g,r) beside sig(r,g), rules a grading out.  Such a
coupling still has a single harmonic, so in Sambe's extended space
(Phys. Rev. A 7, 2203, 1973) it becomes graded: writing
psi(t) = sum_m e^{i m d t} phi_m(t) gives i phi_m' = m d phi_m + M phi_{m-1}
+ M^dag phi_{m+1}, the rotating-frame problem of kron(S, M) with S the shift
of Fourier block m to m + 1 and grading G = m ("fourier").  It is truncated
at |m| <= K, with psi0 in block 0, and K is raised until the samples stop
moving; nothing is time-stepped on either path.

The secular expansion drops the first-order kick
K(t) = (M e^{i d t} - M^dag e^{-i d t}) / (i d), bounded through the same M:
max_t ||K(t)|| <= 2 ||M|| / |d| (``first_order_remainder_bound``).  Both it
and ``propagate_full`` take the realized M and the signed detuning (and the
latter the realized G, or None), as ``propagate_effective`` takes H_eff.

``run`` is the one run path: it propagates a scenario under both H_eff and
the full model, compares the two and records the run's health.  ``scan``
sweeps one parameter of a scenario (the detuning, or a coupling) through
``run``: the sweep's inputs fail the sweep, and anything about a row fails
that row, which is kept beside the others.
``converged`` is the one test of a Fourier order's refinement change against
CONVERGENCE_TOL.
"""

from __future__ import annotations

import math
from typing import Mapping, NamedTuple, Sequence

from ._lazy import np
from .algebra import Coefficient, OperatorExpr
from .effective import DELTA, effective_hamiltonian, grading
from .scenario import Scenario, TimeGrid, _located
from .spaces import SpaceSpec, coherent_tail_mass, parse_state, realize

__all__ = [
    "Trajectory",
    "ObservableSeries",
    "converged",
    "propagate_full",
    "propagate_effective",
    "first_order_remainder_bound",
    "observables",
    "Run",
    "run",
    "ScanRow",
    "slope",
    "dispersive_ratio",
    "scan",
]

#: largest change of a sampled amplitude between two Fourier orders that
#: counts as converged
CONVERGENCE_TOL = 1e-3

#: Fourier orders K tried in turn for a coupling without a grading
FOURIER_ORDERS = (2, 4, 8, 16)

#: horizon of a detuning scan: periods of the slowest effective Rabi cycle
HORIZON_PERIODS = 10.0


def converged(change: float | None) -> bool:
    """Whether a Fourier refinement ``change`` is at most CONVERGENCE_TOL;
    an exact run has no order to refine (None) and is converged."""
    return change is None or change <= CONVERGENCE_TOL


class Trajectory(NamedTuple):
    times: np.ndarray
    states: np.ndarray  # shape (samples, dim)
    meta: dict  # what the propagator records about the run


class ObservableSeries(NamedTuple):
    times: np.ndarray
    populations: dict[str, np.ndarray]
    n_mean: np.ndarray
    photon_dist: np.ndarray  # shape (samples, n_max+1)
    fidelity: np.ndarray  # |<reference|state>|^2 at each sample


def _evolve(herm: np.ndarray, psi0: np.ndarray, times: np.ndarray) -> np.ndarray:
    """exp(-i herm t) psi0 at every t; ValueError when the phase rounding
    max|w| t_end eps is above CONVERGENCE_TOL."""
    w, v = np.linalg.eigh(herm)
    # Python floats: a product beyond double range is inf, with no warning
    rounding = float(np.max(np.abs(w))) * float(times[-1]) * math.ulp(1.0)
    if rounding > CONVERGENCE_TOL:
        raise ValueError(
            f"phase rounding {rounding:.3e} > {CONVERGENCE_TOL:.0e}: the phases "
            "are beyond what double precision resolves"
        )
    phases = np.exp(-1j * np.outer(times, w))
    return (phases * (v.conj().T @ psi0)) @ v.T


def _rotating_frame(
    m: np.ndarray, grade: np.ndarray, delta: float, psi0: np.ndarray, times: np.ndarray
) -> np.ndarray:
    """psi(t) = R(delta*t) V e^{-i w t} V^dag psi0 for a coupling m with
    grading ``grade``."""
    states = _evolve(m + m.conj().T + delta * np.diag(grade), psi0, times)
    states *= np.exp(1j * delta * np.outer(times, grade))  # R(delta*t)
    return states


def _fourier(
    m: np.ndarray, delta: float, order: int, psi0: np.ndarray, times: np.ndarray
) -> np.ndarray:
    """The rotating-frame run of kron(S, m) over the Fourier blocks
    -order..order, summed back to the physical space."""
    blocks = 2 * order + 1
    dim = len(m)
    lifted = np.zeros(blocks * dim, dtype=complex)
    lifted[order * dim : (order + 1) * dim] = psi0  # block 0
    grade = np.repeat(np.arange(-order, order + 1), dim)
    states = _rotating_frame(np.kron(np.eye(blocks, k=-1), m), grade, delta, lifted, times)
    return states.reshape(len(times), blocks, dim).sum(axis=1)


def propagate_full(
    m: np.ndarray, delta: float, psi0: np.ndarray, grid: TimeGrid, grade: np.ndarray | None
) -> Trajectory:
    """Propagate under e^{i delta t} M + e^{-i delta t} M^dag, with no time
    step, for the realized drive ``m``, its realized grading ``grade`` or None
    and the signed detuning ``delta`` (never divided by, so zero is allowed).

    With a grading G (``meta["method"] == "exact"``)
    one eigendecomposition M + M^dag + delta*diag(G) = V diag(w) V^dag gives
    every sample as psi(t) = R(delta*t) V e^{-i w t} V^dag psi0;
    ``meta["fourier_order"]`` and ``meta["refinement_change"]`` are None.

    Without one (``"fourier"``) the same solution is taken for kron(S, M)
    over the Fourier blocks -K..K, where S shifts block m to m + 1 so that
    G = m, with psi0 placed in block 0; the physical state is the sum of the
    blocks.  K runs through FOURIER_ORDERS and stops at the first order
    whose samples moved from the previous one by a change that is
    ``converged``; ``meta["fourier_order"]`` is that
    K and ``meta["refinement_change"]`` the largest change of a sampled
    amplitude.  When the last order still moves by more, it is returned with
    its change, and the caller decides.

    ``meta["norm_drift"]`` is the largest |1 - norm| of a sample, which
    only a Fourier sum that has not converged moves off rounding, and
    ``meta["step"]`` the whole horizon (each sample is one exponential from
    t = 0).
    """
    times = grid.times
    psi0 = np.asarray(psi0, dtype=complex)
    meta = {"step": grid.t_end}
    if grade is None:
        previous = _fourier(m, delta, FOURIER_ORDERS[0], psi0, times)
        for order in FOURIER_ORDERS[1:]:
            states = _fourier(m, delta, order, psi0, times)
            change = float(np.max(np.abs(states - previous)))
            if converged(change):
                break
            previous = states
        meta.update(method="fourier", fourier_order=order, refinement_change=change)
    else:
        states = _rotating_frame(m, grade, delta, psi0, times)
        meta.update(method="exact", fourier_order=None, refinement_change=None)

    norms = np.linalg.norm(states, axis=1)
    meta["norm_drift"] = float(np.max(np.abs(norms - 1.0)))
    return Trajectory(times=times, states=states, meta=meta)


def propagate_effective(
    h_eff: np.ndarray, psi0: np.ndarray, grid: TimeGrid
) -> Trajectory:
    """Exact evolution under the time-independent Hermitian generator
    ``h_eff``, of which only the lower triangle is read."""
    times = grid.times
    states = _evolve(h_eff, np.asarray(psi0, dtype=complex), times)
    return Trajectory(times=times, states=states, meta={})


def first_order_remainder_bound(m: np.ndarray, delta: float) -> float:
    """Upper bound 2 ||m|| / |delta| on the neglected first-order kick, valid
    for all t, for the realized drive ``m``; a ValueError at zero detuning."""
    if delta == 0:
        raise ValueError("detuning is zero; the kick bound divides by it")
    return 2.0 * float(np.linalg.norm(m, 2)) / abs(delta)


def observables(
    traj: Trajectory, space: SpaceSpec, reference: Trajectory
) -> ObservableSeries:
    """Populations, mean photon number, photon distribution, and the
    fidelity to ``reference``, which must share the time grid."""
    if len(reference.times) != len(traj.times) or not np.allclose(
        reference.times, traj.times
    ):
        raise ValueError("reference trajectory uses a different time grid")
    probs = (np.abs(traj.states) ** 2).reshape(
        len(traj.times), len(space.levels), space.fock_dim
    )
    level_pops = probs.sum(axis=2)
    pops = {label: level_pops[:, idx] for idx, label in enumerate(space.levels)}
    dist = probs.sum(axis=1)
    n_mean = dist @ np.arange(space.fock_dim)
    overlaps = np.einsum("ij,ij->i", reference.states.conj(), traj.states)
    fidelity = np.abs(overlaps) ** 2
    return ObservableSeries(
        times=traj.times,
        populations=pops,
        n_mean=n_mean,
        photon_dist=dist,
        fidelity=fidelity,
    )


class Run(NamedTuple):
    observables: ObservableSeries
    health: dict


def run(scenario: Scenario) -> Run:
    """Propagate ``scenario`` under the realized H_eff and under the full
    model, and return the full run's observables with their fidelity to the
    effective one.

    The detuning is read once (``Scenario.detuning``, so zero raises), the
    drive ``scenario.drive`` realized once, for the full run and the kick
    bound, and its frame (``effective.grading``) realized on the space.

    ``health`` holds the largest population of the top Fock level, the kick
    bound of ``first_order_remainder_bound``, the ``dispersive_ratio`` at the
    largest n_mean of the full run (None without coupling), the
    ``coherent_tail_mass`` of the initial state and the ``meta`` of
    ``propagate_full`` but its ``step``; the refinement change is for
    ``converged`` to judge.
    """
    drive, params, space = scenario.drive, scenario.params, scenario.space
    delta = scenario.detuning()
    psi0 = scenario.state()
    # realized first, so a coefficient outside double range fails before the full run
    h_mat = realize(effective_hamiltonian(drive), space, params)
    eff = propagate_effective(h_mat, psi0, scenario.grid)
    m = realize(drive, space, params)
    frame, n = grading(drive, space.levels, params), np.arange(space.fock_dim)
    grade = frame and np.concatenate([(a + b * n) / d for a, b, d in frame.values()])  # G(L, n)
    full = propagate_full(m, delta, psi0, scenario.grid, grade)
    obs = observables(full, space, reference=eff)

    ratio = dispersive_ratio(drive, params, float(obs.n_mean.max()))
    alpha = parse_state(scenario.initial, space)[2]  # None for a Fock state
    health = {
        "top_fock_population": float(obs.photon_dist[:, -1].max()),
        "first_order_remainder_bound": first_order_remainder_bound(m, delta),
        "dispersive_ratio": ratio if math.isfinite(ratio) else None,
        "coherent_tail_mass": coherent_tail_mass(alpha or 0, space.n_max),
    }
    health.update((key, value) for key, value in full.meta.items() if key != "step")
    return Run(obs, health)


class ScanRow(NamedTuple):
    delta: float  # the row's detuning, nan when none is bound
    max_infidelity: float | None  # of the full run against the effective one
    included: bool  # rows with photon-enhanced ratio >= 20 enter the slope fit
    health: dict  # the row's ``run`` record, {} when the row raised
    error: str | None  # why the row failed, None for a row that ran cleanly


def slope(rows: Sequence[ScanRow]) -> float | None:
    """Log-log slope of max infidelity vs |detuning| over included rows."""
    pts = [
        (math.log(abs(r.delta)), math.log(r.max_infidelity))
        for r in rows
        if r.included and r.max_infidelity > 0
    ]
    if len({x for x, _ in pts}) < 2:
        return None
    return float(np.polyfit(*np.array(pts).T, 1)[0])


def _max_coupling(drive: OperatorExpr, params: Mapping[str, float]) -> float:
    """The largest |coefficient| of the drive operator, literal factors
    included."""
    return max((abs(m.coeff.evaluate(params)) for m in drive.terms), default=0.0)


def dispersive_ratio(
    drive: OperatorExpr, params: Mapping[str, float], n_peak: float
) -> float:
    """|delta| / (lam_max * sqrt(n_peak + 1)), inf without coupling.

    lam_max is the largest |coefficient| of the drive operator, literal
    factors included, and n_peak the largest mean photon number of a
    trajectory, so the ratio measures the detuning against the
    photon-enhanced coupling that the dynamics actually sees (the
    critical-photon-number condition n << delta^2 / (4 lam^2))."""
    lam = _max_coupling(drive, params)
    if lam == 0:
        return math.inf
    # evaluated as a symbol, so an unbound detuning is the config's ValueError
    return abs(Coefficient.symbol(DELTA).evaluate(params)) / (lam * math.sqrt(n_peak + 1.0))


def scan(scenario: Scenario, key: str, values: Sequence[float]) -> list[ScanRow]:
    """``run`` of ``scenario`` with ``params[key]`` set to each value, one
    row per value, in order: the sweep's inputs fail the sweep, and anything
    about a row fails that row.

    So a ``key`` that the params do not bind, or that is neither the
    detuning nor a symbol of ``scenario.drive`` (each row would run the same
    model), and a non-finite value raise ValueError before any row runs.
    A detuning row runs on HORIZON_PERIODS slow Rabi cycles, t_end =
    HORIZON_PERIODS * |delta| / lam_max^2 (lam_max as in
    ``dispersive_ratio``), at the same sample count; any other row keeps the
    scenario's grid.  ``max_infidelity`` is 1 - min(fidelity) of the row's
    run and ``health`` its record.  A run ``dispersive_ratio`` below 20
    leaves the row out of the ``slope`` fit (``included`` false), and below
    5 gives it the floor's message as its ``error``; a row without coupling
    has no ratio and is included.  A row that raises a ValueError (a zero
    detuning, a coefficient outside double range, a horizon that
    ``TimeGrid`` rejects, which names the row, the phase gate) keeps the
    message as its ``error``, with ``max_infidelity`` None, ``included``
    false, ``health`` {} and ``delta`` nan if no detuning is bound.
    Reporting a row's verdict is the caller's.
    """
    drive, params = scenario.drive, scenario.params
    if key not in params:
        raise ValueError(f"unknown sweep parameter {key!r}")
    if key != DELTA and key not in drive.symbols():
        raise ValueError(f"sweep parameter {key!r} is used by no channel")
    for value in values:
        if not math.isfinite(value):
            raise ValueError(f"{key}={value} is not finite")

    rows = []
    for value in values:
        row = scenario._replace(params={**params, key: value})
        try:
            delta = row.detuning()
            lam = _max_coupling(drive, row.params)
            if key == DELTA and lam:  # / lam / lam is inf, not an error, past double range
                with _located(f"the horizon of sweep row {key}={value:.12g}"):
                    t_end = HORIZON_PERIODS * abs(delta) / lam / lam
                    row = row._replace(grid=TimeGrid(t_end, row.grid.samples))
            result = run(row)
        except ValueError as exc:
            rows.append(ScanRow(row.params.get(DELTA, math.nan), None, False, {}, str(exc)))
            continue
        ratio = result.health["dispersive_ratio"]  # None without coupling
        error = None
        if ratio is not None and ratio < 5.0:
            error = f"detuning/coupling ratio {ratio:.2f} below required minimum 5"
        included = ratio is None or ratio >= 20.0
        max_infidelity = 1.0 - float(result.observables.fidelity.min())
        rows.append(ScanRow(delta, max_infidelity, included, result.health, error))
    return rows
