import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from dforge import (
    OperatorExpr,
    Scenario,
    ScanRow,
    SpaceSpec,
    TimeGrid,
    Trajectory,
    build_state,
    effective_hamiltonian,
    hermiticity_defect,
    observables,
    parse_scenario,
    project_out_level,
    propagate_effective,
    propagate_full,
    realize,
    scan,
    slope,
)
from dforge import dynamics

from conftest import (
    LEVELS, REPO_ROOT, drive_of, full_run, rabi_survival, realized_grading, three_level_drive,
)

SPACE = SpaceSpec(LEVELS, 6)


#: a drive with its counter-rotating part: M[g, r] and M[r, g] are both
#: nonzero, so the coupling has no grading and runs over Fourier blocks
COUNTER_ROTATING = OperatorExpr.sigma("g", "r") + OperatorExpr.sigma("r", "g")


def drive_only(op: OperatorExpr = OperatorExpr.sigma("g", "r")) -> OperatorExpr:
    return drive_of(("Om", op))


def ungraded_three_level_drive() -> OperatorExpr:
    """The three-level model with the counter-rotating drive."""
    return three_level_drive() + drive_of(("Omega", OperatorExpr.sigma("r", "g")))


def lab_frame_dop853(drive, params, psi0, times, space=SPACE):
    """Integrate i psi' = (e^{i d t} M + e^{-i d t} M^dag) psi in the lab
    frame with scipy's DOP853 at rtol 1e-10."""
    from scipy.integrate import solve_ivp

    m = realize(drive, space, params)
    delta = params["delta"]

    def rhs(t, psi):
        z = np.exp(1j * delta * t)
        return -1j * (z * (m @ psi) + np.conj(z) * (m.conj().T @ psi))

    sol = solve_ivp(
        rhs, (0.0, times[-1]), np.asarray(psi0, dtype=complex), method="DOP853",
        t_eval=times, rtol=1e-10, atol=1e-12,
    )
    assert sol.success
    return sol.y.T


class TestTimeGrid:
    @pytest.mark.parametrize("t_end", [0.0, -1.0, math.nan, math.inf])
    def test_t_end_must_be_positive_and_finite(self, t_end):
        with pytest.raises(ValueError, match="t_end must be positive and finite"):
            TimeGrid(t_end=t_end, samples=5)


class TestFullPropagation:
    def test_zero_coupling_is_constant(self):
        drive = drive_only()
        psi0 = build_state("g,0", SPACE)
        grid = TimeGrid(t_end=3.0, samples=10)
        traj = full_run(drive, {"Om": 0.0, "delta": 50.0}, SPACE, psi0, grid)
        np.testing.assert_allclose(traj.states, np.tile(psi0, (10, 1)), atol=1e-14)

    def test_detuned_rabi_against_analytic_oracle(self):
        # Single drive channel: in the rotating frame this is the exact
        # two-level problem i phi' = [[0, Om], [Om, -delta]] phi, so
        # P_r(t) = Om^2/(Om^2 + delta^2/4) sin^2(sqrt(Om^2 + delta^2/4) t).
        om, delta = 1.0, 20.0
        drive = drive_only()
        psi0 = build_state("g,0", SPACE)
        grid = TimeGrid(t_end=5.0, samples=60)
        traj = full_run(drive, {"Om": om, "delta": delta}, SPACE, psi0, grid)
        obs = observables(traj, SPACE, reference=traj)
        expected = 1.0 - rabi_survival(0.0, -delta, om, grid.times)
        np.testing.assert_allclose(obs.populations["r"], expected, atol=1e-5)

    def test_unitarity_and_norm_on_both_paths(self):
        # both paths keep the norm, the Fourier one once its order converged
        params = {"g1": 1.0, "g2": 1.0, "Omega": 1.0, "delta": 60.0}
        psi0 = build_state("e,0", SPACE)
        grid = TimeGrid(t_end=2.0, samples=5)
        methods = []
        for drive in (three_level_drive(), ungraded_three_level_drive()):
            traj = full_run(drive, params, SPACE, psi0, grid)
            methods.append(traj.meta["method"])
            assert traj.meta["norm_drift"] < 1e-8
        assert methods == ["exact", "fourier"]

    def test_norm_drift_of_an_unconverged_fourier_order(self, monkeypatch):
        # at delta = 1 the drive is as strong as the detuning, and the sum of
        # Fourier blocks cut at K = 2 is far from unitary
        monkeypatch.setattr(dynamics, "FOURIER_ORDERS", (1, 2))
        space = SpaceSpec(LEVELS, 3)
        params = {"g1": 1.0, "g2": 1.0, "Omega": 1.0, "delta": 1.0}
        psi0 = build_state("e,0", space)
        traj = full_run(ungraded_three_level_drive(), params, space, psi0, TimeGrid(50.0, 40))
        assert traj.meta["fourier_order"] == 2
        drift = max(abs(1 - math.sqrt(sum(abs(x) ** 2 for x in state))) for state in traj.states)
        assert drift > 1e-2
        assert traj.meta["norm_drift"] == pytest.approx(drift, rel=1e-12)

    @pytest.mark.parametrize(
        "drive, params",
        [
            pytest.param(
                ungraded_three_level_drive(),
                {"g1": 1.0, "g2": 0.8, "Omega": 0.5, "delta": 50.0},
                id="three-level-delta+50",
            ),
            pytest.param(
                ungraded_three_level_drive(),
                {"g1": 1.0, "g2": 0.8, "Omega": 0.5, "delta": -50.0},
                id="three-level-delta-50",
            ),
            pytest.param(
                drive_only(COUNTER_ROTATING),
                {"Om": 1.0, "delta": 50.0},
                id="counter-rotating",
            ),
            pytest.param(
                drive_only(COUNTER_ROTATING),
                {"Om": 1.0, "delta": 5.0},
                id="counter-rotating-order-8",
            ),
            pytest.param(
                drive_of(
                    ("Om", OperatorExpr.sigma("g", "r")), ("s", OperatorExpr.sigma("g", "g"))
                ),
                {"Om": 1.0, "s": 0.7, "delta": 50.0},
                id="diagonal-term",
            ),
        ],
    )
    def test_fourier_path_matches_lab_frame_integration(self, drive, params):
        # on a coupling without a grading, the Fourier-block run must agree
        # with an independent lab-frame integration of the time-dependent
        # H(t), at either sign of delta, and keep the norm; psi0 spreads over
        # every basis state, so each sector of each model moves
        psi0 = np.exp(1j * np.arange(SPACE.dim)) / math.sqrt(SPACE.dim)
        grid = TimeGrid(t_end=1.0, samples=4)
        traj = full_run(drive, params, SPACE, psi0, grid)
        assert traj.meta["method"] == "fourier"
        reference = lab_frame_dop853(drive, params, psi0, grid.times)
        assert float(np.max(np.abs(traj.states - reference))) <= 1e-8
        assert traj.meta["norm_drift"] < 1e-8

    @pytest.mark.parametrize("delta", [50.0, -50.0])
    def test_exact_path_matches_lab_frame_dop853(self, delta):
        # the rotating-frame solution against an independent lab-frame
        # integration of the time-dependent H(t)
        drive = three_level_drive()
        params = {"g1": 1.0, "g2": 0.8, "Omega": 0.5, "delta": delta}
        psi0 = np.exp(1j * np.arange(SPACE.dim)) / math.sqrt(SPACE.dim)
        grid = TimeGrid(t_end=1.0, samples=7)
        traj = full_run(drive, params, SPACE, psi0, grid)
        assert traj.meta["method"] == "exact"
        reference = lab_frame_dop853(drive, params, psi0, grid.times)
        assert float(np.max(np.abs(traj.states - reference))) <= 1e-8

    @given(data=st.data())
    @settings(max_examples=25, deadline=None)
    def test_exact_path_matches_lab_frame_dop853_on_random_drives(self, data):
        # 2-4 levels and 1-3 channels sig(i,j)*ad^p*a^q (i != j, p + q <= 2);
        # only the drives with a grading take the exact path
        levels = ("g", "r", "e", "f")[: data.draw(st.integers(2, 4))]
        channels = []
        for k in range(data.draw(st.integers(1, 3))):
            i, j = data.draw(st.permutations(levels))[:2]
            p = data.draw(st.integers(0, 2))
            q = data.draw(st.integers(0, 2 - p))
            op = OperatorExpr.sigma(i, j)
            for factor in [OperatorExpr.create()] * p + [OperatorExpr.annihilate()] * q:
                op = op * factor
            channels.append((f"c{k}", op))
        params = {sym: data.draw(st.floats(0.5, 1.5)) for sym, _ in channels}
        params["delta"] = data.draw(st.sampled_from((1.0, -1.0))) * data.draw(
            st.floats(30.0, 200.0)
        )
        space = SpaceSpec(levels, data.draw(st.integers(3, 6)))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        psi0 = rng.normal(size=space.dim) + 1j * rng.normal(size=space.dim)
        psi0 /= np.linalg.norm(psi0)
        grid = TimeGrid(t_end=1.0, samples=7)
        drive = drive_of(*channels)
        traj = full_run(drive, params, space, psi0, grid)
        assume(traj.meta["method"] == "exact")
        reference = lab_frame_dop853(drive, params, psi0, grid.times, space)
        assert float(np.max(np.abs(traj.states - reference))) <= 1e-8

    def test_zero_coupling_keeps_the_grading(self):
        # sig(g,g) rules a grading out, but at s = 0 its entries vanish and
        # the run is the three-level model's own exact one
        drive = three_level_drive()
        diag = drive + drive_of(("s", OperatorExpr.sigma("g", "g")))
        params = {"g1": 1.0, "g2": 0.8, "Omega": 0.5, "delta": 50.0}
        psi0 = build_state("e,0", SPACE)
        grid = TimeGrid(t_end=1.0, samples=7)
        traj = full_run(diag, {**params, "s": 0.0}, SPACE, psi0, grid)
        assert traj.meta["method"] == "exact"
        np.testing.assert_array_equal(
            traj.states, full_run(drive, params, SPACE, psi0, grid).states
        )

    def test_graded_propagation_takes_one_eigh(self, monkeypatch):
        # with a grading every sample comes from one eigendecomposition of
        # M + M^dag + delta*diag(G), with no time step
        eigh = np.linalg.eigh
        calls = []

        def counting_eigh(a, *args, **kwargs):
            calls.append(np.shape(a))
            return eigh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
        params = {"g1": 1.0, "g2": 0.8, "Omega": 0.5, "delta": 50.0}
        psi0 = build_state("e,0", SPACE)
        grid = TimeGrid(t_end=1.0, samples=7)  # off-grid samples: partial steps
        traj = full_run(three_level_drive(), params, SPACE, psi0, grid)
        assert traj.meta["method"] == "exact"
        assert traj.meta["step"] == grid.t_end
        assert calls == [(SPACE.dim, SPACE.dim)]

    def test_printed_order_stable_when_doubled(self, monkeypatch):
        # the printed run does not move when the Fourier order is doubled
        # once more: the ladder is restarted at the order it stopped at
        drive = ungraded_three_level_drive()
        params = {"g1": 1.0, "g2": 1.0, "Omega": 1.0, "delta": 100.0}
        psi0 = build_state("e,0", SPACE)
        grid = TimeGrid(t_end=1.0, samples=6)
        printed = full_run(drive, params, SPACE, psi0, grid)
        order = printed.meta["fourier_order"]
        monkeypatch.setattr(dynamics, "FOURIER_ORDERS", (order, 2 * order))
        refined = full_run(drive, params, SPACE, psi0, grid)
        assert refined.meta["fourier_order"] == 2 * order
        assert refined.meta["refinement_change"] < 1e-6
        assert float(np.max(np.abs(printed.states - refined.states))) < 1e-6

    def test_zero_detuning_is_the_static_drive(self):
        # propagate_full never divides by delta: at delta = 0 the graded
        # drive is the constant Hamiltonian M + M^dag
        from scipy.linalg import expm

        params = {"g1": 1.0, "g2": 0.8, "Omega": 0.5}
        m = realize(three_level_drive(), SPACE, params)
        psi0 = build_state("e,0", SPACE)
        grid = TimeGrid(t_end=2.0, samples=5)
        grade = realized_grading(three_level_drive(), params, SPACE)
        traj = propagate_full(m, 0.0, psi0, grid, grade)
        assert traj.meta["method"] == "exact"
        expected = [expm(-1j * (m + m.conj().T) * t) @ psi0 for t in grid.times]
        np.testing.assert_allclose(traj.states, expected, rtol=0, atol=1e-12)

    def test_unresolvable_phase_rejected(self):
        # a coupling of 1e200 gives phases near 1e202 rad, whose rounding
        # alone is far above CONVERGENCE_TOL
        params = {"g1": 1e200, "g2": 1.0, "Omega": 1.0, "delta": 100.0}
        with pytest.raises(ValueError, match="beyond what double precision resolves"):
            full_run(
                three_level_drive(), params, SPACE, build_state("e,0", SPACE),
                TimeGrid(t_end=1.0, samples=5),
            )

    def test_negative_detuning_matches_positive(self):
        # H_eff keeps the sign of delta through 1/delta; the full dynamics must
        # be driven with the signed detuning to match it equally well at -delta
        drive = three_level_drive()
        psi0 = build_state("e,0", SPACE)
        grid = TimeGrid(t_end=5.0, samples=200)
        h_sym = effective_hamiltonian(drive)
        worst = []
        for delta in (100.0, -100.0):
            params = {"g1": 1.0, "g2": 1.0, "Omega": 1.0, "delta": delta}
            full = full_run(drive, params, SPACE, psi0, grid)
            eff = propagate_effective(realize(h_sym, SPACE, params), psi0, grid)
            worst.append(float(np.min(observables(full, SPACE, reference=eff).fidelity)))
        assert worst[0] > 0.999
        assert worst[1] == pytest.approx(worst[0], abs=1e-6)

    def test_excitation_number_conserved(self):
        # with channels Om sig(g,r) and g2 sig(e,r) a, the reachable set from
        # |e,0> is {e0, r1, g1}; n_mean = 1 - P_e exactly at all times
        drive = drive_of(
            ("g2", OperatorExpr.sigma("e", "r") * OperatorExpr.annihilate()),
            ("Om", OperatorExpr.sigma("g", "r")),
        )
        params = {"g2": 1.0, "Om": 1.0, "delta": 40.0}
        psi0 = build_state("e,0", SPACE)
        grid = TimeGrid(t_end=20.0, samples=40)
        traj = full_run(drive, params, SPACE, psi0, grid)
        obs = observables(traj, SPACE, reference=traj)
        np.testing.assert_allclose(
            obs.n_mean, 1.0 - obs.populations["e"], atol=1e-8
        )
        # nothing leaks out of the closed three-state sector
        sector = [SPACE.index("e", 0), SPACE.index("r", 1), SPACE.index("g", 1)]
        outside = np.delete(np.abs(traj.states) ** 2, sector, axis=1).sum(axis=1)
        assert float(np.max(outside)) < 1e-10


class TestEffectivePropagation:
    PARAMS = {"g1": 1.0, "g2": 1.0, "Omega": 1.0, "delta": 100.0}

    def _projected(self, drive, params):
        h = project_out_level(effective_hamiltonian(drive), "r")
        return realize(h, SPACE, params)

    def test_initial_sample_is_psi0(self):
        h = self._projected(three_level_drive(), self.PARAMS)
        psi0 = build_state("e,0", SPACE)
        traj = propagate_effective(h, psi0, TimeGrid(t_end=5.0, samples=7))
        np.testing.assert_allclose(traj.states[0], psi0, atol=1e-12)

    def test_one_photon_rabi_oracle(self):
        # channels g2, Omega only: |e,0> <-> |g,1> with
        # E1 = g2^2/d, E2 = Om^2/d, V = Om g2/d
        g2, om, d = 1.0, 0.5, 100.0
        drive = drive_of(
            ("g2", OperatorExpr.sigma("e", "r") * OperatorExpr.annihilate()),
            ("Omega", OperatorExpr.sigma("g", "r")),
        )
        h = self._projected(drive, {"g2": g2, "Omega": om, "delta": d})
        psi0 = build_state("e,0", SPACE)
        grid = TimeGrid(t_end=3.0 * d / (om * g2), samples=90)
        traj = propagate_effective(h, psi0, grid)
        obs = observables(traj, SPACE, reference=traj)
        expected = rabi_survival(g2**2 / d, om**2 / d, om * g2 / d, grid.times)
        np.testing.assert_allclose(obs.populations["e"], expected, atol=1e-8)

    def test_two_photon_rabi_oracle(self):
        # channels g1, g2 only: |e,0> <-> |g,2> with
        # E1 = g2^2/d, E2 = 2 g1^2/d, V = sqrt(2) g1 g2/d
        g1, g2, d = 0.8, 1.0, 100.0
        drive = drive_of(
            ("g1", OperatorExpr.sigma("g", "r") * OperatorExpr.create()),
            ("g2", OperatorExpr.sigma("e", "r") * OperatorExpr.annihilate()),
        )
        h = self._projected(drive, {"g1": g1, "g2": g2, "delta": d})
        psi0 = build_state("e,0", SPACE)
        grid = TimeGrid(t_end=2.0 * d / (g1 * g2), samples=80)
        traj = propagate_effective(h, psi0, grid)
        obs = observables(traj, SPACE, reference=traj)
        expected = rabi_survival(
            g2**2 / d, 2.0 * g1**2 / d, math.sqrt(2) * g1 * g2 / d, grid.times
        )
        np.testing.assert_allclose(obs.populations["e"], expected, atol=1e-8)
        # photons come in pairs: n_mean = 2 P_g
        np.testing.assert_allclose(
            obs.n_mean, 2.0 * obs.populations["g"], atol=1e-10
        )

    def test_unprojected_two_photon_rabi_oracle(self):
        # the realized [M, M^dag]/delta of the three-level model with the
        # drive off: |e,0> <-> |g,2> with E1 = g2^2/d, E2 = 2 g1^2/d and
        # V = sqrt(2) g1 g2/d, whatever r's own shifts are
        d = 100.0
        params = {"g1": 1.0, "g2": 1.0, "Omega": 0.0, "delta": d}
        h = realize(effective_hamiltonian(three_level_drive()), SPACE, params)
        grid = TimeGrid(t_end=200.0, samples=40)
        traj = propagate_effective(h, build_state("e,0", SPACE), grid)
        obs = observables(traj, SPACE, reference=traj)
        expected = rabi_survival(1.0 / d, 2.0 / d, math.sqrt(2) / d, grid.times)
        np.testing.assert_allclose(obs.populations["e"], expected, atol=1e-6)

    def test_unprojected_generator_never_populates_r(self):
        # r enters [M, M^dag]/delta only on its diagonal, so |e,0> never
        # reaches it, and the run starts at psi0 and keeps its norm
        h = realize(effective_hamiltonian(three_level_drive()), SPACE, self.PARAMS)
        psi0 = build_state("e,0", SPACE)
        traj = propagate_effective(h, psi0, TimeGrid(t_end=50.0, samples=40))
        obs = observables(traj, SPACE, reference=traj)
        np.testing.assert_allclose(traj.states[0], psi0, atol=1e-12)
        total = sum(obs.populations[lv] for lv in LEVELS)
        np.testing.assert_allclose(total, np.ones(40), atol=1e-9)
        assert float(np.max(obs.populations["r"])) < 1e-9

    def test_projected_generator_never_populates_r(self):
        h = self._projected(three_level_drive(), self.PARAMS)
        psi0 = build_state("e,0", SPACE)
        traj = propagate_effective(h, psi0, TimeGrid(t_end=200.0, samples=50))
        obs = observables(traj, SPACE, reference=traj)
        assert float(np.max(obs.populations["r"])) < 1e-10

    def test_time_reversal(self):
        h = self._projected(three_level_drive(), self.PARAMS)
        psi0 = build_state("e,0", SPACE)
        grid = TimeGrid(t_end=100.0, samples=3)
        fwd = propagate_effective(h, psi0, grid)
        back = propagate_effective(-h, fwd.states[-1], grid)
        np.testing.assert_allclose(back.states[-1], psi0, atol=1e-10)

    def test_rotated_si_scale_generator(self):
        # (M M^dag - M^dag M)/delta of rb85 at 7e6 rad/s, turned by a seeded
        # random unitary Q: Hermitian to a relative 1e-15, but its absolute
        # defect is near 1e-9, so it is evolved in any basis, as e^{-iHt}
        # turned by Q
        scenario = parse_scenario((REPO_ROOT / "presets" / "rb85.cfg").read_text())
        params = {**scenario.params, "g1": 7e6, "g2": 7e6, "Omega": 7e6}
        m = realize(scenario.drive, scenario.space, params)
        h = (m @ m.conj().T - m.conj().T @ m) / params["delta"]
        rng = np.random.default_rng(7)
        q = np.linalg.qr(rng.normal(size=h.shape) + 1j * rng.normal(size=h.shape))[0]
        rotated = q @ h @ q.conj().T
        assert hermiticity_defect(rotated) > 1e-10
        psi0, grid = scenario.state(), TimeGrid(t_end=5e-3, samples=20)
        turned = propagate_effective(h, psi0, grid).states @ q.T
        traj = propagate_effective(rotated, q @ psi0, grid)
        np.testing.assert_allclose(traj.states, turned, rtol=0, atol=1e-9)
        np.testing.assert_allclose(np.linalg.norm(traj.states, axis=1), 1.0, rtol=0, atol=1e-12)


class TestObservables:
    def test_grid_mismatch_rejected(self):
        h = realize(
            project_out_level(effective_hamiltonian(three_level_drive()), "r"),
            SPACE,
            {"g1": 1.0, "g2": 1.0, "Omega": 1.0, "delta": 100.0},
        )
        psi0 = build_state("e,0", SPACE)
        a = propagate_effective(h, psi0, TimeGrid(t_end=1.0, samples=5))
        b = propagate_effective(h, psi0, TimeGrid(t_end=2.0, samples=5))
        with pytest.raises(
            ValueError, match="^reference trajectory uses a different time grid$"
        ):
            observables(a, SPACE, reference=b)

    def test_populations_sum_to_one(self):
        drive = three_level_drive()
        params = {"g1": 1.0, "g2": 1.0, "Omega": 1.0, "delta": 60.0}
        psi0 = build_state("e,0", SPACE)
        traj = full_run(drive, params, SPACE, psi0, TimeGrid(5.0, 11))
        obs = observables(traj, SPACE, reference=traj)
        total = sum(obs.populations[lv] for lv in LEVELS)
        np.testing.assert_allclose(total, np.ones(11), atol=1e-10)

    def test_fidelity_of_identical_trajectories(self):
        drive = three_level_drive()
        params = {"g1": 1.0, "g2": 1.0, "Omega": 1.0, "delta": 60.0}
        psi0 = build_state("e,0", SPACE)
        traj = full_run(drive, params, SPACE, psi0, TimeGrid(2.0, 6))
        obs = observables(traj, SPACE, reference=traj)
        np.testing.assert_allclose(obs.fidelity, np.ones(6), atol=1e-10)

    def test_fidelity_is_the_squared_overlap(self):
        # |g,0> and (|g,0> + c|g,1>)/sqrt(2) at each sample; Fock n of g is entry n
        r = 1 / math.sqrt(2)
        rows = [([1, 0], [r, r]), ([r, 1j * r], [r, 1j * r]), ([r, 1j * r], [r, r])]
        states = np.zeros((2, len(rows), SPACE.dim), dtype=complex)
        for idx, pair in enumerate(rows):
            for side, amplitudes in enumerate(pair):
                states[side, idx, :2] = amplitudes
        times = np.arange(len(rows), dtype=float)
        ref, traj = (Trajectory(times, side, {}) for side in states)
        fidelity = observables(traj, SPACE, reference=ref).fidelity
        expected = [abs(sum(x.conjugate() * y for x, y in zip(*pair))) ** 2 for pair in rows]
        np.testing.assert_allclose(expected, [0.5, 1.0, 0.5], atol=1e-15)
        np.testing.assert_allclose(fidelity, expected, atol=1e-15)


def scan_scenario(drive, params, initial="e,0"):
    """``drive`` on SPACE from ``initial``, over t <= 1 at 40 samples."""
    return Scenario(drive, params, SPACE, TimeGrid(t_end=1.0, samples=40), initial)


class TestDispersiveScan:
    PARAMS = {"g1": 1.0, "g2": 1.0, "Omega": 1.0, "delta": 100.0}

    def _scan(self, values, key="delta", params=PARAMS):
        return scan(scan_scenario(three_level_drive(), params), key, values)

    @pytest.mark.parametrize(
        "key, values, message",
        [
            ("k", [50.0], "unknown sweep parameter 'k'"),
            ("g1", [math.nan], "g1=nan is not finite"),
            ("delta", [100.0, math.inf], "delta=inf is not finite"),
            # bound, but outside the drive: every row would be the same run
            ("foo", [1.0, 2.0], "sweep parameter 'foo' is used by no channel"),
        ],
        ids=["unknown-key", "nan", "inf-after-a-good-row", "key-used-by-no-channel"],
    )
    def test_key_and_values_checked_before_any_full_run(self, monkeypatch, key, values, message):
        def no_full_run(*args, **kwargs):
            raise AssertionError("propagated a row before checking the key and values")

        monkeypatch.setattr(dynamics, "propagate_full", no_full_run)
        with pytest.raises(ValueError, match=message):
            self._scan(values, key=key, params={**self.PARAMS, "foo": 1.0})

    def test_ratio_below_hard_floor_rejected(self):
        # the row keeps its run's record, with the floor's message as its error
        (row,) = self._scan([4.0])
        assert row.error == (
            f"detuning/coupling ratio {row.health['dispersive_ratio']:.2f} "
            "below required minimum 5"
        )
        assert row.health["dispersive_ratio"] < 5 and not row.included
        assert row.max_infidelity > 0

    def test_row_that_fails_as_it_runs_is_kept_in_order(self, monkeypatch):
        # the 1e6 row's horizon 10*|delta|/lam^2 is 1e7, over which its
        # phases round by 2.2e-3; the row after it still runs, and the
        # failed row leaves the slope as the other two give it
        calls = []
        propagate_full = dynamics.propagate_full

        def counting(*args, **kwargs):
            calls.append(args)
            return propagate_full(*args, **kwargs)

        monkeypatch.setattr(dynamics, "propagate_full", counting)
        rows = self._scan([100.0, 1e6, 200.0])
        assert [row.delta for row in rows] == [100.0, 1e6, 200.0]
        assert len(calls) == 3
        failed = rows[1]
        assert failed.error.startswith("phase rounding 2.220e-03 > 1e-03: ")
        assert (failed.max_infidelity, failed.included, failed.health) == (None, False, {})
        kept = self._scan([100.0, 200.0])
        assert rows[::2] == kept
        assert slope(rows) == slope(kept)

    def test_row_whose_model_fails_is_kept_in_order(self):
        # a zero detuning fails the config's own rule, and the horizon
        # 10*1e308/lam^2 is not a valid t_end; each is its own row's error,
        # beside the rows that ran, and keeps the row's detuning
        rows = self._scan([0.0, 100.0, 1e308])
        assert [row.delta for row in rows] == [0.0, 100.0, 1e308]
        assert [row.error for row in rows[::2]] == [
            "detuning 'delta' is zero; the dispersive expansion divides by it",
            "t_end must be positive and finite, got inf in the horizon of sweep row delta=1e+308",
        ]
        for failed in rows[::2]:
            assert (failed.max_infidelity, failed.included, failed.health) == (None, False, {})
        assert rows[1:2] == self._scan([100.0])

    def test_unbound_detuning_fails_each_row(self):
        # a hand-built scenario skips the parser's checks; each row ends in
        # the config's ValueError for the missing binding, and has no detuning
        params = {key: value for key, value in self.PARAMS.items() if key != "delta"}
        rows = self._scan([0.5, 1.0], key="g1", params=params)
        assert [row.error for row in rows] == ["parameter symbol 'delta' has no numeric binding"] * 2
        assert all(math.isnan(row.delta) for row in rows)
        with pytest.raises(ValueError, match="^parameter symbol 'delta' has no numeric binding$"):
            dynamics.dispersive_ratio(three_level_drive(), params, 0.0)

    def test_each_row_derives_h_eff_once(self, monkeypatch):
        # the row's run is the one place H_eff is derived
        calls = []
        derive = dynamics.effective_hamiltonian

        def counting(drive):
            calls.append(drive)
            return derive(drive)

        monkeypatch.setattr(dynamics, "effective_hamiltonian", counting)
        rows = self._scan([40.0, 80.0, 160.0])
        assert len(calls) == 3 and all(row.error is None for row in rows)

    @pytest.mark.filterwarnings("error")
    def test_marginal_ratio_warns_and_excludes(self):
        # the verdict is recorded in the row, not warned; the CLI reports it
        rows = self._scan([10.0, 40.0, 80.0])
        flags = {row.delta: row.included for row in rows}
        assert flags == {10.0: False, 40.0: True, 80.0: True}
        # excluded row does not enter the fit but is still reported
        assert all(row.max_infidelity > 0 for row in rows)

    def test_ratio_counts_photon_enhanced_coupling(self):
        # The dispersive condition compares the detuning with the coupling
        # the dynamics sees, lam*sqrt(n+1), not with the bare symbol value;
        # n is taken along the row's full run.
        drive = three_level_drive()
        grid = TimeGrid(t_end=1.0, samples=40)
        delta = 20.0  # exactly 20x the bare unit coupling
        ratios = {}
        for descriptor in ("e,0", "g,coherent(2.0)"):
            psi0 = build_state(descriptor, SPACE)
            (row,) = scan(scan_scenario(drive, self.PARAMS, descriptor), "delta", [delta])
            assert not row.included
            assert row.max_infidelity > 0

            local = dict(self.PARAMS, delta=delta)
            horizon = TimeGrid(t_end=10.0 * delta, samples=grid.samples)
            full = full_run(drive, local, SPACE, psi0, horizon)
            n_peak = float(np.max(observables(full, SPACE, reference=full).n_mean))
            assert n_peak > 1.0
            ratio = row.health["dispersive_ratio"]
            assert ratio == pytest.approx(delta / math.sqrt(n_peak + 1.0), rel=1e-12)
            ratios[descriptor] = ratio
        assert ratios["g,coherent(2.0)"] < ratios["e,0"] < delta

    @pytest.mark.parametrize("key, value", [("delta", 60.0), ("g1", 0.5)])
    def test_row_reports_its_one_full_run(self, key, value):
        # a Fourier row prints its one run; a detuning row runs on
        # 10*|delta|/lam^2, any other key on the grid's own t_end
        drive = ungraded_three_level_drive()
        scenario = scan_scenario(drive, self.PARAMS)
        psi0, grid = scenario.state(), scenario.grid
        (row,) = scan(scenario, key, [value])
        local = dict(self.PARAMS, **{key: value})
        t_end = 10.0 * local["delta"] if key == "delta" else grid.t_end
        horizon = TimeGrid(t_end=t_end, samples=grid.samples)
        full = full_run(drive, local, SPACE, psi0, horizon)
        eff = propagate_effective(
            realize(effective_hamiltonian(drive), SPACE, local), psi0, horizon
        )
        fidelity = observables(full, SPACE, reference=eff).fidelity
        assert full.meta["method"] == "fourier"
        assert row.max_infidelity == pytest.approx(1.0 - fidelity.min(), abs=1e-12)
        meta = {k: v for k, v in full.meta.items() if k != "step"}
        assert {k: row.health[k] for k in meta} == meta
        assert row.health["refinement_change"] > 0.0

    @pytest.mark.parametrize("graded", [True, False], ids=["graded", "ungraded"])
    @pytest.mark.parametrize("key, value", [("delta", 60.0), ("g1", 0.5)])
    def test_row_health_is_its_run_record(self, graded, key, value):
        # a row is one run of the scenario at the row's params and grid
        drive = three_level_drive() if graded else ungraded_three_level_drive()
        scenario = scan_scenario(drive, self.PARAMS)
        (row,) = scan(scenario, key, [value])
        local = dict(self.PARAMS, **{key: value})
        t_end = 10.0 * local["delta"] if key == "delta" else scenario.grid.t_end
        grid = TimeGrid(t_end=t_end, samples=scenario.grid.samples)
        result = dynamics.run(scenario._replace(params=local, grid=grid))
        assert row.health == result.health
        assert row.max_infidelity == 1.0 - float(result.observables.fidelity.min())
        assert row.health["method"] == ("exact" if graded else "fourier")

    def test_a_row_whose_counter_rotating_term_vanishes_is_exact(self):
        # the frame is solved at each row's params: at Omega = 0 the
        # sig(r,g) term is zero, so that row keeps the exact path
        scenario = scan_scenario(ungraded_three_level_drive(), self.PARAMS)
        rows = scan(scenario, "Omega", [0.0, 1.0])
        assert [row.health["method"] for row in rows] == ["exact", "fourier"]

    def test_detuning_row_horizon_divides_by_lam_squared(self):
        # lam_max = Omega = 2, so the row runs on 10 * 100 / 2**2, not on
        # 10 * 100 / 2 as a horizon over lam alone would
        params = {**self.PARAMS, "Omega": 2.0}
        scenario = scan_scenario(three_level_drive(), params)
        (row,) = scan(scenario, "delta", [100.0])
        grid = TimeGrid(t_end=250.0, samples=scenario.grid.samples)
        result = dynamics.run(scenario._replace(grid=grid))
        assert row.health == result.health
        assert row.max_infidelity == 1.0 - float(result.observables.fidelity.min())

    def test_graded_row_runs_once(self):
        # an exact row has no order to refine: it prints its one run and
        # has no refinement change
        drive = three_level_drive()
        psi0 = build_state("e,0", SPACE)
        (row,) = scan(scan_scenario(drive, self.PARAMS), "delta", [60.0])
        local = dict(self.PARAMS, delta=60.0)
        horizon = TimeGrid(t_end=600.0, samples=40)
        exact = full_run(drive, local, SPACE, psi0, horizon)
        eff = propagate_effective(
            realize(effective_hamiltonian(drive), SPACE, local), psi0, horizon
        )
        fidelity = observables(exact, SPACE, reference=eff).fidelity
        assert row.max_infidelity == pytest.approx(1.0 - fidelity.min(), abs=1e-12)
        assert row.health["method"] == "exact"
        assert row.health["fourier_order"] is None
        assert row.health["refinement_change"] is None

    def test_slope_fits_absolute_detuning(self):
        # rows at negative detuning fit on log|delta|, the same as their mirror
        def rows(sign):
            return [
                ScanRow(delta=sign * d, max_infidelity=d**-2.0, included=True, health={},
                        error=None)
                for d in (50.0, 100.0, 200.0)
            ]

        assert slope(rows(-1.0)) == pytest.approx(-2.0, rel=1e-12)
        assert slope(rows(-1.0)) == pytest.approx(slope(rows(1.0)), rel=1e-12)
        # a mirrored pair has one |delta|, so there is nothing to fit
        mirrored = [
            ScanRow(delta=d, max_infidelity=1e-3, included=True, health={}, error=None)
            for d in (-50.0, 50.0)
        ]
        assert slope(mirrored) is None

    def test_zero_coupling_scan(self):
        # an uncoupled row runs the zero drive on the scenario's own grid:
        # no lam_max**2 to divide by, and nothing moves
        params = {"g1": 0.0, "g2": 0.0, "Omega": 0.0, "delta": 100.0}
        scenario = scan_scenario(three_level_drive(), params)
        rows = scan(scenario, "delta", [50.0, 100.0])
        for row, delta in zip(rows, (50.0, 100.0), strict=True):
            result = dynamics.run(scenario._replace(params={**params, "delta": delta}))
            assert row.health == result.health
            assert row.health["dispersive_ratio"] is None and row.included
            assert row.max_infidelity == 0.0
        assert slope(rows) is None  # log of zero infidelity is undefined

    def test_slope_needs_two_included_rows(self):
        assert slope(self._scan([40.0])) is None

    def test_infidelity_shrinks_with_detuning(self):
        rows = self._scan([40.0, 160.0])
        inf = {row.delta: row.max_infidelity for row in rows}
        assert inf[160.0] < inf[40.0]
        fitted = slope(rows)
        assert fitted is not None and fitted < 0


class TestRun:
    SCENARIO = parse_scenario((REPO_ROOT / "presets" / "dimensionless.cfg").read_text())

    def test_converged_is_the_one_tolerance_test(self):
        assert dynamics.converged(None)  # an exact run has nothing to refine
        assert dynamics.converged(dynamics.CONVERGENCE_TOL)
        assert not dynamics.converged(2 * dynamics.CONVERGENCE_TOL)
        assert not dynamics.converged(math.nan)

    def test_both_takes_the_full_observables_and_meta(self):
        sc = self.SCENARIO
        result = dynamics.run(sc)
        psi0 = sc.state()
        full = full_run(sc.drive, sc.params, sc.space, psi0, sc.grid)
        h_mat = realize(effective_hamiltonian(sc.drive), sc.space, sc.params)
        eff = propagate_effective(h_mat, psi0, sc.grid)
        expected = observables(full, sc.space, reference=eff)
        np.testing.assert_array_equal(result.observables.n_mean, expected.n_mean)
        np.testing.assert_array_equal(result.observables.fidelity, expected.fidelity)
        meta = {key: value for key, value in full.meta.items() if key != "step"}
        assert {key: result.health[key] for key in meta} == meta
        assert set(result.health) == set(meta) | {
            "top_fock_population", "first_order_remainder_bound", "dispersive_ratio",
            "coherent_tail_mass",
        }

    def test_zero_detuning_rejected(self, monkeypatch):
        # a hand-built scenario skips the parser's check; run reads the
        # detuning once, before anything is realized
        def no_realize(*args, **kwargs):
            raise AssertionError("realized an operator before reading the detuning")

        monkeypatch.setattr(dynamics, "realize", no_realize)
        params = {"g1": 1.0, "g2": 1.0, "Omega": 1.0, "delta": 0.0}
        sc = Scenario(three_level_drive(), params, SPACE, TimeGrid(t_end=1.0, samples=5), "e,0")
        with pytest.raises(ValueError, match="^detuning 'delta' is zero; "):
            dynamics.run(sc)
