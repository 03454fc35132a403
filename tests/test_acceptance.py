"""End-to-end acceptance checks.

Each test prints exactly one PASS/FAIL line, then asserts.  Run with
``pytest -s tests/test_acceptance.py`` to see the lines as they come.
"""

import math
import random

import numpy as np

from dforge import (
    OperatorExpr,
    Scenario,
    SpaceSpec,
    TimeGrid,
    adjoint,
    build_state,
    effective_hamiltonian,
    hermiticity_defect,
    multiply,
    observables,
    parse_operator_expr,
    parse_scenario,
    pretty,
    project_out_level,
    propagate_effective,
    realize,
    scan,
    slope,
)

from conftest import (
    LEVELS,
    REPO_ROOT,
    buffered_indices,
    drive_of,
    full_run,
    kick_bound,
    rabi_survival,
    random_expr,
    three_level_drive,
)


def report(num: int, name: str, ok: bool, detail: str = ""):
    line = f"ACCEPTANCE {num} {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  [{detail}]"
    print(line)
    assert ok, line


def test_acceptance_1_symbolic_golden():
    h = project_out_level(effective_hamiltonian(three_level_drive()), "r")
    expected_text = (
        "g1*g1/delta*sig(g,g)*ad*a"
        " + g2*g2/delta*sig(e,e)*a*ad"
        " + Omega*Omega/delta*sig(g,g)"
        " + Omega*g2/delta*(sig(g,e)*ad + sig(e,g)*a)"
        " + g1*g2/delta*(sig(g,e)*ad*ad + sig(e,g)*a*a)"
        " + Omega*g1/delta*(ad + a)*sig(g,g)"
    )
    expected = parse_operator_expr(expected_text, LEVELS)
    golden_file = (REPO_ROOT / "goldens" / "rb85_heff_projected.txt").read_text()
    ok = h == expected and pretty(h) == golden_file.strip()
    report(1, "symbolic-golden", ok, f"{len(h.terms)} canonical monomials")


def test_acceptance_2_homomorphism():
    space = SpaceSpec(LEVELS, 12)
    rng = random.Random(20260825)
    worst = 0.0
    for _ in range(500):
        x = random_expr(rng, max_terms=3, max_boson=3)
        y = random_expr(rng, max_terms=3, max_boson=3)
        deg = x.max_boson_degree() + y.max_boson_degree()
        keep = buffered_indices(space, deg)
        lhs = realize(multiply(x, y), space, {})[np.ix_(keep, keep)]
        rhs = (realize(x, space, {}) @ realize(y, space, {}))[np.ix_(keep, keep)]
        worst = max(worst, float(np.max(np.abs(lhs - rhs))))
        if worst > 1e-9:
            break
    report(2, "algebra-matrix-homomorphism", worst <= 1e-9, f"max defect {worst:.2e}")


def test_acceptance_3_hermiticity_unitarity():
    rng = random.Random(7)
    symbolic_ok = True
    for idx in range(100):
        channels = []
        for c in range(rng.randint(1, 3)):
            i, j = rng.sample(LEVELS, 2)
            op = OperatorExpr.sigma(i, j)
            for _ in range(rng.randint(0, 2)):
                op = op * (
                    OperatorExpr.create()
                    if rng.random() < 0.5
                    else OperatorExpr.annihilate()
                )
            if op.is_zero():
                op = OperatorExpr.sigma(i, j)
            channels.append((f"c{c}", op))
        h = effective_hamiltonian(drive_of(*channels))
        if h != adjoint(h):
            symbolic_ok = False
            break

    space = SpaceSpec(LEVELS, 8)
    params = {"g1": 1.0, "g2": 1.0, "Omega": 1.0, "delta": 60.0}
    traj = full_run(
        three_level_drive(),
        params,
        space,
        build_state("e,0", space),
        TimeGrid(t_end=3.0, samples=7),
    )
    # the exact path's norm drift: its eigenvectors are orthonormal to rounding
    drift = traj.meta["norm_drift"]
    ok = symbolic_ok and drift <= 1e-8
    report(3, "hermiticity-unitarity", ok, f"norm drift {drift:.2e}")


def test_acceptance_4_sector_oracles():
    space = SpaceSpec(LEVELS, 8)
    psi0 = build_state("e,0", space)
    d = 100.0

    # one-photon sector: channels (g2, sig(e,r) a) and (Omega, sig(g,r))
    g2, om = 1.0, 0.5
    drive1 = drive_of(
        ("g2", OperatorExpr.sigma("e", "r") * OperatorExpr.annihilate()),
        ("Omega", OperatorExpr.sigma("g", "r")),
    )
    h1 = realize(
        project_out_level(effective_hamiltonian(drive1), "r"),
        space,
        {"g2": g2, "Omega": om, "delta": d},
    )
    grid1 = TimeGrid(t_end=3.0 * d / (om * g2), samples=120)
    eff1 = propagate_effective(h1, psi0, grid1)
    obs1 = observables(eff1, space, reference=eff1)
    err1 = float(
        np.max(
            np.abs(
                obs1.populations["e"]
                - rabi_survival(g2**2 / d, om**2 / d, om * g2 / d, grid1.times)
            )
        )
    )

    # two-photon sector: channels (g1, sig(g,r) ad) and (g2, sig(e,r) a)
    g1 = 0.8
    drive2 = drive_of(
        ("g1", OperatorExpr.sigma("g", "r") * OperatorExpr.create()),
        ("g2", OperatorExpr.sigma("e", "r") * OperatorExpr.annihilate()),
    )
    h2 = realize(
        project_out_level(effective_hamiltonian(drive2), "r"),
        space,
        {"g1": g1, "g2": g2, "delta": d},
    )
    grid2 = TimeGrid(t_end=2.0 * d / (g1 * g2), samples=120)
    eff2 = propagate_effective(h2, psi0, grid2)
    obs2 = observables(eff2, space, reference=eff2)
    err2 = float(
        np.max(
            np.abs(
                obs2.populations["e"]
                - rabi_survival(
                    g2**2 / d,
                    2.0 * g1**2 / d,
                    math.sqrt(2) * g1 * g2 / d,
                    grid2.times,
                )
            )
        )
    )
    ok = err1 <= 1e-6 and err2 <= 1e-8
    report(
        4,
        "analytic-sector-oracles",
        ok,
        f"one-photon err {err1:.2e}, two-photon err {err2:.2e}",
    )


def test_acceptance_5_dispersive_convergence():
    drive = three_level_drive()
    params = {"g1": 1.0, "g2": 1.0, "Omega": 1.0, "delta": 100.0}
    space = SpaceSpec(LEVELS, 15)
    grid = TimeGrid(t_end=1.0, samples=201)
    deltas = [20.0, 50.0, 100.0, 200.0]
    rows = scan(Scenario(drive, params, space, grid, "e,0"), "delta", deltas)
    inf = [row.max_infidelity for row in rows]
    fitted = slope(rows)
    monotone = all(a > b for a, b in zip(inf, inf[1:]))
    fidelity_100 = 1.0 - inf[deltas.index(100.0)]
    slope_ok = fitted is not None and -2.6 <= fitted <= -1.4
    ok = monotone and slope_ok and fidelity_100 >= 0.99
    table = ", ".join(f"d={d:g}: {x:.3e}" for d, x in zip(deltas, inf))
    report(
        5,
        "dispersive-convergence",
        ok,
        f"{table}; slope {fitted:.3f}; min fidelity at d=100 {fidelity_100:.5f}",
    )


def test_acceptance_6_remainder_scaling():
    drive = three_level_drive()
    space = SpaceSpec(LEVELS, 15)
    params = {"g1": 1.0, "g2": 0.7, "Omega": 0.4, "delta": 100.0}
    base = kick_bound(drive, params, space)
    scaled = dict(params)
    for key in ("g1", "g2", "Omega"):
        scaled[key] = 3.0 * params[key]
    lam_err = abs(
        kick_bound(drive, scaled, space) - 3.0 * base
    ) / (3.0 * base)
    far = dict(params, delta=5.0 * params["delta"])
    det_err = abs(
        kick_bound(drive, far, space) - base / 5.0
    ) / (base / 5.0)
    ok = lam_err <= 1e-12 and det_err <= 1e-12
    report(
        6,
        "remainder-bound-scaling",
        ok,
        f"coupling rel err {lam_err:.2e}, detuning rel err {det_err:.2e}",
    )


def test_acceptance_7_si_preset_sanity():
    text = (REPO_ROOT / "presets" / "rb85.cfg").read_text()
    scenario = parse_scenario(text)
    h = effective_hamiltonian(scenario.drive)
    mat = realize(h, scenario.space, scenario.params)
    defect = hermiticity_defect(mat)
    scale = (
        scenario.params["g1"] * scenario.params["g2"] / scenario.params["delta"]
    )
    scale_err = abs(scale - 2.0e3) / 2.0e3
    ok = (
        scenario.space.n_max == 20
        and defect <= 1e-12
        and scale_err <= 1e-12
    )
    report(
        7,
        "si-preset-sanity",
        ok,
        f"hermiticity defect {defect:.2e}, g1*g2/delta {scale:.6g} 1/s",
    )
