"""Checks of what the dforge CLI prints, against bench/model.py and against
properties the method must have.  Each check raises CheckFailed with the
reason, or returns the deviations it measured.

The tolerances sit a few times above the deviations of a correct run (see
README.md) and far below those of the wrong answers in test_checks.py.
"""

from __future__ import annotations

import numpy as np

import model

#: populations must sum to one within this (the CSV carries 12 digits)
POP_SUM_TOL = 1e-9
#: populations and n_mean against the DOP853 reference; a correct run is 4.3e-4 off
SIM_OBS_TOL = 2e-3
#: fidelity against the DOP853/expm reference; a correct run is 6e-7 off
SIM_FID_TOL = 1e-5
MIN_FIDELITY = 0.99
HERMITICITY_TOL = 1e-12
#: H_eff matrix against sum lam_j lam_k / delta [A_j, A_k^dag], relative to its norm
HEFF_REL_TOL = 1e-12


class CheckFailed(Exception):
    pass


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def read_csv(text: str) -> tuple[list[str], np.ndarray]:
    """Header and float rows of a dforge CSV; '#' lines are comments."""
    lines = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    _require(len(lines) >= 2, "CSV has no data rows")
    header = lines[0].split(",")
    try:
        rows = np.array([[float(x) for x in ln.split(",")] for ln in lines[1:]])
    except ValueError as exc:
        raise CheckFailed(f"CSV row is not numeric: {exc}") from None
    _require(rows.shape[1] == len(header), "CSV rows and header differ in width")
    return header, rows


def check_simulate(text: str, cfg: model.Config, ref: dict) -> dict:
    """A `simulate --mode both` CSV against the reference columns ``ref``."""
    header, rows = read_csv(text)
    expected = ["t"] + [f"P_{lv}" for lv in cfg.levels] + ["n_mean", "fidelity"]
    _require(header == expected, f"header {header} != {expected}")
    _require(len(rows) == cfg.samples, f"{len(rows)} rows, expected {cfg.samples}")
    col = {name: rows[:, k] for k, name in enumerate(header)}
    _require(np.allclose(col["t"], ref["t"], rtol=1e-9, atol=1e-12), "sample times differ")
    pops = sum(col[f"P_{lv}"] for lv in cfg.levels)
    pop_sum = float(np.max(np.abs(pops - 1.0)))
    _require(pop_sum <= POP_SUM_TOL, f"populations sum to 1 only within {pop_sum:.2e}")
    obs_dev = max(
        float(np.max(np.abs(col[name] - np.asarray(ref[name]))))
        for name in expected[1:-1]
    )
    _require(obs_dev <= SIM_OBS_TOL, f"populations/n_mean {obs_dev:.2e} from the reference")
    fid_dev = float(np.max(np.abs(col["fidelity"] - np.asarray(ref["fidelity"]))))
    _require(fid_dev <= SIM_FID_TOL, f"fidelity {fid_dev:.2e} from the reference")
    min_fid = float(np.min(col["fidelity"]))
    _require(min_fid >= MIN_FIDELITY, f"min fidelity {min_fid:.4f} < {MIN_FIDELITY}")
    return {"ref_dev": obs_dev, "fid_dev": fid_dev, "min_fidelity": min_fid}


def check_derive(
    stdout: str, cfg: model.Config, degree: int, project_level: str | None = None,
    golden: bool = False,
) -> dict:
    """`derive` output: H_eff against sum lam_j lam_k / delta [A_j, A_k^dag]
    on the Fock levels the truncation does not touch (``degree`` is the
    largest boson degree of a channel), the printed Hermiticity defect and,
    if ``golden``, the golden comparison.  With ``project_level`` the
    comparison leaves that level out.
    """
    lines = stdout.splitlines()
    heff = [ln[len("H_eff = "):] for ln in lines if ln.startswith("H_eff = ")]
    _require(len(heff) == 1, "no 'H_eff = ' line")
    fd = cfg.n_max + 1
    try:
        got = model.realize_printed(heff[0], cfg, fd)
    except (ValueError, KeyError, IndexError) as exc:
        raise CheckFailed(f"cannot read H_eff: {exc!r}") from None
    want = model.effective_matrix(cfg, fd)
    idx = model.untouched_indices(cfg, degree)
    if project_level is not None:
        skip = cfg.levels.index(project_level)
        idx = idx[idx // fd != skip]
    sub = np.ix_(idx, idx)
    dev = float(np.max(np.abs(got[sub] - want[sub])))
    scale = float(np.max(np.abs(want[sub])))
    _require(dev <= HEFF_REL_TOL * scale, f"H_eff is {dev:.2e} from the commutator sum (scale {scale:.2e})")
    herm = [ln for ln in lines if ln.startswith("hermiticity defect")]
    _require(len(herm) == 1, "no hermiticity defect line")
    defect = float(herm[0].rsplit(":", 1)[1])
    _require(defect <= HERMITICITY_TOL, f"hermiticity defect {defect:.3e}")
    if golden:
        _require("golden: match" in lines, "no 'golden: match'")
    return {"heff_dev": dev / scale, "monomials": heff[0].count(" + ") + heff[0].count(" - ") + 1}
