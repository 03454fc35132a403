"""The benchmark's checks must pass correct dforge output and reject wrong
output.  Run from the repository root:

    python3 -m pytest -q bench/test_checks.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import model  # noqa: E402
import run  # noqa: E402
import scenarios  # noqa: E402
from dforge.cli import main as dforge_main  # noqa: E402

PRESET = (ROOT / "presets" / "dimensionless.cfg").read_text()


def short_preset(delta: float) -> str:
    """dimensionless.cfg at another detuning, over t <= 5."""
    return PRESET.replace("delta = 100", f"delta = {delta:g}").replace("t_end = 50", "t_end = 5")


def simulate(tmp_path: Path, text: str) -> tuple[model.Config, str]:
    cfg_path, out = tmp_path / "run.cfg", tmp_path / "run.csv"
    cfg_path.write_text(text)
    assert dforge_main(["simulate", str(cfg_path), "--mode", "both", "--out", str(out)]) == 0
    return model.read_config(text), out.read_text()


def derive(capsys, argv: list[str]) -> str:
    assert dforge_main(["derive", *argv]) == 0
    return capsys.readouterr().out


@pytest.fixture(scope="module")
def short_run(tmp_path_factory):
    """A correct run over t <= 5 with its reference."""
    cfg, text = simulate(tmp_path_factory.mktemp("short"), short_preset(100))
    return cfg, text, model.reference_run(cfg)


def csv_text(columns: dict) -> str:
    """A `simulate` CSV with the given columns, in the program's format."""
    names = list(columns)
    rows = zip(*(np.asarray(columns[n]) for n in names))
    lines = [",".join(names), *(",".join(f"{v:.12g}" for v in row) for row in rows)]
    return "\n".join(lines) + "\n"


def perturb(text: str, row: int, column: str, change: float) -> str:
    lines = text.splitlines()
    data = [i for i, ln in enumerate(lines) if ln and ln[0].isdigit()]
    col = lines[data[0] - 1].split(",").index(column)
    cells = lines[data[row]].split(",")
    cells[col] = repr(float(cells[col]) + change)
    lines[data[row]] = ",".join(cells)
    return "\n".join(lines) + "\n"


class TestSimulate:
    def test_correct_run_passes(self, short_run):
        cfg, text, ref = short_run
        devs = checks.check_simulate(text, cfg, ref)
        assert devs["min_fidelity"] > 0.999
        assert devs["ref_dev"] < checks.SIM_OBS_TOL / 2

    def test_negative_detuning_rejected(self):
        # what a propagation that drives with |delta| prints at delta = -100:
        # the full evolution at +100, its fidelity taken to the effective one
        # at -100; made from the model, so it does not depend on the program
        cfg = model.read_config(short_preset(-100))
        full = model.full_reference(model.read_config(short_preset(100)), cfg.times)
        eff = model.effective_reference(cfg, cfg.times)
        columns = {"t": cfg.times, **model.observables(full, cfg)}
        columns["fidelity"] = np.abs(np.einsum("ij,ij->i", eff.conj(), full)) ** 2
        assert float(np.min(columns["fidelity"])) < 0.98
        with pytest.raises(checks.CheckFailed, match="from the reference|min fidelity"):
            checks.check_simulate(csv_text(columns), cfg, model.reference_run(cfg))

    def test_population_sum_rejected(self, short_run):
        cfg, text, ref = short_run
        bad = perturb(text, 100, "P_e", 1e-8)
        with pytest.raises(checks.CheckFailed, match="sum to 1"):
            checks.check_simulate(bad, cfg, ref)

    def test_shifted_populations_rejected(self, short_run):
        cfg, text, ref = short_run
        bad = perturb(perturb(text, 100, "P_e", 5e-3), 100, "P_g", -5e-3)
        with pytest.raises(checks.CheckFailed, match="from the reference"):
            checks.check_simulate(bad, cfg, ref)

    def test_missing_rows_rejected(self, short_run):
        cfg, text, ref = short_run
        with pytest.raises(checks.CheckFailed, match="rows"):
            checks.check_simulate("\n".join(text.splitlines()[:-1]) + "\n", cfg, ref)

    def test_stored_reference_matches_model(self):
        stored = json.loads((HERE / "reference.json").read_text())
        assert stored["samples"] == scenarios.SIMULATE_SAMPLES
        cfg = model.read_config(scenarios.simulate_config(PRESET))
        assert len(cfg.times) == scenarios.SIMULATE_SAMPLES and cfg.t_end == 50
        fresh = model.reference_run(cfg)
        for name, column in stored["columns"].items():
            np.testing.assert_allclose(column, fresh[name], rtol=0, atol=1e-9)


class TestDerive:
    RB85 = ["presets/rb85.cfg", "--project-level", "r", "--golden",
            "goldens/rb85_heff_projected.txt"]

    @pytest.fixture
    def rb85(self, capsys, monkeypatch):
        monkeypatch.chdir(ROOT)
        cfg = model.read_config((ROOT / "presets" / "rb85.cfg").read_text())
        return cfg, derive(capsys, self.RB85)

    def test_rb85_passes(self, rb85):
        cfg, out = rb85
        assert checks.check_derive(out, cfg, 1, project_level="r", golden=True)["heff_dev"] < 1e-14

    def test_wrong_coefficient_rejected(self, rb85):
        cfg, out = rb85
        bad = out.replace("+ g1*g2/delta*sig(e,g)*a*a", "+ 2*g1*g2/delta*sig(e,g)*a*a", 1)
        assert bad != out
        with pytest.raises(checks.CheckFailed, match="commutator sum"):
            checks.check_derive(bad, cfg, 1, project_level="r")

    def test_golden_mismatch_rejected(self, rb85):
        cfg, out = rb85
        with pytest.raises(checks.CheckFailed, match="golden"):
            checks.check_derive(out.replace("golden: match", ""), cfg, 1, "r", golden=True)

    def test_hermiticity_defect_rejected(self, rb85):
        cfg, out = rb85
        bad = out.replace("defect (n_max=20): 0.000e+00", "defect (n_max=20): 1.000e-10")
        assert bad != out
        with pytest.raises(checks.CheckFailed, match="hermiticity"):
            checks.check_derive(bad, cfg, 1, "r")

    def test_generated_scenario(self, capsys, tmp_path):
        path = tmp_path / "gen.cfg"
        path.write_text(scenarios.generate(PRESET, 0, 0))
        cfg = model.read_config(path.read_text())
        assert cfg.params != model.read_config(PRESET).params
        out = derive(capsys, [str(path)])
        assert checks.check_derive(out, cfg, scenarios.MAX_DEGREE)["heff_dev"] < 1e-14
        # flip the sign of the second term
        bad = out.replace(" + ", " - ", 1) if " + " in out.split("\n")[0] else out.replace(" - ", " + ", 1)
        with pytest.raises(checks.CheckFailed, match="commutator sum"):
            checks.check_derive(bad, cfg, scenarios.MAX_DEGREE)

    def test_generation_is_seeded(self):
        assert scenarios.generate(PRESET, 3, 1) == scenarios.generate(PRESET, 3, 1)
        assert scenarios.generate(PRESET, 3, 1) != scenarios.generate(PRESET, 4, 1)


def test_missing_output_is_a_failed_check(tmp_path):
    # derive writes no file: a stale one from an earlier round must not pass
    stale = tmp_path / "out.csv"
    stale.write_text("stale\n")
    op = run.Op(["derive", "presets/dimensionless.cfg"], lambda out: {}, stale)
    runner = run.Runner([op], tmp_path)
    runner.round(traced=False)
    assert (runner.attempted, runner.failed) == (1, 0)
    assert runner.errors == ["derive presets/dimensionless.cfg: exited 0 without writing out.csv"]
