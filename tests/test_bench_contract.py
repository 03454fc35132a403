"""What the benchmark harness takes from the package.

``bench/child.py`` replaces public functions by module and name right after
``import dforge`` (``Recorder.install``), so each must exist and be called
through its module-level binding, and it counts a full run's steps as
``times[-1] / meta["step"]``.  These tests read ``bench/child.py`` and run it
on a preset; they write nothing under ``bench/``.
"""

import json
import subprocess
import sys

import dforge
import dforge.cli
from dforge import parse_scenario

from conftest import REPO_ROOT, full_run

CHILD = REPO_ROOT / "bench" / "child.py"
PRESET = REPO_ROOT / "presets" / "dimensionless.cfg"


def child_names() -> dict:
    """The module-level names of ``bench/child.py``; its main does not run."""
    namespace = {"__name__": "bench_child"}
    exec(compile(CHILD.read_text(encoding="utf-8"), str(CHILD), "exec"), namespace)
    return namespace


def trace(tmp_path, *argv) -> dict:
    """The record of one ``bench/child.py`` trace run of ``dforge argv``."""
    record = tmp_path / "record.json"
    proc = subprocess.run(
        [sys.executable, str(CHILD), str(record), "trace", *argv],
        capture_output=True, text=True, cwd=tmp_path,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(record.read_text())


def test_every_traced_function_resolves():
    for module, function, _ in child_names()["TRACED"]:
        target = getattr(sys.modules[f"{dforge.__name__}.{module}"], function, None)
        assert callable(target), f"{module}.{function}"


def test_a_full_run_has_times_and_a_step():
    scenario = parse_scenario(PRESET.read_text())
    traj = full_run(
        scenario.drive, scenario.params, scenario.space, scenario.state(), scenario.grid
    )
    assert len(traj.times) == scenario.grid.samples
    assert float(traj.times[-1]) / traj.meta["step"] == 1.0


def test_a_traced_simulate_reaches_every_layer(tmp_path):
    # run() in dynamics calls each wrapped function through its own module
    record = trace(tmp_path, "simulate", str(PRESET), "--mode", "both", "--out", "run.csv")
    names = [span["name"] for span in record["spans"]]
    for name in (
        "scenario.parse", "cli.cmd", "effective.derive", "spaces.realize",
        "dynamics.effective", "dynamics.full", "dynamics.observables",
    ):
        assert name in names, name
    # H_eff and the drive M, each realized once
    assert names.count("spaces.realize") == 2
    (full,) = [span for span in record["spans"] if span["name"] == "dynamics.full"]
    assert full["steps"] == 1.0
    assert record["first_call"] is not None


def test_a_traced_derive_reaches_every_layer(tmp_path):
    record = trace(tmp_path, "derive", str(PRESET))
    names = {span["name"] for span in record["spans"]}
    assert {"scenario.parse", "cli.cmd", "effective.derive", "effective.decompose",
            "algebra.pretty"} <= names
