"""Remake bench/reference.json, the independent reference of the
simulate-dimensionless workload.

    python3 bench/reference.py

Run from the repository root.  Needs numpy and scipy, and no part of dforge:
the model, the integrator (DOP853, rtol 1e-10) and the effective evolution
(expm) all come from bench/model.py.  Takes about 2 s on one core.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import model  # noqa: E402
import scenarios  # noqa: E402


def main() -> int:
    root = HERE.parent
    text = scenarios.simulate_config((root / scenarios.PRESET).read_text())
    start = time.perf_counter()
    sim = model.reference_run(model.read_config(text))
    out = {
        "preset": scenarios.PRESET,
        "samples": scenarios.SIMULATE_SAMPLES,
        "seconds": time.perf_counter() - start,
        "n_peak_eff": sim.pop("n_peak_eff"),
        "columns": {k: np.asarray(v).tolist() for k, v in sim.items()},
    }
    (HERE / "reference.json").write_text(json.dumps(out, indent=1) + "\n")
    print(f"simulate reference: {out['seconds']:.1f} s")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
