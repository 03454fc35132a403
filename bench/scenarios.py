"""The configs the workloads write from the shipped ``presets/dimensionless.cfg``.

``simulate_config`` is the preset with 40 output samples instead of 200 over
the same horizon t <= 50.  ``propagate_full`` builds the step unitaries of
one drive period for every sample and applies their product for the whole
periods in it, so a command costs about a fifth of the shipped run, and a
run holds about twenty of them.

``generate`` makes the seeded derive-presets scenarios: the preset with its
``[params]`` values redrawn, the couplings g1, g2 and Omega from [0.5, 1.5]
and delta from [50, 200].  Levels, channels, truncation, state and time are
the preset's, so a scenario is the size of the shipped presets: 3 levels, 3
channels, boson degree 1.  Scenario ``index`` of workload seed ``seed``
seeds ``random.Random("derive-presets/<seed>/<index>")``.

The program sees only the config text.
"""

from __future__ import annotations

import random

PRESET = "presets/dimensionless.cfg"
SIMULATE_SAMPLES = 40
COUPLINGS = (0.5, 1.5)
DELTAS = (50.0, 200.0)
#: the largest boson degree p + q of a channel term in the preset
MAX_DEGREE = 1


def _rewrite(preset: str, section: str, value, header: str) -> str:
    """``preset`` with each ``name = old`` line of ``section`` set to
    ``value(name, old)``."""
    lines, current = [header], None
    for raw in preset.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line.startswith("["):
            current = line
        elif current == section and "=" in line:
            name, _, old = (part.strip() for part in line.partition("="))
            raw = f"{name} = {value(name, old)}"
        lines.append(raw)
    return "\n".join(lines) + "\n"


def simulate_config(preset: str) -> str:
    """``preset`` config text with ``SIMULATE_SAMPLES`` samples."""
    return _rewrite(
        preset, "[time]", lambda name, old: SIMULATE_SAMPLES if name == "samples" else old,
        f"# simulate-dimensionless: the preset at {SIMULATE_SAMPLES} samples",
    )


def generate(preset: str, seed: int, index: int) -> str:
    """``preset`` config text with seeded ``[params]`` values."""
    rng = random.Random(f"derive-presets/{seed}/{index}")

    def draw(name: str, old: str) -> str:
        low, high = DELTAS if name == "delta" else COUPLINGS
        return f"{rng.uniform(low, high):.6f}"

    return _rewrite(preset, "[params]", draw, f"# derive-presets scenario {index}, seed {seed}")
