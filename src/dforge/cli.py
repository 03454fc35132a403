"""Command-line front end: derive, simulate, sweep.

Exit codes: 0 ok, 1 golden mismatch, 2 usage/config error, 3 numerical failure.
Importing this module registers ``gc.freeze`` to run at interpreter exit, so
the collections CPython runs as it finalizes skip every object still alive.
"""

from __future__ import annotations

import argparse
import atexit
import gc
import os
import sys
import time

from . import __version__
from .algebra import Coefficient, OperatorExpr, pretty, project_out_level
from .dynamics import DispersiveRatioError, converged, run, scan, slope
from .effective import decompose, effective_hamiltonian
from .scenario import Scenario, parse_scenario
from .spaces import element_hermiticity_defect, matrix_elements, read_number

EXIT_OK = 0
EXIT_GOLDEN_MISMATCH = 1
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3

# CPython does not promise __del__ for objects alive at exit, and every file
# is closed by then; an in-process main() leaves its caller's collector alone
atexit.register(gc.freeze)


def _fmt(x: float) -> str:
    return f"{x:.12g}"


def _write_manifest(out_path: str, config_text: str, settings: dict, start: float, **record):
    """Write ``<out_path>.manifest.json``: the config text, the settings, the
    version, the wall time since ``start`` and ``record`` (health or error)."""
    # only a manifest needs json, so derive, which writes none, never loads it
    import json

    manifest = {
        "config": config_text,
        "settings": settings,
        "version": __version__,
        "wall_time_s": time.monotonic() - start,
        **record,
    }
    with open(out_path + ".manifest.json", "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _default_pair(scenario: Scenario, projected: str | None) -> tuple[str, str]:
    levels = [lv for lv in scenario.space.levels if lv != projected]
    if "g" in levels and "e" in levels:
        return "g", "e"
    return levels[0], levels[-1]


def cmd_derive(args, config_text: str, scenario: Scenario) -> int:
    """Print H_eff, its parts, its coefficient scales and the Hermiticity
    defect of its matrix elements; numpy is never loaded."""
    h_eff = effective_hamiltonian(scenario.drive)
    if args.project_level is not None:
        scenario.space.level_index(args.project_level)  # ValueError if undeclared
        h_eff = project_out_level(h_eff, args.project_level)
    ground, excited = _default_pair(scenario, args.project_level)

    # scales (1/s) and defect first: an unusable coefficient prints nothing
    seen = {}
    for m in h_eff.terms:
        symbol_part = Coefficient(num=m.coeff.num, den=m.coeff.den)
        label = pretty(OperatorExpr.identity(symbol_part))
        if (symbol_part.num or symbol_part.den) and label not in seen:
            seen[label] = abs(symbol_part.evaluate(scenario.params))
    space = scenario.space
    defect = element_hermiticity_defect(matrix_elements(h_eff, space, scenario.params))

    canonical = pretty(h_eff)
    print(f"H_eff = {canonical}")
    for name, part in decompose(h_eff, ground, excited).items():
        print(f"{name}: {pretty(part)}")
    if seen:
        print("coefficient scales (1/s):")
        for label in sorted(seen):
            print(f"  {label} = {_fmt(seen[label])}")
    print(f"hermiticity defect (n_max={space.n_max}): {defect:.3e}")

    if args.golden is not None:
        with open(args.golden, "r", encoding="utf-8") as fh:
            expected = fh.read().strip()
        if expected != canonical:
            print("golden mismatch:", file=sys.stderr)
            print(f"  expected: {expected}", file=sys.stderr)
            print(f"  actual:   {canonical}", file=sys.stderr)
            return EXIT_GOLDEN_MISMATCH
        print("golden: match")
    return EXIT_OK


def cmd_simulate(args, config_text: str, scenario: Scenario) -> int:
    """Write the CSV of the full run with its fidelity to the effective one,
    and a manifest with the ``health`` that ``dynamics.run`` records.  A run
    whose refinement change is not ``converged`` exits 3 with the manifest
    but no CSV.  ``--mode`` takes only ``both``, the one run path."""
    start = time.monotonic()
    result = run(scenario)
    health = result.health
    if converged(health["refinement_change"]):
        status = EXIT_OK
        obs, levels = result.observables, scenario.space.levels
        lines = [
            f"# dforge simulate mode={args.mode} config={os.path.basename(args.config)}",
            "t," + ",".join(f"P_{lv}" for lv in levels) + ",n_mean,fidelity",
        ]
        for idx, t in enumerate(obs.times):
            row = [_fmt(t)]
            row.extend(_fmt(obs.populations[lv][idx]) for lv in levels)
            row.append(_fmt(obs.n_mean[idx]))
            row.append(_fmt(obs.fidelity[idx]))
            lines.append(",".join(row))
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
    else:
        status = EXIT_NUMERICAL
        print(
            "full propagation not converged: sample change "
            f"{health['refinement_change']:.3e} at Fourier order {health['fourier_order']}",
            file=sys.stderr,
        )

    settings = {"command": "simulate", "mode": args.mode}
    _write_manifest(args.out, config_text, settings, start, health=health)
    return status


def cmd_sweep(args, config_text: str, scenario: Scenario) -> int:
    """Set one parameter to each value and write the row's max infidelity.

    Every row, whatever the key, goes through ``dynamics.scan``, a loop over
    ``dynamics.run``: its checks of the key and the values (exit 2, no
    manifest), the dispersive-ratio check of each row after its run (exit 2
    below 5, with a manifest that records the error, naming ``key=value``,
    and no CSV; a zero detuning fails it before any row runs), the max
    infidelity it prints and a ``# unconverged <key>=<v> sample_change=<x>``
    line (also on stderr) where its refinement change is not ``converged``.
    A detuning sweep runs each row on its own dimensionless horizon and ends
    with a ``# slope=`` line; any other key keeps the config's t_end.  The
    manifest of a sweep that ran records each row's value, ratio (null when
    infinite), inclusion in the slope, max infidelity and ``health``, the
    row's whole ``run`` record.
    """
    key, _, values_text = args.vary.partition("=")
    key = key.strip()
    values = [
        read_number(v, f"--vary {key}: {v.strip()!r}") for v in values_text.split(",") if v.strip()
    ]
    if not values:
        raise ValueError("--vary expects key=v1,v2,...")

    settings = {"command": "sweep", "vary": args.vary}
    start = time.monotonic()
    try:
        rows = scan(scenario, key, values)
    except DispersiveRatioError as exc:
        _write_manifest(args.out, config_text, settings, start, error=str(exc))
        raise
    lines = [
        f"# dforge sweep vary={key} config={os.path.basename(args.config)}",
        f"{key},max_infidelity",
    ]
    for value, row in zip(values, rows):
        lines.append(f"{_fmt(value)},{_fmt(row.max_infidelity)}")
    for value, row in zip(values, rows):
        change = row.health["refinement_change"]
        if not converged(change):
            note = f"# unconverged {key}={_fmt(value)} sample_change={change:.3e}"
            print(note, file=sys.stderr)
            lines.append(note)
    fitted = slope(rows)
    if fitted is not None:
        lines.append(f"# slope={_fmt(fitted)}")
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")

    records = [
        {"value": value, "ratio": row.health["dispersive_ratio"], "included": row.included,
         "max_infidelity": row.max_infidelity, "health": row.health}
        for value, row in zip(values, rows)
    ]
    _write_manifest(args.out, config_text, settings, start, rows=records)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dforge",
        description="Derive dispersive effective Hamiltonians and validate "
        "them against full time-dependent propagation.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_derive = sub.add_parser("derive", help="print the effective Hamiltonian")
    p_derive.add_argument("config")
    p_derive.add_argument("--project-level", default=None, metavar="L")
    p_derive.add_argument("--golden", default=None, metavar="PATH")
    p_derive.set_defaults(func=cmd_derive)

    p_sim = sub.add_parser("simulate", help="propagate and write a CSV")
    p_sim.add_argument("config")
    p_sim.add_argument("--mode", choices=("both",), default="both")
    p_sim.add_argument("--out", required=True, metavar="PATH")
    p_sim.set_defaults(func=cmd_simulate)

    p_sweep = sub.add_parser("sweep", help="sweep a parameter and record infidelity")
    p_sweep.add_argument("config")
    p_sweep.add_argument("--vary", required=True, metavar="KEY=V1,V2,...")
    p_sweep.add_argument("--out", required=True, metavar="PATH")
    p_sweep.set_defaults(func=cmd_sweep)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        # newline="" keeps CRLF line ends, so a manifest's config is the file
        with open(args.config, "r", encoding="utf-8", newline="") as fh:
            config_text = fh.read()
        return args.func(args, config_text, parse_scenario(config_text))
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    raise SystemExit(main())
