"""Command-line front end: derive, simulate, sweep.

Each command returns ``(status, csv_lines, record)`` and ``main`` writes the
files: ``<out>`` and then ``<out>.manifest.json``, one run's pair, so a record
without lines removes an earlier ``<out>``; an error raised writes nothing.

Exit codes: 0 ok, 1 golden mismatch, 2 usage/config error, 3 numerical failure.
Importing this module registers ``gc.freeze`` to run at interpreter exit, so
the collections CPython runs as it finalizes skip every object still alive.
"""

from __future__ import annotations

import argparse
import atexit
import contextlib
import gc
import math
import os
import sys
import time

from . import __version__
from .algebra import Coefficient, OperatorExpr, pretty, project_out_level
from .dynamics import converged, run, scan, slope
from .effective import decompose, effective_hamiltonian, grading
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


def _frame_line(frame) -> str:
    """A ``grading`` as ``G = <phase> + <slope>*n on <levels>; ...``, in lowest terms."""
    ratio = lambda k, d: f"{k // math.gcd(k, d)}/{d // math.gcd(k, d)}".removesuffix("/1")
    groups: dict[str, list[str]] = {}
    for level, (phase, slope, den) in (frame or {}).items():
        g = ratio(phase, den) + (f" {'+-'[slope < 0]} {ratio(abs(slope), den)}*n" if slope else "")
        groups.setdefault(g, []).append(level)
    text = "; ".join(f"{g} on {', '.join(lvs)}" for g, lvs in groups.items())
    return f"frame: G = {text}" if frame else "frame: none (Fourier blocks)"


def _default_pair(scenario: Scenario, projected: str | None) -> tuple[str, str]:
    levels = [lv for lv in scenario.space.levels if lv != projected]
    if "g" in levels and "e" in levels:
        return "g", "e"
    return levels[0], levels[-1]


def cmd_derive(args, scenario: Scenario):
    """Print H_eff, its parts, the drive's frame, its coefficient scales and
    the Hermiticity defect of its matrix elements; numpy is never loaded."""
    h_eff = effective_hamiltonian(scenario.drive)
    if args.project_level is not None:
        scenario.space.level_index(args.project_level)  # ValueError if undeclared
        h_eff = project_out_level(h_eff, args.project_level)
    ground, excited = _default_pair(scenario, args.project_level)

    # scales (1/s), defect and frame first: an unusable coefficient prints nothing
    seen = {}
    for m in h_eff.terms:
        symbol_part = Coefficient(num=m.coeff.num, den=m.coeff.den)
        label = pretty(OperatorExpr.identity(symbol_part))
        if (symbol_part.num or symbol_part.den) and label not in seen:
            seen[label] = abs(symbol_part.evaluate(scenario.params))
    space = scenario.space
    defect = element_hermiticity_defect(matrix_elements(h_eff, space, scenario.params))
    frame = _frame_line(grading(scenario.drive, space.levels, scenario.params))

    canonical = pretty(h_eff)
    print(f"H_eff = {canonical}")
    for name, part in decompose(h_eff, ground, excited).items():
        print(f"{name}: {pretty(part)}")
    print(frame)
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
            return EXIT_GOLDEN_MISMATCH, None, None
        print("golden: match")
    return EXIT_OK, None, None


def cmd_simulate(args, scenario: Scenario):
    """The CSV lines of the full run with its fidelity to the effective one,
    and the ``health`` that ``dynamics.run`` records.  A run whose
    refinement change is not ``converged`` exits 3 with the record but no
    lines.  ``--mode`` takes only ``both``, the one run path."""
    result = run(scenario)
    health = result.health
    if not converged(health["refinement_change"]):
        print(
            "full propagation not converged: sample change "
            f"{health['refinement_change']:.3e} at Fourier order {health['fourier_order']}",
            file=sys.stderr,
        )
        return EXIT_NUMERICAL, None, {"health": health}
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
    return EXIT_OK, lines, {"health": health}


def cmd_sweep(args, scenario: Scenario):
    """Set one parameter to each value and give the row's max infidelity.

    Every row goes through ``dynamics.scan``: the sweep's inputs (the key
    and the values) fail the sweep, with exit 2 and no file, and anything
    about a row fails that row.  Each row's verdict is reported here, in
    the CSV and on stderr: a ``# failed <key>=<v> <message>`` note and no
    data line where the row has an ``error``, an ``# excluded <key>=<v>
    ratio=<r>`` note where it is left out of the slope, and an
    ``# unconverged <key>=<v> sample_change=<x>`` note where its refinement
    change is not ``converged``.  A sweep with a failed row writes its CSV
    and exits 2.  A detuning sweep runs each row on its own dimensionless
    horizon and ends with a ``# slope=`` line.  The record holds each row's
    value, inclusion in the slope, max infidelity, ``error`` and ``health``,
    the row's whole ``run`` record.
    """
    key, sep, values_text = args.vary.partition("=")
    if not sep:
        raise ValueError("--vary expects key=v1,v2,...")
    key = key.strip()
    values = [read_number(v, f"--vary {key}: {v.strip()!r}") for v in values_text.split(",")]

    rows = scan(scenario, key, values)
    lines = [
        f"# dforge sweep vary={key} config={os.path.basename(args.config)}",
        f"{key},max_infidelity",
    ]
    notes = []
    for value, row in zip(values, rows):
        where, health = f"{key}={_fmt(value)}", row.health
        if row.error is not None:
            notes.append(f"# failed {where} {row.error}")
            continue
        lines.append(f"{_fmt(value)},{_fmt(row.max_infidelity)}")
        if not row.included:
            notes.append(f"# excluded {where} ratio={health['dispersive_ratio']:.1f}")
        if not converged(health["refinement_change"]):
            notes.append(f"# unconverged {where} sample_change={health['refinement_change']:.3e}")
    sys.stderr.write("".join(f"{note}\n" for note in notes))
    lines += notes
    fitted = slope(rows)
    if fitted is not None:
        lines.append(f"# slope={_fmt(fitted)}")
    records = [
        {"value": value, "included": row.included, "max_infidelity": row.max_infidelity,
         "error": row.error, "health": row.health}
        for value, row in zip(values, rows)
    ]
    failed = any(row.error is not None for row in rows)
    return EXIT_CONFIG if failed else EXIT_OK, lines, {"rows": records}


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
    start = time.monotonic()
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        # newline="" keeps CRLF line ends, so a manifest's config is the file
        with open(args.config, "r", encoding="utf-8", newline="") as fh:
            config_text = fh.read()
        status, lines, record = args.func(args, parse_scenario(config_text))
        if record is None:
            return status
        # only a manifest needs json, so derive, which writes none, never loads it
        import json

        if lines is None:  # an earlier CSV would pair with this run's manifest
            with contextlib.suppress(FileNotFoundError):
                os.remove(args.out)
        else:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write("\n".join(lines) + "\n")
        manifest = {
            "config": config_text,
            "settings": {k: v for k, v in vars(args).items() if k not in ("config", "out", "func")},
            "version": __version__,
            "wall_time_s": time.monotonic() - start,
            **record,
        }
        with open(args.out + ".manifest.json", "w", encoding="utf-8") as fh:
            json.dump(manifest, fh, indent=2, sort_keys=True)
            fh.write("\n")
        return status
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    raise SystemExit(main())
