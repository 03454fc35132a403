"""Run one dforge CLI command in this process and record when it first calls
into the effective or dynamics layer, and, when traced, a span around every
call into each module's public functions.

    python3 bench/child.py <record.json> <run|trace|probe> <dforge args...>

``run`` records only the first-call time; ``trace`` records spans as well;
``probe`` exits at the first call, so it measures set-up alone.  The record
is written as JSON when the command ends.  Times are time.monotonic(), which
is one clock for every process on the machine, so the parent can subtract
its own spawn time.
"""

from __future__ import annotations

import json
import os
import sys
import time
from pathlib import Path

#: (module, function, span name) of the public functions of effective and
#: dynamics; the first call into any of them ends set-up
FIRST_CALL = [
    ("effective", "effective_hamiltonian", "effective.derive"),
    ("effective", "decompose", "effective.decompose"),
    ("dynamics", "propagate_full", "dynamics.full"),
    ("dynamics", "propagate_effective", "dynamics.effective"),
    ("dynamics", "observables", "dynamics.observables"),
]
TRACED = FIRST_CALL + [
    ("scenario", "parse_scenario", "scenario.parse"),
    ("algebra", "project_out_level", "algebra.project"),
    ("algebra", "pretty", "algebra.pretty"),
    ("spaces", "realize", "spaces.realize"),
    ("cli", "cmd_derive", "cli.cmd"),
    ("cli", "cmd_simulate", "cli.cmd"),
]


def _counts(span: str, result) -> dict:
    """Work counts read off a call's result."""
    if span == "effective.derive":
        return {"monomials": len(result.terms)}
    if span == "dynamics.full":
        return {"steps": float(result.times[-1]) / result.meta["step"]}
    return {}


class Recorder:
    def __init__(self, mode: str, path: str):
        self.mode = mode
        self.path = path
        self.first_call = None
        self.spans = []
        self.stack = []

    def write(self, **extra) -> None:
        record = {"first_call": self.first_call, "spans": self.spans, **extra}
        with open(self.path, "w", encoding="utf-8") as fh:
            json.dump(record, fh)

    def wrap(self, func, span: str, marks_setup: bool):
        traced = self.mode == "trace"

        def wrapper(*args, **kwargs):
            if marks_setup and self.first_call is None:
                self.first_call = time.monotonic()
                if self.mode == "probe":
                    self.write()
                    os._exit(0)
            if not traced:
                return func(*args, **kwargs)
            parent = self.stack[-1] if self.stack else None
            self.stack.append(span)
            start = time.monotonic()
            try:
                result = func(*args, **kwargs)
            finally:
                end = time.monotonic()
                self.stack.pop()
            self.spans.append({
                "name": span, "start": start, "end": end, "parent": parent,
                **_counts(span, result),
            })
            return result

        return wrapper

    def install(self, package) -> None:
        """Replace each target in every dforge module that binds it."""
        modules = [m for name, m in sys.modules.items() if name.startswith(package.__name__)]
        marks = {(m, f) for m, f, _ in FIRST_CALL}
        for mod_name, func_name, span in TRACED if self.mode == "trace" else FIRST_CALL:
            original = getattr(sys.modules[f"{package.__name__}.{mod_name}"], func_name)
            wrapper = self.wrap(original, span, (mod_name, func_name) in marks)
            for module in modules:
                if getattr(module, func_name, None) is original:
                    setattr(module, func_name, wrapper)


def main() -> int:
    record_path, mode, *argv = sys.argv[1:]
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    start = time.monotonic()
    import dforge
    import dforge.cli

    import_s = time.monotonic() - start
    recorder = Recorder(mode, record_path)
    recorder.install(dforge)
    try:
        return dforge.cli.main(argv)
    finally:
        recorder.write(import_s=import_s)


if __name__ == "__main__":
    raise SystemExit(main())
