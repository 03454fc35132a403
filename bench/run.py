"""Benchmark of the dforge CLI: two workloads run in child processes,
their outputs checked against bench/model.py, their costs reported.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  A run sets up (writes the inputs, then runs
whole rounds of the workload's commands as probes that stop at the first
call into the effective or dynamics layer), then runs whole rounds until
``--seconds`` have passed.  With ``--trace 0`` it prints the end-to-end
metrics; with ``--trace 1`` it alternates untraced and traced rounds and
prints the per-layer metrics and the tracing overhead.  The last line of
standard output is the result as JSON.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import model  # noqa: E402
import scenarios  # noqa: E402

#: one BLAS/OpenMP thread per child
CHILD_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}
CHILD_TIMEOUT_S = 120.0
#: set-up probes per run, rounded up to whole rounds of the workload's commands
MIN_PROBES = 8
GENERATED_SCENARIOS = 2
WORKLOADS = ("simulate-dimensionless", "derive-presets")


@dataclass
class Op:
    """One dforge command and the check of its output."""

    argv: list[str]
    #: called with the output: the file ``out`` if given, else stdout
    check: Callable[[str], dict]
    out: Path | None = None


@dataclass
class Child:
    code: int
    wall: float
    cpu: float
    rss_mb: float
    setup: float | None
    stdout: str
    stderr: str
    record: dict


@dataclass
class Round:
    traced: bool
    children: list[Child] = field(default_factory=list)
    devs: list[dict] = field(default_factory=list)

    @property
    def wall(self) -> float:
        return sum(c.wall for c in self.children)


def spawn(argv: list[str], mode: str, work: Path) -> Child:
    """Run bench/child.py on ``argv`` and reap it with its resource usage."""
    record_path = work / "record.json"
    record_path.unlink(missing_ok=True)
    out_path, err_path = work / "stdout.txt", work / "stderr.txt"
    env = dict(os.environ, **CHILD_ENV)
    cmd = [sys.executable, str(HERE / "child.py"), str(record_path), mode, *argv]
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.monotonic()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=out, stderr=err)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.monotonic() - start
            proc.returncode = os.waitstatus_to_exitcode(status)
        finally:
            timer.cancel()
    record = json.loads(record_path.read_text()) if record_path.exists() else {}
    first = record.get("first_call")
    return Child(
        code=proc.returncode,
        wall=wall,
        cpu=usage.ru_utime + usage.ru_stime,
        rss_mb=usage.ru_maxrss / 1024.0,
        setup=None if first is None else first - start,
        stdout=out_path.read_text(),
        stderr=err_path.read_text(),
        record=record,
    )


def build_ops(workload: str, seed: int, work: Path) -> list[Op]:
    """The commands of one round, with their inputs written to ``work``."""
    preset = scenarios.PRESET
    preset_text = (ROOT / preset).read_text()
    if workload == "simulate-dimensionless":
        reference = json.loads((HERE / "reference.json").read_text())
        if reference["samples"] != scenarios.SIMULATE_SAMPLES:
            raise RuntimeError("reference.json is stale; remake it with bench/reference.py")
        path, csv = work / "simulate.cfg", work / "simulate.csv"
        path.write_text(scenarios.simulate_config(preset_text))
        cfg = model.read_config(path.read_text())
        return [Op(
            ["simulate", str(path), "--mode", "both", "--out", str(csv)],
            lambda out: checks.check_simulate(out, cfg, reference["columns"]),
            csv,
        )]
    cfg = model.read_config(preset_text)
    rb85 = model.read_config((ROOT / "presets/rb85.cfg").read_text())
    ops = [
        Op(["derive", "presets/rb85.cfg", "--project-level", "r",
            "--golden", "goldens/rb85_heff_projected.txt"],
           lambda out: checks.check_derive(out, rb85, 1, project_level="r", golden=True)),
        Op(["derive", preset], lambda out: checks.check_derive(out, cfg, 1)),
    ]
    for index in range(GENERATED_SCENARIOS):
        path = work / f"derive-{index}.cfg"
        path.write_text(scenarios.generate(preset_text, seed, index))
        gen = model.read_config(path.read_text())
        ops.append(Op(
            ["derive", str(path)],
            lambda out, gen=gen: checks.check_derive(out, gen, scenarios.MAX_DEGREE),
        ))
    return ops


class Runner:
    def __init__(self, ops: list[Op], work: Path):
        self.ops = ops
        self.work = work
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []  # commands that exited non-zero
        self.errors: list[str] = []  # outputs that failed a check

    def probe_setups(self) -> list[float]:
        """Set-up times from whole rounds of probes, after one warm-up probe
        that compiles the bytecode and fills the file cache."""
        spawn(self.ops[0].argv, "probe", self.work)
        setups = []
        for _ in range(-(-MIN_PROBES // len(self.ops))):
            for op in self.ops:
                child = spawn(op.argv, "probe", self.work)
                if child.code != 0 or child.setup is None:
                    raise RuntimeError(f"set-up probe failed: {op.argv}\n{child.stderr}")
                setups.append(child.setup)
        return setups

    def round(self, traced: bool) -> Round:
        result = Round(traced)
        for op in self.ops:
            if op.out:
                op.out.unlink(missing_ok=True)
            child = spawn(op.argv, "trace" if traced else "run", self.work)
            self.attempted += 1
            result.children.append(child)
            if child.code != 0:
                self.failed += 1
                self.failures.append(f"{op.argv[0]} exited {child.code}: {child.stderr[-500:]}")
                continue
            try:
                if op.out and not op.out.exists():
                    raise checks.CheckFailed(f"exited 0 without writing {op.out.name}")
                output = op.out.read_text() if op.out else child.stdout
                result.devs.append(op.check(output))
            except checks.CheckFailed as exc:
                self.errors.append(f"{op.argv[0]} {op.argv[1]}: {exc}")
        return result


def layer_metrics(rnd: Round) -> dict[str, float]:
    """Per-layer totals of one traced round, from the children's spans."""
    spans = [s for c in rnd.children for s in c.record.get("spans", [])]

    def total(name: str) -> float:
        return sum(s["end"] - s["start"] for s in spans if s["name"] == name)

    def count(name: str, key: str | None = None) -> float:
        return sum(s[key] if key else 1 for s in spans if s["name"] == name)

    full_s = total("dynamics.full")
    io = total("cli.cmd") - sum(s["end"] - s["start"] for s in spans if s["parent"] == "cli.cmd")
    return {
        "process.import_s": sum(c.record.get("import_s", 0.0) for c in rnd.children),
        "scenario.parse_s": total("scenario.parse"),
        "effective.derive_s": total("effective.derive"),
        "effective.monomials": count("effective.derive", "monomials"),
        "effective.decompose_s": total("effective.decompose"),
        "algebra.project_s": total("algebra.project"),
        "algebra.pretty_s": total("algebra.pretty"),
        "spaces.realize_s": total("spaces.realize"),
        "spaces.realize_calls": count("spaces.realize"),
        "dynamics.full_s": full_s,
        "dynamics.full_calls": count("dynamics.full"),
        "dynamics.full_steps": count("dynamics.full", "steps"),
        "dynamics.full_steps_per_s": count("dynamics.full", "steps") / full_s if full_s else 0.0,
        "dynamics.effective_s": total("dynamics.effective"),
        "dynamics.observables_s": total("dynamics.observables"),
        "dynamics.full_ref_dev": max((d.get("ref_dev", 0.0) for d in rnd.devs), default=0.0),
        "cli.io_s": io,
    }


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    work = HERE / "_work" / f"{workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        runner = Runner(build_ops(workload, seed, work), work)
        setups = runner.probe_setups()
        rounds: list[Round] = []
        start = time.monotonic()
        while True:
            traced = trace and bool(rounds) and not rounds[-1].traced
            rounds.append(runner.round(traced))
            if time.monotonic() - start >= seconds and (not trace or traced):
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)

    plain = [r for r in rounds if not r.traced]
    setups += [c.setup for r in plain for c in r.children if c.setup is not None]
    if trace:
        traced = [layer_metrics(r) for r in rounds if r.traced]
        values = {k: statistics.median(m[k] for m in traced) for k in traced[0]}
        values["trace.overhead_s"] = (
            statistics.median(r.wall for r in rounds if r.traced)
            - statistics.median(r.wall for r in plain)
        )
    else:
        values = {
            "wall_s": statistics.median(r.wall for r in plain),
            "cpu_s": statistics.median(sum(c.cpu for c in r.children) for r in plain),
            "peak_rss_mb": statistics.median(max(c.rss_mb for c in r.children) for r in plain),
            "setup_s": statistics.median(setups),
        }
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in declared["per_layer" if trace else "end_to_end"]}
    if set(units) != set(values):
        raise RuntimeError(f"metrics {sorted(values)} differ from BENCHMARK.json {sorted(units)}")
    return {
        "correct": not runner.errors,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {
            k: {"value": v, "unit": units[k]} for k, v in values.items()
        },
        "rounds": len(rounds),
        "round_walls": [r.wall for r in rounds],
        "setup_samples": len(setups),
        "failures": runner.failures,
        "errors": runner.errors,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "dforge" / "cli.py").is_file():
        print(f"no dforge source under {ROOT / 'src'}; run from a checkout", file=sys.stderr)
        return 2

    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    results_dir = HERE / "results"
    results_dir.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (results_dir / name).write_text(json.dumps(result, indent=1) + "\n")
    for err in result["failures"]:
        print(f"command failed: {err}")
    for err in result["errors"]:
        print(f"check failed: {err}")
    print(f"{args.workload} seed={args.seed}: {result['rounds']} rounds, "
          f"{result['attempted']} commands, {result['failed']} failed, "
          f"{result['setup_samples']} set-up samples")
    for key, metric in result["metrics"].items():
        print(f"  {key} = {metric['value']:.6g} {metric['unit']}")
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
