"""One-line mutants of ``src/dforge``, each of which tier-1 must kill.

Run from anywhere with ``python tests/mutants.py``.  The repository is
copied to a temporary directory; each mutant replaces one line of the copy,
the tier-1 suite runs there with ``-x``, and the line is put back.  A
mutant that every test passes survives: it is printed, and the script exits
1 if any does.  It exits 2 when the unmutated copy fails, or when a
mutant's text is not found exactly once in its file, so the list cannot go
stale unnoticed.  Standard library only; pytest does not collect this file.
"""

from __future__ import annotations

import os
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent

#: (file under src/dforge, what the mutant breaks, text as written, mutated text)
MUTANTS = [
    # symbolic layer
    ("algebra.py", "normal ordering drops the contractions",
     "for k in range(min(n, p) + 1):", "for k in range(1):"),
    ("algebra.py", "the k! of normal ordering",
     "factorial(k) * comb(n, k) * comb(p, k)", "comb(n, k) * comb(p, k)"),
    ("algebra.py", "conjugation keeps the imaginary part",
     "Coefficient.make(self.re, -self.im, self.num, self.den)",
     "Coefficient.make(self.re, self.im, self.num, self.den)"),
    ("algebra.py", "the commutator's order",
     "add(multiply(x, y), scale(multiply(y, x), Coefficient.make(-1)))",
     "add(multiply(y, x), scale(multiply(x, y), Coefficient.make(-1)))"),
    ("algebra.py", "Coefficient.add's zero shortcut",
     "if self.is_zero():", "if False:"),
    ("algebra.py", "the Rational guard removed",
     "if not (isinstance(re, Rational) and isinstance(im, Rational)):", "if False:"),
    ("algebra.py", "a non-finite coefficient printed unrounded",
     "_coeff_factors(c, False, _rounded_str)", "_coeff_factors(c, False, str)"),
    ("algebra.py", "the digit rule removed",
     "except ValueError:  # str() refuses", "except ZeroDivisionError:  # str() refuses"),
    ("algebra.py", "project_out_level's residual check",
     "if m.pair is not None and level in m.pair:", "if False:"),
    ("parsing.py", "a number quotient divided as a float",
     "Coefficient.make(Fraction(1, d))", "Coefficient.make(1 / d)"),
    ("parsing.py", "an all-digit literal read as a Fraction",
     "if tok.lexeme.isdecimal():", "if False:"),
    ("parsing.py", "a zero denominator reaches Fraction(1, 0)",
     "if d == 0:", "if False:"),
    ("parsing.py", "the nesting bound removed",
     "if self.depth == MAX_NESTING:", "if False:"),
    ("effective.py", "a two-photon shape filed as one-photon",
     '("lower", 0, 2): "two_photon"', '("lower", 0, 2): "one_photon"'),
    # numeric layer
    ("dynamics.py", "the grading accepts a contradiction",
     "elif grade[b] != grade[a] + step:", "elif False:"),
    ("dynamics.py", "the phase gate at 1",
     "if rounding > CONVERGENCE_TOL:", "if rounding > 1.0:"),
    ("dynamics.py", "the phase gate's product back on numpy scalars",
     "float(np.max(np.abs(w)))", "np.max(np.abs(w))"),
    ("dynamics.py", "the Sambe shift's direction",
     "np.kron(np.eye(blocks, k=-1), m)", "np.kron(np.eye(blocks, k=1), m)"),
    ("dynamics.py", "the Fourier ladder compares every order with the first",
     "            previous = states\n", ""),
    ("dynamics.py", "norm_drift reads 0",
     "np.abs(norms - 1.0)", "np.abs(norms - norms)"),
    ("dynamics.py", "the Hermiticity gate off",
     "if defect > 1e-10:", "if defect > 1e10:"),
    ("dynamics.py", "the kick bound's factor 2",
     "return 2.0 * float(np.linalg.norm(m, 2))", "return 1.0 * float(np.linalg.norm(m, 2))"),
    ("dynamics.py", "the fidelity without its square",
     "fidelity = np.abs(overlaps) ** 2", "fidelity = np.abs(overlaps)"),
    ("dynamics.py", "top_fock_population of the level below the top",
     "obs.photon_dist[:, -1]", "obs.photon_dist[:, -2]"),
    ("dynamics.py", "the dispersive ratio at n_peak + 2",
     "math.sqrt(n_peak + 1.0)", "math.sqrt(n_peak + 2.0)"),
    ("dynamics.py", "the scan horizon over lam, not lam squared",
     "abs(delta) / lam / lam", "abs(delta) / lam"),
    ("dynamics.py", "the slope's inclusion threshold at 5",
     "included = ratio is None or ratio >= 20.0", "included = ratio is None or ratio >= 5.0"),
    ("dynamics.py", "a swept zero detuning left to the realized H_eff",
     "delta = row.detuning()", "delta = float(row.params[DELTA])"),
    ("dynamics.py", "the plan built lazily, so each horizon grid is built in the run loop",
     "[planned(value) for value in values]", "(planned(value) for value in values)"),
    ("dynamics.py", "a failed row crashes the sweep",
     "except ValueError as exc:", "except ZeroDivisionError as exc:"),
    ("dynamics.py", "the rows after a failed row dropped",
     "str(exc)))\n            continue", "str(exc)))\n            break"),
    ("spaces.py", "the coherent tail mass taken as the kept mass",
     "return max(0.0, 1.0 - kept)", "return max(0.0, kept)"),
    ("spaces.py", "a truncated coherent state left unnormalised",
     "    amps /= np.linalg.norm(amps)\n", ""),
    ("cli.py", "the process exit status dropped",
     "raise SystemExit(main())", "main()"),
    ("cli.py", "a sweep with a failed row exits 0",
     "return EXIT_CONFIG if failed else EXIT_OK", "return EXIT_OK"),
    ("cli.py", "the excluded-row note on the included rows",
     "if not row.included:", "if row.included:"),
    ("cli.py", "an earlier CSV kept beside the manifest of a run without lines",
     "os.remove(args.out)", "pass"),
    ("cli.py", "the settings keep the output path",
     'if k not in ("config", "out", "func")', 'if k not in ("config", "func")'),
]

TIER1 = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
         "--continue-on-collection-errors"]


def run_tier1(root: Path) -> subprocess.CompletedProcess:
    path = os.pathsep.join([str(root / "src"), os.environ.get("PYTHONPATH", "")])
    # no bytecode: a mutant and its restored line may share a size and an mtime
    env = {**os.environ, "PYTHONPATH": path, "PYTHONDONTWRITEBYTECODE": "1"}
    return subprocess.run(TIER1, cwd=root, env=env, capture_output=True, text=True)


def first_failure(output: str) -> str:
    match = re.search(r"^(?:FAILED|ERROR) (\S+)", output, re.MULTILINE)
    return match.group(1) if match else "no FAILED line"


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp) / "repo"
        shutil.copytree(REPO, root, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".hypothesis", ".pytest_cache", "_work", "results"))
        if run_tier1(root).returncode != 0:
            print("tier-1 fails on the unmutated copy", file=sys.stderr)
            return 2
        survivors = []
        for name, what, old, new in MUTANTS:
            path = root / "src" / "dforge" / name
            source = path.read_text()
            if source.count(old) != 1:
                print(f"{name}: {old!r} is not found exactly once", file=sys.stderr)
                return 2
            path.write_text(source.replace(old, new))
            try:
                proc = run_tier1(root)
            finally:
                path.write_text(source)
            if proc.returncode == 0:
                survivors.append(what)
                print(f"SURVIVED {name}: {what}", flush=True)
            else:
                print(f"killed   {name}: {what} ({first_failure(proc.stdout)})", flush=True)
        print(f"{len(MUTANTS)} mutants, {len(survivors)} survived")
        return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
