import gc
import json
import os
import subprocess
import sys

import pytest

from dforge import (
    coherent_tail_mass,
    dispersive_ratio,
    dynamics,
    effective_hamiltonian,
    hermiticity_defect,
    parse_scenario,
    project_out_level,
    realize,
)
from dforge.cli import (
    EXIT_CONFIG,
    EXIT_GOLDEN_MISMATCH,
    EXIT_NUMERICAL,
    EXIT_OK,
    main,
)

from conftest import REPO_ROOT, kick_bound

CONFIG = """\
[levels]
g, r, e

[channels]
g1 : sig(g,r)*ad
g2 : sig(e,r)*a
Omega : sig(g,r)

[params]
g1 = 1.0
g2 = 1.0
Omega = 1.0
delta = 100.0

[space]
n_max = 8

[state]
initial = e,0

[time]
t_end = 50.0
samples = 40
"""


#: the drive with its counter-rotating part has no grading, so the full
#: model is propagated over Fourier blocks and checked by order refinement
UNGRADED_CONFIG = CONFIG.replace("Omega : sig(g,r)", "Omega : sig(g,r) + sig(r,g)")

PRESETS = sorted((REPO_ROOT / "presets").glob("*.cfg"))


@pytest.fixture
def config_path(tmp_path):
    path = tmp_path / "scenario.cfg"
    path.write_text(CONFIG)
    return path


@pytest.fixture
def ungraded_config_path(tmp_path):
    path = tmp_path / "ungraded.cfg"
    path.write_text(UNGRADED_CONFIG)
    return path


def run_fresh(*args):
    """Run a new interpreter on ``args`` (``"-c", script`` or ``"-m",
    "dforge.cli", ...``); it imports dforge from ``src``."""
    path = os.pathsep.join([str(REPO_ROOT / "src"), os.environ.get("PYTHONPATH", "")])
    return subprocess.run(
        [sys.executable, *args],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
    )


def read_csv(path):
    header = None
    rows = []
    comments = []
    for line in path.read_text().splitlines():
        if line.startswith("#"):
            comments.append(line)
        elif header is None:
            header = line.split(",")
        else:
            rows.append(line.split(","))
    return header, rows, comments


class TestDerive:
    def test_prints_decomposition(self, config_path, capsys):
        code = main(["derive", str(config_path), "--project-level", "r"])
        out = capsys.readouterr().out
        assert code == EXIT_OK
        assert out.startswith("H_eff = ")
        for name in ("stark:", "one_photon:", "two_photon:", "displacement:", "other: 0"):
            assert name in out
        assert "coefficient scales (1/s):" in out
        assert "hermiticity defect" in out

    def test_golden_match(self, config_path, capsys):
        golden = REPO_ROOT / "goldens" / "rb85_heff_projected.txt"
        code = main(
            ["derive", str(config_path), "--project-level", "r",
             "--golden", str(golden)]
        )
        assert code == EXIT_OK
        assert "golden: match" in capsys.readouterr().out

    def test_golden_mismatch(self, config_path, tmp_path, capsys):
        wrong = tmp_path / "wrong.txt"
        wrong.write_text("g1*g1/delta*sig(g,g)\n")
        code = main(
            ["derive", str(config_path), "--project-level", "r",
             "--golden", str(wrong)]
        )
        assert code == EXIT_GOLDEN_MISMATCH
        assert "golden mismatch" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "old, new, message",
        [
            ("sig(g,r)*ad", "sig(g,r)*+ad", "parse error at byte offset 9"),
            # printed, "a" would read back as a third annihilator and "i" as
            # the imaginary unit
            ("g1", "a", "[channels] coupling symbol 'a' is not one identifier"),
            ("g1", "i", "[channels] coupling symbol 'i' is not one identifier"),
            ("g1", "2", "[channels] coupling symbol '2' is not one identifier"),
            ("g1", "sig", "[channels] coupling symbol 'sig' is not one identifier"),
            ("g1", "g-1", "[channels] coupling symbol 'g-1' is not one identifier"),
            ("g1", "g 1", "[channels] coupling symbol 'g 1' is not one identifier"),
            # the parser's message, then the channel it comes from
            ("sig(e,r)*a", "sig(e,r)*a*1e9999",
             "parse error at byte offset 11: expected number with exponent within +-4300"
             " in [channels] g2"),
        ],
        ids=["plus-after-star", "symbol-a", "symbol-i", "symbol-2", "symbol-sig",
             "symbol-g-1", "symbol-g_1", "channel-exponent"],
    )
    def test_parse_error_exit_code(self, tmp_path, capsys, old, new, message):
        bad = tmp_path / "bad.cfg"
        bad.write_text(CONFIG.replace(old, new))
        assert main(["derive", str(bad)]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert f"error: {message}" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize(
        "old, new, message",
        [
            ("[levels]\n", "delta 100\n[levels]\n",
             "'delta 100' comes before the first section header"),
            ("delta = 100.0", "delta 100", "[params] 'delta 100' is not a key = value line"),
            ("g2 : sig(e,r)*a", "g2 sig(e,r)*a",
             "[channels] 'g2 sig(e,r)*a' is not a symbol : expression line"),
        ],
        ids=["before-header", "params-without-equals", "channel-without-colon"],
    )
    def test_malformed_line_is_quoted_without_an_offset(self, tmp_path, capsys, old, new, message):
        # the line's place in the file is not known, so no byte offset is claimed
        bad = tmp_path / "bad.cfg"
        bad.write_text(CONFIG.replace(old, new))
        assert main(["derive", str(bad)]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.err == f"error: {message}\n"
        assert "byte offset" not in captured.err
        assert captured.out == ""

    def test_distinct_detuning_exit_code(self, tmp_path, capsys):
        # every channel shares delta; a channel line has no detuning tag
        bad = tmp_path / "bad.cfg"
        bad.write_text(CONFIG.replace("sig(g,r)*ad", "sig(g,r)*ad @ delta2"))
        assert main(["derive", str(bad)]) == EXIT_CONFIG
        message = "illegal character '@' at byte offset 12 in [channels] g1"
        assert f"error: {message}" in capsys.readouterr().err

    def test_missing_file_exit_code(self, tmp_path, capsys):
        assert main(["derive", str(tmp_path / "nope.cfg")]) == EXIT_CONFIG

    @pytest.mark.parametrize("option", ["--project-level"])
    def test_unknown_level_exit_code(self, config_path, option, capsys):
        assert main(["derive", str(config_path), option, "zz"]) == EXIT_CONFIG
        assert "unknown atomic level 'zz'" in capsys.readouterr().err

    @pytest.mark.parametrize("option", ["--ground", "--excited"])
    def test_level_pair_is_not_an_option(self, config_path, option, capsys):
        # the pair decompose splits by comes from the config's level labels
        with pytest.raises(SystemExit) as exc:
            main(["derive", str(config_path), option, "g"])
        assert exc.value.code == EXIT_CONFIG
        assert f"unrecognized arguments: {option} g" in capsys.readouterr().err

    def test_zero_detuning_exit_code(self, tmp_path, capsys):
        cfg = tmp_path / "resonant.cfg"
        cfg.write_text(CONFIG.replace("delta = 100.0", "delta = 0"))
        assert main(["derive", str(cfg)]) == EXIT_CONFIG
        assert "detuning 'delta' is zero" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "old, new, message",
        [
            ("delta = 100.0", "delta = nan", "[params] delta = nan is not finite"),
            ("g1 = 1.0", "g1 = inf", "[params] g1 = inf is not finite"),
            ("initial = e,0", "initial = e,coherent(30)", "no weight on Fock 0..8"),
            ("t_end = 50.0", "t_end = -3", "t_end must be positive and finite, got -3.0"),
            ("samples = 40", "samples = 1", "need at least two samples"),
            ("g1 = 1.0", "g1 = 1e200", "coefficient g1*g1/delta is not finite"),
            ("sig(g,r)*ad", "1e200*sig(g,r)*ad", "0*g1*g1/delta is not finite"),
            ("sig(g,r)*ad", "1e10000000*sig(g,r)*ad", "offset 0: expected number with exponent"),
            ("n_max = 8", "n_max = 1.5", "[space] n_max = 1.5 is not an integer"),
            ("g1 = 1.0", "g1 = abc", "[params] g1 = abc is not a number"),
            ("t_end = 50.0", "t_end = abc", "[time] t_end = abc is not a number"),
            ("samples = 40", "samples = 4e1", "[time] samples = 4e1 is not an integer"),
            ("initial = e,0", "initial = e,1.5",
             "bad state descriptor 'e,1.5' in [state] initial"),
            ("initial = e,0", "initial = e,coherent(abc)",
             "bad state descriptor 'e,coherent(abc)' in [state] initial"),
        ],
        ids=[
            "nan-delta", "inf-g1", "coherent-30", "negative-t_end", "one-sample",
            "huge-g1", "huge-literal", "huge-exponent", "fractional-n_max", "word-g1",
            "word-t_end", "float-samples", "fractional-fock", "word-amplitude",
        ],
    )
    def test_unusable_number_exit_code(self, tmp_path, capsys, old, new, message):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(CONFIG.replace(old, new))
        assert main(["derive", str(cfg)]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert message in captured.err
        assert captured.out == ""

    def test_scale_in_range_despite_an_overflowing_product(self, tmp_path, capsys):
        # g1*g1 is 1e400, but g1*g1/delta is 1e200
        cfg = tmp_path / "huge.cfg"
        cfg.write_text(
            CONFIG.replace("g1 = 1.0", "g1 = 1e200").replace("delta = 100.0", "delta = 1e200")
        )
        assert main(["derive", str(cfg)]) == EXIT_OK
        assert "\n  g1*g1/delta = 1e+200\n" in capsys.readouterr().out

    @pytest.mark.parametrize("preset", PRESETS, ids=lambda p: p.stem)
    def test_stdout_matches_the_preset_golden(self, preset, capsys):
        # the term order of H_eff also sets the order inside each part
        assert main(["derive", str(preset)]) == EXIT_OK
        golden = REPO_ROOT / "goldens" / f"{preset.stem}_derive.txt"
        assert capsys.readouterr().out == golden.read_text(encoding="utf-8")

    @pytest.mark.parametrize("preset", PRESETS, ids=lambda p: p.stem)
    def test_printed_defect_is_the_dense_one(self, preset, capsys):
        assert main(["derive", str(preset), "--project-level", "r"]) == EXIT_OK
        line = [ln for ln in capsys.readouterr().out.splitlines() if ln.startswith("hermiticity")]
        scenario = parse_scenario(preset.read_text())
        h_eff = project_out_level(effective_hamiltonian(scenario.drive), "r")
        dense = hermiticity_defect(realize(h_eff, scenario.space, scenario.params))
        assert line == [f"hermiticity defect (n_max={scenario.space.n_max}): {dense:.3e}"]

    @pytest.mark.parametrize("preset", PRESETS, ids=lambda p: p.stem)
    def test_derive_loads_no_numpy(self, preset):
        # a fresh interpreter, since this one has numpy loaded already.  The
        # benchmark harness (bench/child.py) wraps functions of these modules
        # right after `import dforge`, so the package must load them eagerly.
        # derive needs no arrays, generates no classes and hashes nothing.
        script = (
            "import sys\n"
            "import dforge\n"
            "eager = {'dforge.algebra', 'dforge.spaces', 'dforge.effective',\n"
            "         'dforge.dynamics', 'dforge.scenario'}\n"
            "assert eager <= set(sys.modules), sorted(eager - set(sys.modules))\n"
            "from dforge.cli import main\n"
            f"assert main(['derive', {str(preset)!r}]) == 0\n"
            "loaded = sorted(m for m in sys.modules if m.startswith('numpy.')\n"
            "                or m in ('dataclasses', 'inspect', 'hashlib'))\n"
            "assert not loaded, loaded\n"
        )
        proc = run_fresh("-c", script)
        assert proc.returncode == 0, proc.stderr


class TestSimulate:
    def test_mode_takes_only_both(self, config_path, tmp_path, capsys):
        # --mode both is the default spelled out; every other mode is gone
        plain, both = tmp_path / "plain.csv", tmp_path / "both.csv"
        assert main(["simulate", str(config_path), "--out", str(plain)]) == EXIT_OK
        assert main(["simulate", str(config_path), "--mode", "both", "--out", str(both)]) == EXIT_OK
        assert plain.read_bytes() == both.read_bytes()
        assert plain.read_text().startswith("# dforge simulate mode=both ")
        for mode in ("full", "effective"):
            out = tmp_path / f"{mode}.csv"
            with pytest.raises(SystemExit) as exc:
                main(["simulate", str(config_path), "--mode", mode, "--out", str(out)])
            assert exc.value.code == EXIT_CONFIG
            assert "invalid choice" in capsys.readouterr().err
            assert not out.exists()

    def test_both_mode_fidelity_column(self, config_path, tmp_path):
        out = tmp_path / "run.csv"
        assert main(
            ["simulate", str(config_path), "--out", str(out)]
        ) == EXIT_OK
        _, rows, _ = read_csv(out)
        fid = [float(row[5]) for row in rows]
        assert fid[0] == pytest.approx(1.0, abs=1e-12)
        assert min(fid) > 0.99  # delta/coupling = 100 is deep dispersive

    def test_zero_detuning_exit_code(self, tmp_path, capsys):
        cfg = tmp_path / "resonant.cfg"
        cfg.write_text(CONFIG.replace("delta = 100.0", "delta = 0"))
        out = tmp_path / "run.csv"
        assert main(["simulate", str(cfg), "--out", str(out)]) == EXIT_CONFIG
        assert "detuning 'delta' is zero" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "old, new, message",
        [
            ("delta = 100.0", "delta = nan", "[params] delta = nan is not finite"),
            ("g1 = 1.0", "g1 = inf", "[params] g1 = inf is not finite"),
            ("t_end = 50.0", "t_end = nan", "t_end must be positive and finite, got nan"),
            ("t_end = 50.0", "t_end = inf", "t_end must be positive and finite, got inf"),
            ("initial = e,0", "initial = e,coherent(30)", "no weight on Fock 0..8"),
            ("initial = e,0", "initial = e,coherent(100)", "no weight on Fock 0..8"),
            ("g1 = 1.0", "g1 = 1e200", "coefficient g1*g1/delta is not finite"),
            ("sig(g,r)*ad", "1e200*sig(g,r)*ad", "0*g1*g1/delta is not finite"),
        ],
        ids=[
            "nan-delta", "inf-g1", "nan-t_end", "inf-t_end", "coherent-30", "coherent-100",
            "huge-g1", "huge-literal",
        ],
    )
    @pytest.mark.parametrize("mode", [["--mode", "both"], []], ids=["both", "default"])
    def test_unusable_number_exit_code(self, tmp_path, capsys, old, new, message, mode):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(CONFIG.replace(old, new))
        out = tmp_path / "run.csv"
        assert main(["simulate", str(cfg), *mode, "--out", str(out)]) == EXIT_CONFIG
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "old, new",
        [("g1 = 1.0", "g1 = 1e20"), ("sig(g,r)*ad", "1e20*sig(g,r)*ad")],
        ids=["huge-g1", "huge-literal"],
    )
    def test_unresolvable_phases_exit_2(self, tmp_path, capsys, old, new):
        # every coefficient is finite, but the phases of a run are not
        # resolved: exit 2 with no CSV and no manifest
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(CONFIG.replace(old, new))
        out = tmp_path / "run.csv"
        assert main(["simulate", str(cfg), "--out", str(out)]) == EXIT_CONFIG
        assert "beyond what double precision resolves" in capsys.readouterr().err
        assert not out.exists()
        assert not (tmp_path / "run.csv.manifest.json").exists()

    def test_zero_coupling_constant_columns(self, tmp_path):
        text = CONFIG
        for key in ("g1", "g2", "Omega"):
            text = text.replace(f"{key} = 1.0", f"{key} = 0.0")
        cfg = tmp_path / "zero.cfg"
        cfg.write_text(text)
        out = tmp_path / "run.csv"
        assert main(["simulate", str(cfg), "--out", str(out)]) == EXIT_OK
        _, rows, _ = read_csv(out)
        for row in rows:
            assert float(row[3]) == pytest.approx(1.0, abs=1e-12)
            assert float(row[4]) == pytest.approx(0.0, abs=1e-12)
            assert float(row[5]) == pytest.approx(1.0, abs=1e-12)

    def test_deterministic_output(self, config_path, tmp_path):
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        main(["simulate", str(config_path), "--out", str(out1)])
        main(["simulate", str(config_path), "--out", str(out2)])
        assert out1.read_bytes() == out2.read_bytes()

    def test_manifest_sidecar(self, config_path, tmp_path):
        out = tmp_path / "run.csv"
        main(["simulate", str(config_path), "--out", str(out)])
        manifest = json.loads((tmp_path / "run.csv.manifest.json").read_text())
        assert set(manifest) == {"config", "health", "settings", "version", "wall_time_s"}
        assert manifest["config"].encode("utf-8") == config_path.read_bytes()
        assert manifest["settings"] == {"command": "simulate", "mode": "both"}
        assert manifest["wall_time_s"] >= 0.0
        # the ratio is taken at the printed n_mean
        health = manifest["health"]
        scenario = parse_scenario(config_path.read_text())
        _, rows, _ = read_csv(out)
        n_peak = max(float(row[4]) for row in rows)
        assert health["dispersive_ratio"] == pytest.approx(
            dispersive_ratio(scenario.drive, scenario.params, n_peak), rel=1e-9
        )
        assert health["coherent_tail_mass"] == 0.0

    def test_crlf_config_is_recorded_byte_for_byte(self, tmp_path):
        cfg = tmp_path / "crlf.cfg"
        cfg.write_bytes(
            (REPO_ROOT / "presets" / "dimensionless.cfg").read_bytes().replace(b"\n", b"\r\n")
        )
        out = tmp_path / "run.csv"
        assert main(["simulate", str(cfg), "--out", str(out)]) == EXIT_OK
        manifest = json.loads((tmp_path / "run.csv.manifest.json").read_text())
        assert b"\r\n" in cfg.read_bytes()
        assert manifest["config"].encode() == cfg.read_bytes()

    def test_simulate_loads_no_hashlib(self, config_path, tmp_path):
        # a fresh interpreter, since this one may have hashlib loaded already:
        # the manifest keeps the config text, so nothing loads OpenSSL
        out = tmp_path / "run.csv"
        script = (
            "import sys\n"
            "from dforge.cli import main\n"
            f"assert main(['simulate', {str(config_path)!r}, '--out', {str(out)!r}]) == 0\n"
            "loaded = sorted(m for m in sys.modules if m in ('hashlib', '_hashlib'))\n"
            "assert not loaded, loaded\n"
        )
        proc = run_fresh("-c", script)
        assert proc.returncode == 0, proc.stderr
        assert (tmp_path / "run.csv.manifest.json").exists()

    def test_manifest_health_block(self, config_path, ungraded_config_path, tmp_path):
        # the exact run has no order to refine (null order and change); the
        # Fourier run stops at order 4, where its samples moved by about
        # 3.8e-5 from order 2
        for cfg, method in ((config_path, "exact"), (ungraded_config_path, "fourier")):
            out = tmp_path / "run.csv"
            assert main(["simulate", str(cfg), "--out", str(out)]) == EXIT_OK
            manifest = json.loads((tmp_path / "run.csv.manifest.json").read_text())
            health = manifest["health"]
            assert set(health) == {
                "norm_drift", "unitarity_defect", "method", "fourier_order",
                "refinement_change", "top_fock_population", "first_order_remainder_bound",
                "dispersive_ratio", "coherent_tail_mass",
            }
            scenario = parse_scenario(cfg.read_text())
            assert health["first_order_remainder_bound"] == kick_bound(
                scenario.drive, scenario.params, scenario.space
            )
            _, rows, _ = read_csv(out)
            n_peak = max(float(row[4]) for row in rows)
            assert health["dispersive_ratio"] == pytest.approx(
                dispersive_ratio(scenario.drive, scenario.params, n_peak), rel=1e-9
            )
            assert health["coherent_tail_mass"] == 0.0
            assert health["method"] == method
            assert 0.0 <= health["unitarity_defect"] <= 1e-10
            assert 0.0 <= health["norm_drift"] <= 1e-8
            assert 0.0 <= health["top_fock_population"] <= 1.0
            if method == "exact":
                assert health["fourier_order"] is None
                assert health["refinement_change"] is None
            else:
                assert health["fourier_order"] == 4
                assert 0.0 < health["refinement_change"] <= 1e-3

    def test_top_fock_population_tracks_the_cutoff(self, tmp_path):
        # a coherent state of mean photon number 4 reaches n_max = 8; |e,0>
        # barely leaves the bottom of the ladder
        tops = {}
        for initial in ("e,0", "g,coherent(2.0)"):
            cfg = tmp_path / "state.cfg"
            cfg.write_text(CONFIG.replace("initial = e,0", f"initial = {initial}"))
            out = tmp_path / "run.csv"
            assert main(["simulate", str(cfg), "--out", str(out)]) == EXIT_OK
            manifest = json.loads((tmp_path / "run.csv.manifest.json").read_text())
            tops[initial] = manifest["health"]["top_fock_population"]
        assert tops["g,coherent(2.0)"] > 1e-2
        assert tops["e,0"] < 1e-6

    def test_coherent_tail_mass_of_the_initial_state(self, tmp_path):
        # coherent(3.0) keeps all but 2.2% of its Poisson weight on Fock 0..15
        cfg = tmp_path / "state.cfg"
        cfg.write_text(
            CONFIG.replace("initial = e,0", "initial = g,coherent(3.0)").replace(
                "n_max = 8", "n_max = 15"
            )
        )
        out = tmp_path / "run.csv"
        assert main(["simulate", str(cfg), "--out", str(out)]) == EXIT_OK
        health = json.loads((tmp_path / "run.csv.manifest.json").read_text())["health"]
        assert health["coherent_tail_mass"] == coherent_tail_mass(3.0, 15)
        assert health["coherent_tail_mass"] == pytest.approx(0.02204, abs=1e-5)

    def test_uncoupled_model_records_a_null_ratio(self, tmp_path):
        # no coupling gives an infinite ratio, which JSON cannot hold
        cfg = tmp_path / "uncoupled.cfg"
        cfg.write_text(
            CONFIG.replace("g1 = 1.0", "g1 = 0.0")
            .replace("g2 = 1.0", "g2 = 0.0")
            .replace("Omega = 1.0", "Omega = 0.0")
        )
        out = tmp_path / "run.csv"
        assert main(["simulate", str(cfg), "--out", str(out)]) == EXIT_OK
        health = json.loads((tmp_path / "run.csv.manifest.json").read_text())["health"]
        assert health["dispersive_ratio"] is None

    @pytest.mark.parametrize("preset", PRESETS, ids=[p.name for p in PRESETS])
    def test_shipped_preset_runs_at_defaults(self, preset, tmp_path):
        out = tmp_path / "run.csv"
        assert main(["simulate", str(preset), "--out", str(out)]) == EXIT_OK
        _, rows, _ = read_csv(out)
        assert len(rows) == 200
        manifest = json.loads((tmp_path / "run.csv.manifest.json").read_text())
        assert manifest["config"] == preset.read_text(encoding="utf-8")
        health = manifest["health"]
        assert health["method"] == "exact"
        assert health["refinement_change"] is None
        assert health["coherent_tail_mass"] == 0.0
        ratio = {"dimensionless.cfg": 75.208, "rb85.cfg": 223.692}[preset.name]
        assert health["dispersive_ratio"] == pytest.approx(ratio, abs=1e-3)

    def test_unconverged_run_writes_manifest_only(self, tmp_path, capsys):
        # at delta = 1 the drive is as strong as the detuning, and going
        # from Fourier order 8 to 16 still moves the samples by about
        # 5.2e-3: exit 3 with the health block on record, but no CSV
        cfg = tmp_path / "resonant.cfg"
        cfg.write_text(
            UNGRADED_CONFIG.replace("delta = 100.0", "delta = 1.0").replace(
                "n_max = 8", "n_max = 3"
            )
        )
        out = tmp_path / "run.csv"
        assert main(["simulate", str(cfg), "--out", str(out)]) == EXIT_NUMERICAL
        assert "not converged" in capsys.readouterr().err
        assert not out.exists()
        manifest = json.loads((tmp_path / "run.csv.manifest.json").read_text())
        assert manifest["config"] == cfg.read_text()
        assert manifest["settings"]["mode"] == "both"
        assert manifest["health"]["method"] == "fourier"
        assert manifest["health"]["fourier_order"] == 16
        assert manifest["health"]["refinement_change"] > 1e-3


class TestSweep:
    def test_delta_sweep_writes_slope(self, config_path, tmp_path):
        out = tmp_path / "sweep.csv"
        code = main(
            ["sweep", str(config_path), "--vary", "delta=40,80,160",
             "--out", str(out)]
        )
        assert code == EXIT_OK
        header, rows, comments = read_csv(out)
        assert header == ["delta", "max_infidelity"]
        assert [float(r[0]) for r in rows] == [40.0, 80.0, 160.0]
        slope_lines = [c for c in comments if c.startswith("# slope=")]
        assert len(slope_lines) == 1
        assert float(slope_lines[0].split("=")[1]) < 0
        # exact rows have no order to refine, so none is flagged
        assert not any(c.startswith("# unconverged") for c in comments)

    def test_manifest_records_each_row(self, config_path, tmp_path):
        out = tmp_path / "sweep.csv"
        assert main(
            ["sweep", str(config_path), "--vary", "delta=40,80,160", "--out", str(out)]
        ) == EXIT_OK
        rows = json.loads((tmp_path / "sweep.csv.manifest.json").read_text())["rows"]
        assert [row["value"] for row in rows] == [40.0, 80.0, 160.0]
        _, csv_rows, _ = read_csv(out)
        for row, csv_row in zip(rows, csv_rows, strict=True):
            assert set(row) == {"value", "ratio", "included", "max_infidelity", "health"}
            assert row["health"]["method"] == "exact"
            assert row["ratio"] >= 20 and row["included"]
            assert float(csv_row[1]) == pytest.approx(row["max_infidelity"], rel=1e-11)

    def test_row_without_coupling_writes_strict_json(self, tmp_path):
        # an uncoupled row runs the zero drive and has an infinite ratio,
        # written as null, in its row and in its run's record
        cfg = tmp_path / "uncoupled.cfg"
        cfg.write_text(CONFIG.replace("g2 = 1.0", "g2 = 0.0").replace("Omega = 1.0", "Omega = 0.0"))
        out = tmp_path / "sweep.csv"
        assert main(["sweep", str(cfg), "--vary", "g1=0,0.5", "--out", str(out)]) == EXIT_OK

        def reject(name):
            raise ValueError(f"{name} is not strict JSON")

        text = (tmp_path / "sweep.csv.manifest.json").read_text()
        uncoupled, coupled = json.loads(text, parse_constant=reject)["rows"]
        health = uncoupled.pop("health")
        assert uncoupled == {"value": 0.0, "ratio": None, "included": True, "max_infidelity": 0.0}
        assert health["dispersive_ratio"] is None and health["method"] == "exact"
        assert health["first_order_remainder_bound"] == 0.0
        assert coupled["ratio"] > 20 and coupled["health"]["method"] == "exact"
        assert coupled["ratio"] == coupled["health"]["dispersive_ratio"]

    def test_fine_step_sweep_flags_nothing(self, ungraded_config_path, tmp_path, capsys):
        # every Fourier row stops at an order whose change is below 1e-3
        out = tmp_path / "sweep.csv"
        assert main(
            ["sweep", str(ungraded_config_path), "--vary", "delta=40,80,160", "--out", str(out)]
        ) == EXIT_OK
        _, rows, comments = read_csv(out)
        assert len(rows) == 3
        assert not any(c.startswith("# unconverged") for c in comments)
        assert "unconverged" not in capsys.readouterr().err

    def test_negative_delta_sweep_writes_slope(self, config_path, tmp_path):
        out = tmp_path / "sweep.csv"
        assert main(
            ["sweep", str(config_path), "--vary", "delta=-50,-100", "--out", str(out)]
        ) == EXIT_OK
        _, rows, comments = read_csv(out)
        assert [float(r[0]) for r in rows] == [-50.0, -100.0]
        slope_lines = [c for c in comments if c.startswith("# slope=")]
        assert len(slope_lines) == 1
        assert float(slope_lines[0].split("=")[1]) < 0

    def test_single_value_sweep_has_no_slope(self, config_path, tmp_path):
        out = tmp_path / "sweep.csv"
        assert main(
            ["sweep", str(config_path), "--vary", "delta=80", "--out", str(out)]
        ) == EXIT_OK
        _, rows, comments = read_csv(out)
        assert len(rows) == 1
        assert not any(c.startswith("# slope=") for c in comments)

    def test_coupling_sweep(self, config_path, tmp_path):
        out = tmp_path / "sweep.csv"
        assert main(
            ["sweep", str(config_path), "--vary", "g1=0.5,1.0", "--out", str(out)]
        ) == EXIT_OK
        header, rows, _ = read_csv(out)
        assert header == ["g1", "max_infidelity"]
        assert len(rows) == 2
        assert all(float(r[1]) >= 0 for r in rows)

    def test_coupling_sweep_checks_ratio(self, config_path, tmp_path, capsys):
        # g1 = 30 at delta = 100 puts the dispersive ratio below 5
        out = tmp_path / "sweep.csv"
        assert main(
            ["sweep", str(config_path), "--vary", "g1=1,30", "--out", str(out)]
        ) == EXIT_CONFIG
        assert "detuning/coupling ratio" in capsys.readouterr().err

    @pytest.mark.parametrize("vary, status", [("delta=40,80", EXIT_CONFIG), ("delta=400,800", EXIT_OK)])
    def test_literal_factor_counts_in_the_coupling(self, tmp_path, capsys, vary, status):
        # 10*sig(g,r)*ad with g1 = 1 is the drive sig(g,r)*ad with g1 = 10:
        # the same run, ratio, horizon, rows and exit code.  At g1 = 10 the
        # ratio at delta = 40 is below 5.
        spellings = {
            "literal": CONFIG.replace("g1 : sig(g,r)*ad", "g1 : 10*sig(g,r)*ad"),
            "symbol": CONFIG.replace("g1 = 1.0", "g1 = 10"),
        }
        outputs = {}
        for name, config in spellings.items():
            cfg = tmp_path / f"{name}.cfg"
            cfg.write_text(config)
            sim = tmp_path / f"{name}_run.csv"
            assert main(["simulate", str(cfg), "--out", str(sim)]) == EXIT_OK
            health = json.loads((tmp_path / f"{name}_run.csv.manifest.json").read_text())["health"]
            sweep = tmp_path / f"{name}_sweep.csv"
            assert main(["sweep", str(cfg), "--vary", vary, "--out", str(sweep)]) == status
            err = capsys.readouterr().err
            csv = sweep.read_text().split("\n", 1)[1] if sweep.exists() else None
            outputs[name] = (sim.read_text().split("\n", 1)[1], health, err, csv)
        assert outputs["literal"] == outputs["symbol"]

    def test_ratio_checked_after_each_row_run(self, config_path, tmp_path, capsys, monkeypatch):
        # the failing row is the second one, and the error names it after
        # its own run: each row is judged on its run's record
        calls = []
        propagate_full = dynamics.propagate_full

        def counting(*args, **kwargs):
            calls.append(args)
            return propagate_full(*args, **kwargs)

        monkeypatch.setattr(dynamics, "propagate_full", counting)
        out = tmp_path / "sweep.csv"
        assert main(
            ["sweep", str(config_path), "--vary", "g1=1,30", "--out", str(out)]
        ) == EXIT_CONFIG
        assert len(calls) == 2  # the good row and the failing one
        assert "at g1=30" in capsys.readouterr().err

    def test_failed_ratio_check_writes_manifest_only(self, config_path, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        assert main(
            ["sweep", str(config_path), "--vary", "g1=1,30", "--out", str(out)]
        ) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert not out.exists()
        manifest = json.loads((tmp_path / "sweep.csv.manifest.json").read_text())
        assert manifest["config"] == config_path.read_text()
        assert manifest["settings"] == {"command": "sweep", "vary": "g1=1,30"}
        assert "detuning/coupling ratio" in manifest["error"]
        assert "at g1=30" in manifest["error"]
        assert manifest["error"] in err

    def test_zero_detuning_row_fails_the_ratio_check(self, config_path, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        assert main(
            ["sweep", str(config_path), "--vary", "delta=0,100", "--out", str(out)]
        ) == EXIT_CONFIG
        assert not out.exists()
        manifest = json.loads((tmp_path / "sweep.csv.manifest.json").read_text())
        assert "detuning/coupling ratio 0.00" in manifest["error"]
        assert "at delta=0" in manifest["error"]
        assert manifest["error"] in capsys.readouterr().err

    def test_coupling_sweep_flags_unconverged_rows(self, tmp_path, capsys, monkeypatch):
        # a coupling row keeps the config's t_end; a ratio the sweep accepts
        # converges by order 4, so the ladder is cut to orders 1 and 2,
        # between which the samples of either row move by more than 1e-3
        monkeypatch.setattr(dynamics, "FOURIER_ORDERS", (1, 2))
        cfg = tmp_path / "long.cfg"
        cfg.write_text(UNGRADED_CONFIG.replace("t_end = 50.0", "t_end = 200.0"))
        out = tmp_path / "sweep.csv"
        assert main(
            ["sweep", str(cfg), "--vary", "g1=0.5,1.0", "--out", str(out)]
        ) == EXIT_OK
        _, rows, comments = read_csv(out)
        assert len(rows) == 2
        notes = [c for c in comments if c.startswith("# unconverged ")]
        assert [n.split()[2] for n in notes] == ["g1=0.5", "g1=1"]
        for note in notes:
            assert float(note.split("sample_change=")[1]) > 1e-3
        assert capsys.readouterr().err.splitlines() == notes

    @pytest.mark.parametrize("vary", ["g1=nan", "g1=0.5,inf", "delta=nan", "delta=100,inf"])
    def test_non_finite_vary_value_rejected(self, config_path, tmp_path, capsys, monkeypatch, vary):
        def no_full_run(*args, **kwargs):
            raise AssertionError("propagated a row before checking the values")

        monkeypatch.setattr(dynamics, "propagate_full", no_full_run)
        out = tmp_path / "sweep.csv"
        assert main(["sweep", str(config_path), "--vary", vary, "--out", str(out)]) == EXIT_CONFIG
        assert "is not finite" in capsys.readouterr().err
        assert not out.exists()

    def test_malformed_vary_value_rejected(self, config_path, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        assert main(
            ["sweep", str(config_path), "--vary", "delta=1,abc", "--out", str(out)]
        ) == EXIT_CONFIG
        assert "error: --vary delta: 'abc' is not a number" in capsys.readouterr().err
        assert not out.exists()

    def test_coherent_amplitude_past_truncation(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(CONFIG.replace("initial = e,0", "initial = e,coherent(30)"))
        out = tmp_path / "sweep.csv"
        assert main(["sweep", str(cfg), "--vary", "delta=50,100", "--out", str(out)]) == EXIT_CONFIG
        assert "no weight on Fock 0..8" in capsys.readouterr().err
        assert not out.exists()

    def test_coupling_outside_double_range(self, tmp_path, capsys):
        # the horizon |delta| / g1**2 would overflow; the realized H_eff fails first
        cfg = tmp_path / "huge.cfg"
        cfg.write_text(CONFIG.replace("g1 = 1.0", "g1 = 1e200"))
        out = tmp_path / "sweep.csv"
        assert main(["sweep", str(cfg), "--vary", "delta=100,200", "--out", str(out)]) == EXIT_CONFIG
        assert "coefficient g1*g1/delta is not finite" in capsys.readouterr().err
        assert not out.exists()
        assert not (tmp_path / "sweep.csv.manifest.json").exists()

    def test_unknown_vary_key(self, config_path, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        assert main(
            ["sweep", str(config_path), "--vary", "bogus=1,2", "--out", str(out)]
        ) == EXIT_CONFIG
        assert "unknown sweep parameter" in capsys.readouterr().err

    def test_vary_key_used_by_no_channel(self, tmp_path, capsys, monkeypatch):
        def no_full_run(*args, **kwargs):
            raise AssertionError("propagated a row of a key that changes nothing")

        monkeypatch.setattr(dynamics, "propagate_full", no_full_run)
        cfg = tmp_path / "unused.cfg"
        cfg.write_text(CONFIG.replace("[params]\n", "[params]\nfoo = 1\n"))
        out = tmp_path / "sweep.csv"
        assert main(["sweep", str(cfg), "--vary", "foo=1,2", "--out", str(out)]) == EXIT_CONFIG
        assert "sweep parameter 'foo' is used by no channel" in capsys.readouterr().err
        assert not out.exists()
        assert not (tmp_path / "sweep.csv.manifest.json").exists()

    def test_vary_requires_values(self, config_path, tmp_path):
        out = tmp_path / "sweep.csv"
        assert main(
            ["sweep", str(config_path), "--vary", "delta", "--out", str(out)]
        ) == EXIT_CONFIG


class TestExit:
    """Importing the CLI freezes the collector at interpreter exit, so the
    collections CPython runs as it finalizes walk no live object."""

    #: registered before dforge is imported, so it runs after any dforge hook
    PROBE = (
        "import atexit, gc, sys\n"
        "atexit.register(lambda: print('freeze_count', gc.get_freeze_count()))\n"
    )

    def freeze_count_at_exit(self, script):
        proc = run_fresh("-c", self.PROBE + script)
        assert proc.returncode == 0, proc.stderr
        name, count = proc.stdout.splitlines()[-1].split()
        assert name == "freeze_count"
        return int(count)

    @pytest.mark.parametrize("preset", PRESETS, ids=lambda p: p.stem)
    def test_cli_freezes_the_collector_at_exit(self, preset):
        script = f"from dforge.cli import main\nassert main(['derive', {str(preset)!r}]) == 0\n"
        assert self.freeze_count_at_exit(script) > 0

    def test_library_registers_no_exit_hook(self):
        preset = REPO_ROOT / "presets" / "dimensionless.cfg"
        script = (
            "import dforge\n"
            f"scenario = dforge.parse_scenario(open({str(preset)!r}).read())\n"
            "dforge.effective_hamiltonian(scenario.drive)\n"
            "assert 'dforge.cli' not in sys.modules\n"
        )
        assert self.freeze_count_at_exit(script) == 0

    def test_in_process_main_leaves_the_collector_alone(self, config_path, tmp_path):
        # a freeze inside main would pin every cycle alive in its caller
        before = (gc.get_freeze_count(), gc.isenabled())
        assert main(["derive", str(config_path)]) == EXIT_OK
        out = tmp_path / "run.csv"
        assert main(["simulate", str(config_path), "--mode", "both", "--out", str(out)]) == EXIT_OK
        assert (gc.get_freeze_count(), gc.isenabled()) == before

    def test_fresh_process_output_matches_in_process(self, tmp_path, capsys):
        # every output is written and closed before main returns
        preset = str(REPO_ROOT / "presets" / "dimensionless.cfg")
        fresh, local = tmp_path / "fresh.csv", tmp_path / "local.csv"
        proc = run_fresh("-m", "dforge.cli", "simulate", preset, "--mode", "both", "--out", str(fresh))
        assert proc.returncode == 0, proc.stderr
        assert main(["simulate", preset, "--mode", "both", "--out", str(local)]) == EXIT_OK
        assert fresh.read_bytes() == local.read_bytes()
        manifests = []
        for out in (fresh, local):
            manifest = json.loads(out.with_name(out.name + ".manifest.json").read_text())
            manifest.pop("wall_time_s")
            manifests.append(manifest)
        assert manifests[0] == manifests[1]

        capsys.readouterr()
        proc = run_fresh("-m", "dforge.cli", "derive", preset)
        assert proc.returncode == 0, proc.stderr
        assert main(["derive", preset]) == EXIT_OK
        assert proc.stdout == capsys.readouterr().out


@pytest.mark.parametrize(
    "old, new, vary, message",
    [
        ("g1 = 1.0", "g1 = 1_0", None, "[params] g1 = 1_0 is not a number"),
        ("n_max = 8", "n_max = 1_5", None, "[space] n_max = 1_5 is not an integer"),
        ("initial = e,0", "initial = e,0_1", None,
         "bad state descriptor 'e,0_1' in [state] initial"),
        ("initial = e,0", "initial = g,coherent(0_5)", None,
         "bad state descriptor 'g,coherent(0_5)' in [state] initial"),
        ("t_end = 50.0", "t_end = 5_0", None, "[time] t_end = 5_0 is not a number"),
        ("samples = 40", "samples = 4_0", None, "[time] samples = 4_0 is not an integer"),
        (None, None, "g1=0_5,1", "--vary g1: '0_5' is not a number"),
    ],
    ids=["params", "space", "state-fock", "state-coherent", "time-t_end", "time-samples", "vary"],
)
def test_digit_group_underscore_is_rejected(tmp_path, capsys, old, new, vary, message):
    # int(), float() and complex() read 1_5 as 15; no config number has one
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(CONFIG if old is None else CONFIG.replace(old, new))
    out = tmp_path / "out.csv"
    argv = ["derive", str(cfg)]
    if vary is not None:
        argv = ["sweep", str(cfg), "--vary", vary, "--out", str(out)]
    assert main(argv) == EXIT_CONFIG
    assert f"error: {message}" in capsys.readouterr().err
    assert not out.exists()
