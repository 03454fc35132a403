import gc
import json
import math
import os
import subprocess
import sys
from typing import NamedTuple

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
PRESET_TEXT = (REPO_ROOT / "presets" / "dimensionless.cfg").read_text()


class ConfigError(NamedTuple):
    """A config or command line that exits 2 before any run: every ``old``
    of ``edits`` in ``base`` is replaced by its ``new``, and then each of
    ``commands`` (``{cfg}`` and ``{out}`` stand for the files) prints
    ``error: <error>`` and nothing else."""

    edits: tuple[tuple[str, str], ...]
    commands: tuple[str, ...]
    error: str
    base: str = CONFIG


DERIVE = ("derive {cfg}",)
SIMULATE = ("simulate {cfg} --out {out}",)


def sweep(vary):
    return (f"sweep {{cfg}} --vary {vary} --out {{out}}",)


NO_WEIGHT = "leaves no weight on Fock 0..8 in [state] initial"
NOT_FINITE = "is not finite in double precision"
T_END = "t_end must be positive and finite, got"
ZERO_CHANNEL = "channel operator must be nonzero in [channels] g1"
ZERO_DETUNING = "detuning 'delta' is zero; the dispersive expansion divides by it"
MISSING_FACTOR = "expected coefficient, operator, or '(' in [channels] g1"
CANCELS = "coupling symbol 'g1' cancels out of M in [channels] g1"
PHASES = "the phases are beyond what double precision resolves"

#: unusable numbers: (old, new, error)
NUMBERS = {
    "nan-delta": ("delta = 100.0", "delta = nan", "[params] delta = nan is not finite"),
    "inf-g1": ("g1 = 1.0", "g1 = inf", "[params] g1 = inf is not finite"),
    "coherent-30": ("initial = e,0", "initial = e,coherent(30)",
                    f"coherent amplitude (30+0j) {NO_WEIGHT}"),
    "coherent-100": ("initial = e,0", "initial = e,coherent(100)",
                     f"coherent amplitude (100+0j) {NO_WEIGHT}"),
    "negative-t_end": ("t_end = 50.0", "t_end = -3", f"{T_END} -3.0 in [time]"),
    "nan-t_end": ("t_end = 50.0", "t_end = nan", f"{T_END} nan in [time]"),
    "inf-t_end": ("t_end = 50.0", "t_end = inf", f"{T_END} inf in [time]"),
    "one-sample": ("samples = 40", "samples = 1", "need at least two samples in [time]"),
    "huge-g1": ("g1 = 1.0", "g1 = 1e200", f"coefficient g1*g1/delta {NOT_FINITE}"),
    # the literal enters H_eff squared
    "huge-literal": ("sig(g,r)*ad", "1e200*sig(g,r)*ad",
                     f"coefficient 1e+400*g1*g1/delta {NOT_FINITE}"),
    # rejected before the number is built
    "huge-exponent": ("sig(g,r)*ad", "1e10000000*sig(g,r)*ad", "parse error at byte offset 0: "
                      "expected number with exponent within +-4300 in [channels] g1"),
    "fractional-n_max": ("n_max = 8", "n_max = 1.5", "[space] n_max = 1.5 is not an integer"),
    "word-g1": ("g1 = 1.0", "g1 = abc", "[params] g1 = abc is not a number"),
    "word-t_end": ("t_end = 50.0", "t_end = abc", "[time] t_end = abc is not a number"),
    "float-samples": ("samples = 40", "samples = 4e1", "[time] samples = 4e1 is not an integer"),
    "fractional-fock": ("initial = e,0", "initial = e,1.5",
                        "bad state descriptor 'e,1.5' in [state] initial"),
    "word-amplitude": ("initial = e,0", "initial = e,coherent(abc)",
                       "bad state descriptor 'e,coherent(abc)' in [state] initial"),
}

#: every case that exits 2 and leaves the output files as they were, keyed
#: ``<group>/<id>`` for the test that runs a group and ``<id>`` for a test of
#: one case
CONFIG_ERRORS = {
    "parse/plus-after-star": ConfigError(
        (("sig(g,r)*ad", "sig(g,r)*+ad"),), DERIVE, f"parse error at byte offset 9: {MISSING_FACTOR}"),
    # a missing factor at the end of the line, or a line with none, has the same message
    "parse/trailing-plus": ConfigError(
        (("sig(g,r)*ad", "sig(g,r)*ad +"),), DERIVE, f"parse error at byte offset 13: {MISSING_FACTOR}"),
    "parse/empty-channel": ConfigError(
        (("g1 : sig(g,r)*ad", "g1 :"),), DERIVE, f"parse error at byte offset 0: {MISSING_FACTOR}"),
    # the 101st "(" is refused long before the descent would exhaust Python's stack
    "parse/deep-nesting": ConfigError(
        (("sig(g,r)*ad", "(" * 400 + "sig(g,r)*ad" + ")" * 400),), DERIVE,
        "parse error at byte offset 100: expected at most 100 nested '(' in [channels] g1"),
    # Fraction(1, 0) would raise a ZeroDivisionError that main does not catch
    "parse/zero-denominator": ConfigError(
        (("sig(g,r)*ad", "1/0*sig(g,r)*ad"),), DERIVE,
        "parse error at byte offset 2: expected nonzero denominator in [channels] g1"),
    "parse/two-decimal-points": ConfigError(
        (("sig(g,r)*ad", "1.2.3*sig(g,r)*ad"),), DERIVE,
        "parse error at byte offset 0: expected number in [channels] g1"),
    # printed, "a" would read back as a third annihilator and "i" as the imaginary unit
    **{
        f"parse/symbol-{name}": ConfigError(
            (("g1", symbol),), DERIVE,
            f"[channels] coupling symbol {symbol!r} is not one identifier other than i, a, ad and sig")
        for name, symbol in [("a", "a"), ("i", "i"), ("2", "2"), ("sig", "sig"), ("g-1", "g-1"),
                             ("g_1", "g 1")]
    },
    # the parser's message, then the channel it comes from
    "parse/channel-exponent": ConfigError(
        (("sig(e,r)*a", "sig(e,r)*a*1e9999"),), DERIVE,
        "parse error at byte offset 11: expected number with exponent within +-4300 in [channels] g2"),
    # the place of a malformed line in the file is not known, so it claims no byte offset
    "malformed/before-header": ConfigError(
        (("[levels]\n", "delta 100\n[levels]\n"),), DERIVE,
        "'delta 100' comes before the first section header"),
    "malformed/params-without-equals": ConfigError(
        (("delta = 100.0", "delta 100"),), DERIVE, "[params] 'delta 100' is not a key = value line"),
    "malformed/channel-without-colon": ConfigError(
        (("g2 : sig(e,r)*a", "g2 sig(e,r)*a"),), DERIVE,
        "[channels] 'g2 sig(e,r)*a' is not a symbol : expression line"),
    # every channel shares delta; a channel line has no detuning tag
    "distinct-detuning": ConfigError(
        (("sig(g,r)*ad", "sig(g,r)*ad @ delta2"),), DERIVE,
        "illegal character '@' at byte offset 12 in [channels] g1"),
    # the summed drive of the shipped preset, checked before derive or a sweep runs
    **{
        f"preset/{name}": ConfigError(edits, DERIVE + sweep("g1=1,2"), error, PRESET_TEXT)
        for name, edits, error in [
            # g1's two lines cancel, so H_eff would lose its one- and two-photon parts
            ("cancelling-lines", [("g2 : sig(e,r)*a", "g1 : -sig(g,r)*ad")], ZERO_CHANNEL),
            # g1 still scales g2's line, but its own line is zero
            ("zero-factor-symbol", [("g1 : sig(g,r)*ad", "g1 : 0*sig(g,r)*ad"),
                                    ("g2 : sig(e,r)*a", "g2 : g1*sig(e,r)*a")], ZERO_CHANNEL),
            # g1's and g2's lines cancel each other in M
            ("cancelling-symbols", [("g1 : sig(g,r)*ad", "g1 : g2*sig(g,r)"),
                                    ("g2 : sig(e,r)*a", "g2 : -g1*sig(g,r)"),
                                    ("Omega : sig(g,r)", "Omega : sig(e,r)*a")], CANCELS),
            # g1's line divides g1 out
            ("divided-out-symbol", [("g1 : sig(g,r)*ad", "g1 : 1/g1*sig(g,r)*ad")], CANCELS),
            # declared labels that no channel could name
            ("spectroscopic-labels", [("g, r, e", "40S, 39P, 39S"), ("sig(g,r)", "sig(40S,39P)"),
                                      ("sig(e,r)", "sig(39S,39P)"), ("initial = e,0", "initial = 39S,0")],
             "level label '40S' is not an identifier in [levels]"),
            ("digit-first-label", [("g, r, e", "g, r, e, 5D")],
             "level label '5D' is not an identifier in [levels]"),
        ]
    },
    **{
        f"zero-detuning/{command.split()[0]}": ConfigError(
            (("delta = 100.0", "delta = 0"),), (command,), ZERO_DETUNING)
        for command in DERIVE + SIMULATE
    },
    # a swept zero fails the config's own rule, before any row runs
    "zero-detuning/sweep": ConfigError((), sweep("delta=0,100"), ZERO_DETUNING),
    **{
        f"number/{name}": ConfigError(((old, new),), DERIVE, error)
        for name, (old, new, error) in NUMBERS.items()
    },
    # --mode both is the default spelled out
    **{
        f"simulate-number/{mode}-{name}": ConfigError(
            (NUMBERS[name][:2],), (f"simulate {{cfg}} {flag}--out {{out}}",), NUMBERS[name][2])
        for name in ["nan-delta", "inf-g1", "nan-t_end", "inf-t_end", "coherent-30", "coherent-100",
                     "huge-g1", "huge-literal"]
        for mode, flag in [("both", "--mode both "), ("default", "")]
    },
    # every coefficient is finite, but the phases of the run are not resolved;
    # at g1 = 1e7 the rounding lies between the gate and 1
    **{
        f"phases/{name}": ConfigError(
            ((old, new),), SIMULATE,
            f"phase rounding {rounding} > 1e-03: {PHASES}")
        for name, old, new, rounding in [
            ("huge-g1", "g1 = 1.0", "g1 = 1e20", "9.992e+24"),
            ("huge-literal", "sig(g,r)*ad", "1e20*sig(g,r)*ad", "9.992e+24"),
            ("rounding-window", "g1 = 1.0", "g1 = 1e7", "9.992e-02"),
        ]
    },
    # the gate's product leaves double range: inf, with no overflow warning;
    # each H_eff coefficient is finite and the effective run fails first
    "phases/overflow-simulate": ConfigError(
        (("g1 = 1\n", "g1 = 1e154\n"),), SIMULATE, f"phase rounding inf > 1e-03: {PHASES}",
        PRESET_TEXT),
    # a sweep's key, its values and the realized H_eff are checked before any row runs
    **{
        f"non-finite-vary/{vary}": ConfigError((), sweep(vary), f"{bad} is not finite")
        for vary, bad in [("g1=nan", "g1=nan"), ("g1=0.5,inf", "g1=inf"),
                          ("delta=nan", "delta=nan"), ("delta=100,inf", "delta=inf")]
    },
    "malformed-vary": ConfigError((), sweep("delta=1,abc"), "--vary delta: 'abc' is not a number"),
    "unknown-vary-key": ConfigError((), sweep("bogus=1,2"), "unknown sweep parameter 'bogus'"),
    "vary-without-values": ConfigError((), sweep("delta"), "--vary expects key=v1,v2,..."),
    # every entry is read, so an empty one is an error, not a shorter list
    **{
        f"empty-vary-entry/{name}": ConfigError((), sweep(vary), "--vary delta: '' is not a number")
        for name, vary in [("inner", "delta=100,,200"), ("trailing", "delta=100,"),
                           ("no-values", "delta=")]
    },
    # a bound key that no channel uses would give identical rows
    "unused-vary-key": ConfigError(
        (("[params]\n", "[params]\nfoo = 1\n"),), sweep("foo=1,2"),
        "sweep parameter 'foo' is used by no channel"),
    "coherent-past-truncation": ConfigError(
        (NUMBERS["coherent-30"][:2],), sweep("delta=50,100"), NUMBERS["coherent-30"][2]),
    # the horizon |delta| / g1**2 would overflow; the realized H_eff fails first
    "coupling-outside-double-range": ConfigError(
        (NUMBERS["huge-g1"][:2],), sweep("delta=100,200"), NUMBERS["huge-g1"][2]),
    # a detuning row's horizon outside double range names the row
    "horizon/huge-detuning": ConfigError(
        (), sweep("delta=100,50,1e308"), f"{T_END} inf in the horizon of sweep row delta=1e+308",
        PRESET_TEXT),
    # 1e-170**2 underflows to 0, and 10 * 100 / 1e-170 / 1e-170 is inf
    "horizon/tiny-couplings": ConfigError(
        tuple((f"{sym} = 1.0", f"{sym} = 1e-170") for sym in ("g1", "g2", "Omega")),
        sweep("delta=100,200"), f"{T_END} inf in the horizon of sweep row delta=100"),
    # H_eff squares the literal: 4401 digits, past the 4300 that str() prints
    **{
        f"digits/{literal}": ConfigError(
            (("g1 : sig(g,r)*ad", f"g1 : {literal}*sig(g,r)*ad"),), DERIVE,
            f"coefficient {first} has too many digits to print", PRESET_TEXT)
        for literal, first in [("1e-2200", "1e-4400*g1*g1/delta"),
                               ("1e-4300", "1e-4300*g1*g2/delta")]
    },
    # int(), float() and complex() read 1_5 as 15; no config number has one
    **{
        f"digit-group/{name}": ConfigError(((old, new),), DERIVE, error)
        for name, old, new, error in [
            ("params", "g1 = 1.0", "g1 = 1_0", "[params] g1 = 1_0 is not a number"),
            ("space", "n_max = 8", "n_max = 1_5", "[space] n_max = 1_5 is not an integer"),
            ("state-fock", "initial = e,0", "initial = e,0_1",
             "bad state descriptor 'e,0_1' in [state] initial"),
            ("state-coherent", "initial = e,0", "initial = g,coherent(0_5)",
             "bad state descriptor 'g,coherent(0_5)' in [state] initial"),
            ("time-t_end", "t_end = 50.0", "t_end = 5_0", "[time] t_end = 5_0 is not a number"),
            ("time-samples", "samples = 40", "samples = 4_0", "[time] samples = 4_0 is not an integer"),
        ]
    },
    "digit-group/vary": ConfigError((), sweep("g1=0_5,1"), "--vary g1: '0_5' is not a number"),
    # one number reader serves the state, the config keys and --vary
    "config/fock-digit-group": ConfigError(
        (("initial = e,0", "initial = e,1_0"),), SIMULATE,
        "bad state descriptor 'e,1_0' in [state] initial"),
    # a range error names its section and key
    "config/zero-n_max": ConfigError(
        (("n_max = 8", "n_max = 0"),), DERIVE, "Fock truncation must be >= 1, got 0 in [space] n_max"),
    "config/zero-channel": ConfigError((("g1 : sig(g,r)*ad", "g1 : 0*sig(g,r)*ad"),), DERIVE, ZERO_CHANNEL),
    "config/empty-space": ConfigError(
        (("n_max = 8", ""),), DERIVE, "missing required config key 'n_max'"),
    "config/empty-channels": ConfigError(
        (("g1 : sig(g,r)*ad\ng2 : sig(e,r)*a\nOmega : sig(g,r)\n", ""),), DERIVE,
        "missing required config key 'channels'"),
    # H_eff divides by delta, so delta is not a coupling symbol
    "config/detuning-symbol": ConfigError(
        (("Omega : sig(g,r)\n", "Omega : sig(g,r)\ndelta : sig(g,r)\n"),), DERIVE,
        "detuning symbol 'delta' collides with a coupling symbol"),
}


#: the CONFIG_ERRORS keys that some test runs
CLAIMED = set()


def config_error_test(key):
    """A test of the CONFIG_ERRORS case ``key`` or, for a group, of each of
    its cases by id, through the ``exits_2`` check."""
    prefix = key + "/"
    cases = {k[len(prefix):]: case for k, case in CONFIG_ERRORS.items() if k.startswith(prefix)}
    CLAIMED.update(prefix + k for k in cases)
    if not cases:
        CLAIMED.add(key)
        def test(exits_2):
            exits_2(CONFIG_ERRORS[key])
    else:
        @pytest.mark.parametrize("case", list(cases.values()), ids=list(cases))
        def test(exits_2, case):
            exits_2(case)
    return staticmethod(test)


def config_text(case: ConfigError) -> str:
    text = case.base
    for old, new in case.edits:
        assert old in text
        text = text.replace(old, new)
    return text


@pytest.fixture
def exits_2(tmp_path, capsys, monkeypatch):
    """Check a ``ConfigError``: each command exits 2, prints its one error
    line and nothing else, starts no full run, writes no file and leaves the
    output and manifest of an earlier run as they were."""

    def no_full_run(*args, **kwargs):
        raise AssertionError("propagated before the error")

    monkeypatch.setattr(dynamics, "propagate_full", no_full_run)

    def check(case: ConfigError):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(config_text(case))
        names = ("out.csv", "out.csv.manifest.json")
        earlier = {tmp_path / name: f"earlier {name}\n" for name in names}
        for path, text in earlier.items():
            path.write_text(text)
        for command in case.commands:
            argv = [arg.format(cfg=cfg, out=tmp_path / "out.csv") for arg in command.split()]
            assert main(argv) == EXIT_CONFIG
            assert capsys.readouterr() == ("", f"error: {case.error}\n")
            assert sorted(tmp_path.iterdir()) == sorted([cfg, *earlier])
            assert {path: path.read_text() for path in earlier} == earlier

    return check


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
        # the shipped preset and CONFIG share their channels
        golden = REPO_ROOT / "goldens" / "rb85_heff_projected.txt"
        for cfg in (config_path, REPO_ROOT / "presets" / "rb85.cfg"):
            argv = ["derive", str(cfg), "--project-level", "r", "--golden", str(golden)]
            assert main(argv) == EXIT_OK
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

    test_parse_error_exit_code = config_error_test("parse")
    test_malformed_line_is_quoted_without_an_offset = config_error_test("malformed")
    test_distinct_detuning_exit_code = config_error_test("distinct-detuning")
    test_dimensionless_preset_variant_exit_code = config_error_test("preset")

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

    test_zero_detuning_exit_code = config_error_test("zero-detuning/derive")
    test_unusable_number_exit_code = config_error_test("number")
    test_coefficient_with_too_many_digits_exits_2 = config_error_test("digits")

    def test_scale_in_range_despite_an_overflowing_product(self, tmp_path, capsys):
        # g1*g1 is 1e400, but g1*g1/delta is 1e200
        cfg = tmp_path / "huge.cfg"
        cfg.write_text(
            CONFIG.replace("g1 = 1.0", "g1 = 1e200").replace("delta = 100.0", "delta = 1e200")
        )
        assert main(["derive", str(cfg)]) == EXIT_OK
        assert "\n  g1*g1/delta = 1e+200\n" in capsys.readouterr().out

    def test_scale_labels_are_printed_as_h_eff_prints_them(self, tmp_path, capsys):
        # a symbol denominator in a channel puts two symbols under H_eff's terms
        cfg = tmp_path / "den.cfg"
        cfg.write_text(CONFIG.replace("g1 : sig(g,r)*ad", "g1 : 1/Omega*sig(g,r)*ad"))
        assert main(["derive", str(cfg)]) == EXIT_OK
        out = capsys.readouterr().out
        scales = out.partition("coefficient scales (1/s):\n")[2].splitlines()[:-1]
        labels = [line.strip().partition(" = ")[0] for line in scales]
        assert "g1/delta*g2/Omega" in labels
        h_eff = out.splitlines()[0]
        for label in labels:
            assert f" {label}*sig(" in h_eff

    def test_collapsed_pair_prints_no_diagonal_photon_process(self, tmp_path, capsys):
        # with e projected out only g is left, so the pair is (g, g) and
        # sig(g,g)*a and sig(g,g)*ad are displacements of the mode
        cfg = tmp_path / "two_level.cfg"
        cfg.write_text(
            "[levels]\ng, e\n[channels]\ng1 : sig(g,e)*ad\nOm : sig(g,e)\n"
            "[params]\ng1 = 1\nOm = 1\ndelta = 100\n[space]\nn_max = 5\n"
            "[state]\ninitial = g,0\n[time]\nt_end = 10\nsamples = 5\n"
        )
        assert main(["derive", str(cfg), "--project-level", "e"]) == EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        assert "one_photon: 0" in lines
        assert "displacement: Om*g1/delta*sig(g,g)*a + Om*g1/delta*sig(g,g)*ad" in lines

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
        # derive needs no arrays, generates no classes and hashes nothing, and
        # a preset holds no literal that needs a Fraction.
        script = (
            "import sys\n"
            "import dforge\n"
            "eager = {'dforge.algebra', 'dforge.spaces', 'dforge.effective',\n"
            "         'dforge.dynamics', 'dforge.scenario'}\n"
            "assert eager <= set(sys.modules), sorted(eager - set(sys.modules))\n"
            "from dforge.cli import main\n"
            f"assert main(['derive', {str(preset)!r}]) == 0\n"
            "loaded = sorted(m for m in sys.modules if m.startswith('numpy.')\n"
            "                or m in ('dataclasses', 'inspect', 'hashlib', 'fractions'))\n"
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
        assert main(["simulate", str(config_path), "--out", str(out)]) == EXIT_OK
        _, rows, _ = read_csv(out)
        fid = [float(row[5]) for row in rows]
        assert fid[0] == pytest.approx(1.0, abs=1e-12)
        assert min(fid) > 0.99  # delta/coupling = 100 is deep dispersive

    test_zero_detuning_exit_code = config_error_test("zero-detuning/simulate")
    test_unusable_number_exit_code = config_error_test("simulate-number")
    test_unresolvable_phases_exit_2 = config_error_test("phases")

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

    def test_bom_config_runs_and_is_recorded_byte_for_byte(self, tmp_path, capsys):
        # a UTF-8 byte-order mark, as Windows editors write one, is not a line
        preset = REPO_ROOT / "presets" / "dimensionless.cfg"
        cfg = tmp_path / "bom.cfg"
        cfg.write_bytes(b"\xef\xbb\xbf" + preset.read_bytes())
        assert main(["derive", str(cfg)]) == EXIT_OK
        golden = REPO_ROOT / "goldens" / "dimensionless_derive.txt"
        assert capsys.readouterr().out == golden.read_text(encoding="utf-8")
        out = tmp_path / "run.csv"
        assert main(["simulate", str(cfg), "--out", str(out)]) == EXIT_OK
        manifest = json.loads((tmp_path / "run.csv.manifest.json").read_text())
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
                "norm_drift", "method", "fourier_order",
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
        # no coupling gives an infinite ratio, which JSON cannot hold, and
        # keeps the photon distribution of coherent(2.0) at its Poisson
        # weights, renormalized on Fock 0..8
        cfg = tmp_path / "uncoupled.cfg"
        cfg.write_text(
            CONFIG.replace("g1 = 1.0", "g1 = 0.0")
            .replace("g2 = 1.0", "g2 = 0.0")
            .replace("Omega = 1.0", "Omega = 0.0")
            .replace("initial = e,0", "initial = g,coherent(2.0)")
        )
        out = tmp_path / "run.csv"
        assert main(["simulate", str(cfg), "--out", str(out)]) == EXIT_OK
        health = json.loads((tmp_path / "run.csv.manifest.json").read_text())["health"]
        assert health["dispersive_ratio"] is None
        weights = [4.0**n / math.factorial(n) for n in range(9)]
        assert health["top_fock_population"] == pytest.approx(weights[8] / sum(weights), rel=1e-12)

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
        # 5.2e-3: exit 3 with the health block on record, but no CSV; the
        # CSV of an earlier run at the same --out is removed with it, so the
        # output and its manifest describe the same run
        cfg = tmp_path / "resonant.cfg"
        cfg.write_text(
            UNGRADED_CONFIG.replace("delta = 100.0", "delta = 1.0").replace(
                "n_max = 8", "n_max = 3"
            )
        )
        out = tmp_path / "run.csv"
        preset = REPO_ROOT / "presets" / "dimensionless.cfg"
        assert main(["simulate", str(preset), "--out", str(out)]) == EXIT_OK
        assert main(["simulate", str(cfg), "--out", str(out)]) == EXIT_NUMERICAL
        assert "not converged" in capsys.readouterr().err
        assert not out.exists()
        manifest = json.loads((tmp_path / "run.csv.manifest.json").read_text())
        assert manifest["config"] == cfg.read_text()
        assert manifest["settings"] == {"command": "simulate", "mode": "both"}
        assert manifest["health"]["method"] == "fourier"
        assert manifest["health"]["fourier_order"] == 16
        assert manifest["health"]["refinement_change"] > 1e-3

    def test_fourier_ladder_compares_neighbouring_orders(self, tmp_path):
        # at delta = 10 orders 2 to 4 move the samples by 4.82e-3 and 4 to 8
        # by 7.11e-6, so the ladder stops at 8; every later order still
        # differs from order 2 by about 4.8e-3, so a ladder that kept
        # comparing with its first order would climb to 16 and exit 3
        cfg = tmp_path / "ladder.cfg"
        cfg.write_text(UNGRADED_CONFIG.replace("delta = 100.0", "delta = 10.0"))
        out = tmp_path / "run.csv"
        assert main(["simulate", str(cfg), "--out", str(out)]) == EXIT_OK
        health = json.loads((tmp_path / "run.csv.manifest.json").read_text())["health"]
        assert health["method"] == "fourier"
        assert health["fourier_order"] == 8
        assert health["refinement_change"] == pytest.approx(7.11e-6, rel=1e-2)


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
            # the row's ratio is its run's, recorded once in its health
            assert set(row) == {"value", "included", "max_infidelity", "error", "health"}
            assert row["error"] is None
            assert row["health"]["method"] == "exact"
            assert row["health"]["dispersive_ratio"] >= 20 and row["included"]
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
        assert uncoupled == {"value": 0.0, "included": True, "max_infidelity": 0.0, "error": None}
        assert health["dispersive_ratio"] is None and health["method"] == "exact"
        assert health["first_order_remainder_bound"] == 0.0
        assert coupled["health"]["dispersive_ratio"] > 20
        assert coupled["health"]["method"] == "exact"

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
        # each row records the whole record of its one run
        records = json.loads((tmp_path / "sweep.csv.manifest.json").read_text())["rows"]
        assert [row["health"]["method"] for row in records] == ["fourier"] * 3
        for row in records:
            assert {"coherent_tail_mass", "dispersive_ratio"} <= set(row["health"])

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
        assert main(["sweep", str(config_path), "--vary", "delta=80", "--out", str(out)]) == EXIT_OK
        _, rows, comments = read_csv(out)
        assert len(rows) == 1
        assert not any(c.startswith("# slope=") for c in comments)

    def test_coupling_sweep(self, config_path, tmp_path):
        out = tmp_path / "sweep.csv"
        assert main(["sweep", str(config_path), "--vary", "g1=0.5,1.0", "--out", str(out)]) == EXIT_OK
        header, rows, comments = read_csv(out)
        assert header == ["g1", "max_infidelity"]
        assert len(rows) == 2
        assert all(float(r[1]) >= 0 for r in rows)
        # a coupling sweep fits no slope
        assert not any(c.startswith("# slope=") for c in comments)

    def test_coupling_sweep_checks_ratio(self, config_path, tmp_path, capsys):
        # g1 = 30 at delta = 100 puts the dispersive ratio below 5
        out = tmp_path / "sweep.csv"
        assert main(["sweep", str(config_path), "--vary", "g1=1,30", "--out", str(out)]) == EXIT_CONFIG
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
        # the failing row is the second one, judged on its own run's record,
        # and the row after it still runs
        calls = []
        propagate_full = dynamics.propagate_full

        def counting(*args, **kwargs):
            calls.append(args)
            return propagate_full(*args, **kwargs)

        monkeypatch.setattr(dynamics, "propagate_full", counting)
        out = tmp_path / "sweep.csv"
        vary = "g1=1,30,0.5"
        assert main(["sweep", str(config_path), "--vary", vary, "--out", str(out)]) == EXIT_CONFIG
        assert len(calls) == 3
        assert capsys.readouterr().err.startswith("# failed g1=30 detuning/coupling ratio ")

    def test_failed_ratio_check_writes_csv_and_manifest(self, config_path, tmp_path, capsys):
        # the rows around the failed one keep their lines; the failed row
        # has a note and keeps its run's record, its ratio below 5 included
        out = tmp_path / "sweep.csv"
        vary = "g1=1,30,0.5"
        assert main(["sweep", str(config_path), "--vary", vary, "--out", str(out)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        _, rows, comments = read_csv(out)
        assert [r[0] for r in rows] == ["1", "0.5"]
        manifest = json.loads((tmp_path / "sweep.csv.manifest.json").read_text())
        assert manifest["config"] == config_path.read_text()
        assert manifest["settings"] == {"command": "sweep", "vary": vary}
        records = manifest["rows"]
        assert [row["error"] for row in records[::2]] == [None, None]
        failed = records[1]
        ratio = failed["health"]["dispersive_ratio"]
        assert ratio < 5 and not failed["included"] and failed["max_infidelity"] > 0
        assert failed["error"] == f"detuning/coupling ratio {ratio:.2f} below required minimum 5"
        note = f"# failed g1=30 {failed['error']}"
        assert comments[1:] == [note]
        assert err == f"{note}\n"

    @pytest.mark.parametrize(
        "vary, full_runs, lines, where, error",
        [
            # the first row runs in full; the second's horizon 10*|delta|/lam^2
            # is 1e7, and max|w| ~ 1e6 over it rounds the phases by 2.2e-3
            ("delta=100,1e6", 2, 1, "delta=1000000", f"phase rounding 2.220e-03 > 1e-03: {PHASES}"),
            # every H_eff coefficient is finite, and the effective run fails first
            ("g1=1e154", 0, 0, "g1=1e+154", f"phase rounding inf > 1e-03: {PHASES}"),
        ],
        ids=["delta=100,1e6", "g1=1e154"],
    )
    def test_row_that_fails_as_it_runs_keeps_its_error(
        self, tmp_path, capsys, monkeypatch, vary, full_runs, lines, where, error
    ):
        # the plan cannot see a row's phase rounding; the row's own run
        # raises it, and the row keeps the message, in a note on stderr and
        # in the CSV, and in its record
        preset = str(REPO_ROOT / "presets" / "dimensionless.cfg")
        out = tmp_path / "sweep.csv"
        calls = []
        propagate_full = dynamics.propagate_full

        def counting(*args, **kwargs):
            calls.append(args)
            return propagate_full(*args, **kwargs)

        monkeypatch.setattr(dynamics, "propagate_full", counting)
        assert main(["sweep", preset, "--vary", vary, "--out", str(out)]) == EXIT_CONFIG
        note = f"# failed {where} {error}"
        assert capsys.readouterr() == ("", f"{note}\n")
        assert len(calls) == full_runs
        _, rows, comments = read_csv(out)
        assert (len(rows), comments[1:]) == (lines, [note])
        manifest = json.loads((tmp_path / "sweep.csv.manifest.json").read_text())
        assert manifest["settings"] == {"command": "sweep", "vary": vary}
        failed = manifest["rows"][-1]
        assert failed["error"] == error
        assert (failed["max_infidelity"], failed["included"], failed["health"]) == (None, False, {})

    def test_failed_row_keeps_the_rows_around_it(self, tmp_path, capsys):
        # one failed row costs its own line only: the rows on either side
        # and the slope they give are those of a sweep without it
        preset = str(REPO_ROOT / "presets" / "dimensionless.cfg")
        kept, swept = tmp_path / "kept.csv", tmp_path / "swept.csv"
        assert main(["sweep", preset, "--vary", "delta=100,200", "--out", str(kept)]) == EXIT_OK
        vary = "delta=100,1e6,200"
        assert main(["sweep", preset, "--vary", vary, "--out", str(swept)]) == EXIT_CONFIG
        error = f"phase rounding 2.220e-03 > 1e-03: {PHASES}"
        note = f"# failed delta=1000000 {error}"
        assert capsys.readouterr() == ("", f"{note}\n")
        lines = swept.read_text().splitlines()
        assert lines.count(note) == 1
        lines.remove(note)
        assert lines == kept.read_text().splitlines()
        assert lines[-1].startswith("# slope=")
        records = json.loads((tmp_path / "swept.csv.manifest.json").read_text())["rows"]
        assert [row["value"] for row in records] == [100.0, 1e6, 200.0]
        assert records[1] == {"value": 1e6, "included": False, "max_infidelity": None,
                              "error": error, "health": {}}
        assert records[::2] == json.loads((tmp_path / "kept.csv.manifest.json").read_text())["rows"]

    test_zero_detuning_row_fails_the_ratio_check = config_error_test("zero-detuning/sweep")

    @pytest.mark.filterwarnings("error")
    def test_marginal_rows_are_excluded_notes(self, config_path, tmp_path, capsys):
        # each row below ratio 20 gets its own note, in the CSV and on
        # stderr, and no warning; a repeated value is noted twice
        out = tmp_path / "sweep.csv"
        assert main(
            ["sweep", str(config_path), "--vary", "delta=10,10,100", "--out", str(out)]
        ) == EXIT_OK
        _, rows, comments = read_csv(out)
        assert len(rows) == 3
        notes = ["# excluded delta=10 ratio=6.5"] * 2
        assert comments[1:] == notes
        assert capsys.readouterr().err.splitlines() == notes
        records = json.loads((tmp_path / "sweep.csv.manifest.json").read_text())["rows"]
        assert [row["included"] for row in records] == [False, False, True]
        assert 6.45 <= records[0]["health"]["dispersive_ratio"] < 6.55

    def test_coupling_sweep_flags_unconverged_rows(self, tmp_path, capsys, monkeypatch):
        # a coupling row keeps the config's t_end; a ratio the sweep accepts
        # converges by order 4, so the ladder is cut to orders 1 and 2,
        # between which the samples of either row move by more than 1e-3
        monkeypatch.setattr(dynamics, "FOURIER_ORDERS", (1, 2))
        cfg = tmp_path / "long.cfg"
        cfg.write_text(UNGRADED_CONFIG.replace("t_end = 50.0", "t_end = 200.0"))
        out = tmp_path / "sweep.csv"
        assert main(["sweep", str(cfg), "--vary", "g1=0.5,1.0", "--out", str(out)]) == EXIT_OK
        _, rows, comments = read_csv(out)
        assert len(rows) == 2
        notes = [c for c in comments if c.startswith("# unconverged ")]
        assert [n.split()[2] for n in notes] == ["g1=0.5", "g1=1"]
        for note in notes:
            assert float(note.split("sample_change=")[1]) > 1e-3
        assert capsys.readouterr().err.splitlines() == notes

    test_non_finite_vary_value_rejected = config_error_test("non-finite-vary")
    test_malformed_vary_value_rejected = config_error_test("malformed-vary")
    test_coherent_amplitude_past_truncation = config_error_test("coherent-past-truncation")
    test_coupling_outside_double_range = config_error_test("coupling-outside-double-range")
    test_horizon_outside_double_range_exits_before_any_row = config_error_test("horizon")
    test_unknown_vary_key = config_error_test("unknown-vary-key")
    test_vary_key_used_by_no_channel = config_error_test("unused-vary-key")

    test_vary_requires_values = config_error_test("vary-without-values")
    test_empty_vary_entry_rejected = config_error_test("empty-vary-entry")


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
        # every output is written and closed before main returns; the sweep
        # is the README's example on the shipped preset
        preset = str(REPO_ROOT / "presets" / "dimensionless.cfg")
        example = ["sweep", preset, "--vary", "delta=40,80,160"]
        for command in (["simulate", preset, "--mode", "both"], example):
            fresh, local = tmp_path / "fresh.csv", tmp_path / "local.csv"
            proc = run_fresh("-m", "dforge.cli", *command, "--out", str(fresh))
            assert proc.returncode == 0, proc.stderr
            assert main([*command, "--out", str(local)]) == EXIT_OK
            assert fresh.read_text().startswith(f"# dforge {command[0]} ")
            assert fresh.read_bytes() == local.read_bytes()
            manifests = []
            for out in (fresh, local):
                manifest = json.loads(out.with_name(out.name + ".manifest.json").read_text())
                manifest.pop("wall_time_s")
                manifests.append(manifest)
            assert manifests[0] == manifests[1]
        _, _, comments = read_csv(fresh)
        assert [c.split("=")[0] for c in comments[1:]] == ["# slope"]
        assert [row["health"]["method"] for row in manifests[0]["rows"]] == ["exact"] * 3

        capsys.readouterr()
        proc = run_fresh("-m", "dforge.cli", "derive", preset)
        assert proc.returncode == 0, proc.stderr
        assert main(["derive", preset]) == EXIT_OK
        assert proc.stdout == capsys.readouterr().out

    def test_fresh_process_sweep_with_warnings_as_errors(self, tmp_path):
        # a marginal row is a note, not a warning, so -W error changes nothing
        preset = str(REPO_ROOT / "presets" / "dimensionless.cfg")
        out = tmp_path / "sweep.csv"
        proc = run_fresh("-W", "error", "-m", "dforge.cli", "sweep", preset,
                         "--vary", "delta=10,100", "--out", str(out))
        assert proc.returncode == EXIT_OK, proc.stderr
        assert proc.stderr == "# excluded delta=10 ratio=6.4\n"

    def test_fresh_process_phase_overflow_with_warnings_as_errors(self, tmp_path):
        # the second row's full run leaves double range in the phase gate;
        # its product is taken in Python floats, so no RuntimeWarning is raised
        preset = str(REPO_ROOT / "presets" / "dimensionless.cfg")
        out = tmp_path / "sweep.csv"
        proc = run_fresh("-W", "error", "-m", "dforge.cli", "sweep", preset,
                         "--vary", "delta=100,1e200", "--out", str(out))
        error = f"phase rounding inf > 1e-03: {PHASES}"
        note = f"# failed delta=1e+200 {error}"
        assert (proc.returncode, proc.stdout, proc.stderr) == (EXIT_CONFIG, "", f"{note}\n")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["sweep.csv", "sweep.csv.manifest.json"]
        assert read_csv(out)[2][1:] == [note]
        rows = json.loads((tmp_path / "sweep.csv.manifest.json").read_text())["rows"]
        assert [row["error"] for row in rows] == [None, error]

    def test_fresh_process_exits_2_on_a_bad_config(self, tmp_path):
        # the exit status is main's, not the interpreter's
        case = CONFIG_ERRORS["number/word-t_end"]
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(config_text(case))
        proc = run_fresh("-m", "dforge.cli", "derive", str(cfg))
        assert (proc.returncode, proc.stdout, proc.stderr) == (EXIT_CONFIG, "", f"error: {case.error}\n")


test_digit_group_underscore_is_rejected = config_error_test("digit-group")
test_config_error_exits_2 = config_error_test("config")


def test_every_config_error_case_runs():
    # a row under a key that no test claims would run nowhere
    assert CLAIMED == set(CONFIG_ERRORS)
