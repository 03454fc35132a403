import numpy as np
import pytest

from dforge import OperatorExpr, SpaceSpec, TimeGrid, build_state, parse_scenario, parse_state
from dforge.parsing import IllegalCharacter, ParseError

from conftest import REPO_ROOT, drive_of, three_level_drive

BASE = """\
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
t_end = 10.0
samples = 50
"""


class TestParseScenario:
    def test_preset_parses(self):
        text = (REPO_ROOT / "presets" / "rb85.cfg").read_text()
        sc = parse_scenario(text)
        assert sc.drive == three_level_drive()
        assert sc.params["delta"] == pytest.approx(2.45e8)
        assert sc.space == SpaceSpec(("g", "r", "e"), 20)
        assert sc.grid == TimeGrid(5e-3, 200)

    def test_base_config(self):
        sc = parse_scenario(BASE)
        assert sc.drive == three_level_drive()
        assert sc.grid.t_end == pytest.approx(10.0)
        space = sc.space
        assert space.dim == 3 * 9
        psi0 = build_state(sc.initial, space)
        assert psi0[space.index("e", 0)] == 1.0

    def test_comments_and_blanks_ignored(self):
        text = BASE.replace("[space]", "# a comment\n\n[space]  # trailing")
        sc = parse_scenario(text)
        assert sc.space.n_max == 8

    def test_one_leading_byte_order_mark_ignored(self):
        assert parse_scenario("\ufeff" + BASE) == parse_scenario(BASE)
        with pytest.raises(ValueError, match="comes before the first section header"):
            parse_scenario("\ufeff\ufeff" + BASE)

    def test_explicit_common_detuning_tag(self):
        # every channel shares delta, so a channel line names no detuning
        text = BASE.replace("g1 : sig(g,r)*ad", "g1 : sig(g,r)*ad @ delta")
        with pytest.raises(IllegalCharacter) as exc:
            parse_scenario(text)
        assert str(exc.value) == "illegal character '@' at byte offset 12 in [channels] g1"
        assert exc.value.position == 12

    def test_distinct_detuning_rejected(self):
        text = BASE.replace("g1 : sig(g,r)*ad", "g1 : sig(g,r)*ad @ delta2")
        with pytest.raises(IllegalCharacter, match=r"^illegal character '@' at byte offset 12 "):
            parse_scenario(text)

    def test_channel_error_names_its_channel(self):
        # the position stays an offset into the text after ':'
        text = BASE.replace("g2 : sig(e,r)*a", "g2 : sig(e,r)*a*1e9999")
        with pytest.raises(ParseError) as exc:
            parse_scenario(text)
        assert str(exc.value) == (
            "parse error at byte offset 11: expected number with exponent within +-4300"
            " in [channels] g2"
        )
        assert exc.value.position == 11

    def test_coupling_symbol_may_label_several_channels(self):
        text = BASE.replace("g2 : sig(e,r)*a", "g1 : sig(e,r)*a")
        sc = parse_scenario(text)
        sgr = OperatorExpr.sigma("g", "r")
        ser_a = OperatorExpr.sigma("e", "r") * OperatorExpr.annihilate()
        assert sc.drive == drive_of(("g1", sgr * OperatorExpr.create() + ser_a), ("Omega", sgr))

    def test_lines_of_one_symbol_sum_into_one_drive(self):
        # like terms of two lines merge: Omega*sig(g,r) twice is one term
        # 2*Omega*sig(g,r)
        text = BASE.replace("Omega : sig(g,r)\n", "Omega : sig(g,r)\nOmega : sig(g,r)\n")
        sc = parse_scenario(text)
        sgr = OperatorExpr.sigma("g", "r")
        ser_a = OperatorExpr.sigma("e", "r") * OperatorExpr.annihilate()
        assert sc.drive == drive_of(
            ("g1", sgr * OperatorExpr.create()), ("g2", ser_a), ("Omega", 2 * sgr)
        )
        assert len(sc.drive.terms) == 3

    def test_lines_that_cancel_name_their_symbol(self):
        # g1's two lines sum to zero, so g1 would drive nothing
        text = BASE.replace("Omega : sig(g,r)\n", "Omega : sig(g,r)\ng1 : -sig(g,r)*ad\n")
        with pytest.raises(ValueError) as exc:
            parse_scenario(text)
        assert str(exc.value) == "channel operator must be nonzero in [channels] g1"

    def test_zero_line_beside_a_nonzero_one_is_accepted(self):
        # a zero line adds nothing to the drive
        text = BASE.replace("Omega : sig(g,r)\n", "Omega : sig(g,r)\ng1 : 0*sig(e,r)\n")
        assert parse_scenario(text).drive == three_level_drive()

    def test_zero_channel_names_its_channel(self):
        text = BASE.replace("g1 : sig(g,r)*ad", "g1 : 0*sig(g,r)*ad")
        with pytest.raises(ValueError) as exc:
            parse_scenario(text)
        assert str(exc.value) == "channel operator must be nonzero in [channels] g1"

    def test_zero_symbol_that_scales_another_channel_is_rejected(self):
        # g1 is still a factor of M through g2's line, but its own lines sum to zero
        text = BASE.replace("g1 : sig(g,r)*ad", "g1 : 0*sig(g,r)*ad").replace(
            "g2 : sig(e,r)*a", "g2 : g1*sig(e,r)*a"
        )
        with pytest.raises(ValueError) as exc:
            parse_scenario(text)
        assert str(exc.value) == "channel operator must be nonzero in [channels] g1"

    def test_a_later_syntax_error_is_reported_before_a_zero_channel(self):
        # the zero check runs on the summed lines, after every line has parsed
        text = BASE.replace("g1 : sig(g,r)*ad", "g1 : 0*sig(g,r)*ad").replace(
            "g2 : sig(e,r)*a", "g2 : sig(e,r)*+a"
        )
        with pytest.raises(ParseError, match=r"in \[channels\] g2$"):
            parse_scenario(text)

    @pytest.mark.parametrize(
        "old, new, message",
        [
            ("[time]\n", "[time]\nsample = 7\n", "[time] sample is not one of t_end, samples"),
            ("[space]\n", "[space]\nn_min = 0\n", "[space] n_min is not one of n_max"),
            ("[state]\n", "[state]\nfinal = g,0\n", "[state] final is not one of initial"),
            ("g1 = 1.0\n", "g1 = 1.0\ng1 = 3.0\n", "[params] g1 is set twice"),
            ("samples = 50\n", "samples = 50\nsamples = 60\n", "[time] samples is set twice"),
        ],
        ids=["unknown-time", "unknown-space", "unknown-state", "repeated-params",
             "repeated-time"],
    )
    def test_unknown_or_repeated_key_rejected(self, old, new, message):
        with pytest.raises(ValueError) as exc:
            parse_scenario(BASE.replace(old, new))
        assert str(exc.value) == message

    def test_params_may_bind_an_unused_symbol(self):
        sc = parse_scenario(BASE.replace("[params]\n", "[params]\nfoo = 1\n"))
        assert sc.params["foo"] == 1.0

    def test_missing_delta(self):
        text = BASE.replace("delta = 100.0\n", "")
        with pytest.raises(ValueError, match=r"^missing required config key 'delta'$"):
            parse_scenario(text)

    def test_unbound_channel_symbol(self):
        text = BASE.replace("g2 = 1.0\n", "")
        with pytest.raises(
            ValueError, match=r"^parameter symbol 'g2' has no numeric binding$"
        ):
            parse_scenario(text)

    def test_unknown_section(self):
        with pytest.raises(ValueError, match=r"^unknown config section \[plotting\]$"):
            parse_scenario(BASE + "\n[plotting]\nstyle = fancy\n")

    def test_nonpositive_truncation(self):
        text = BASE.replace("n_max = 8", "n_max = 0")
        with pytest.raises(ValueError, match=r"^Fock truncation must be >= 1, got 0"):
            parse_scenario(text)

    def test_grid_checked_before_space(self):
        # a config with both faults gets the time grid's error
        text = BASE.replace("n_max = 8", "n_max = 0").replace("t_end = 10.0", "t_end = -3")
        with pytest.raises(ValueError, match="t_end must be positive") as exc:
            parse_scenario(text)
        assert type(exc.value) is ValueError

    def test_missing_section(self):
        text = BASE.replace("[time]\nt_end = 10.0\nsamples = 50\n", "")
        with pytest.raises(ValueError, match=r"^missing required config key '\[time\]'$"):
            parse_scenario(text)

    def test_content_before_section(self):
        with pytest.raises(ValueError) as exc:
            parse_scenario("stray = 1\n" + BASE)
        assert str(exc.value) == "'stray = 1' comes before the first section header"

    @pytest.mark.parametrize(
        "text, message",
        [
            (BASE.replace("n_max = 8", "n_max = 0"),
             "Fock truncation must be >= 1, got 0 in [space] n_max"),
            (BASE.replace("samples = 50", "samples = 1"), "need at least two samples in [time]"),
            (BASE.replace("t_end = 10.0", "t_end = -3"),
             "t_end must be positive and finite, got -3.0 in [time]"),
            # the levels are checked before a channel names one they lack
            (BASE.replace("g, r, e", "g").replace("n_max = 8", "n_max = 0"),
             "need at least two atomic levels in [levels]"),
            (BASE.replace("g, r, e", "g, r, e, g"), "duplicate level labels in [levels]"),
            (BASE.replace("g, r, e", "g, r, r"), "duplicate level labels in [levels]"),
            # a label the expression grammar cannot read as a level
            (BASE.replace("g, r, e", "40S, 39P, 39S"),
             "level label '40S' is not an identifier in [levels]"),
            (BASE.replace("g, r, e", "g, r, e, 5D"),
             "level label '5D' is not an identifier in [levels]"),
            (BASE.replace("g, r, e", "g, r, e, f-1"),
             "level label 'f-1' is not an identifier in [levels]"),
            (BASE.replace("g, r, e", "g, r, e, f:"),
             "level label 'f:' is not an identifier in [levels]"),
            # g1*g2*sig(g,r) - g2*g1*sig(g,r) is zero, though each symbol's sum is not
            (BASE.replace("g1 : sig(g,r)*ad", "g1 : g2*sig(g,r)")
             .replace("g2 : sig(e,r)*a", "g2 : -g1*sig(g,r)")
             .replace("Omega : sig(g,r)", "Omega : sig(e,r)*a"),
             "coupling symbol 'g1' cancels out of M in [channels] g1"),
            # g1 * (1/g1) leaves no g1 in M
            (BASE.replace("g1 : sig(g,r)*ad", "g1 : 1/g1*sig(g,r)*ad"),
             "coupling symbol 'g1' cancels out of M in [channels] g1"),
        ],
        ids=["n_max", "samples", "t_end", "one-level", "repeated-level", "repeated-level-no-e",
             "spectroscopic-labels", "digit-first-label", "minus-in-label", "colon-in-label",
             "symbol-cancelled-by-another", "symbol-divided-out"],
    )
    def test_range_error_names_its_section(self, text, message):
        with pytest.raises(ValueError) as exc:
            parse_scenario(text)
        assert str(exc.value) == message

    def test_keyword_level_label_is_read(self):
        # the level rule reads a, ad and sig as labels inside sig(...)
        text = BASE.replace("g, r, e", "g, r, e, sig").replace(
            "Omega : sig(g,r)", "Omega : sig(g,r) + sig(sig,r)"
        )
        sc = parse_scenario(text)
        assert sc.space.levels == ("g", "r", "e", "sig")
        assert sc.drive == three_level_drive() + drive_of(("Omega", OperatorExpr.sigma("sig", "r")))

    @pytest.mark.parametrize(
        "initial, message",
        [
            ("e,99", "Fock index 99 exceeds truncation n_max=8"),
            ("q,0", "unknown atomic level 'q'"),
            ("e", "bad state descriptor 'e'"),
            ("e,coherent(abc)", "bad state descriptor 'e,coherent\\(abc\\)'"),
            ("e,coherent(nan)", "coherent amplitude \\(nan\\+0j\\) is not finite"),
            ("e,coherent(30)", "coherent amplitude \\(30\\+0j\\) leaves no weight"),
            ("e,coherent(1e200)", "coherent amplitude \\(1e\\+200\\+0j\\) leaves no weight"),
        ],
        ids=[
            "fock-overflow", "unknown-level", "malformed", "bad-amplitude",
            "nan-amplitude", "amplitude-past-truncation", "overflowing-amplitude",
        ],
    )
    def test_bad_initial_state_fails_fast(self, initial, message):
        text = BASE.replace("initial = e,0", f"initial = {initial}")
        with pytest.raises(ValueError, match=f"^{message}.* in \\[state\\] initial$"):
            parse_scenario(text)

    @pytest.mark.parametrize("value", ["0", "0.0", "-0"])
    def test_zero_detuning_rejected(self, value):
        text = BASE.replace("delta = 100.0", f"delta = {value}")
        with pytest.raises(ValueError, match="^detuning 'delta' is zero; "):
            parse_scenario(text)

    @pytest.mark.parametrize(
        "key, value",
        [("delta", "nan"), ("delta", "inf"), ("g1", "inf"), ("Omega", "-inf"), ("g2", "nan")],
    )
    def test_non_finite_param_rejected(self, key, value):
        line = f"{key} = 100.0" if key == "delta" else f"{key} = 1.0"
        text = BASE.replace(line, f"{key} = {value}")
        with pytest.raises(ValueError, match=rf"\[params\] {key} = "):
            parse_scenario(text)

    def test_coherent_amplitude_the_truncation_holds(self):
        # |alpha|^2 = 25 against n_max = 8 leaves most of the state out,
        # but not all of it: the run is allowed
        text = BASE.replace("initial = e,0", "initial = e,coherent(5)")
        assert parse_scenario(text).initial == "e,coherent(5)"

    def test_numbers_keep_signs_exponents_and_complex_syntax(self):
        sc = parse_scenario(
            BASE.replace("g1 = 1.0", "g1 = -1e0")
            .replace("t_end = 10.0", "t_end = +1E1")
            .replace("initial = e,0", "initial = g,coherent(-1+0.5j)")
        )
        assert sc.params["g1"] == -1.0
        assert sc.grid.t_end == 10.0
        assert parse_state(sc.initial, sc.space)[2] == complex(-1, 0.5)

    def test_state_is_the_built_initial_vector(self):
        sc = parse_scenario(BASE)
        np.testing.assert_array_equal(sc.state(), build_state(sc.initial, sc.space))

    def test_dimensionless_preset_parses(self):
        text = (REPO_ROOT / "presets" / "dimensionless.cfg").read_text()
        sc = parse_scenario(text)
        assert sc.params["delta"] == pytest.approx(100.0)
