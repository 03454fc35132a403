import numpy as np
import pytest

from dforge import SpaceSpec, TimeGrid, build_state, parse_scenario, parse_state
from dforge.errors import (
    FockOverflow,
    IllegalCharacter,
    MissingKey,
    NonPositiveTruncation,
    ParseError,
    UnboundParameter,
    UnknownLevel,
    UnknownSection,
    ZeroDetuning,
)

from conftest import REPO_ROOT

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
        assert len(sc.spec.channels) == 3
        assert sc.params["delta"] == pytest.approx(2.45e8)
        assert sc.space == SpaceSpec(("g", "r", "e"), 20)
        assert sc.grid == TimeGrid(5e-3, 200)

    def test_base_config(self):
        sc = parse_scenario(BASE)
        assert sc.spec.delta == "delta"
        assert {ch.lam.num[0] for ch in sc.spec.channels} == {"g1", "g2", "Omega"}
        assert sc.grid.t_end == pytest.approx(10.0)
        space = sc.space
        assert space.dim == 3 * 9
        psi0 = build_state(sc.initial, space)
        assert psi0[space.index("e", 0)] == 1.0

    def test_comments_and_blanks_ignored(self):
        text = BASE.replace("[space]", "# a comment\n\n[space]  # trailing")
        sc = parse_scenario(text)
        assert sc.space.n_max == 8

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
        assert [ch.lam.num for ch in sc.spec.channels] == [("g1",), ("g1",), ("Omega",)]

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
        with pytest.raises(MissingKey) as exc:
            parse_scenario(text)
        assert "delta" in str(exc.value)

    def test_unbound_channel_symbol(self):
        text = BASE.replace("g2 = 1.0\n", "")
        with pytest.raises(UnboundParameter) as exc:
            parse_scenario(text)
        assert "g2" in str(exc.value)

    def test_unknown_section(self):
        with pytest.raises(UnknownSection):
            parse_scenario(BASE + "\n[plotting]\nstyle = fancy\n")

    def test_nonpositive_truncation(self):
        text = BASE.replace("n_max = 8", "n_max = 0")
        with pytest.raises(NonPositiveTruncation):
            parse_scenario(text)

    def test_grid_checked_before_space(self):
        # a config with both faults gets the time grid's error
        text = BASE.replace("n_max = 8", "n_max = 0").replace("t_end = 10.0", "t_end = -3")
        with pytest.raises(ValueError, match="t_end must be positive") as exc:
            parse_scenario(text)
        assert type(exc.value) is ValueError

    def test_missing_section(self):
        text = BASE.replace("[time]\nt_end = 10.0\nsamples = 50\n", "")
        with pytest.raises(MissingKey):
            parse_scenario(text)

    def test_content_before_section(self):
        with pytest.raises(ParseError):
            parse_scenario("stray = 1\n" + BASE)

    @pytest.mark.parametrize(
        "initial, error",
        [
            ("e,99", FockOverflow),
            ("q,0", UnknownLevel),
            ("e", ValueError),
            ("e,coherent(abc)", ValueError),
            ("e,coherent(nan)", ValueError),
            ("e,coherent(30)", ValueError),
            ("e,coherent(1e200)", ValueError),
        ],
        ids=[
            "fock-overflow", "unknown-level", "malformed", "bad-amplitude",
            "nan-amplitude", "amplitude-past-truncation", "overflowing-amplitude",
        ],
    )
    def test_bad_initial_state_fails_fast(self, initial, error):
        text = BASE.replace("initial = e,0", f"initial = {initial}")
        with pytest.raises(error) as exc:
            parse_scenario(text)
        assert type(exc.value) is error

    @pytest.mark.parametrize("value", ["0", "0.0", "-0"])
    def test_zero_detuning_rejected(self, value):
        text = BASE.replace("delta = 100.0", f"delta = {value}")
        with pytest.raises(ZeroDetuning, match="'delta'"):
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
