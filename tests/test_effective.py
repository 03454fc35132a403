import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dforge import (
    Channel,
    ChannelSpec,
    Coefficient,
    Monomial,
    OperatorExpr,
    SpaceSpec,
    add,
    adjoint,
    commutator,
    decompose,
    effective_hamiltonian,
    equal,
    first_order_remainder_bound,
    hermiticity_defect,
    realize,
    scale,
)

from conftest import LEVELS, three_level_spec

SPACE = SpaceSpec(LEVELS, 10)


def mono(re, pair, m, n, num=(), den=()):
    return Monomial(Coefficient.make(Fraction(re), 0, num, den), pair, m, n)


def sig(i, j):
    return (i, j)


_RATIONALS = st.fractions(min_value=-3, max_value=3, max_denominator=4)
_OP_MONOMIALS = st.builds(
    lambda re, im, pair, p, q: Monomial(Coefficient.make(re, im), pair, p, q),
    _RATIONALS,
    _RATIONALS,
    st.one_of(
        st.just(None),
        st.tuples(st.sampled_from(LEVELS), st.sampled_from(LEVELS)),
    ),
    st.integers(0, 2),
    st.integers(0, 2),
)
#: channels over two coupling symbols, so a symbol is often repeated
_CHANNELS = st.builds(
    Channel.from_symbol,
    st.sampled_from(("c0", "c1")),
    st.lists(_OP_MONOMIALS, min_size=1, max_size=3)
    .map(OperatorExpr.from_monomials)
    .filter(lambda op: not op.is_zero()),
)


class TestEffectiveHamiltonian:
    def test_single_cavity_channel(self):
        # lam [A, A^dag] with A = sig(g,r) ad:
        # sig(g,g) ad a - sig(r,r) ad a - sig(r,r)
        op = OperatorExpr.sigma("g", "r") * OperatorExpr.create()
        spec = ChannelSpec((Channel.from_symbol("g1", op),), "delta")
        got = effective_hamiltonian(spec)
        nd = (("g1", "g1"), ("delta",))
        expected = OperatorExpr.from_monomials(
            [
                mono(1, sig("g", "g"), 1, 1, *nd),
                mono(-1, sig("r", "r"), 1, 1, *nd),
                mono(-1, sig("r", "r"), 0, 0, *nd),
            ]
        )
        assert equal(got, expected)

    def test_single_drive_channel(self):
        # classical drive: [sig(g,r), sig(r,g)] = sig(g,g) - sig(r,r)
        spec = ChannelSpec(
            (Channel.from_symbol("Om", OperatorExpr.sigma("g", "r")),), "delta"
        )
        got = effective_hamiltonian(spec)
        nd = (("Om", "Om"), ("delta",))
        expected = OperatorExpr.from_monomials(
            [mono(1, sig("g", "g"), 0, 0, *nd), mono(-1, sig("r", "r"), 0, 0, *nd)]
        )
        assert equal(got, expected)

    def test_identity_channel_vanishes(self):
        # [1, 1] = 0: a channel proportional to the identity contributes nothing
        spec = ChannelSpec(
            (Channel.from_symbol("x", OperatorExpr.identity()),), "delta"
        )
        assert effective_hamiltonian(spec).is_zero()

    def test_every_coefficient_carries_detuning(self):
        h = effective_hamiltonian(three_level_spec())
        for m in h.terms:
            assert m.coeff.den == ("delta",)
            assert len(m.coeff.num) == 2

    def test_three_level_monomial_count(self):
        h = effective_hamiltonian(three_level_spec())
        assert len(h.terms) == 16  # 10 survive projecting out r (see golden test)

    @given(seed=st.integers(0, 10**9))
    @settings(max_examples=40, deadline=None)
    def test_hermitian_for_random_channels(self, seed):
        rng = random.Random(seed)
        channels = []
        for idx in range(rng.randint(1, 3)):
            i, j = rng.sample(LEVELS, 2)
            op = OperatorExpr.sigma(i, j)
            for _ in range(rng.randint(0, 2)):
                op = op * (
                    OperatorExpr.create() if rng.random() < 0.5
                    else OperatorExpr.annihilate()
                )
            if op.is_zero():
                op = OperatorExpr.sigma(i, j)
            channels.append(Channel.from_symbol(f"c{idx}", op))
        spec = ChannelSpec(tuple(channels), "delta")
        h = effective_hamiltonian(spec)
        params = {f"c{idx}": 0.5 + 0.25 * idx for idx in range(len(channels))}
        params["delta"] = 3.0
        deg = h.max_boson_degree()
        mat = realize(h, SPACE, params)
        fd = SPACE.fock_dim
        keep = np.array(
            [lv * fd + n for lv in range(len(LEVELS)) for n in range(fd - deg)]
        )
        sub = mat[np.ix_(keep, keep)]
        assert float(np.max(np.abs(sub - sub.conj().T))) < 1e-12

    @given(channels=st.lists(_CHANNELS, min_size=1, max_size=3))
    @settings(max_examples=60, deadline=None)
    def test_equals_per_pair_commutator_sum(self, channels):
        # oracle: sum_jk lam_j lam_k / delta [A_j, A_k^dag], pair by pair
        spec = ChannelSpec(tuple(channels), "delta")
        inv_delta = Coefficient.make(den=("delta",))
        expected = OperatorExpr()
        for ch_j in channels:
            for ch_k in channels:
                expected = add(
                    expected,
                    scale(
                        commutator(ch_j.op, adjoint(ch_k.op)),
                        ch_j.lam.mul(ch_k.lam).mul(inv_delta),
                    ),
                )
        assert equal(effective_hamiltonian(spec), expected)

    def test_detuning_symbol_collision_rejected(self):
        with pytest.raises(ValueError):
            ChannelSpec(
                (Channel.from_symbol("delta", OperatorExpr.sigma("g", "r")),),
                "delta",
            )


@pytest.fixture(scope="module")
def parts():
    from dforge import project_out_level

    h = project_out_level(effective_hamiltonian(three_level_spec()), "r")
    return h, decompose(h, "g", "e")


class TestDecompose:
    def test_parts_resum_exactly(self, parts):
        h, d = parts
        total = OperatorExpr()
        for x in d.values():
            total = add(total, x)
        assert equal(total, h)
        assert total.terms == h.terms

    def test_stark_terms(self, parts):
        _, d = parts
        expected = OperatorExpr.from_monomials(
            [
                mono(1, sig("e", "e"), 0, 0, ("g2", "g2"), ("delta",)),
                mono(1, sig("e", "e"), 1, 1, ("g2", "g2"), ("delta",)),
                mono(1, sig("g", "g"), 0, 0, ("Omega", "Omega"), ("delta",)),
                mono(1, sig("g", "g"), 1, 1, ("g1", "g1"), ("delta",)),
            ]
        )
        assert equal(d["stark"], expected)

    def test_one_photon_terms(self, parts):
        _, d = parts
        expected = OperatorExpr.from_monomials(
            [
                mono(1, sig("e", "g"), 0, 1, ("Omega", "g2"), ("delta",)),
                mono(1, sig("g", "e"), 1, 0, ("Omega", "g2"), ("delta",)),
            ]
        )
        assert equal(d["one_photon"], expected)

    def test_two_photon_terms(self, parts):
        _, d = parts
        expected = OperatorExpr.from_monomials(
            [
                mono(1, sig("e", "g"), 0, 2, ("g1", "g2"), ("delta",)),
                mono(1, sig("g", "e"), 2, 0, ("g1", "g2"), ("delta",)),
            ]
        )
        assert equal(d["two_photon"], expected)

    def test_displacement_terms(self, parts):
        _, d = parts
        expected = OperatorExpr.from_monomials(
            [
                mono(1, sig("g", "g"), 0, 1, ("Omega", "g1"), ("delta",)),
                mono(1, sig("g", "g"), 1, 0, ("Omega", "g1"), ("delta",)),
            ]
        )
        assert equal(d["displacement"], expected)

    def test_nothing_left_over(self, parts):
        _, d = parts
        assert d["other"].is_zero()

    def test_parts_are_individually_hermitian(self, parts):
        _, d = parts
        params = {"g1": 1.0, "g2": 0.7, "Omega": 0.4, "delta": 50.0}
        for name in ("stark", "one_photon", "two_photon", "displacement"):
            mat = realize(d[name], SPACE, params)
            fd = SPACE.fock_dim
            keep = np.array(
                [lv * fd + n for lv in range(len(LEVELS)) for n in range(fd - 2)]
            )
            sub = mat[np.ix_(keep, keep)]
            assert float(np.max(np.abs(sub - sub.conj().T))) < 1e-12


class TestRemainderBound:
    PARAMS = {"g1": 1.0, "g2": 1.0, "Omega": 1.0, "delta": 100.0}

    def test_drive_only_value(self):
        # sig(g,r) has unit operator norm, so the bound is exactly 2 lam/delta
        spec = ChannelSpec(
            (Channel.from_symbol("Om", OperatorExpr.sigma("g", "r")),), "delta"
        )
        got = first_order_remainder_bound(
            spec, {"Om": 2.0, "delta": 100.0}, SPACE
        )
        assert got == pytest.approx(2.0 * 2.0 / 100.0, rel=1e-12)

    def test_cavity_channel_value(self):
        # |sig(g,r) ad| on a truncated space is sqrt(n_max)
        op = OperatorExpr.sigma("g", "r") * OperatorExpr.create()
        spec = ChannelSpec((Channel.from_symbol("g1", op),), "delta")
        got = first_order_remainder_bound(
            spec, {"g1": 1.0, "delta": 100.0}, SPACE
        )
        assert got == pytest.approx(2.0 * np.sqrt(SPACE.n_max) / 100.0, rel=1e-12)

    def test_scales_linearly_in_coupling(self):
        spec = three_level_spec()
        base = first_order_remainder_bound(spec, self.PARAMS, SPACE)
        doubled = dict(self.PARAMS)
        for key in ("g1", "g2", "Omega"):
            doubled[key] = 2.0 * self.PARAMS[key]
        assert first_order_remainder_bound(
            spec, doubled, SPACE
        ) == pytest.approx(2.0 * base, rel=1e-12)

    def test_scales_inversely_in_detuning(self):
        spec = three_level_spec()
        base = first_order_remainder_bound(spec, self.PARAMS, SPACE)
        far = dict(self.PARAMS, delta=1000.0)
        assert first_order_remainder_bound(spec, far, SPACE) == pytest.approx(
            base / 10.0, rel=1e-12
        )

    def test_shrinks_with_detuning_against_norm(self):
        spec = three_level_spec()
        bound = first_order_remainder_bound(spec, self.PARAMS, SPACE)
        h = realize(effective_hamiltonian(spec), SPACE, self.PARAMS)
        assert bound < np.linalg.norm(h, 2) * 10  # same 1/delta order, sane magnitude

    def test_three_level_bound_is_tighter_than_channel_sum(self):
        # the dimensionless preset: the per-channel triangle sum counts each
        # channel's norm apart; 2||M||/|delta| takes the one drive at once
        space = SpaceSpec(LEVELS, 15)
        spec = three_level_spec()
        bound = first_order_remainder_bound(spec, self.PARAMS, space)
        channel_sum = sum(
            2.0 * np.linalg.norm(realize(ch.op, space), 2) for ch in spec.channels
        ) / self.PARAMS["delta"]
        assert bound == pytest.approx(0.11685, abs=1e-5)
        assert channel_sum == pytest.approx(0.17492, abs=1e-5)

    def test_zero_detuning_rejected(self):
        with pytest.raises(ValueError, match="^detuning 'delta' is zero; "):
            first_order_remainder_bound(three_level_spec(), dict(self.PARAMS, delta=0.0), SPACE)

    @given(
        channels=st.lists(_CHANNELS, min_size=1, max_size=3),
        lams=st.tuples(
            st.floats(0.5, 1.5) | st.floats(-1.5, -0.5),
            st.floats(0.5, 1.5) | st.floats(-1.5, -0.5),
        ),
        delta=st.floats(30.0, 200.0) | st.floats(-200.0, -30.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_kick_bound_between_sampled_max_and_channel_sum(self, channels, lams, delta):
        # references built here: the per-channel triangle sum
        # sum_k 2 |lam_k| ||A_k|| / |delta|, and max ||K(t)|| over one period
        # of K(t) = (M e^{i delta t} - M^dag e^{-i delta t}) / (i delta)
        space = SpaceSpec(LEVELS, 4)
        params = {"c0": lams[0], "c1": lams[1], "delta": delta}
        spec = ChannelSpec(tuple(channels), "delta")
        bound = first_order_remainder_bound(spec, params, space)
        channel_sum = sum(
            2.0 * abs(params[ch.lam.num[0]]) * np.linalg.norm(realize(ch.op, space), 2)
            for ch in channels
        ) / abs(delta)
        m = sum(params[ch.lam.num[0]] * realize(ch.op, space) for ch in channels)
        sampled = max(
            np.linalg.norm(m * np.exp(1j * phi) - m.conj().T * np.exp(-1j * phi), 2)
            for phi in np.linspace(0.0, 2.0 * np.pi, 64, endpoint=False)
        ) / abs(delta)
        assert bound == pytest.approx(2.0 * np.linalg.norm(m, 2) / abs(delta), rel=1e-12)
        assert sampled <= bound * (1.0 + 1e-12)
        assert bound <= channel_sum * (1.0 + 1e-12)
        if len(channels) == 1:
            assert bound == pytest.approx(channel_sum, rel=1e-12)

    def test_hermiticity_defect_of_realized_generator(self):
        h = realize(effective_hamiltonian(three_level_spec()), SPACE, self.PARAMS)
        deg = 2
        fd = SPACE.fock_dim
        keep = np.array(
            [lv * fd + n for lv in range(len(LEVELS)) for n in range(fd - deg)]
        )
        sub = h[np.ix_(keep, keep)]
        assert hermiticity_defect(sub) < 1e-12
