import ast
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dforge import (
    Coefficient,
    Monomial,
    OperatorExpr,
    SpaceSpec,
    add,
    adjoint,
    commutator,
    decompose,
    effective_hamiltonian,
    element_hermiticity_defect,
    first_order_remainder_bound,
    hermiticity_defect,
    matrix_elements,
    parse_scenario,
    realize,
    scale,
)

from conftest import (
    LEVELS,
    REPO_ROOT,
    buffered_indices,
    drive_of,
    kick_bound,
    mono,
    random_expr,
    sig,
    three_level_drive,
)

SPACE = SpaceSpec(LEVELS, 10)


def test_effective_is_symbolic_only():
    # neither numpy nor spaces: the numeric layer takes realized matrices
    tree = ast.parse((REPO_ROOT / "src" / "dforge" / "effective.py").read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.add("." * node.level + (node.module or ""))
    assert imported == {".algebra"}


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
#: (coupling symbol, operator) channels over two symbols, so a symbol is
#: often repeated
_CHANNELS = st.tuples(
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
        got = effective_hamiltonian(drive_of(("g1", op)))
        nd = (("g1", "g1"), ("delta",))
        expected = OperatorExpr.from_monomials(
            [
                mono(1, sig("g", "g"), 1, 1, *nd),
                mono(-1, sig("r", "r"), 1, 1, *nd),
                mono(-1, sig("r", "r"), 0, 0, *nd),
            ]
        )
        assert got == expected

    def test_single_drive_channel(self):
        # classical drive: [sig(g,r), sig(r,g)] = sig(g,g) - sig(r,r)
        got = effective_hamiltonian(drive_of(("Om", OperatorExpr.sigma("g", "r"))))
        nd = (("Om", "Om"), ("delta",))
        expected = OperatorExpr.from_monomials(
            [mono(1, sig("g", "g"), 0, 0, *nd), mono(-1, sig("r", "r"), 0, 0, *nd)]
        )
        assert got == expected

    def test_identity_channel_vanishes(self):
        # [1, 1] = 0: a channel proportional to the identity contributes nothing
        assert effective_hamiltonian(drive_of(("x", OperatorExpr.identity()))).is_zero()

    def test_every_coefficient_carries_detuning(self):
        h = effective_hamiltonian(three_level_drive())
        for m in h.terms:
            assert m.coeff.den == ("delta",)
            assert len(m.coeff.num) == 2

    def test_three_level_monomial_count(self):
        h = effective_hamiltonian(three_level_drive())
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
            channels.append((f"c{idx}", op))
        h = effective_hamiltonian(drive_of(*channels))
        params = {f"c{idx}": 0.5 + 0.25 * idx for idx in range(len(channels))}
        params["delta"] = 3.0
        mat = realize(h, SPACE, params)
        keep = buffered_indices(SPACE, h.max_boson_degree())
        sub = mat[np.ix_(keep, keep)]
        assert float(np.max(np.abs(sub - sub.conj().T))) < 1e-12

    @given(
        seed=st.integers(0, 10**9),
        exponents=st.tuples(*[st.floats(-3, 7)] * 3),
        n_max=st.integers(2, 8),
    )
    @settings(max_examples=100, deadline=None)
    def test_element_hermiticity_defect_is_exactly_zero(self, seed, exponents, n_max):
        # the line derive prints is a structural check: each mirror entry sums
        # the adjoint monomials in the same canonical order, with values that
        # are bitwise conjugates, so the defect is 0.0 and not just small
        drive = random_expr(random.Random(seed), symbols=("g1", "g2"))
        params = dict(zip(("g1", "g2", "delta"), (10.0**x for x in exponents)))
        elements = matrix_elements(effective_hamiltonian(drive), SpaceSpec(LEVELS, n_max), params)
        assert element_hermiticity_defect(elements) == 0.0

    @given(channels=st.lists(_CHANNELS, min_size=1, max_size=3))
    @settings(max_examples=60, deadline=None)
    def test_equals_per_pair_commutator_sum(self, channels):
        # oracle: sum_jk lam_j lam_k / delta [A_j, A_k^dag], pair by pair
        inv_delta = Coefficient.make(den=("delta",))
        expected = OperatorExpr()
        for sym_j, op_j in channels:
            for sym_k, op_k in channels:
                expected = add(
                    expected,
                    scale(
                        commutator(op_j, adjoint(op_k)),
                        Coefficient.make(num=(sym_j, sym_k), den=("delta",)),
                    ),
                )
        assert effective_hamiltonian(drive_of(*channels)) == expected

    def test_detuning_symbol_collision_rejected(self):
        # H_eff divides by delta, so delta cannot also be a coupling symbol
        text = (REPO_ROOT / "presets" / "dimensionless.cfg").read_text()
        text = text.replace("Omega : sig(g,r)\n", "Omega : sig(g,r)\ndelta : sig(g,r)\n")
        with pytest.raises(ValueError) as exc:
            parse_scenario(text)
        assert str(exc.value) == "detuning symbol 'delta' collides with a coupling symbol"


@pytest.fixture(scope="module")
def parts():
    from dforge import project_out_level

    h = project_out_level(effective_hamiltonian(three_level_drive()), "r")
    return h, decompose(h, "g", "e")


class TestDecompose:
    def test_parts_resum_exactly(self, parts):
        h, d = parts
        total = OperatorExpr()
        for x in d.values():
            total = add(total, x)
        assert total == h

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
        assert d["stark"] == expected

    def test_one_photon_terms(self, parts):
        _, d = parts
        expected = OperatorExpr.from_monomials(
            [
                mono(1, sig("e", "g"), 0, 1, ("Omega", "g2"), ("delta",)),
                mono(1, sig("g", "e"), 1, 0, ("Omega", "g2"), ("delta",)),
            ]
        )
        assert d["one_photon"] == expected

    def test_two_photon_terms(self, parts):
        _, d = parts
        expected = OperatorExpr.from_monomials(
            [
                mono(1, sig("e", "g"), 0, 2, ("g1", "g2"), ("delta",)),
                mono(1, sig("g", "e"), 2, 0, ("g1", "g2"), ("delta",)),
            ]
        )
        assert d["two_photon"] == expected

    def test_displacement_terms(self, parts):
        _, d = parts
        expected = OperatorExpr.from_monomials(
            [
                mono(1, sig("g", "g"), 0, 1, ("Omega", "g1"), ("delta",)),
                mono(1, sig("g", "g"), 1, 0, ("Omega", "g1"), ("delta",)),
            ]
        )
        assert d["displacement"] == expected

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


def shape_part(m: Monomial, ground: str, excited: str) -> str:
    """The part of one term by the rules of ``decompose``'s docstring,
    written apart from its table: an atom-diagonal term first, then the
    photon processes sig(e,g)*a^q and sig(g,e)*ad^q with q = 1 or 2."""
    if m.pair is None or m.pair[0] == m.pair[1]:
        if m.creators == m.annihilators <= 1:
            return "stark"
        if m.creators + m.annihilators == 1:
            return "displacement"
        return "other"
    if m.pair == (excited, ground) and m.creators == 0:
        quanta = m.annihilators
    elif m.pair == (ground, excited) and m.annihilators == 0:
        quanta = m.creators
    else:
        return "other"
    return {1: "one_photon", 2: "two_photon"}.get(quanta, "other")


class TestShapeTable:
    # random_expr draws identity atoms and sig(i,j) of either orientation
    # with 0-3 quanta; ("g", "g") is the pair left when a projection leaves
    # one level, so every diagonal term must stay out of the photon parts
    @pytest.mark.parametrize("pair", [("g", "e"), ("e", "g"), ("g", "r"), ("g", "g")])
    @given(seed=st.integers(0, 10**9))
    @settings(max_examples=60, deadline=None)
    def test_each_term_lands_in_its_shape_part(self, pair, seed):
        h = random_expr(random.Random(seed), max_terms=6, symbols=("x", "y"))
        expected = {name: [] for name in ("stark", "one_photon", "two_photon",
                                          "displacement", "other")}
        for m in h.terms:
            expected[shape_part(m, *pair)].append(m)
        got = decompose(h, *pair)
        assert list(got) == list(expected)
        for name, monos in expected.items():
            assert got[name] == OperatorExpr.from_monomials(monos), name

    def test_collapsed_pair_keeps_diagonal_terms_out_of_photon_parts(self):
        moves = [mono(1, sig("g", "g"), 0, 1), mono(1, sig("g", "g"), 1, 0)]
        rest = [mono(1, sig("g", "g"), 0, 2), mono(1, None, 2, 0)]
        d = decompose(OperatorExpr.from_monomials(moves + rest), "g", "g")
        assert d["one_photon"].is_zero() and d["two_photon"].is_zero()
        assert d["displacement"] == OperatorExpr.from_monomials(moves)
        assert d["other"] == OperatorExpr.from_monomials(rest)


class TestRemainderBound:
    PARAMS = {"g1": 1.0, "g2": 1.0, "Omega": 1.0, "delta": 100.0}

    def test_drive_only_value(self):
        # sig(g,r) has unit operator norm, so the bound is exactly 2 lam/delta
        drive = drive_of(("Om", OperatorExpr.sigma("g", "r")))
        got = kick_bound(drive, {"Om": 2.0, "delta": 100.0}, SPACE)
        assert got == pytest.approx(2.0 * 2.0 / 100.0, rel=1e-12)

    def test_cavity_channel_value(self):
        # |sig(g,r) ad| on a truncated space is sqrt(n_max)
        op = OperatorExpr.sigma("g", "r") * OperatorExpr.create()
        got = kick_bound(drive_of(("g1", op)), {"g1": 1.0, "delta": 100.0}, SPACE)
        assert got == pytest.approx(2.0 * np.sqrt(SPACE.n_max) / 100.0, rel=1e-12)

    def test_scales_linearly_in_coupling(self):
        drive = three_level_drive()
        base = kick_bound(drive, self.PARAMS, SPACE)
        doubled = dict(self.PARAMS)
        for key in ("g1", "g2", "Omega"):
            doubled[key] = 2.0 * self.PARAMS[key]
        assert kick_bound(drive, doubled, SPACE) == pytest.approx(2.0 * base, rel=1e-12)

    def test_scales_inversely_in_detuning(self):
        drive = three_level_drive()
        base = kick_bound(drive, self.PARAMS, SPACE)
        far = dict(self.PARAMS, delta=1000.0)
        assert kick_bound(drive, far, SPACE) == pytest.approx(
            base / 10.0, rel=1e-12
        )

    def test_shrinks_with_detuning_against_norm(self):
        drive = three_level_drive()
        bound = kick_bound(drive, self.PARAMS, SPACE)
        h = realize(effective_hamiltonian(drive), SPACE, self.PARAMS)
        assert bound < np.linalg.norm(h, 2) * 10  # same 1/delta order, sane magnitude

    def test_three_level_bound_is_tighter_than_channel_sum(self):
        # the dimensionless preset: the per-channel triangle sum counts each
        # channel's norm apart; 2||M||/|delta| takes the one drive at once
        space = SpaceSpec(LEVELS, 15)
        sgr = OperatorExpr.sigma("g", "r")
        ser = OperatorExpr.sigma("e", "r")
        ops = (sgr * OperatorExpr.create(), ser * OperatorExpr.annihilate(), sgr)
        bound = kick_bound(three_level_drive(), self.PARAMS, space)
        channel_sum = sum(
            2.0 * np.linalg.norm(realize(op, space, {}), 2) for op in ops
        ) / self.PARAMS["delta"]
        assert bound == pytest.approx(0.11685, abs=1e-5)
        assert channel_sum == pytest.approx(0.17492, abs=1e-5)

    def test_zero_detuning_rejected(self):
        m = realize(three_level_drive(), SPACE, self.PARAMS)
        with pytest.raises(ValueError, match="^detuning is zero; the kick bound divides by it$"):
            first_order_remainder_bound(m, 0.0)

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
        bound = kick_bound(drive_of(*channels), params, space)
        channel_sum = sum(
            2.0 * abs(params[sym]) * np.linalg.norm(realize(op, space, {}), 2)
            for sym, op in channels
        ) / abs(delta)
        m = sum(params[sym] * realize(op, space, {}) for sym, op in channels)
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
        h = realize(effective_hamiltonian(three_level_drive()), SPACE, self.PARAMS)
        deg = 2
        fd = SPACE.fock_dim
        keep = np.array(
            [lv * fd + n for lv in range(len(LEVELS)) for n in range(fd - deg)]
        )
        sub = h[np.ix_(keep, keep)]
        assert hermiticity_defect(sub) < 1e-12
