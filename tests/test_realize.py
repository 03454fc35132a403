import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dforge import (
    Coefficient,
    Monomial,
    OperatorExpr,
    SpaceSpec,
    build_state,
    coherent_tail_mass,
    effective_hamiltonian,
    element_hermiticity_defect,
    hermiticity_defect,
    matrix_elements,
    project_out_level,
    realize,
)

from conftest import LEVELS, three_level_drive

SPACE = SpaceSpec(LEVELS, 10)


class TestLadderMatrices:
    def test_annihilator_entries(self):
        a = realize(OperatorExpr.annihilate(), SPACE, {})
        fd = SPACE.fock_dim
        block = a[:fd, :fd]
        for n in range(1, fd):
            assert block[n - 1, n] == pytest.approx(math.sqrt(n))
        assert np.count_nonzero(block) == fd - 1

    def test_creator_is_adjoint(self):
        a = realize(OperatorExpr.annihilate(), SPACE, {})
        ad = realize(OperatorExpr.create(), SPACE, {})
        np.testing.assert_allclose(ad, a.conj().T)

    def test_number_operator_diagonal(self):
        num = realize(OperatorExpr.create() * OperatorExpr.annihilate(), SPACE, {})
        fd = SPACE.fock_dim
        block = num[:fd, :fd]
        np.testing.assert_allclose(block, np.diag(np.arange(fd, dtype=float)))

    def test_cutoff_kills_top_creation(self):
        ad = realize(OperatorExpr.create(), SPACE, {})
        top = SPACE.index(LEVELS[0], SPACE.n_max)
        assert np.all(ad[:, top] == 0)

    def test_identity_realizes_to_eye(self):
        np.testing.assert_allclose(
            realize(OperatorExpr.identity(), SPACE, {}), np.eye(SPACE.dim)
        )

    def test_linearity_in_params(self):
        x = OperatorExpr.sigma("g", "e") * OperatorExpr.create()
        from dforge import Coefficient, scale

        scaled = scale(x, Coefficient.symbol("g1"))
        m1 = realize(scaled, SPACE, {"g1": 1.0})
        m3 = realize(scaled, SPACE, {"g1": 3.0})
        np.testing.assert_allclose(m3, 3.0 * m1)


_PAIRS = st.one_of(
    st.just(None),
    st.tuples(st.sampled_from(LEVELS), st.sampled_from(LEVELS)),
)
_MONOMIALS = st.builds(
    lambda re, im, pair, p, q: Monomial(Coefficient.make(re, im), pair, p, q),
    st.integers(-3, 3),
    st.integers(-3, 3).filter(bool),
    _PAIRS,
    st.integers(0, 3),
    st.integers(0, 3),
)


def _dense_oracle(expr: OperatorExpr, space: SpaceSpec) -> np.ndarray:
    """sum c * kron(atom, ad^p a^q) with a truncated to Fock 0..n_max."""
    fd = space.fock_dim
    a = np.diag(np.sqrt(np.arange(1, fd)), k=1)
    out = np.zeros((space.dim, space.dim), dtype=complex)
    for m in expr.terms:
        if m.pair is None:
            atom = np.eye(len(space.levels))
        else:
            atom = np.zeros((len(space.levels),) * 2)
            i, j = m.pair
            atom[space.level_index(i), space.level_index(j)] = 1.0
        boson = np.linalg.matrix_power(a.T, m.creators) @ np.linalg.matrix_power(
            a, m.annihilators
        )
        out += m.coeff.evaluate({}) * np.kron(atom, boson)
    return out


class TestClosedFormElements:
    @given(monomials=st.lists(_MONOMIALS, min_size=1, max_size=3), n_max=st.integers(1, 6))
    @settings(max_examples=200, deadline=None)
    def test_realize_matches_truncated_product(self, monomials, n_max):
        # every entry, the top Fock levels included, against the product of
        # truncated ladder matrices; the element defect is the dense one up
        # to the rounding of |z| (Python's abs and numpy's differ by an ulp)
        space = SpaceSpec(LEVELS, n_max)
        expr = OperatorExpr.from_monomials(monomials)
        got = realize(expr, space, {})
        np.testing.assert_allclose(got, _dense_oracle(expr, space), rtol=1e-14, atol=1e-14)
        elements = matrix_elements(expr, space, {})
        assert element_hermiticity_defect(elements) == pytest.approx(
            hermiticity_defect(got), rel=1e-15, abs=0
        )


class TestBasisOrdering:
    def test_index_layout(self):
        fd = SPACE.fock_dim
        assert SPACE.index("g", 0) == 0
        assert SPACE.index("r", 0) == fd
        assert SPACE.index("e", 2) == 2 * fd + 2

    def test_index_overflow(self):
        with pytest.raises(ValueError, match=r"^Fock index 11 exceeds truncation n_max=10$"):
            SPACE.index("g", SPACE.n_max + 1)

    @pytest.mark.parametrize("n_max", [0, -1])
    def test_nonpositive_truncation(self, n_max):
        with pytest.raises(ValueError, match=rf"^Fock truncation must be >= 1, got {n_max}$"):
            SpaceSpec(LEVELS, n_max)

    def test_unknown_level(self):
        with pytest.raises(ValueError, match=r"^unknown atomic level 'x'$"):
            SPACE.index("x", 0)

    def test_two_photon_matrix_element(self):
        # <g,2| H_2ph |e,0> = sqrt(2) g1 g2 / delta
        params = {"g1": 2.0, "g2": 3.0, "Omega": 0.0, "delta": 100.0}
        h = project_out_level(effective_hamiltonian(three_level_drive()), "r")
        mat = realize(h, SPACE, params)
        got = mat[SPACE.index("g", 2), SPACE.index("e", 0)]
        assert got == pytest.approx(math.sqrt(2) * 2.0 * 3.0 / 100.0)


class TestStates:
    def test_fock_state(self):
        psi = build_state("e,3", SPACE)
        assert psi[SPACE.index("e", 3)] == 1.0
        assert np.linalg.norm(psi) == pytest.approx(1.0)
        assert np.count_nonzero(psi) == 1

    def test_fock_state_overflow(self):
        with pytest.raises(ValueError, match=r"^Fock index 11 exceeds truncation n_max=10$"):
            build_state(f"g,{SPACE.n_max + 1}", SPACE)

    def test_unknown_level_state(self):
        with pytest.raises(ValueError, match=r"^unknown atomic level 'q'$"):
            build_state("q,0", SPACE)

    def test_bad_descriptor(self):
        with pytest.raises(ValueError):
            build_state("g", SPACE)

    def test_coherent_mean_photon_number(self):
        space = SpaceSpec(LEVELS, 30)
        psi = build_state("g,coherent(2)", space)
        num = realize(OperatorExpr.create() * OperatorExpr.annihilate(), space, {})
        n_mean = float(np.real(psi.conj() @ num @ psi))
        assert abs(n_mean - 4.0) < 1e-6
        assert np.linalg.norm(psi) == pytest.approx(1.0)

    def test_coherent_amplitudes_against_direct_sum(self):
        # independent oracle: raw Poisson amplitudes, the phase of alpha^n
        # included, then renormalize; at |alpha|^2 = 9 and n_max = 15 the
        # renormalization carries the 2% tail
        for text, n_max in [("1.5", 20), ("-1+0.5j", 20), ("3.0", 15)]:
            space, alpha = SpaceSpec(LEVELS, n_max), complex(text)
            psi = build_state(f"g,coherent({text})", space)
            raw = np.array(
                [
                    math.exp(-abs(alpha) ** 2 / 2) * alpha**n / math.sqrt(math.factorial(n))
                    for n in range(space.fock_dim)
                ]
            )
            raw /= np.linalg.norm(raw)
            np.testing.assert_allclose(psi[: space.fock_dim], raw, rtol=0, atol=1e-12)
            np.testing.assert_array_equal(psi[space.fock_dim :], 0)

    def test_coherent_zero_is_vacuum(self):
        psi = build_state("g,coherent(0)", SPACE)
        expected = np.zeros(SPACE.dim)
        expected[SPACE.index("g", 0)] = 1.0
        np.testing.assert_allclose(psi, expected)

    def test_tail_mass_matches_poisson_sum(self):
        alpha, n_max = 2.0, 12
        nbar = alpha**2
        kept = sum(
            math.exp(-nbar) * nbar**n / math.factorial(n) for n in range(n_max + 1)
        )
        assert coherent_tail_mass(alpha, n_max) == pytest.approx(
            1.0 - kept, abs=1e-14
        )

    @pytest.mark.parametrize("nbar, n_max", [(900, 1000), (900, 880), (2500, 15)])
    def test_tail_mass_against_exact_poisson_sum(self, nbar, n_max):
        # independent oracle: sum nbar^n / n! exactly in rationals, then the
        # weight kept is exp(log(sum) - nbar); e^{-900} itself underflows.
        # Either side rounds exponents of size ~nbar, hence the tolerance
        total = sum(
            Fraction(nbar**n, math.factorial(n)) for n in range(n_max + 1)
        )
        kept = math.exp(
            math.log(total.numerator) - math.log(total.denominator) - nbar
        )
        assert coherent_tail_mass(math.sqrt(nbar), n_max) == pytest.approx(
            1.0 - kept, rel=0, abs=2e-15 * nbar
        )

    def test_tail_mass_decreases_with_truncation(self):
        masses = [coherent_tail_mass(2.0, n) for n in (4, 8, 16, 32)]
        assert masses == sorted(masses, reverse=True)
        assert masses[-1] < 1e-9

