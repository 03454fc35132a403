import random
import re
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
    add,
    adjoint,
    commutator,
    multiply,
    project_out_level,
    realize,
    scale,
)

from conftest import LEVELS, random_expr

SPACE = SpaceSpec(LEVELS, 12)


def mono(re, pair, m, n, im=0, num=(), den=()):
    return Monomial(Coefficient.make(re, im, num, den), pair, m, n)


def sig(i, j):
    return (i, j)


def realize_buffered(x, y=None, n_max=12):
    """Realized matrices restricted to the truncation-safe Fock columns."""
    d = x.max_boson_degree() + (y.max_boson_degree() if y is not None else 0)
    keep = []
    fd = SPACE.fock_dim
    for lev in range(len(LEVELS)):
        keep.extend(range(lev * fd, lev * fd + (n_max - d) + 1))
    return np.array(keep)


class TestProducts:
    def test_transition_contraction(self):
        got = multiply(OperatorExpr.sigma("g", "r"), OperatorExpr.sigma("r", "g"))
        assert got == OperatorExpr.sigma("g", "g")

    def test_orthogonal_transitions_vanish(self):
        got = multiply(OperatorExpr.sigma("r", "g"), OperatorExpr.sigma("e", "r"))
        assert got.is_zero()

    def test_ccr(self):
        got = multiply(OperatorExpr.annihilate(), OperatorExpr.create())
        expected = OperatorExpr.from_monomials(
            [mono(1, None, 0, 0), mono(1, None, 1, 1)]
        )
        assert got == expected

    def test_combined_rules(self):
        x = multiply(OperatorExpr.sigma("g", "r"), OperatorExpr.create())
        y = multiply(OperatorExpr.sigma("r", "g"), OperatorExpr.annihilate())
        got = multiply(x, y)
        expected = OperatorExpr.from_monomials([mono(1, sig("g", "g"), 1, 1)])
        assert got == expected

    def test_higher_normal_ordering(self):
        # a^2 ad^2 = ad^2 a^2 + 4 ad a + 2
        a, ad = OperatorExpr.annihilate(), OperatorExpr.create()
        got = multiply(multiply(a, a), multiply(ad, ad))
        expected = OperatorExpr.from_monomials(
            [
                mono(2, None, 0, 0),
                mono(4, None, 1, 1),
                mono(1, None, 2, 2),
            ]
        )
        assert got == expected


class TestOneTermConstructors:
    # built as one-term tuples, so they must already be what merging gives
    @pytest.mark.parametrize(
        "build, term",
        [
            (lambda: OperatorExpr.sigma("g", "r"), mono(1, ("g", "r"), 0, 0)),
            (OperatorExpr.create, mono(1, None, 1, 0)),
            (OperatorExpr.annihilate, mono(1, None, 0, 1)),
        ],
        ids=["sigma", "create", "annihilate"],
    )
    def test_equals_the_merged_monomial(self, build, term):
        assert build() == OperatorExpr.from_monomials([term])


class TestAdjoint:
    def test_basic(self):
        x = multiply(OperatorExpr.sigma("g", "r"), OperatorExpr.create())
        got = adjoint(x)
        expected = multiply(OperatorExpr.sigma("r", "g"), OperatorExpr.annihilate())
        assert got == expected

    def test_conjugates_coefficient(self):
        x = scale(OperatorExpr.sigma("g", "g"), Coefficient.i())
        got = adjoint(x)
        assert got == scale(OperatorExpr.sigma("g", "g"), Coefficient.make(0, -1))

    @given(seed=st.integers(0, 10**9))
    @settings(max_examples=100, deadline=None)
    def test_involution(self, seed):
        x = random_expr(random.Random(seed), symbols=("g1", "g2"))
        assert adjoint(adjoint(x)) == x


class TestCommutator:
    def test_ccr_commutator(self):
        got = commutator(OperatorExpr.annihilate(), OperatorExpr.create())
        assert got == OperatorExpr.identity()

    def test_channel_commutator_matches_matrix_oracle(self):
        x = multiply(OperatorExpr.sigma("g", "r"), OperatorExpr.create())
        y = multiply(OperatorExpr.sigma("r", "g"), OperatorExpr.annihilate())
        got = commutator(x, y)
        expected = OperatorExpr.from_monomials(
            [
                mono(1, sig("g", "g"), 1, 1),
                mono(-1, sig("r", "r"), 1, 1),
                mono(-1, sig("r", "r"), 0, 0),
            ]
        )
        assert got == expected
        # independent dense oracle on the buffered subspace
        keep = realize_buffered(x, y)
        lhs = realize(got, SPACE)
        xm, ym = realize(x, SPACE), realize(y, SPACE)
        rhs = xm @ ym - ym @ xm
        np.testing.assert_allclose(
            lhs[np.ix_(keep, keep)], rhs[np.ix_(keep, keep)], atol=1e-12
        )

    @given(seed=st.integers(0, 10**9))
    @settings(max_examples=60, deadline=None)
    def test_antisymmetry(self, seed):
        x = random_expr(random.Random(seed))
        assert commutator(x, x).is_zero()

    @given(seed=st.integers(0, 10**9))
    @settings(max_examples=40, deadline=None)
    def test_bilinearity(self, seed):
        rng = random.Random(seed)
        x, y, z = (random_expr(rng, max_boson=2) for _ in range(3))
        lhs = commutator(add(x, y), z)
        rhs = add(commutator(x, z), commutator(y, z))
        assert lhs == rhs


class TestLinearOps:
    def test_additive_inverse(self):
        x = random_expr(random.Random(7), symbols=("g1",))
        assert add(x, scale(x, Coefficient.make(-1))).is_zero()

    def test_equal_after_canonicalization(self):
        a, ad = OperatorExpr.annihilate(), OperatorExpr.create()
        one = OperatorExpr.identity()
        assert multiply(a, ad) == add(multiply(ad, a), one)

    def test_scale_symbol_signature(self):
        c = Coefficient.make(1, 0, ("g1", "g2"), ("delta",))
        x = scale(OperatorExpr.sigma("g", "g"), c)
        assert len(x.terms) == 1
        assert x.terms[0].coeff.num == ("g1", "g2")
        assert x.terms[0].coeff.den == ("delta",)

    @pytest.mark.parametrize(
        "coeff, params, text",
        [
            (Coefficient.make(10**400), {}, "1" + "0" * 400),
            (Coefficient.make(1, 0, ("g1", "g1"), ("delta",)), {"g1": 1e200, "delta": 1.0},
             "g1*g1/delta"),
            (Coefficient.make(2, 0, ("g1",), ("x",)), {"g1": 1.0, "x": 0.0}, "2*g1/x"),
        ],
        ids=["literal", "product", "zero-denominator"],
    )
    def test_evaluate_rejects_values_outside_double_range(self, coeff, params, text):
        with pytest.raises(ValueError, match=rf"^coefficient {re.escape(text)} is not finite"):
            coeff.evaluate(params)

    @pytest.mark.parametrize("value", [1e200, 1e-200], ids=["overflow", "underflow"])
    def test_evaluate_divides_before_it_multiplies(self, value):
        # g1*g1/delta is g1 at g1 = delta, though g1*g1 leaves double range
        coeff = Coefficient.make(1, 0, ("g1", "g1"), ("delta",))
        assert coeff.evaluate({"g1": value, "delta": value}) == value

    @given(seed=st.integers(0, 10**9))
    @settings(max_examples=60, deadline=None)
    def test_canonical_uniqueness(self, seed):
        rng = random.Random(seed)
        parts = [random_expr(rng, max_terms=2) for _ in range(3)]
        fwd = add(add(parts[0], parts[1]), parts[2])
        rev = add(parts[2], add(parts[1], parts[0]))
        assert fwd == rev
        assert fwd.terms == rev.terms  # identical storage, not just equality


class TestProjectOutLevel:
    def test_drops_rr_terms(self):
        x = OperatorExpr.from_monomials(
            [mono(1, sig("g", "g"), 1, 1), mono(-1, sig("r", "r"), 1, 1),
             mono(-1, sig("r", "r"), 0, 0)]
        )
        got = project_out_level(x, "r")
        assert got == OperatorExpr.from_monomials([mono(1, sig("g", "g"), 1, 1)])

    def test_no_r_content_unchanged(self):
        x = OperatorExpr.sigma("g", "g")
        assert project_out_level(x, "r") == x

    def test_residual_coupling_rejected(self):
        x = multiply(OperatorExpr.sigma("g", "r"), OperatorExpr.create())
        with pytest.raises(
            ValueError,
            match=r"^off-diagonal terms involving level 'r' survive projection; "
            "the level does not decouple at second order$",
        ):
            project_out_level(x, "r")


class TestMatrixHomomorphism:
    @given(seed=st.integers(0, 10**9))
    @settings(max_examples=60, deadline=None)
    def test_product_homomorphism(self, seed):
        rng = random.Random(seed)
        x = random_expr(rng, max_boson=3)
        y = random_expr(rng, max_boson=3)
        keep = realize_buffered(x, y)
        lhs = realize(multiply(x, y), SPACE)
        rhs = realize(x, SPACE) @ realize(y, SPACE)
        np.testing.assert_allclose(
            lhs[np.ix_(keep, keep)], rhs[np.ix_(keep, keep)], atol=1e-9
        )

    @given(seed=st.integers(0, 10**9))
    @settings(max_examples=60, deadline=None)
    def test_adjoint_homomorphism(self, seed):
        x = random_expr(random.Random(seed), max_boson=3)
        keep = realize_buffered(x, x)
        lhs = realize(adjoint(x), SPACE)
        rhs = realize(x, SPACE).conj().T
        np.testing.assert_allclose(
            lhs[np.ix_(keep, keep)], rhs[np.ix_(keep, keep)], atol=1e-9
        )
