import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dforge import parse_operator_expr, pretty, tokenize
from dforge.parsing import IllegalCharacter, ParseError

from conftest import LEVELS, random_expr


class TestTokenize:
    def test_ladder_product(self):
        toks = tokenize("a*ad")
        assert [(t.kind, t.lexeme) for t in toks] == [
            ("ladder", "a"),
            ("punct", "*"),
            ("ladder", "ad"),
        ]

    def test_channel_term(self):
        toks = tokenize("g1*sig(g,r)*ad")
        assert len(toks) == 10
        assert toks[0].kind == "ident" and toks[0].lexeme == "g1"
        assert toks[2].kind == "sigma-head"
        assert toks[-1].kind == "ladder" and toks[-1].lexeme == "ad"

    def test_non_ascii_rejected(self):
        with pytest.raises(IllegalCharacter) as exc:
            tokenize("σ")
        assert exc.value.position == 0

    def test_positions_strictly_increasing(self):
        toks = tokenize("g1 * sig(g,r) + 2.5e3*ad")
        positions = [t.position for t in toks]
        assert positions == sorted(positions)
        assert len(set(positions)) == len(positions)

    def test_lexemes_reproduce_input(self):
        text = "g1*sig(g, r)*ad + 2/delta*a"
        assert "".join(t.lexeme for t in tokenize(text)) == text.replace(" ", "")

    @pytest.mark.parametrize(
        "text, position",
        # "²" is a digit to str.isdigit but not a decimal digit
        [("a + @b", 4), ("x\u2003²", 4)],
        ids=["at-sign", "superscript-two"],
    )
    def test_unknown_character(self, text, position):
        with pytest.raises(IllegalCharacter) as exc:
            tokenize(text)
        assert exc.value.position == position

    @given(
        st.lists(
            st.sampled_from(
                ["g1", "ad", "a", "sig", "i", "_x9", "7", "0.25", ".5e+2", "1e-3", "٣",
                 "+", "-", "*", "/", "(", ")", ",", "=",
                 " ", "\t", "\n", "\u00a0", "\u2003"]
            ),
            max_size=20,
        ).map("".join)
    )
    @settings(max_examples=300, deadline=None)
    def test_positions_are_byte_offsets(self, text):
        data = text.encode("utf-8")
        end = 0
        for tok in tokenize(text):
            lexeme = tok.lexeme.encode("utf-8")
            assert data[tok.position : tok.position + len(lexeme)] == lexeme
            assert data[end : tok.position].decode("utf-8").strip() == ""
            end = tok.position + len(lexeme)
        assert data[end:].decode("utf-8").strip() == ""


class TestParse:
    def test_single_monomial(self):
        x = parse_operator_expr("sig(g,r)*ad", LEVELS)
        assert len(x.terms) == 1
        m = x.terms[0]
        assert m.coeff.re == 1 and m.coeff.im == 0
        assert m.pair == ("g", "r")
        assert (m.creators, m.annihilators) == (1, 0)

    def test_two_channel_sum(self):
        x = parse_operator_expr("g1*sig(g,r)*ad + g2*sig(e,r)*a", LEVELS)
        assert len(x.terms) == 2
        sigs = {m.coeff.num for m in x.terms}
        assert sigs == {("g1",), ("g2",)}

    def test_ccr_canonicalization(self):
        x = parse_operator_expr("a*ad", LEVELS)
        y = parse_operator_expr("1 + ad*a", LEVELS)
        assert x == y

    def test_unknown_level(self):
        with pytest.raises(ValueError, match=r"^unknown atomic level 'x'$"):
            parse_operator_expr("sig(g,x)", LEVELS)

    def test_error_position_within_input(self):
        text = "a + * ad"
        with pytest.raises(ParseError) as exc:
            parse_operator_expr(text, LEVELS)
        assert 0 <= exc.value.position <= len(text.encode())

    @pytest.mark.parametrize("text", ["1e1000000*a", "1e-1000000*a"])
    def test_huge_exponent_rejected_before_building_the_number(self, text):
        with pytest.raises(ParseError, match="exponent within") as exc:
            parse_operator_expr(text, LEVELS)
        assert exc.value.position == 0

    @pytest.mark.parametrize(
        "exponent", ["4301", "+0004301", "9" * 5000], ids=["4301", "padded", "5000-digits"]
    )
    def test_exponent_bound_is_the_parse_error(self, exponent):
        # an exponent past CPython's int/str digit limit gets the same error
        with pytest.raises(ParseError, match="expected number with exponent within") as exc:
            parse_operator_expr(f"a*1e{exponent}", LEVELS)
        assert exc.value.position == 2

    def test_exponent_at_the_bound_parses(self):
        x = parse_operator_expr("1e-04300*a", LEVELS)
        assert x.terms[0].coeff.re == Fraction(1, 10**4300)

    def test_double_range_exponent_parses(self):
        x = parse_operator_expr("1e300*a", LEVELS)
        assert x.terms[0].coeff.re == 10**300
        # pretty writes every digit, so the text reparses exactly
        assert parse_operator_expr(pretty(x), LEVELS) == x

    @pytest.mark.parametrize(
        "text, value, printed",
        [("2/3*a", Fraction(2, 3), "2/3*a"),
         ("-3/2*sig(g,e)", Fraction(-3, 2), "-3/2*sig(g,e)"),
         ("0.25*a", Fraction(1, 4), "1/4*a")],
        ids=["quotient", "negative-quotient", "decimal"],
    )
    def test_rational_literal_is_an_exact_fraction(self, text, value, printed):
        x = parse_operator_expr(text, LEVELS)
        (m,) = x.terms
        assert type(m.coeff.re) is Fraction and m.coeff.re == value and m.coeff.im == 0
        assert pretty(x) == printed
        assert parse_operator_expr(printed, LEVELS) == x

    def test_all_digit_literal_is_an_int(self):
        (m,) = parse_operator_expr("12*a", LEVELS).terms
        assert type(m.coeff.re) is int and m.coeff.re == 12

    def test_trailing_junk_rejected(self):
        with pytest.raises(ParseError):
            parse_operator_expr("a a", LEVELS)

    def test_imaginary_unit(self):
        x = parse_operator_expr("i*sig(g,g)", LEVELS)
        m = x.terms[0]
        assert m.coeff.re == 0 and m.coeff.im == 1

    def test_symbol_division(self):
        x = parse_operator_expr("g1*g2/delta*sig(g,e)", LEVELS)
        m = x.terms[0]
        assert m.coeff.num == ("g1", "g2")
        assert m.coeff.den == ("delta",)

    def test_parsing_is_pure(self):
        text = "g1*sig(g,r)*ad + i*a - 3/2*sig(e,e)"
        assert parse_operator_expr(text, LEVELS) == parse_operator_expr(text, LEVELS)


class TestRoundTrip:
    @given(seed=st.integers(0, 10**9))
    @settings(max_examples=150, deadline=None)
    def test_pretty_reparses_equal(self, seed):
        rng = random.Random(seed)
        x = random_expr(rng, max_terms=4, symbols=("g1", "g2", "Om"))
        text = pretty(x)
        assert parse_operator_expr(text, LEVELS) == x

    def test_zero_round_trip(self):
        x = parse_operator_expr("a - a", LEVELS)
        assert pretty(x) == "0"
        assert parse_operator_expr("0", LEVELS) == x

    def test_denominator_round_trip(self):
        x = parse_operator_expr("g1*g2/delta*sig(g,e)*ad*ad", LEVELS)
        assert parse_operator_expr(pretty(x), LEVELS) == x
