"""Tokenizer and recursive-descent parser for the operator expression language.

Grammar (whitespace insignificant)::

    expr     := ["+"|"-"] term (("+" | "-") term)*
    term     := factor ("*" factor)*
    factor   := coeff | operator | "(" expr ")"
    operator := "a" | "ad" | "sig" "(" level "," level ")"
    coeff    := number ["/" (ident | number)] | ident ["/" ident] | "i"
    level    := ident (must be a declared atomic level)

"i" is the imaginary unit.  Numbers are read exactly: an all-digit literal
as an int, a decimal or scientific one or a number/number quotient as a
``Fraction``, which is made nowhere else.  The optional
leading sign and the number/number division are printer-driven extensions of
the base grammar; both are accepted on input and may appear in pretty output.
"""

from __future__ import annotations

import re
from typing import NamedTuple

from .algebra import Coefficient, OperatorExpr

__all__ = ["Token", "tokenize", "parse_operator_expr"]


class IllegalCharacter(ValueError):
    """A character that starts no token, at byte ``position`` of the input."""

    def __init__(self, position: int, char: str):
        self.position = position
        super().__init__(f"illegal character {char!r} at byte offset {position}")


class ParseError(ValueError):
    """A token or end of input where ``expected`` was due, at byte ``position``."""

    def __init__(self, position: int, expected: str):
        self.position = position
        super().__init__(f"parse error at byte offset {position}: expected {expected}")


#: whitespace, then one token or an ``illegal`` character; no group at the end
_TOKEN = re.compile(
    r"\s*(?:(?P<number>\.?\d[\d.]*(?:[eE][+-]?\d+)?)"
    r"|(?P<ident>[A-Za-z_][A-Za-z0-9_]*)"
    r"|(?P<punct>[-+*/(),=])"
    r"|(?P<illegal>.)"
    r"|\Z)"
)

_KEYWORDS = {"a": "ladder", "ad": "ladder", "sig": "sigma-head"}


class Token(NamedTuple):
    kind: str  # number | ident | sigma-head | ladder | punct
    lexeme: str
    position: int  # byte offset in the source text


def tokenize(text: str) -> list[Token]:
    tokens: list[Token] = []
    index = 0
    while True:
        match = _TOKEN.match(text, index)
        kind = match.lastgroup
        if kind is None:
            return tokens
        lexeme = match.group(kind)
        position = len(text[: match.start(kind)].encode("utf-8"))
        if kind == "illegal":
            raise IllegalCharacter(position, lexeme)
        if kind == "ident":
            kind = _KEYWORDS.get(lexeme, kind)
        tokens.append(Token(kind, lexeme, position))
        index = match.end()


def _number(tok: Token):
    """A number token's exact value: an int when all digits, else a Fraction."""
    # Fraction builds 10**exponent; 4300 is CPython's default limit on int/str
    # digit conversion, set against the same denial of service.  Checked
    # outside the try, since ParseError is a ValueError
    digits = tok.lexeme.lower().partition("e")[2].lstrip("+-").lstrip("0")
    if len(digits) > 4 or (digits and int(digits) > 4300):
        raise ParseError(tok.position, "number with exponent within +-4300")
    try:
        if tok.lexeme.isdecimal():
            return int(tok.lexeme)
        from fractions import Fraction

        return Fraction(tok.lexeme)
    except ValueError:
        raise ParseError(tok.position, "number") from None


class _Parser:
    """One expression's tokens, ended by an ``end`` token at the text's byte
    length, the index of the next token and the declared atomic levels."""

    def __init__(self, text: str, declared_levels):
        self.tokens = tokenize(text)
        self.tokens.append(Token("end", "", len(text.encode("utf-8"))))
        self.index = 0
        self.levels = declared_levels

    def peek(self, *wanted: str) -> Token | None:
        """The next token, if ``wanted`` holds its kind (a mark's lexeme)."""
        tok = self.tokens[self.index]
        if (tok.lexeme if tok.kind == "punct" else tok.kind) in wanted:
            return tok
        return None

    def take(self, *wanted: str, expected: str | None = None) -> Token | None:
        """Consume the next token if ``peek(*wanted)`` returns it; otherwise
        raise ParseError at it when ``expected`` is given, else return None."""
        tok = self.peek(*wanted)
        if tok is not None:
            self.index += 1
        elif expected is not None:
            raise ParseError(self.tokens[self.index].position, expected)
        return tok

    def expr(self) -> OperatorExpr:
        result = OperatorExpr()
        sign = self.take("+", "-")
        while True:
            term = self.term()
            if sign is not None and sign.lexeme == "-":
                term = -term
            result = result + term
            sign = self.take("+", "-")
            if sign is None:
                return result

    def term(self) -> OperatorExpr:
        result = self.factor()
        while self.take("*") is not None:
            result = result * self.factor()
        return result

    def factor(self) -> OperatorExpr:
        if self.peek("end") is not None:
            raise ParseError(self.tokens[self.index].position, "factor")
        expected = "coefficient, operator, or '('"
        tok = self.take("(", "ladder", "sigma-head", "number", "ident", expected=expected)
        if tok.kind == "punct":
            inner = self.expr()
            self.take(")", expected="')'")
            return inner
        if tok.kind == "ladder":
            return OperatorExpr.create() if tok.lexeme == "ad" else OperatorExpr.annihilate()
        if tok.kind == "sigma-head":
            self.take("(", expected="'('")
            i = self.level()
            self.take(",", expected="','")
            j = self.level()
            self.take(")", expected="')'")
            return OperatorExpr.sigma(i, j)
        return OperatorExpr.identity(self.coeff(tok))

    def coeff(self, tok: Token) -> Coefficient:
        """The ``coeff`` rule from its first token, a number or an identifier."""
        if tok.lexeme == "i":
            return Coefficient.i()
        if tok.kind == "number":
            value = Coefficient.make(_number(tok))
            kinds, expected = ("number", "ident"), "denominator symbol or number"
        else:
            value = Coefficient.symbol(tok.lexeme)
            kinds, expected = ("ident",), "denominator symbol"
        if self.take("/") is None:
            return value
        den = self.take(*kinds, expected=expected)
        if den.kind == "ident":
            return value.mul(Coefficient.make(den=(den.lexeme,)))
        d = _number(den)
        if d == 0:
            raise ParseError(den.position, "nonzero denominator")
        from fractions import Fraction

        return value.mul(Coefficient.make(Fraction(1, d)))

    def level(self) -> str:
        label = self.take("ident", "ladder", "sigma-head", expected="level label").lexeme
        if label not in self.levels:
            raise ValueError(f"unknown atomic level {label!r}")
        return label


def parse_operator_expr(text: str, declared_levels) -> OperatorExpr:
    """Parse an expression into canonical form.

    Raises IllegalCharacter or ParseError, which carry a byte position
    inside the input, or a ValueError for an undeclared level.
    """
    parser = _Parser(text, declared_levels)
    if parser.peek("end") is not None:
        raise ParseError(0, "expression")
    result = parser.expr()
    parser.take("end", expected="'+', '-', or end of input")
    return result
