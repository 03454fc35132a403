"""Tokenizer and recursive-descent parser for the operator expression language.

Grammar (whitespace insignificant)::

    expr     := ["+"|"-"] term (("+" | "-") term)*
    term     := factor ("*" factor)*
    factor   := coeff | operator | "(" expr ")"
    operator := "a" | "ad" | "sig" "(" level "," level ")"
    coeff    := number ["/" (ident | number)] | ident ["/" ident] | "i"
    level    := ident (must be a declared atomic level)

"i" is the imaginary unit.  Numbers are read exactly (decimal and scientific
notation map to rationals), so parsing never loses precision.  The optional
leading sign and the number/number division are printer-driven extensions of
the base grammar; both are accepted on input and may appear in pretty output.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .algebra import Coefficient, OperatorExpr, add, multiply, scale
from .errors import IllegalCharacter, ParseError, UnknownLevel

__all__ = ["Token", "tokenize", "parse_operator_expr"]

_PUNCT = set("+-*/(),=")


class Token(NamedTuple):
    kind: str  # number | ident | sigma-head | ladder | punct
    lexeme: str
    position: int  # byte offset in the source text


def _classify_ident(word: str) -> str:
    if word in ("a", "ad"):
        return "ladder"
    if word == "sig":
        return "sigma-head"
    return "ident"


def tokenize(text: str) -> list[Token]:
    tokens: list[Token] = []
    i = 0
    byte_pos = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            byte_pos += len(ch.encode("utf-8"))
            continue
        start_byte = byte_pos
        if ch.isdigit() or (ch == "." and i + 1 < n and text[i + 1].isdigit()):
            j = i
            while j < n and (text[j].isdigit() or text[j] == "."):
                j += 1
            if j < n and text[j] in "eE":
                k = j + 1
                if k < n and text[k] in "+-":
                    k += 1
                if k < n and text[k].isdigit():
                    j = k
                    while j < n and text[j].isdigit():
                        j += 1
            lexeme = text[i:j]
            tokens.append(Token("number", lexeme, start_byte))
        elif ch.isalpha() or ch == "_":
            if not ch.isascii():
                raise IllegalCharacter(byte_pos, ch)
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_") and text[j].isascii():
                j += 1
            lexeme = text[i:j]
            tokens.append(Token(_classify_ident(lexeme), lexeme, start_byte))
        elif ch in _PUNCT:
            lexeme = ch
            tokens.append(Token("punct", ch, start_byte))
        else:
            raise IllegalCharacter(byte_pos, ch)
        i += len(lexeme)
        byte_pos += len(lexeme.encode("utf-8"))
    return tokens


class _Stream:
    def __init__(self, tokens: list[Token], end_pos: int):
        self.tokens = tokens
        self.index = 0
        self.end_pos = end_pos

    def peek(self) -> Token | None:
        if self.index < len(self.tokens):
            return self.tokens[self.index]
        return None

    def next(self) -> Token | None:
        tok = self.peek()
        if tok is not None:
            self.index += 1
        return tok

    def position(self) -> int:
        tok = self.peek()
        return tok.position if tok is not None else self.end_pos

    def expect_punct(self, lexeme: str) -> None:
        tok = self.peek()
        if tok is None or tok.kind != "punct" or tok.lexeme != lexeme:
            raise ParseError(self.position(), repr(lexeme))
        self.next()

    def at_punct(self, *lexemes: str) -> bool:
        tok = self.peek()
        return tok is not None and tok.kind == "punct" and tok.lexeme in lexemes


def _parse_level(stream: _Stream, declared_levels) -> str:
    tok = stream.peek()
    if tok is None or tok.kind not in ("ident", "ladder", "sigma-head"):
        raise ParseError(stream.position(), "level label")
    if tok.lexeme not in declared_levels:
        raise UnknownLevel(tok.lexeme)
    stream.next()
    return tok.lexeme


def _parse_factor(stream: _Stream, declared_levels) -> OperatorExpr:
    tok = stream.peek()
    if tok is None:
        raise ParseError(stream.position(), "factor")
    if stream.at_punct("("):
        stream.next()
        inner = _parse_expr(stream, declared_levels)
        stream.expect_punct(")")
        return inner
    if tok.kind == "ladder":
        stream.next()
        return OperatorExpr.create() if tok.lexeme == "ad" else OperatorExpr.annihilate()
    if tok.kind == "sigma-head":
        stream.next()
        stream.expect_punct("(")
        i = _parse_level(stream, declared_levels)
        stream.expect_punct(",")
        j = _parse_level(stream, declared_levels)
        stream.expect_punct(")")
        return OperatorExpr.sigma(i, j)
    if tok.kind == "number":
        stream.next()
        try:
            value = Fraction(tok.lexeme)
        except ValueError:
            raise ParseError(tok.position, "number") from None
        if stream.at_punct("/"):
            stream.next()
            den = stream.peek()
            if den is None or den.kind not in ("number", "ident"):
                raise ParseError(stream.position(), "denominator symbol or number")
            stream.next()
            if den.kind == "number":
                try:
                    d = Fraction(den.lexeme)
                except ValueError:
                    raise ParseError(den.position, "number") from None
                if d == 0:
                    raise ParseError(den.position, "nonzero denominator")
                return OperatorExpr.identity(Coefficient.make(value / d))
            return OperatorExpr.identity(Coefficient.make(value, den=(den.lexeme,)))
        return OperatorExpr.identity(Coefficient.make(value))
    if tok.kind == "ident":
        stream.next()
        if tok.lexeme == "i":
            return OperatorExpr.identity(Coefficient.i())
        if stream.at_punct("/"):
            stream.next()
            den = stream.peek()
            if den is None or den.kind != "ident":
                raise ParseError(stream.position(), "denominator symbol")
            stream.next()
            return OperatorExpr.identity(
                Coefficient.make(num=(tok.lexeme,), den=(den.lexeme,))
            )
        return OperatorExpr.identity(Coefficient.symbol(tok.lexeme))
    raise ParseError(tok.position, "coefficient, operator, or '('")


def _parse_term(stream: _Stream, declared_levels) -> OperatorExpr:
    result = _parse_factor(stream, declared_levels)
    while stream.at_punct("*"):
        stream.next()
        result = multiply(result, _parse_factor(stream, declared_levels))
    return result


def _parse_expr(stream: _Stream, declared_levels) -> OperatorExpr:
    negate = False
    if stream.at_punct("+", "-"):
        negate = stream.next().lexeme == "-"
    result = _parse_term(stream, declared_levels)
    if negate:
        result = scale(result, Coefficient.make(-1))
    while stream.at_punct("+", "-"):
        op = stream.next().lexeme
        term = _parse_term(stream, declared_levels)
        if op == "-":
            term = scale(term, Coefficient.make(-1))
        result = add(result, term)
    return result


def parse_operator_expr(text: str, declared_levels) -> OperatorExpr:
    """Parse an expression into canonical form.

    Raises IllegalCharacter, ParseError, or UnknownLevel; all carry a byte
    position inside the input.
    """
    tokens = tokenize(text)
    if not tokens:
        raise ParseError(0, "expression")
    stream = _Stream(tokens, end_pos=len(text.encode("utf-8")))
    result = _parse_expr(stream, declared_levels)
    if stream.peek() is not None:
        raise ParseError(stream.position(), "'+', '-', or end of input")
    return result
