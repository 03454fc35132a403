"""Canonical-form symbolic algebra for atomic transition and bosonic ladder operators.

An expression is a sum of terms, each one flat record ``Monomial(coeff, pair,
creators, annihilators)`` for ``coeff * sig(pair) * ad^creators *
a^annihilators`` (a ``pair`` of None is the atomic identity).  The bosonic part
is always stored normal-ordered (creators left of annihilators), atomic
products are contracted with ``sig(i,j)*sig(k,l) = delta_jk sig(i,l)``, and
like terms are merged, so two expressions represent the same operator exactly
when their stored forms compare equal.

Coefficients are exact: a Gaussian rational scalar (int parts, or the
``Fraction`` that ``parsing`` reads from a literal that needs one) times a
monomial in parameter symbols, with an optional symbol denominator.  No
floating point enters until an expression is realized as a matrix.
"""

from __future__ import annotations

from math import comb, factorial, inf, isfinite
from numbers import Rational
from typing import Iterable, Mapping, NamedTuple

__all__ = [
    "Coefficient",
    "Monomial",
    "OperatorExpr",
    "multiply",
    "add",
    "scale",
    "adjoint",
    "commutator",
    "project_out_level",
    "pretty",
]


class Coefficient(NamedTuple):
    """Exact scalar: (re + i*im) * prod(num) / prod(den).

    All parameter symbols are taken to be real, so conjugation only flips the
    sign of ``im``.  A symbol never appears in both ``num`` and ``den``;
    common factors are cancelled on multiplication.
    """

    re: Rational = 1
    im: Rational = 0
    num: tuple[str, ...] = ()
    den: tuple[str, ...] = ()

    @staticmethod
    def make(re=1, im=0, num: Iterable[str] = (), den: Iterable[str] = ()) -> "Coefficient":
        if not (isinstance(re, Rational) and isinstance(im, Rational)):
            raise TypeError(f"cannot use {re!r} + {im!r}i as an exact rational scalar")
        num = list(num)
        den = list(den)
        if re == 0 and im == 0:
            return Coefficient(0, 0, (), ())
        # cancel common symbols (multiset difference)
        for s in list(num):
            if s in den:
                num.remove(s)
                den.remove(s)
        return Coefficient(re, im, tuple(sorted(num)), tuple(sorted(den)))

    @staticmethod
    def i() -> "Coefficient":
        return Coefficient(0, 1)

    @staticmethod
    def symbol(name: str) -> "Coefficient":
        return Coefficient(num=(name,))

    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0

    def mul(self, other: "Coefficient") -> "Coefficient":
        re = self.re * other.re - self.im * other.im
        im = self.re * other.im + self.im * other.re
        return Coefficient.make(re, im, self.num + other.num, self.den + other.den)

    def add(self, other: "Coefficient") -> "Coefficient":
        # from_monomials adds only nonzero terms of one signature to a sum
        # that may have canceled to a zero without symbols
        if self.is_zero():
            return other
        return Coefficient.make(self.re + other.re, self.im + other.im, self.num, self.den)

    def conj(self) -> "Coefficient":
        return Coefficient.make(self.re, -self.im, self.num, self.den)

    def evaluate(self, params: Mapping[str, float]) -> complex:
        """The value at ``params``; ValueError when it is not finite in double precision."""
        # divide as it goes, a numerator symbol by a denominator one, so
        # g*g/d is finite whenever its value is
        pairs = min(len(self.num), len(self.den))
        try:
            value = complex(float(self.re), float(self.im))
            for n, d in zip(self.num, self.den):
                value *= params[n] / params[d]
            for s in self.num[pairs:]:
                value *= params[s]
            for s in self.den[pairs:]:
                value /= params[s]
        except KeyError as exc:
            raise ValueError(f"parameter symbol {exc.args[0]!r} has no numeric binding") from None
        except (OverflowError, ZeroDivisionError):
            value = complex(inf)
        if not (isfinite(value.real) and isfinite(value.imag)):
            raise ValueError(f"coefficient {_message_str(self)} is not finite in double precision")
        return value


class Monomial(NamedTuple):
    """One term ``coeff * sig(pair) * ad^creators * a^annihilators``; a
    ``pair`` of None is the atomic identity."""

    coeff: Coefficient
    pair: tuple[str, str] | None = None
    creators: int = 0
    annihilators: int = 0

    @property
    def merge_key(self):
        # () sorts before every (i, j): the identity atom comes first
        return (
            self.pair or (),
            self.creators + self.annihilators,
            self.creators,
            (self.coeff.num, self.coeff.den),
        )


class OperatorExpr(NamedTuple):
    """Canonical sum of monomials; the unique stored form of an operator."""

    terms: tuple[Monomial, ...] = ()

    # -- constructors -------------------------------------------------------

    @staticmethod
    def from_monomials(monomials: Iterable[Monomial]) -> "OperatorExpr":
        merged: dict = {}
        for m in monomials:
            if m.coeff.is_zero():
                continue
            key = m.merge_key
            if key in merged:
                merged[key] = m._replace(coeff=merged[key].coeff.add(m.coeff))
            else:
                merged[key] = m
        terms = tuple(
            merged[k] for k in sorted(merged) if not merged[k].coeff.is_zero()
        )
        return OperatorExpr(terms)

    @staticmethod
    def identity(coeff: Coefficient = Coefficient()) -> "OperatorExpr":
        return OperatorExpr.from_monomials([Monomial(coeff)])

    # one nonzero term is already canonical
    @staticmethod
    def sigma(i: str, j: str) -> "OperatorExpr":
        return OperatorExpr((Monomial(Coefficient(), (i, j)),))

    @staticmethod
    def create() -> "OperatorExpr":
        return OperatorExpr((Monomial(Coefficient(), creators=1),))

    @staticmethod
    def annihilate() -> "OperatorExpr":
        return OperatorExpr((Monomial(Coefficient(), annihilators=1),))

    # -- convenience arithmetic --------------------------------------------

    def __add__(self, other: "OperatorExpr") -> "OperatorExpr":
        return add(self, other)

    def __mul__(self, other):
        if isinstance(other, OperatorExpr):
            return multiply(self, other)
        if isinstance(other, Coefficient):
            return scale(self, other)
        if isinstance(other, Rational):
            return scale(self, Coefficient.make(other))
        return NotImplemented

    __rmul__ = __mul__

    def __neg__(self) -> "OperatorExpr":
        return scale(self, Coefficient.make(-1))

    def is_zero(self) -> bool:
        return not self.terms

    def symbols(self) -> set[str]:
        out: set[str] = set()
        for m in self.terms:
            out.update(m.coeff.num)
            out.update(m.coeff.den)
        return out

    def max_boson_degree(self) -> int:
        return max((m.creators + m.annihilators for m in self.terms), default=0)


# -- operations -------------------------------------------------------------


def multiply(x: OperatorExpr, y: OperatorExpr) -> OperatorExpr:
    """Canonical form of the operator product X*Y.

    Atoms contract as sig(i,j)*sig(k,l) = delta_jk sig(i,l), and the ladder
    part is normal-ordered with a^n ad^p = sum_k k! C(n,k) C(p,k) ad^(p-k) a^(n-k).
    """
    out: list[Monomial] = []
    for mx in x.terms:
        for my in y.terms:
            if mx.pair is None or my.pair is None:
                pair = mx.pair or my.pair
            elif mx.pair[1] == my.pair[0]:
                pair = (mx.pair[0], my.pair[1])
            else:
                continue
            coeff = mx.coeff.mul(my.coeff)
            n, p = mx.annihilators, my.creators
            for k in range(min(n, p) + 1):
                c = coeff.mul(Coefficient.make(factorial(k) * comb(n, k) * comb(p, k)))
                out.append(Monomial(c, pair, mx.creators + p - k, n + my.annihilators - k))
    return OperatorExpr.from_monomials(out)


def add(x: OperatorExpr, y: OperatorExpr) -> OperatorExpr:
    return OperatorExpr.from_monomials(x.terms + y.terms)


def scale(x: OperatorExpr, c: Coefficient) -> OperatorExpr:
    return OperatorExpr.from_monomials(m._replace(coeff=m.coeff.mul(c)) for m in x.terms)


def adjoint(x: OperatorExpr) -> OperatorExpr:
    # (c sig(i,j) ad^m a^n)^dag = c* sig(j,i) ad^n a^m, already normal-ordered
    return OperatorExpr.from_monomials(
        Monomial(m.coeff.conj(), m.pair and m.pair[::-1], m.annihilators, m.creators)
        for m in x.terms
    )


def commutator(x: OperatorExpr, y: OperatorExpr) -> OperatorExpr:
    return add(multiply(x, y), scale(multiply(y, x), Coefficient.make(-1)))


def project_out_level(x: OperatorExpr, level: str) -> OperatorExpr:
    """Drop sigma(level,level) monomials; error if off-diagonal terms remain.

    Eliminating an intermediate level is only consistent when nothing couples
    in or out of it at this order, so surviving sigma(i,level)/sigma(level,i)
    terms are rejected rather than silently removed.
    """
    kept: list[Monomial] = []
    for m in x.terms:
        if m.pair == (level, level):
            continue
        if m.pair is not None and level in m.pair:
            raise ValueError(
                f"off-diagonal terms involving level {level!r} survive projection; "
                "the level does not decouple at second order"
            )
        kept.append(m)
    return OperatorExpr.from_monomials(kept)


# -- pretty printer ---------------------------------------------------------


def _rounded_str(r: Rational) -> str:
    # four significant digits however large r is, for messages; never reparsed
    from decimal import Context

    return f"{Context(prec=4).divide(r.numerator, r.denominator).normalize():g}"


def _message_str(c: Coefficient) -> str:
    sign, factors = _coeff_factors(c, False, _rounded_str)
    return "-" * (sign < 0) + "*".join(factors)


def _coeff_factors(c: Coefficient, has_op_factors: bool, number=str) -> tuple[int, list[str]]:
    """Split a coefficient into (sign, factors), each rational written by ``number``."""
    re, im = c.re, c.im
    factors: list[str] = []
    if im == 0:
        sign = -1 if re < 0 else 1
        mag = abs(re)
        if mag != 1 or (not c.num and not c.den and not has_op_factors):
            factors.append(number(mag))
    elif re == 0:
        sign = -1 if im < 0 else 1
        mag = abs(im)
        if mag != 1:
            factors.append(number(mag))
        factors.append("i")
    else:
        sign = 1
        op = "-" if im < 0 else "+"
        factors.append(f"({number(re)} {op} {number(abs(im))}*i)")
    factors.extend(c.num)
    # distribute denominator symbols, rightmost factors first ("g1*g2/delta")
    slots = [
        i
        for i, f in enumerate(factors)
        if "/" not in f and f != "i" and not f.startswith("(")
    ]
    dens = list(c.den)
    for i in reversed(slots):
        if not dens:
            break
        factors[i] = factors[i] + "/" + dens.pop(0)
    for d in dens:
        factors.append("1/" + d)
    return sign, factors


def _monomial_str(m: Monomial) -> tuple[int, str]:
    has_op = m.pair is not None or m.creators + m.annihilators > 0
    try:
        sign, factors = _coeff_factors(m.coeff, has_op)
    except ValueError:  # str() refuses an int of more than 4300 digits
        text = _message_str(m.coeff)
        raise ValueError(f"coefficient {text} has too many digits to print") from None
    if m.pair is not None:
        i, j = m.pair
        factors.append(f"sig({i},{j})")
    factors.extend(["ad"] * m.creators)
    factors.extend(["a"] * m.annihilators)
    return sign, "*".join(factors)


def pretty(x: OperatorExpr) -> str:
    """Normalized text form; reparses to an equal expression.  A scalar of
    more than 4300 digits, which str() refuses, is a ValueError naming it."""
    if not x.terms:
        return "0"
    pieces: list[str] = []
    for idx, m in enumerate(x.terms):
        sign, body = _monomial_str(m)
        if idx == 0:
            pieces.append(("-" if sign < 0 else "") + body)
        else:
            pieces.append(("- " if sign < 0 else "+ ") + body)
    return " ".join(pieces)
