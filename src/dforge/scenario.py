"""Line-oriented scenario configuration.

Schema (sections in square brackets, '#' starts a comment)::

    [levels]    comma/whitespace separated level labels, e.g.  g, r, e
    [channels]  one per line:  coupling_symbol : expression
    [params]    symbol = float   (angular frequencies, 1/s); must bind a
                nonzero "delta"
    [space]     n_max = int
    [state]     initial = level,n   or   level,coherent(alpha)
    [time]      t_end = float ; samples = int

Unknown sections are rejected, and so are a non-finite [params] value and
a zero detuning, which H_eff divides by; every channel shares that one
detuning.  No key = value section may repeat a key, and [space], [state] and
[time] take only the keys above ([params] may bind symbols no channel uses).
A line that is not of its section's form names the section and quotes the
line.  A value that does not read as its number, a digit-group underscore
(``1_5``) included, names its section and key, an error in a channel
expression, a zero one included, names its channel, and one in the initial
state names ``[state] initial``.  A coupling symbol must parse as itself
(one identifier but i, a, ad and sig), so printed output reparses, and must
not be the detuning symbol.  The lines ``sym : expr`` sum into the one drive
M = sum sym*expr (``Scenario.drive``), so a symbol may label several lines.
Every symbol used by a channel expression or as a coupling symbol must be
bound in [params].  The space and the time grid are built once and kept, so
their own range checks apply (``SpaceSpec``, ``TimeGrid``), naming [levels]
(checked before any channel), [space] n_max or [time]; the initial state is
checked against the space but kept as its descriptor, since building the
vector needs numpy (``Scenario.state``).
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from typing import NamedTuple

from ._lazy import np
from .algebra import Coefficient, OperatorExpr, scale
from .effective import DELTA
from .parsing import parse_operator_expr
from .spaces import SpaceSpec, build_state, parse_state, read_number

__all__ = ["Scenario", "TimeGrid", "parse_scenario"]

_SECTIONS = ("levels", "channels", "params", "space", "state", "time")


class TimeGrid(NamedTuple("TimeGrid", [("t_end", float), ("samples", int)])):
    __slots__ = ()

    def __new__(cls, t_end: float, samples: int):
        if not 0 < t_end < math.inf:
            raise ValueError(f"t_end must be positive and finite, got {t_end}")
        if samples < 2:
            raise ValueError("need at least two samples")
        return super().__new__(cls, t_end, samples)

    @property
    def times(self) -> np.ndarray:
        return np.linspace(0.0, self.t_end, self.samples)


class Scenario(NamedTuple):
    drive: OperatorExpr  # M = sum_k lam_k A_k over the [channels] lines
    params: dict[str, float]
    space: SpaceSpec
    grid: TimeGrid
    initial: str  # the checked state descriptor

    def detuning(self) -> float:
        """The bound detuning; a ValueError if it is missing or zero."""
        try:
            delta = float(self.params[DELTA])
        except KeyError:
            raise ValueError(f"parameter symbol {DELTA!r} has no numeric binding") from None
        if delta == 0:
            raise ValueError(
                f"detuning {DELTA!r} is zero; the dispersive expansion divides by it"
            )
        return delta

    def state(self) -> np.ndarray:
        """The initial state vector; ``build_state`` loads numpy to build it."""
        return build_state(self.initial, self.space)


def _strip(line: str) -> str:
    if "#" in line:
        line = line[: line.index("#")]
    return line.strip()


def _number(text: str, where: str, kind=float):
    """``read_number(text, kind)``; a ValueError that names ``where`` if it
    does not read."""
    try:
        return read_number(text, kind)
    except ValueError:
        noun = "an integer" if kind is int else "a number"
        raise ValueError(f"{where} is not {noun}") from None


@contextmanager
def _located(where: str):
    """Append `` in <where>`` to a ValueError raised inside the block."""
    try:
        yield
    except ValueError as exc:
        exc.args = (f"{exc} in {where}",)
        raise


def parse_scenario(config_text: str) -> Scenario:
    sections: dict[str, list[str]] = {}
    current: str | None = None
    for raw in config_text.splitlines():
        line = _strip(raw)
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            name = line[1:-1].strip()
            if name not in _SECTIONS:
                raise ValueError(f"unknown config section [{name}]")
            current = name
            sections.setdefault(name, [])
            continue
        if current is None:
            raise ValueError(f"{line!r} comes before the first section header")
        sections[current].append(line)

    for required in _SECTIONS:
        if required not in sections:
            raise ValueError(f"missing required config key '[{required}]'")

    levels = tuple(tok for line in sections["levels"] for tok in line.replace(",", " ").split())
    with _located("[levels]"):
        SpaceSpec(levels, 1)  # the level checks alone, before any channel names a level

    def kv(section: str, keys: tuple[str, ...] = ()) -> dict[str, str]:
        """The section's key = value lines; given ``keys``, exactly those keys."""
        out = {}
        for line in sections[section]:
            if "=" not in line:
                raise ValueError(f"[{section}] {line!r} is not a key = value line")
            key, _, value = line.partition("=")
            key = key.strip()
            if key in out:
                raise ValueError(f"[{section}] {key} is set twice")
            if keys and key not in keys:
                raise ValueError(f"[{section}] {key} is not one of {', '.join(keys)}")
            out[key] = value.strip()
        for key in keys:
            if key not in out:
                raise ValueError(f"missing required config key {key!r}")
        return out

    params_raw = kv("params")
    if DELTA not in params_raw:
        raise ValueError(f"missing required config key {DELTA!r}")
    params = {k: _number(v, f"[params] {k} = {v}") for k, v in params_raw.items()}
    for key, value in params.items():
        if not math.isfinite(value):
            raise ValueError(f"[params] {key} = {value} is not finite")

    terms = []
    used_symbols: set[str] = set()
    for line in sections["channels"]:
        if ":" not in line:
            raise ValueError(f"[channels] {line!r} is not a symbol : expression line")
        sym, _, expr_text = line.partition(":")
        sym = sym.strip()
        try:
            lam = parse_operator_expr(sym, levels)
        except ValueError:
            lam = None
        if lam != OperatorExpr.identity(Coefficient.symbol(sym)):
            raise ValueError(
                f"[channels] coupling symbol {sym!r} is not one identifier "
                "other than i, a, ad and sig"
            )
        if sym == DELTA:
            raise ValueError(f"detuning symbol {DELTA!r} collides with a coupling symbol")
        with _located(f"[channels] {sym}"):
            expr = parse_operator_expr(expr_text.strip(), levels)
            if expr.is_zero():
                raise ValueError("channel operator must be nonzero")
        terms.extend(scale(expr, Coefficient.symbol(sym)).terms)
        used_symbols.add(sym)
        used_symbols.update(expr.symbols())
    if not terms:
        raise ValueError("missing required config key 'channels'")

    for sym in sorted(used_symbols):
        if sym not in params:
            raise ValueError(f"parameter symbol {sym!r} has no numeric binding")

    space_kv = kv("space", ("n_max",))
    n_max = _number(space_kv["n_max"], f"[space] n_max = {space_kv['n_max']}", int)
    state_kv = kv("state", ("initial",))
    time_kv = kv("time", ("t_end", "samples"))

    t_end = _number(time_kv["t_end"], f"[time] t_end = {time_kv['t_end']}")
    samples = _number(time_kv["samples"], f"[time] samples = {time_kv['samples']}", int)
    with _located("[time]"):
        grid = TimeGrid(t_end, samples)
    with _located("[space] n_max"):
        space = SpaceSpec(levels, n_max)
    with _located("[state] initial"):
        parse_state(state_kv["initial"], space)
    scenario = Scenario(
        OperatorExpr.from_monomials(terms), params, space, grid, state_kv["initial"]
    )
    scenario.detuning()  # rejects a zero detuning
    return scenario
