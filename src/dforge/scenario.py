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
A value that does not read as its number, a digit-group underscore
(``1_5``) included, names its section and key, an
error in a channel expression names its channel, and one in the initial
state names ``[state] initial``.  A coupling symbol must
parse as itself (one identifier but i, a, ad and sig), so printed output
reparses.  Every symbol used by a channel expression or as a coupling symbol
must be bound in [params].  The space and the time grid are built once and
kept, so their own range checks apply (``SpaceSpec``, ``TimeGrid``); the
initial state is checked against the space but kept as its descriptor, since
building the vector needs numpy (``Scenario.state``).
"""

from __future__ import annotations

import math
from typing import NamedTuple

from ._lazy import np
from .algebra import Coefficient, OperatorExpr
from .effective import Channel, ChannelSpec
from .errors import (
    DforgeError,
    MissingKey,
    ParseError,
    UnboundParameter,
    UnknownSection,
    ZeroDetuning,
)
from .parsing import parse_operator_expr
from .spaces import SpaceSpec, build_state, parse_state, read_number

__all__ = ["Scenario", "TimeGrid", "parse_scenario"]

_SECTIONS = ("levels", "channels", "params", "space", "state", "time")

#: config key carrying the common detuning (also its symbol name in expressions)
DELTA_KEY = "delta"


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
    spec: ChannelSpec
    params: dict[str, float]
    space: SpaceSpec
    grid: TimeGrid
    initial: str  # the checked state descriptor

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
                raise UnknownSection(name)
            current = name
            sections.setdefault(name, [])
            continue
        if current is None:
            raise ParseError(0, "section header before content")
        sections[current].append(line)

    for required in _SECTIONS:
        if required not in sections:
            raise MissingKey(f"[{required}]")

    levels: list[str] = []
    for line in sections["levels"]:
        for tok in line.replace(",", " ").split():
            levels.append(tok)

    def kv(section: str, keys: tuple[str, ...] = ()) -> dict[str, str]:
        """The section's key = value lines; given ``keys``, exactly those keys."""
        out = {}
        for line in sections[section]:
            if "=" not in line:
                raise ParseError(0, f"key=value line in [{section}]")
            key, _, value = line.partition("=")
            key = key.strip()
            if key in out:
                raise ValueError(f"[{section}] {key} is set twice")
            if keys and key not in keys:
                raise ValueError(f"[{section}] {key} is not one of {', '.join(keys)}")
            out[key] = value.strip()
        for key in keys:
            if key not in out:
                raise MissingKey(key)
        return out

    params_raw = kv("params")
    if DELTA_KEY not in params_raw:
        raise MissingKey(DELTA_KEY)
    params = {k: _number(v, f"[params] {k} = {v}") for k, v in params_raw.items()}
    for key, value in params.items():
        if not math.isfinite(value):
            raise ValueError(f"[params] {key} = {value} is not finite")
    if params[DELTA_KEY] == 0:
        raise ZeroDetuning(DELTA_KEY)

    channels: list[Channel] = []
    used_symbols: set[str] = set()
    for line in sections["channels"]:
        if ":" not in line:
            raise ParseError(0, "'symbol : expression' line in [channels]")
        sym, _, expr_text = line.partition(":")
        sym = sym.strip()
        try:
            lam = parse_operator_expr(sym, levels)
        except DforgeError:
            lam = None
        if lam != OperatorExpr.identity(Coefficient.symbol(sym)):
            raise ValueError(
                f"[channels] coupling symbol {sym!r} is not one identifier "
                "other than i, a, ad and sig"
            )
        try:
            expr = parse_operator_expr(expr_text.strip(), levels)
        except DforgeError as exc:
            exc.args = (f"{exc} in [channels] {sym}",)
            raise
        channels.append(Channel.from_symbol(sym, expr))
        used_symbols.add(sym)
        used_symbols.update(expr.symbols())
    if not channels:
        raise MissingKey("channels")

    for sym in sorted(used_symbols):
        if sym not in params:
            raise UnboundParameter(sym)

    space_kv = kv("space", ("n_max",))
    n_max = _number(space_kv["n_max"], f"[space] n_max = {space_kv['n_max']}", int)
    state_kv = kv("state", ("initial",))
    time_kv = kv("time", ("t_end", "samples"))

    spec = ChannelSpec(channels=tuple(channels), delta=DELTA_KEY)
    grid = TimeGrid(
        _number(time_kv["t_end"], f"[time] t_end = {time_kv['t_end']}"),
        _number(time_kv["samples"], f"[time] samples = {time_kv['samples']}", int),
    )
    space = SpaceSpec(levels=tuple(levels), n_max=n_max)
    try:
        parse_state(state_kv["initial"], space)
    except ValueError as exc:
        exc.args = (f"{exc} in [state] initial",)
        raise
    return Scenario(spec, params, space, grid, state_kv["initial"])
