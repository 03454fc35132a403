"""An independent numpy model of the driven atom-cavity system.

Nothing here imports dforge.  The benchmark reads the scenario configs with
its own small reader, builds sigma(i,j) and the truncated annihilator a from
scratch, and uses these matrices to judge what the dforge CLI prints:

* ``effective_matrix`` is sum_{j,k} lam_j lam_k / delta [A_j, A_k^dag];
* ``realize_printed`` turns the ``H_eff = ...`` text that ``dforge derive``
  prints back into a matrix;
* ``full_reference`` integrates i dpsi/dt = (e^{i delta t} M + h.c.) psi with
  scipy's DOP853, and ``effective_reference`` applies expm(-i H_eff t).

The basis is level-major, Fock-minor, as in the program, but no result here
depends on that choice: only populations, photon numbers, fidelities and
matrices built on both sides by this module are compared.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Config:
    levels: tuple[str, ...]
    channels: tuple[tuple[str, str], ...]  # (coupling symbol, operator text)
    params: dict
    n_max: int
    initial: str
    t_end: float
    samples: int

    @property
    def delta(self) -> float:
        return self.params["delta"]

    @property
    def times(self) -> np.ndarray:
        return np.linspace(0.0, self.t_end, self.samples)


def read_config(text: str) -> Config:
    """Read the INI-like scenario format: sections, '#' comments, k = v lines."""
    sections: dict[str, list[str]] = {}
    current = None
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("["):
            current = line.strip("[]").strip()
            sections[current] = []
        else:
            sections[current].append(line)

    def kv(name):
        return {k.strip(): v.strip() for k, _, v in (s.partition("=") for s in sections[name])}

    levels = tuple(" ".join(sections["levels"]).replace(",", " ").split())
    channels = []
    for line in sections["channels"]:
        sym, _, op = line.partition(":")
        channels.append((sym.strip(), op.split("@", 1)[0].strip()))
    time_kv = kv("time")
    return Config(
        levels=levels,
        channels=tuple(channels),
        params={k: float(v) for k, v in kv("params").items()},
        n_max=int(kv("space")["n_max"]),
        initial=kv("state")["initial"],
        t_end=float(time_kv["t_end"]),
        samples=int(time_kv["samples"]),
    )


def annihilator(fock_dim: int) -> np.ndarray:
    return np.diag(np.sqrt(np.arange(1.0, fock_dim)), k=1).astype(complex)


def _factor_matrix(factor: str, levels, fock_dim: int) -> np.ndarray:
    """Matrix of one factor: sig(i,j), a, ad, or a plain number."""
    nlev = len(levels)
    if factor.startswith("sig("):
        i, j = (s.strip() for s in factor[4:-1].split(","))
        atom = np.zeros((nlev, nlev), dtype=complex)
        atom[levels.index(i), levels.index(j)] = 1.0
        return np.kron(atom, np.eye(fock_dim))
    if factor in ("a", "ad"):
        a = annihilator(fock_dim)
        return np.kron(np.eye(nlev), a if factor == "a" else a.T)
    return float(factor) * np.eye(nlev * fock_dim, dtype=complex)


def operator_matrix(text: str, levels, fock_dim: int) -> np.ndarray:
    """Matrix of a channel operator: '+'-separated products of factors."""
    total = np.zeros((len(levels) * fock_dim,) * 2, dtype=complex)
    for term in text.split("+"):
        mat = np.eye(len(levels) * fock_dim, dtype=complex)
        for factor in term.split("*"):
            mat = mat @ _factor_matrix(factor.strip(), levels, fock_dim)
        total += mat
    return total


def coupling_matrix(cfg: Config, fock_dim: int) -> np.ndarray:
    """M = sum_k lam_k A_k."""
    return sum(
        cfg.params[sym] * operator_matrix(op, cfg.levels, fock_dim) for sym, op in cfg.channels
    )


def effective_matrix(cfg: Config, fock_dim: int) -> np.ndarray:
    """sum_{j,k} lam_j lam_k / delta [A_j, A_k^dag].

    With B = sum_k lam_k A_k the double sum is [B, B^dag] / delta.
    """
    b = coupling_matrix(cfg, fock_dim)
    bd = b.conj().T
    return (b @ bd - bd @ b) / cfg.delta


def untouched_indices(cfg: Config, degree: int) -> np.ndarray:
    """Basis indices whose Fock number is at most n_max - degree.

    A product of truncated matrices that raises and lowers by at most
    ``degree`` quanta is exact on these rows and columns.
    """
    fd = cfg.n_max + 1
    return np.array(
        [lv * fd + n for lv in range(len(cfg.levels)) for n in range(fd - degree)]
    )


_TERM_SPLIT = re.compile(r"\s([+-])\s")


def realize_printed(text: str, cfg: Config, fock_dim: int) -> np.ndarray:
    """Matrix of a pretty-printed expression such as
    ``g1*g2/delta*sig(e,g)*a*a - 2*Omega/delta*sig(g,g)``.

    Each term is a product of factors; a factor is a number, a parameter
    symbol, ``sig(i,j)``, ``a`` or ``ad``, and numbers and symbols may carry
    ``/divisor`` suffixes.  Complex coefficients are not supported (real
    channels give real coefficients) and raise ValueError.
    """
    nlev = len(cfg.levels)
    dim = nlev * fock_dim
    a = annihilator(fock_dim)
    out = np.zeros((dim, dim), dtype=complex)
    pieces = _TERM_SPLIT.split(text.strip())
    signed = [(-1.0 if pieces[0].startswith("-") else 1.0, pieces[0].lstrip("-"))]
    signed += [(-1.0 if s == "-" else 1.0, t) for s, t in zip(pieces[1::2], pieces[2::2])]
    for sign, term in signed:
        coeff = sign
        atom = None
        boson = np.eye(fock_dim, dtype=complex)
        for factor in term.split("*"):
            if factor.startswith("sig("):
                i, j = factor[4:-1].split(",")
                atom = (cfg.levels.index(i), cfg.levels.index(j))
            elif factor == "a":
                boson = boson @ a
            elif factor == "ad":
                boson = boson @ a.T
            elif factor == "i" or factor.startswith("("):
                raise ValueError(f"complex coefficient in {term!r}")
            else:
                head, *divisors = factor.split("/")
                coeff *= _scalar(head, cfg.params)
                for d in divisors:
                    coeff /= _scalar(d, cfg.params)
        for li, lj in [(k, k) for k in range(nlev)] if atom is None else [atom]:
            out[li * fock_dim:(li + 1) * fock_dim, lj * fock_dim:(lj + 1) * fock_dim] += (
                coeff * boson
            )
    return out


def _scalar(token: str, params: dict) -> float:
    if token[0].isdigit():
        return float(token)
    return params[token]


def initial_state(cfg: Config) -> np.ndarray:
    """|level, n> for the 'level,n' descriptors the workloads use."""
    label, n = (s.strip() for s in cfg.initial.split(","))
    psi = np.zeros(len(cfg.levels) * (cfg.n_max + 1), dtype=complex)
    psi[cfg.levels.index(label) * (cfg.n_max + 1) + int(n)] = 1.0
    return psi


def observables(states: np.ndarray, cfg: Config) -> dict[str, np.ndarray]:
    """Level populations P_<level> and the mean photon number n_mean."""
    fd = cfg.n_max + 1
    probs = (np.abs(states) ** 2).reshape(len(states), len(cfg.levels), fd)
    out = {f"P_{lv}": probs[:, k, :].sum(axis=1) for k, lv in enumerate(cfg.levels)}
    out["n_mean"] = probs.sum(axis=1) @ np.arange(fd)
    return out


def full_reference(cfg: Config, times: np.ndarray) -> np.ndarray:
    """States under H(t) = e^{i delta t} M + h.c., by DOP853 at rtol 1e-10."""
    from scipy.integrate import solve_ivp

    m = coupling_matrix(cfg, cfg.n_max + 1)
    md = m.conj().T
    delta = cfg.delta

    def rhs(t, psi):
        z = complex(math.cos(delta * t), math.sin(delta * t))
        return -1j * (z * (m @ psi) + z.conjugate() * (md @ psi))

    sol = solve_ivp(
        rhs, (0.0, float(times[-1])), initial_state(cfg), method="DOP853",
        t_eval=times, rtol=1e-10, atol=1e-12,
    )
    if not sol.success:
        raise RuntimeError(sol.message)
    return sol.y.T


def effective_reference(cfg: Config, times: np.ndarray) -> np.ndarray:
    """States expm(-i H_eff t) psi0 with H_eff from ``effective_matrix``."""
    from scipy.linalg import expm

    h = effective_matrix(cfg, cfg.n_max + 1)
    psi0 = initial_state(cfg)
    return np.array([expm(-1j * h * t) @ psi0 for t in times])


def reference_run(cfg: Config, times: np.ndarray | None = None) -> dict:
    """Observables of the full reference, and its fidelity to the effective one."""
    times = cfg.times if times is None else times
    full = full_reference(cfg, times)
    eff = effective_reference(cfg, times)
    out = {"t": times}
    out.update(observables(full, cfg))
    out["fidelity"] = np.abs(np.einsum("ij,ij->i", eff.conj(), full)) ** 2
    out["n_peak_eff"] = float(np.max(observables(eff, cfg)["n_mean"]))
    return out
