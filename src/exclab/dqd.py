"""Double-quantum-dot rate matrices from physical parameters.

State ordering is fixed as (00, 10, 01, 11): both dots empty, left occupied,
right occupied, both occupied.  The Coulomb-blockade variant drops state 11.
All energies and rates are in MHz with k_B = hbar = e = 1, and the bias
enters through mu_L = -vsd/2, mu_R = +vsd/2.

The model is one table, :data:`LEAD_JUMPS`, of the jumps in which an
electron enters a dot from a lead: the rates (:func:`build_model`) and the
transport and entropy weights (:mod:`exclab.observables`) are read off it.

One gate voltage ``vg`` sets both dots' levels, as in the Coulomb
diamond.  Gate and bias voltages may be equal-shape arrays: the parameters
then describe a batch of points, and :func:`build_model` returns stacked
rate matrices of shape (..., n, n).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .markov import RateMatrix, validate_rate_matrix

__all__ = [
    "DqdParams",
    "FermiSet",
    "fermi",
    "fermi_pair",
    "effective_coupling",
    "build_model",
    "LEAD_JUMPS",
    "LABELS_4",
]

LABELS_4 = ("00", "10", "01", "11")

# (to, from, lead, shifted): an electron enters the dot of ``lead``, and the
# reverse jump returns it; ``to`` is the fuller state, ``shifted`` uses f_u.
LEAD_JUMPS = (
    (1, 0, "L", False),  # 10 <- 00
    (2, 0, "R", False),  # 01 <- 00
    (3, 1, "R", True),   # 11 <- 10
    (3, 2, "L", True),   # 11 <- 01
)


@dataclass(frozen=True)
class DqdParams:
    """Physical parameters of the double-dot transport model (MHz units).

    ``vg`` is the gate voltage of both dots.  The voltages may be
    equal-shape arrays, one entry per point of a batch.
    """

    g: float
    gamma: float
    temperature: float
    u: float
    vsd: float
    vg: float
    blockade: bool = False

    def __post_init__(self):
        for name in ("g", "gamma", "temperature", "u", "vsd", "vg"):
            v = getattr(self, name)
            if not (np.isfinite(v).all() if isinstance(v, np.ndarray)
                    else math.isfinite(v)):
                raise ValueError(f"{name} must be finite")
        if self.g <= 0 or self.gamma <= 0 or self.temperature <= 0:
            raise ValueError("g, gamma and temperature must be positive")
        if self.u < 0:
            raise ValueError("u must be nonnegative")

    @property
    def n_states(self) -> int:
        """4, or 3 for the blockade model, which drops state 11."""
        return 3 if self.blockade else 4

    @cached_property
    def batch_shape(self) -> tuple[int, ...]:
        """Shape of the batch of points; () for a single point.  Formed on
        first use and cached, as the params are frozen."""
        return np.broadcast_shapes(np.shape(self.vg), np.shape(self.vsd))

    @property
    def mu_left(self) -> float:
        return -self.vsd / 2.0

    @property
    def mu_right(self) -> float:
        return self.vsd / 2.0

    @cached_property
    def occupations(self) -> FermiSet:
        """Bare and Coulomb-shifted lead occupations and their complements,
        evaluated on first use from the voltages as they are then and
        cached; batch arrays are read-only."""
        levels = ((self.vg, self.mu_left), (self.vg, self.mu_right),
                  (self.vg + self.u, self.mu_left), (self.vg + self.u, self.mu_right))
        f, c = zip(*(fermi_pair(e, mu, self.temperature) for e, mu in levels))
        for v in f + c:
            if isinstance(v, np.ndarray):
                v.flags.writeable = False
        return FermiSet(*f, *c)


@dataclass(frozen=True)
class FermiSet:
    """Lead occupations f, bare and Coulomb-shifted (f_u) for each side,
    and their complements c = 1 - f, each pair from :func:`fermi_pair`."""

    f_left: float
    f_right: float
    f_left_u: float
    f_right_u: float
    c_left: float
    c_right: float
    c_left_u: float
    c_right_u: float

    def pair(self, lead: str, shifted: bool = False):
        """(f, 1 - f) of lead ``"L"`` or ``"R"``, bare or shifted."""
        side = ("_left" if lead == "L" else "_right") + "_u" * shifted
        return getattr(self, "f" + side), getattr(self, "c" + side)


def fermi(energy, mu, temperature):
    """Fermi occupation 1 / (exp((energy - mu) / T) + 1), overflow safe;
    the first half of :func:`fermi_pair`."""
    return fermi_pair(energy, mu, temperature)[0]


def fermi_pair(energy, mu, temperature):
    """The Fermi occupation f at x = (energy - mu) / T and its complement,
    from one exponential: with e = exp(-|x|) the pair is e / (1 + e) and
    1 / (1 + e) in the order the sign of x gives.  The complement is f at
    -x, bit-equal to ``fermi(mu, energy, T)``, and neither value is a
    rounded difference, so the smaller one keeps full relative precision.

    Elementwise over arrays.  The exponential is the C library's
    ``math.exp``: numpy's vectorised ``exp`` can differ in the last bit.
    """
    x = (energy - mu) / temperature
    if not isinstance(x, np.ndarray):
        e = math.exp(-abs(x))
        small, large = e / (1.0 + e), 1.0 / (1.0 + e)
        return (small, large) if x >= 0.0 else (large, small)
    e = np.fromiter(map(math.exp, (-np.abs(x)).ravel().tolist()), float, x.size)
    e = e.reshape(x.shape)
    small, large = e / (1.0 + e), 1.0 / (1.0 + e)
    return np.where(x >= 0.0, small, large), np.where(x >= 0.0, large, small)


def effective_coupling(g: float, gamma: float) -> float:
    """Inter-dot hopping rate 2 g^2 gamma / gamma^2 of two dots at one gate
    voltage; not reduced to 2 g^2 / gamma, which rounds differently."""
    return 2.0 * g * g * gamma / (gamma * gamma)


def lead_log_ratio(p: DqdParams, side: str, shifted: bool = False) -> float:
    """log((1 - f)/f) for one lead occupation, evaluated in closed form as
    (energy - mu)/T; avoids the 1 - f cancellation for occupations near 1."""
    if side == "L":
        mu = p.mu_left
    elif side == "R":
        mu = p.mu_right
    else:
        raise ValueError("side must be 'L' or 'R'")
    energy = p.vg + p.u if shifted else p.vg
    return (energy - mu) / p.temperature


def lead_jumps(n: int) -> list[tuple[int, int, str, bool]]:
    """The entries of :data:`LEAD_JUMPS` among the first ``n`` states."""
    return [jump for jump in LEAD_JUMPS if jump[0] < n]


def build_model(p: DqdParams) -> RateMatrix:
    """Rate matrix over (00, 10, 01, 11), or (00, 10, 01) when ``p.blockade``
    drops state 11: gamma times the occupation on each jump of
    :data:`LEAD_JUMPS`, gamma times its cached complement on the reverse,
    and the effective coupling between 10 and 01."""
    n = p.n_states
    f = p.occupations
    gam = p.gamma
    w = np.zeros(p.batch_shape + (n, n))
    for to, frm, lead, shifted in lead_jumps(n):
        occ, empty = f.pair(lead, shifted)
        w[..., to, frm] = gam * occ
        w[..., frm, to] = gam * empty
    w[..., 1, 2] = w[..., 2, 1] = effective_coupling(p.g, gam)
    return validate_rate_matrix(w, labels=LABELS_4[:n])
