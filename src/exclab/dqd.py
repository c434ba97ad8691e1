"""Double-quantum-dot rate matrices from physical parameters.

State ordering is fixed as (00, 10, 01, 11): both dots empty, left occupied,
right occupied, both occupied.  The Coulomb-blockade variant drops state 11.
All energies and rates are in MHz with k_B = hbar = e = 1, and the bias
enters through mu_L = -vsd/2, mu_R = +vsd/2.

Gate and bias voltages may be equal-shape arrays: the parameters then
describe a batch of points, and the builders return stacked rate matrices
of shape (..., n, n).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DegenerateFermi, raise_first
from .markov import RateMatrix, validate_rate_matrix

__all__ = [
    "DqdParams",
    "FermiSet",
    "fermi",
    "effective_coupling",
    "fermi_set",
    "build_dqd",
    "build_dqd_blockade",
    "LABELS_4",
    "LABELS_3",
]

LABELS_4 = ("00", "10", "01", "11")
LABELS_3 = ("00", "10", "01")


@dataclass(frozen=True)
class DqdParams:
    """Physical parameters of the double-dot transport model (MHz units).

    ``vg`` sets a common gate voltage for both dots; pass ``vg_left`` and
    ``vg_right`` instead to detune them (used for the effective-coupling
    formula, the transport results assume equal gates).  The voltages may
    be equal-shape arrays, one entry per point of a batch.
    """

    g: float
    gamma: float
    temperature: float
    u: float
    vsd: float
    vg: float | None = None
    vg_left: float | None = None
    vg_right: float | None = None
    blockade: bool = False

    def __post_init__(self):
        if self.g <= 0 or self.gamma <= 0 or self.temperature <= 0:
            raise ValueError("g, gamma and temperature must be positive")
        if self.u < 0:
            raise ValueError("u must be nonnegative")
        if self.vg is None and (self.vg_left is None or self.vg_right is None):
            raise ValueError("provide vg, or both vg_left and vg_right")
        if self.vg_left is None:
            object.__setattr__(self, "vg_left", self.vg)
        if self.vg_right is None:
            object.__setattr__(self, "vg_right", self.vg)

    @property
    def batch_shape(self) -> tuple[int, ...]:
        """Shape of the batch of points; () for a single point."""
        return np.broadcast_shapes(
            np.shape(self.vg_left), np.shape(self.vg_right), np.shape(self.vsd))

    @property
    def mu_left(self) -> float:
        return -self.vsd / 2.0

    @property
    def mu_right(self) -> float:
        return self.vsd / 2.0

    @cached_property
    def occupations(self) -> FermiSet:
        """The :func:`fermi_set` of these parameters, evaluated on first use
        from the voltages as they are then; batch arrays are read-only."""
        t = self.temperature
        occ = (fermi(self.vg_left, self.mu_left, t),
               fermi(self.vg_right, self.mu_right, t),
               fermi(self.vg_left + self.u, self.mu_left, t),
               fermi(self.vg_right + self.u, self.mu_right, t))
        for v in occ:
            if isinstance(v, np.ndarray):
                v.flags.writeable = False
        return FermiSet(*occ)


@dataclass(frozen=True)
class FermiSet:
    """Lead occupations: bare (f) and Coulomb-shifted (f_u) for each side."""

    f_left: float
    f_right: float
    f_left_u: float
    f_right_u: float


def fermi(energy, mu, temperature):
    """Fermi occupation 1 / (exp((energy - mu) / T) + 1), overflow safe.

    Elementwise over arrays.  The exponential is the C library's
    ``math.exp``: numpy's vectorised ``exp`` can differ in the last bit,
    and the 1 - f forms of the rates would carry that into stiff chains.
    """
    x = (energy - mu) / temperature
    if not isinstance(x, np.ndarray):
        if x >= 0.0:
            e = math.exp(-x)
            return e / (1.0 + e)
        return 1.0 / (1.0 + math.exp(x))
    e = np.fromiter(map(math.exp, (-np.abs(x)).ravel().tolist()), float, x.size)
    e = e.reshape(x.shape)
    return np.where(x >= 0.0, e / (1.0 + e), 1.0 / (1.0 + e))


def effective_coupling(g: float, gamma: float, vg_left: float, vg_right: float) -> float:
    """Inter-dot hopping rate 2 g^2 gamma / (gamma^2 + (vg_left - vg_right)^2)."""
    d = vg_left - vg_right
    return 2.0 * g * g * gamma / (gamma * gamma + d * d)


def fermi_set(p: DqdParams) -> FermiSet:
    """Bare and Coulomb-shifted lead occupations of ``p``, computed once per
    :class:`DqdParams` and cached on it (``p.occupations``)."""
    return p.occupations


def lead_log_ratio(p: DqdParams, side: str, shifted: bool = False) -> float:
    """log((1 - f)/f) for one lead occupation, evaluated in closed form as
    (energy - mu)/T; avoids the 1 - f cancellation for occupations near 1."""
    if side == "L":
        energy, mu = p.vg_left, p.mu_left
    elif side == "R":
        energy, mu = p.vg_right, p.mu_right
    else:
        raise ValueError("side must be 'L' or 'R'")
    if shifted:
        energy = energy + p.u
    return (energy - mu) / p.temperature


def require_finite_fermi(f: FermiSet, with_u: bool = True) -> None:
    """Raise DegenerateFermi when any occupation is exactly 0 or 1."""
    vals = [f.f_left, f.f_right]
    if with_u:
        vals += [f.f_left_u, f.f_right_u]
    for v in vals:
        raise_first((v <= 0.0) | (v >= 1.0), DegenerateFermi,
                    "Fermi occupation {} is degenerate", v)


def build_dqd(p: DqdParams) -> RateMatrix:
    """Four-state rate matrix over (00, 10, 01, 11).

    Leads inject with gamma*f and extract with gamma*(1-f); the shifted
    occupations f_u govern transitions touching the doubly occupied state;
    the effective coupling connects 10 and 01.
    """
    f = fermi_set(p)
    gam = p.gamma
    geff = effective_coupling(p.g, gam, p.vg_left, p.vg_right)
    w = np.zeros(p.batch_shape + (4, 4))
    w[..., 0, 1], w[..., 0, 2] = gam * (1 - f.f_left), gam * (1 - f.f_right)
    w[..., 1, 0], w[..., 1, 2] = gam * f.f_left, geff
    w[..., 1, 3] = gam * (1 - f.f_right_u)
    w[..., 2, 0], w[..., 2, 1] = gam * f.f_right, geff
    w[..., 2, 3] = gam * (1 - f.f_left_u)
    w[..., 3, 1], w[..., 3, 2] = gam * f.f_right_u, gam * f.f_left_u
    return validate_rate_matrix(w, labels=LABELS_4)


def build_dqd_blockade(p: DqdParams) -> RateMatrix:
    """Three-state rate matrix over (00, 10, 01): the u -> infinity limit,
    i.e. the four-state matrix with state 11 deleted and f_u -> 0."""
    f = fermi_set(p)
    gam = p.gamma
    geff = effective_coupling(p.g, gam, p.vg_left, p.vg_right)
    w = np.zeros(p.batch_shape + (3, 3))
    w[..., 0, 1], w[..., 0, 2] = gam * (1 - f.f_left), gam * (1 - f.f_right)
    w[..., 1, 0], w[..., 1, 2] = gam * f.f_left, geff
    w[..., 2, 0], w[..., 2, 1] = gam * f.f_right, geff
    return validate_rate_matrix(w, labels=LABELS_3)


def build_model(p: DqdParams) -> RateMatrix:
    """Dispatch on the blockade flag."""
    return build_dqd_blockade(p) if p.blockade else build_dqd(p)
