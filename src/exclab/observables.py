"""Weight schemes for the double-dot model and the derived physics:
outcome probabilities, blockade closed forms, populations, mutual
information and the uncertainty-relation bounds.

Entropy weights, outcome probabilities, populations, mutual information
and the precision bounds follow a batch of parameter points (array
voltages, stacked chains) cell by cell; the blockade closed forms take
single points.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dqd import (
    DqdParams,
    effective_coupling,
    fermi,
    fermi_set,
    lead_log_ratio,
    require_finite_fermi,
)
from .errors import raise_first
from .markov import RateMatrix, WeightScheme, steady_state

__all__ = [
    "transport_weights",
    "activity_weights",
    "entropy_weights",
    "state_weights",
    "excess_time_weights",
    "OutcomeTriple",
    "success_fail_disaster",
    "BlockadeAnalytics",
    "blockade_analytics",
    "Populations",
    "populations",
    "mutual_information",
    "BoundsReport",
    "precision_bounds",
]

# index aliases for the fixed ordering (00, 10, 01, 11)
_EMPTY, _LEFT, _RIGHT, _BOTH = 0, 1, 2, 3


def transport_weights(side: str = "R", n: int = 4) -> WeightScheme:
    """Particle current into the chosen lead: +1 per electron dumped into
    the reservoir, -1 per electron absorbed from it; hopping counts zero.
    Anti-symmetric and integer valued."""
    if side not in ("L", "R"):
        raise ValueError("side must be 'L' or 'R'")
    if n not in (3, 4):
        raise ValueError("n must be 3 or 4")
    nu = np.zeros((n, n))
    if side == "R":
        nu[_EMPTY, _RIGHT] = 1.0   # 01 -> 00 empties the right dot
        nu[_RIGHT, _EMPTY] = -1.0
        if n == 4:
            nu[_LEFT, _BOTH] = 1.0  # 11 -> 10 also exits to the right lead
            nu[_BOTH, _LEFT] = -1.0
    else:
        nu[_EMPTY, _LEFT] = 1.0
        nu[_LEFT, _EMPTY] = -1.0
        if n == 4:
            nu[_RIGHT, _BOTH] = 1.0
            nu[_BOTH, _RIGHT] = -1.0
    return WeightScheme(nu, name=f"transport_{side}")


def activity_weights(n: int) -> WeightScheme:
    """Dynamical activity: every jump counts one."""
    return WeightScheme(1.0 - np.eye(n), name="activity")


def entropy_weights(p: DqdParams) -> WeightScheme:
    """Entropy production: log ratio of forward to backward rate on every
    lead transition; hopping has equal rates both ways and counts zero.
    The log ratios log((1-f)/f) are evaluated in closed form as
    (energy - mu)/T, which is exact and avoids the 1 - f cancellation.

    Raises DegenerateFermi when an occupation is exactly 0 or 1.
    """
    n = 3 if p.blockade else 4
    require_finite_fermi(fermi_set(p), with_u=not p.blockade)
    z_l = lead_log_ratio(p, "L")
    z_r = lead_log_ratio(p, "R")
    nu = np.zeros(p.batch_shape + (n, n))
    nu[..., _EMPTY, _LEFT] = z_l
    nu[..., _LEFT, _EMPTY] = -z_l
    nu[..., _EMPTY, _RIGHT] = z_r
    nu[..., _RIGHT, _EMPTY] = -z_r
    if n == 4:
        z_lu = lead_log_ratio(p, "L", shifted=True)
        z_ru = lead_log_ratio(p, "R", shifted=True)
        nu[..., _LEFT, _BOTH] = z_ru    # 11 -> 10 releases into the right lead
        nu[..., _BOTH, _LEFT] = -z_ru
        nu[..., _RIGHT, _BOTH] = z_lu
        nu[..., _BOTH, _RIGHT] = -z_lu
    return WeightScheme(nu, name="entropy")


def state_weights(values) -> WeightScheme:
    """Scheme whose weight depends only on the departed state:
    ``weights[x, y] = values[y]`` for all x."""
    v = np.asarray(values, dtype=float)
    nu = np.tile(v, (v.size, 1))
    return WeightScheme(nu, kind="state", name="state")


def excess_time_weights(m: RateMatrix) -> WeightScheme:
    """State scheme weighted by mean residence times 1/gamma; its current
    is one by construction and its noise equals the excess time."""
    nu = np.repeat((1.0 / m.gamma)[..., None, :], m.n, axis=-2)
    return WeightScheme(nu, kind="state", name="excess_time")


@dataclass(frozen=True)
class OutcomeTriple:
    """Per-excursion transport outcomes in the blockade regime."""

    p_suc: float
    p_fail: float
    p_dis: float

    def __post_init__(self):
        for v in (self.p_suc, self.p_fail, self.p_dis):
            raise_first(np.logical_not((0.0 <= v) & (v <= 1.0)), ValueError,
                        "outcome probability {} outside [0, 1]", v)
        raise_first(np.abs(self.p_suc + self.p_fail + self.p_dis - 1.0) > 1e-12,
                    ValueError, "outcome probabilities do not sum to one")


def success_fail_disaster(p: DqdParams) -> OutcomeTriple:
    """Closed-form outcome probabilities for blockade transport.

    Success is one net electron carried left to right, disaster the
    reverse, fail a round trip.  With hop = gamma * g_eff and
    lam = gamma^2 (1-f_L)(1-f_R):

        p_suc  = hop f_L (1-f_R) / den
        p_dis  = hop f_R (1-f_L) / den
        p_fail = [hop (f_L(1-f_L) + f_R(1-f_R)) + lam (f_L+f_R)] / den
        den    = (f_L+f_R) (hop (2-f_L-f_R) + lam)
    """
    f = fermi_set(p)
    fl, fr = f.f_left, f.f_right
    # complements through the swapped Fermi call keep full relative precision
    cl = fermi(p.mu_left, p.vg_left, p.temperature)
    cr = fermi(p.mu_right, p.vg_right, p.temperature)
    hop = p.gamma * effective_coupling(p.g, p.gamma, p.vg_left, p.vg_right)
    lam = p.gamma**2 * cl * cr
    n_suc = hop * fl * cr
    n_dis = hop * fr * cl
    n_fail = hop * (fl * cl + fr * cr) + lam * (fl + fr)
    total = n_suc + n_fail + n_dis  # equals the printed denominator exactly
    return OutcomeTriple(
        p_suc=n_suc / total, p_fail=n_fail / total, p_dis=n_dis / total,
    )


@dataclass(frozen=True)
class BlockadeAnalytics:
    """Closed-form blockade statistics (times in 1/MHz)."""

    e_t: float
    e_tau: float
    mu: float
    e_qr: float
    e_a: float
    e_sigma: float
    p_l: float
    p_r: float


def blockade_analytics(p: DqdParams) -> BlockadeAnalytics:
    """Closed forms for the three-state chain with hopping rate g_eff.

    The per-excursion entropy is tied to transport exactly,
    E(Sigma) = (zeta_R - zeta_L) E(Q_R) with zeta = log((1-f)/f), so it is
    assembled from the transport average rather than printed separately.
    """
    f = fermi_set(p)
    fl, fr = f.f_left, f.f_right
    require_finite_fermi(f, with_u=False)
    gam = p.gamma
    ge = effective_coupling(p.g, gam, p.vg_left, p.vg_right)
    root = gam * (1.0 - fl) * (1.0 - fr) + ge * (2.0 - fl - fr)
    e_t = ((2.0 * ge + gam) * fr + (2.0 * ge + gam - 2.0 * gam * fr) * fl) / (
        gam * (fl + fr) * root
    )
    e_tau = 1.0 / (gam * (fl + fr))
    mu = e_t + e_tau
    e_qr = ge * (fl - fr) / ((fl + fr) * root)
    e_a = (
        2.0 * ge**2 * (fl + fr)
        + 2.0 * gam**2 * (fl - 1.0) * (fr - 1.0) * (fl + fr)
        + ge * gam * (fl * (5.0 - 6.0 * fr) + fr * (5.0 - 2.0 * fr) - 2.0 * fl**2)
    ) / (gam * (fl + fr) * root)
    e_sigma = (lead_log_ratio(p, "R") - lead_log_ratio(p, "L")) * e_qr
    zpop = ge * (2.0 + fl + fr) + gam * (1.0 - fl * fr)
    p_l = (ge * fr + (ge + gam - gam * fr) * fl) / zpop
    p_r = (fr * (ge + gam) + fl * (ge - gam * fr)) / zpop
    return BlockadeAnalytics(
        e_t=e_t, e_tau=e_tau, mu=mu, e_qr=e_qr, e_a=e_a, e_sigma=e_sigma,
        p_l=p_l, p_r=p_r,
    )


@dataclass(frozen=True)
class Populations:
    """Steady-state occupation probabilities and dot marginals."""

    p00: float
    p10: float
    p01: float
    p11: float
    p_left: float
    p_right: float


def populations(m: RateMatrix) -> Populations:
    """Steady-state components plus per-dot marginals; p11 = 0 for the
    three-state chain.  Fields are arrays for a stacked chain."""
    p = steady_state(m)
    p11 = p[..., _BOTH] if m.n == 4 else np.zeros_like(p[..., _EMPTY])
    pop = Populations(
        p00=p[..., _EMPTY], p10=p[..., _LEFT], p01=p[..., _RIGHT],
        p11=p11, p_left=p[..., _LEFT] + p11, p_right=p[..., _RIGHT] + p11,
    )
    return pop if p.ndim > 1 else Populations(*map(float, vars(pop).values()))


def mutual_information(pop: Populations):
    """Mutual information (nats) between the two dot occupancies, treating
    (n_left, n_right) in {0,1}^2 as a joint binary distribution; the
    logarithm is the C library's, as in :func:`exclab.dqd.fermi`."""
    joint = np.stack([pop.p00, pop.p01, pop.p10, pop.p11], axis=-1)
    joint = joint.reshape(joint.shape[:-1] + (2, 2))
    marginals = joint.sum(axis=-1)[..., :, None] * joint.sum(axis=-2)[..., None, :]
    live = joint > 0.0
    ratio = np.where(live, joint / np.where(live, marginals, 1.0), 1.0)
    logs = np.fromiter(map(math.log, ratio.ravel().tolist()), float, ratio.size)
    terms = np.where(live, joint * logs.reshape(joint.shape), 0.0)
    mi = terms[..., 0, 0] + terms[..., 0, 1] + terms[..., 1, 0] + terms[..., 1, 1]
    return mi if mi.ndim else float(mi)


@dataclass(frozen=True)
class BoundsReport:
    """Precision bounds for one counting observable; each field is an array
    over the cells of a batch, or a float or bool for one point.

    ``lhs`` is D/J^2; the right-hand sides are the entropy (tur), activity
    (kur) and excess-time (cur) bounds.
    """

    lhs: float
    tur_rhs: float
    kur_rhs: float
    cur_rhs: float
    tur_ok: bool
    kur_ok: bool
    cur_ok: bool


_SLACK = 1e-9  # relative slack for inequality flags near saturation


def _holds(lhs, rhs):
    """lhs >= rhs up to a relative slack on the larger magnitude; an
    infinite lhs always holds.  Element-wise on arrays."""
    lhs, rhs = np.asarray(lhs), np.asarray(rhs)
    with np.errstate(invalid="ignore"):
        ok = np.isinf(lhs) | (
            lhs >= rhs - _SLACK * np.maximum(np.abs(lhs), np.abs(rhs)))
    return ok if ok.ndim else bool(ok)


def precision_bounds(j, d, j_act, j_sigma, cur_rhs) -> BoundsReport:
    """The entropy, activity and excess-time bounds on D/J^2 from the
    current ``j`` and noise ``d`` of one observable, the activity and
    entropy currents and the excess time, on floats or arrays.

    A numerically zero current gives lhs = inf, and a vanishing entropy
    current an infinite entropy bound.
    """
    j, j_sigma = np.asarray(j), np.asarray(j_sigma)
    with np.errstate(divide="ignore", invalid="ignore"):
        lhs = np.where(np.abs(j) > 1e-13, d / j**2, math.inf)
        tur_rhs = np.where(j_sigma != 0.0, 2.0 / j_sigma, math.inf)
    kur_rhs = 1.0 / j_act
    fields = dict(
        lhs=lhs, tur_rhs=tur_rhs, kur_rhs=kur_rhs, cur_rhs=cur_rhs,
        tur_ok=_holds(lhs, tur_rhs), kur_ok=_holds(lhs, kur_rhs),
        cur_ok=_holds(lhs, cur_rhs),
    )
    if lhs.ndim == 0:
        fields = {k: v if isinstance(v, bool) else float(v)
                  for k, v in fields.items()}
    return BoundsReport(**fields)

