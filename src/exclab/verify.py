"""Invariant battery: every identity the library promises, checked over a
built-in 7 x 7 diamond grid and reported as one pass/fail line per check.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .dqd import build_dqd, build_dqd_blockade, lead_log_ratio
from .excursions import (
    _scalar,
    excess_time,
    excursion_report,
    finite_difference_moments,
    observable_moments,
    outcome_distribution,
    partition,
    time_moments,
)
from .markov import fcs_current_noise
from .observables import (
    activity_weights,
    blockade_analytics,
    entropy_weights,
    excess_time_weights,
    populations,
    success_fail_disaster,
    transport_weights,
)
from .sweep import SweepConfig, _point_params

__all__ = ["CheckResult", "run_verify", "format_results"]

_GRID_VG = np.linspace(-10.0, 10.0, 7)
_GRID_VSD = np.linspace(-20.0, 20.0, 7)


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str


def _rel(a: float, b: float) -> float:
    m = max(abs(a), abs(b))
    return abs(a - b) / m if m > 0 else 0.0


def _fcs_close(a: float, b: float) -> float:
    """Error measure for the FCS comparison: relative, with an absolute
    floor at the finite-difference target scale for equilibrium points."""
    if abs(a - b) <= 1e-9:
        return 0.0
    return _rel(a, b)


def _bound_holds(lhs: float, rhs: float) -> bool:
    """lhs >= rhs with a tiny relative slack; infinities compare sanely."""
    if math.isinf(lhs):
        return True
    if math.isinf(rhs):
        return rhs < 0
    return lhs >= rhs - 1e-9 * max(abs(rhs), 1.0)


def _points(cfg: SweepConfig):
    for vsd in _GRID_VSD:
        for vg in _GRID_VG:
            yield _point_params(cfg, float(vg), float(vsd), False)


def run_verify(cfg: SweepConfig, inject_d2: float = 0.0) -> list[CheckResult]:
    """Run every check; ``inject_d2`` perturbs the D2 noise term inside
    this battery's FCS comparison only (fault-injection hook)."""
    results = []
    build = build_dqd_blockade if cfg.blockade else build_dqd

    worst_norm = 0.0
    worst_fd = 0.0
    worst_prop_mean = 0.0
    worst_prop_var = 0.0
    worst_fcs_j = 0.0
    worst_fcs_d = 0.0
    # unfloored worst relative FCS errors and where they occur, for display
    raw_fcs = {"J": (-1.0, None), "D": (-1.0, None)}
    worst_excess_j = 0.0
    worst_excess_d = 0.0
    bounds_ok = True
    bounds_detail = "all inequalities hold"
    for p in _points(cfg):
        model = build(p)
        dec = partition(model, 0)
        tr = transport_weights("R", model.n)
        act = activity_weights(model.n)
        ent = entropy_weights(p)

        norm = _scalar(dec.w_ab @ dec.fundamental @ dec.w_ba)
        worst_norm = max(worst_norm, abs(norm - dec.gamma_a) / dec.gamma_a)

        # insertion formulas against central differences of the transform
        for scheme in (tr, act, ent):
            e_q, e_q2, _, e_qt, _ = observable_moments(dec, scheme)
            e_t, e_t2, _, _, _ = time_moments(dec)
            f_q, f_q2, f_t, f_t2, f_qt = finite_difference_moments(dec, scheme)
            scale = max(1.0, abs(f_q2), abs(f_t2), abs(f_qt))
            for a, b in ((e_q, f_q), (e_q2, f_q2), (e_t, f_t), (e_t2, f_t2), (e_qt, f_qt)):
                worst_fd = max(worst_fd, abs(a - b) / scale)

        # thermodynamic currents are proportional to transport
        rq = excursion_report(dec, tr)
        rs = excursion_report(dec, ent)
        zeta = lead_log_ratio(p, "R") - lead_log_ratio(p, "L")
        if abs(rq.e_q) > 1e-8:
            worst_prop_mean = max(worst_prop_mean, _rel(rs.e_q, zeta * rq.e_q))
            worst_prop_var = max(worst_prop_var, _rel(rs.var_q, zeta**2 * rq.var_q))

        # precision bounds
        lhs = rq.d / rq.j**2 if abs(rq.j) > 1e-13 else math.inf
        tur_rhs = 2.0 / rs.j if rs.j != 0.0 else math.inf
        kur_rhs = 1.0 / excursion_report(dec, act).j
        cur_rhs = excess_time(dec)
        if not _bound_holds(lhs, tur_rhs):
            bounds_ok, bounds_detail = False, f"TUR fails at vg={p.vg}, vsd={p.vsd}"
        if not _bound_holds(lhs, cur_rhs):
            bounds_ok, bounds_detail = False, f"CUR fails at vg={p.vg}, vsd={p.vsd}"
        if not _bound_holds(cur_rhs, kur_rhs):
            bounds_ok, bounds_detail = False, f"excess time below 1/J_A at vg={p.vg}, vsd={p.vsd}"

        # long-time FCS from the tilted generator
        d_val = rq.d1 + rq.d2 * (1.0 + inject_d2) + rq.d3
        j_fcs, d_fcs = fcs_current_noise(model, tr)
        worst_fcs_j = max(worst_fcs_j, _fcs_close(rq.j, j_fcs))
        worst_fcs_d = max(worst_fcs_d, _fcs_close(d_val, d_fcs))
        for key, a, b in (("J", rq.j, j_fcs), ("D", d_val, d_fcs)):
            if _rel(a, b) > raw_fcs[key][0]:
                raw_fcs[key] = (_rel(a, b), p)

        # the excess-time scheme saturates its own bound
        rx = excursion_report(dec, excess_time_weights(model))
        worst_excess_j = max(worst_excess_j, abs(rx.j - 1.0))
        worst_excess_d = max(worst_excess_d, _rel(rx.d, cur_rhs))

    results.append(CheckResult(
        "normalization identity", worst_norm <= 1e-10,
        f"worst rel err {worst_norm:.2e} (tol 1e-10)"))
    results.append(CheckResult(
        "moment formulas vs finite differences", worst_fd <= 1e-6,
        f"worst rel err {worst_fd:.2e} (tol 1e-6)"))
    results.append(CheckResult(
        "entropy/transport proportionality",
        worst_prop_mean <= 1e-10 and worst_prop_var <= 1e-10,
        f"worst rel err mean {worst_prop_mean:.2e}, var {worst_prop_var:.2e} (tol 1e-10)"))
    results.append(CheckResult("bound inequalities", bounds_ok, bounds_detail))
    fcs_detail = ", ".join(
        f"{key} {err:.2e} at vg={at.vg:.4g}, vsd={at.vsd:.4g}"
        for key, (err, at) in raw_fcs.items())
    results.append(CheckResult(
        "FCS equivalence", worst_fcs_j <= 1e-6 and worst_fcs_d <= 1e-6,
        f"worst rel err {fcs_detail} (tol 1e-6; gaps <= 1e-9 pass)"))
    results.append(CheckResult(
        "excess-time self-consistency",
        worst_excess_j <= 1e-10 and worst_excess_d <= 1e-8,
        f"worst |J-1| {worst_excess_j:.2e}, rel |D-T| {worst_excess_d:.2e}"))

    # closed-form cross-checks always run on the three-state chain
    worst_cf = 0.0
    worst_out = 0.0
    worst_sum = 0.0
    for pb in _points(replace(cfg, blockade=True)):
        model = build_dqd_blockade(pb)
        dec = partition(model, 0)
        cf = blockade_analytics(pb)
        e_t, _, _, mu, _ = time_moments(dec)
        rq = excursion_report(dec, transport_weights("R", 3))
        ra = excursion_report(dec, activity_weights(3))
        rs = excursion_report(dec, entropy_weights(pb))
        pop = populations(model)
        pairs = [
            (cf.e_t, e_t), (cf.e_tau, 1.0 / dec.gamma_a), (cf.mu, mu),
            (cf.e_qr, rq.e_q), (cf.e_a, ra.e_q), (cf.e_sigma, rs.e_q),
            (cf.p_l, pop.p_left), (cf.p_r, pop.p_right),
        ]
        for a, b in pairs:
            if max(abs(a), abs(b)) > 1e-14:
                worst_cf = max(worst_cf, _rel(a, b))
        if cfg.blockade:
            triple = success_fail_disaster(pb)
            worst_sum = max(
                worst_sum, abs(triple.p_suc + triple.p_fail + triple.p_dis - 1.0))
            qs, probs = outcome_distribution(dec, transport_weights("R", 3), (-2, 2))
            ref = {1: triple.p_suc, 0: triple.p_fail, -1: triple.p_dis, 2: 0.0, -2: 0.0}
            for q, pr in zip(qs, probs):
                worst_out = max(worst_out, abs(pr - ref[int(q)]))
    results.append(CheckResult(
        "blockade closed forms vs engine", worst_cf <= 1e-10,
        f"worst rel err {worst_cf:.2e} (tol 1e-10)"))
    if cfg.blockade:
        results.append(CheckResult(
            "outcome probabilities sum to one", worst_sum <= 1e-12,
            f"worst deviation {worst_sum:.2e} (tol 1e-12)"))
        results.append(CheckResult(
            "outcome quadrature vs closed forms", worst_out <= 1e-8,
            f"worst abs err {worst_out:.2e} (tol 1e-8)"))
    return results


def format_results(results: list[CheckResult]) -> str:
    lines = []
    for r in results:
        lines.append(f"[{'PASS' if r.passed else 'FAIL'}] {r.name}: {r.detail}")
    n_fail = sum(not r.passed for r in results)
    lines.append(
        f"{len(results) - n_fail}/{len(results)} checks passed"
        + ("" if n_fail == 0 else f", {n_fail} FAILED")
    )
    return "\n".join(lines)
