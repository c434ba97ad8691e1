"""Invariant battery: every identity the library promises, checked over a
built-in 7 x 7 diamond grid and reported as one pass/fail line per check.

Each point's analytic side is the sweep's :func:`~exclab.sweep.evaluate`;
the oracles it is held to (finite differences, tilted-generator FCS,
the outcome quadrature, the excess-time scheme) run on their own, per
point.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .dqd import lead_log_ratio
from .excursions import (
    _float,
    cross_moments,
    excursion_report,
    finite_difference_moments,
    outcome_distribution,
    outcome_quadrature,
)
from .markov import fcs_current_noise
from .observables import _holds, blockade_analytics, excess_time_weights
from .sweep import SweepConfig, _point_params, evaluate

__all__ = ["CheckResult", "run_verify", "format_results"]

_GRID_VG = np.linspace(-10.0, 10.0, 7)
_GRID_VSD = np.linspace(-20.0, 20.0, 7)


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str


def _rel(a: float, b: float) -> float:
    """Relative difference; NaN when either side is NaN."""
    gap = abs(a - b)
    return gap / max(abs(a), abs(b)) if gap else 0.0


def _fcs_close(a: float, b: float) -> float:
    """Error measure for the FCS comparison: relative, with an absolute
    floor at the finite-difference target scale for equilibrium points."""
    if abs(a - b) <= 1e-9:
        return 0.0
    return _rel(a, b)


def _points(cfg: SweepConfig):
    for vsd in _GRID_VSD:
        for vg in _GRID_VG:
            yield _point_params(cfg, float(vg), float(vsd), False)


class _Worst:
    """The largest error seen and the point where it occurred.

    A comparison with NaN is false, so ``max`` and ``>`` would drop a NaN
    error; here a non-finite error is the worst of all, and the first one
    seen is kept.  ``ok(tol)`` fails on it.  Errors at or below ``floor``
    record no point.
    """

    def __init__(self, floor: float = 0.0):
        self.err, self.at = floor, None

    def add(self, err: float, at, *where) -> None:
        if math.isfinite(self.err) and not err <= self.err:
            self.err, self.at = err, (at, *where)

    def ok(self, tol: float) -> bool:
        return self.err <= tol

    def __str__(self) -> str:
        if self.at is None:
            return f"{self.err:.2e}"
        p = self.at[0]
        return f"{self.err:.2e} at vg={p.vg:.4g}, vsd={p.vsd:.4g}"


def run_verify(cfg: SweepConfig, inject_d2: float = 0.0) -> list[CheckResult]:
    """Run every check; ``inject_d2`` perturbs the D2 noise term inside
    this battery's FCS comparison only (fault-injection hook).

    Each check keeps its worst error and the point where it occurred; a
    NaN or infinite error fails the check and is the point it names.
    """
    results = []

    worst_norm = _Worst()
    # unfloored worst finite-difference error, its point and its scheme
    worst_fd = _Worst(-1.0)
    worst_prop_mean = _Worst()
    worst_prop_var = _Worst()
    worst_fcs_j = _Worst()
    worst_fcs_d = _Worst()
    # unfloored worst relative FCS errors, where they occur and the absolute
    # gap there, for display: the gap shows where the 1e-9 floor decides
    raw_fcs = {"J": _Worst(-1.0), "D": _Worst(-1.0)}
    worst_excess_j = _Worst()
    worst_excess_d = _Worst()
    bounds_ok = True
    bounds_detail = "all inequalities hold"
    evaluated = [(p, evaluate(p)) for p in _points(cfg)]
    for p, ev in evaluated:
        dec = ev.dec

        norm = _float((dec.w_ab @ dec.fundamental @ dec.w_ba)[..., 0, 0])
        worst_norm.add(abs(norm - dec.gamma_a) / dec.gamma_a, p)

        # insertion formulas against central differences of the transform
        for name, scheme in ev.schemes.items():
            (e_q, e_t), ((e_q2, e_qt), (_, e_t2)) = cross_moments(dec, [scheme, None])
            f_q, f_q2, f_t, f_t2, f_qt = finite_difference_moments(dec, scheme)
            scale = max(1.0, abs(f_q2), abs(f_t2), abs(f_qt))
            for a, b in ((e_q, f_q), (e_q2, f_q2), (e_t, f_t), (e_t2, f_t2), (e_qt, f_qt)):
                worst_fd.add(abs(a - b) / scale, p, name)

        # thermodynamic currents are proportional to transport
        rq, rs = ev.reports["transport"], ev.reports["entropy"]
        zeta = lead_log_ratio(p, "R") - lead_log_ratio(p, "L")
        if not abs(rq.e_q) <= 1e-8:
            worst_prop_mean.add(_rel(rs.e_q, zeta * rq.e_q), p)
            worst_prop_var.add(_rel(rs.var_q, zeta**2 * rq.var_q), p)

        # precision bounds
        bounds = ev.bounds
        if not bounds.tur_ok:
            bounds_ok, bounds_detail = False, f"TUR fails at vg={p.vg}, vsd={p.vsd}"
        if not bounds.cur_ok:
            bounds_ok, bounds_detail = False, f"CUR fails at vg={p.vg}, vsd={p.vsd}"
        if not _holds(bounds.cur_rhs, bounds.kur_rhs):
            bounds_ok, bounds_detail = False, f"excess time below 1/J_A at vg={p.vg}, vsd={p.vsd}"

        # long-time FCS from the tilted generator
        d_val = rq.d1 + rq.d2 * (1.0 + inject_d2) + rq.d3
        j_fcs, d_fcs = fcs_current_noise(ev.model, ev.schemes["transport"])
        worst_fcs_j.add(_fcs_close(rq.j, j_fcs), p)
        worst_fcs_d.add(_fcs_close(d_val, d_fcs), p)
        for key, a, b in (("J", rq.j, j_fcs), ("D", d_val, d_fcs)):
            raw_fcs[key].add(_rel(a, b), p, abs(a - b))

        # the excess-time scheme saturates its own bound
        rx = excursion_report(dec, excess_time_weights(ev.model))
        worst_excess_j.add(abs(rx.j - 1.0), p)
        worst_excess_d.add(_rel(rx.d, bounds.cur_rhs), p)

    results.append(CheckResult(
        "normalization identity", worst_norm.ok(1e-10),
        f"worst rel err {worst_norm} (tol 1e-10)"))
    results.append(CheckResult(
        "moment formulas vs finite differences", worst_fd.ok(1e-6),
        f"worst rel err {worst_fd}, scheme {worst_fd.at[1]}, "
        f"err/tol {worst_fd.err / 1e-6:.2e} (tol 1e-6)"))
    results.append(CheckResult(
        "entropy/transport proportionality",
        worst_prop_mean.ok(1e-10) and worst_prop_var.ok(1e-10),
        f"worst rel err mean {worst_prop_mean}, var {worst_prop_var} (tol 1e-10)"))
    results.append(CheckResult("bound inequalities", bounds_ok, bounds_detail))
    fcs_detail = ", ".join(f"{key} {w} (abs gap {w.at[1]:.2e})" for key, w in raw_fcs.items())
    results.append(CheckResult(
        "FCS equivalence", worst_fcs_j.ok(1e-6) and worst_fcs_d.ok(1e-6),
        f"worst rel err {fcs_detail} (tol 1e-6; gaps <= 1e-9 pass)"))
    results.append(CheckResult(
        "excess-time self-consistency",
        worst_excess_j.ok(1e-10) and worst_excess_d.ok(1e-8),
        f"worst |J-1| {worst_excess_j}, rel |D-T| {worst_excess_d}"))

    # closed-form cross-checks always run on the three-state chain; a
    # blockade run already evaluated those points above
    worst_cf = _Worst()
    worst_sum = _Worst()
    # worst |P(q) error| and where, against the closed forms and the
    # quadrature, and the largest mass the engine puts outside (-2, 2)
    worst_out = {"closed forms": _Worst(-1.0), "quadrature": _Worst(-1.0)}
    outside = _Worst()
    if not cfg.blockade:
        evaluated = [(pb, evaluate(pb)) for pb in _points(replace(cfg, blockade=True))]
    for pb, ev in evaluated:
        cf = blockade_analytics(pb)
        rq, ra, rs = (ev.reports[k] for k in ("transport", "activity", "entropy"))
        pairs = [
            (cf.e_t, rq.e_t), (cf.e_tau, rq.e_tau), (cf.mu, rq.mu),
            (cf.e_qr, rq.e_q), (cf.e_a, ra.e_q), (cf.e_sigma, rs.e_q),
            (cf.p_l, ev.pop.p_left), (cf.p_r, ev.pop.p_right),
        ]
        for a, b in pairs:
            if not (abs(a) <= 1e-14 and abs(b) <= 1e-14):
                worst_cf.add(_rel(a, b), pb)
        if cfg.blockade:
            triple = ev.outcomes
            worst_sum.add(abs(triple.p_suc + triple.p_fail + triple.p_dis - 1.0), pb)
            qs, probs = outcome_distribution(ev.dec, ev.schemes["transport"], (-2, 2))
            _, quad = outcome_quadrature(ev.dec, ev.schemes["transport"], (-2, 2))
            ref = {1: triple.p_suc, 0: triple.p_fail, -1: triple.p_dis, 2: 0.0, -2: 0.0}
            closed = np.array([ref[int(q)] for q in qs])
            for key, want in (("closed forms", closed), ("quadrature", quad)):
                worst_out[key].add(float(np.max(np.abs(probs - want))), pb)
            outside.add(1.0 - float(probs.sum()), pb)
    results.append(CheckResult(
        "blockade closed forms vs engine", worst_cf.ok(1e-10),
        f"worst rel err {worst_cf} (tol 1e-10)"))
    if cfg.blockade:
        results.append(CheckResult(
            "outcome probabilities sum to one", worst_sum.ok(1e-12),
            f"worst deviation {worst_sum} (tol 1e-12)"))
        for key, tol in (("closed forms", 1e-8), ("quadrature", 1e-12)):
            w = worst_out[key]
            results.append(CheckResult(
                f"outcome distribution vs {key}", w.ok(tol),
                f"worst abs err {w}, "
                f"err/tol {w.err / tol:.2e} (tol {tol:.0e}); "
                f"worst mass outside range {outside.err:.2e}"))
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
