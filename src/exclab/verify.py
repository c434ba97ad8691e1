"""Invariant battery: every identity the library promises, checked over a
built-in 7 x 7 diamond grid and reported as one pass/fail line per check.

Each point's analytic side is the sweep's :func:`~exclab.sweep.evaluate`,
whose reports are the numbers the sweep writes; the oracles it is held to
(finite differences, tilted-generator FCS, the outcome quadrature, the
excess-time scheme) run on their own, per point.  Each checked quantity
keeps its worst error and prints it as
``<what> <err> at vg=..., vsd=...[, <label>], err/tol ... (tol ...)``.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .dqd import lead_log_ratio
from .excursions import (
    _float,
    excursion_report,
    finite_difference_moments,
    outcome_distribution,
    outcome_quadrature,
)
from .markov import fcs_current_noise
from .observables import _holds, blockade_analytics, excess_time_weights
from .sweep import SweepConfig, _point_named, _point_params, evaluate

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


def _points(cfg: SweepConfig):
    for vsd in _GRID_VSD:
        for vg in _GRID_VG:
            yield _point_params(cfg, float(vg), float(vsd), False)


def _evaluated(cfg: SweepConfig):
    """``(params, evaluation)`` at each grid point in order; the first
    point that fails raises its error with the point named."""
    for p in _points(cfg):
        with _point_named(p.vg, p.vsd):
            ev = evaluate(p)
        yield p, ev


class _Worst:
    """The worst error of one checked quantity, the grid point where it
    occurred and an optional label there (such as the scheme).

    A comparison with NaN is false, so ``max`` and ``>`` would drop a NaN
    error; here a non-finite error is the worst of all, and the first one
    seen is kept.  ``ok`` fails on it.
    """

    def __init__(self, what: str, tol: float = math.inf):
        self.what, self.tol = what, tol
        self.err, self.at, self.label = -1.0, None, None

    def add(self, err: float, at, label=None) -> None:
        if math.isfinite(self.err) and not err <= self.err:
            self.err, self.at, self.label = err, at, label

    @property
    def ok(self) -> bool:
        return self.err <= self.tol

    def where(self) -> str:
        return f"{self.what} {self.err:.2e} at vg={self.at.vg:.4g}, vsd={self.at.vsd:.4g}"

    def __str__(self) -> str:
        label = "" if self.label is None else f", {self.label}"
        mant, exp = f"{self.tol:.0e}".split("e")
        return (f"{self.where()}{label}, err/tol {self.err / self.tol:.2e} "
                f"(tol {mant}e{int(exp)})")


def _line(name: str, *worsts: _Worst, extra: str = "") -> CheckResult:
    """Check ``name`` passes when each quantity is within its tolerance;
    its detail lists each one's worst error, then ``extra``."""
    detail = "; ".join(map(str, worsts)) + (f"; {extra}" if extra else "")
    return CheckResult(name, all(w.ok for w in worsts), detail)


def run_verify(cfg: SweepConfig) -> list[CheckResult]:
    """Run every check on the built-in grid at the model of ``cfg``.

    A NaN or infinite error fails its check and is the point it names.
    Cells where a relative comparison has no scale (a vanishing current or
    closed form) count as error 0.
    """
    norm = _Worst("worst rel err", 1e-10)
    fd = _Worst("worst rel err", 1e-6)
    prop = _Worst("mean rel err", 1e-10), _Worst("var rel err", 1e-10)
    # relative FCS errors, floored where the absolute gap is at most 1e-9
    # (equilibrium points), and unfloored, labelled with that gap, for display
    fcs = _Worst("J rel err", 1e-6), _Worst("D rel err", 1e-6)
    raw_fcs = _Worst("J"), _Worst("D")
    excess = _Worst("|J-1|", 1e-10), _Worst("rel |D-T|", 1e-8)
    bounds_failed = None
    evaluated = list(_evaluated(cfg))
    for p, ev in evaluated:
        dec = ev.dec

        norm_val = _float((dec.w_ab @ dec.fundamental @ dec.w_ba)[..., 0, 0])
        norm.add(abs(norm_val - dec.gamma_a) / dec.gamma_a, p)

        # the reports against central differences of the transform, on the
        # raw-moment scale
        for name, scheme in ev.schemes.items():
            r = ev.reports[name]
            f_q, f_q2, f_t, f_t2, f_qt = finite_difference_moments(dec, scheme)
            scale = max(1.0, abs(f_q2), abs(f_t2), abs(f_qt))
            for a, b in ((r.e_q, f_q), (r.var_q, f_q2 - f_q**2), (r.e_t, f_t),
                         (r.var_t, f_t2 - f_t**2), (r.cov_qt, f_qt - f_q * f_t)):
                fd.add(abs(a - b) / scale, p, f"scheme {name}")

        # thermodynamic currents are proportional to transport
        rq, rs = ev.reports["transport"], ev.reports["entropy"]
        zeta = lead_log_ratio(p, "R") - lead_log_ratio(p, "L")
        live = not abs(rq.e_q) <= 1e-8
        prop[0].add(_rel(rs.e_q, zeta * rq.e_q) if live else 0.0, p)
        prop[1].add(_rel(rs.var_q, zeta**2 * rq.var_q) if live else 0.0, p)

        # precision bounds, by the flags and slack rule of the bounds themselves
        b = ev.bounds
        for ok, what in ((b.tur_ok, "TUR fails"), (b.cur_ok, "CUR fails"),
                         (_holds(b.cur_rhs, b.kur_rhs), "excess time below 1/J_A")):
            if not ok and bounds_failed is None:
                bounds_failed = f"{what} at vg={p.vg}, vsd={p.vsd}"

        # long-time FCS from the tilted generator
        j_fcs, d_fcs = fcs_current_noise(ev.model, ev.schemes["transport"])
        for w, raw, a, c in zip(fcs, raw_fcs, (rq.j, rq.d), (j_fcs, d_fcs)):
            gap = abs(a - c)
            w.add(0.0 if gap <= 1e-9 else _rel(a, c), p)
            raw.add(_rel(a, c), p, gap)

        # the excess-time scheme saturates its own bound
        rx = excursion_report(dec, excess_time_weights(ev.model))
        excess[0].add(abs(rx.j - 1.0), p)
        excess[1].add(_rel(rx.d, b.cur_rhs), p)

    gaps = ", ".join(f"{w.where()} (abs gap {w.label:.2e})" for w in raw_fcs)
    results = [
        _line("normalization identity", norm),
        _line("moment formulas vs finite differences", fd),
        _line("entropy/transport proportionality", *prop),
        CheckResult("bound inequalities", bounds_failed is None,
                    bounds_failed or "all inequalities hold"),
        _line("FCS equivalence", *fcs,
              extra=f"unfloored {gaps}, gaps <= 1e-9 pass"),
        _line("excess-time self-consistency", *excess),
    ]

    # closed-form cross-checks always run on the three-state chain; a
    # blockade run already evaluated those points above
    cf = _Worst("worst rel err", 1e-10)
    total = _Worst("worst deviation", 1e-12)
    # worst |P(q) error| against the closed forms and the quadrature, and
    # the largest mass the engine puts outside (-2, 2)
    dist = {"closed forms": _Worst("worst abs err", 1e-8),
            "quadrature": _Worst("worst abs err", 1e-12)}
    outside = _Worst("worst mass outside range")
    if not cfg.blockade:
        evaluated = list(_evaluated(replace(cfg, blockade=True)))
    for pb, ev in evaluated:
        closed = blockade_analytics(pb)
        rq, ra, rs = (ev.reports[k] for k in ("transport", "activity", "entropy"))
        pairs = [
            (closed.e_t, rq.e_t), (closed.e_tau, rq.e_tau), (closed.mu, rq.mu),
            (closed.e_qr, rq.e_q), (closed.e_a, ra.e_q), (closed.e_sigma, rs.e_q),
            (closed.p_l, ev.pop.p_left), (closed.p_r, ev.pop.p_right),
        ]
        for a, c in pairs:
            cf.add(0.0 if abs(a) <= 1e-14 and abs(c) <= 1e-14 else _rel(a, c), pb)
        if cfg.blockade:
            triple = ev.outcomes
            total.add(abs(triple.p_suc + triple.p_fail + triple.p_dis - 1.0), pb)
            qs, probs = outcome_distribution(ev.dec, ev.schemes["transport"], (-2, 2))
            _, quad = outcome_quadrature(ev.dec, ev.schemes["transport"], (-2, 2))
            ref = {1: triple.p_suc, 0: triple.p_fail, -1: triple.p_dis, 2: 0.0, -2: 0.0}
            want = {"closed forms": np.array([ref[int(q)] for q in qs]),
                    "quadrature": quad}
            for key, w in dist.items():
                w.add(float(np.max(np.abs(probs - want[key]))), pb)
            outside.add(1.0 - float(probs.sum()), pb)
    results.append(_line("blockade closed forms vs engine", cf))
    if cfg.blockade:
        results.append(_line("outcome probabilities sum to one", total))
        for key, w in dist.items():
            results.append(_line(f"outcome distribution vs {key}", w,
                                 extra=f"{outside.what} {outside.err:.2e}"))
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
