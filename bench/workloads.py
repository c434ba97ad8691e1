"""The three benchmark workloads, driven through exclab's public API.

Each workload is a closed loop: one caller in one process makes the next
call only after the previous one returned.  A workload has three parts:

``prepare(seed, toy, tmp)``
    Builds the inputs from the seed and warms up every code path the timed
    call uses (lazy LAPACK set-up, first-call allocations).  ``toy`` selects
    the smoke-test size; ``tmp`` is a scratch directory the caller removes.
    The state it returns names the operation count ``ops``.
``run(state)``
    The timed call.  Returns the raw outputs.
``check(state, out)``
    Compares the outputs against the library's own invariants and the
    independent oracles, outside the timed region.  Returns
    ``(items, attempted, failed, detail)``.

Tolerances copy ``exclab verify`` exactly; they live here rather than being
imported so that the benchmark depends only on public names.
"""
from __future__ import annotations

import csv
import math
import os
import random

import numpy as np

from exclab import (
    DqdParams,
    ExcursionSample,
    SweepConfig,
    activity_weights,
    blockade_analytics,
    build_model,
    empirical_moments,
    entropy_weights,
    excess_time,
    excess_time_weights,
    excursion_filter,
    excursion_report,
    fcs_current_noise,
    finite_difference_moments,
    observable_moments,
    outcome_distribution,
    partition,
    populations,
    sample_excursions,
    simulate,
    success_fail_disaster,
    sweep_to_csv,
    time_moments,
    transport_weights,
)
from exclab.dqd import lead_log_ratio

EPS = np.finfo(float).eps

# CLI defaults of the model (SweepConfig's field defaults)
_DEFAULTS = SweepConfig()


def _scalar(x) -> float:
    return float(np.asarray(x).reshape(-1)[0])


def _rel(a: float, b: float) -> float:
    m = max(abs(a), abs(b))
    return abs(a - b) / m if m > 0 else 0.0


def _fcs_close(a: float, b: float) -> float:
    """verify's FCS error measure: relative, zero below a 1e-9 absolute gap."""
    if abs(a - b) <= 1e-9:
        return 0.0
    return _rel(a, b)


def _bound_holds(lhs: float, rhs: float) -> bool:
    """verify's inequality rule: lhs >= rhs with 1e-9 relative slack."""
    if math.isinf(lhs):
        return True
    if math.isinf(rhs):
        return rhs < 0
    return lhs >= rhs - 1e-9 * max(abs(rhs), 1.0)


def _params(vg: float, vsd: float, blockade: bool = False,
            temperature: float = _DEFAULTS.temperature) -> DqdParams:
    return DqdParams(
        g=_DEFAULTS.g, gamma=_DEFAULTS.gamma, temperature=temperature,
        u=_DEFAULTS.u, vg=vg, vsd=vsd, blockade=blockade,
    )


def _schemes(p: DqdParams, n: int) -> dict:
    return {
        "transport": transport_weights("R", n),
        "activity": activity_weights(n),
        "entropy": entropy_weights(p),
    }


# --------------------------------------------------------------------------
# diamond-sweep: the CLI-default 101 x 101 diamond, serial, CSV to a temp dir
# --------------------------------------------------------------------------

_FCS_CELLS = 32  # cells per run whose J and D are checked against the FCS oracle


def diamond_prepare(seed: int, toy: bool, tmp: str) -> dict:
    cfg = SweepConfig(vg_n=3, vsd_n=3) if toy else SweepConfig()
    cells = cfg.vg_n * cfg.vsd_n
    picks = sorted(random.Random(seed).sample(range(cells), min(_FCS_CELLS, cells)))
    sweep_to_csv(SweepConfig(vg_n=2, vsd_n=2), os.path.join(tmp, "warm.csv"))
    return {"cfg": cfg, "ops": cells, "picks": picks,
            "csv": os.path.join(tmp, "diamond.csv")}


def diamond_run(state: dict):
    return sweep_to_csv(state["cfg"], state["csv"])


def _read_rows(path: str) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as fh:
        return [
            {k: float(v) for k, v in row.items() if v != ""}
            for row in csv.DictReader(fh)
        ]


def _row_ok(r: dict) -> bool:
    parts = (r["d1"], r["d2"], r["d3"])
    if abs(r["d_qr"] - sum(parts)) > 4 * EPS * sum(abs(x) for x in parts):
        return False
    if abs(r["p00"] + r["p10"] + r["p01"] + r["p11"] - 1.0) > 1e-12:
        return False
    return (
        _bound_holds(r["tur_lhs"], r["tur_rhs"])
        and _bound_holds(r["tur_lhs"], r["cur_rhs"])
        and _bound_holds(r["cur_rhs"], r["kur_rhs"])
    )


def _fcs_ok(cfg: SweepConfig, r: dict) -> bool:
    # the sweep recentres the gate axis: vg -> vg - u/2
    p = _params(r["vg"] - cfg.u / 2.0, r["vsd"])
    model = build_model(p)
    try:
        j, d = fcs_current_noise(model, transport_weights("R", model.n))
    except Exception:  # an oracle that cannot evaluate the cell fails it
        return False
    return _fcs_close(r["j_qr"], j) <= 1e-6 and _fcs_close(r["d_qr"], d) <= 1e-6


def diamond_check(state: dict, out):
    cells = state["ops"]
    rows = _read_rows(state["csv"])
    if out != cells or len(rows) != cells:
        return cells, cells, cells, f"sweep wrote {len(rows)} rows, want {cells}"
    bad = {i for i, r in enumerate(rows) if not _row_ok(r)}
    bad |= {i for i in state["picks"] if not _fcs_ok(state["cfg"], rows[i])}
    detail = f"{len(bad)} bad cells" if bad else "all cells pass"
    return cells, cells, len(bad), detail


# --------------------------------------------------------------------------
# oracle-check: verify's cross-checks on its 7 x 7 grid, 4-state and blockade
# --------------------------------------------------------------------------

_GRID_VG = np.linspace(-10.0, 10.0, 7)
_GRID_VSD = np.linspace(-20.0, 20.0, 7)


def oracle_point(p: DqdParams) -> list[str]:
    """Every per-point check of ``exclab verify`` at one (vg, vsd, mode).

    Returns the names of the checks that failed; mirrors verify's calls one
    for one, with the closed-form section always on the three-state chain.
    """
    bad = []
    model = build_model(p)
    dec = partition(model, 0)
    tr = transport_weights("R", model.n)
    act = activity_weights(model.n)
    ent = entropy_weights(p)

    norm = _scalar(dec.w_ab @ dec.fundamental @ dec.w_ba)
    if abs(norm - dec.gamma_a) / dec.gamma_a > 1e-10:
        bad.append("normalization identity")

    worst_fd = 0.0
    for scheme in (tr, act, ent):
        e_q, e_q2, _, e_qt, _ = observable_moments(dec, scheme)
        e_t, e_t2, _, _, _ = time_moments(dec)
        f_q, f_q2, f_t, f_t2, f_qt = finite_difference_moments(dec, scheme)
        scale = max(1.0, abs(f_q2), abs(f_t2), abs(f_qt))
        for a, b in ((e_q, f_q), (e_q2, f_q2), (e_t, f_t), (e_t2, f_t2), (e_qt, f_qt)):
            worst_fd = max(worst_fd, abs(a - b) / scale)
    if worst_fd > 1e-6:
        bad.append("moment formulas vs finite differences")

    rq = excursion_report(dec, tr)
    rs = excursion_report(dec, ent)
    zeta = lead_log_ratio(p, "R") - lead_log_ratio(p, "L")
    if abs(rq.e_q) > 1e-8 and (
        _rel(rs.e_q, zeta * rq.e_q) > 1e-10
        or _rel(rs.var_q, zeta**2 * rq.var_q) > 1e-10
    ):
        bad.append("entropy/transport proportionality")

    lhs = rq.d / rq.j**2 if abs(rq.j) > 1e-13 else math.inf
    tur_rhs = 2.0 / rs.j if rs.j != 0.0 else math.inf
    kur_rhs = 1.0 / excursion_report(dec, act).j
    cur_rhs = excess_time(dec)
    if not (_bound_holds(lhs, tur_rhs) and _bound_holds(lhs, cur_rhs)
            and _bound_holds(cur_rhs, kur_rhs)):
        bad.append("bound inequalities")

    j_fcs, d_fcs = fcs_current_noise(model, tr)
    if (_fcs_close(rq.j, j_fcs) > 1e-6
            or _fcs_close(rq.d1 + rq.d2 + rq.d3, d_fcs) > 1e-6):
        bad.append("FCS equivalence")

    rx = excursion_report(dec, excess_time_weights(model))
    if abs(rx.j - 1.0) > 1e-10 or _rel(rx.d, cur_rhs) > 1e-8:
        bad.append("excess-time self-consistency")

    pb = _params(p.vg, p.vsd, blockade=True, temperature=p.temperature)
    model_b = build_model(pb)
    dec_b = partition(model_b, 0)
    cf = blockade_analytics(pb)
    e_t, _, _, mu, _ = time_moments(dec_b)
    rq3 = excursion_report(dec_b, transport_weights("R", 3))
    ra3 = excursion_report(dec_b, activity_weights(3))
    rs3 = excursion_report(dec_b, entropy_weights(pb))
    pop = populations(model_b)
    pairs = [
        (cf.e_t, e_t), (cf.e_tau, 1.0 / dec_b.gamma_a), (cf.mu, mu),
        (cf.e_qr, rq3.e_q), (cf.e_a, ra3.e_q), (cf.e_sigma, rs3.e_q),
        (cf.p_l, pop.p_left), (cf.p_r, pop.p_right),
    ]
    if any(max(abs(a), abs(b)) > 1e-14 and _rel(a, b) > 1e-10 for a, b in pairs):
        bad.append("blockade closed forms vs engine")

    if p.blockade:
        triple = success_fail_disaster(pb)
        if abs(triple.p_suc + triple.p_fail + triple.p_dis - 1.0) > 1e-12:
            bad.append("outcome probabilities sum to one")
        qs, probs = outcome_distribution(dec_b, transport_weights("R", 3), (-2, 2))
        ref = {1: triple.p_suc, 0: triple.p_fail, -1: triple.p_dis, 2: 0.0, -2: 0.0}
        if any(abs(pr - ref[int(q)]) > 1e-8 for q, pr in zip(qs, probs)):
            bad.append("outcome quadrature vs closed forms")
    return bad


def oracle_prepare(seed: int, toy: bool, tmp: str) -> dict:
    # verify's grid is fixed, so the seed does not change this workload's inputs
    grid = [(float(vg), float(vsd)) for vsd in _GRID_VSD for vg in _GRID_VG]
    if toy:
        grid = grid[:1]
    points = [_params(vg, vsd, blockade=b) for b in (False, True) for vg, vsd in grid]
    oracle_point(_params(1.0, 3.0, blockade=True))
    oracle_point(_params(1.0, 3.0))
    return {"points": points, "ops": len(points)}


def oracle_run(state: dict):
    out = []
    for p in state["points"]:
        try:
            out.append(oracle_point(p))
        except Exception as exc:  # a raising point is one failed operation
            out.append([f"{type(exc).__name__}: {exc}"])
    return out


def oracle_check(state: dict, out):
    n = len(state["points"])
    failed = [(p.vg, p.vsd, p.blockade, bad) for p, bad in zip(state["points"], out) if bad]
    detail = f"failures {failed[:3]}" if failed else "all points pass"
    return n, n, len(failed), detail


# --------------------------------------------------------------------------
# mc-oracle: Monte Carlo at the reference point (vg=0, vsd=7, T=2)
# --------------------------------------------------------------------------

_Z_KEYS = ("e_q", "var_q", "e_t", "var_t", "cov_qt", "mu", "delta2", "j", "d", "j_direct")
_Z_MAX = 4.0


def mc_prepare(seed: int, toy: bool, tmp: str) -> dict:
    p = _params(0.0, 7.0, temperature=2.0)
    model = build_model(p)
    schemes = _schemes(p, model.n)
    warm = sample_excursions(model, schemes, 4096, seed=seed + 2, workers=1)
    traj = simulate(model, seed=seed + 3, max_excursions=200)
    records, residences = excursion_filter(traj, 0, n_states=model.n)
    ExcursionSample.from_records(records, residences, schemes, float(model.gamma[0]))
    empirical_moments(warm, "transport")
    return {
        "params": p, "seed": seed,
        "n_sample": 10_000 if toy else 1_000_000,
        "n_traj": 1_000 if toy else 100_000,
        "ops": 2 * len(schemes) * len(_Z_KEYS),
    }


def mc_run(state: dict):
    p, seed = state["params"], state["seed"]
    model = build_model(p)
    dec = partition(model, 0)
    schemes = _schemes(p, model.n)
    ensemble = sample_excursions(model, schemes, state["n_sample"], seed=seed, workers=1)
    traj = simulate(model, seed=seed + 1, max_excursions=state["n_traj"])
    records, residences = excursion_filter(traj, 0, n_states=model.n)
    sampled = ExcursionSample.from_records(
        records, residences, schemes, gamma_a=float(model.gamma[0]))
    zs = {}
    for label, sample in (("ensemble", ensemble), ("trajectory", sampled)):
        for name, scheme in schemes.items():
            r = excursion_report(dec, scheme)
            analytic = {k: getattr(r, k) for k in _Z_KEYS if k != "j_direct"}
            analytic["j_direct"] = r.j
            emp = empirical_moments(sample, name)
            for key in _Z_KEYS:
                zs[(label, name, key)] = emp.z(key, analytic[key])
    return ensemble.n + sampled.n, zs


def mc_check(state: dict, out):
    items, zs = out
    bad = {k: z for k, z in zs.items() if not abs(z) <= _Z_MAX}
    worst = max(abs(z) for z in zs.values())
    detail = f"worst |z| {worst:.2f}" + (f", failing {sorted(bad)[:3]}" if bad else "")
    return items, len(zs), len(bad), detail


WORKLOADS = {
    "diamond-sweep": (diamond_prepare, diamond_run, diamond_check),
    "oracle-check": (oracle_prepare, oracle_run, oracle_check),
    "mc-oracle": (mc_prepare, mc_run, mc_check),
}

# Spans that must fire in a traced run of each workload; a rebind that
# silently missed would otherwise read as zero time.
EXPECTED_SPANS = {
    "diamond-sweep": (
        "dqd.build_model", "markov.validate_rate_matrix", "markov.steady_state",
        "excursions.partition", "excursions.time_moments",
        "excursions.observable_moments", "excursions.excursion_report",
        "excursions.excess_time", "observables.transport_weights",
        "observables.activity_weights", "observables.entropy_weights",
        "observables.populations", "observables.mutual_information",
        "sweep.sweep_rows", "sweep.compute_row", "sweep.write_csv",
        "numpy.linalg.solve",
    ),
    "oracle-check": (
        "dqd.build_model", "markov.validate_rate_matrix", "markov.steady_state",
        "markov.fcs_current_noise", "excursions.partition",
        "excursions.time_moments", "excursions.observable_moments",
        "excursions.excursion_report", "excursions.excess_time",
        "excursions.finite_difference_moments", "excursions.outcome_distribution",
        "observables.transport_weights", "observables.activity_weights",
        "observables.entropy_weights", "observables.populations",
        "observables.success_fail_disaster", "observables.blockade_analytics",
        "numpy.linalg.solve", "numpy.linalg.eigvals",
    ),
    "mc-oracle": (
        "dqd.build_model", "markov.validate_rate_matrix", "excursions.partition",
        "excursions.time_moments", "excursions.observable_moments",
        "excursions.excursion_report", "observables.transport_weights",
        "observables.activity_weights", "observables.entropy_weights",
        "montecarlo.sample_excursions", "montecarlo.simulate",
        "montecarlo.excursion_filter", "montecarlo.ExcursionSample.from_records",
        "montecarlo.empirical_moments",
    ),
}
