"""Acceptance suite: every release criterion at its stated tolerance.

Run as ``pytest tests/test_acceptance.py -v -s`` to get one line per
criterion with the measured worst-case errors and runtimes.
"""
import math
import subprocess
import sys
import time
from dataclasses import replace

import numpy as np

from exclab import (
    DqdParams,
    activity_weights,
    blockade_analytics,
    build_model,
    empirical_moments,
    entropy_weights,
    excess_time,
    excess_time_weights,
    excursion_report,
    fcs_current_noise,
    outcome_distribution,
    partition,
    populations,
    sample_excursions,
    success_fail_disaster,
    time_moments,
    transport_weights,
)
from exclab.dqd import lead_log_ratio
from exclab.observables import ZERO_CURRENT
from exclab.sweep import SweepConfig, sweep_rows, sweep_to_csv

GAMMA = 2 * math.pi * 0.1
REF = dict(g=1.0, gamma=GAMMA, temperature=2.0, u=10.0)
FIG_DIAMOND = dict(g=1.0, gamma=GAMMA, temperature=1.0, u=10.0)


def grid77():
    for vsd in np.linspace(-20.0, 20.0, 7):
        for vg in np.linspace(-10.0, 10.0, 7):
            yield float(vg), float(vsd)


def rel(a, b):
    m = max(abs(a), abs(b))
    return abs(a - b) / m if m > 0 else 0.0


def test_criterion_1_fcs_equivalence():
    tr = transport_weights("R", 4)
    t0 = time.monotonic()
    worst_j = worst_d = 0.0
    for vg, vsd in grid77():
        m = build_model(DqdParams(vg=vg, vsd=vsd, **REF))
        rep = excursion_report(partition(m, 0), tr)
        j, d = fcs_current_noise(m, tr)
        # relative comparison away from equilibrium; on the vsd = 0 line
        # both currents are ~1e-17, so an absolute floor at the finite-
        # difference target scale applies there
        ej = rel(j, rep.j) if max(abs(j), abs(rep.j)) > 1e-3 else 0.0
        ed = rel(d, rep.d) if max(abs(d), abs(rep.d)) > 1e-3 else 0.0
        worst_j, worst_d = max(worst_j, ej), max(worst_d, ed)
        assert ej <= 1e-6 and abs(j - rep.j) <= max(1e-6 * abs(rep.j), 1e-9), \
            f"J mismatch at vg={vg}, vsd={vsd}"
        assert ed <= 1e-6 and abs(d - rep.d) <= max(1e-6 * abs(rep.d), 1e-9), \
            f"D mismatch at vg={vg}, vsd={vsd}"
    dt = time.monotonic() - t0
    assert dt < 5.0
    print(f"\n[PASS] criterion 1: FCS equivalence on 7x7 grid, worst rel err "
          f"J {worst_j:.2e}, D {worst_d:.2e}, {dt:.2f}s")


def test_criterion_2_monte_carlo_agreement():
    t0 = time.monotonic()
    p = DqdParams(vg=0.0, vsd=7.0, **REF)
    m = build_model(p)
    dec = partition(m, 0)
    schemes = {
        "transport": transport_weights("R", 4),
        "activity": activity_weights(4),
        "entropy": entropy_weights(p),
    }
    sample = sample_excursions(m, schemes, 1_000_000, seed=20260808)
    worst = 0.0
    for name, scheme in schemes.items():
        r = excursion_report(dec, scheme)
        emp = empirical_moments(sample, name)
        targets = dict(e_t=r.e_t, var_t=r.var_t, e_q=r.e_q, var_q=r.var_q,
                       cov_qt=r.cov_qt, j=r.j, d=r.d)
        for key, ref_val in targets.items():
            z = abs(emp.z(key, ref_val))
            worst = max(worst, z)
            assert z < 4.0, f"{name}/{key}: z = {z:.2f}"
    dt = time.monotonic() - t0
    assert dt < 60.0
    print(f"[PASS] criterion 2: Monte Carlo agreement at N=1e6, worst |z| "
          f"{worst:.2f}, {dt:.1f}s")


def test_criterion_3_blockade_closed_forms():
    worst = 0.0
    for vg, vsd in grid77():
        p = DqdParams(vg=vg, vsd=vsd, blockade=True, **REF)
        m = build_model(p)
        d = partition(m, 0)
        cf = blockade_analytics(p)
        e_t, _, _, mu, _ = time_moments(d)
        rq = excursion_report(d, transport_weights("R", 3))
        ra = excursion_report(d, activity_weights(3))
        rs = excursion_report(d, entropy_weights(p))
        pop = populations(m)
        for name, got, ref_val in (
            ("e_t", cf.e_t, e_t), ("e_tau", cf.e_tau, 1.0 / d.gamma_a),
            ("mu", cf.mu, mu), ("e_qr", cf.e_qr, rq.e_q),
            ("e_a", cf.e_a, ra.e_q), ("e_sigma", cf.e_sigma, rs.e_q),
            ("p_l", cf.p_l, pop.p_left), ("p_r", cf.p_r, pop.p_right),
        ):
            if max(abs(got), abs(ref_val)) <= 1e-14:
                continue
            err = rel(got, ref_val)
            worst = max(worst, err)
            assert err <= 1e-10, f"{name} at vg={vg}, vsd={vsd}: {err:.2e}"
    print(f"[PASS] criterion 3: blockade closed forms vs engine on 7x7 grid, "
          f"worst rel err {worst:.2e}")


def test_criterion_4_outcome_distribution():
    worst = 0.0
    worst_sum = 0.0
    for vg, vsd in grid77():
        p = DqdParams(vg=vg, vsd=vsd, blockade=True, **REF)
        d = partition(build_model(p), 0)
        qs, probs = outcome_distribution(d, transport_weights("R", 3), (-3, 3))
        t = success_fail_disaster(p)
        ref_map = {1: t.p_suc, 0: t.p_fail, -1: t.p_dis}
        for q, pr in zip(qs, probs):
            err = abs(pr - ref_map.get(int(q), 0.0))
            worst = max(worst, err)
            assert err <= 1e-8, f"P({q}) at vg={vg}, vsd={vsd}"
        worst_sum = max(worst_sum, abs(t.p_suc + t.p_fail + t.p_dis - 1.0))
        assert worst_sum <= 1e-12
    print(f"[PASS] criterion 4: outcome quadrature vs closed forms on 7x7 "
          f"grid, worst abs err {worst:.2e}, worst sum dev {worst_sum:.2e}")


def test_criterion_5_uncertainty_relations():
    worst_j1 = worst_dt = 0.0
    for vsd in np.linspace(-20.0, 20.0, 21):
        for vg in np.linspace(-10.0, 10.0, 21):
            p = DqdParams(vg=float(vg), vsd=float(vsd), **REF)
            m = build_model(p)
            d = partition(m, 0)
            rq = excursion_report(d, transport_weights("R", 4))
            rs = excursion_report(d, entropy_weights(p))
            ra = excursion_report(d, activity_weights(4))
            kur_rhs = 1.0 / ra.j
            cur_rhs = excess_time(d)
            tur_rhs = 2.0 / rs.j if rs.j != 0.0 else math.inf

            def lhs(r):
                return r.d / r.j**2 if abs(r.j) > ZERO_CURRENT else math.inf

            def holds(a, b):
                if math.isinf(a):
                    return True
                if math.isinf(b):
                    return b < 0
                return a >= b - 1e-9 * max(abs(b), 1.0)

            for r in (rq, rs):          # thermodynamic currents: TUR
                assert holds(lhs(r), tur_rhs), f"TUR at vg={vg}, vsd={vsd}"
            for r in (rq, rs, ra):      # all three schemes: KUR and CUR
                assert holds(lhs(r), kur_rhs), f"KUR at vg={vg}, vsd={vsd}"
                assert holds(lhs(r), cur_rhs), f"CUR at vg={vg}, vsd={vsd}"
            assert holds(cur_rhs, kur_rhs), f"cur<kur at vg={vg}, vsd={vsd}"

            rx = excursion_report(d, excess_time_weights(m))
            worst_j1 = max(worst_j1, abs(rx.j - 1.0))
            err = abs(rx.d - cur_rhs) / max(abs(cur_rhs), 1e-30)
            worst_dt = max(worst_dt, err)
            assert abs(rx.j - 1.0) <= 1e-10
            assert err <= 1e-8
    print(f"[PASS] criterion 5: TUR/KUR/CUR hold on 21x21 grid; excess-time "
          f"scheme worst |J-1| {worst_j1:.2e}, rel |D-T| {worst_dt:.2e}")


def test_criterion_6_thermodynamic_proportionality():
    worst_m = worst_v = 0.0
    for vg, vsd in grid77():
        p = DqdParams(vg=vg, vsd=vsd, **REF)
        d = partition(build_model(p), 0)
        rq = excursion_report(d, transport_weights("R", 4))
        rs = excursion_report(d, entropy_weights(p))
        zeta = lead_log_ratio(p, "R") - lead_log_ratio(p, "L")
        if abs(rq.e_q) > 1e-8:
            em = rel(rs.e_q, zeta * rq.e_q)
            ev = rel(rs.var_q, zeta**2 * rq.var_q)
            worst_m, worst_v = max(worst_m, em), max(worst_v, ev)
            assert em <= 1e-10 and ev <= 1e-10, f"vg={vg}, vsd={vsd}"

    p = DqdParams(vg=0.0, vsd=7.0, **REF)
    m = build_model(p)
    schemes = {"qr": transport_weights("R", 4), "ql": transport_weights("L", 4)}
    sample = sample_excursions(m, schemes, 100_000, seed=606)
    matches = np.sum(sample.q["ql"] == -sample.q["qr"])
    assert matches == sample.n
    print(f"[PASS] criterion 6: entropy/transport proportionality worst rel "
          f"err mean {worst_m:.2e}, var {worst_v:.2e}; Q_L = -Q_R on "
          f"{matches}/{sample.n} excursions")


def test_criterion_7_diamond_figures():
    cfg = SweepConfig(workers=8, **FIG_DIAMOND)
    t0 = time.monotonic()
    table = sweep_rows(replace(cfg, gate_shift=True))
    dt = time.monotonic() - t0
    assert dt < 30.0
    vg, vsd = table["vg"], table["vsd"]
    jqr, jact, jsig = table["j_qr"], table["j_act"], table["j_sigma"]
    u = cfg.u
    on_axis = vsd == 0.0
    assert np.abs(jqr[on_axis]).max() <= 1e-10                      # (a)
    i = int(np.argmax(np.abs(jqr)))
    assert abs(vg[i]) < u / 4 and abs(vsd[i]) > u                   # (b)
    k = int(np.argmax(jact))
    assert 2 * abs(vg[k]) + abs(vsd[k]) < u                         # (c)
    assert jsig.min() >= -1e-12                                     # (d)
    off = ~on_axis
    assert np.all(np.sign(jqr[off]) == np.sign(-vsd[off]))          # (e)
    print(f"[PASS] criterion 7: 101x101 diamond sweep in {dt:.1f}s; "
          f"max |j_qr| at (vg={vg[i]:g}, vsd={vsd[i]:g}), "
          f"max j_act at (vg={vg[k]:g}, vsd={vsd[k]:g})")


def test_criterion_8_determinism(tmp_path):
    base = dict(vg_lo=-6.0, vg_hi=6.0, vg_n=13, vsd_lo=-12.0, vsd_hi=12.0,
                vsd_n=13, temperature=2.0)
    blobs = []
    for workers in (1, 2, 8):
        path = tmp_path / f"w{workers}.csv"
        sweep_to_csv(SweepConfig(workers=workers, **base), str(path))
        blobs.append(path.read_bytes())
    assert blobs[0] == blobs[1] == blobs[2]

    args = [sys.executable, "-m", "exclab.cli", "simulate", "--temperature",
            "2", "--vg", "0", "--vsd", "7", "--n", "20000", "--seed", "17"]
    r1 = subprocess.run(args, capture_output=True, text=True)
    r2 = subprocess.run(args, capture_output=True, text=True)
    assert r1.returncode == 0
    assert r1.stdout == r2.stdout and r1.stdout
    print("[PASS] criterion 8: sweep bytes identical for 1/2/8 workers; "
          "simulate output identical for a fixed seed")
