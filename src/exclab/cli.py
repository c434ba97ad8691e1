"""Command-line front end.

Subcommands: ``analyze`` (one grid point, human-readable plus a
machine-readable CSV row), ``sweep`` (grid to CSV), ``simulate``
(Monte Carlo vs analytic table with z-scores), ``verify`` (invariant
battery) and ``heatmap`` (CSV column to a pixmap).

Exit codes: 0 success, 1 verification or z-score failure, 2 usage error.
"""
from __future__ import annotations

import argparse
import math
import os
import sys
from dataclasses import replace

from .errors import ExclabError
from .montecarlo import (
    ExcursionSample,
    dump_trajectory,
    empirical_moments,
    excursion_filter,
    sample_excursions,
    simulate,
)
from .observables import ZERO_CURRENT
from .sweep import (
    SweepConfig,
    _columns,
    _csv_chunks,
    _point_named,
    _point_params,
    evaluate,
    load_config,
    parse_grid_spec,
    sweep_to_csv,
)
from .verify import format_results, run_verify
from .heatmap import render_heatmap


def _add_model_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", metavar="PATH", help="key = value config file")
    p.add_argument("--g", type=float, help="bare tunneling amplitude (MHz)")
    p.add_argument("--gamma", type=float, help="dot-reservoir coupling (MHz)")
    p.add_argument("--temperature", type=float, help="temperature (MHz)")
    p.add_argument("--u", type=float, help="Coulomb repulsion (MHz)")
    p.add_argument("--blockade", action="store_true", default=None,
                   help="use the 3-state Coulomb-blockade model")


def _add_gate_shift(p: argparse.ArgumentParser) -> None:
    p.add_argument("--gate-shift", action=argparse.BooleanOptionalAction,
                   default=None,
                   help="recenter the gate axis by vg -> vg - u/2")


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="exclab", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    pa = sub.add_parser("analyze", help="full report at one grid point")
    _add_model_args(pa)
    _add_gate_shift(pa)
    pa.add_argument("--vg", type=float, default=0.0)
    pa.add_argument("--vsd", type=float, default=0.0)

    ps = sub.add_parser("sweep", help="evaluate a (vg, vsd) grid to CSV")
    _add_model_args(ps)
    _add_gate_shift(ps)
    ps.add_argument("--out", metavar="PATH", default="sweep.csv")
    ps.add_argument("--grid", metavar="SPEC",
                    help="vg:lo:hi:n,vsd:lo:hi:n (either axis optional)")

    pm = sub.add_parser(
        "simulate", help="Monte Carlo comparison at one grid point")
    _add_model_args(pm)
    _add_gate_shift(pm)
    pm.add_argument("--vg", type=float, default=0.0)
    pm.add_argument("--vsd", type=float, default=7.0)
    pm.add_argument("--n", type=int, default=100_000,
                    help="number of excursions")
    pm.add_argument("--seed", type=int,
                    help="sampler seed (default: the config's, else 1234)")
    pm.add_argument("--workers", type=int,
                    help="sampler processes (default: the config's, else 1)")
    pm.add_argument("--dump-trajectory", metavar="PATH",
                    help="simulate a single trajectory instead of an "
                         "ensemble and write one line per jump")

    pv = sub.add_parser("verify", help="run the invariant battery")
    _add_model_args(pv)

    ph = sub.add_parser("heatmap", help="render a sweep CSV column")
    ph.add_argument("csv", metavar="CSV")
    ph.add_argument("column", metavar="COLUMN")
    ph.add_argument("--out", metavar="PATH")
    return p


def _resolve_config(args) -> SweepConfig:
    cfg = SweepConfig()
    if args.config:
        cfg = load_config(args.config, cfg)
    updates = {}
    for key in ("g", "gamma", "temperature", "u", "workers"):
        v = getattr(args, key, None)
        if v is not None:
            updates[key] = v
    if getattr(args, "blockade", None):
        updates["blockade"] = True
    if getattr(args, "gate_shift", None) is not None:
        updates["gate_shift"] = args.gate_shift
    if getattr(args, "grid", None):
        updates.update(parse_grid_spec(args.grid))
    if getattr(args, "seed", None) is not None:
        updates["seed"] = args.seed
    return replace(cfg, **updates)


def cmd_analyze(args) -> int:
    cfg = _resolve_config(args)
    shift = bool(cfg.gate_shift)  # one-point commands default to no shift
    with _point_named(args.vg, args.vsd):
        ev = evaluate(_point_params(cfg, args.vg, args.vsd, shift))
    row = _columns(ev, args.vg, args.vsd)

    out = []
    out.append(f"point: vg={args.vg:g} vsd={args.vsd:g} "
               f"(gate shift {'on' if shift else 'off'}, "
               f"{'3-state blockade' if cfg.blockade else '4-state'} model)")
    out.append(f"model: g={cfg.g:g} gamma={cfg.gamma:.6g} "
               f"T={cfg.temperature:g} U={cfg.u:g}")
    out.append("")
    hdr = f"{'scheme':<10} {'e_q':>12} {'var_q':>12} {'cov_qt':>12} " \
          f"{'j':>12} {'d1':>12} {'d2':>12} {'d3':>12} {'d':>12}"
    out.append(hdr)
    for name, r in ev.reports.items():
        out.append(
            f"{name:<10} {r.e_q:>12.6g} {r.var_q:>12.6g} {r.cov_qt:>12.6g} "
            f"{r.j:>12.6g} {r.d1:>12.6g} {r.d2:>12.6g} {r.d3:>12.6g} {r.d:>12.6g}"
        )
    rep_tr = ev.reports["transport"]
    out.append("")
    out.append(f"times: e_t={rep_tr.e_t:.6g} var_t={rep_tr.var_t:.6g} "
               f"e_tau={rep_tr.e_tau:.6g} mu={rep_tr.mu:.6g} "
               f"delta2={rep_tr.delta2:.6g}")
    pop = ev.pop
    pop_line = f"populations: p00={pop.p00:.6g} p10={pop.p10:.6g} p01={pop.p01:.6g}"
    if not cfg.blockade:
        pop_line += f" p11={pop.p11:.6g}"
    out.append(pop_line)
    out.append(f"mutual information: {row['mi']:.6g} nats")
    if abs(rep_tr.j) <= ZERO_CURRENT:
        out.append("fano (transport): divergent (j = 0)")
    else:
        out.append(f"fano (transport): {row['fano']:.6g}")
    b = ev.bounds
    out.append(f"bounds: lhs={b.lhs:.6g} tur_rhs={b.tur_rhs:.6g} ok={b.tur_ok} "
               f"kur_rhs={b.kur_rhs:.6g} ok={b.kur_ok} "
               f"cur_rhs={b.cur_rhs:.6g} ok={b.cur_ok}")
    if ev.outcomes is not None:
        t = ev.outcomes
        out.append(f"outcomes: p_suc={t.p_suc:.6g} p_fail={t.p_fail:.6g} "
                   f"p_dis={t.p_dis:.6g}")
    out.append("")
    out.append("# machine-readable")
    out.append(b"".join(_csv_chunks(row, cfg.columns)).decode().rstrip("\n"))
    print("\n".join(out))
    return 0


def cmd_sweep(args) -> int:
    cfg = _resolve_config(args)
    n = sweep_to_csv(cfg, args.out)
    print(f"wrote {n} rows to {args.out}")
    return 0


def cmd_simulate(args) -> int:
    cfg = _resolve_config(args)
    shift = bool(cfg.gate_shift)  # one-point commands default to no shift
    with _point_named(args.vg, args.vsd):
        ev = evaluate(_point_params(cfg, args.vg, args.vsd, shift))
    model, schemes = ev.model, ev.schemes

    if args.dump_trajectory:
        traj = simulate(model, seed=cfg.seed, max_excursions=args.n)
        records, residences = excursion_filter(traj, 0, n_states=model.n)
        sample = ExcursionSample.from_records(
            records, residences, schemes, gamma_a=float(model.gamma[0]))
    else:
        sample = sample_excursions(
            model, schemes, args.n, seed=cfg.seed, workers=cfg.workers)

    out = []
    out.append(f"point: vg={args.vg:g} vsd={args.vsd:g} "
               f"({'blockade' if cfg.blockade else '4-state'}), "
               f"n={sample.n}, seed={cfg.seed}")
    out.append(f"{'scheme':<10} {'quantity':<9} {'analytic':>14} "
               f"{'empirical':>14} {'se':>11} {'z':>7}")
    worst = 0.0
    keys = ["e_q", "var_q", "e_t", "var_t", "cov_qt", "mu", "delta2", "j", "d"]
    for name, r in ev.reports.items():
        analytic = {k: getattr(r, k) for k in keys}
        analytic["j_direct"] = r.j
        emp = empirical_moments(sample, name)
        for key in analytic:
            v, se = emp.estimates[key]
            z = emp.z(key, analytic[key])
            # max() would drop a NaN; the first non-finite |z| is the worst
            if math.isfinite(worst) and not abs(z) <= worst:
                worst = abs(z)
            out.append(f"{name:<10} {key:<9} {analytic[key]:>14.6g} "
                       f"{v:>14.6g} {se:>11.3g} {z:>7.2f}")
    out.append(f"worst |z| = {worst:.2f} (threshold 4)")
    # dumped once the table stands, so that an error leaves no file behind
    if args.dump_trajectory:
        dump_trajectory(traj, args.dump_trajectory, labels=model.labels)
        out.insert(0, f"dumped {len(traj.states) - 1} jumps to {args.dump_trajectory}")
    print("\n".join(out))
    return 0 if worst <= 4.0 else 1


def cmd_verify(args) -> int:
    cfg = _resolve_config(args)
    results = run_verify(cfg)
    print(format_results(results))
    return 0 if all(r.passed for r in results) else 1


def cmd_heatmap(args) -> int:
    out = args.out or f"{os.path.splitext(args.csv)[0]}.{args.column}.ppm"
    info = render_heatmap(args.csv, args.column, out)
    print(f"wrote {out} ({info['n_vg']} x {info['n_vsd']}), "
          f"range [{info['min']:.6g}, {info['max']:.6g}]")
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "analyze": cmd_analyze,
        "sweep": cmd_sweep,
        "simulate": cmd_simulate,
        "verify": cmd_verify,
        "heatmap": cmd_heatmap,
    }
    try:
        return handlers[args.command](args)
    except (ExclabError, ValueError, ArithmeticError, OSError) as exc:
        print(f"exclab {args.command}: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
