#!/usr/bin/env python3
"""exclab benchmark: three workloads timed end to end, and per layer in a
separate traced run.

    python3 bench/run.py --workload diamond-sweep --seed 1 --seconds 30 --trace 0

Run from anywhere inside a checkout; the code measured is the checkout's
``src/exclab``.  Each repetition is a fresh worker process (``worker.py``)
that sets up, runs the workload once and checks its outputs.  Repetitions
continue while the next one is projected to end within ``--seconds``.

``--trace 0`` prints the end-to-end metrics (medians over repetitions);
``--trace 1`` alternates plain and traced repetitions and prints the
per-layer metrics.  The last line of standard output is the JSON result;
a results file with provenance goes to ``.bench_out/`` in the checkout.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import provenance

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"
WORKLOADS = ("diamond-sweep", "oracle-check", "mc-oracle")
MIN_SETUPS = 15     # set-up samples per untraced run, for a steady median
DEADLINE_S = 170.0  # the whole run, workers included, ends within this


class BenchError(RuntimeError):
    pass


def unit(metric: str) -> str:
    for suffix, u in ((".calls", "count"), (".systems", "count"), (".bytes", "bytes"),
                      (".solves_per_call", "count"), ("_per_s", "1/s"), ("_frac", "ratio"),
                      ("_mb", "MB"), ("_s", "s")):
        if metric.endswith(suffix):
            return u
    raise KeyError(metric)


def worker_env() -> dict:
    """Serial workers: no sweep pool, and one BLAS thread.  On a small
    shared machine BLAS threads on 3 x 3 and 4 x 4 solves only add CPU time
    and run-to-run spread."""
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    env.pop("EXCLAB_WORKERS", None)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def _worker(workload, seed, trace, toy, setup_only, deadline) -> dict:
    env = worker_env()
    t0 = time.perf_counter()
    cmd = [sys.executable, str(BENCH / "worker.py"), workload, str(seed),
           str(int(trace)), str(int(toy)), str(int(setup_only)), str(OUT), repr(t0)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
                              timeout=max(1.0, deadline - t0))
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload} worker passed the {DEADLINE_S:.0f} s deadline") from None
    if proc.returncode != 0:
        raise BenchError(f"{workload} worker exited with code {proc.returncode}")
    rec = json.loads(proc.stdout.strip().splitlines()[-1])
    if not rec["exclab"].startswith(str(ROOT / "src")):
        raise BenchError(f"worker imported exclab from {rec['exclab']}, not this checkout")
    rec["wall_s"] = time.perf_counter() - t0
    return rec


def measure(args, deadline) -> tuple[list[dict], list[dict], list[float]]:
    """Repetitions until the next one would end after ``--seconds``."""
    end = time.perf_counter() + args.seconds
    plain, traced = [], []
    while True:
        plain.append(_worker(args.workload, args.seed, False, args.toy, False, deadline))
        step = plain[-1]["wall_s"]
        if args.trace:
            traced.append(_worker(args.workload, args.seed, True, args.toy, False, deadline))
            step += traced[-1]["wall_s"]
        if time.perf_counter() + step > end:
            break
    setups = [r["setup_s"] for r in plain]
    while not args.trace and len(setups) < MIN_SETUPS:
        setups.append(_worker(args.workload, args.seed, False, args.toy, True, deadline)["setup_s"])
    return plain, traced, setups


def end_to_end(plain, setups) -> dict:
    med = statistics.median
    return {
        "run_s": med(r["run_s"] for r in plain),
        "items_per_s": med(r["items"] / r["run_s"] for r in plain),
        "setup_s": med(setups),
        "peak_rss_mb": med(r["peak_rss_mb"] for r in plain),
    }


def per_layer(plain, traced) -> dict:
    for r in traced:
        if r["missing_spans"]:
            raise BenchError(f"spans never fired: {', '.join(r['missing_spans'])}")
    med = statistics.median
    metrics = {k: med(r["layers"][k] for r in traced) for k in traced[0]["layers"]}
    metrics["fail_frac"] = (sum(r["failed"] for r in traced)
                            / sum(r["attempted"] for r in traced))
    metrics["trace.overhead_frac"] = (
        med(r["run_raw_s"] for r in traced) / med(r["run_raw_s"] for r in plain) - 1.0)
    return metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--toy", action="store_true",
                    help="smoke-test size: 3 x 3 grid, one oracle point, ~10 k excursions")
    args = ap.parse_args(argv)
    deadline = time.perf_counter() + DEADLINE_S
    if not (ROOT / "src" / "exclab" / "__init__.py").is_file():
        print(f"error: no exclab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    try:
        plain, traced, setups = measure(args, deadline)
        metrics = per_layer(plain, traced) if args.trace else end_to_end(plain, setups)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    reps = plain + traced
    attempted = sum(r["attempted"] for r in reps)
    failed = sum(r["failed"] for r in reps)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": unit(k)} for k, v in metrics.items()},
    }
    record = {
        "provenance": provenance.collect(args.seed, worker_env()),
        "args": vars(args),
        "setups_s": setups,
        "reps": [{k: v for k, v in r.items() if k != "layers"} for r in reps],
        "result": result,
    }
    path = OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    prov = record["provenance"]
    print(f"# exclab {prov['git_sha'][:12]} dirty={prov['git_dirty']} "
          f"src={prov['src_sha256'][:12]} nproc={prov['nproc']} python={prov['python']} "
          f"numpy={prov['numpy']} blas={prov['blas'].get('blas', {}).get('name')}")
    for r in reps:
        if "layers" in r:
            times = f"traced run_raw_s={r['run_raw_s']:.4f}"
        else:
            times = (f"plain  run_s={r['run_s']:.4f} (raw {r['run_raw_s']:.4f}) "
                     f"setup_s={r['setup_s']:.4f} (raw {r['setup_raw_s']:.4f})")
        print(f"# {times} items={r['items']} failed={r['failed']}/{r['attempted']} "
              f"({r['detail']})")
    print(f"# results written to {path.relative_to(ROOT)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
