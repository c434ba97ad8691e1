#!/usr/bin/env python3
"""Alternating parent/change pairs of the benchmark, written to one JSON file.

    python3 tools/bench_pairs.py --parent ../exclab-parent --change . \
        --pairs 10 --out BENCH_10.json

For every workload in ``BENCHMARK.json`` this runs
``bench/run.py --trace 0`` (seed 1, the spec's ``run_seconds``) in the two
checkouts, ``--pairs`` times each, alternating which side runs first.  It writes, per
workload and end-to-end metric, each side's runs, median and quartiles,
how many pairs the change won (ties count for neither), the relative
median change (change / parent - 1, also printed with the verdicts, so that
a claim can be read against the side bias of two checkouts of the same
code) and three verdicts, with the machine (nproc, Python, numpy) and both
checkouts' git SHAs:

- ``gain``: the change won at least 9 of every 10 pairs, its median is
  better than the parent's by more than the parent's interquartile range,
  and its failed share on the workload is not higher than the parent's;
- ``regression``: the change's median is worse than the parent's by more
  than the metric's relative ``bound`` in ``BENCHMARK.json``;
- ``unresolved``: either side's interquartile range, relative to its
  median, is wider than that bound, and not every run of the change is
  better than every run of the parent.

Per workload it also writes each side's failed and attempted operations
per run and its failed share over all its runs.

Before the runs, each checkout's ``src/``, ``bench/`` and
``BENCHMARK.json`` are copied to ``parent/`` and ``change/`` under one
temporary directory, and the runs measure those copies: two paths of equal
length, so that the checkouts' own paths read as no difference.  The SHAs
come from the checkouts; the staged paths are written with them.

Standard library only; each side measures its own ``src/``.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEED = 1


def _git_sha(checkout: Path) -> str:
    sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=checkout, text=True,
                         capture_output=True).stdout.strip()
    dirty = subprocess.run(["git", "status", "--porcelain", "--", "src", "bench"],
                           cwd=checkout, text=True, capture_output=True).stdout.strip()
    return (sha or "unknown") + ("-dirty" if dirty else "")


def _stage(sides: dict[str, Path], root: Path) -> dict[str, Path]:
    """Copy each side's ``src/``, ``bench/`` and ``BENCHMARK.json`` into
    ``root / side``; side names of equal length give paths of equal length."""
    skip = shutil.ignore_patterns("__pycache__", "*.pyc")
    staged = {}
    for side, checkout in sides.items():
        dest = staged[side] = root / side
        for tree in ("src", "bench"):
            shutil.copytree(checkout / tree, dest / tree, ignore=skip)
        shutil.copy2(checkout / "BENCHMARK.json", dest / "BENCHMARK.json")
    return staged


def _numpy_version() -> str:
    return subprocess.run([sys.executable, "-c", "import numpy; print(numpy.__version__)"],
                          text=True, capture_output=True, check=True).stdout.strip()


def _run(checkout: Path, workload: str, seed: int, seconds: int) -> dict:
    """One ``bench/run.py --trace 0`` run; its last stdout line is the result."""
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, text=True, capture_output=True)
    if proc.returncode != 0:
        raise SystemExit(f"{checkout}: {' '.join(cmd)} exited {proc.returncode}\n"
                         f"{proc.stderr[-2000:]}")
    rec = json.loads(proc.stdout.strip().splitlines()[-1])
    return {
        "correct": rec["correct"], "attempted": rec["attempted"], "failed": rec["failed"],
        "metrics": {k: v["value"] for k, v in rec["metrics"].items()},
    }


def _summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "runs": values}


def _verdicts(parent: dict, change: dict, better: str, bound: float, wins: int) -> dict:
    """``gain``, ``regression`` and ``unresolved`` for one metric from the
    two sides' summaries, which direction is ``better`` and the change's
    pair wins."""
    sign = 1 if better == "lower" else -1
    pairs = len(parent["runs"])
    margin = sign * (parent["median"] - change["median"])
    spread = max((s["q3"] - s["q1"]) / abs(s["median"]) for s in (parent, change))
    separated = max(sign * v for v in change["runs"]) < min(sign * v for v in parent["runs"])
    return {
        "gain": 10 * wins >= 9 * pairs and margin > parent["q3"] - parent["q1"],
        "regression": -margin > bound * abs(parent["median"]),
        "unresolved": spread > bound and not separated,
    }


def _relative_change(parent: dict, change: dict) -> float:
    """The change's median over the parent's, minus one: -0.05 is 5 % lower."""
    return change["median"] / parent["median"] - 1.0


def _report_line(workload: str, name: str, metric: dict) -> str:
    """One metric's verdicts and relative median change, for stderr."""
    verdicts = [k for k in ("gain", "regression", "unresolved") if metric[k]]
    return (f"{workload} {name}: {', '.join(verdicts) or 'flat'}, "
            f"median {metric['relative_change']:+.2%}")


def _failed_share(runs: list[dict]) -> float:
    """The share of one side's attempted operations that failed, over all
    its runs of a workload."""
    attempted = sum(r["attempted"] for r in runs)
    return sum(r["failed"] for r in runs) / attempted if attempted else 0.0


def _workload(name: str, runs: dict, better: dict, bounds: dict) -> dict:
    """One workload's metrics, verdicts and failure counts from both sides'
    runs; no metric is a gain where the change fails a larger share."""
    metrics = {}
    for metric, direction in better.items():
        p = [r["metrics"][metric] for r in runs["parent"]]
        c = [r["metrics"][metric] for r in runs["change"]]
        sign = 1 if direction == "lower" else -1
        wins = sum(sign * (a - b) > 0 for a, b in zip(p, c))
        summary = metrics[metric] = {
            "better": direction,
            "bound": bounds[metric],
            "parent": _summary(p),
            "change": _summary(c),
            "change_wins": wins,
            "parent_wins": sum(sign * (b - a) > 0 for a, b in zip(p, c)),
        }
        summary.update(_verdicts(summary["parent"], summary["change"], direction,
                                 bounds[metric], wins))
        summary["relative_change"] = _relative_change(summary["parent"], summary["change"])
    shares = {s: _failed_share(runs[s]) for s in runs}
    for metric, summary in metrics.items():
        summary["gain"] = summary["gain"] and shares["change"] <= shares["parent"]
        print(_report_line(name, metric, summary), file=sys.stderr)
    return {
        "metrics": metrics,
        "failed": {s: [r["failed"] for r in runs[s]] for s in runs},
        "attempted": {s: [r["attempted"] for r in runs[s]] for s in runs},
        "failed_share": shares,
    }


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", type=Path, required=True, help="parent checkout")
    ap.add_argument("--change", type=Path, required=True, help="changed checkout")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args(argv)
    if args.pairs < 1:
        ap.error("--pairs must be >= 1")

    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    workloads = [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]
    result = {
        "command": "bench/run.py --trace 0",
        "seed": SEED,
        "seconds": seconds,
        "pairs": args.pairs,
        "machine": {"nproc": os.cpu_count(), "python": platform.python_version(),
                    "numpy": _numpy_version(), "platform": platform.platform()},
        "sha": {side: _git_sha(path) for side, path in sides.items()},
        "started": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "workloads": {},
    }
    with tempfile.TemporaryDirectory(prefix="bench_pairs_") as tmp:
        staged = _stage(sides, Path(tmp))
        result["staged"] = {side: str(path) for side, path in staged.items()}
        for workload in workloads:
            runs = {"parent": [], "change": []}
            for i in range(args.pairs):
                order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
                for side in order:
                    runs[side].append(_run(staged[side], workload, SEED, seconds))
                print(f"{workload} pair {i + 1}/{args.pairs}: " + ", ".join(
                    f"{s} run_s={runs[s][-1]['metrics']['run_s']:.4f}" for s in order),
                    file=sys.stderr, flush=True)
            result["workloads"][workload] = _workload(workload, runs, better, bounds)
    result["finished"] = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
    args.out.write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {args.out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
