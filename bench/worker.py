"""One benchmark process: set up one workload, run it once, check it.

Usage: python3 bench/worker.py WORKLOAD SEED TRACE TOY SETUP_ONLY SCRATCH SPAWNED

Prints one JSON line.  ``SPAWNED`` is the parent's ``time.perf_counter()``
reading just before it started this process; on Linux that clock is
CLOCK_MONOTONIC, shared by all processes.  A plain (untraced) worker runs
the host-speed probe from its first import to the end of the timed call
and reports set-up and run time both raw and scaled to the reference speed
(``probe.py``).  The parent puts the checkout's ``src`` first on
``PYTHONPATH``.
"""
from __future__ import annotations

import sys

import probe as speed

if __name__ == "__main__" and sys.argv[3] == "0":
    _PROBE = speed.Probe()
    _PROBE.start()

import json
import os
import resource
import shutil
import tempfile
import time
import traceback

import exclab
import provenance
import tracer as tracing
import workloads


def _timings(spawned: float, ready: float, run) -> dict:
    """Set-up and run time, raw and scaled, with the probe readings."""
    rec = {}
    rec["setup_raw_s"], rec["setup_s"] = _PROBE.scaled(spawned, ready)
    if run is not None:
        rec["run_raw_s"], rec["run_s"] = _PROBE.scaled(*run)
    probes = sorted(_PROBE.probe_s())
    rec["probes"] = len(probes)
    rec["probe_median_s"] = probes[len(probes) // 2]
    return rec


def main(argv) -> int:
    workload, seed, trace, toy, setup_only, scratch, spawned = argv
    seed, trace, toy, setup_only = int(seed), trace == "1", toy == "1", setup_only == "1"
    spawned = float(spawned)
    prepare, run, check = workloads.WORKLOADS[workload]
    tracer = tracing.Tracer()
    if trace:
        tracer.install(extra_modules=[workloads])
        workloads.oracle_point = tracer.wrap("bench.oracle_point", workloads.oracle_point)
    tmp = tempfile.mkdtemp(prefix=f"{workload}-", dir=scratch)
    try:
        state = prepare(seed, toy, tmp)
        ready = time.perf_counter()
        rec = {"exclab": exclab.__file__}
        if setup_only:
            _PROBE.stop()
            rec.update(_timings(spawned, ready, None))
            print(json.dumps(rec))
            return 0
        tracer.active = trace
        t0 = time.perf_counter()
        try:
            out = run(state)
            error = None
        except Exception:
            error = traceback.format_exc()
        t1 = time.perf_counter()
        tracer.active = False
        if not trace:
            _PROBE.stop()
        rec.update(_timings(spawned, ready, (t0, t1)) if not trace
                   else {"setup_raw_s": ready - spawned, "run_raw_s": t1 - t0})
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if error is None:
            items, attempted, failed, detail = check(state, out)
        else:
            print(error, file=sys.stderr)
            items, attempted, failed = 0, state["ops"], state["ops"]
            detail = error.strip().splitlines()[-1]
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    rec.update(
        items=items, attempted=attempted, failed=failed,
        detail=detail, peak_rss_mb=rss_mb,
    )
    if trace:
        missing = tracing.missing_spans(tracer, workloads.EXPECTED_SPANS[workload])
        rec["missing_spans"] = missing
        rec["layers"] = tracing.layer_metrics(tracer)
        summ = tracer.summary()
        top = max((s["incl_s"] for s in summ.values()), default=0.0)
        rec["top_span_frac"] = top / rec["run_raw_s"]
        header = dict(provenance.collect(seed), workload=workload, toy=toy,
                      run_s=rec["run_raw_s"])
        tracer.write(os.path.join(scratch, f"spans-{workload}.tsv"), "# " + json.dumps(header))
    print(json.dumps(rec))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
