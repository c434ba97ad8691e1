"""Span tracing of exclab's layers from outside the library.

Each traced function is rebound to a timing wrapper in every loaded
``exclab`` module that holds it by name (``from .x import f`` copies the
binding), in the extra modules given, and, for the kernels, in
``numpy.linalg``.  Spans stay in memory as
``[name, parent, request, start, end, volume]`` and are written out after the
timed region.  A span's self time is its duration minus that of its direct
children; calls are single-threaded, so children never overlap.
"""
from __future__ import annotations

import functools
import importlib
import os
import sys
import time

import numpy as np

# (module, attribute) of every traced exclab function, in report order
LAYERS = (
    ("dqd", "build_model"),
    ("markov", "validate_rate_matrix"),
    ("markov", "steady_state"),
    ("markov", "fcs_current_noise"),
    ("excursions", "partition"),
    ("excursions", "time_moments"),
    ("excursions", "observable_moments"),
    ("excursions", "excursion_report"),
    ("excursions", "excess_time"),
    ("excursions", "finite_difference_moments"),
    ("excursions", "outcome_distribution"),
    ("observables", "transport_weights"),
    ("observables", "activity_weights"),
    ("observables", "entropy_weights"),
    ("observables", "populations"),
    ("observables", "mutual_information"),
    ("observables", "success_fail_disaster"),
    ("observables", "blockade_analytics"),
    ("montecarlo", "sample_excursions"),
    ("montecarlo", "simulate"),
    ("montecarlo", "excursion_filter"),
    ("montecarlo", "ExcursionSample.from_records"),
    ("montecarlo", "empirical_moments"),
    ("sweep", "sweep_rows"),
    ("sweep", "compute_row"),
    ("sweep", "write_csv"),
)
KERNELS = ("solve", "eigvals")

# work volume recorded on each span: (args, kwargs, result) -> count
_VOLUME = {
    "numpy.linalg.solve": lambda a, k, out: int(np.prod(np.shape(a[0])[:-2])),
    "montecarlo.simulate": lambda a, k, out: len(out.states) - 1,
    "montecarlo.excursion_filter": lambda a, k, out: len(a[0].states) - 1,
    "montecarlo.sample_excursions": lambda a, k, out: out.n,
    "sweep.write_csv": lambda a, k, out: os.path.getsize(a[1]),
}
# spans that open a new request id; every other span inherits its parent's
_REQUESTS = {"sweep.compute_row", "bench.oracle_point"}


class Tracer:
    def __init__(self):
        self.active = False
        self.spans: list[list] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        volume = _VOLUME.get(name)
        new_request = name in _REQUESTS

        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            idx = len(spans)
            parent = stack[-1] if stack else -1
            request = idx if new_request or parent < 0 else spans[parent][2]
            span = [name, parent, request, 0.0, 0.0, 0]
            spans.append(span)
            stack.append(idx)
            span[3] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[4] = clock()
                stack.pop()
            if volume is not None:
                span[5] = volume(args, kwargs, out)
            return out

        return functools.wraps(fn)(traced)

    def install(self, extra_modules=()):
        """Rebind every traced function and kernel to its wrapper."""
        for mod_name, attr in LAYERS:
            module = importlib.import_module(f"exclab.{mod_name}")
            name = f"{mod_name}.{attr}"
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                func = cls.__dict__[meth].__func__
                setattr(cls, meth, classmethod(self.wrap(name, func)))
                continue
            fn = getattr(module, attr)
            traced = self.wrap(name, fn)
            holders = [m for k, m in list(sys.modules.items())
                       if k == "exclab" or k.startswith("exclab.")]
            for holder in holders + list(extra_modules):
                for key, value in list(vars(holder).items()):
                    if value is fn:
                        setattr(holder, key, traced)
        for kernel in KERNELS:
            setattr(np.linalg, kernel,
                    self.wrap(f"numpy.linalg.{kernel}", getattr(np.linalg, kernel)))

    def summary(self) -> dict:
        """Per-name calls, self time, inclusive time and volume."""
        child = [0.0] * len(self.spans)
        for _, parent, _, t0, t1, _ in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        out: dict[str, dict] = {}
        for i, (name, _, _, t0, t1, vol) in enumerate(self.spans):
            s = out.setdefault(name, {"calls": 0, "self_s": 0.0, "incl_s": 0.0, "volume": 0})
            s["calls"] += 1
            s["self_s"] += (t1 - t0) - child[i]
            s["incl_s"] += t1 - t0
            s["volume"] += vol
        return out

    def children_volumes(self, parent_name: str, child_name: str) -> list[list[int]]:
        """For each span named ``parent_name``, the volumes of its direct
        children named ``child_name``, in call order."""
        index = {i: [] for i, s in enumerate(self.spans) if s[0] == parent_name}
        for name, parent, _, _, _, vol in self.spans:
            if name == child_name and parent in index:
                index[parent].append(vol)
        return list(index.values())

    def write(self, path: str, header: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(header + "\n")
            fh.write("id\tname\tparent\trequest\tstart\tend\tvolume\n")
            for i, (name, parent, request, t0, t1, vol) in enumerate(self.spans):
                fh.write(f"{i}\t{name}\t{parent}\t{request}\t{t0!r}\t{t1!r}\t{vol}\n")


def layer_metrics(tracer: Tracer) -> dict:
    """Every per-layer metric of one traced run, as ``{name: value}``."""
    summ = tracer.summary()

    def get(name, key):
        return summ.get(name, {}).get(key, 0)

    def ratio(num, den):
        return num / den if den else 0.0

    metrics = {}
    for mod_name, attr in LAYERS:
        name = f"{mod_name}.{attr}"
        metrics[f"{name}.calls"] = get(name, "calls")
        metrics[f"{name}.self_s"] = get(name, "self_s")
    metrics["numpy.linalg.solve.calls"] = get("numpy.linalg.solve", "calls")
    metrics["numpy.linalg.solve.systems"] = get("numpy.linalg.solve", "volume")
    metrics["numpy.linalg.solve.self_s"] = get("numpy.linalg.solve", "self_s")
    metrics["numpy.linalg.eigvals.calls"] = get("numpy.linalg.eigvals", "calls")
    for name, unit in (("montecarlo.simulate", "jumps"),
                       ("montecarlo.excursion_filter", "jumps"),
                       ("montecarlo.sample_excursions", "excursions")):
        metrics[f"{name}.{unit}_per_s"] = ratio(get(name, "volume"), get(name, "incl_s"))
    grids = tracer.children_volumes("excursions.outcome_distribution", "numpy.linalg.solve")
    metrics["excursions.outcome_distribution.useful_frac"] = ratio(
        sum(g[-1] for g in grids if g), sum(sum(g) for g in grids))
    fd = "excursions.finite_difference_moments"
    metrics[f"{fd}.solves_per_call"] = ratio(
        sum(len(g) for g in tracer.children_volumes(fd, "numpy.linalg.solve")),
        get(fd, "calls"))
    metrics["sweep.write_csv.bytes"] = get("sweep.write_csv", "volume")
    return metrics


def missing_spans(tracer: Tracer, expected) -> list[str]:
    fired = {s[0] for s in tracer.spans}
    return [name for name in expected if name not in fired]
