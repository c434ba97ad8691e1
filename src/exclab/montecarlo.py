"""Trajectory-sampling oracle for excursion statistics.

Exact stochastic simulation (direct method): the chain holds an
exponential time in each state and jumps with probabilities proportional
to the rates.  The generator is numpy's Philox (counter based), seeded
through ``SeedSequence(seed)``; parallel batches draw from
``SeedSequence(seed).spawn(i)`` children with a fixed batch size, so
results are identical for any worker count.

Two sampling paths share the statistics code: :func:`simulate` produces a
single long trajectory which :func:`excursion_filter` segments into
excursion records, and :func:`sample_excursions` draws independent
excursions directly as a vectorized ensemble (excursions of a renewal
cycle are iid, so this is exact and much faster for large counts).

The trajectory path walks only where it must.  :func:`simulate` walks the
jump chain on Python lists, refilling each state's table of next states
from the jump stream in the order the walk needs them, and computes the
holds afterwards as one array from the separate hold stream.
:func:`excursion_filter` finds the visits of the reference state with
``flatnonzero``, sums each excursion's holds in trajectory order with one
vectorised add per position, and tallies every transition with one
``bincount``.  Its records are columnar, :class:`ExcursionRecords` holds
the durations and the ``(K, n, n)`` tally block, and
:meth:`ExcursionSample.from_records` reads them as they are.

The ensemble and the statistics run as array passes too.  The ensemble
loop works on compacted arrays of the excursions still out of A, with the
same draws, in the same order, as a loop over full-size arrays.  The
jackknife evaluates its leave-one-out statistics in slices into one
preallocated array and sums each row with numpy's pairwise sum.

Every one of these reproduces the loop it replaced bit for bit;
``tests/reference_montecarlo.py`` keeps those loops as oracles.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatch, NonIntegerScheme, TooFewRecords
from .excursions import noise_terms
from .markov import RateMatrix, WeightScheme

__all__ = [
    "Trajectory",
    "ExcursionRecords",
    "ExcursionSample",
    "simulate",
    "excursion_filter",
    "sample_excursions",
    "empirical_moments",
    "EmpiricalReport",
    "empirical_outcome_histogram",
    "dump_trajectory",
]

_BATCH = 65536        # ensemble batch size, fixed for reproducibility
_BLOCK = 8192         # trajectory draws per refill, fixed for reproducibility
_FEW_SEGMENTS = 16    # segments that excursion_filter sums one at a time
_DIRECT_BATCHES = 32  # batch-means batches for the direct noise estimate
_JACKKNIFE_SLICE = 16384  # leave-one-out statistics evaluated per slice

# Powers of (largest |weight|, mean cycle time) that give each estimate its
# own scale, and the relative rounding slack on that scale (the slack the
# analytic excursion report allows its variance rails).
_DIMENSIONS = {
    "e_q": (1, 0), "var_q": (2, 0), "e_t": (0, 1), "var_t": (0, 2),
    "cov_qt": (1, 1), "mu": (0, 1), "delta2": (0, 2), "j": (1, -1),
    "d": (2, -1), "j_direct": (1, -1), "d_direct": (2, -1),
}
_ROUNDING = 1e-9


@dataclass(frozen=True)
class Trajectory:
    """Jump chain ``states`` with the residence time ``holds[i]`` spent in
    ``states[i]`` before the jump to ``states[i+1]``; the final hold has no
    following jump."""

    states: np.ndarray
    holds: np.ndarray
    total_time: float


def _cumulative_jump_probs(m: RateMatrix) -> np.ndarray:
    """Row y holds the cumulative jump distribution out of state y."""
    cum = np.cumsum((m.w / m.gamma).T, axis=1)
    cum[:, -1] = 1.0
    return cum


def _walk(states, tables, refill, a_state, steps, returns_left):
    """Extend the jump chain ``states`` by up to ``steps`` jumps.

    ``tables[x]`` holds the unused next states out of ``x``, the next one
    last; ``refill(x)`` supplies a fresh table when it runs dry.  The walk
    stops early at the return to ``a_state`` that brings ``returns_left``
    to zero; the count still missing is returned.
    """
    state = states[-1]
    append = states.append
    for _ in range(steps):
        row = tables[state]
        if not row:
            row = tables[state] = refill(state)
        state = row.pop()
        append(state)
        if state == a_state:
            returns_left -= 1
            if returns_left <= 0:
                break
    return returns_left


def simulate(
    m: RateMatrix,
    seed: int,
    max_time: float | None = None,
    max_excursions: int | None = None,
    a_state: int = 0,
    start_state: int | None = None,
) -> Trajectory:
    """Sample one trajectory, bit-reproducible for a given (model, seed,
    stop) triple.

    Stops once the accumulated time reaches ``max_time`` (the crossing hold
    is kept whole) or once ``max_excursions`` returns to ``a_state`` have
    occurred, whichever is given; after the last return one more hold in
    ``a_state`` is kept, so the final excursion stays complete.
    """
    if max_time is None and max_excursions is None:
        raise ValueError("need max_time or max_excursions")
    if max_excursions is not None and max_excursions < 1:
        raise ValueError(f"max_excursions must be >= 1, got {max_excursions}")
    state = a_state if start_state is None else start_state
    cum = _cumulative_jump_probs(m)
    gamma = m.gamma
    root = np.random.SeedSequence(seed)
    jump_rng, hold_rng = (np.random.Generator(np.random.Philox(s)) for s in root.spawn(2))

    def refill(x):
        u = jump_rng.random(_BLOCK)
        return np.searchsorted(cum[x], u, side="right")[::-1].tolist()

    # Holds are draws from their own stream, taken _BLOCK at a time, divided
    # by the exit rate: the hold of states[i] is draws[i] / gamma[states[i]].
    blocks: list[np.ndarray] = []

    def holds_of(chain: list) -> np.ndarray:
        while len(blocks) * _BLOCK < len(chain):
            blocks.append(hold_rng.standard_exponential(_BLOCK))
        draws = np.concatenate(blocks)[: len(chain)]
        return draws / gamma[np.array(chain, dtype=np.int64)]

    tables: list[list[int]] = [[] for _ in range(m.n)]
    states = [state]
    returns_left = math.inf if max_excursions is None else max_excursions
    if max_time is None:
        _walk(states, tables, refill, a_state, sys.maxsize, returns_left)
    else:
        # Walk in chunks; after each, run the clock over the new holds with
        # one sequential cumsum from where it stood, and cut the chain at
        # the first hold that reaches max_time.  Jumps walked past the cut
        # only draw table entries that no kept state uses.
        t = 0.0
        known = 0
        steps = _BLOCK
        while True:
            returns_left = _walk(states, tables, refill, a_state, steps, returns_left)
            clock = np.cumsum(np.concatenate(([t], holds_of(states)[known:])))[1:]
            crossed = np.flatnonzero(clock >= max_time)
            if crossed.size:
                del states[known + int(crossed[0]) + 1:]
                break
            if returns_left <= 0:
                break
            known, t = len(states), float(clock[-1])
            # about as far again as the clock still has to run, at most double
            steps = int(min(known * (max_time / t - 1.0) * 1.05 + 64, 2 * known))
    holds = holds_of(states)
    return Trajectory(
        states=np.array(states, dtype=np.int64),
        holds=holds,
        total_time=float(np.sum(holds)),
    )


def _sequential_segment_sums(x: np.ndarray, starts: np.ndarray, ends: np.ndarray) -> np.ndarray:
    """``x[starts[k]:ends[k]].sum()`` for every k, added left to right from
    0.0 as a plain loop adds.

    ``np.add.reduceat`` sums pairwise and differences of one cumsum carry
    its rounding, so both move the last bits.  Here the segments, longest
    first, take one vectorised add per position; the few longest finish
    alone with a sequential cumsum, so long segments cost no extra passes.
    """
    lengths = ends - starts
    order = np.argsort(lengths, kind="stable")[::-1]
    first, lengths = starts[order], lengths[order]
    # live[p]: how many segments are longer than p (nonincreasing)
    live = lengths.size - np.cumsum(np.bincount(lengths))
    passes = int(np.count_nonzero(live > _FEW_SEGMENTS))
    acc = np.zeros(lengths.size)
    for pos, n_live in enumerate(live[:passes].tolist()):
        acc[:n_live] += x[first[:n_live] + pos]
    for k in range(np.count_nonzero(lengths > passes)):
        rest = x[first[k] + passes : first[k] + lengths[k]]
        acc[k] = np.cumsum(np.concatenate(([acc[k]], rest)))[-1]
    sums = np.empty_like(acc)
    sums[order] = acc
    return sums


class ExcursionRecords:
    """Read-only columnar excursion records: ``durations (K,)`` and the
    tally block ``counts (K, n, n)`` (int64)."""

    __slots__ = ("durations", "counts")

    def __init__(self, durations: np.ndarray, counts: np.ndarray):
        # read-only views: the caller's own arrays stay writable
        self.durations = durations.view()
        self.counts = counts.view()
        self.durations.flags.writeable = False
        self.counts.flags.writeable = False

    def __len__(self) -> int:
        return self.durations.size


def excursion_filter(
    t: Trajectory, a_state: int = 0, n_states: int | None = None
) -> tuple[ExcursionRecords, np.ndarray]:
    """Segment a trajectory into completed excursions and A residences.

    An excursion runs from a jump out of ``a_state`` to the first return;
    states before the first visit of ``a_state``, and a partial excursion
    at the end of the trajectory, are discarded.  Returns the records and
    the array of residence times in A, one per completed excursion (the
    pairing is exact).  ``n_states`` sets the tally matrix size; by default
    it is inferred from the visited states.

    Vectorised over the visits of A: the durations are summed in
    trajectory order, and one ``bincount`` fills the ``(K, n, n)`` block
    that the records hold as it is.  ``states`` is a jump chain, so no
    state follows itself.
    """
    states = np.asarray(t.states, dtype=np.int64)
    holds = np.asarray(t.holds, dtype=float)
    top = int(states.max())
    n = top + 1 if n_states is None else n_states
    if top >= n:
        raise DimensionMismatch(f"trajectory visits state {top} but n_states={n}")
    visits = np.flatnonzero(states == a_state)
    k = visits.size - 1
    if k < 1:
        empty = ExcursionRecords(np.zeros(0), np.zeros((0, n, n), dtype=np.int64))
        return empty, np.asarray([], dtype=float)
    first, last = visits[0], visits[-1]
    # one code per jump: excursion index, destination and source
    code = states[first + 1 : last + 1] * n
    code += states[first:last]
    code += np.repeat(np.arange(0, k * n * n, n * n), np.diff(visits))
    counts = np.bincount(code, minlength=k * n * n).reshape(k, n, n)
    del code
    durations = _sequential_segment_sums(holds, visits[:-1] + 1, visits[1:])
    return ExcursionRecords(durations, counts), holds[visits[:-1]]


@dataclass(frozen=True)
class ExcursionSample:
    """Struct-of-arrays batch of excursions for one model.

    ``q`` maps scheme name to the per-excursion observable values;
    ``residences`` pairs one A residence with each excursion.
    """

    durations: np.ndarray
    residences: np.ndarray
    q: dict[str, np.ndarray]
    schemes: dict[str, WeightScheme]
    gamma_a: float
    counts: np.ndarray | None = None

    @property
    def n(self) -> int:
        return self.durations.size

    @classmethod
    def from_records(
        cls,
        records: ExcursionRecords,
        residences,
        schemes: dict[str, WeightScheme],
        gamma_a: float,
    ) -> "ExcursionSample":
        """Sample from the columns of filter records, as they are."""
        durations, counts = records.durations, records.counts
        q = {
            name: np.tensordot(counts, s.weights, axes=([1, 2], [0, 1]))
            for name, s in schemes.items()
        }
        res = np.asarray(residences, dtype=float)[: len(records)]
        return cls(
            durations=durations,
            residences=res,
            q=q,
            schemes=dict(schemes),
            gamma_a=gamma_a,
            counts=counts,
        )


def _sample_batch(
    m: RateMatrix,
    a_state: int,
    schemes: dict[str, WeightScheme],
    n: int,
    seed_seq: np.random.SeedSequence,
    keep_counts: bool,
):
    """Vectorized ensemble of ``n`` independent excursions.

    The loop works on compacted arrays of the excursions still out of A:
    their indices ``idx``, states ``s``, durations and one accumulator per
    scheme.  Excursions that return are written back, and the rest are
    kept with one index.  Each step draws ``standard_exponential(m)`` then
    ``random(m)`` for the m excursions still out, in index order, and adds
    in the same order as a full-size loop, so the sums are the same.
    """
    rng = np.random.Generator(np.random.Philox(seed_seq))
    cum = _cumulative_jump_probs(m)
    gamma = m.gamma
    k = m.n
    names = list(schemes)
    flat = [schemes[name].weights.reshape(-1) for name in names]
    # cum[:, j] for every column but the last, which is 1.0 > u exactly
    columns = [np.ascontiguousarray(cum[:, j]) for j in range(k - 1)]

    residences = rng.standard_exponential(n) / gamma[a_state]
    u = rng.random(n)
    state = np.searchsorted(cum[a_state], u, side="right")
    durations = np.zeros(n)
    code = state * k + a_state
    q = [w[code] for w in flat]
    counts = np.zeros((n, k, k), dtype=np.int32) if keep_counts else None
    tally = None if counts is None else counts.reshape(n, k * k)
    if tally is not None:
        tally[np.arange(n), code] = 1

    idx = np.flatnonzero(state != a_state)
    s = state[idx]
    dur = np.zeros(idx.size)
    acc = [qk[idx] for qk in q]
    while idx.size:
        dur += rng.standard_exponential(idx.size) / gamma[s]
        u = rng.random(idx.size)
        nxt = np.zeros(idx.size, dtype=np.intp)
        for col in columns:
            nxt += col[s] <= u
        code = nxt * k + s
        for a, w in zip(acc, flat):
            a += w[code]
        if tally is not None:
            tally[idx, code] += 1  # one entry per excursion, so no repeats
        back = np.flatnonzero(nxt == a_state)
        if back.size:
            done = idx[back]
            durations[done] = dur[back]
            for qk, a in zip(q, acc):
                qk[done] = a[back]
            keep = np.flatnonzero(nxt != a_state)
            idx, dur, acc = idx[keep], dur[keep], [a[keep] for a in acc]
            nxt = nxt[keep]
        s = nxt
    return durations, residences, dict(zip(names, q)), counts


def sample_excursions(
    m: RateMatrix,
    schemes: dict[str, WeightScheme],
    n_excursions: int,
    seed: int,
    a_state: int = 0,
    workers: int = 1,
    keep_counts: bool = False,
) -> ExcursionSample:
    """Draw ``n_excursions`` iid excursions with per-scheme observables.

    Work is split into fixed-size batches with independent spawned RNG
    streams; batches are concatenated in index order, so the result is
    identical for any ``workers`` value.
    """
    if n_excursions < 1:
        raise ValueError(f"n_excursions must be >= 1, got {n_excursions}")
    for s in schemes.values():
        if s.n != m.n:
            raise DimensionMismatch("scheme dimension does not match chain")
    sizes = [_BATCH] * (n_excursions // _BATCH)
    if n_excursions % _BATCH:
        sizes.append(n_excursions % _BATCH)
    children = np.random.SeedSequence(seed).spawn(len(sizes))
    args = [(m, a_state, schemes, sz, ss, keep_counts) for sz, ss in zip(sizes, children)]
    if workers > 1 and len(sizes) > 1:
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(_sample_batch_star, args))
    else:
        parts = [_sample_batch(*a) for a in args]
    durations = np.concatenate([p[0] for p in parts])
    residences = np.concatenate([p[1] for p in parts])
    q = {
        k: np.concatenate([p[2][k] for p in parts]) for k in schemes
    }
    counts = np.concatenate([p[3] for p in parts]) if keep_counts else None
    return ExcursionSample(
        durations=durations, residences=residences, q=q,
        schemes=dict(schemes), gamma_a=float(m.gamma[a_state]), counts=counts,
    )


def _sample_batch_star(args):
    return _sample_batch(*args)


@dataclass(frozen=True)
class EmpiricalReport:
    """Point estimates with jackknife standard errors, keyed by the same
    names as the analytic excursion report, plus the long-run direct
    estimates of the current and noise.  ``scales`` gives each estimate's
    natural magnitude, from the scheme's weights and the cycle time."""

    estimates: dict[str, tuple[float, float]]
    n: int
    scales: dict[str, float] = field(default_factory=dict)

    def value(self, key: str) -> float:
        return self.estimates[key][0]

    def se(self, key: str) -> float:
        return self.estimates[key][1]

    def z(self, key: str, analytic: float) -> float:
        """(estimate - analytic) / se.  A sample without spread (se = 0)
        gives 0 when it matches ``analytic`` to rounding on the estimate's
        scale, as at equilibrium where both are zero up to rounding, and
        inf otherwise."""
        v, se = self.estimates[key]
        if se > 0:
            return (v - analytic) / se
        floor = _ROUNDING * self.scales.get(key, 0.0)
        return 0.0 if v == analytic or abs(v - analytic) <= floor else np.inf


def _jackknife(stats_fn, cols: list[np.ndarray]):
    """Delete-1 jackknife of statistics that are smooth functions of the
    sample means of ``cols``; evaluated in O(n) by leave-one-out means.

    The leave-one-out statistics are evaluated ``_JACKKNIFE_SLICE``
    excursions at a time into one ``(k, n)`` array, whose contiguous rows
    are then centred, squared and summed in place (numpy's pairwise sum,
    as on a full-size temporary).
    """
    n = cols[0].size
    means = [c.mean() for c in cols]
    theta = stats_fn(*means)
    theta_i = np.empty((len(theta), n))
    for lo in range(0, n, _JACKKNIFE_SLICE):
        hi = min(lo + _JACKKNIFE_SLICE, n)
        loo = [(n * mu - c[lo:hi]) / (n - 1) for mu, c in zip(means, cols)]
        for row, v in zip(theta_i, stats_fn(*loo)):
            row[lo:hi] = v
    ses = []
    for ti in theta_i:
        ti -= ti.mean()
        ti *= ti
        ses.append(float(np.sqrt((n - 1) / n * np.sum(ti))))
    return theta, ses


def empirical_moments(
    sample: ExcursionSample, scheme_name: str
) -> EmpiricalReport:
    """Sample moments, current and noise for one scheme with jackknife
    standard errors; the direct long-run estimates come from 32 contiguous
    batch means.

    Raises TooFewRecords below 64 excursions (two per direct batch).
    """
    if scheme_name not in sample.q:
        raise KeyError(f"scheme {scheme_name!r} not in sample")
    n = sample.n
    if n < 2:
        raise TooFewRecords("need at least 2 excursions")
    if n < 2 * _DIRECT_BATCHES:
        raise TooFewRecords(
            f"need at least {2 * _DIRECT_BATCHES} excursions for the "
            f"{_DIRECT_BATCHES}-batch direct noise estimate, got {n}"
        )
    qv = sample.q[scheme_name]
    t = sample.durations
    tau = sample.residences
    cols = [qv, qv * qv, t, t * t, qv * t, tau, tau * tau]

    def stats(m_q, m_q2, m_t, m_t2, m_qt, m_tau, m_tau2):
        var_q = m_q2 - m_q**2
        var_t = m_t2 - m_t**2
        cov_qt = m_qt - m_q * m_t
        mu = m_t + m_tau
        delta2 = var_t + (m_tau2 - m_tau**2)
        j = m_q / mu
        d1, d2, d3 = noise_terms(var_q, m_q, cov_qt, mu, delta2)
        return m_q, var_q, m_t, var_t, cov_qt, mu, delta2, j, d1 + d2 + d3

    keys = ["e_q", "var_q", "e_t", "var_t", "cov_qt", "mu", "delta2", "j", "d"]
    theta, ses = _jackknife(stats, cols)
    estimates = {k: (float(v), s) for k, v, s in zip(keys, theta, ses)}

    # direct long-run estimators over contiguous batches
    cyc = t + tau
    edges = np.linspace(0, n, _DIRECT_BATCHES + 1).astype(int)
    qb = np.add.reduceat(qv, edges[:-1])
    tb = np.add.reduceat(cyc, edges[:-1])
    j_direct = float(qv.sum() / cyc.sum())
    jb = qb / tb
    k = _DIRECT_BATCHES
    d_direct = float(np.sum(tb * (jb - j_direct) ** 2) / (k - 1))
    se_j = float(np.sqrt(max(d_direct, 0.0) / cyc.sum()))
    se_d = d_direct * np.sqrt(2.0 / (k - 1))
    estimates["j_direct"] = (j_direct, se_j)
    estimates["d_direct"] = (d_direct, se_d)
    w_max = sample.schemes[scheme_name].max_abs_weight()
    mu = estimates["mu"][0]
    scales = {k: w_max**a * mu**b for k, (a, b) in _DIMENSIONS.items()}
    return EmpiricalReport(estimates=estimates, n=n, scales=scales)


def empirical_outcome_histogram(sample: ExcursionSample, scheme_name: str):
    """Normalized outcome frequencies with multinomial standard errors.

    Returns ``(qs, freqs, ses)`` over the observed integer support.
    """
    scheme = sample.schemes[scheme_name]
    if not scheme.integer_valued:
        raise NonIntegerScheme("histogram needs an integer-valued scheme")
    vals = np.rint(sample.q[scheme_name]).astype(np.int64)
    n = vals.size
    if n < 1:
        raise TooFewRecords("empty sample")
    qs, counts = np.unique(vals, return_counts=True)
    freqs = counts / n
    ses = np.sqrt(freqs * (1.0 - freqs) / n)
    return qs, freqs, ses


def dump_trajectory(t: Trajectory, path, labels=None) -> None:
    """Write one line per jump: tab-separated time, source and destination.

    The jump times are a sequential cumsum of the holds, so each equals the
    running sum ``clock += hold`` to the last bit, and prints as its repr.
    """
    states = np.asarray(t.states).tolist()
    clock = np.cumsum(np.asarray(t.holds, dtype=float)[: len(states) - 1]).tolist()
    names = range(max(states, default=-1) + 1) if labels is None else labels
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("".join(
            f"{c!r}\t{names[src]}\t{names[dst]}\n"
            for c, src, dst in zip(clock, states, states[1:])
        ))
