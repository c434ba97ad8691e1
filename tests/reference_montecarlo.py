"""Reference implementations of the Monte Carlo loops, kept verbatim as
oracles:

- the per-jump ``simulate``, ``excursion_filter`` and ``dump_trajectory``
  that exclab shipped before the trajectory loops were vectorised;
- the list-building vectorised filter (``excursion_filter_list``) and
  ``from_records`` that stacked the records' tallies again;
- the full-size ensemble loop (``sample_excursions``, serial, over
  ``_sample_batch``) that gathered from and scattered to full-size arrays
  each step, and the jackknife over full-size leave-one-out temporaries
  (``empirical_moments``).

The library versions must reproduce them bit for bit: same states, holds,
total time, durations, tallies, residences, observables, estimates and dump
bytes.  Comparing with these loops, rather than with pinned digests, keeps
the tests valid across numpy releases that change a random stream.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from exclab.errors import DimensionMismatch, TooFewRecords
from exclab.excursions import noise_terms
from exclab.markov import RateMatrix, WeightScheme
from exclab.montecarlo import (
    _BATCH,
    _DIMENSIONS,
    _DIRECT_BATCHES,
    EmpiricalReport,
    ExcursionSample,
    Trajectory,
    _cumulative_jump_probs,
    _sequential_segment_sums,
)


@dataclass
class ExcursionRecord:
    """One excursion: duration in B and the per-transition tally
    ``counts[x, y]`` (entry and exit jumps included)."""

    duration: float
    counts: np.ndarray


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
    occurred, whichever is given.
    """
    if max_time is None and max_excursions is None:
        raise ValueError("need max_time or max_excursions")
    state = a_state if start_state is None else start_state
    cum = _cumulative_jump_probs(m)
    gamma = m.gamma
    root = np.random.SeedSequence(seed)
    jump_rng, hold_rng = (np.random.Generator(np.random.Philox(s)) for s in root.spawn(2))

    block = 8192
    next_blocks = [np.empty(0, dtype=np.int64)] * m.n
    next_ptr = [0] * m.n
    hold_block = np.empty(0)
    hold_ptr = 0

    states = [state]
    holds: list[float] = []
    t = 0.0
    returns = 0
    while True:
        if hold_ptr >= hold_block.size:
            hold_block = hold_rng.standard_exponential(block)
            hold_ptr = 0
        tau = hold_block[hold_ptr] / gamma[state]
        hold_ptr += 1
        holds.append(tau)
        t += tau
        if max_time is not None and t >= max_time:
            break
        if next_ptr[state] >= next_blocks[state].size:
            u = jump_rng.random(block)
            next_blocks[state] = np.searchsorted(cum[state], u, side="right")
            next_ptr[state] = 0
        new_state = int(next_blocks[state][next_ptr[state]])
        next_ptr[state] += 1
        state = new_state
        states.append(state)
        if state == a_state:
            returns += 1
            if max_excursions is not None and returns >= max_excursions:
                # trailing hold in A so the final excursion stays complete
                if hold_ptr >= hold_block.size:
                    hold_block = hold_rng.standard_exponential(block)
                    hold_ptr = 0
                tau = hold_block[hold_ptr] / gamma[state]
                holds.append(tau)
                t += tau
                break
    return Trajectory(
        states=np.asarray(states, dtype=np.int64),
        holds=np.asarray(holds, dtype=float),
        total_time=float(np.sum(holds)),
    )


def excursion_filter(
    t: Trajectory, a_state: int = 0, n_states: int | None = None
) -> tuple[list[ExcursionRecord], np.ndarray]:
    """Segment a trajectory into completed excursions and A residences.

    An excursion runs from a jump out of ``a_state`` to the first return;
    a partial excursion at the end of the trajectory is discarded.  Returns
    the records and the array of residence times in A, one per completed
    excursion (the pairing is exact).  ``n_states`` sets the tally matrix
    size; by default it is inferred from the visited states.
    """
    n = int(t.states.max()) + 1 if n_states is None else n_states
    records: list[ExcursionRecord] = []
    residences: list[float] = []
    i = 0
    nstates = len(t.states)
    while i < nstates:
        if t.states[i] != a_state:
            i += 1
            continue
        if i + 1 >= nstates:
            break
        residences.append(float(t.holds[i]))
        counts = np.zeros((n, n), dtype=np.int64)
        counts[t.states[i + 1], a_state] += 1
        duration = 0.0
        j = i + 1
        closed = False
        while j + 1 < nstates:
            duration += float(t.holds[j])
            counts[t.states[j + 1], t.states[j]] += 1
            if t.states[j + 1] == a_state:
                closed = True
                break
            j += 1
        if closed:
            records.append(ExcursionRecord(duration=duration, counts=counts))
        else:
            residences.pop()  # unmatched residence before a partial excursion
            break
        i = j + 1
    return records, np.asarray(residences, dtype=float)


def dump_trajectory(t: Trajectory, path, labels=None) -> None:
    """Write one line per jump: tab-separated time, source and destination."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        clock = 0.0
        for i in range(len(t.states) - 1):
            clock += float(t.holds[i])
            src, dst = int(t.states[i]), int(t.states[i + 1])
            if labels is not None:
                fh.write(f"{clock!r}\t{labels[src]}\t{labels[dst]}\n")
            else:
                fh.write(f"{clock!r}\t{src}\t{dst}\n")


def excursion_filter_list(
    t: Trajectory, a_state: int = 0, n_states: int | None = None
) -> tuple[list[ExcursionRecord], np.ndarray]:
    """The vectorised filter that returned one ``ExcursionRecord`` per
    excursion in a list."""
    states = np.asarray(t.states, dtype=np.int64)
    holds = np.asarray(t.holds, dtype=float)
    top = int(states.max())
    n = top + 1 if n_states is None else n_states
    if top >= n:
        raise DimensionMismatch(f"trajectory visits state {top} but n_states={n}")
    visits = np.flatnonzero(states == a_state)
    k = visits.size - 1
    if k < 1:
        return [], np.asarray([], dtype=float)
    first, last = visits[0], visits[-1]
    # one code per jump: excursion index, destination and source
    code = states[first + 1 : last + 1] * n
    code += states[first:last]
    code += np.repeat(np.arange(0, k * n * n, n * n), np.diff(visits))
    counts = np.bincount(code, minlength=k * n * n).reshape(k, n, n)
    del code
    durations = _sequential_segment_sums(holds, visits[:-1] + 1, visits[1:])
    records = [
        ExcursionRecord(d, c)
        for d, c in zip(durations.tolist(), counts)
    ]
    return records, holds[visits[:-1]]


def from_records(
    records: list[ExcursionRecord],
    residences,
    schemes: dict[str, WeightScheme],
    gamma_a: float,
) -> ExcursionSample:
    """``ExcursionSample.from_records`` as it stacked a list of records."""
    counts = np.stack([r.counts for r in records])
    q = {
        name: np.tensordot(counts, s.weights, axes=([1, 2], [0, 1]))
        for name, s in schemes.items()
    }
    res = np.asarray(residences, dtype=float)[: len(records)]
    return ExcursionSample(
        durations=np.array([r.duration for r in records]),
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
    """Vectorized ensemble of ``n`` independent excursions."""
    rng = np.random.Generator(np.random.Philox(seed_seq))
    cum = _cumulative_jump_probs(m)
    gamma = m.gamma
    names = list(schemes)
    nus = [schemes[k].weights for k in names]

    residences = rng.standard_exponential(n) / gamma[a_state]
    u = rng.random(n)
    state = np.searchsorted(cum[a_state], u, side="right")
    durations = np.zeros(n)
    q = [nu[state, a_state].copy() for nu in nus]
    counts = np.zeros((n, m.n, m.n), dtype=np.int32) if keep_counts else None
    if counts is not None:
        np.add.at(counts, (np.arange(n), state, a_state), 1)

    active = np.nonzero(state != a_state)[0]
    while active.size:
        s = state[active]
        durations[active] += rng.standard_exponential(active.size) / gamma[s]
        u = rng.random(active.size)
        nxt = (cum[s] <= u[:, None]).sum(axis=1)
        for k, nu in enumerate(nus):
            q[k][active] += nu[nxt, s]
        if counts is not None:
            np.add.at(counts, (active, nxt, s), 1)
        state[active] = nxt
        active = active[nxt != a_state]
    return durations, residences, {k: q[i] for i, k in enumerate(names)}, counts


def sample_excursions(
    m: RateMatrix,
    schemes: dict[str, WeightScheme],
    n_excursions: int,
    seed: int,
    a_state: int = 0,
    keep_counts: bool = False,
) -> ExcursionSample:
    """The serial path of ``sample_excursions`` over the full-size loop:
    fixed-size batches with spawned streams, concatenated in index order."""
    sizes = [_BATCH] * (n_excursions // _BATCH)
    if n_excursions % _BATCH:
        sizes.append(n_excursions % _BATCH)
    children = np.random.SeedSequence(seed).spawn(len(sizes))
    args = [(m, a_state, schemes, sz, ss, keep_counts) for sz, ss in zip(sizes, children)]
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


def _jackknife(stats_fn, cols: list[np.ndarray]):
    """Delete-1 jackknife of statistics that are smooth functions of the
    sample means of ``cols``; evaluated in O(n) by leave-one-out means."""
    n = cols[0].size
    means = [c.mean() for c in cols]
    theta = stats_fn(*means)
    loo = [(n * mu - c) / (n - 1) for mu, c in zip(means, cols)]
    theta_i = stats_fn(*loo)
    ses = []
    for t, ti in zip(theta, theta_i):
        ti = np.asarray(ti)
        ses.append(float(np.sqrt((n - 1) / n * np.sum((ti - ti.mean()) ** 2))))
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
