"""Reference implementations of the trajectory loops: the per-jump
``simulate``, ``excursion_filter`` and ``dump_trajectory`` that exclab
shipped before the loops were vectorised, kept verbatim as oracles.

The library versions must reproduce them bit for bit: same states, holds,
total time, durations, tallies, residences and dump bytes.  Comparing with
these loops, rather than with pinned digests, keeps the tests valid across
numpy releases that change a random stream.
"""
from __future__ import annotations

import numpy as np

from exclab.markov import RateMatrix
from exclab.montecarlo import ExcursionRecord, Trajectory, _cumulative_jump_probs


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
