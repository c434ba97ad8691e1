"""Trajectory-sampling oracle for excursion statistics.

Exact stochastic simulation (direct method): the chain holds an
exponential time in each state and jumps with probabilities proportional
to the rates.  The generator is numpy's Philox (counter based), seeded
through ``SeedSequence(seed)``; parallel batches draw from
``SeedSequence(seed).spawn(i)`` children with a fixed batch size, so
results are identical for any worker count.

Both sampling paths ask for a number of excursions and share the
statistics code: :func:`simulate` produces a single long trajectory from
the reference state to its given number of returns there, which
:func:`excursion_filter` segments into excursion records, and
:func:`sample_excursions` draws that many independent excursions
directly as a vectorized ensemble of durations, residences and
observables (excursions of a renewal cycle are iid, so this is exact and
much faster for large counts).

The trajectory path walks only where it must and holds each full-size
array once.  :func:`simulate` walks the jump chain as bytes up to the
last return, each state taking its next states from a queue that draws
them from the jump stream when the walk first needs one; the walked
bytes are the trajectory's states, one byte per jump with no wider copy.
The holds are drawn where they are read: the trajectory keeps the
separate hold stream's seed sequence and the exit rates, and
:func:`excursion_filter` and :func:`dump_trajectory` redraw the stream
block by block, each block divided in place by its states' exit rates,
so no full-size hold array is formed unless ``holds`` or ``total_time``
is read (8 bytes per jump, cached).  :func:`excursion_filter` reads the
states at the width it is given, finds the visits of the reference state
with ``flatnonzero``, sums each excursion's holds in trajectory order
across the blocks with one vectorised add per position, and keeps one
jump code ``dest * n + src`` per jump, one byte wide for up to 16
states, with the visits' offsets into the codes.  Its records are
columnar and have that one form: :class:`ExcursionRecords` holds the
durations, the codes and the visits, and
:meth:`ExcursionSample.from_records` tallies ``_SLICE`` excursions at a
time with one ``bincount`` and fills that slice of each ``q`` column.
The records' ``(K, n, n)`` ``counts`` block is formed from the same
slices only when it is read.

A unit count, a scheme of integer weights with |w| <= 1 such as the
charge current and the dynamical activity, is an integer per excursion:
both samplers accumulate and store it as int32, 4 bytes per excursion,
and every other scheme as float64.  An int32 count moves by at most 1 per
jump, so an excursion of more jumps than ``_COUNT_MAX`` raises
CountOverflow: the ensemble loop checks its step count, and
:meth:`ExcursionSample.from_records` the longest excursion.  The
statistics widen an int32 count to float64 one slice at a time before any
product; its sums are exact, so every estimate is the float64 column's.

The ensemble and the statistics run as array passes too.  The ensemble
loop works on compacted arrays of the excursions still out of A, with the
same draws, in the same order, as a loop over full-size arrays; each jump
is one lookup in a constant table over (state, bin of u), and only the
jumps that land in a bin a threshold splits compare against the
thresholds.  On the serial path each batch is written straight into its
slice of the preallocated outputs; a pooled batch is copied there in index
order as it returns.  The jackknife is a two-pass stream over slices of
``_JACKKNIFE_SLICE`` excursions: :func:`_tree_sum` splits a range the way
numpy's pairwise sum splits a contiguous float64 row, so the sums of the
slices, added back up the tree, are ``np.sum`` of the whole row to the
last bit.  Pass 1 sums the leave-one-out statistics for their means; pass
2 recomputes them, centres, squares and sums again, so no full-size row or
product column (q*q, q*t, ...) is formed.  The leave-one-out rows are
formed, and the statistics computed, centred and squared, in place.
One jackknife per sample serves every scheme:
:attr:`ExcursionSample.moments` evaluates the duration statistics once per
slice and then the five rows of each scheme in ``q``, and caches them with
the direct batches' cycle times.  A sample's arrays and its ``q`` mapping
are read-only, so the cache cannot go stale.

Every one of these reproduces the loop it replaced bit for bit (the ``q``
of :meth:`ExcursionSample.from_records` as a one-thread BLAS computes the
unsliced call, and an int32 count after widening);
``tests/reference_montecarlo.py`` keeps those loops as oracles.
"""
from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain, islice, repeat
from types import MappingProxyType
from typing import NamedTuple

import numpy as np

from .errors import (BadPartition, CountOverflow, DimensionMismatch, NonIntegerScheme,
                     TooFewRecords, TooManyStates)
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
_BINS = 256           # ensemble code-table bins per state; u * 256 is exact
_BLOCK = 8192         # trajectory draws per refill, fixed for reproducibility
_FEW_SEGMENTS = 16    # segments that excursion_filter sums one at a time
_DIRECT_BATCHES = 32  # batch-means batches for the direct noise estimate
_JACKKNIFE_SLICE = 16384  # leave-one-out statistics evaluated per slice
# excursions per tally bincount and per q tensordot; a multiple of 8 rows,
# so BLAS blocks a slice's rows as it blocks them in the unsliced call
_SLICE = 8192
_FILTER_BLOCK = 8 * _BLOCK  # holds per block of excursion_filter's segment sums
_COUNT_MAX = int(np.iinfo(np.int32).max)  # the largest |q| a unit count's column holds

# Powers of (largest |weight|, mean cycle time) that give each estimate its
# own scale, and the relative rounding slack on that scale (the slack the
# analytic excursion report allows its variance rails).
_DIMENSIONS = {
    "e_q": (1, 0), "var_q": (2, 0), "e_t": (0, 1), "var_t": (0, 2),
    "cov_qt": (1, 1), "mu": (0, 1), "delta2": (0, 2), "j": (1, -1),
    "d": (2, -1), "j_direct": (1, -1), "d_direct": (2, -1),
}
_ROUNDING = 1e-9


class Trajectory:
    """Jump chain ``states`` with the residence time ``holds[i]`` spent in
    ``states[i]`` before the jump to ``states[i+1]``; the final hold has no
    following jump.  ``total_time`` is the sum of the holds, formed once
    when first read.

    :func:`simulate` gives the states as uint8, one byte per jump (it
    walks at most 256 states): widen them before arithmetic that can leave
    ``[0, 256)``, such as a product with the number of states.  It stores
    no holds: its trajectory keeps the hold stream's seed sequence and the
    exit rates, and :func:`excursion_filter` and :func:`dump_trajectory`
    redraw the holds block by block where they read them.  Reading
    ``holds`` or ``total_time`` of such a trajectory draws and sums the
    holds once and caches them, at 8 bytes per jump.
    """

    def __init__(self, states: np.ndarray, holds: np.ndarray):
        # given holds shadow the cached property below
        self.states, self.holds = states, holds

    @classmethod
    def _drawn(cls, states: np.ndarray, seq: np.random.SeedSequence,
               gamma: np.ndarray) -> "Trajectory":
        """The trajectory of ``states`` whose holds are drawn from the hold
        stream of ``seq`` and divided by the exit rates ``gamma``."""
        t = cls.__new__(cls)
        t.states, t._hold_stream = states, (seq, gamma)
        return t

    @cached_property
    def holds(self) -> np.ndarray:
        holds = np.empty(self.states.size)
        for lo, block in _hold_blocks(self):
            holds[lo : lo + block.size] = block
        return holds

    @cached_property
    def total_time(self) -> float:
        return float(np.sum(self.holds))


def _check_state(a_state: int, n: int) -> None:
    """Raise BadPartition unless ``a_state`` indexes one of ``n`` states."""
    if not 0 <= a_state < n:
        raise BadPartition(f"state index {a_state} out of range")


def _cumulative_jump_probs(m: RateMatrix) -> np.ndarray:
    """Row y holds the cumulative jump distribution out of state y."""
    cum = np.cumsum((m.w / m.gamma).T, axis=1)
    cum[:, -1] = 1.0
    return cum


def simulate(m: RateMatrix, seed: int, max_excursions: int, a_state: int = 0) -> Trajectory:
    """Sample one trajectory from ``a_state`` to its ``max_excursions``-th
    return there, bit-reproducible for a given (model, seed,
    ``max_excursions``, ``a_state``).

    After the last return one more hold in ``a_state`` is kept, so the
    final excursion stays complete.  The walk runs on bytes, from one lazy
    queue of next states per state; the queue of ``a_state`` ends after
    ``max_excursions`` departures, and the walked bytes are returned as the
    uint8 states.  No hold is drawn here: the trajectory keeps the hold
    stream and the exit rates, and its holds are drawn where they are read
    (see :class:`Trajectory`).  More than 256 states raise TooManyStates,
    an ``a_state`` outside the chain BadPartition.
    """
    if max_excursions < 1:
        raise ValueError(f"max_excursions must be >= 1, got {max_excursions}")
    _check_state(a_state, m.n)
    if m.n > 256:
        raise TooManyStates(f"simulate walks states as bytes: at most 256, got {m.n}")
    cum = _cumulative_jump_probs(m)
    jump_seq, hold_seq = np.random.SeedSequence(seed).spawn(2)
    jump_rng = np.random.Generator(np.random.Philox(jump_seq))

    def draws(x):
        u = jump_rng.random(_BLOCK)
        return np.searchsorted(cum[x], u, side="right").astype(np.uint8).tobytes()

    queues = [chain.from_iterable(map(draws, repeat(x))) for x in range(m.n)]
    queues[a_state] = islice(queues[a_state], max_excursions)
    nexts = [q.__next__ for q in queues]
    walked = bytearray([a_state])
    append = walked.append
    state = a_state
    try:
        while True:
            state = nexts[state]()
            append(state)
    except StopIteration:
        pass
    states = np.frombuffer(walked, dtype=np.uint8)
    return Trajectory._drawn(states, hold_seq, m.gamma)


def _hold_blocks(t: Trajectory, size: int = _BLOCK):
    """``(lo, holds[lo : lo + size])`` for each block of ``size`` holds of
    ``t``, a multiple of ``_BLOCK``, in trajectory order.

    Where ``t`` holds its holds (given, or drawn by a read of ``holds``)
    the blocks are slices of them; holds of another length than the
    states raise DimensionMismatch here, before any block is read.
    Otherwise the hold stream is redrawn from its start, ``_BLOCK`` draws
    at a time as :func:`simulate` defines it, into one buffer of ``size``
    that each block reuses, and divided there by the exit rates gathered
    by the block's states at their own width; the last draw is taken
    whole, like every draw, and cut, so every hold keeps its bits.
    """
    if "holds" in vars(t):
        holds = np.asarray(t.holds, dtype=float)
        if holds.shape != np.shape(t.states):
            raise DimensionMismatch(f"holds has shape {holds.shape}, expected "
                                    f"{np.shape(t.states)} like states")
        return ((lo, holds[lo : lo + size]) for lo in range(0, holds.size, size))
    return _drawn_hold_blocks(t.states, *t._hold_stream, size)


def _drawn_hold_blocks(states: np.ndarray, seq: np.random.SeedSequence, gamma: np.ndarray,
                       size: int):
    """The blocks of :func:`_hold_blocks`, redrawn from the hold stream."""
    rng = np.random.Generator(np.random.Philox(seq))
    buffer = np.empty(size)
    for lo in range(0, states.size, size):
        block = buffer[: min(size, states.size - lo)]
        for at in range(0, block.size, _BLOCK):
            draw = block[at : at + _BLOCK]
            if draw.size == _BLOCK:
                rng.standard_exponential(out=draw)
            else:
                draw[:] = rng.standard_exponential(_BLOCK)[: draw.size]
            draw /= gamma[states[lo + at : lo + at + _BLOCK]]
        yield lo, block


def _sequential_segment_sums(x: np.ndarray, starts: np.ndarray, ends: np.ndarray,
                             partial: np.ndarray | None = None) -> np.ndarray:
    """``partial[k]`` plus ``x[starts[k]:ends[k]]`` for every k, added left
    to right as a plain loop adds: from the default ``partial`` of 0.0 the
    segment's sum, and from a segment's sum over earlier values of a
    longer row, that sum continued.

    ``np.add.reduceat`` sums pairwise and differences of one cumsum carry
    its rounding, so both move the last bits.  Here the segments, longest
    first, take one vectorised add per position, each segment's next
    position advanced in place; the few longest finish alone with a
    sequential cumsum, so long segments cost no extra passes.
    """
    lengths = ends - starts
    # on keys of 16 bits or fewer a stable sort is a radix sort, with the
    # same permutation as on the int64 lengths
    key_type = np.min_scalar_type(lengths.max())
    order = np.argsort(lengths.astype(key_type), kind="stable")[::-1]
    first, lengths = starts[order], lengths[order]
    # live[p]: how many segments are longer than p (nonincreasing)
    live = lengths.size - np.cumsum(np.bincount(lengths))
    passes = int(np.count_nonzero(live > _FEW_SEGMENTS))
    rests = (lengths[: np.count_nonzero(lengths > passes)] - passes).tolist()
    del lengths
    acc = np.zeros(first.size) if partial is None else partial[order]
    for n_live in live[:passes].tolist():
        acc[:n_live] += x.take(first[:n_live])
        first[:n_live] += 1
    for k, rest in enumerate(rests):
        acc[k] = np.cumsum(np.concatenate(([acc[k]], x[first[k] : first[k] + rest])))[-1]
    sums = np.empty_like(acc)
    sums[order] = acc
    return sums


def _read_only(a: np.ndarray) -> np.ndarray:
    """A read-only view of ``a``; ``a`` itself stays writable."""
    view = a.view()
    view.flags.writeable = False
    return view


class ExcursionRecords:
    """Read-only columnar excursion records: ``durations (K,)``, the jump
    codes ``dest * n + src`` of an ``n``-state chain, and the ``K + 1``
    offsets of the visits of A into the codes, which bound the excursions.

    :func:`excursion_filter` keeps the codes in
    ``np.min_scalar_type(n * n - 1)``, one byte for up to 16 states.
    ``durations`` is a read-only view (the caller's array stays writable).
    Visits of another shape than ``(K + 1,)`` raise DimensionMismatch.
    :meth:`ExcursionSample.from_records` tallies the codes ``_SLICE``
    excursions at a time, and ``counts``, the ``(K, n, n)`` int64 block
    where ``counts[k, y, x]`` counts the jumps x -> y of excursion k, is
    formed from the same slices once, on first access.
    """

    __slots__ = ("durations", "_counts", "_codes", "_visits", "_n")

    def __init__(self, durations: np.ndarray, codes: np.ndarray, visits: np.ndarray,
                 n: int):
        self.durations = _read_only(durations)
        if np.shape(visits) != (durations.size + 1,):
            raise DimensionMismatch(f"visits has shape {np.shape(visits)}, expected "
                                    f"({durations.size + 1},), one more than the durations")
        self._codes, self._visits, self._n = codes, visits, n
        self._counts = None

    def __len__(self) -> int:
        return self.durations.size

    @property
    def counts(self) -> np.ndarray:
        """The read-only ``(K, n, n)`` int64 tally block."""
        if self._counts is None:
            counts = np.empty((len(self), self._n, self._n), dtype=np.int64)
            for lo, block in self._tallies():
                counts[lo : lo + len(block)] = block
            counts.flags.writeable = False
            self._counts = counts
        return self._counts

    def _longest(self) -> int:
        """The number of jumps of the longest excursion (0 without one)."""
        return int(np.diff(self._visits).max(initial=0))

    def _tallies(self):
        """``(lo, counts[lo : lo + _SLICE])`` for each slice of ``_SLICE``
        excursions: one ``bincount`` over the slice's jump codes, each
        offset by its excursion's index times ``n * n``."""
        n = self._n
        for lo in range(0, len(self), _SLICE):
            bounds = self._visits[lo : lo + _SLICE + 1]
            k = bounds.size - 1
            # each jump's excursion offset, with its code added in place
            code = np.repeat(np.arange(0, k * n * n, n * n, dtype=np.intp), np.diff(bounds))
            code += self._codes[bounds[0] : bounds[-1]]
            yield lo, np.bincount(code, minlength=k * n * n).reshape(k, n, n)


def excursion_filter(
    t: Trajectory, a_state: int = 0, n_states: int | None = None
) -> tuple[ExcursionRecords, np.ndarray]:
    """Segment a trajectory into completed excursions and A residences.

    An excursion runs from a jump out of ``a_state`` to the first return;
    states before the first visit of ``a_state``, and a partial excursion
    at the end of the trajectory, are discarded.  Returns the records and
    the array of residence times in A, one per completed excursion (the
    pairing is exact).  ``n_states`` is the number of states of the chain,
    which the jump codes ``dest * n + src`` are formed in; by default it is
    inferred from the visited states (one state for an empty trajectory).

    Vectorised over the visits of A.  The holds are read one block of
    ``_FILTER_BLOCK`` at a time from :func:`_hold_blocks`, redrawn for a
    trajectory of :func:`simulate`, so no full-size hold array is formed:
    in each block the pieces of the excursions there take the per-position
    adds of :func:`_sequential_segment_sums`, each continuing its
    excursion's sum over the blocks before, so the durations are summed in
    trajectory order, and the residences are gathered from the block.  The
    records keep one jump code per jump, from the first visit of A to the
    last, formed without a full-size int64 temporary, and the visits'
    offsets into the codes; no tallies are made here.  States of an
    integer dtype are read at their own width, such as the bytes of
    :func:`simulate`, and the codes are computed in the code dtype, since
    a byte times ``n`` would wrap; other states are converted to int64
    once, to check that they are integers.  ``states`` is a jump chain, so no state follows
    itself.  A state that is not an integer raises ValueError; one outside
    ``[0, n_states)``, or ``holds`` of another length than ``states``,
    DimensionMismatch.
    """
    given = np.asarray(t.states)
    blocks = _hold_blocks(t, _FILTER_BLOCK)
    states = given
    if given.dtype.kind not in "iu":
        states = given.astype(np.int64)
        bad = np.flatnonzero(states != given)
        if bad.size:
            raise ValueError(f"trajectory state {given[bad[0]]} at position {bad[0]} "
                             "is not an integer")
    low, top = int(states.min(initial=0)), int(states.max(initial=0))
    n = top + 1 if n_states is None else n_states
    for state in (low, top):
        if not 0 <= state < n:
            raise DimensionMismatch(f"trajectory visits state {state}, outside [0, {n})")
    _check_state(a_state, n)
    visits = np.flatnonzero(states == a_state)
    k = visits.size - 1
    code_type = np.min_scalar_type(n * n - 1)
    if k < 1:
        empty = ExcursionRecords(np.zeros(0), np.zeros(0, dtype=code_type),
                                 np.zeros(1, dtype=np.intp), n)
        return empty, np.asarray([], dtype=float)
    departures, starts, ends = visits[:-1], visits[:-1] + 1, visits[1:]
    durations, residences = np.zeros(k), np.empty(k)
    for lo, block in blocks:
        hi = lo + block.size
        # the segments with holds in [lo, hi), cut to the block, each
        # continuing from its sum over the blocks before
        a, b = np.searchsorted(ends, lo, side="right"), np.searchsorted(starts, hi)
        if a < b:
            durations[a:b] = _sequential_segment_sums(
                block, np.maximum(starts[a:b], lo) - lo, np.minimum(ends[a:b], hi) - lo,
                durations[a:b])
        a, b = np.searchsorted(departures, lo), np.searchsorted(departures, hi)
        residences[a:b] = block.take(departures[a:b] - lo)
    del starts
    first, last = int(visits[0]), int(visits[-1])
    # dest * n + src in the code dtype, the states cast into it one ufunc
    # buffer at a time: in their own dtype a byte times n wraps from 17
    # states on
    codes = np.multiply(states[first + 1 : last + 1], n, dtype=code_type, casting="unsafe",
                        out=np.empty(last - first, dtype=code_type))
    np.add(codes, states[first:last], dtype=code_type, out=codes, casting="unsafe")
    visits -= first
    return ExcursionRecords(durations, codes, visits, n), residences


def _column_dtype(scheme: WeightScheme) -> type:
    """int32 for a unit count, a scheme of integer weights with |w| <= 1
    (charge current, dynamical activity), whose q moves by at most 1 per
    jump; float64 for every other scheme."""
    unit = scheme.integer_valued and scheme.max_abs_weight() <= 1
    return np.int32 if unit else np.float64


def _overflow(names, jumps: int) -> CountOverflow:
    """The error for an excursion of ``jumps`` jumps counted by the unit
    counts ``names``."""
    return CountOverflow(f"unit count {', '.join(map(repr, names))}: an excursion of "
                         f"{jumps} jumps can pass {_COUNT_MAX}, the largest int32 count")


@dataclass(frozen=True)
class ExcursionSample:
    """Struct-of-arrays batch of excursions for one model.

    ``q`` maps scheme name to the per-excursion observable values;
    ``residences`` pairs one A residence with each excursion.
    ``durations``, ``residences`` and every ``q`` array are read-only views
    (the caller's own arrays stay writable), and ``q`` itself is a
    read-only mapping, so :attr:`moments` cannot go stale.  A ``q`` array
    given as int32 is kept so, as the samplers store a unit count's
    integer values (4 bytes per excursion); any other is stored as
    float64.  Widen an int32 column before a product, such as ``q * q``,
    which int32 would wrap.  Raises DimensionMismatch unless
    ``durations``, ``residences`` and every ``q`` array have the shape
    ``(n,)``, n the size of ``durations``.
    """

    durations: np.ndarray
    residences: np.ndarray
    q: Mapping[str, np.ndarray]
    schemes: dict[str, WeightScheme]
    gamma_a: float

    def __post_init__(self):
        for name in ("durations", "residences"):
            object.__setattr__(self, name, _read_only(getattr(self, name)))
        n = self.durations.size
        q = {k: np.asarray(v) for k, v in self.q.items()}
        q = {k: _read_only(v if v.dtype == np.int32 else np.asarray(v, dtype=np.float64))
             for k, v in q.items()}
        labelled = [("durations", self.durations), ("residences", self.residences)]
        for label, view in labelled + [(f"q[{k!r}]", v) for k, v in q.items()]:
            if view.shape != (n,):
                raise DimensionMismatch(
                    f"{label} has shape {view.shape}, expected ({n},), one per excursion")
        object.__setattr__(self, "q", MappingProxyType(q))

    @property
    def n(self) -> int:
        return self.durations.size

    @cached_property
    def moments(self) -> "_SampleMoments":
        """The jackknife of every scheme in ``q`` and the direct batches'
        cycle times, computed once per sample; :func:`empirical_moments`
        reads its scheme from here.

        Raises TooFewRecords below 64 excursions (two per direct batch).
        """
        n = self.n
        if n < 2 * _DIRECT_BATCHES:
            raise TooFewRecords(
                f"need at least {2 * _DIRECT_BATCHES} excursions for the "
                f"{_DIRECT_BATCHES}-batch direct noise estimate, got {n}"
            )
        t, tau = self.durations, self.residences
        qs = list(self.q.values())

        def columns(lo, hi):
            ts, taus = t[lo:hi], tau[lo:hi]
            cols = [ts, ts * ts, taus, taus * taus]
            for qv in qs:
                # an int32 count widened one slice at a time, exactly
                q_s = qv[lo:hi].astype(np.float64, copy=False)
                cols += [q_s, q_s * q_s, q_s * ts]
            return cols

        theta, ses = _jackknife(_stats, columns, n)
        rows = [(float(v), s) for v, s in zip(theta, ses)]
        duration = dict(zip(_DURATION_KEYS, rows[:4]))
        estimates = {}
        for i, name in enumerate(self.q):
            scheme = dict(zip(_SCHEME_KEYS, rows[4 + 5 * i : 9 + 5 * i]), **duration)
            estimates[name] = {k: scheme[k] for k in _REPORT_KEYS}
        # the direct batches' and the sample's cycle times t + tau, each
        # summed as np.add.reduceat and np.sum sum the full-size column
        starts = np.linspace(0, n, _DIRECT_BATCHES + 1).astype(int)
        batch_times = np.concatenate([
            np.add.reduceat(t[a:b] + tau[a:b], [0]) for a, b in zip(starts, starts[1:])
        ])
        total_time = _tree_sum(lambda lo, hi: [t[lo:hi] + tau[lo:hi]], 0, n)[0]
        starts = starts[:-1]
        starts.flags.writeable = batch_times.flags.writeable = False
        return _SampleMoments(estimates, starts, batch_times, total_time)

    @classmethod
    def from_records(
        cls,
        records: ExcursionRecords,
        residences,
        schemes: dict[str, WeightScheme],
        gamma_a: float,
    ) -> "ExcursionSample":
        """Sample from the columns of filter records.

        The records' tallies are taken ``_SLICE`` excursions at a time
        from their jump codes, and each ``q`` column is filled one such
        slice at a time, so neither the tally block nor a float copy of it
        is formed.  The slices are blocked by BLAS as a one-thread BLAS
        blocks the unsliced ``tensordot``, so ``q`` is that call's result
        to the last bit.  A threaded BLAS sums the last rows of each
        thread's range of a large call with other kernels, so the unsliced
        call's last bits depend on the thread count; OpenBLAS splits no
        call of fewer than 460 800 tally entries, which a slice stays below
        for chains of up to 7 states.

        A unit count's column is int32 (see :func:`_column_dtype`): the
        ``tensordot`` of integer tallies and weights is exact below 2**53,
        and each slice is stored as those integers.  An excursion of more
        jumps than the largest int32 count raises CountOverflow, naming
        the unit counts, before any column is filled.  ``residences`` is
        taken as it is: one of another length than the records raises
        DimensionMismatch.
        """
        dtypes = {name: _column_dtype(s) for name, s in schemes.items()}
        units = [name for name, dtype in dtypes.items() if dtype is np.int32]
        longest = records._longest() if units else 0
        if longest > _COUNT_MAX:
            raise _overflow(units, longest)
        q = {name: np.empty(len(records), dtype=dtype) for name, dtype in dtypes.items()}
        for lo, block in records._tallies():
            for name, s in schemes.items():
                q[name][lo : lo + _SLICE] = np.tensordot(block, s.weights, axes=([1, 2], [0, 1]))
        return cls(
            durations=records.durations,
            residences=np.asarray(residences, dtype=float),
            q=q,
            schemes=dict(schemes),
            gamma_a=gamma_a,
        )


def _code_table(cum: np.ndarray) -> np.ndarray:
    """The jump code ``nxt * k + s`` of each (state s, bin b of u), flat at
    ``s * _BINS + b``, or -1 where a threshold splits the bin.

    Bin b holds the u in ``[b / _BINS, (b + 1) / _BINS)``.  The next state
    counts the thresholds ``cum[s, j] <= u`` over every column but the last
    (which is 1.0 > u), so a threshold t decides the whole bin when
    ``t <= b / _BINS`` or ``t >= (b + 1) / _BINS``; the entry is the count
    at the bin's lowest u.  ``cum * _BINS`` is exact, so the test is too.
    """
    k = cum.shape[0]
    thresholds = cum[:, :-1, None] * _BINS
    bins = np.arange(_BINS)
    nxt = np.count_nonzero(thresholds <= bins, axis=1)
    split = np.any((bins < thresholds) & (thresholds < bins + 1), axis=1)
    codes = (nxt * k + np.arange(k)[:, None]).astype(np.intp)
    codes[split] = -1
    return codes.reshape(-1)


def _sample_batch(
    m: RateMatrix,
    a_state: int,
    schemes: dict[str, WeightScheme],
    seed_seq: np.random.SeedSequence,
    durations: np.ndarray,
    residences: np.ndarray,
    q: dict[str, np.ndarray],
) -> None:
    """Vectorized ensemble of ``durations.size`` independent excursions,
    written into ``durations``, ``residences`` and the ``q`` array of each
    scheme.

    The loop works on compacted arrays of the excursions still out of A:
    their indices ``idx``, durations, one accumulator per scheme and
    ``row = state * _BINS``.  Each step draws ``standard_exponential(m)``
    then ``random(m)`` for the m excursions still out, in index order, and
    adds in the same order as a full-size loop, so the sums are the same.

    The jump is one lookup in the constant :func:`_code_table`: ``u *
    _BINS`` is exact, so its truncation plus ``row`` is the (state, bin)
    entry, and the entry's jump code gives every weight, the next row and
    the return flag by lookup.  A bin split by a threshold holds -1, and
    the jumps that land there take the exact compare ``cum[s, j] <= u``
    against each threshold column; a state has at most k - 1 split bins,
    so at most (k - 1) / _BINS of its jumps fall back.  ``_BINS``
    is 256 so that a 4-state table of intp is 8 KB and stays in L1; a
    table of 65 536 bins per state missed the cache on every lookup.
    Returned excursions are written back, and the rest are kept with one
    index.

    Each scheme's weights are taken, and its accumulator kept, in the
    dtype of its ``q`` array: int32 for a unit count.  A unit count
    moves by at most 1 per jump, so the loop raises CountOverflow, naming
    the unit counts, before the jump that could carry one past
    ``_COUNT_MAX``.
    """
    rng = np.random.Generator(np.random.Philox(seed_seq))
    cum = _cumulative_jump_probs(m)
    gamma = m.gamma
    k = m.n
    n = durations.size
    outs = list(q.values())
    flat = [schemes[name].weights.reshape(-1).astype(out.dtype) for name, out in q.items()]
    units = [name for name, out in q.items() if out.dtype == np.int32]
    # the jump after which a count could pass _COUNT_MAX (never without one)
    limit = _COUNT_MAX if units else -1
    table = _code_table(cum)
    # the split-bin fallback: cum[:, j] <= u, both sides scaled exactly by
    # _BINS, for every column but the last, which is 1.0 > u exactly
    columns = [cum[:, j] * _BINS for j in range(k - 1)]
    dest = np.arange(k * k) // k
    next_row = dest * _BINS
    returned = dest == a_state
    gamma_rows = np.repeat(gamma, _BINS)

    rng.standard_exponential(out=residences)
    residences /= gamma[a_state]
    state = np.searchsorted(cum[a_state], rng.random(n), side="right")
    code = state * k + a_state
    for out, w in zip(outs, flat):
        w.take(code, out=out)
    durations.fill(0.0)  # kept by an excursion whose first jump is back to A

    idx = np.flatnonzero(state != a_state)
    row = state.take(idx)
    row *= _BINS
    del state, code  # batch-size arrays the loop does not read
    dur = np.zeros(idx.size)
    acc = [out.take(idx) for out in outs]
    jumps = 1
    while idx.size:
        if jumps == limit:
            raise _overflow(units, jumps + 1)
        jumps += 1
        hold = rng.standard_exponential(idx.size)
        hold /= gamma_rows.take(row)
        dur += hold
        u = rng.random(idx.size)
        u *= _BINS
        cell = u.astype(np.intp)
        cell += row
        code = table.take(cell)
        miss = (code < 0).nonzero()[0]
        if miss.size:
            s = row.take(miss) // _BINS
            um = u.take(miss)
            nxt = np.zeros(miss.size, dtype=np.intp)
            for col in columns:
                nxt += col.take(s) <= um
            nxt *= k
            nxt += s
            code[miss] = nxt
        del hold, row  # spent; freed before the compaction copies
        for a, w in zip(acc, flat):
            a += w.take(code)
        ret = returned.take(code)
        back = ret.nonzero()[0]
        if back.size:
            done = idx.take(back)
            durations[done] = dur.take(back)
            for out, a in zip(outs, acc):
                out[done] = a.take(back)
            keep = np.logical_not(ret, out=ret).nonzero()[0]
            idx, dur, code = idx.take(keep), dur.take(keep), code.take(keep)
            acc = [a.take(keep) for a in acc]
        row = next_row.take(code)


def _outputs(n: int, schemes: dict[str, WeightScheme]):
    """Uninitialised durations, residences and ``q`` by scheme name for
    ``n`` excursions, each ``q`` in its :func:`_column_dtype`."""
    q = {name: np.empty(n, dtype=_column_dtype(s)) for name, s in schemes.items()}
    return np.empty(n), np.empty(n), q


def sample_excursions(
    m: RateMatrix,
    schemes: dict[str, WeightScheme],
    n_excursions: int,
    seed: int,
    a_state: int = 0,
    workers: int = 1,
) -> ExcursionSample:
    """Draw ``n_excursions`` iid excursions with per-scheme observables.

    Work is split into fixed-size batches with independent spawned RNG
    streams, each written into its slice of the outputs, so the result is
    identical for any ``workers`` value: in place on the serial path, and
    copied in index order as each pooled task returns.  A unit count
    (integer weights with |w| <= 1, such as the charge current and the
    dynamical activity) is accumulated and stored as int32, every other
    scheme as float64; an excursion that could carry a count past the
    int32 range raises CountOverflow.
    """
    if n_excursions < 1:
        raise ValueError(f"n_excursions must be >= 1, got {n_excursions}")
    _check_state(a_state, m.n)
    for s in schemes.values():
        if s.n != m.n:
            raise DimensionMismatch("scheme dimension does not match chain")
    sizes = [_BATCH] * (n_excursions // _BATCH)
    if n_excursions % _BATCH:
        sizes.append(n_excursions % _BATCH)
    children = np.random.SeedSequence(seed).spawn(len(sizes))
    bounds = np.cumsum([0] + sizes).tolist()
    durations, residences, q = _outputs(n_excursions, schemes)
    if workers > 1 and len(sizes) > 1:
        from concurrent.futures import ProcessPoolExecutor
        args = [(m, a_state, schemes, sz, ss) for sz, ss in zip(sizes, children)]
        with ProcessPoolExecutor(max_workers=workers) as pool:
            parts = pool.map(_sample_task, args)
            for lo, hi, (dur, res, qs) in zip(bounds, bounds[1:], parts):
                durations[lo:hi], residences[lo:hi] = dur, res
                for name, v in q.items():
                    v[lo:hi] = qs[name]
    else:
        for lo, hi, ss in zip(bounds, bounds[1:], children):
            _sample_batch(
                m, a_state, schemes, ss, durations[lo:hi], residences[lo:hi],
                {name: v[lo:hi] for name, v in q.items()})
    return ExcursionSample(
        durations=durations, residences=residences, q=q,
        schemes=dict(schemes), gamma_a=float(m.gamma[a_state]),
    )


def _sample_task(args):
    """One pooled batch: ``(m, a_state, schemes, n, seed_seq)`` sampled
    into arrays of its own, which are returned."""
    m, a_state, schemes, n, seed_seq = args
    out = _outputs(n, schemes)
    _sample_batch(m, a_state, schemes, seed_seq, *out)
    return out


@dataclass(frozen=True)
class EmpiricalReport:
    """Point estimates with jackknife standard errors, keyed by the same
    names as the analytic excursion report, plus the long-run direct
    estimates of the current and noise.  ``scales`` gives each estimate's
    natural magnitude, from the scheme's weights and the cycle time."""

    estimates: dict[str, tuple[float, float]]
    n: int
    scales: dict[str, float] = field(default_factory=dict)

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


class _SampleMoments(NamedTuple):
    """The cached half of :func:`empirical_moments` for one sample."""

    estimates: dict       # scheme -> report key -> (estimate, jackknife se)
    starts: np.ndarray    # first excursion of each direct batch
    batch_times: np.ndarray  # cycle time t + tau summed over each batch
    total_time: float     # cycle time summed over the sample


_DURATION_KEYS = ("e_t", "var_t", "mu", "delta2")
_SCHEME_KEYS = ("e_q", "var_q", "cov_qt", "j", "d")
_REPORT_KEYS = ("e_q", "var_q", "e_t", "var_t", "cov_qt", "mu", "delta2", "j", "d")


def _stats(m_t, m_t2, m_tau, m_tau2, *scheme_means):
    """e_t, var_t, mu and delta2, then e_q, var_q, cov_qt, j and d of each
    scheme, from the means of t, t^2, tau and tau^2 and, per scheme, of q,
    q^2 and q*t.

    Leave-one-out rows are overwritten once their own values are spent:
    the operations and their order are those of the plain formulas, as
    IEEE addition is commutative; scalar means simply rebind.
    """
    var_t = m_t2
    var_t -= m_t**2
    delta2 = m_tau2
    delta2 -= m_tau**2
    delta2 += var_t
    mu = m_tau
    mu += m_t
    out = [m_t, var_t, mu, delta2]
    for i in range(0, len(scheme_means), 3):
        m_q, var_q, cov_qt = scheme_means[i : i + 3]
        var_q -= m_q**2
        cov_qt -= m_q * m_t
        d, d2, d3 = noise_terms(var_q, m_q, cov_qt, mu, delta2)
        d += d2
        d += d3
        out += [m_q, var_q, cov_qt, m_q / mu, d]
    return out


def _tree_sum(rows, lo: int, hi: int) -> np.ndarray:
    """The sum of each row over ``[lo, hi)``, bit for bit ``np.sum`` of the
    contiguous float64 row, from ``rows(a, b)``, the rows' ``[a:b]`` slices.

    numpy sums a contiguous row pairwise, splitting a range of n elements at
    ``h = n // 2 - (n // 2) % 8`` (Higham, SIAM J. Sci. Comput. 14:783,
    1993).  This splits the same way down to ranges of at most
    ``_JACKKNIFE_SLICE``, sums each slice with ``np.add.reduce`` and adds
    the halves back up the tree, so no row is ever whole.
    """
    n = hi - lo
    if n <= _JACKKNIFE_SLICE:
        return np.array([np.add.reduce(r) for r in rows(lo, hi)])
    h = n // 2 - (n // 2) % 8
    return _tree_sum(rows, lo, lo + h) + _tree_sum(rows, lo + h, hi)


def _jackknife(stats_fn, columns, n: int):
    """Delete-1 jackknife of statistics that are smooth functions of the
    sample means of n-long columns; evaluated in O(n) by leave-one-out
    means, as a stream over slices.

    ``columns(lo, hi)`` gives the slice ``[lo:hi]`` of every column; a
    product column is the product of slices, which equals the slice of the
    full product.  The means and the leave-one-out statistics' row means
    and squared deviations are :func:`_tree_sum` sums, the same bits as
    ``np.sum`` over full-size rows; pass 2 recomputes the statistics rather
    than keep them.  Each leave-one-out row ``(n * mean - column) / (n -
    1)`` is formed in one array of its own, which ``stats_fn`` may
    overwrite; it must return distinct rows, which pass 2 centres and
    squares in place.
    """
    means = _tree_sum(columns, 0, n) / n
    theta = stats_fn(*means)

    def loo(lo, hi):
        rows = [np.subtract(n * mu, c) for mu, c in zip(means, columns(lo, hi))]
        for r in rows:
            r /= n - 1
        return stats_fn(*rows)

    def squared_deviations(lo, hi):
        rows = loo(lo, hi)
        for r, c in zip(rows, centres):
            r -= c
            np.square(r, out=r)
        return rows

    centres = _tree_sum(loo, 0, n) / n
    spread = _tree_sum(squared_deviations, 0, n)
    return theta, [float(s) for s in np.sqrt((n - 1) / n * spread)]


def empirical_moments(
    sample: ExcursionSample, scheme_name: str
) -> EmpiricalReport:
    """Sample moments, current and noise for one scheme with jackknife
    standard errors; the direct long-run estimates come from 32 contiguous
    batch means.

    The jackknife estimates come from the sample's cached
    :attr:`~ExcursionSample.moments`, which covers every scheme at once.

    Raises TooFewRecords below 64 excursions (two per direct batch).
    """
    if scheme_name not in sample.q:
        raise KeyError(f"scheme {scheme_name!r} not in sample")
    mom = sample.moments
    estimates = dict(mom.estimates[scheme_name])

    # direct long-run estimators over contiguous batches, each batch of an
    # int32 count widened alone; its sums are exact, as are its float64 sums
    qv = sample.q[scheme_name]
    bounds = np.append(mom.starts, sample.n).tolist()
    qb = np.concatenate([np.add.reduceat(qv[a:b], [0], dtype=np.float64)
                         for a, b in zip(bounds, bounds[1:])])
    tb = mom.batch_times
    j_direct = float(qv.sum() / mom.total_time)
    jb = qb / tb
    k = _DIRECT_BATCHES
    d_direct = float(np.sum(tb * (jb - j_direct) ** 2) / (k - 1))
    se_j = float(np.sqrt(max(d_direct, 0.0) / mom.total_time))
    se_d = d_direct * np.sqrt(2.0 / (k - 1))
    estimates["j_direct"] = (j_direct, se_j)
    estimates["d_direct"] = (d_direct, se_d)
    w_max = sample.schemes[scheme_name].max_abs_weight()
    mu = estimates["mu"][0]
    scales = {k: w_max**a * mu**b for k, (a, b) in _DIMENSIONS.items()}
    return EmpiricalReport(estimates=estimates, n=sample.n, scales=scales)


def empirical_outcome_histogram(sample: ExcursionSample, scheme_name: str):
    """Normalized outcome frequencies with multinomial standard errors.

    Returns ``(qs, freqs, ses)`` over the observed integer support.  An
    int32 count is read as it is; a float64 column of an integer-valued
    scheme is rounded to int64 first.
    """
    scheme = sample.schemes[scheme_name]
    if not scheme.integer_valued:
        raise NonIntegerScheme("histogram needs an integer-valued scheme")
    vals = sample.q[scheme_name]
    if vals.dtype != np.int32:
        vals = np.rint(vals).astype(np.int64)
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
    The lines are formatted and written one hold block of ``_BLOCK`` jumps
    at a time, the cumsum carried from one block into the next.  A state
    without a label raises DimensionMismatch before ``path`` is opened.
    """
    states = np.asarray(t.states)
    blocks = _hold_blocks(t)
    jumps = states.size - 1
    low, top = int(states.min(initial=0)), int(states.max(initial=0))
    names = range(top + 1) if labels is None else labels
    for state in (low, top):
        if not 0 <= state < len(names):
            raise DimensionMismatch(f"trajectory visits state {state}, but {len(names)} "
                                    "labels are given")
    clock = 0.0
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for lo, block in blocks:
            hi = min(lo + block.size, jumps)
            if hi <= lo:
                break
            times = np.cumsum(np.concatenate(([clock], block[: hi - lo])))[1:].tolist()
            clock = times[-1]
            chain = states[lo : hi + 1].tolist()
            fh.write("".join(
                f"{c!r}\t{names[src]}\t{names[dst]}\n"
                for c, src, dst in zip(times, chain, chain[1:])
            ))
