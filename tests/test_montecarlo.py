import math
import os
import signal
import subprocess
import sys
import tracemalloc
from contextlib import contextmanager

import numpy as np
import pytest

from exclab import (
    DqdParams,
    ExcursionSample,
    WeightScheme,
    activity_weights,
    build_model,
    empirical_moments,
    empirical_outcome_histogram,
    entropy_weights,
    excursion_filter,
    excursion_report,
    outcome_distribution,
    partition,
    sample_excursions,
    simulate,
    steady_state,
    success_fail_disaster,
    transport_weights,
    validate_rate_matrix,
)
from exclab import montecarlo
from exclab.errors import (BadPartition, CountOverflow, DimensionMismatch, NonIntegerScheme,
                           TooFewRecords, TooManyStates)
from exclab.montecarlo import _BATCH, ExcursionRecords, Trajectory, dump_trajectory

import reference_montecarlo as reference
from conftest import REF, GAMMA, random_chain


def _schemes(params, n):
    return {
        "transport": transport_weights("R", n),
        "transport_L": transport_weights("L", n),
        "activity": activity_weights(n),
        "entropy": entropy_weights(params),
    }


@contextmanager
def _deadline(seconds=2.0):
    """Fail, rather than hang, a call that does not return in ``seconds``."""
    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def _ring(n):
    """n states on a ring, twice as fast forward as back."""
    w = np.zeros((n, n))
    for x in range(n):
        w[(x + 1) % n, x], w[(x - 1) % n, x] = 2.0, 1.0
    return validate_rate_matrix(w)


class TestReferenceStateRange:
    """A reference state outside the chain is rejected before any walk:
    unchecked, -1 walked forever and 4 failed on an unnamed IndexError."""

    @pytest.mark.parametrize("a_state", [-1, 4])
    def test_simulate(self, ref_model, a_state):
        with _deadline(), pytest.raises(BadPartition, match=f"state index {a_state} out of range"):
            simulate(ref_model, 1, 10, a_state=a_state)

    @pytest.mark.parametrize("a_state", [-1, 4])
    def test_sample_excursions(self, ref_model, a_state):
        schemes = {"t": transport_weights("R", 4)}
        with _deadline(), pytest.raises(BadPartition, match=f"state index {a_state} out of range"):
            sample_excursions(ref_model, schemes, 100, seed=1, a_state=a_state)

    @pytest.mark.parametrize("a_state", [-1, 4])
    def test_excursion_filter(self, ref_model, a_state):
        t = simulate(ref_model, 1, 10)
        with _deadline(), pytest.raises(BadPartition, match=f"state index {a_state} out of range"):
            excursion_filter(t, a_state, n_states=4)


class TestSimulate:
    def test_deterministic_for_fixed_seed(self, ref_model):
        t1 = simulate(ref_model, seed=42, max_excursions=500)
        t2 = simulate(ref_model, seed=42, max_excursions=500)
        assert np.array_equal(t1.states, t2.states)
        assert np.array_equal(t1.holds, t2.holds)
        t3 = simulate(ref_model, seed=43, max_excursions=500)
        assert not np.array_equal(t1.states, t3.states)

    @pytest.mark.parametrize("n", [0, -5, -70_000])
    def test_nonpositive_excursion_count_rejected(self, ref_model, n):
        with pytest.raises(ValueError, match=f"max_excursions must be >= 1, got {n}"):
            simulate(ref_model, seed=1, max_excursions=n)

    def test_trajectory_invariants(self, ref_model):
        t = simulate(ref_model, seed=1, max_excursions=700)
        assert np.all(t.states[1:] != t.states[:-1])
        assert np.all(t.holds > 0.0)
        assert t.total_time == np.sum(t.holds)
        # from A to the last return, which keeps its hold in A
        assert t.states[0] == t.states[-1] == 0
        assert np.count_nonzero(t.states == 0) == 701
        # jumps only along nonzero rates
        rates = ref_model.w[t.states[1:], t.states[:-1]]
        assert np.all(rates > 0.0)

    def test_two_state_occupation(self):
        a, b = 1.3, 0.4  # 0 -> 1 at rate a, 1 -> 0 at rate b
        m = validate_rate_matrix([[0.0, b], [a, 0.0]])
        t = simulate(m, seed=5, max_excursions=60_000)
        occ1 = t.holds[t.states == 1].sum() / t.holds.sum()
        expect = a / (a + b)
        # binomial-ish SE on the occupied fraction from cycle counting
        n_cyc = (t.states == 0).sum()
        se = expect * (1 - expect) / math.sqrt(n_cyc) * 2.0
        assert abs(occ1 - expect) < 3 * max(se, 1e-3)

    def test_dqd_occupation_matches_steady_state(self):
        p = DqdParams(vg=5.0, vsd=7.0, **REF)
        m = build_model(p)
        n_jumps = 10_000_000
        t = simulate(m, seed=12, max_excursions=n_jumps // 5)
        if len(t.states) < n_jumps:  # top up to the advertised jump count
            t = simulate(m, seed=12, max_excursions=int(1.2 * n_jumps / 5))
        ss = steady_state(m)
        total = t.holds.sum()
        for x in range(4):
            occ = t.holds[t.states == x].sum() / total
            n_visits = max(int((t.states == x).sum()), 1)
            se = ss[x] / math.sqrt(n_visits) * 1.5
            assert abs(occ - ss[x]) < 3 * max(se, 2e-4), f"state {x}"

    def test_more_than_256_states_rejected_before_any_draw(self, monkeypatch):
        m = _ring(257)

        def drawn(*args):
            raise AssertionError("simulate drew before it rejected the chain")

        monkeypatch.setattr(montecarlo, "_cumulative_jump_probs", drawn)
        with pytest.raises(TooManyStates, match="at most 256, got 257"):
            simulate(m, seed=1, max_excursions=1)

    def test_256_states_match_reference(self):
        # state 255, one step back from A, survives the walk's bytes
        m = _ring(256)
        t = simulate(m, seed=3, max_excursions=40)
        assert_same_trajectory(t, reference.simulate(m, seed=3, max_excursions=40))
        assert 255 in t.states.tolist()

    def test_holding_times_exponential(self):
        # Kolmogorov-Smirnov at alpha = 0.001 per state, 1e5 samples; the
        # gate voltage is chosen so every state is visited often
        m = build_model(DqdParams(vg=-5.0, vsd=7.0, **REF))
        t = simulate(m, seed=3, max_excursions=115_000)
        for x in range(4):
            holds = t.holds[:-1][t.states[:-1] == x]
            n = min(holds.size, 100_000)
            assert n >= 100_000, f"too few visits of state {x}"
            sample = np.sort(holds[:n])
            cdf = 1.0 - np.exp(-m.gamma[x] * sample)
            k = np.arange(1, n + 1)
            d_stat = max(np.max(k / n - cdf), np.max(cdf - (k - 1) / n))
            # Stephens' finite-n form of the alpha = 0.001 critical value
            c_alpha = math.sqrt(-0.5 * math.log(0.0005))
            d_crit = c_alpha / (math.sqrt(n) + 0.12 + 0.11 / math.sqrt(n))
            assert d_stat < d_crit, f"state {x}: D={d_stat:.5f} crit={d_crit:.5f}"


def _chain(name, request):
    """The chains the reference loops are compared on."""
    if name == "two_state":
        return validate_rate_matrix([[0.0, 0.4], [1.3, 0.0]])
    return request.getfixturevalue(
        {"dqd": "ref_model", "blockade": "ref_blockade_model"}[name])


def assert_same_trajectory(t, ref):
    # the walked bytes themselves against the per-jump loop's int64 list
    assert t.states.dtype == np.uint8 and ref.states.dtype == np.int64
    assert np.array_equal(t.states, ref.states)
    assert t.holds.dtype == ref.holds.dtype
    assert np.array_equal(t.holds, ref.holds)
    assert t.total_time == ref.total_time


def assert_same_filter(t, a_state=0, n_states=None, dtype=None):
    """The filter, on ``t``'s states cast to ``dtype`` if one is given,
    against the per-jump loop on ``t``."""
    given = t if dtype is None else Trajectory(states=t.states.astype(dtype), holds=t.holds)
    records, residences = excursion_filter(given, a_state, n_states)
    ref_records, ref_residences = reference.excursion_filter(t, a_state, n_states)
    assert residences.dtype == ref_residences.dtype
    assert residences.shape == ref_residences.shape
    assert np.array_equal(residences, ref_residences)
    assert len(records) == len(ref_records)
    assert records.durations.tolist() == [r.duration for r in ref_records]
    assert records.counts.dtype == np.int64
    for counts, ref in zip(records.counts, ref_records):
        assert ref.counts.dtype == np.int64
        assert np.array_equal(counts, ref.counts)
    return records, residences


class TestReferenceLoops:
    """The byte-queue walk and the vectorised filter reproduce the
    per-jump loops bit for bit; the sizes cross the 8192-draw refills."""

    @pytest.mark.parametrize("chain", ["two_state", "dqd", "blockade"])
    @pytest.mark.parametrize("stop, outside", [
        (dict(max_excursions=700), False),
        (dict(max_excursions=700), True),
        (dict(max_excursions=1), False),
        (dict(max_excursions=1), True),
        (dict(max_excursions=9000), False),
    ])
    def test_simulate_and_filter_match_reference(self, chain, stop, outside, request):
        m = _chain(chain, request)
        # outside: the walk returns to state 1, so the filter at state 0
        # starts outside its A
        kwargs = dict(stop, a_state=1) if outside else stop
        for seed in (0, 1, 2):
            t = simulate(m, seed=seed, **kwargs)
            assert_same_trajectory(t, reference.simulate(m, seed=seed, **kwargs))
            if outside:
                assert t.states[0] == 1
            assert_same_filter(t, 0, m.n)
            assert_same_filter(t)

    @pytest.mark.parametrize("n", [montecarlo._BLOCK, montecarlo._BLOCK + 1])
    def test_last_departure_at_a_block_edge(self, ref_model, n):
        # A's n-th and last departure is the last draw of its first block,
        # then the first draw of its second
        t = simulate(ref_model, seed=5, max_excursions=n)
        assert_same_trajectory(t, reference.simulate(ref_model, seed=5, max_excursions=n))
        assert_same_filter(t, 0, ref_model.n)

    def test_filter_matches_reference_on_long_excursions(self):
        # state 00 is rare at vg = -10, so excursions run to hundreds of
        # jumps and the longest are summed one at a time
        m = build_model(DqdParams(vg=-10.0, vsd=7.0, **REF))
        t = simulate(m, seed=4, max_excursions=40)
        records, _ = assert_same_filter(t, 0, 4)
        lengths = np.sort(records.counts.sum(axis=(1, 2)))
        assert lengths[-17] > 100

    @pytest.mark.parametrize("dtype", [np.uint8, np.uint16, np.int32, np.int64, np.float64])
    @pytest.mark.parametrize("n_states", [None, 4])
    def test_filter_takes_states_of_any_dtype(self, ref_model, dtype, n_states):
        # integer states are read at their own width, integral floats
        # converted once
        t = simulate(ref_model, seed=8, max_excursions=700)
        assert_same_filter(t, 0, n_states, dtype=dtype)

    @pytest.mark.parametrize("longest", [255, 256, 65_536], ids=["uint8", "uint16", "uint32"])
    def test_segment_lengths_of_each_key_width_match_reference(self, longest):
        # the segment sums sort the lengths on the narrowest key that holds
        # the longest; more than 16 segments, so the passes run too
        rng = np.random.default_rng(12)
        states = [0]
        for length in [3, longest, *rng.integers(1, 40, 30), longest - 1, 1]:
            states += [1 + i % 2 for i in range(length)] + [0]
        holds = rng.exponential(1.0, len(states))
        t = Trajectory(states=np.array(states, dtype=np.uint8), holds=holds)
        assert_same_filter(t, 0, 3)

    def test_other_reference_state(self, ref_model):
        t = simulate(ref_model, seed=6, max_excursions=300, a_state=2)
        assert_same_trajectory(
            t, reference.simulate(ref_model, seed=6, max_excursions=300, a_state=2))
        assert_same_filter(t, 2, 4)


def _unit_count(scheme):
    """Whether the samplers store ``scheme`` as an int32 count: integer
    weights of at most 1 in magnitude."""
    return bool(scheme.integer_valued and np.abs(scheme.weights).max() <= 1)


def assert_same_sample(sample, ref):
    """Durations and residences equal and of one dtype; each ``q`` column
    int32 for a unit count and float64 otherwise against the float64
    reference, equal in value after widening."""
    for name in ("durations", "residences"):
        got, want = getattr(sample, name), getattr(ref, name)
        assert got.dtype == want.dtype and got.shape == want.shape, name
        assert np.array_equal(got, want), name
    assert sample.q.keys() == ref.q.keys()
    for name, scheme in sample.schemes.items():
        got, want = sample.q[name], ref.q[name]
        assert want.dtype == np.float64, name
        assert got.dtype == (np.int32 if _unit_count(scheme) else np.float64), name
        assert got.shape == want.shape, name
        assert np.array_equal(got.astype(np.float64), want), name
    assert sample.gamma_a == ref.gamma_a


class TestColumnarRecords:
    """The filter's columnar records and ``from_records`` reproduce the
    list-building filter and the stacking ``from_records`` bit for bit."""

    @pytest.mark.parametrize("chain", ["dqd", "blockade"])
    @pytest.mark.parametrize("a_state", [0, -1])
    def test_match_list_reference(self, chain, a_state, request):
        m = _chain(chain, request)
        a = a_state % m.n
        schemes = {"transport": transport_weights("R", m.n),
                   "activity": activity_weights(m.n)}
        t = simulate(m, seed=17, max_excursions=3000, a_state=a)
        records, residences = excursion_filter(t, a, m.n)
        ref_records, ref_residences = reference.excursion_filter_list(t, a, m.n)
        assert isinstance(records, ExcursionRecords)
        assert np.array_equal(residences, ref_residences)
        assert records.counts.dtype == np.int64
        assert np.array_equal(records.durations, [r.duration for r in ref_records])
        assert np.array_equal(records.counts, np.stack([r.counts for r in ref_records]))
        gamma_a = float(m.gamma[a])
        want = reference.from_records(ref_records, ref_residences, schemes, gamma_a)
        assert_same_sample(
            ExcursionSample.from_records(records, residences, schemes, gamma_a), want)

    def test_counts_formed_once_from_the_jump_codes(self, ref_model):
        # two full slices and a ragged one
        t = simulate(ref_model, seed=4, max_excursions=2 * montecarlo._SLICE + 77)
        records, _ = excursion_filter(t, 0, ref_model.n)
        ref_records, _ = reference.excursion_filter(t, 0, ref_model.n)
        counts = records.counts
        assert counts.dtype == np.int64
        assert not counts.flags.writeable
        assert records.counts is counts
        assert np.array_equal(counts, np.stack([r.counts for r in ref_records]))
        with pytest.raises(ValueError):
            counts[0, 0, 0] = 7

    def test_caller_arrays_stay_writable(self):
        # three excursions 0 -> 1 -> 0 of a two-state chain: codes 2 and 1
        durations, codes = np.ones(3), np.tile(np.array([2, 1], dtype=np.uint8), 3)
        records = ExcursionRecords(durations, codes, np.arange(0, 7, 2), 2)
        assert durations.flags.writeable and codes.flags.writeable
        assert not records.durations.flags.writeable
        assert not records.counts.flags.writeable
        assert len(records) == 3
        assert records.counts.tolist() == [[[0, 1], [1, 0]]] * 3
        with pytest.raises(ValueError):
            records.counts[0, 0, 0] = 7

    @pytest.mark.parametrize("visits", [[0, 2, 4], [0, 2, 4, 6, 8]])
    def test_visits_of_another_length_rejected(self, visits):
        # one bound short or over: counts would keep an unfilled row, and
        # from_records failed on a bare numpy broadcast
        codes = np.tile(np.array([2, 1], dtype=np.uint8), 4)
        with pytest.raises(DimensionMismatch, match=r"^visits has shape \(\d,\), expected "
                                                    r"\(4,\), one more than the durations$"):
            ExcursionRecords(np.ones(3), codes, np.array(visits), 2)


def assert_same_records(t, m, a_state, schemes):
    """The filter and ``from_records`` against the list-building filter and
    the stacking ``from_records``; returns the number of excursions."""
    records, residences = excursion_filter(t, a_state, m.n)
    ref_records, ref_residences = reference.excursion_filter_list(t, a_state, m.n)
    assert np.array_equal(residences, ref_residences)
    assert records.counts.dtype == np.int64
    assert np.array_equal(records.durations, [r.duration for r in ref_records])
    assert np.array_equal(records.counts, np.stack([r.counts for r in ref_records]))
    gamma_a = float(m.gamma[a_state])
    assert_same_sample(
        ExcursionSample.from_records(records, residences, schemes, gamma_a),
        reference.from_records(ref_records, ref_residences, schemes, gamma_a))
    return len(records)


def _traced_peak(fn, *args, **kwargs):
    """``fn``'s result and the peak of the memory traced while it ran."""
    tracemalloc.start()
    try:
        out = fn(*args, **kwargs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return out, peak


class TestSliceBoundaries:
    """The hold draw blocks, the filter's tally slices and ``from_records``'
    q slices reproduce the references bit for bit across their edges."""

    @pytest.mark.parametrize("chain", ["dqd", "blockade"])
    @pytest.mark.parametrize("outside", [False, True])
    def test_excursions_past_one_slice(self, chain, outside, ref_params, request):
        m = _chain(chain, request)
        n = montecarlo._SLICE + 1003
        t = simulate(m, seed=21, max_excursions=n)
        assert_same_trajectory(t, reference.simulate(m, seed=21, max_excursions=n))
        if outside:
            # without its first hold in A the trajectory starts outside it
            t = Trajectory(states=t.states[1:], holds=t.holds[1:])
        schemes = _schemes(ref_params, m.n) if chain == "dqd" else {
            "transport": transport_weights("R", m.n), "activity": activity_weights(m.n)}
        k = assert_same_records(t, m, 0, schemes)
        # one full slice and a ragged one
        assert montecarlo._SLICE < k < 2 * montecarlo._SLICE
        assert k % 8

    def test_from_records_matches_one_thread_reference_at_any_length(self):
        # The stacked reference hands BLAS one gemv over every row; a
        # threaded BLAS splits it into per-thread row ranges and sums the
        # last rows of each range with other kernels, so the reference's own
        # last bits depend on the thread count (OpenBLAS, 2 threads: from
        # about 28 800 rows on).  On one thread the slices line up with it at
        # any length, here far above the threaded size and not a multiple
        # of 8.
        code = """if True:
            import numpy as np
            import reference_montecarlo as reference
            from exclab import ExcursionSample, WeightScheme
            from exclab.montecarlo import ExcursionRecords
            rng = np.random.default_rng(5)
            k = 100_003
            durations = rng.exponential(1.0, k)
            counts = rng.integers(0, 4, (k, 4, 4))
            residences = rng.exponential(1.0, k)
            schemes = {"a": WeightScheme(rng.standard_normal((4, 4))),
                       "b": WeightScheme(rng.uniform(-3.0, 3.0, (4, 4)))}
            # each excursion's tallies as jump codes y * 4 + x, flat at
            # the same index as counts[:, y, x]
            codes = np.repeat(np.tile(np.arange(16, dtype=np.uint8), k), counts.ravel())
            visits = np.concatenate(([0], np.cumsum(counts.sum(axis=(1, 2)))))
            records = ExcursionRecords(durations, codes, visits, 4)
            assert np.array_equal(records.counts, counts)
            got = ExcursionSample.from_records(records, residences, schemes, 1.0)
            records = [reference.ExcursionRecord(d, c) for d, c in zip(durations, counts)]
            want = reference.from_records(records, residences, schemes, 1.0)
            print(all(np.array_equal(got.q[name], want.q[name]) for name in schemes))
        """
        paths = [os.path.dirname(os.path.dirname(montecarlo.__file__)),
                 os.path.dirname(reference.__file__)]
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
                   MKL_NUM_THREADS="1", PYTHONPATH=os.pathsep.join(paths))
        r = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                           env=env, check=True)
        assert r.stdout.strip() == "True"


class TestTrajectoryPeaks:
    """Each full-size array of the trajectory path exists once, and the
    filter keeps one byte per jump, not the tally block: traced peaks on a
    100 000-excursion trajectory (about 1.26 M jumps)."""

    @pytest.fixture(scope="class")
    def trajectory(self, ref_model):
        return simulate(ref_model, seed=9, max_excursions=100_000)

    def test_simulate_below_one_and_a_quarter_trajectories(self, ref_model):
        # a simulated trajectory is its states, the walked bytes: the
        # bytearray's over-allocation and the jump draws' blocks peak at
        # 1.15 x of them here (1.14-1.25 x over seeds 1-8); an int64 copy
        # of the states, or holds kept at 8 bytes per jump, adds 8 x.  numpy
        # imports numpy.random on first use, about 0.6 MB that is not the
        # walk's, so a short walk runs first.
        simulate(ref_model, seed=9, max_excursions=10)
        t, peak = _traced_peak(simulate, ref_model, seed=9, max_excursions=100_000)
        assert "holds" not in vars(t)
        size = t.states.nbytes
        assert peak <= 1.25 * size, peak / size

    def test_filter_below_one_and_a_half_results(self, ref_model, trajectory):
        # what the filter keeps: one byte-wide code per jump from the first
        # visit of A to the last, the K + 1 visits, the K durations and the
        # K residences (1.31 x); with an index and a gather per segment-sum
        # pass and the lengths kept through the passes it peaked at 1.75 x
        (records, residences), peak = _traced_peak(excursion_filter, trajectory, 0, ref_model.n)
        visits = np.flatnonzero(trajectory.states == 0)
        assert visits.size == len(records) + 1
        codes = visits[-1] - visits[0]  # bytes, one per jump
        size = codes + visits.nbytes + records.durations.nbytes + residences.nbytes
        assert peak <= 1.5 * size, peak / size

    def test_from_records_below_half_the_tallies(self, ref_params, ref_model, trajectory):
        # the float copy of the whole tally block peaked at 1.19 x; the
        # filter's records tally one slice at a time (0.42 x)
        records, residences = excursion_filter(trajectory, 0, ref_model.n)
        schemes = {k: v for k, v in _schemes(ref_params, 4).items() if k != "transport_L"}
        _, peak = _traced_peak(ExcursionSample.from_records, records, residences, schemes,
                               float(ref_model.gamma[0]))
        # the bytes the (K, n, n) int64 block would take, without forming it
        tallies = len(records) * ref_model.n**2 * np.dtype(np.int64).itemsize
        assert peak <= 0.5 * tallies, peak / tallies


    def test_simulate_and_filter_below_the_holds(self, ref_model):
        # the holds are drawn where the filter reads them; simulate kept
        # them, 8 bytes per jump (10.1 MB here), and peaked at 16.4 MB with
        # the filter after it
        def simulate_and_filter():
            t = simulate(ref_model, seed=9, max_excursions=100_000)
            return t, excursion_filter(t, 0, ref_model.n)

        (t, _), peak = _traced_peak(simulate_and_filter)
        assert "holds" not in vars(t)
        holds = t.states.size * np.dtype(np.float64).itemsize
        assert peak < holds, peak / holds


class TestDrawnHolds:
    """A simulated trajectory keeps no holds: the filter and the dump
    redraw them block by block, and ``holds`` and ``total_time`` are drawn
    once, when first read, all with the per-jump loop's bits."""

    @pytest.mark.parametrize("first", [None, "holds", "total_time"])
    def test_holds_read_before_or_after_match_reference(self, ref_model, tmp_path, first):
        # about 113 000 jumps, past one filter block
        t = simulate(ref_model, seed=23, max_excursions=9000)
        ref = reference.simulate(ref_model, seed=23, max_excursions=9000)
        if first is not None:
            getattr(t, first)
        records, residences = excursion_filter(t, 0, ref_model.n)
        dump_trajectory(t, tmp_path / "new.tsv", labels=ref_model.labels)
        assert ("holds" in vars(t)) == (first is not None)
        assert_same_trajectory(t, ref)
        assert t.holds is t.holds
        ref_records, ref_residences = reference.excursion_filter(ref, 0, ref_model.n)
        assert np.array_equal(residences, ref_residences)
        assert records.durations.tolist() == [r.duration for r in ref_records]
        assert np.array_equal(records.counts, np.stack([r.counts for r in ref_records]))
        reference.dump_trajectory(ref, tmp_path / "ref.tsv", labels=ref_model.labels)
        assert (tmp_path / "new.tsv").read_bytes() == (tmp_path / "ref.tsv").read_bytes()

    def test_dump_leaves_the_holds_undrawn(self, ref_model, tmp_path):
        t = simulate(ref_model, seed=24, max_excursions=20_000)
        _, peak = _traced_peak(dump_trajectory, t, tmp_path / "traj.tsv")
        assert "holds" not in vars(t) and "total_time" not in vars(t)
        assert peak < t.states.size * np.dtype(np.float64).itemsize

    @pytest.mark.parametrize("drawn", [False, True])
    def test_segments_across_filter_blocks_match_reference(self, drawn):
        # the first excursion ends at a filter block's edge, where the next
        # departs; the second covers the next block whole
        block = montecarlo._FILTER_BLOCK
        rng = np.random.default_rng(13)
        states = [0]
        for length in [block - 1, 2 * block + 100, *rng.integers(1, 40, 300)]:
            states += [1 + i % 2 for i in range(length)] + [0]
        states = np.array(states, dtype=np.uint8)
        assert states[block] == 0
        seq, gamma = np.random.SeedSequence(5), np.array([1.0, 2.0, 0.5])
        holds = Trajectory._drawn(states, seq, gamma).holds
        t = (Trajectory._drawn(states, seq, gamma) if drawn
             else Trajectory(states=states, holds=holds))
        records, residences = excursion_filter(t, 0, 3)
        assert ("holds" in vars(t)) != drawn
        ref_records, ref_residences = reference.excursion_filter(
            Trajectory(states=states, holds=holds), 0, 3)
        assert np.array_equal(residences, ref_residences)
        assert records.durations.tolist() == [r.duration for r in ref_records]


class TestExcursionFilter:
    def test_minimal_handcrafted_trajectory(self):
        t = Trajectory(states=np.array([0, 1, 0, 2, 0]),
                       holds=np.array([0.5, 1.0, 0.25, 2.0, 0.125]))
        assert t.total_time == 3.875
        with pytest.raises(TypeError):
            Trajectory(states=t.states, holds=t.holds, total_time=99.0)
        records, residences = excursion_filter(t, 0, n_states=3)
        assert len(records) == 2
        assert records.counts.sum(axis=(1, 2)).tolist() == [2, 2]
        assert records.durations.tolist() == [1.0, 2.0]
        assert list(residences) == [0.5, 0.25]

    def test_segmentation_completeness(self, ref_model):
        t = simulate(ref_model, seed=9, max_excursions=2000)
        records, residences = excursion_filter(t, 0, n_states=4)
        durations = sum(records.durations.tolist())
        tail = t.total_time - durations - residences.sum()
        assert tail >= -1e-9 * t.total_time
        assert abs(t.total_time - durations - residences.sum() - tail) \
            <= 1e-9 * t.total_time

    def test_activity_at_least_two(self, ref_model):
        t = simulate(ref_model, seed=21, max_excursions=2000)
        records, _ = excursion_filter(t, 0, n_states=4)
        assert len(records) == 2000
        assert records.counts.sum(axis=(1, 2)).min() >= 2

    def test_counts_cross_the_cut(self, ref_model):
        t = simulate(ref_model, seed=2, max_excursions=500)
        records, _ = excursion_filter(t, 0, n_states=4)
        # one entry jump out of A and one exit jump back per excursion
        assert (records.counts[:, :, 0].sum(axis=1) == 1).all()
        assert (records.counts[:, 0, :].sum(axis=1) == 1).all()


    @staticmethod
    def _traj(states):
        holds = 0.5 + 0.25 * np.arange(len(states))
        return Trajectory(states=np.array(states, dtype=np.int64), holds=holds)

    def test_start_outside_a(self):
        t = self._traj([2, 1, 0, 1, 2, 0, 3, 0])
        records, residences = assert_same_filter(t, 0, 4)
        assert len(records) == 2
        assert list(residences) == [t.holds[2], t.holds[5]]
        first = records.counts[0]
        assert records.durations[0] == t.holds[3] + t.holds[4]
        assert first[1, 0] == 1 and first[0, 2] == 1
        assert first[0, 1] == 0  # the jump into A before it is not counted

    def test_trailing_partial_excursion_dropped_with_its_residence(self):
        t = self._traj([0, 1, 0, 2, 3])
        records, residences = assert_same_filter(t, 0, 4)
        assert len(records) == 1
        assert list(residences) == [t.holds[0]]

    def test_ends_on_a(self):
        t = self._traj([0, 1, 2, 0])
        records, residences = assert_same_filter(t, 0, 3)
        assert len(records) == 1 and list(residences) == [t.holds[0]]
        assert records.durations[0] == t.holds[1] + t.holds[2]

    @pytest.mark.parametrize("states", [[1, 2, 1], [1, 0, 2], [2, 0], [0], [3]])
    def test_no_complete_excursion(self, states):
        records, residences = assert_same_filter(self._traj(states))
        assert len(records) == 0
        assert residences.dtype == np.float64 and residences.shape == (0,)

    def test_n_states_inferred(self):
        records, _ = assert_same_filter(self._traj([0, 2, 1, 0, 1, 0]))
        assert records.counts.shape == (2, 3, 3)
        assert records.counts.dtype == np.int64

    def test_n_states_too_small(self):
        with pytest.raises(DimensionMismatch):
            excursion_filter(self._traj([0, 3, 0]), 0, n_states=3)

    @pytest.mark.parametrize("n", [17, 256])
    def test_two_byte_codes_match_reference(self, n):
        # more than 16 states take a two-byte jump code
        t = simulate(_ring(n), seed=3, max_excursions=10)
        records, _ = assert_same_filter(t, 0, n)
        assert records._codes.dtype == np.uint16

    @pytest.mark.parametrize("n_states", [None, 3])
    def test_empty_trajectory_gives_empty_records(self, n_states):
        records, residences = excursion_filter(self._traj([]), 0, n_states)
        assert len(records) == 0 and records.durations.shape == (0,)
        n = 1 if n_states is None else n_states
        assert records.counts.shape == (0, n, n)
        assert residences.dtype == np.float64 and residences.shape == (0,)

    @pytest.mark.parametrize("n_states", [None, 3])
    def test_negative_state_named(self, n_states):
        # a byte-wide jump code would wrap it
        with pytest.raises(DimensionMismatch, match="state -1"):
            excursion_filter(self._traj([0, 1, 0, -1, 0]), 0, n_states)

    def test_non_integer_states_rejected(self):
        holds = np.ones(5)
        t = Trajectory(states=np.array([0.0, 1.5, 0.0, 2.0, 0.0]), holds=holds)
        with pytest.raises(ValueError, match="1.5"):
            excursion_filter(t, 0, 3)
        # integral floats are states
        t = Trajectory(states=np.array([0.0, 1.0, 0.0, 2.0, 0.0]), holds=holds)
        assert excursion_filter(t, 0, 3)[0].counts.tolist() == \
            excursion_filter(self._traj([0, 1, 0, 2, 0]), 0, 3)[0].counts.tolist()

    def test_holds_of_another_length_rejected(self):
        t = Trajectory(states=np.array([0, 1, 0, 2, 0]), holds=np.ones(4))
        with pytest.raises(DimensionMismatch, match="holds"):
            excursion_filter(t, 0, 3)


class TestSampleExcursions:
    def test_matches_trajectory_filter_statistics(self, ref_params, ref_model):
        schemes = _schemes(ref_params, 4)
        sample = sample_excursions(ref_model, schemes, 50_000, seed=31)
        t = simulate(ref_model, seed=77, max_excursions=50_000)
        records, residences = excursion_filter(t, 0, n_states=4)
        other = ExcursionSample.from_records(
            records, residences, schemes, gamma_a=float(ref_model.gamma[0]))
        # particle conservation holds record by record on the filter path too
        assert np.array_equal(other.q["transport_L"], -other.q["transport"])
        # two independent samplers of the same law
        for key in ("transport", "activity"):
            za = (sample.q[key].mean() - other.q[key].mean()) / math.sqrt(
                sample.q[key].var() / sample.n + other.q[key].var() / other.n)
            assert abs(za) < 4.0

    def test_worker_count_does_not_change_the_sample(self, ref_params, ref_model):
        schemes = {"transport": transport_weights("R", 4)}
        s1 = sample_excursions(ref_model, schemes, 150_000, seed=8, workers=1)
        s2 = sample_excursions(ref_model, schemes, 150_000, seed=8, workers=2)
        assert np.array_equal(s1.durations, s2.durations)
        assert np.array_equal(s1.residences, s2.residences)
        assert np.array_equal(s1.q["transport"], s2.q["transport"])

    def test_import_does_not_load_the_process_pool(self):
        # the pool is imported only when workers > 1; loading it at import
        # time slowed the start of every CLI command
        code = "import sys, exclab; print('concurrent.futures.process' in sys.modules)"
        r = subprocess.run([sys.executable, "-c", code], capture_output=True,
                           text=True, check=True)
        assert r.stdout.strip() == "False"

    def test_left_equals_minus_right_on_every_excursion(self, ref_params, ref_model):
        schemes = _schemes(ref_params, 4)
        sample = sample_excursions(ref_model, schemes, 100_000, seed=13)
        assert np.array_equal(sample.q["transport_L"], -sample.q["transport"])
        qr, ql = sample.q["transport"], sample.q["transport_L"]
        cov = np.cov(ql, qr)
        assert cov[0, 1] == pytest.approx(-qr.var(ddof=1), rel=1e-12)

    @pytest.mark.parametrize("n", [0, -5, -70_000])
    def test_nonpositive_count_rejected(self, ref_model, n):
        schemes = {"transport": transport_weights("R", 4)}
        with pytest.raises(ValueError, match=f"n_excursions must be >= 1, got {n}"):
            sample_excursions(ref_model, schemes, n, seed=4)


class TestReferenceEnsemble:
    """The compacted ensemble loop and the sliced jackknife reproduce the
    full-size loops in ``reference_montecarlo`` bit for bit."""

    @pytest.mark.parametrize("chain", ["dqd", "blockade"])
    @pytest.mark.parametrize("a_state", [0, -1])
    @pytest.mark.parametrize("spread", [False, True])
    def test_sample_matches_reference(self, chain, a_state, spread, request):
        m = _chain(chain, request)
        a = a_state % m.n
        params = request.getfixturevalue(
            {"dqd": "ref_params", "blockade": "ref_blockade_params"}[chain])
        schemes = {"spread": _spread(m.n)} if spread else _schemes(params, m.n)
        kwargs = dict(seed=5, a_state=a)
        sample = sample_excursions(m, schemes, 3001, **kwargs)
        assert_same_sample(sample, reference.sample_excursions(m, schemes, 3001, **kwargs))

    @pytest.mark.parametrize("a_state", [0, 3])
    def test_long_excursions_match_reference(self, a_state):
        # state 00 is rare at vg = -10, so excursions from it run to
        # hundreds of jumps and the loop runs long on few excursions
        p = DqdParams(vg=-10.0, vsd=7.0, **REF)
        m = build_model(p)
        schemes = _schemes(p, 4)
        kwargs = dict(seed=11, a_state=a_state)
        sample = sample_excursions(m, schemes, 300, **kwargs)
        assert_same_sample(sample, reference.sample_excursions(m, schemes, 300, **kwargs))
        if a_state == 0:
            assert sample.q["activity"].max() > 100

    @pytest.mark.parametrize("spread", [False, True])
    def test_two_workers_and_ragged_batches_match_reference(self, ref_params, ref_model,
                                                            spread):
        n = _BATCH + 777
        schemes = {"spread": _spread(4)} if spread else _schemes(ref_params, 4)
        sample = sample_excursions(ref_model, schemes, n, seed=9, workers=2)
        assert_same_sample(sample, reference.sample_excursions(ref_model, schemes, n, seed=9))

    @pytest.mark.parametrize("name", ["transport", "activity", "entropy"])
    def test_empirical_moments_match_reference_at_64(self, ref_params, ref_model, name):
        sample = sample_excursions(ref_model, _schemes(ref_params, 4), 64, seed=12)
        emp = empirical_moments(sample, name)
        ref = reference.empirical_moments(sample, name)
        assert emp.estimates == ref.estimates
        assert emp.scales == ref.scales and emp.n == ref.n == 64

    def test_empirical_moments_match_reference_at_a_million(self, ref_params):
        # a sample across many jackknife slices, the last one partial
        rng = np.random.default_rng(21)
        n = 1_000_000
        schemes = {"transport": transport_weights("R", 4),
                   "entropy": entropy_weights(ref_params)}
        sample = ExcursionSample(
            durations=rng.exponential(2.0, n), residences=rng.exponential(1.0, n),
            q={"transport": rng.integers(-2, 3, n).astype(float),
               "entropy": rng.normal(0.3, 1.7, n)},
            schemes=schemes, gamma_a=1.0)
        for name in schemes:
            emp = empirical_moments(sample, name)
            ref = reference.empirical_moments(sample, name)
            assert emp.estimates == ref.estimates, name
            assert emp.scales == ref.scales


def _spread(n):
    """A scheme with a distinct weight per transition, so a jump taken
    under a wrong code moves its excursion's q."""
    return WeightScheme(np.arange(float(n * n)).reshape(n, n) / 7.0)


def _forward_ring(k):
    """k states on a ring that turns only forward, so every excursion
    takes exactly k jumps."""
    w = np.zeros((k, k))
    w[(np.arange(k) + 1) % k, np.arange(k)] = 1.0 + np.arange(k)
    return validate_rate_matrix(w)


def _signed(k):
    """A unit count of k states: +1 for a jump out of an even state, -1
    out of an odd one."""
    return WeightScheme(np.where(np.arange(k) % 2, -1.0, 1.0) * (1.0 - np.eye(k)))


class TestUnitCounts:
    """A unit count (integer weights, |w| <= 1) is int32 from the samplers
    to the sample, and equals the float64 references after widening
    (``assert_same_sample``); every other scheme stays float64."""

    @staticmethod
    def _schemes(params):
        schemes = _schemes(params, 4)
        # integer but not unit weights, and non-integer ones
        schemes["double"] = WeightScheme(2.0 * schemes["transport"].weights)
        schemes["spread"] = _spread(4)
        return schemes

    @pytest.mark.parametrize("path", ["serial", "workers", "trajectory"])
    def test_column_dtype_of_each_scheme(self, ref_params, ref_model, path):
        schemes = self._schemes(ref_params)
        if path == "trajectory":
            t = simulate(ref_model, seed=3, max_excursions=3000)
            records, residences = excursion_filter(t, 0, 4)
            sample = ExcursionSample.from_records(records, residences, schemes,
                                                  float(ref_model.gamma[0]))
        else:
            # two batches, so that two workers pool them
            sample = sample_excursions(ref_model, schemes, _BATCH + 10, seed=3,
                                       workers=2 if path == "workers" else 1)
        assert {name: v.dtype for name, v in sample.q.items()} == {
            "transport": np.int32, "transport_L": np.int32, "activity": np.int32,
            "entropy": np.float64, "double": np.float64, "spread": np.float64}
        assert np.array_equal(sample.q["double"], 2 * sample.q["transport"])
        assert sample.q["activity"].min() >= 2

    def test_sample_keeps_int32_columns_read_only(self):
        counts = np.arange(64, dtype=np.int32)
        sample = ExcursionSample(
            durations=np.ones(64), residences=np.ones(64), q={"activity": counts},
            schemes={"activity": activity_weights(4)}, gamma_a=1.0)
        assert sample.q["activity"].dtype == np.int32
        assert np.array_equal(sample.q["activity"], counts)
        assert counts.flags.writeable
        with pytest.raises(ValueError):
            sample.q["activity"][0] = 7

    def test_ensemble_guard_trips_before_a_count_could_pass_its_limit(self, monkeypatch):
        m = _forward_ring(5)
        schemes = {"activity": activity_weights(5), "signed": _signed(5)}
        monkeypatch.setattr(montecarlo, "_COUNT_MAX", 5)
        sample = sample_excursions(m, schemes, 100, seed=1)
        assert sample.q["activity"].tolist() == [5] * 100
        assert sample.q["signed"].tolist() == [1] * 100
        monkeypatch.setattr(montecarlo, "_COUNT_MAX", 4)
        with pytest.raises(CountOverflow, match=r"^unit count 'activity', 'signed': an "
                                                r"excursion of 5 jumps can pass 4,"):
            sample_excursions(m, schemes, 100, seed=1)
        # a float64 column has no such limit
        sample = sample_excursions(m, {"spread": _spread(5)}, 100, seed=1)
        assert sample.q["spread"].dtype == np.float64

    def test_from_records_guard_reads_the_longest_excursion(self, monkeypatch):
        m = _forward_ring(5)
        records, residences = excursion_filter(simulate(m, seed=2, max_excursions=50), 0, 5)
        schemes = {"activity": activity_weights(5), "signed": _signed(5),
                   "spread": _spread(5)}
        monkeypatch.setattr(montecarlo, "_COUNT_MAX", 5)
        sample = ExcursionSample.from_records(records, residences, schemes, 1.0)
        assert sample.q["activity"].tolist() == [5] * 50
        monkeypatch.setattr(montecarlo, "_COUNT_MAX", 4)
        with pytest.raises(CountOverflow, match=r"^unit count 'activity', 'signed': an "
                                                r"excursion of 5 jumps can pass 4,"):
            ExcursionSample.from_records(records, residences, schemes, 1.0)
        ExcursionSample.from_records(records, residences, {"spread": _spread(5)}, 1.0)

    def test_from_records_guard_one_past_the_int32_limit(self):
        # one excursion of 2**31 jumps, its codes a zero-stride view
        top = np.iinfo(np.int32).max
        codes = np.broadcast_to(np.uint8(2), (top + 1,))
        records = ExcursionRecords(np.ones(1), codes, np.array([0, top + 1]), 2)
        schemes = {"activity": activity_weights(2)}
        with pytest.raises(CountOverflow, match=f"'activity': an excursion of {top + 1} "):
            ExcursionSample.from_records(records, np.ones(1), schemes, 1.0)

    def test_first_moments_call_forms_no_full_size_float_row(self, ref_params):
        # a full-size float64 or int64 copy of a count is one row (8 bytes
        # per excursion); the first call peaks at 0.30 rows and a later
        # one, widening one direct batch at a time, at 0.03
        n = 1_000_000
        counts = _random_sample(n, ref_params)
        q = {"transport": counts.q["transport"].astype(np.int32),
             "activity": counts.q["activity"].astype(np.int32)}
        sample = ExcursionSample(durations=counts.durations, residences=counts.residences, q=q,
                                 schemes=counts.schemes, gamma_a=1.0)
        for name, rows in (("transport", 0.5), ("activity", 0.1)):
            emp, peak = _traced_peak(empirical_moments, sample, name)
            assert peak <= rows * 8 * n, (name, peak / (8 * n))
            # the float64 columns' estimates, to the last bit
            assert emp.estimates == empirical_moments(counts, name).estimates, name

    def test_moments_of_long_excursions_widen_before_products(self, ref_params):
        # q * q of counts past 46 340 wraps in int32
        floats = _random_sample(4096, ref_params)
        rng = np.random.default_rng(3)
        q = {"transport": rng.integers(-70_000, 70_000, 4096).astype(np.int32),
             "activity": rng.integers(50_000, 90_000, 4096).astype(np.int32)}
        counts = ExcursionSample(durations=floats.durations, residences=floats.residences,
                                 q=q, schemes=floats.schemes, gamma_a=1.0)
        floats = ExcursionSample(durations=floats.durations, residences=floats.residences,
                                 q={k: v.astype(np.float64) for k, v in q.items()},
                                 schemes=floats.schemes, gamma_a=1.0)
        for name in q:
            assert (empirical_moments(counts, name).estimates
                    == empirical_moments(floats, name).estimates), name

    def test_histogram_reads_the_counts_as_they_are(self, ref_params):
        # np.rint and an int64 copy took 18 bytes per excursion; the int32
        # counts are sorted in one copy of their own (6 bytes)
        n = 1_000_000
        floats = _random_sample(n, ref_params)
        q = {"transport": floats.q["transport"].astype(np.int32)}
        sample = ExcursionSample(durations=floats.durations, residences=floats.residences,
                                 q=q, schemes=floats.schemes, gamma_a=1.0)
        (qs, freqs, ses), peak = _traced_peak(empirical_outcome_histogram, sample, "transport")
        assert peak < 8 * n, peak / n
        want = empirical_outcome_histogram(floats, "transport")
        assert qs.tolist() == want[0].tolist() == [-2, -1, 0, 1, 2]
        assert np.array_equal(freqs, want[1]) and np.array_equal(ses, want[2])


def _dyadic_chain():
    """A 4-state chain whose jump probabilities are 1/4 and 1/2, so every
    cumulative threshold sits on an edge of the code table's bins; state
    0's first threshold is 0 and state 3's last one is 1."""
    w = np.zeros((4, 4))
    w[1:, 0] = [1.0, 1.0, 2.0]
    w[[0, 2, 3], 1] = [2.0, 1.0, 1.0]
    w[[0, 1, 3], 2] = [1.0, 2.0, 1.0]
    w[:3, 3] = [2.0, 1.0, 1.0]
    return validate_rate_matrix(w)


class TestCodeTable:
    """The ensemble's (state, bin of u) code table against ``searchsorted``
    at the lowest and the highest u of every bin."""

    @staticmethod
    def assert_matches_searchsorted(cum):
        k, bins = cum.shape[0], montecarlo._BINS
        table = montecarlo._code_table(cum).reshape(k, bins)
        edges = np.arange(bins + 1) / bins
        lowest, highest = edges[:-1], np.nextafter(edges[1:], 0.0)
        for s in range(k):
            lo = np.searchsorted(cum[s], lowest, side="right") * k + s
            hi = np.searchsorted(cum[s], highest, side="right") * k + s
            # a bin is split exactly where its two ends jump differently
            assert np.array_equal(table[s], np.where(lo == hi, lo, -1)), s
        return table

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_random_chains(self, n):
        rng = np.random.default_rng(100 + n)
        for _ in range(20):
            m = validate_rate_matrix(random_chain(rng, n))
            table = self.assert_matches_searchsorted(montecarlo._cumulative_jump_probs(m))
            # a two-state chain's one threshold per state is 0 or 1
            assert (table < 0).any() == (n > 2)

    def test_thresholds_on_bin_edges_split_no_bin(self):
        cum = montecarlo._cumulative_jump_probs(_dyadic_chain())
        assert set(cum.ravel().tolist()) == {0.0, 0.25, 0.5, 0.75, 1.0}
        assert cum[0, 0] == 0.0 and cum[3, 2] == 1.0
        assert (self.assert_matches_searchsorted(cum) >= 0).all()

    @pytest.mark.parametrize("a_state", [0, 3])
    def test_dyadic_chain_sample_matches_reference(self, a_state):
        m = _dyadic_chain()
        schemes = {"transport": transport_weights("R", 4), "activity": activity_weights(4),
                   "spread": _spread(4)}
        kwargs = dict(seed=13, a_state=a_state)
        sample = sample_excursions(m, schemes, 3001, **kwargs)
        assert_same_sample(sample, reference.sample_excursions(m, schemes, 3001, **kwargs))


def _random_sample(n, params, seed=21):
    rng = np.random.default_rng(seed)
    schemes = {"transport": transport_weights("R", 4), "activity": activity_weights(4),
               "entropy": entropy_weights(params)}
    return ExcursionSample(
        durations=rng.exponential(2.0, n), residences=rng.exponential(1.0, n),
        q={"transport": rng.integers(-2, 3, n).astype(float),
           "activity": rng.integers(2, 9, n).astype(float),
           "entropy": rng.normal(0.3, 1.7, n)},
        schemes=schemes, gamma_a=1.0)


class TestDurationHalf:
    """One streamed jackknife per sample covers the duration rows and every
    scheme's rows, from slices of q, t and tau; no full-size row is formed."""

    @pytest.fixture
    def jackknifes(self, monkeypatch):
        calls = []
        real = montecarlo._jackknife

        def counted(*args):
            calls.append(args[0])
            return real(*args)
        monkeypatch.setattr(montecarlo, "_jackknife", counted)
        return calls

    def test_one_duration_jackknife_per_sample(self, jackknifes, ref_params, ref_model):
        schemes = {k: v for k, v in _schemes(ref_params, 4).items() if k != "transport_L"}
        ensemble = sample_excursions(ref_model, schemes, 3000, seed=7)
        t = simulate(ref_model, seed=7, max_excursions=3000)
        records, residences = excursion_filter(t, 0, n_states=4)
        filtered = ExcursionSample.from_records(
            records, residences, schemes, gamma_a=float(ref_model.gamma[0]))
        for sample in (ensemble, filtered):
            jackknifes.clear()
            for name in schemes:
                empirical_moments(sample, name)
            # the duration rows and every scheme's rows in one jackknife
            assert len(jackknifes) == 1

    def test_call_order_does_not_change_the_estimates(self, ref_params):
        sample = _random_sample(70_000, ref_params)
        for name in ("entropy", "transport", "activity"):
            emp = empirical_moments(sample, name)
            ref = reference.empirical_moments(sample, name)
            assert emp.estimates == ref.estimates, name
            assert list(emp.estimates) == list(ref.estimates)
            assert emp.scales == ref.scales

    def test_sample_arrays_are_read_only(self, ref_model):
        durations, residences = np.ones(64), np.full(64, 0.5)
        sample = ExcursionSample(
            durations=durations, residences=residences, q={}, schemes={},
            gamma_a=2.0)
        assert durations.flags.writeable and residences.flags.writeable
        ensemble = sample_excursions(
            ref_model, {"transport": transport_weights("R", 4)}, 100, seed=3)
        for s in (sample, ensemble):
            for name in ("durations", "residences"):
                with pytest.raises(ValueError):
                    getattr(s, name)[0] = 7.0

    def test_q_is_a_read_only_float_mapping(self, ref_model):
        q = {"transport": np.arange(64.0), "activity": np.arange(64)}
        schemes = {"transport": transport_weights("R", 4), "activity": activity_weights(4)}
        sample = ExcursionSample(
            durations=np.ones(64), residences=np.ones(64), q=q, schemes=schemes,
            gamma_a=1.0)
        assert q["transport"].flags.writeable and q["activity"].flags.writeable
        for name, values in sample.q.items():
            assert values.dtype == np.float64 and values.shape == (64,)
            assert np.array_equal(values, q[name])
            with pytest.raises(ValueError):
                values[0] = 7.0
        with pytest.raises(TypeError):
            sample.q["entropy"] = np.zeros(64)
        # the caller's dict is not the sample's
        q["entropy"] = np.zeros(64)
        assert "entropy" not in sample.q

    @pytest.mark.parametrize("shape", [(63,), (65,), (64, 1), ()])
    def test_q_of_the_wrong_length_names_its_scheme(self, shape):
        q = {"transport": np.zeros(64), "activity": np.zeros(shape)}
        with pytest.raises(DimensionMismatch, match=r"q\['activity'\] has shape"):
            ExcursionSample(durations=np.ones(64), residences=np.ones(64), q=q,
                            schemes={}, gamma_a=1.0)

    def test_residences_of_the_wrong_length_rejected(self, ref_model):
        with pytest.raises(DimensionMismatch, match="residences has shape"):
            ExcursionSample(durations=np.ones(64), residences=np.ones(65), q={},
                            schemes={}, gamma_a=1.0)
        # durations are held to one dimension too
        with pytest.raises(DimensionMismatch, match=r"^durations has shape \(8, 16\)"):
            ExcursionSample(durations=np.ones((8, 16)), residences=np.ones(128), q={},
                            schemes={}, gamma_a=1.0)
        # from_records passes residences through whole, shorter or longer
        t = simulate(ref_model, seed=3, max_excursions=100)
        records, residences = excursion_filter(t, 0, ref_model.n)
        for res in (residences[:50], np.concatenate([residences] * 5)):
            with pytest.raises(DimensionMismatch, match="residences has shape"):
                ExcursionSample.from_records(records, res, {}, 1.0)

    @pytest.mark.parametrize("n", [1, 7, 8, 9, 127, 128, 129, 16383, 16384, 16385,
                                   16392, 32769, 65536, 999983, 1_000_000])
    def test_tree_sum_is_numpy_sum(self, n):
        # values over 10 decades, both signs; a numpy change to its pairwise
        # summation order fails here by name
        rng = np.random.default_rng(n)
        x = rng.standard_normal(n) * 10.0 ** rng.uniform(-5.0, 5.0, n)
        block = np.stack([x, x * x, np.exp(-x * x), rng.exponential(1.0, n)])
        assert montecarlo._tree_sum(lambda lo, hi: [x[lo:hi]], 0, n)[0] == np.sum(x)
        sums = montecarlo._tree_sum(lambda lo, hi: block[:, lo:hi], 0, n)
        assert sums.tolist() == [np.sum(row) for row in block]

    def test_traced_peak_first_call_one_row_later_calls_none(self, ref_params):
        # the row-holding jackknife peaked at 5.33 full-size rows per call
        n = 1_000_000
        sample = _random_sample(n, ref_params)
        for name in ("transport", "entropy", "activity"):
            tracemalloc.start()
            try:
                empirical_moments(sample, name)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            # the first call fills the cache; the others only read it
            rows = 1.1 if name == "transport" else 0.1
            assert peak <= rows * 8 * n, (name, peak / (8 * n))

    def test_ensemble_traced_peak_below_one_and_a_half_results(self, ref_params, ref_model):
        # the batches were concatenated at the end, 2.02 x the result bytes
        schemes = {k: v for k, v in _schemes(ref_params, 4).items() if k != "transport_L"}
        tracemalloc.start()
        try:
            sample = sample_excursions(ref_model, schemes, 1_000_000, seed=2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        result = sum(a.nbytes for a in (sample.durations, sample.residences, *sample.q.values()))
        assert peak <= 1.5 * result, peak / result

    def test_serial_ensemble_writes_its_batches_in_place(self, ref_params, ref_model):
        # batches copied into the outputs peaked at 1.34 x the result bytes;
        # written into their slices they peak at 1.22 x
        schemes = {k: v for k, v in _schemes(ref_params, 4).items() if k != "transport_L"}
        sample, peak = _traced_peak(sample_excursions, ref_model, schemes, 1_000_000, seed=2)
        result = sum(a.nbytes for a in (sample.durations, sample.residences, *sample.q.values()))
        assert peak <= 1.25 * result, peak / result


class TestEmpiricalMoments:
    def test_agrees_with_engine_at_reference(self, ref_params, ref_model, ref_dec):
        schemes = _schemes(ref_params, 4)
        sample = sample_excursions(ref_model, schemes, 200_000, seed=101)
        for name in ("transport", "activity", "entropy"):
            rep = excursion_report(ref_dec, schemes[name])
            emp = empirical_moments(sample, name)
            targets = dict(e_q=rep.e_q, var_q=rep.var_q, e_t=rep.e_t,
                           var_t=rep.var_t, cov_qt=rep.cov_qt, mu=rep.mu,
                           delta2=rep.delta2, j=rep.j, d=rep.d)
            for key, ref in targets.items():
                assert abs(emp.z(key, ref)) < 4.0, f"{name}/{key}"

    def test_direct_estimates_consistent(self, ref_params, ref_model, ref_dec):
        schemes = {"transport": transport_weights("R", 4)}
        sample = sample_excursions(ref_model, schemes, 200_000, seed=55)
        emp = empirical_moments(sample, "transport")
        j, se_j = emp.estimates["j"]
        jd, se_jd = emp.estimates["j_direct"]
        assert abs(j - jd) < 4 * max(se_j, se_jd)
        rep = excursion_report(ref_dec, schemes["transport"])
        assert abs(emp.z("j_direct", rep.j)) < 4.0
        d_direct, se_d = emp.estimates["d_direct"]
        assert abs(d_direct - rep.d) < 4 * se_d

    def test_null_scheme_statistics_vanish(self, ref_model):
        schemes = {"null": WeightScheme(np.zeros((4, 4)))}
        sample = sample_excursions(ref_model, schemes, 1000, seed=6)
        emp = empirical_moments(sample, "null")
        for key in ("e_q", "var_q", "cov_qt", "j", "d"):
            assert emp.estimates[key][0] == 0.0

    def test_zero_spread_z_uses_a_rounding_floor(self):
        # every excursion carries the same q, so its standard error is 0;
        # only a gap beyond rounding on the observable's scale is a failure
        rng = np.random.default_rng(8)
        n = 4096
        scheme = transport_weights("R", 4)
        sample = ExcursionSample(
            durations=rng.exponential(2.0, n), residences=rng.exponential(1.0, n),
            q={"transport": np.full(n, 0.5)}, schemes={"transport": scheme},
            gamma_a=1.0)
        emp = empirical_moments(sample, "transport")
        assert emp.estimates["e_q"] == (0.5, 0.0)
        assert emp.z("e_q", 0.5) == 0.0
        assert emp.z("e_q", 0.5 + 1e-12) == 0.0
        assert emp.z("e_q", 0.5 + 1e-3) == math.inf
        assert emp.z("e_q", 0.5 - 1e-3) == math.inf
        v, se = emp.estimates["e_t"]
        assert se > 0 and emp.z("e_t", 2.0) == (v - 2.0) / se

    def test_too_few_records(self, ref_model):
        schemes = {"transport": transport_weights("R", 4)}
        sample = sample_excursions(ref_model, schemes, 10, seed=1)
        with pytest.raises(TooFewRecords, match="need at least 64 excursions .* got 10"):
            empirical_moments(sample, "transport")

    def test_standard_errors_scale_as_root_n(self, ref_params, ref_model):
        schemes = {"transport": transport_weights("R", 4)}
        s1 = sample_excursions(ref_model, schemes, 40_000, seed=3)
        s2 = sample_excursions(ref_model, schemes, 80_000, seed=3)
        e1 = empirical_moments(s1, "transport")
        e2 = empirical_moments(s2, "transport")
        for key in ("e_q", "var_q", "j", "d"):
            ratio = e2.estimates[key][1] / e1.estimates[key][1]
            assert abs(ratio - 1 / math.sqrt(2)) < 0.2 / math.sqrt(2), key


class TestOutcomeHistogram:
    def test_blockade_support_and_frequencies(self, ref_blockade_params,
                                              ref_blockade_model):
        schemes = {"transport": transport_weights("R", 3)}
        sample = sample_excursions(ref_blockade_model, schemes, 200_000, seed=19)
        qs, freqs, ses = empirical_outcome_histogram(sample, "transport")
        assert set(qs.tolist()) <= {-1, 0, 1}
        triple = success_fail_disaster(ref_blockade_params)
        ref = {-1: triple.p_dis, 0: triple.p_fail, 1: triple.p_suc}
        for q, fr, se in zip(qs, freqs, ses):
            assert abs(fr - ref[int(q)]) < 3 * se

    def test_concentrates_at_success_in_strong_bias(self):
        p = DqdParams(g=1.0, gamma=GAMMA, temperature=0.5, u=10.0,
                      vg=0.0, vsd=-40.0, blockade=True)
        m = build_model(p)
        sample = sample_excursions(m, {"t": transport_weights("R", 3)}, 20_000,
                                   seed=23)
        qs, freqs, _ = empirical_outcome_histogram(sample, "t")
        assert freqs[qs == 1][0] > 0.99

    def test_multi_electron_support_matches_quadrature(self):
        p = DqdParams(vg=-6.0, vsd=7.0, **REF)
        m = build_model(p)
        d = partition(m, 0)
        qs_a, probs_a = outcome_distribution(d, transport_weights("R", 4), (-40, 40))
        sample = sample_excursions(m, {"t": transport_weights("R", 4)}, 100_000,
                                   seed=29)
        qs_e, freqs_e, ses_e = empirical_outcome_histogram(sample, "t")
        assert np.abs(qs_e).max() >= 2
        lookup = dict(zip(qs_a.tolist(), probs_a))
        for q, fr, se in zip(qs_e, freqs_e, ses_e):
            if fr * sample.n >= 50:
                assert abs(fr - lookup[int(q)]) < 4 * se, f"q={q}"

    def test_rejects_non_integer_scheme(self, ref_params, ref_model):
        schemes = {"entropy": entropy_weights(ref_params)}
        sample = sample_excursions(ref_model, schemes, 1000, seed=2)
        with pytest.raises(NonIntegerScheme):
            empirical_outcome_histogram(sample, "entropy")


class TestTrajectoryDump:
    def test_one_line_per_jump(self, ref_model, tmp_path):
        t = simulate(ref_model, seed=14, max_excursions=50)
        path = tmp_path / "traj.tsv"
        dump_trajectory(t, path, labels=ref_model.labels)
        lines = path.read_text(encoding="utf-8").splitlines()
        assert len(lines) == len(t.states) - 1
        first = lines[0].split("\t")
        assert len(first) == 3
        assert first[1] == ref_model.labels[t.states[0]]
        assert float(first[0]) == pytest.approx(t.holds[0])

    @pytest.mark.parametrize("labelled", [True, False])
    def test_bytes_match_reference_writer(self, ref_model, tmp_path, labelled):
        t = simulate(ref_model, seed=15, max_excursions=2000)
        labels = ref_model.labels if labelled else None
        dump_trajectory(t, tmp_path / "new.tsv", labels=labels)
        reference.dump_trajectory(t, tmp_path / "ref.tsv", labels=labels)
        assert (tmp_path / "new.tsv").read_bytes() == (tmp_path / "ref.tsv").read_bytes()

    @pytest.mark.parametrize("dtype, top", [(np.uint8, 255), (np.uint16, 300)])
    def test_unsigned_states_match_reference_writer(self, tmp_path, dtype, top):
        rng = np.random.default_rng(4)
        n = montecarlo._SLICE + 5
        states = rng.integers(0, top + 1, n).astype(dtype)
        t = Trajectory(states=states, holds=rng.exponential(1.0, n))
        dump_trajectory(t, tmp_path / "new.tsv")
        reference.dump_trajectory(t, tmp_path / "ref.tsv")
        assert (tmp_path / "new.tsv").read_bytes() == (tmp_path / "ref.tsv").read_bytes()

    @pytest.mark.parametrize("states, labels, state", [
        ([0, 1, 3, 0], 3, 3),          # too few labels
        ([0, 2, -1, 0], None, -1),     # range(3)[-1] wrote state 2
        ([0, 2, -1, 0], 4, -1),        # labels[-1] wrote the last label
    ])
    def test_state_without_a_label_named_before_the_file_is_opened(
            self, ref_model, tmp_path, states, labels, state):
        t = Trajectory(states=np.array(states), holds=np.ones(len(states)))
        given = None if labels is None else ref_model.labels[:labels]
        path = tmp_path / "traj.tsv"
        path.write_bytes(b"kept\n")
        count = 3 if labels is None else labels
        with pytest.raises(DimensionMismatch, match=f"^trajectory visits state {state}, but "
                                                    f"{count} labels are given$"):
            dump_trajectory(t, path, labels=given)
        assert path.read_bytes() == b"kept\n"

    @pytest.mark.parametrize("n", [0, 1])
    def test_unsigned_trajectory_without_jumps_writes_an_empty_file(self, tmp_path, n):
        t = Trajectory(states=np.zeros(n, dtype=np.uint8), holds=np.ones(n))
        dump_trajectory(t, tmp_path / "traj.tsv")
        assert (tmp_path / "traj.tsv").read_bytes() == b""

    def test_traced_peak_does_not_grow_with_length(self, ref_model, tmp_path):
        # the whole clock list and one joined string raised ru_maxrss by
        # 184 MB for a 1.26 M-jump trajectory
        rng = np.random.default_rng(3)
        peaks = []
        for n in (2 * montecarlo._SLICE, 16 * montecarlo._SLICE):
            t = Trajectory(states=rng.integers(0, 4, n), holds=rng.exponential(1.0, n))
            peaks.append(_traced_peak(
                dump_trajectory, t, tmp_path / "traj.tsv", labels=ref_model.labels)[1])
        assert peaks[1] <= 1.2 * peaks[0], peaks
