import math
import subprocess
import sys

import numpy as np
import pytest

from exclab import (
    DqdParams,
    ExcursionSample,
    WeightScheme,
    activity_weights,
    build_dqd,
    build_dqd_blockade,
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
from exclab.errors import DimensionMismatch, NonIntegerScheme, TooFewRecords
from exclab.montecarlo import _BATCH, ExcursionRecords, Trajectory, dump_trajectory

import reference_montecarlo as reference
from conftest import REF, GAMMA


def _schemes(params, n):
    return {
        "transport": transport_weights("R", n),
        "transport_L": transport_weights("L", n),
        "activity": activity_weights(n),
        "entropy": entropy_weights(params),
    }


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
        t = simulate(ref_model, seed=1, max_time=2000.0)
        assert np.all(t.states[1:] != t.states[:-1])
        assert np.all(t.holds > 0.0)
        assert t.total_time >= 2000.0
        # jumps only along nonzero rates
        rates = ref_model.w[t.states[1:], t.states[:-1]]
        assert np.all(rates > 0.0)

    def test_two_state_occupation(self):
        a, b = 1.3, 0.4  # 0 -> 1 at rate a, 1 -> 0 at rate b
        m = validate_rate_matrix([[0.0, b], [a, 0.0]])
        t = simulate(m, seed=5, max_time=200_000.0)
        occ1 = t.holds[t.states == 1].sum() / t.holds.sum()
        expect = a / (a + b)
        # binomial-ish SE on the occupied fraction from cycle counting
        n_cyc = (t.states == 0).sum()
        se = expect * (1 - expect) / math.sqrt(n_cyc) * 2.0
        assert abs(occ1 - expect) < 3 * max(se, 1e-3)

    def test_dqd_occupation_matches_steady_state(self):
        p = DqdParams(vg=5.0, vsd=7.0, **REF)
        m = build_dqd(p)
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

    def test_holding_times_exponential(self):
        # Kolmogorov-Smirnov at alpha = 0.001 per state, 1e5 samples; the
        # gate voltage is chosen so every state is visited often
        m = build_dqd(DqdParams(vg=-5.0, vsd=7.0, **REF))
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
    assert t.states.dtype == ref.states.dtype == np.int64
    assert np.array_equal(t.states, ref.states)
    assert t.holds.dtype == ref.holds.dtype
    assert np.array_equal(t.holds, ref.holds)
    assert t.total_time == ref.total_time


def assert_same_filter(t, a_state=0, n_states=None):
    records, residences = excursion_filter(t, a_state, n_states)
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
    """The list-native walk and the vectorised filter reproduce the
    per-jump loops bit for bit; the sizes cross the 8192-draw refills."""

    @pytest.mark.parametrize("chain", ["two_state", "dqd", "blockade"])
    @pytest.mark.parametrize("stop, outside", [
        (dict(max_excursions=700), False),
        (dict(max_excursions=700), True),
        (dict(max_time=3500.0), False),
        (dict(max_time=3500.0), True),
        (dict(max_time=300.0, max_excursions=700), False),
    ])
    def test_simulate_and_filter_match_reference(self, chain, stop, outside, request):
        m = _chain(chain, request)
        kwargs = dict(stop, start_state=m.n - 1) if outside else stop
        for seed in (0, 1, 2):
            t = simulate(m, seed=seed, **kwargs)
            assert_same_trajectory(t, reference.simulate(m, seed=seed, **kwargs))
            if "max_time" in stop and len(t.states) > 1:
                # the crossing hold is kept whole
                clock = np.cumsum(t.holds)
                assert clock[-2] < stop["max_time"] <= clock[-1]
            if outside:
                assert t.states[0] == m.n - 1
            assert_same_filter(t, 0, m.n)
            assert_same_filter(t)

    def test_filter_matches_reference_on_long_excursions(self):
        # state 00 is rare at vg = -10, so excursions run to hundreds of
        # jumps and the longest are summed one at a time
        m = build_dqd(DqdParams(vg=-10.0, vsd=7.0, **REF))
        t = simulate(m, seed=4, max_excursions=40)
        records, _ = assert_same_filter(t, 0, 4)
        lengths = np.sort(records.counts.sum(axis=(1, 2)))
        assert lengths[-17] > 100

    def test_other_reference_state(self, ref_model):
        t = simulate(ref_model, seed=6, max_excursions=300, a_state=2)
        assert_same_trajectory(
            t, reference.simulate(ref_model, seed=6, max_excursions=300, a_state=2))
        assert_same_filter(t, 2, 4)


def assert_same_sample(sample, ref):
    for name in ("durations", "residences", "counts"):
        got, want = getattr(sample, name), getattr(ref, name)
        if want is None:
            assert got is None
            continue
        assert got.dtype == want.dtype and got.shape == want.shape, name
        assert np.array_equal(got, want), name
    assert sample.q.keys() == ref.q.keys()
    for name in ref.q:
        assert sample.q[name].dtype == ref.q[name].dtype
        assert np.array_equal(sample.q[name], ref.q[name]), name
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

    def test_caller_arrays_stay_writable(self):
        durations, counts = np.ones(3), np.zeros((3, 2, 2), dtype=np.int64)
        records = ExcursionRecords(durations, counts)
        assert durations.flags.writeable and counts.flags.writeable
        assert not records.durations.flags.writeable
        assert not records.counts.flags.writeable
        assert len(records) == 3
        with pytest.raises(ValueError):
            records.counts[0, 0, 0] = 7


class TestExcursionFilter:
    def test_minimal_handcrafted_trajectory(self):
        t = Trajectory(states=np.array([0, 1, 0, 2, 0]),
                       holds=np.array([0.5, 1.0, 0.25, 2.0, 0.125]),
                       total_time=3.875)
        records, residences = excursion_filter(t, 0, n_states=3)
        assert len(records) == 2
        assert records.counts.sum(axis=(1, 2)).tolist() == [2, 2]
        assert records.durations.tolist() == [1.0, 2.0]
        assert list(residences) == [0.5, 0.25]

    def test_segmentation_completeness(self, ref_model):
        t = simulate(ref_model, seed=9, max_time=5000.0)
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
        return Trajectory(states=np.array(states, dtype=np.int64), holds=holds,
                          total_time=float(holds.sum()))

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

    def test_counts_kept_when_requested(self, ref_params, ref_model):
        schemes = {"transport": transport_weights("R", 4)}
        sample = sample_excursions(ref_model, schemes, 1000, seed=4,
                                   keep_counts=True)
        q = np.tensordot(sample.counts, schemes["transport"].weights,
                         axes=([1, 2], [0, 1]))
        assert np.array_equal(q, sample.q["transport"])


class TestReferenceEnsemble:
    """The compacted ensemble loop and the sliced jackknife reproduce the
    full-size loops in ``reference_montecarlo`` bit for bit."""

    @pytest.mark.parametrize("chain", ["dqd", "blockade"])
    @pytest.mark.parametrize("a_state", [0, -1])
    @pytest.mark.parametrize("keep_counts", [False, True])
    def test_sample_matches_reference(self, chain, a_state, keep_counts, request):
        m = _chain(chain, request)
        a = a_state % m.n
        params = request.getfixturevalue(
            {"dqd": "ref_params", "blockade": "ref_blockade_params"}[chain])
        schemes = _schemes(params, m.n)
        kwargs = dict(seed=5, a_state=a, keep_counts=keep_counts)
        sample = sample_excursions(m, schemes, 3001, **kwargs)
        assert_same_sample(sample, reference.sample_excursions(m, schemes, 3001, **kwargs))

    @pytest.mark.parametrize("a_state", [0, 3])
    def test_long_excursions_match_reference(self, a_state):
        # state 00 is rare at vg = -10, so excursions from it run to
        # hundreds of jumps and the loop runs long on few excursions
        p = DqdParams(vg=-10.0, vsd=7.0, **REF)
        m = build_dqd(p)
        schemes = _schemes(p, 4)
        kwargs = dict(seed=11, a_state=a_state, keep_counts=True)
        sample = sample_excursions(m, schemes, 300, **kwargs)
        assert_same_sample(sample, reference.sample_excursions(m, schemes, 300, **kwargs))
        if a_state == 0:
            assert sample.counts.sum(axis=(1, 2)).max() > 100

    def test_two_workers_and_ragged_batches_match_reference(self, ref_params, ref_model):
        n = _BATCH + 777
        schemes = _schemes(ref_params, 4)
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
        assert emp.se("e_q") == 0.0 and emp.value("e_q") == 0.5
        assert emp.z("e_q", 0.5) == 0.0
        assert emp.z("e_q", 0.5 + 1e-12) == 0.0
        assert emp.z("e_q", 0.5 + 1e-3) == math.inf
        assert emp.z("e_q", 0.5 - 1e-3) == math.inf
        v, se = emp.estimates["e_t"]
        assert se > 0 and emp.z("e_t", 2.0) == (v - 2.0) / se

    def test_too_few_records(self, ref_model):
        schemes = {"transport": transport_weights("R", 4)}
        sample = sample_excursions(ref_model, schemes, 10, seed=1)
        with pytest.raises(TooFewRecords):
            empirical_moments(sample, "transport")

    def test_standard_errors_scale_as_root_n(self, ref_params, ref_model):
        schemes = {"transport": transport_weights("R", 4)}
        s1 = sample_excursions(ref_model, schemes, 40_000, seed=3)
        s2 = sample_excursions(ref_model, schemes, 80_000, seed=3)
        e1 = empirical_moments(s1, "transport")
        e2 = empirical_moments(s2, "transport")
        for key in ("e_q", "var_q", "j", "d"):
            ratio = e2.se(key) / e1.se(key)
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
        m = build_dqd_blockade(p)
        sample = sample_excursions(m, {"t": transport_weights("R", 3)}, 20_000,
                                   seed=23)
        qs, freqs, _ = empirical_outcome_histogram(sample, "t")
        assert freqs[qs == 1][0] > 0.99

    def test_multi_electron_support_matches_quadrature(self):
        p = DqdParams(vg=-6.0, vsd=7.0, **REF)
        m = build_dqd(p)
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
