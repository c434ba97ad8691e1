import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from exclab import (
    DqdParams,
    WeightScheme,
    build_model,
    entropy_weights,
    excess_time_weights,
    excursion_report,
    fcs_current_noise,
    partition,
    steady_state,
    tilt_generator,
    transport_weights,
    validate_rate_matrix,
)
import exclab.markov
from exclab.errors import (
    DimensionMismatch,
    NegativeRate,
    NonzeroDiagonal,
    Reducible,
    SingularSystem,
)
from exclab.markov import _entry_sum, _leading, _strongly_connected

from conftest import REF, GAMMA, grid, random_chain


class TestValidateRateMatrix:
    def test_symmetric_two_state(self):
        m = validate_rate_matrix([[0.0, 1.0], [1.0, 0.0]])
        assert np.array_equal(m.gamma, [1.0, 1.0])
        assert np.array_equal(np.diag(m.generator), [-1.0, -1.0])

    def test_dqd_column_sums_zero(self, ref_model):
        colsum = ref_model.generator.sum(axis=0)
        assert np.all(np.abs(colsum) <= 1e-12 * ref_model.gamma)

    def test_negative_rate(self):
        with pytest.raises(NegativeRate):
            validate_rate_matrix([[0.0, -0.1], [1.0, 0.0]])

    def test_nonzero_diagonal(self):
        with pytest.raises(NonzeroDiagonal):
            validate_rate_matrix([[0.5, 1.0], [1.0, 0.0]])

    def test_reducible(self):
        # 2 -> {0,1} but never back
        w = [[0.0, 1.0, 1.0], [1.0, 0.0, 1.0], [0.0, 0.0, 0.0]]
        with pytest.raises(Reducible):
            validate_rate_matrix(w)

    def test_rejects_non_square(self):
        with pytest.raises(DimensionMismatch):
            validate_rate_matrix([[0.0, 1.0, 2.0], [1.0, 0.0, 1.0]])

    def test_random_chains_valid(self):
        rng = np.random.default_rng(7)
        for n in (2, 3, 4, 5):
            m = validate_rate_matrix(random_chain(rng, n))
            assert np.allclose(m.generator.sum(axis=0), 0.0, atol=1e-12)


class TestSteadyState:
    def test_symmetric_two_state(self):
        m = validate_rate_matrix([[0.0, 1.0], [1.0, 0.0]])
        assert np.allclose(steady_state(m), [0.5, 0.5], atol=1e-14)

    def test_left_right_symmetry_at_zero_bias(self):
        p = DqdParams(vg=3.0, vsd=0.0, **REF)
        ss = steady_state(build_model(p))
        assert abs(ss[1] - ss[2]) < 1e-14

    def test_residual_and_normalization(self):
        rng = np.random.default_rng(3)
        for n in (2, 3, 4):
            m = validate_rate_matrix(random_chain(rng, n))
            p = steady_state(m)
            assert abs(p.sum() - 1.0) < 1e-12
            assert np.max(np.abs(m.generator @ p)) < 1e-10 * m.gamma.max()

    @pytest.mark.parametrize("batch", [False, True])
    def test_solved_once_and_cached_read_only(self, monkeypatch, batch):
        vg = np.linspace(-10.0, 10.0, 5) if batch else 1.5
        m = build_model(DqdParams(vg=vg, vsd=7.0 + 0.0 * vg, **REF))
        solves, solve = [], np.linalg.solve

        def counted(*args):
            solves.append(args)
            return solve(*args)

        monkeypatch.setattr(np.linalg, "solve", counted)
        first = steady_state(m)
        assert steady_state(m) is first and len(solves) == 1
        with pytest.raises(ValueError):
            first[..., 0] = 0.0
        # the cache holds what a fresh chain of the same rates solves to
        fresh = steady_state(validate_rate_matrix(m.w))
        assert fresh.tobytes() == first.tobytes() and len(solves) == 2

    def test_invariant_under_rate_rescaling(self):
        rng = np.random.default_rng(11)
        w = random_chain(rng, 4)
        p1 = steady_state(validate_rate_matrix(w))
        for c in (1e-3, 7.0, 1e4):
            p2 = steady_state(validate_rate_matrix(c * w))
            assert np.max(np.abs(p1 - p2)) < 1e-10


class TestWeightScheme:
    def test_diagonal_ignored_and_integer_flag(self):
        s = WeightScheme([[5.0, 1.0], [-1.0, 5.0]])
        assert np.array_equal(s.weights, [[0.0, 1.0], [-1.0, 0.0]])
        assert s.integer_valued
        assert not WeightScheme([[0.0, 0.5], [0.5, 0.0]]).integer_valued

    def test_state_kind_requires_constant_columns(self):
        WeightScheme([[0.0, 2.0], [1.0, 0.0]], kind="state")  # columns constant off-diagonal
        with pytest.raises(ValueError):
            WeightScheme([[0.0, 2.0, 1.0], [1.0, 0.0, 3.0], [2.0, 2.0, 0.0]],
                         kind="state")

    @pytest.mark.parametrize("cell", [0, 3, 5])
    def test_state_kind_names_one_bad_cell_in_a_batch(self, cell):
        # the columns of every cell are checked in one comparison; one
        # entry off in one cell fails the batch with the single-scheme error
        v = np.random.default_rng(1).uniform(0.5, 2.0, (6, 4))
        nu = np.repeat(v[:, None, :], 4, axis=1)
        WeightScheme(nu, kind="state")
        nu[cell, 3, 1] += 1e-12
        with pytest.raises(ValueError, match="state scheme requires constant columns"):
            WeightScheme(nu, kind="state")
        nu[cell, 3, 1] = np.nan  # a NaN equals nothing, itself included
        with pytest.raises(ValueError, match="state scheme requires constant columns"):
            WeightScheme(nu[cell], kind="state")

    def test_max_abs_weight_is_formed_once(self, ref_params):
        # a fresh maximum, bit for bit, for a transition, a per-cell batch
        # and a state scheme; the same value comes back on every call
        batch = dataclasses.replace(ref_params, vg=np.linspace(-10.0, 10.0, 7),
                                    vsd=np.linspace(-20.0, 20.0, 7))
        for s in (transport_weights("R", 4), entropy_weights(batch),
                  excess_time_weights(build_model(batch)),
                  WeightScheme(np.random.default_rng(2).standard_normal((4, 4)))):
            fresh = np.abs(s.weights).max(axis=(-2, -1))
            got = s.max_abs_weight()
            assert s.max_abs_weight() is got
            assert np.asarray(got).tobytes() == fresh.tobytes()
            if s.weights.ndim == 2:
                assert isinstance(got, float)
            else:
                assert got.shape == s.weights.shape[:-2]
                assert not got.flags.writeable


class TestTiltGenerator:
    def test_chi_zero_is_generator_bitwise(self, ref_model):
        s = transport_weights("R", 4)
        t = tilt_generator(ref_model, s, 0.0)
        assert np.array_equal(t, ref_model.generator)

    def test_null_scheme_any_chi(self, ref_model):
        s = WeightScheme(np.zeros((4, 4)))
        t = tilt_generator(ref_model, s, 1.7)
        assert np.array_equal(t, ref_model.generator)

    def test_transport_entry_scaling(self, ref_params, ref_model):
        # the 01 -> 00 rate gamma (1 - f_R) picks up exp(chi)
        f = ref_params.occupations
        t = tilt_generator(ref_model, transport_weights("R", 4), 0.1)
        expected = GAMMA * (1.0 - f.f_right) * math.exp(0.1)
        assert t[0, 2] == pytest.approx(expected, rel=1e-15)


class TestFcsCurrentNoise:
    def test_null_scheme(self, ref_model):
        j, d = fcs_current_noise(ref_model, WeightScheme(np.zeros((4, 4))))
        assert abs(j) < 1e-10 and abs(d) < 1e-10

    def test_equilibrium_current_vanishes(self):
        p = DqdParams(vg=2.0, vsd=0.0, **REF)
        j, _ = fcs_current_noise(build_model(p), transport_weights("R", 4))
        assert abs(j) < 1e-10

    def test_matches_excursion_engine_on_grid(self):
        # long-time FCS equals the renewal formulas, 5x5 grid
        tr = transport_weights("R", 4)
        for vg, vsd in grid(5, 5):
            p = DqdParams(vg=vg, vsd=vsd, **REF)
            m = build_model(p)
            rep = excursion_report(partition(m, 0), tr)
            j, d = fcs_current_noise(m, tr)
            assert abs(j - rep.j) <= max(1e-6 * max(abs(j), abs(rep.j)), 1e-9)
            assert abs(d - rep.d) <= max(1e-6 * max(abs(d), abs(rep.d)), 1e-9)

    def test_unrefinable_step_collapses(self, ref_model):
        from exclab.errors import StepCollapse
        with pytest.raises(StepCollapse):
            fcs_current_noise(ref_model, transport_weights("R", 4), h0=80.0,
                              levels=3)

    def test_dimension_mismatch(self, ref_model):
        with pytest.raises(DimensionMismatch):
            fcs_current_noise(ref_model, transport_weights("R", 3))


def _same(a, b) -> bool:
    """Equal shapes and bits, a NaN matching any NaN: which NaN's sign and
    payload survive an addition depends on the operand order of the
    compiled loop, not on the order of the sum."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    nan = np.isnan(a)
    return (a.shape == b.shape and np.array_equal(nan, np.isnan(b))
            and a[~nan].tobytes() == b[~nan].tobytes())


_EDGES = [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324, 2.5e-310,
          1e308, -1e308]
_STACKS = st.integers(2, 7).flatmap(lambda n: st.sampled_from(
    [(), (1,), (3,), (5,), (2, 3), (3, 1)]).flatmap(lambda batch: hnp.arrays(
        np.float64, batch + (n, n),
        elements=st.one_of(st.sampled_from(_EDGES), st.floats(width=64)))))


class TestEntryMajorReductions:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(_STACKS)
    def test_equal_to_the_trailing_axis_reductions(self, x):
        # each reduction the batch path makes over an entry-major copy
        # against numpy's over the trailing axes: n entries (sequential),
        # the n * n entries of a matrix (pairwise from 8), column sums, max
        n, batch = x.shape[-1], x.shape[:-2]
        with np.errstate(all="ignore"):
            assert _same(_entry_sum(_leading(x, 1)), x.sum(axis=-1))
            assert _same(_entry_sum(_leading(x).reshape((n * n,) + batch)),
                         x.sum(axis=(-2, -1)))
            assert _same(_leading(x).sum(axis=0), np.moveaxis(x.sum(axis=-2), -1, 0))
            assert _same(_leading(x).max(axis=(0, 1)), x.max(axis=(-2, -1)))
            assert _same(np.abs(_leading(x)).max(axis=(0, 1)),
                         np.abs(x).max(axis=(-2, -1)))
            assert _same(_leading(x, 1).max(axis=0), x.max(axis=-1))

    @pytest.mark.parametrize("m", [1, 7, 8, 9, 15, 16, 17, 63, 127, 128, 129, 200, 300])
    def test_long_runs_keep_numpys_blocks(self, m):
        # 8 accumulators per block of at most 128 entries; longer runs halve
        rng = np.random.default_rng(m)
        x = rng.standard_normal((6, m)) * 10.0 ** rng.integers(-12, 12, (6, m))
        assert _same(_entry_sum(_leading(x, 1)), x.sum(axis=-1))
        assert _same(_entry_sum(-np.zeros((m, 3))), np.zeros(3))  # from 0.0


def _reachability_reference(adj: np.ndarray) -> bool:
    """Depth-first search from node 0 along the edges y -> x of adj[x, y],
    then along the reversed edges."""
    n = len(adj)
    for a in (adj, adj.T):
        seen, todo = {0}, [0]
        while todo:
            y = todo.pop()
            for x in range(n):
                if a[x, y] and x not in seen:
                    seen.add(x)
                    todo.append(x)
        if len(seen) < n:
            return False
    return True


class TestStronglyConnected:
    @pytest.mark.parametrize("n", range(2, 9))
    @pytest.mark.parametrize("batch", [(), (40,), (5, 8)])
    def test_against_reachability(self, n, batch):
        rng = np.random.default_rng(n)
        density = rng.uniform(0.05, 0.7, batch + (1, 1))
        adj = rng.random(batch + (n, n)) < density
        want = np.array([_reachability_reference(a)
                         for a in adj.reshape((-1, n, n))]).reshape(batch)
        got = _strongly_connected(_leading(adj))
        assert got.shape == batch and np.array_equal(got, want)
        if batch:  # the sample holds both kinds of graph
            assert want.any() and not want.all()


def _stiff_chain() -> np.ndarray:
    # the bordered LAPACK solve of these rates leaves p[0] = -1.6e-3
    w = 10.0 ** np.array([[0.0, -3.0, -11.0], [-13.0, 0.0, 8.0], [-6.0, 16.0, 15.0]])
    np.fill_diagonal(w, 0.0)
    return w


def _spoil_diagonal(w):
    w[1, 1] = 0.5


def _spoil_rate(w):
    w[0, 2] = -0.1


def _spoil_graph(w):
    w[2, :] = 0.0  # no edge into state 2


def _spoil_steady_state(w):
    w[...] = _stiff_chain()


class TestBadCellInAStack:
    @pytest.mark.parametrize("error, spoil", [
        (NonzeroDiagonal, _spoil_diagonal), (NegativeRate, _spoil_rate),
        (Reducible, _spoil_graph), (SingularSystem, _spoil_steady_state)])
    @pytest.mark.parametrize("batch", [(5,), (2, 3)])
    def test_raises_as_the_cell_alone(self, monkeypatch, error, spoil, batch):
        # the type and message of the cell alone, and the failing cells
        # are the spoiled ones, so the first of them is named
        stack = np.random.default_rng(5).uniform(0.1, 2.0, batch + (3, 3))
        cells = stack.reshape(-1, 3, 3)
        cells[:, [0, 1, 2], [0, 1, 2]] = 0.0
        spoil(cells[1])
        spoil(cells[4])

        def run(w):
            validate_rate_matrix(w).stationary

        with pytest.raises(error) as alone:
            run(cells[1].copy())
        masks, raise_first = [], exclab.markov.raise_first

        def recorded(bad, *args):
            masks.append(np.array(bad))
            raise_first(bad, *args)

        monkeypatch.setattr(exclab.markov, "raise_first", recorded)
        with pytest.raises(error) as stacked:
            run(stack)
        assert str(stacked.value) == str(alone.value)
        assert masks[-1].shape == batch
        assert np.flatnonzero(masks[-1]).tolist() == [1, 4]
