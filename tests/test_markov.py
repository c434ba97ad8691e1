import math

import numpy as np
import pytest

from exclab import (
    DqdParams,
    WeightScheme,
    build_model,
    excursion_report,
    fcs_current_noise,
    partition,
    steady_state,
    tilt_generator,
    transport_weights,
    validate_rate_matrix,
)
from exclab.errors import (
    DimensionMismatch,
    NegativeRate,
    NonzeroDiagonal,
    Reducible,
)

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
