import math

import numpy as np
import pytest

from exclab import (
    DqdParams,
    WeightScheme,
    activity_weights,
    build_dqd,
    build_dqd_blockade,
    cross_moments,
    entropy_weights,
    excess_time,
    excess_time_weights,
    excursion_report,
    finite_difference_moments,
    noise_terms,
    observable_moments,
    outcome_distribution,
    partition,
    success_fail_disaster,
    time_moments,
    transport_weights,
    validate_rate_matrix,
)
from exclab.errors import (
    BadPartition,
    MassDeficit,
    NonIntegerScheme,
)

from conftest import REF, GAMMA, grid, random_chain


class TestPartition:
    def test_two_state_scalar_blocks(self):
        a, b = 3.0, 0.7
        m = validate_rate_matrix([[0.0, a], [b, 0.0]])
        d = partition(m, 0)
        assert d.gamma_a == pytest.approx(b)
        assert d.fundamental[0, 0] == pytest.approx(1.0 / a)
        assert (d.w_ab @ d.fundamental @ d.w_ba).item() == pytest.approx(b)

    def test_dqd_blocks_match_construction(self, ref_params, ref_model):
        from exclab import fermi_set, effective_coupling
        f = fermi_set(ref_params)
        ge = effective_coupling(1.0, GAMMA, ref_params.vg_left, ref_params.vg_right)
        d = partition(ref_model, 0)
        w_b = np.array([
            [0.0, ge, GAMMA * (1 - f.f_right_u)],
            [ge, 0.0, GAMMA * (1 - f.f_left_u)],
            [GAMMA * f.f_right_u, GAMMA * f.f_left_u, 0.0],
        ])
        gamma_b = np.array([
            GAMMA * (1 - f.f_left) + ge + GAMMA * f.f_right_u,
            GAMMA * (1 - f.f_right) + ge + GAMMA * f.f_left_u,
            GAMMA * (1 - f.f_right_u) + GAMMA * (1 - f.f_left_u),
        ])
        assert np.allclose(d.w_b, w_b, rtol=1e-14)
        assert np.allclose(np.diag(d.gen_b), -gamma_b, rtol=1e-14)
        assert np.allclose(d.gen_b - np.diag(np.diag(d.gen_b)), w_b, rtol=1e-14)

    def test_reassembly_reproduces_generator(self, ref_model):
        d = partition(ref_model, 0)
        rebuilt = np.empty_like(ref_model.generator)
        rebuilt[0, 0] = -d.gamma_a
        rebuilt[0, 1:] = d.w_ab
        rebuilt[1:, 0] = d.w_ba[:, 0]
        rebuilt[1:, 1:] = d.gen_b
        assert np.array_equal(rebuilt, ref_model.generator)

    def test_substochastic_and_nonnegative_fundamental(self, ref_dec):
        assert np.all(ref_dec.gen_b.sum(axis=0) <= 1e-12)
        assert np.any(ref_dec.gen_b.sum(axis=0) < -1e-12)
        assert np.all(ref_dec.fundamental >= 0.0)

    def test_bad_partitions(self, ref_model):
        with pytest.raises(BadPartition):
            partition(ref_model, [])
        with pytest.raises(BadPartition):
            partition(ref_model, [0, 1, 2, 3])
        with pytest.raises(BadPartition):
            partition(ref_model, [0, 1])
        with pytest.raises(BadPartition):
            partition(ref_model, 7)

    def test_normalization_identity_on_grid(self):
        for vg, vsd in grid(5, 5):
            m = build_dqd(DqdParams(vg=vg, vsd=vsd, **REF))
            d = partition(m, 0)
            norm = (d.w_ab @ d.fundamental @ d.w_ba).item()
            assert abs(norm - d.gamma_a) <= 1e-10 * d.gamma_a


class TestTimeMoments:
    def test_two_state_exponential_excursion(self):
        a, b = 3.0, 0.7
        d = partition(validate_rate_matrix([[0.0, a], [b, 0.0]]), 0)
        e_t, e_t2, var_t, mu, delta2 = time_moments(d)
        assert e_t == pytest.approx(1.0 / a, rel=1e-14)
        assert var_t == pytest.approx(1.0 / a**2, rel=1e-12)
        assert mu == pytest.approx(1.0 / a + 1.0 / b, rel=1e-14)
        assert delta2 == pytest.approx(1.0 / a**2 + 1.0 / b**2, rel=1e-12)

    def test_cycle_identities_exact(self, ref_dec):
        e_t, _, var_t, mu, delta2 = time_moments(ref_dec)
        assert mu == e_t + 1.0 / ref_dec.gamma_a
        assert delta2 == var_t + 1.0 / ref_dec.gamma_a**2

    def test_timescale_crossover(self):
        # excursion-dominated at negative gate voltage, residence-dominated
        # at positive, for the timescale-figure parameters
        def times(vg):
            m = build_dqd(DqdParams(vg=vg, vsd=7.0, **REF))
            d = partition(m, 0)
            e_t = time_moments(d)[0]
            return e_t, 1.0 / d.gamma_a
        e_t, e_tau = times(-10.0)
        assert e_t > 10 * e_tau
        e_t, e_tau = times(10.0)
        assert e_t < 0.1 * e_tau


class TestObservableMoments:
    def test_null_scheme_zeroes(self, ref_dec):
        s = WeightScheme(np.zeros((4, 4)))
        e_q, e_q2, var_q, e_qt, cov_qt = observable_moments(ref_dec, s)
        assert e_q == var_q == cov_qt == 0.0

    def test_insertion_formulas_vs_finite_differences_random(self):
        # the oracle pairing required by the engine contract
        rng = np.random.default_rng(17)
        for n in (2, 3, 4, 5):
            for _ in range(3):
                m = validate_rate_matrix(random_chain(rng, n))
                nu = rng.normal(size=(n, n))
                s = WeightScheme(nu)
                d = partition(m, 0)
                e_q, e_q2, _, e_qt, _ = observable_moments(d, s)
                e_t, e_t2, _, _, _ = time_moments(d)
                fd = finite_difference_moments(d, s)
                scale = max(1.0, abs(fd[1]), abs(fd[3]), abs(fd[4]))
                for got, ref in zip((e_q, e_q2, e_t, e_t2, e_qt), fd):
                    assert abs(got - ref) <= 1e-6 * scale

    def test_insertion_formulas_vs_finite_differences_dqd(self, ref_params, ref_dec):
        for s in (transport_weights("R", 4), activity_weights(4),
                  entropy_weights(ref_params), excess_time_weights(ref_dec.parent)):
            e_q, e_q2, _, e_qt, _ = observable_moments(ref_dec, s)
            e_t, e_t2, _, _, _ = time_moments(ref_dec)
            fd = finite_difference_moments(ref_dec, s)
            scale = max(1.0, abs(fd[1]), abs(fd[3]), abs(fd[4]))
            for got, ref in zip((e_q, e_q2, e_t, e_t2, e_qt), fd):
                assert abs(got - ref) <= 1e-6 * scale


class TestCurrentAndNoise:
    def test_equilibrium_current_vanishes(self):
        m = build_dqd(DqdParams(vg=1.0, vsd=0.0, **REF))
        r = excursion_report(partition(m, 0), transport_weights("R", 4))
        assert abs(r.j) < 1e-12

    def test_excess_scheme_unit_current(self, ref_dec):
        j = excursion_report(ref_dec, excess_time_weights(ref_dec.parent)).j
        assert abs(j - 1.0) < 1e-10

    def test_null_noise(self, ref_dec):
        r = excursion_report(ref_dec, WeightScheme(np.zeros((4, 4))))
        assert (r.d1, r.d2, r.d3, r.d) == (0.0, 0.0, 0.0, 0.0)

    def test_equilibrium_noise_structure(self):
        m = build_dqd(DqdParams(vg=1.0, vsd=0.0, **REF))
        r = excursion_report(partition(m, 0), transport_weights("R", 4))
        assert r.d1 > 0
        assert abs(r.d2) < 1e-20 and abs(r.d3) < 1e-12
        assert r.d == pytest.approx(r.d1)

    def test_report_consistency(self, ref_dec, ref_params):
        for s in (transport_weights("R", 4), activity_weights(4),
                  entropy_weights(ref_params)):
            r = excursion_report(ref_dec, s)
            assert r.d == r.d1 + r.d2 + r.d3
            assert noise_terms(r.var_q, r.e_q, r.cov_qt, r.mu, r.delta2) == (
                r.d1, r.d2, r.d3)
            assert r.mu == r.e_t + r.e_tau
            assert r.var_q >= 0 and r.var_t >= 0
            assert abs(r.cov_qt) <= math.sqrt(r.var_q * r.var_t) * (1 + 1e-9)

    def test_particle_conservation_between_leads(self):
        # Q_L + Q_R vanishes per excursion, so the means mirror, the
        # variances coincide and the cross covariance is -var(Q_R)
        for vg, vsd in grid(5, 5):
            d = partition(build_dqd(DqdParams(vg=vg, vsd=vsd, **REF)), 0)
            rr = excursion_report(d, transport_weights("R", 4))
            rl = excursion_report(d, transport_weights("L", 4))
            assert rl.e_q == pytest.approx(-rr.e_q, abs=1e-12 + 1e-10 * abs(rr.e_q))
            assert rl.var_q == pytest.approx(rr.var_q, rel=1e-10, abs=1e-12)
            both = WeightScheme(
                transport_weights("R", 4).weights
                + transport_weights("L", 4).weights)
            r_sum = excursion_report(d, both)
            # var(Q_L + Q_R) = var_L + var_R + 2 cov(Q_L, Q_R) = 0
            cov_lr = (r_sum.var_q - rl.var_q - rr.var_q) / 2.0
            assert abs(r_sum.e_q) < 1e-12
            assert cov_lr == pytest.approx(-rr.var_q, rel=1e-9, abs=1e-10)
            # the same covariance from one bilinear insertion
            m1, m2 = cross_moments(d, [transport_weights("L", 4),
                                       transport_weights("R", 4)])
            assert m2[0][1] - m1[0] * m1[1] == pytest.approx(
                -rr.var_q, rel=1e-9, abs=1e-10)


class TestOutcomeDistribution:
    def test_blockade_support_and_closed_forms(self, ref_blockade_params):
        m = build_dqd_blockade(ref_blockade_params)
        d = partition(m, 0)
        qs, probs = outcome_distribution(d, transport_weights("R", 3), (-5, 5))
        triple = success_fail_disaster(ref_blockade_params)
        ref = {1: triple.p_suc, 0: triple.p_fail, -1: triple.p_dis}
        for q, p in zip(qs, probs):
            assert p == pytest.approx(ref.get(int(q), 0.0), abs=1e-8)
        assert probs.sum() == pytest.approx(1.0, abs=1e-12)

    def test_deterministic_success_limit(self):
        # f_L ~ 1 and f_R ~ 0 force every excursion to carry one electron
        p = DqdParams(g=1.0, gamma=GAMMA, temperature=0.5, u=10.0,
                      vg=0.0, vsd=-40.0, blockade=True)
        d = partition(build_dqd_blockade(p), 0)
        qs, probs = outcome_distribution(d, transport_weights("R", 3), (-3, 3))
        assert probs[qs == 1][0] > 0.999

    def test_multi_electron_support_without_blockade(self):
        d = partition(build_dqd(DqdParams(vg=-6.0, vsd=7.0, **REF)), 0)
        qs, probs = outcome_distribution(d, transport_weights("R", 4), (-40, 40))
        assert probs[np.abs(qs) >= 2].sum() > 0.1

    def test_activity_needs_at_least_two_jumps(self, ref_blockade_model):
        d = partition(ref_blockade_model, 0)
        qs, probs = outcome_distribution(d, activity_weights(3), (0, 300))
        assert probs[qs == 0][0] < 1e-12
        assert probs[qs == 1][0] < 1e-12
        assert probs[qs == 2][0] > 0.0

    def test_non_integer_scheme_rejected(self, ref_dec, ref_params):
        with pytest.raises(NonIntegerScheme):
            outcome_distribution(ref_dec, entropy_weights(ref_params), (-5, 5))

    def test_mass_deficit_on_narrow_range(self, ref_blockade_model):
        d = partition(ref_blockade_model, 0)
        with pytest.raises(MassDeficit):
            outcome_distribution(d, transport_weights("R", 3), (0, 0))


class TestExcessTime:
    def test_positive_everywhere(self):
        for vg, vsd in grid(5, 5):
            d = partition(build_dqd(DqdParams(vg=vg, vsd=vsd, **REF)), 0)
            assert excess_time(d) > 0.0

    def test_equals_noise_of_excess_scheme(self, ref_dec):
        r = excursion_report(ref_dec, excess_time_weights(ref_dec.parent))
        assert excess_time(ref_dec) == pytest.approx(r.d, abs=1e-8, rel=1e-8)

    def test_dominates_inverse_activity_on_grid(self):
        for vg, vsd in grid(5, 5):
            d = partition(build_dqd(DqdParams(vg=vg, vsd=vsd, **REF)), 0)
            j_act = excursion_report(d, activity_weights(4)).j
            assert excess_time(d) >= (1.0 / j_act) * (1 - 1e-9)
