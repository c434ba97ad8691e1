import dataclasses
import math
import warnings

import numpy as np
import pytest

from exclab import (
    DqdParams,
    Populations,
    activity_weights,
    blockade_analytics,
    build_model,
    entropy_weights,
    excursion_report,
    mutual_information,
    partition,
    populations,
    precision_bounds,
    state_weights,
    success_fail_disaster,
    time_moments,
    transport_weights,
    validate_rate_matrix,
)
from exclab.dqd import lead_jumps, lead_log_ratio
from exclab.observables import ZERO_CURRENT, _holds
from exclab.sweep import SweepConfig, _columns, _point_params, compute_row, evaluate

from conftest import REF, GAMMA, grid


class TestTransportWeights:
    def test_printed_entries(self):
        nu = transport_weights("R", 4).weights
        assert nu[0, 2] == 1.0 and nu[2, 0] == -1.0
        assert nu[1, 3] == 1.0 and nu[3, 1] == -1.0
        assert np.count_nonzero(nu) == 4

    def test_antisymmetry(self):
        for side in ("L", "R"):
            for n in (3, 4):
                nu = transport_weights(side, n).weights
                assert np.array_equal(nu + nu.T, np.zeros((n, n)))

    def test_left_mirrors_right_on_lead_transitions(self):
        r = transport_weights("R", 4).weights
        l = transport_weights("L", 4).weights
        assert r[1, 2] == r[2, 1] == l[1, 2] == l[2, 1] == 0.0  # hopping
        assert l[0, 1] == 1.0 and l[1, 0] == -1.0


class TestActivityWeights:
    def test_all_off_diagonal_ones(self):
        nu = activity_weights(4).weights
        assert np.array_equal(nu, 1.0 - np.eye(4))
        assert activity_weights(4).integer_valued


class TestEntropyWeights:
    def test_lead_entries_and_hopping(self, ref_params):
        nu = entropy_weights(ref_params).weights
        assert nu[1, 0] == pytest.approx(-lead_log_ratio(ref_params, "L"))
        assert nu[0, 1] == pytest.approx(lead_log_ratio(ref_params, "L"))
        assert nu[1, 2] == nu[2, 1] == 0.0
        assert np.allclose(nu, -nu.T)
        assert not entropy_weights(ref_params).integer_valued

    def test_log_ratio_matches_rate_ratio(self, ref_params, ref_model):
        nu = entropy_weights(ref_params).weights
        w = ref_model.w
        for x, y in ((1, 0), (0, 2), (3, 1), (2, 3)):
            assert nu[x, y] == pytest.approx(math.log(w[x, y] / w[y, x]), rel=1e-12)

    def test_finite_where_an_occupation_rounds_to_one(self):
        # f_L = 1 / (1 + e^-40) rounds to 1; its complement e^-40 / (1 + e^-40)
        # gives the 10 -> 00 rate, and the weight is the log of the rate ratio
        for blockade in (False, True):
            p = DqdParams(g=1.0, gamma=GAMMA, temperature=0.5, u=10.0, vg=-10.0,
                          vsd=-20.0, blockade=blockade)
            assert p.occupations.f_left == 1.0
            w = build_model(p).w
            nu = entropy_weights(p).weights
            assert np.all(np.isfinite(nu)) and nu[0, 1] == -40.0
            for to, frm, _, _ in lead_jumps(p.n_states):
                assert w[frm, to] > 0.0 and w[to, frm] > 0.0
                assert nu[frm, to] == pytest.approx(
                    math.log(w[frm, to] / w[to, frm]), rel=1e-12)

    def test_equilibrium_entropy_current_vanishes(self):
        p = DqdParams(vg=2.0, vsd=0.0, **REF)
        d = partition(build_model(p), 0)
        r = excursion_report(d, entropy_weights(p))
        assert abs(r.j) < 1e-12


class TestStateWeights:
    def test_placement_and_kind(self):
        s = state_weights([1.0, 2.0, 3.0])
        assert s.kind == "state"
        for x in range(3):
            for y in range(3):
                if x != y:
                    assert s.weights[x, y] == float(y + 1)

    def test_null_scheme(self, ref_dec):
        from exclab import observable_moments
        s = state_weights(np.zeros(4))
        assert observable_moments(ref_dec, s)[0] == 0.0


class TestOutcomeTriple:
    def test_normalized_over_grid(self):
        for vg, vsd in grid(7, 7):
            t = success_fail_disaster(
                DqdParams(vg=vg, vsd=vsd, blockade=True, **REF))
            assert abs(t.p_suc + t.p_fail + t.p_dis - 1.0) <= 1e-12
            for v in (t.p_suc, t.p_fail, t.p_dis):
                assert 0.0 <= v <= 1.0

    def test_equilibrium_symmetry(self):
        t = success_fail_disaster(DqdParams(vg=1.0, vsd=0.0, blockade=True, **REF))
        assert t.p_suc == pytest.approx(t.p_dis, rel=1e-12)

    def test_deterministic_success_limit(self):
        p = DqdParams(g=1.0, gamma=GAMMA, temperature=0.5, u=10.0,
                      vg=0.0, vsd=-40.0, blockade=True)
        assert success_fail_disaster(p).p_suc > 0.999


class TestBlockadeAnalytics:
    def test_residence_time_closed_form(self, ref_blockade_params):
        f = ref_blockade_params.occupations
        cf = blockade_analytics(ref_blockade_params)
        assert cf.e_tau == pytest.approx(
            1.0 / (GAMMA * (f.f_left + f.f_right)), rel=1e-14)

    def test_transport_vanishes_at_equilibrium(self):
        cf = blockade_analytics(DqdParams(vg=3.0, vsd=0.0, blockade=True, **REF))
        assert cf.e_qr == 0.0

    def test_matches_engine_on_grid(self):
        # the cross-check that pins the closed-form symbol conventions
        self._assert_matches_engine(REF)

    def test_matches_engine_where_an_occupation_rounds_to_one(self):
        # at T = 0.5 f_L rounds to 1 at (-10, -20); closed forms written
        # with 1 - f were off by 3.6e-8 on this grid
        self._assert_matches_engine(dict(REF, temperature=0.5))

    @staticmethod
    def _assert_matches_engine(model):
        for vg, vsd in grid(7, 7):
            p = DqdParams(vg=vg, vsd=vsd, blockade=True, **model)
            m = build_model(p)
            d = partition(m, 0)
            cf = blockade_analytics(p)
            e_t, _, _, mu, _ = time_moments(d)
            rq = excursion_report(d, transport_weights("R", 3))
            ra = excursion_report(d, activity_weights(3))
            rs = excursion_report(d, entropy_weights(p))
            pop = populations(m)
            for got, ref in (
                (cf.e_t, e_t), (cf.e_tau, 1.0 / d.gamma_a), (cf.mu, mu),
                (cf.e_qr, rq.e_q), (cf.e_a, ra.e_q), (cf.e_sigma, rs.e_q),
                (cf.p_l, pop.p_left), (cf.p_r, pop.p_right),
            ):
                scale = max(abs(got), abs(ref))
                if scale > 1e-14:
                    assert abs(got - ref) <= 1e-10 * scale


class TestPopulations:
    def test_normalization(self, ref_model):
        pop = populations(ref_model)
        assert pop.p00 + pop.p10 + pop.p01 + pop.p11 == pytest.approx(1.0, abs=1e-12)

    def test_zero_bias_symmetry(self):
        pop = populations(build_model(DqdParams(vg=2.0, vsd=0.0, **REF)))
        assert pop.p10 == pytest.approx(pop.p01, abs=1e-14)

    def test_blockade_marginals(self, ref_blockade_params, ref_blockade_model):
        cf = blockade_analytics(ref_blockade_params)
        pop = populations(ref_blockade_model)
        assert pop.p11 == 0.0
        assert pop.p_left == pytest.approx(cf.p_l, rel=1e-10)
        assert pop.p_right == pytest.approx(cf.p_r, rel=1e-10)


class TestMutualInformation:
    def test_product_distribution_has_zero_information(self):
        pl, pr = 0.3, 0.6
        pop = Populations(
            p00=(1 - pl) * (1 - pr), p10=pl * (1 - pr), p01=(1 - pl) * pr,
            p11=pl * pr, p_left=pl, p_right=pr)
        assert mutual_information(pop) == pytest.approx(0.0, abs=1e-15)

    def test_blockade_forces_correlation(self, ref_blockade_model):
        pop = populations(ref_blockade_model)
        assert pop.p10 > 0 and pop.p01 > 0
        assert mutual_information(pop) > 0.0

    def test_nonnegative_on_grid(self):
        for vg, vsd in grid(5, 5):
            pop = populations(build_model(DqdParams(vg=vg, vsd=vsd, **REF)))
            assert mutual_information(pop) >= 0.0

    def test_nonnegative_where_the_joint_is_subnormal(self):
        # at (353, 0) p11 = 1.1e-311 and p10 = p01 = 4.9e-154: the terms
        # summed to -1.1e-310
        p = _point_params(SweepConfig(), 353.0, 0.0, False)
        pop = populations(build_model(p))
        assert 0.0 < pop.p11 < 1e-300
        assert mutual_information(pop) == 0.0
        batch = _point_params(SweepConfig(), np.array([353.0, 0.0]), np.zeros(2), False)
        mi = mutual_information(populations(build_model(batch)))
        assert mi[0] == 0.0 and mi[1] > 0.0

    def test_peaks_inside_central_diamond(self):
        # scan the shifted gate axis at zero bias: the hopping-dominated
        # center carries the strongest dot-dot correlation
        vals = {}
        for vg_shift in np.linspace(-10, 10, 21):
            pop = populations(build_model(
                DqdParams(vg=float(vg_shift) - 5.0, vsd=0.0, **REF)))
            vals[float(vg_shift)] = mutual_information(pop)
        best = max(vals, key=vals.get)
        assert abs(best) <= 2.0


class TestFano:
    def test_single_dominant_link_is_poissonian(self):
        # one timescale dominates the cycle, so counting the exit jumps
        # approaches a Poisson process
        from exclab import WeightScheme
        m = validate_rate_matrix([[0.0, 1e6], [1.0, 0.0]])
        d = partition(m, 0)
        nu = np.zeros((2, 2))
        nu[0, 1] = 1.0
        r = excursion_report(d, WeightScheme(nu))
        assert r.d / abs(r.j) == pytest.approx(1.0, abs=1e-5)

    def test_magnitude_convention(self):
        # the sweep's fano column is the one Fano rule
        row = compute_row(SweepConfig(**REF), 0.0, 7.0, False)
        assert row["j_qr"] < 0.0
        assert row["fano"] == row["d_qr"] / abs(row["j_qr"])

    def test_divergent_at_equilibrium(self):
        row = compute_row(SweepConfig(**REF), 1.0, 0.0, False)
        assert abs(row["j_qr"]) < 1e-14
        assert row["fano"] == math.inf

    @pytest.mark.parametrize("j", [5e-14, 5e-15])
    def test_one_zero_current_rule(self, j):
        # the Fano factor and D/J^2 diverge at the same current
        ev = evaluate(_point_params(SweepConfig(**REF), 0.0, 7.0, False))
        rq = dataclasses.replace(ev.reports["transport"], j=j)
        bounds = precision_bounds(j, rq.d, 1.0, 1.0, 1.0)
        ev = dataclasses.replace(ev, reports={**ev.reports, "transport": rq},
                                 bounds=bounds)
        row = _columns(ev, 0.0, 7.0)
        finite = j > ZERO_CURRENT
        assert math.isfinite(row["fano"]) is math.isfinite(row["tur_lhs"]) is finite
        assert math.isfinite(bounds.lhs) is finite


class TestUncertaintyBounds:
    # the transport bounds of the engine's one evaluation of a point
    def test_all_bounds_hold_on_grid(self):
        for vg, vsd in grid(5, 5):
            b = evaluate(DqdParams(vg=vg, vsd=vsd, **REF)).bounds
            assert b.tur_ok and b.kur_ok and b.cur_ok
            assert b.cur_rhs >= b.kur_rhs * (1 - 1e-9)

    def test_entropy_scheme_shares_the_lhs(self, ref_params):
        ev = evaluate(ref_params)
        rs = ev.reports["entropy"]
        assert ev.bounds.lhs == pytest.approx(rs.d / rs.j**2, rel=1e-10)

    def test_tur_tightest_at_small_bias(self):
        # bias-7 cut: the entropy bound dominates for every gate voltage
        for vg in np.linspace(-10, 10, 9):
            b = evaluate(DqdParams(vg=float(vg), vsd=7.0, **REF)).bounds
            assert b.tur_rhs > b.kur_rhs and b.tur_rhs > b.cur_rhs

    def test_cur_tightest_at_large_bias_extremes(self):
        # bias -20 cut (shifted gate axis): the excess-time bound wins at
        # the center and at large gate voltages, the entropy bound between
        def tightest(vg_shift):
            b = evaluate(DqdParams(vg=vg_shift - 5.0, vsd=-20.0, **REF)).bounds
            return max(("tur", b.tur_rhs), ("kur", b.kur_rhs),
                       ("cur", b.cur_rhs), key=lambda kv: kv[1])[0]
        assert tightest(-15.0) == "cur"
        assert tightest(0.0) == "cur"
        assert tightest(15.0) == "cur"
        assert tightest(-7.5) == "tur"
        assert tightest(7.5) == "tur"

    @pytest.mark.parametrize("blockade", [False, True])
    def test_equal_to_the_sweep_columns(self, blockade):
        # analyze prints these bounds and the sweep writes them as columns;
        # on the gate-shifted diamond both must carry the same bits, also
        # in stiff cells where D1 + D2 + D3 cancels by five digits
        cfg = SweepConfig(blockade=blockade)
        for vsd in np.linspace(-20.0, 20.0, 21).tolist():
            for vg in np.linspace(-10.0, 10.0, 21).tolist():
                b = evaluate(_point_params(cfg, vg, vsd, True)).bounds
                row = compute_row(cfg, vg, vsd, True)
                assert (b.lhs, b.tur_rhs, b.kur_rhs, b.cur_rhs) == (
                    row["tur_lhs"], row["tur_rhs"], row["kur_rhs"],
                    row["cur_rhs"]), (vg, vsd)


class TestPrecisionBounds:
    FINITE = (0.0, 1.0, -1.0, 1e300)
    TABLE = (
        [((0.0, 5e-10), False), ((-1e-12, 0.0), False),
         ((0.5, 0.5 * (1 + 2e-9)), False), ((0.5 * (1 - 5e-10), 0.5), True)]
        + [((math.inf, x), True) for x in FINITE + (math.inf, -math.inf)]
        + [((x, math.inf), False) for x in FINITE]
        + [((x, -math.inf), True) for x in FINITE]
    )

    def test_slack_rule_table(self):
        lhs, rhs = (np.array(side) for side in zip(*(c for c, _ in self.TABLE)))
        want = [ok for _, ok in self.TABLE]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            scalar = [_holds(a, b) for (a, b), _ in self.TABLE]
            batch = _holds(lhs, rhs)
        assert scalar == want
        assert all(type(v) is bool for v in scalar)
        assert batch.tolist() == want

    def test_batch_matches_points(self):
        # zero currents give infinite lhs and entropy bound, without warnings
        j = np.array([0.3, 0.0, -2.0, 1e-14])
        d = np.array([0.5, 0.7, 4.0, 1e-3])
        j_act = np.array([2.0, 3.0, 5.0, 1.0])
        j_sigma = np.array([1.5, 0.0, 0.4, 1e-9])
        cur = np.array([0.9, 0.5, 1.0, 2.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            batch = precision_bounds(j, d, j_act, j_sigma, cur)
            points = [precision_bounds(*map(float, x))
                      for x in zip(j, d, j_act, j_sigma, cur)]
        assert batch.lhs[1] == batch.tur_rhs[1] == batch.lhs[3] == math.inf
        for k, point in enumerate(points):
            for name, value in vars(point).items():
                assert type(value) is (bool if name.endswith("_ok") else float)
                assert getattr(batch, name)[k] == value, (name, k)
