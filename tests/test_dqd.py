import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from exclab import (
    DqdParams,
    build_model,
    effective_coupling,
    entropy_weights,
    fermi,
    fermi_pair,
    steady_state,
    transport_weights,
)

from conftest import REF, GAMMA


class TestFermi:
    def test_half_at_chemical_potential(self):
        assert fermi(3.0, 3.0, 2.0) == 0.5

    def test_direct_value(self):
        assert fermi(2.0, 0.0, 2.0) == pytest.approx(1.0 / (math.e + 1.0), rel=1e-15)

    def test_stable_far_tail(self):
        v = fermi(100 * 2.0, 0.0, 2.0)
        assert 0.0 < v < 1e-40

    def test_translation_invariance(self):
        for c in (0.3, -12.0, 1e3):
            a = fermi(1.7 + c, -0.4 + c, 2.0)
            b = fermi(1.7, -0.4, 2.0)
            assert a == pytest.approx(b, rel=1e-12)


_LEVELS = st.floats(-1e3, 1e3)
_TEMPERATURES = st.floats(1e-3, 1e3)
_EPS = np.finfo(float).eps


class TestFermiPair:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(_LEVELS, _LEVELS, _TEMPERATURES)
    def test_pair(self, energy, mu, t):
        f, c = fermi_pair(energy, mu, t)
        # the complement is the occupation of the swapped level, bit for bit
        assert f == fermi(energy, mu, t) and c == fermi(mu, energy, t)
        assert 0.0 <= f <= 1.0 and 0.0 <= c <= 1.0
        assert abs(f + c - 1.0) <= 2 * _EPS
        # the smaller value is e / (1 + e), never 1 minus the larger one
        e = math.exp(-abs((energy - mu) / t))
        assert min(f, c) == e / (1.0 + e)
        batch = fermi_pair(np.array([energy, mu]), np.array([mu, energy]), t)
        assert batch[0].tolist() == [f, c] and batch[1].tolist() == [c, f]

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(_LEVELS, _LEVELS, _TEMPERATURES)
    def test_smaller_value_keeps_its_relative_precision(self, energy, mu, t):
        mpmath = pytest.importorskip("mpmath")
        x = (energy - mu) / t
        small = min(fermi_pair(energy, mu, t))
        with mpmath.workdps(50):
            exact = 1 / (1 + mpmath.exp(abs(mpmath.mpf(x))))
            if exact < 1e-300:  # below the normal range: no relative digits
                return
            assert abs(small - exact) <= 4 * _EPS * exact

    def test_complement_where_the_occupation_rounds_to_one(self):
        # at x = -40 f rounds to 1, and 1 - f would be 0
        f, c = fermi_pair(-40.0, 0.0, 1.0)
        e = math.exp(-40.0)
        assert f == 1.0 and c == e / (1.0 + e) and c > 4e-18


class TestEffectiveCoupling:
    def test_equal_gates(self):
        assert effective_coupling(1.0, GAMMA) == pytest.approx(10.0 / math.pi, rel=1e-15)

    def test_no_tunneling(self):
        assert effective_coupling(0.0, GAMMA) == 0.0


class TestBuildDqd:
    def test_entry_placement(self, ref_params, ref_model):
        f = ref_params.occupations
        # 00 -> 10 injects from the left lead; 10 -> 11 injects from the right
        assert ref_model.w[1, 0] == pytest.approx(GAMMA * f.f_left, rel=1e-15)
        assert ref_model.w[3, 1] == pytest.approx(GAMMA * f.f_right_u, rel=1e-15)
        assert ref_model.w[1, 2] == ref_model.w[2, 1]  # hopping symmetric
        assert ref_model.labels == ("00", "10", "01", "11")

    def test_swap_symmetry_at_equilibrium(self):
        m = build_model(DqdParams(vg=4.0, vsd=0.0, **REF))
        # swapping 10 <-> 01 together with L <-> R leaves the matrix fixed
        perm = [0, 2, 1, 3]
        assert np.allclose(m.w, m.w[np.ix_(perm, perm)], rtol=1e-14)

    def test_no_repulsion_limit(self):
        p = DqdParams(g=1.0, gamma=GAMMA, temperature=2.0, u=0.0, vg=1.0, vsd=5.0)
        f = p.occupations
        assert f.f_left_u == f.f_left and f.f_right_u == f.f_right

    def test_shifted_occupations_strictly_below_bare(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            p = DqdParams(g=1.0, gamma=GAMMA, temperature=float(rng.uniform(0.5, 5)),
                          u=float(rng.uniform(0.1, 20)), vg=float(rng.uniform(-10, 10)),
                          vsd=float(rng.uniform(-20, 20)))
            f = p.occupations
            assert f.f_left_u < f.f_left and f.f_right_u < f.f_right

    @pytest.mark.parametrize("batch", [False, True])
    def test_occupations_computed_once_read_only(self, monkeypatch, batch):
        # one (f, 1 - f) pair per lead level, none formed in build_model
        import exclab.dqd
        vg = np.linspace(-10.0, 10.0, 5) if batch else 1.5
        calls, fermi_pair = [], exclab.dqd.fermi_pair

        def counted(*args):
            calls.append(args)
            return fermi_pair(*args)

        monkeypatch.setattr(exclab.dqd, "fermi_pair", counted)
        for blockade in (False, True):
            calls.clear()
            p = DqdParams(vg=vg, vsd=7.0 + 0.0 * vg, blockade=blockade, **REF)
            f = p.occupations
            assert p.occupations is f and len(calls) == 4
            build_model(p)
            assert len(calls) == 4
            assert len(vars(f)) == 8
            for v in vars(f).values():
                if batch:
                    with pytest.raises(ValueError):
                        v[0] = 0.0
                else:
                    assert type(v) is float

    @pytest.mark.parametrize("blockade", [False, True])
    def test_batch_rates_equal_single_points_bitwise(self, blockade):
        # array voltages stack one chain per point; the stiff gate edge
        # and the low temperature exercise the far Fermi tails
        vg, vsd = np.meshgrid(np.linspace(-15, 5, 13), np.linspace(-20, 20, 13))
        for temperature in (1.0, 0.5):
            kw = dict(g=1.0, gamma=GAMMA, temperature=temperature, u=10.0,
                      blockade=blockade)
            batch = build_model(DqdParams(vg=vg, vsd=vsd, **kw))
            assert batch.w.shape == vg.shape + (batch.n, batch.n)
            for idx in np.ndindex(vg.shape):
                one = build_model(DqdParams(vg=float(vg[idx]), vsd=float(vsd[idx]), **kw))
                assert np.array_equal(batch.w[idx], one.w), idx
                assert np.array_equal(batch.generator[idx], one.generator), idx

    def test_builders_produce_irreducible_chains(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            kw = dict(g=1.0, gamma=GAMMA, temperature=float(rng.uniform(0.5, 4)),
                      u=float(rng.uniform(0, 15)), vg=float(rng.uniform(-10, 10)),
                      vsd=float(rng.uniform(-20, 20)))
            build_model(DqdParams(**kw))            # validation raises on failure
            build_model(DqdParams(blockade=True, **kw))


class TestBlockade:
    def test_empty_state_escape_rate(self, ref_blockade_params, ref_blockade_model):
        f = ref_blockade_params.occupations
        assert ref_blockade_model.gamma[0] == pytest.approx(
            GAMMA * (f.f_left + f.f_right), rel=1e-15)

    def test_strong_injection_reaches_empty_only_from_right_dot(self):
        # f_L ~ 1, f_R ~ 0: the only way back to 00 is the 01 -> 00 exit
        p = DqdParams(g=1.0, gamma=GAMMA, temperature=0.5, u=10.0,
                      vg=0.0, vsd=-40.0, blockade=True)
        f = p.occupations
        assert f.f_left > 1 - 1e-8 and f.f_right < 1e-8
        m = build_model(p)
        assert m.w[0, 1] == GAMMA * f.c_left
        assert m.w[0, 1] == pytest.approx(GAMMA * (1 - f.f_left))
        assert m.w[0, 1] < 1e-8 < m.w[0, 2]

    def test_large_u_limit_matches_blockade(self):
        kw = dict(g=1.0, gamma=GAMMA, temperature=2.0, vg=1.0, vsd=7.0)
        big = build_model(DqdParams(u=200.0, **kw))
        small = build_model(DqdParams(u=200.0, blockade=True, **kw))
        assert np.array_equal(big.w[:3, :3], small.w)

    @pytest.mark.parametrize("u", [0.0, 10.0, 200.0])
    def test_blockade_is_the_leading_block(self, u):
        # the blockade chain keeps the lead jumps that do not touch 11, so
        # its rates and weights are the four-state ones without row and
        # column 11, bit for bit
        vg, vsd = np.meshgrid(np.linspace(-15, 5, 7), np.linspace(-20, 20, 7))
        for at_vg, at_vsd in ((1.0, 7.0), (-10.0, -1.2), (vg, vsd)):
            kw = dict(g=1.0, gamma=GAMMA, temperature=2.0, u=u, vg=at_vg, vsd=at_vsd)
            four, three = DqdParams(**kw), DqdParams(blockade=True, **kw)
            assert np.array_equal(build_model(four).w[..., :3, :3],
                                  build_model(three).w)
            assert np.array_equal(entropy_weights(four).weights[..., :3, :3],
                                  entropy_weights(three).weights)
        for side in "LR":
            assert np.array_equal(transport_weights(side, 4).weights[:3, :3],
                                  transport_weights(side, 3).weights)

    def test_zero_bias_populations_symmetric(self):
        m = build_model(DqdParams(vg=2.0, vsd=0.0, blockade=True, **REF))
        ss = steady_state(m)
        assert abs(ss[1] - ss[2]) < 1e-14


class TestParams:
    def test_requires_positive_scales(self):
        with pytest.raises(ValueError):
            DqdParams(g=0.0, gamma=GAMMA, temperature=2.0, u=10.0, vg=0.0, vsd=0.0)
        with pytest.raises(ValueError):
            DqdParams(g=1.0, gamma=GAMMA, temperature=-1.0, u=10.0, vg=0.0, vsd=0.0)

    @pytest.mark.parametrize("name", ["g", "gamma", "temperature", "u", "vsd", "vg"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite(self, name, value):
        kw = dict(g=1.0, gamma=GAMMA, temperature=2.0, u=10.0, vsd=0.0, vg=1.0)
        with pytest.raises(ValueError, match=f"^{name} must be finite$"):
            DqdParams(**{**kw, name: value})
        batch = np.array([0.0, value])
        if name.startswith("v"):
            with pytest.raises(ValueError, match=f"^{name} must be finite$"):
                DqdParams(**{**kw, name: batch})

    def test_chemical_potentials(self, ref_params):
        assert ref_params.mu_left == -3.5 and ref_params.mu_right == 3.5

    def test_one_gate_voltage(self):
        # both dots sit at the one gate voltage vg, which is required
        kw = dict(g=1.0, gamma=GAMMA, temperature=2.0, u=10.0, vsd=0.0)
        with pytest.raises(TypeError):
            DqdParams(vg_left=1.0, vg_right=2.0, **kw)
        with pytest.raises(TypeError):
            DqdParams(**kw)
