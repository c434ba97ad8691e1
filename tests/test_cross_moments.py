"""The bilinear insertion engine: cross_moments and its views against a
50-digit reference, its symmetry and polarization identities, several
schemes in one insertion against one each, and the Monte Carlo
cross-covariance."""
import math

import numpy as np
import pytest

from exclab import (
    ExcursionReport,
    WeightScheme,
    activity_weights,
    build_model,
    cross_moments,
    entropy_weights,
    excursion_report,
    observable_moments,
    partition,
    sample_excursions,
    state_weights,
    time_moments,
    transport_weights,
    validate_rate_matrix,
)
from exclab.sweep import SweepConfig, _point_params

from conftest import random_chain

pytest.importorskip("mpmath")
from reference_mpmath import Reference  # noqa: E402


def _diamond(blockade, n=7):
    """The gate-shifted CLI diamond at T = 1 on an n x n grid, batched."""
    cfg = SweepConfig(vg_n=n, vsd_n=n, blockade=blockade)
    vg, vsd = (a.ravel() for a in np.meshgrid(cfg.vg_values(), cfg.vsd_values()))
    p = _point_params(cfg, vg, vsd, True)
    return p, partition(build_model(p), 0)


def _schemes(p, n):
    return [transport_weights("R", n), activity_weights(n), entropy_weights(p),
            None]


def _cell_weights(schemes, i):
    return [None if s is None else
            (s.weights if s.weights.ndim == 2 else s.weights[i]) for s in schemes]


def _reference_moments(ref, nus):
    """E[X_i], E[X_i X_j] and the size of each X_i, sqrt(E[|X_i|^2]) with
    |X_i| the observable of the weights |nu_i|.  The size bounds every term
    the insertion sums add up, so it is the scale a rounding error is
    measured on even when the moment itself cancels to zero (entropy
    production at equilibrium is zero on every excursion)."""
    k = len(nus)
    m1 = [float(ref.mean(a)) for a in nus]
    m2 = [[0.0] * k for _ in range(k)]
    for i in range(k):
        for j in range(i, k):  # E[X_i X_j] is symmetric in its arguments
            m2[i][j] = m2[j][i] = float(ref.product(nus[i], nus[j]))
    size = [math.sqrt(ref.product(*(2 * [None if a is None else abs(a)])))
            for a in nus]
    return np.array(m1), np.array(m2), np.array(size)


def _assert_against_reference(got1, got2, want1, want2, size, tol):
    assert np.all(np.abs(got1 - want1) <= tol * size), (got1, want1)
    assert np.all(np.abs(got2 - want2) <= tol * np.outer(size, size)), (got2, want2)


def _assert_views(d, cell, ref, nu, scheme, q_size, tol):
    r = ref.renewal(nu)
    e_t, e_t2, var_t, mu, delta2 = (np.asarray(x)[cell] for x in time_moments(d))
    t_size = math.sqrt(r["e_t2"])
    assert abs(e_t - r["e_t"]) <= tol * t_size
    assert abs(e_t2 - r["e_t2"]) <= tol * r["e_t2"]
    assert abs(var_t - r["var_t"]) <= tol * r["e_t2"]
    assert abs(mu - r["mu"]) <= tol * r["mu"]
    assert abs(delta2 - r["delta2"]) <= tol * (r["delta2"] + r["e_t"] ** 2)
    e_q, e_q2, var_q, e_qt, cov_qt = (
        np.asarray(x)[cell] for x in observable_moments(d, scheme))
    assert abs(e_q - r["e_q"]) <= tol * q_size
    for got, key in ((e_q2, "e_q2"), (var_q, "var_q")):
        assert abs(got - r[key]) <= tol * q_size**2
    for got, key in ((e_qt, "e_qt"), (cov_qt, "cov_qt")):
        assert abs(got - r[key]) <= tol * q_size * t_size


class TestAgainstMpmath:
    @pytest.mark.parametrize("blockade", [False, True])
    def test_diamond(self, blockade):
        p, d = _diamond(blockade)
        schemes = _schemes(p, d.parent.n)
        m1, m2 = cross_moments(d, schemes)
        assert m1.shape == (4, 49) and m2.shape == (4, 4, 49)
        for cell in range(49):
            ref = Reference(d.parent.w[cell], d.parent.gamma[cell])
            nus = _cell_weights(schemes, cell)
            want1, want2, size = _reference_moments(ref, nus)
            _assert_against_reference(m1[:, cell], m2[:, :, cell], want1, want2,
                                      size, 1e-8)
            _assert_views(d, cell, ref, nus[0], schemes[0], size[0], 1e-8)

    def test_random_chains(self):
        rng = np.random.default_rng(23)
        for n in (2, 3, 4, 5):
            for a_state in (0, n - 1):
                m = validate_rate_matrix(random_chain(rng, n))
                d = partition(m, a_state)
                nus = [rng.normal(size=(n, n)), None, rng.normal(size=(n, n))]
                schemes = [None if nu is None else WeightScheme(nu) for nu in nus]
                ref = Reference(m.w, m.gamma, a_state)
                # the diagonal is ignored by the schemes, so by the reference
                nus = [None if s is None else s.weights for s in schemes]
                want1, want2, size = _reference_moments(ref, nus)
                got1, got2 = cross_moments(d, schemes)
                assert all(type(x) is float for x in got1 + sum(got2, []))
                _assert_against_reference(np.array(got1), np.array(got2), want1,
                                          want2, size, 1e-12)
                _assert_views(d, (), ref, nus[0], schemes[0], size[0], 1e-12)


class TestAgainstExactGamma:
    """GTH forms G from the float off-diagonal rates alone, so the engine is
    held to the chain those rates define: the reference whose escape rates
    are their exact sums.  G and e_t to 1e-13 relative, every insertion
    output to 1e-13 of its observables' sizes."""

    @staticmethod
    def _assert_close(d, cell, ref, schemes, got1, got2, a_state=0):
        g = np.array(ref.g.tolist(), dtype=float)
        assert np.all(np.abs(d.fundamental[cell] - g) <= 1e-13 * g)
        e_t = float(ref.mean(None))
        assert abs(np.asarray(time_moments(d)[0])[cell] - e_t) <= 1e-13 * e_t
        want1, want2, size = _reference_moments(ref, schemes)
        _assert_against_reference(got1, got2, want1, want2, size, 1e-13)

    def test_low_temperature_diamond(self):
        # the 21 x 21 gate-shifted diamond at T = 0.7, where exit rates of
        # 3e-10 meet internal rates of 3
        cfg = SweepConfig(temperature=0.7, vg_n=21, vsd_n=21)
        vg, vsd = (a.ravel() for a in np.meshgrid(cfg.vg_values(), cfg.vsd_values()))
        p = _point_params(cfg, vg, vsd, True)
        d = partition(build_model(p), 0)
        schemes = _schemes(p, d.parent.n)
        m1, m2 = cross_moments(d, schemes)
        for cell in range(vg.size):
            ref = Reference(d.parent.w[cell], None, exact_gamma=True)
            self._assert_close(d, cell, ref, _cell_weights(schemes, cell),
                               m1[:, cell], m2[:, :, cell])

    def test_equilibrium_transport_variance(self):
        # at vsd = 0 on the T = 0.7 diamond l and r of the net count sum to
        # nearly zero against the nearly equal rows of G, exits 3e-10 against
        # internal rates 3: products with G's rounded entries left var(Q) off
        # by 2.2e-7 at vg = -10; G applied by its GTH factors keeps it
        cfg = SweepConfig(temperature=0.7, vg_n=21)
        vg = cfg.vg_values()
        d = partition(build_model(_point_params(cfg, vg, np.zeros_like(vg), True)), 0)
        tr = transport_weights("R", d.parent.n)
        var_q = observable_moments(d, tr)[2]
        for cell in range(vg.size):
            r = Reference(d.parent.w[cell], None, exact_gamma=True).renewal(tr.weights)
            want = float(r["var_q"])
            assert abs(var_q[cell] - want) <= 1e-13 * want, vg[cell]

    def test_random_chains_over_fifteen_decades(self):
        # LAPACK's G missed this by 1.4e-8 on these 40 chains
        rng = np.random.default_rng(23)
        for n in (2, 3, 4, 5):
            for a_state in (0, n - 1):
                for _ in range(5):
                    w = random_chain(rng, n) * 10.0 ** rng.uniform(-12.0, 3.0, (n, n))
                    m = validate_rate_matrix(w)
                    d = partition(m, a_state)
                    schemes = [WeightScheme(rng.normal(size=(n, n))), None,
                               WeightScheme(rng.normal(size=(n, n)))]
                    nus = [None if s is None else s.weights for s in schemes]
                    ref = Reference(m.w, None, a_state, exact_gamma=True)
                    got1, got2 = cross_moments(d, schemes)
                    self._assert_close(d, (), ref, nus, np.array(got1), np.array(got2))


class TestAgainstExactFermi:
    """The sweep's duration moments against the chain whose rates are built
    from the exact Fermi functions: the float rates hold each occupation
    and its complement to full relative precision, so e_t and var_t follow
    to 1e-13 relative even where a lead occupation rounds to 1."""

    @pytest.mark.parametrize("blockade", [False, True])
    @pytest.mark.parametrize("temperature", [1.0, 0.7])
    def test_duration_moments(self, temperature, blockade):
        # at (-10, 0), T = 0.7, 1 - f is 4.9e-10: formed by subtraction it
        # was off by 1.2e-7 relative, and so was e_t
        cfg = SweepConfig(temperature=temperature, vg_n=21, vsd_n=21,
                          blockade=blockade)
        vg, vsd = (a.ravel() for a in np.meshgrid(cfg.vg_values(), cfg.vsd_values()))
        d = partition(build_model(_point_params(cfg, vg, vsd, True)), 0)
        e_t, _, var_t = time_moments(d)[:3]
        for cell in range(vg.size):
            ref = Reference.exact_fermi(_point_params(cfg, vg[cell], vsd[cell], True))
            want_e_t = ref.mean(None)
            want_var_t = ref.product(None, None) - want_e_t**2
            assert abs(e_t[cell] - want_e_t) <= 1e-13 * want_e_t, cell
            assert abs(var_t[cell] - want_var_t) <= 1e-13 * want_var_t, cell


class TestIdentities:
    @pytest.mark.parametrize("blockade", [False, True])
    def test_symmetric(self, blockade):
        p, d = _diamond(blockade, 9)
        n = d.parent.n
        schemes = _schemes(p, n) + [transport_weights("L", n)]
        m1, m2 = cross_moments(d, schemes)
        assert m1.shape == (5, 81) and m2.shape == (5, 5, 81)
        assert np.array_equal(m2, np.swapaxes(m2, 0, 1))
        one = _point_params(SweepConfig(blockade=blockade), 1.0, 3.0, True)
        _, m2 = cross_moments(partition(build_model(one), 0),
                              _schemes(one, n) + [state_weights(np.arange(n))])
        assert m2 == [list(row) for row in zip(*m2)]

    def test_duration_is_the_same_in_every_view(self):
        # the e_t column and the e_t inside cov_qt come from one insertion
        for blockade in (False, True):
            p, d = _diamond(blockade, 21)
            e_t = time_moments(d)[0]
            for s in _schemes(p, d.parent.n)[:3]:
                assert np.array_equal(cross_moments(d, [s, None])[0][1], e_t)

    @pytest.mark.parametrize("cfg", [
        SweepConfig(), SweepConfig(blockade=True),
        SweepConfig(temperature=0.7, vg_n=21, vsd_n=21)])
    def test_duration_equals_the_shared_insertion(self, cfg):
        # duration_moments reads e_t and E[T^2] off the ends; they are the T
        # row and the T x T entry of the sweep's one insertion, bit for bit
        vg, vsd = (a.ravel() for a in np.meshgrid(cfg.vg_values(), cfg.vsd_values()))
        points = [(vg, vsd), (-10.0, 0.0), (1.0, 7.0)]
        for x, y in points:
            p = _point_params(cfg, x, y, True)
            d = partition(build_model(p), 0)
            m1, m2 = cross_moments(d, _schemes(p, d.parent.n))
            e_t, e_t2 = time_moments(d)[:2]
            assert np.asarray(e_t).tobytes() == np.asarray(m1[3]).tobytes()
            assert np.asarray(e_t2).tobytes() == np.asarray(m2[3][3]).tobytes()

    def test_polarization(self):
        # E[XY] = (E[(X+Y)^2] - E[X^2] - E[Y^2]) / 2, with the sum as a scheme
        p, d = _diamond(False, 9)
        n = d.parent.n
        pairs = [(transport_weights("L", n), transport_weights("R", n)),
                 (state_weights((0, 1, 0, 1)), state_weights((0, 0, 1, 1))),
                 (entropy_weights(p), activity_weights(n))]
        for x, y in pairs:
            m1, m2 = cross_moments(d, [x, y])
            e_sum2 = observable_moments(d, WeightScheme(x.weights + y.weights))[1]
            polar = (e_sum2 - m2[0, 0] - m2[1, 1]) / 2.0
            # rounding scale: the same sums on |weights|, which bound every term
            size2 = observable_moments(
                d, WeightScheme(np.abs(x.weights) + np.abs(y.weights)))[1]
            assert np.all(np.abs(m2[0, 1] - polar) <= 1e-12 * size2)


class TestSeveralSchemes:
    """excursion_report and observable_moments over several schemes share
    one insertion and equal the one-scheme calls bit for bit."""

    @staticmethod
    def _chains(blockade):
        # one point at the stiff gate edge, one inside, and a stacked 7 x 7
        # block whose first column is the stiff edge vg = -10
        cfg = SweepConfig(blockade=blockade)
        for vg, vsd in ((-10.0, 0.0), (1.0, 7.0)):
            p = _point_params(cfg, vg, vsd, True)
            yield p, partition(build_model(p), 0)
        yield _diamond(blockade)

    @staticmethod
    def _same(a, b):
        return np.asarray(a).tobytes() == np.asarray(b).tobytes()

    @pytest.mark.parametrize("blockade", [False, True])
    def test_reports(self, blockade):
        for p, d in self._chains(blockade):
            names = ("transport", "activity", "entropy")
            schemes = dict(zip(names, _schemes(p, d.parent.n)))
            reports = excursion_report(d, schemes)
            listed = excursion_report(d, list(schemes.values()))
            assert list(reports) == list(names) and len(listed) == 3
            for (name, scheme), other in zip(schemes.items(), listed):
                one = excursion_report(d, scheme)
                assert isinstance(one, ExcursionReport)
                for field in vars(one):
                    want = getattr(one, field)
                    assert self._same(getattr(reports[name], field), want), (name, field)
                    assert self._same(getattr(other, field), want), (name, field)
                    assert type(getattr(reports[name], field)) is type(want)

    @pytest.mark.parametrize("blockade", [False, True])
    def test_moments(self, blockade):
        for p, d in self._chains(blockade):
            schemes = _schemes(p, d.parent.n)[:3]
            several = observable_moments(d, schemes)
            keyed = observable_moments(d, dict(enumerate(schemes)))
            assert list(keyed) == [0, 1, 2]
            for i, scheme in enumerate(schemes):
                one = observable_moments(d, scheme)
                assert len(one) == 5
                assert all(self._same(a, b) for a, b in zip(several[i], one))
                assert all(self._same(a, b) for a, b in zip(keyed[i], one))

    def test_no_schemes(self, ref_dec):
        assert excursion_report(ref_dec, []) == []
        assert observable_moments(ref_dec, {}) == {}
        assert cross_moments(ref_dec, []) == ([], [])
        _, d = _diamond(False, 3)
        m1, m2 = cross_moments(d, [])
        assert m1.shape == (0, 9) and m2.shape == (0, 0, 9)


CROSS_SCHEMES = {
    "transport_L": transport_weights("L", 4),
    "transport_R": transport_weights("R", 4),
    "dot_left": state_weights((0, 1, 0, 1)),
    "dot_right": state_weights((0, 0, 1, 1)),
}


@pytest.fixture(scope="module")
def cross_sample(ref_model):
    return sample_excursions(ref_model, CROSS_SCHEMES, 200_000, seed=2718)


class TestMonteCarloCrossCovariance:
    @pytest.mark.parametrize("names", [
        ("transport_L", "transport_R"),
        ("dot_left", "dot_right"),
        ("dot_left", "transport_R"),
    ])
    def test_cross_covariance_from_one_draw(self, cross_sample, ref_dec, names):
        # every scheme reads the same excursions, so one draw estimates the
        # covariance of any pair; se from the per-excursion centred products
        schemes, sample = CROSS_SCHEMES, cross_sample
        a, b = names
        m1, m2 = cross_moments(ref_dec, [schemes[a], schemes[b], None])
        cov = m2 - np.outer(m1, m1)
        draws = {a: sample.q[a], b: sample.q[b], "T": sample.durations}
        for (i, x), (j, y) in (((0, a), (1, b)), ((0, a), (2, "T")),
                               ((1, b), (2, "T"))):
            prod = (draws[x] - draws[x].mean()) * (draws[y] - draws[y].mean())
            se = prod.std(ddof=1) / math.sqrt(prod.size)
            z = (prod.mean() - cov[i, j]) / se
            assert abs(z) <= 4.0, (x, y, prod.mean(), cov[i, j], se)
