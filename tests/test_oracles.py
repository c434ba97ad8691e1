"""The transform oracles against the per-probe versions in
``reference_oracles``, bit for bit, and the stacking of their probes."""
import math

import numpy as np
import pytest

from exclab import excursions
from exclab import (
    DqdParams,
    WeightScheme,
    activity_weights,
    build_dqd,
    build_dqd_blockade,
    entropy_weights,
    excess_time_weights,
    fcs_current_noise,
    finite_difference_moments,
    outcome_distribution,
    partition,
    transport_weights,
    validate_rate_matrix,
)

import reference_oracles as reference
from conftest import REF, random_chain

# stiff cells: the vg = -10 column of verify's grid at T = 1
STIFF = dict(REF, temperature=1.0, vg=-10.0)
STIFF_VSD = np.linspace(-20.0, 20.0, 7)


def _dqd_cases():
    """(label, model, schemes) for the reference point, the blockade chain
    and the stiff cells, 4-state and blockade."""
    params = [DqdParams(vg=0.0, vsd=7.0, **REF),
              DqdParams(vg=0.0, vsd=7.0, blockade=True, **REF)]
    params += [DqdParams(vsd=float(v), blockade=b, **STIFF)
               for b in (False, True) for v in STIFF_VSD]
    for p in params:
        m = (build_dqd_blockade if p.blockade else build_dqd)(p)
        schemes = [transport_weights("R", m.n), activity_weights(m.n),
                   entropy_weights(p), excess_time_weights(m)]
        yield f"vg={p.vg}, vsd={p.vsd}, blockade={p.blockade}", m, schemes


def _random_cases(integer=False):
    rng = np.random.default_rng(17)
    for n in (2, 3, 4, 5):
        for _ in range(3):
            m = validate_rate_matrix(random_chain(rng, n))
            nu = (rng.integers(-1, 2, size=(n, n)).astype(float) if integer
                  else rng.normal(size=(n, n)))
            yield f"random n={n}", m, [WeightScheme(nu)]


def _outcome(fn, *args, **kwargs):
    """The value of a call, or the type and message of what it raised."""
    try:
        return "value", fn(*args, **kwargs)
    except Exception as exc:  # the reference's exceptions must match too
        return "raised", (type(exc), str(exc))


def _count_calls(monkeypatch, name):
    """Record the number of stacked systems of every numpy.linalg.<name> call."""
    sizes = []
    kernel = getattr(np.linalg, name)

    def counted(a, *args, **kwargs):
        sizes.append(int(np.prod(np.shape(a)[:-2])))
        return kernel(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, name, counted)
    return sizes


class TestFiniteDifferenceMoments:
    @pytest.mark.parametrize("cases", [_dqd_cases, _random_cases])
    def test_bitwise_equal_to_per_probe_reference(self, cases):
        for label, m, schemes in cases():
            d = partition(m, 0)
            for s in schemes:
                got = finite_difference_moments(d, s)
                want = reference.finite_difference_moments(d, s)
                assert got == want, label
                assert all(type(v) is float for v in got)

    def test_halving_step_matches_reference(self, ref_dec, monkeypatch):
        # activity at the reference point halves the chi step several times
        s = activity_weights(4)
        sizes = _count_calls(monkeypatch, "solve")
        got = finite_difference_moments(ref_dec, s)
        assert len(sizes) > 4
        assert got == reference.finite_difference_moments(ref_dec, s)

    @pytest.mark.parametrize("fault", ["nan", "raise"])
    def test_failing_probe_halves_like_reference(self, ref_dec, monkeypatch, fault):
        # only the mixed probes f(+-hc, -h) fail, and only for h > 1e-3, so
        # they alone force the s step down
        def bad(chi, s):
            return chi != 0.0 and s < -1e-3

        per_probe, stacked = reference._mgf, excursions._mgf

        def faulty_per_probe(d, scheme, chi, s):
            if bad(chi, s):
                if fault == "raise":
                    raise np.linalg.LinAlgError("injected")
                return math.nan
            return per_probe(d, scheme, chi, s)

        def faulty_stacked(d, scheme, chi, s):
            hit = [bad(c, t) for c, t in zip(chi, s)]
            if fault == "raise" and any(hit):
                raise np.linalg.LinAlgError("injected")
            vals = stacked(d, scheme, chi, s)
            return [math.nan if h else v for h, v in zip(hit, vals)]

        tr = transport_weights("R", 4)
        clean = finite_difference_moments(ref_dec, tr)
        monkeypatch.setattr(reference, "_mgf", faulty_per_probe)
        monkeypatch.setattr(excursions, "_mgf", faulty_stacked)
        got = finite_difference_moments(ref_dec, tr)
        assert got != clean
        assert got == reference.finite_difference_moments(ref_dec, tr)

    def test_probes_are_stacked(self, ref_dec, monkeypatch):
        sizes = _count_calls(monkeypatch, "solve")
        finite_difference_moments(ref_dec, transport_weights("R", 4), levels=4)
        # f(0, 0), one call per trial step, one for the Richardson ladder
        assert len(sizes) <= 8
        assert sizes[0] == 1 and sizes[-1] == 32
        assert set(sizes[1:-1]) <= {2, 4}


class TestFcsCurrentNoise:
    @pytest.mark.parametrize("cases", [_dqd_cases, _random_cases])
    def test_bitwise_equal_to_per_step_reference(self, cases):
        for label, m, schemes in cases():
            for s in schemes:
                got = _outcome(fcs_current_noise, m, s)
                assert got == _outcome(reference.fcs_current_noise, m, s), label

    def test_step_collapse_matches_reference(self, ref_model):
        tr = transport_weights("R", 4)
        got = _outcome(fcs_current_noise, ref_model, tr, h0=80.0, levels=3)
        assert got[0] == "raised"
        assert got == _outcome(reference.fcs_current_noise, ref_model, tr,
                               h0=80.0, levels=3)

    def test_one_eigensolver_call(self, ref_model, monkeypatch):
        sizes = _count_calls(monkeypatch, "eigvals")
        fcs_current_noise(ref_model, transport_weights("R", 4), levels=5)
        assert sizes == [11]


class TestOutcomeDistribution:
    def _cases(self):
        pb = DqdParams(vg=0.0, vsd=7.0, blockade=True, **REF)
        blockade = partition(build_dqd_blockade(pb), 0)
        multi = partition(build_dqd(DqdParams(vg=-6.0, vsd=7.0, **REF)), 0)
        yield blockade, transport_weights("R", 3), (-5, 5)
        yield blockade, activity_weights(3), (0, 300)
        yield multi, transport_weights("R", 4), (-40, 40)
        for v in STIFF_VSD:
            p = DqdParams(vsd=float(v), blockade=True, **STIFF)
            yield partition(build_dqd_blockade(p), 0), transport_weights("R", 3), (-2, 2)
        for _, m, (s,) in _random_cases(integer=True):
            yield partition(m, 0), s, (-30, 30)

    @pytest.mark.parametrize("nodes", [4, 64, 4096])
    def test_bitwise_equal_to_fresh_grid_reference(self, nodes):
        # small node counts double the grid up to the 16 x nodes cap
        for d, s, q_range in self._cases():
            got = _outcome(outcome_distribution, d, s, q_range, nodes)
            want = _outcome(reference.outcome_distribution, d, s, q_range, nodes)
            assert got[0] == want[0]
            if got[0] == "raised":
                assert got == want
            else:
                assert np.array_equal(got[1][0], want[1][0])
                assert np.array_equal(got[1][1], want[1][1])

    def test_each_node_solved_once(self, ref_blockade_model, monkeypatch):
        d = partition(ref_blockade_model, 0)
        sizes = _count_calls(monkeypatch, "solve")
        outcome_distribution(d, activity_weights(3), (0, 300), nodes=8)
        # the first two grids in one call, then only the new odd nodes
        assert len(sizes) >= 3
        assert sizes == [16] + [8 * 2**k for k in range(1, len(sizes))]

