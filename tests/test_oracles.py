"""The transform oracles against the per-probe versions in
``reference_oracles``, bit for bit, and the stacking of their probes; the
charge-resolved outcome distribution against its quadrature oracle."""
import dataclasses
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from exclab import excursions, verify
from exclab import (
    DqdParams,
    WeightScheme,
    activity_weights,
    build_model,
    entropy_weights,
    excess_time_weights,
    fcs_current_noise,
    finite_difference_moments,
    outcome_distribution,
    partition,
    success_fail_disaster,
    transport_weights,
    validate_rate_matrix,
)
from exclab.errors import EigenFailure, MassDeficit, StepCollapse
from exclab.excursions import outcome_quadrature
from exclab.sweep import SweepConfig, evaluate
from exclab.verify import _points

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
        m = build_model(p)
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
        # activity at the reference point halves the chi step several times,
        # all within the first ladder
        s = activity_weights(4)
        stacked, chis = excursions._mgf, []

        def recorded(d, scheme, chi, s):
            chis.append(list(chi))
            return stacked(d, scheme, chi, s)

        monkeypatch.setattr(excursions, "_mgf", recorded)
        sizes = _count_calls(monkeypatch, "solve")
        got = finite_difference_moments(ref_dec, s)
        ladder = excursions._LADDER
        assert sizes == [1 + 2 * ladder, 4 * ladder, 32]
        # the Richardson ladder starts at the accepted chi step
        assert chis[-1][0] < 0.25 / 4
        assert got == reference.finite_difference_moments(ref_dec, s)

    def test_stiff_search_runs_past_the_first_ladder(self, monkeypatch):
        # activity at (vg, vsd) = (-10, 0), T = 1: the chi step search needs
        # more than one ladder
        m = build_model(DqdParams(vsd=0.0, **STIFF))
        d, s = partition(m, 0), activity_weights(m.n)
        sizes = _count_calls(monkeypatch, "solve")
        got = finite_difference_moments(d, s)
        assert sizes[0] == 1 + 2 * excursions._LADDER
        assert 3 < len(sizes) <= 5
        assert got == reference.finite_difference_moments(d, s)

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
        # f(0, 0) with the chi ladder's +-h probes, the s ladder's four
        # probes per step, and the 8 * levels Richardson probes
        ladder = excursions._LADDER
        assert sizes == [1 + 2 * ladder, 4 * ladder, 32]


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
    """The quadrature oracle of the outcome distribution."""

    def _cases(self):
        pb = DqdParams(vg=0.0, vsd=7.0, blockade=True, **REF)
        blockade = partition(build_model(pb), 0)
        multi = partition(build_model(DqdParams(vg=-6.0, vsd=7.0, **REF)), 0)
        yield blockade, transport_weights("R", 3), (-5, 5)
        yield blockade, activity_weights(3), (0, 300)
        yield multi, transport_weights("R", 4), (-40, 40)
        for v in STIFF_VSD:
            p = DqdParams(vsd=float(v), blockade=True, **STIFF)
            yield partition(build_model(p), 0), transport_weights("R", 3), (-2, 2)
        for _, m, (s,) in _random_cases(integer=True):
            yield partition(m, 0), s, (-30, 30)

    @pytest.mark.parametrize("nodes", [4, 64, 4096])
    def test_bitwise_equal_to_fresh_grid_reference(self, nodes):
        # small node counts double the grid up to the 16 x nodes cap
        for d, s, q_range in self._cases():
            got = _outcome(outcome_quadrature, d, s, q_range, nodes)
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
        outcome_quadrature(d, activity_weights(3), (0, 300), nodes=8)
        # the first two grids in one call, then only the new odd nodes
        assert len(sizes) >= 3
        assert sizes == [16] + [8 * 2**k for k in range(1, len(sizes))]



def _compare_to_quadrature(d, scheme, ranges):
    """The engine against the quadrature on the first of ``ranges`` whose
    outside mass is below 1e-13, where the quadrature's renormalisation by
    its in-range mass cannot bias it; the largest difference, or None."""
    for q_range in ranges:
        try:
            qs, probs = outcome_distribution(d, scheme, q_range)
        except MassDeficit:
            continue
        if 1.0 - probs.sum() < 1e-13:
            qs_q, probs_q = outcome_quadrature(d, scheme, q_range)
            assert np.array_equal(qs, qs_q)
            return float(np.max(np.abs(probs - probs_q)))
    return None


class TestOutcomeEngine:
    """The charge-resolved solve behind outcome_distribution."""

    def test_closed_forms_on_verify_blockade_grid(self):
        worst = 0.0
        for p in _points(SweepConfig(blockade=True)):
            d = partition(build_model(p), 0)
            qs, probs = outcome_distribution(d, transport_weights("R", 3), (-2, 2))
            t = success_fail_disaster(p)
            ref = {1: t.p_suc, 0: t.p_fail, -1: t.p_dis}
            want = np.array([ref.get(int(q), 0.0) for q in qs])
            worst = max(worst, float(np.max(np.abs(probs - want))))
        assert worst <= 1e-13

    def test_matches_quadrature_on_random_chains(self):
        for label, m, (s,) in _random_cases(integer=True):
            err = _compare_to_quadrature(partition(m, 0), s,
                                         [(-30, 30), (-60, 60), (-120, 120)])
            assert err is not None and err <= 1e-12, label

    def test_matches_quadrature_on_verify_grid(self):
        compared = 0
        for p in _points(SweepConfig()):
            d = partition(build_model(p), 0)
            err = _compare_to_quadrature(d, transport_weights("R", 4), [(-50, 50)])
            if err is not None:
                assert err <= 1e-12, (p.vg, p.vsd)
                compared += 1
        # the heavy-tailed cells near vg = -10 keep more than 1e-13 outside
        assert compared >= 30

    def test_absorbed_mass_bounds_a_narrow_window(self, ref_dec):
        # transport B -> B jumps go both ways, so both edges absorb mass that
        # could come back; the narrow window keeps that below 1e-14
        tr = transport_weights("R", 4)
        qs, narrow = outcome_distribution(ref_dec, tr, (-5, 5))
        qs_w, wide = outcome_distribution(ref_dec, tr, (-60, 60))
        assert 1.0 - wide.sum() < 1e-13 < 1.0 - narrow.sum()
        assert np.max(np.abs(narrow - wide[np.isin(qs_w, qs)])) <= 1e-14
        assert narrow.sum() + wide[~np.isin(qs_w, qs)].sum() == pytest.approx(1.0, abs=1e-13)

    def test_one_sign_edges_need_no_padding(self, ref_blockade_model):
        # activity only counts up: a path that leaves a window never returns
        d = partition(ref_blockade_model, 0)
        qs, narrow = outcome_distribution(d, activity_weights(3), (0, 200))
        _, wide = outcome_distribution(d, activity_weights(3), (0, 300))
        assert np.max(np.abs(narrow - wide[:201])) <= 1e-15

    def test_mass_beyond_the_largest_window_raises(self):
        # every excursion ends at q = 0, but half of them first jump by +40
        # from state 1 to state 2, which has no return to A, and back by -40:
        # beyond a one-level range's 16-level cap, but inside (-50, 50)'s
        w = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 1.0], [0.0, 1.0, 0.0]])
        nu = np.zeros((3, 3))
        nu[2, 1], nu[1, 2] = 40.0, -40.0
        d, s = partition(validate_rate_matrix(w), 0), WeightScheme(nu)
        with pytest.raises(MassDeficit, match="5.000e-01 of the mass is absorbed"):
            outcome_distribution(d, s, (0, 0))
        qs, probs = outcome_distribution(d, s, (-50, 50))
        assert probs[qs == 0][0] == pytest.approx(1.0, abs=1e-15)

    def test_hopeless_range_fails_before_widening(self, monkeypatch):
        # (-10, 0) of verify's grid spreads its net count over hundreds: the
        # first window already shows (-50, 50) cannot hold 1 - 1e-6
        p = DqdParams(vg=-10.0, vsd=0.0, **dict(REF, temperature=1.0))
        d = partition(build_model(p), 0)
        sizes = _count_calls(monkeypatch, "solve")
        with pytest.raises(MassDeficit, match="captures only"):
            outcome_distribution(d, transport_weights("R", 4), (-50, 50))
        # one pass: the core levels [-51, 50] and 101 more on each side
        assert len(sizes) == 102 + 2 * 101

    def test_no_dense_matrix(self, ref_blockade_model, ref_dec, monkeypatch):
        d = partition(ref_blockade_model, 0)
        shapes = []
        kernel = np.linalg.solve

        def counted(a, b):
            shapes.append(np.shape(a))
            return kernel(a, b)

        monkeypatch.setattr(np.linalg, "solve", counted)
        outcome_distribution(d, transport_weights("R", 3), (-2, 2))
        # one 2 x 2 solve per charge level of the window [-3, 2]
        assert shapes == [(2, 2)] * 6
        shapes.clear()
        outcome_distribution(ref_dec, transport_weights("R", 4), (-10, 10))
        # B -> B jumps add +-1: one 3 x 3 solve per level, in every pass
        assert shapes and set(shapes) == {(3, 3)}


@st.composite
def _grouped_chains(draw):
    """Random chains whose B -> B weights reach +-2, with return rates that
    dominate, so that the tails beyond |q| = 80 are negligible."""
    n = draw(st.integers(3, 4))
    rates = st.floats(0.01, 0.5)
    w = np.array([[draw(rates) for _ in range(n)] for _ in range(n)])
    w[0, 1:] = [draw(st.floats(2.0, 5.0)) for _ in range(n - 1)]
    np.fill_diagonal(w, 0.0)
    nu = np.array([[draw(st.integers(-2, 2)) for _ in range(n)] for _ in range(n)])
    nu[1, 2] = draw(st.sampled_from([-2, 2]))
    return validate_rate_matrix(w), WeightScheme(nu.astype(float))


@settings(max_examples=30, deadline=None, derandomize=True)
@given(_grouped_chains())
def test_grouped_levels_match_quadrature(chain):
    m, s = chain
    d = partition(m, 0)
    qs, probs = outcome_distribution(d, s, (-80, 80))
    assert 1.0 - probs.sum() < 1e-13
    _, quad = outcome_quadrature(d, s, (-80, 80))
    assert np.max(np.abs(probs - quad)) <= 1e-12
    # the narrowest symmetric range that keeps all but 1e-7: P plus the mass
    # outside it, from the wide solve, is one
    h = min(h for h in range(81) if probs[np.abs(qs) > h].sum() < 1e-7)
    qs_n, narrow = outcome_distribution(d, s, (-h, h))
    inside = np.isin(qs, qs_n)
    assert np.max(np.abs(narrow - probs[inside])) <= 1e-12
    assert narrow.sum() + probs[~inside].sum() + (1.0 - probs.sum()) == pytest.approx(1.0, abs=1e-12)


def _nan_on_fifth_call(fn, spoil):
    """``fn``, except that its fifth call returns ``spoil(result)``."""
    calls = []

    def wrapped(*args, **kwargs):
        calls.append(None)
        out = fn(*args, **kwargs)
        return spoil(out) if len(calls) == 5 else out
    return wrapped


_NAN = float("nan")
# (check line, patched name in exclab.verify, spoil, blockade run)
_SPOILED_ORACLES = [
    ("normalization identity", "_float", lambda v: _NAN, False),
    ("moment formulas vs finite differences", "finite_difference_moments",
     lambda f: (_NAN,) + tuple(f[1:]), False),
    ("entropy/transport proportionality", "lead_log_ratio", lambda v: _NAN, False),
    ("FCS equivalence", "fcs_current_noise", lambda jd: (_NAN, jd[1]), False),
    ("excess-time self-consistency", "excursion_report",
     lambda r: dataclasses.replace(r, j=_NAN), False),
    ("blockade closed forms vs engine", "blockade_analytics",
     lambda cf: dataclasses.replace(cf, e_t=_NAN), False),
    ("outcome distribution vs quadrature", "outcome_quadrature",
     lambda qp: (qp[0], np.full_like(qp[1], _NAN)), True),
]


@pytest.mark.parametrize("check, name, spoil, blockade", _SPOILED_ORACLES,
                         ids=[c[0] for c in _SPOILED_ORACLES])
def test_verify_fails_on_one_nan(monkeypatch, check, name, spoil, blockade):
    # max() and > drop a NaN error, so one NaN from an oracle used to pass
    monkeypatch.setattr(verify, "_GRID_VG", np.linspace(-10.0, 10.0, 3))
    monkeypatch.setattr(verify, "_GRID_VSD", np.linspace(-20.0, 20.0, 3))
    monkeypatch.setattr(verify, name, _nan_on_fifth_call(getattr(verify, name), spoil))
    results = verify.run_verify(SweepConfig(blockade=blockade))
    failed = [r for r in results if not r.passed]
    assert [r.name for r in failed] == [check]
    assert "nan at vg=" in failed[0].detail
    assert "1 FAILED" in verify.format_results(results)


@pytest.mark.parametrize("error", [StepCollapse("refinement stalled"), EigenFailure("no")])
def test_verify_oracle_error_fails_its_line(monkeypatch, error):
    # an FCS error at one point aborted the run with the point unnamed
    _small_grid(monkeypatch)
    fcs, calls = verify.fcs_current_noise, []

    def failing(*args):
        calls.append(None)
        if len(calls) >= 5:
            raise error
        return fcs(*args)
    monkeypatch.setattr(verify, "fcs_current_noise", failing)
    results = verify.run_verify(SweepConfig())
    assert len(results) == 7 and len(calls) == 9
    failed = [r for r in results if not r.passed]
    assert [r.name for r in failed] == ["FCS equivalence"]
    why = f"{type(error).__name__}: {error}"
    assert failed[0].detail.startswith(
        f"J rel err nan at vg=0, vsd=0, {why}, err/tol nan (tol 1e-6); "
        f"D rel err nan at vg=0, vsd=0, {why}, err/tol nan (tol 1e-6); ")


# (patched oracle, blockade run, the lines it fails, where the fifth call is)
_FAILING_ORACLES = [
    ("finite_difference_moments", False, ["moment formulas vs finite differences"],
     "worst rel err nan at vg=0, vsd=-20, scheme activity, "),
    ("outcome_distribution", True, ["outcome distribution vs closed forms",
                                    "outcome distribution vs quadrature"],
     "worst abs err nan at vg=0, vsd=0, "),
    ("outcome_quadrature", True, ["outcome distribution vs quadrature"],
     "worst abs err nan at vg=0, vsd=0, "),
]


@pytest.mark.parametrize("name, blockade, lines, where", _FAILING_ORACLES,
                         ids=[o[0] for o in _FAILING_ORACLES])
@pytest.mark.parametrize("error", [MassDeficit("range [-2, 2] captures only 0.99"),
                                   np.linalg.LinAlgError("Singular matrix")])
def test_verify_names_the_point_an_oracle_cannot_evaluate(
        monkeypatch, name, blockade, lines, where, error):
    # these oracles' errors aborted verify with the point unnamed
    _small_grid(monkeypatch)
    oracle, calls = getattr(verify, name), []

    def failing(*args):
        calls.append(None)
        if len(calls) == 5:
            raise error
        return oracle(*args)
    monkeypatch.setattr(verify, name, failing)
    results = verify.run_verify(SweepConfig(blockade=blockade))
    failed = [r for r in results if not r.passed]
    assert [r.name for r in failed] == lines
    why = f"{type(error).__name__}: {error}"
    for r in failed:
        assert r.detail.startswith(f"{where}{why}, err/tol nan (tol "), r.detail


def test_rel_of_a_nan_side_is_nan():
    # a failed oracle point compares against NaN; 0 against NaN divided by 0
    for a, b in ((0.0, _NAN), (_NAN, 0.0), (1.0, _NAN), (_NAN, _NAN)):
        assert math.isnan(verify._rel(a, b))
    assert verify._rel(0.0, 0.0) == 0.0 and verify._rel(1.0, 2.0) == 0.5


def _small_grid(monkeypatch):
    monkeypatch.setattr(verify, "_GRID_VG", np.linspace(-10.0, 10.0, 3))
    monkeypatch.setattr(verify, "_GRID_VSD", np.linspace(-20.0, 20.0, 3))


def test_verify_checks_the_reports_the_sweep_writes(monkeypatch):
    # spoil var_q of one point's transport report; (0, 0) is an equilibrium
    # point, where the proportionality check, which also reads var_q, has
    # no current to scale by
    _small_grid(monkeypatch)

    def spoiled(p):
        ev = evaluate(p)
        if (p.vg, p.vsd) != (0.0, 0.0):
            return ev
        _, f_q2, _, f_t2, f_qt = finite_difference_moments(ev.dec, ev.schemes["transport"])
        rq = ev.reports["transport"]
        rq = dataclasses.replace(
            rq, var_q=rq.var_q + 1e-3 * max(1.0, abs(f_q2), abs(f_t2), abs(f_qt)))
        return dataclasses.replace(ev, reports={**ev.reports, "transport": rq})
    monkeypatch.setattr(verify, "evaluate", spoiled)
    failed = [r for r in verify.run_verify(SweepConfig()) if not r.passed]
    assert [r.name for r in failed] == ["moment formulas vs finite differences"]
    assert " at vg=0, vsd=0, scheme transport, err/tol " in failed[0].detail


# one checked quantity: its worst error, point, optional label, err/tol and tol
_WORST = re.compile(r"(?P<what>[^;]+?) (?P<err>\S+) at vg=[^,\s]+, vsd=[^,\s]+"
                    r"(?:, scheme \w+)?, err/tol (?P<ratio>\S+) \(tol (?P<tol>1e-\d+)\)")


@pytest.mark.parametrize("blockade", [False, True])
def test_verify_lines_share_one_format(monkeypatch, blockade):
    _small_grid(monkeypatch)
    results = verify.run_verify(SweepConfig(blockade=blockade))
    assert len(results) == (10 if blockade else 7)
    for r in results:
        assert r.passed, r
        if r.name == "bound inequalities":
            continue
        parts = r.detail.split("; ")
        # the FCS and outcome lines end with one extra that is not checked
        if r.name == "FCS equivalence" or r.name.startswith("outcome distribution"):
            parts = parts[:-1]
        assert parts, r
        for part in parts:
            m = _WORST.fullmatch(part)
            assert m, part
            assert m["ratio"] == f"{float(m['err']) / float(m['tol']):.2e}", part


def test_verify_fcs_line_shows_the_absolute_gap():
    # J vanishes on the vsd = 0 line, so its worst relative error is 1 there
    # and only the 1e-9 absolute floor passes it; the line prints that gap
    cfg = SweepConfig()
    (fcs,) = [r for r in verify.run_verify(cfg) if r.name == "FCS equivalence"]
    assert fcs.passed
    worst = {}
    for p in _points(cfg):
        ev = evaluate(p)
        rq = ev.reports["transport"]
        j_fcs, d_fcs = fcs_current_noise(ev.model, ev.schemes["transport"])
        for key, a, b in (("J", rq.j, j_fcs), ("D", rq.d1 + rq.d2 + rq.d3, d_fcs)):
            rel = verify._rel(a, b)
            if key not in worst or rel > worst[key][0]:
                worst[key] = (rel, p, abs(a - b))
    for key, (rel, p, gap) in worst.items():
        assert (f"{key} {rel:.2e} at vg={p.vg:.4g}, vsd={p.vsd:.4g} "
                f"(abs gap {gap:.2e})") in fcs.detail
    rel, p, gap = worst["J"]
    assert rel > 1e-6 and gap <= 1e-9 and p.vsd == 0.0
