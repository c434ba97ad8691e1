"""The verdicts ``tools/bench_pairs.py`` writes per workload and metric."""
import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "tools" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

PARENT = [1.00, 1.01, 0.99, 1.02, 1.00, 0.98, 1.01, 1.00, 0.99, 1.02]


def _verdicts(parent, change, better="lower", bound=0.15):
    sign = 1 if better == "lower" else -1
    wins = sum(sign * (a - b) > 0 for a, b in zip(parent, change))
    return bench_pairs._verdicts(bench_pairs._summary(parent), bench_pairs._summary(change),
                                 better, bound, wins)


def test_gain_needs_nine_wins_in_ten_and_a_margin_over_the_parents_iqr():
    faster = [v * 0.92 for v in PARENT]
    assert _verdicts(PARENT, faster) == {"gain": True, "regression": False,
                                         "unresolved": False}
    eight_wins = faster[:8] + [v * 1.05 for v in PARENT[8:]]
    assert not _verdicts(PARENT, eight_wins)["gain"]
    within_iqr = [v - 0.001 for v in PARENT]
    assert not _verdicts(PARENT, within_iqr)["gain"]
    # higher is better: the same runs read the other way
    assert _verdicts(faster, PARENT, better="higher")["gain"]
    assert not _verdicts(PARENT, faster, better="higher")["gain"]


def test_regression_beyond_the_relative_bound():
    assert _verdicts(PARENT, [v * 1.2 for v in PARENT])["regression"]
    assert not _verdicts(PARENT, [v * 1.1 for v in PARENT])["regression"]
    assert _verdicts(PARENT, [v * 0.8 for v in PARENT], better="higher")["regression"]


def test_unresolved_when_the_runs_spread_wider_than_the_bound():
    wide = [0.7, 1.3, 0.8, 1.2, 1.0, 0.9, 1.1, 0.75, 1.25, 1.0]
    assert _verdicts(PARENT, wide)["unresolved"]
    assert _verdicts(wide, PARENT)["unresolved"]
    # unless every run of the change is better than every run of the parent
    assert not _verdicts([2 * v for v in wide], wide)["unresolved"]


def test_relative_median_change_is_printed_with_the_verdicts():
    parent, change = bench_pairs._summary(PARENT), bench_pairs._summary([v * 0.95 for v in PARENT])
    rel = bench_pairs._relative_change(parent, change)
    assert rel == pytest.approx(-0.05)
    metric = dict(_verdicts(PARENT, change["runs"]), relative_change=rel)
    assert bench_pairs._report_line("diamond-sweep", "run_s", metric) == (
        "diamond-sweep run_s: gain, median -5.00%")
    flat = dict(_verdicts(PARENT, PARENT), relative_change=0.0)
    assert bench_pairs._report_line("mc-oracle", "peak_rss_mb", flat) == (
        "mc-oracle peak_rss_mb: flat, median +0.00%")


def test_no_gain_where_the_change_fails_a_larger_share():
    def runs(values, failed):
        return [{"metrics": {"run_s": v}, "attempted": 100, "failed": failed} for v in values]

    faster = [v * 0.92 for v in PARENT]
    spec = ({"run_s": "lower"}, {"run_s": 0.15})
    same = bench_pairs._workload("mc-oracle", {"parent": runs(PARENT, 1),
                                               "change": runs(faster, 1)}, *spec)
    assert same["metrics"]["run_s"]["gain"]
    assert same["failed_share"] == {"parent": 0.01, "change": 0.01}
    worse = bench_pairs._workload("mc-oracle", {"parent": runs(PARENT, 1),
                                                "change": runs(faster, 2)}, *spec)
    assert not worse["metrics"]["run_s"]["gain"]
    assert worse["failed_share"] == {"parent": 0.01, "change": 0.02}
    assert worse["failed"] == {"parent": [1] * 10, "change": [2] * 10}
    assert worse["attempted"]["change"] == [100] * 10
    # fewer failures never deny a gain
    fewer = bench_pairs._workload("mc-oracle", {"parent": runs(PARENT, 2),
                                                "change": runs(faster, 0)}, *spec)
    assert fewer["metrics"]["run_s"]["gain"]


def test_staging_copies_both_sides_to_sibling_paths_of_equal_length(tmp_path):
    sides = {"parent": tmp_path / "p", "change": tmp_path / "a" / "much" / "longer" / "checkout"}
    for side, checkout in sides.items():
        for rel, text in (("src/exclab/__init__.py", side), ("bench/run.py", "run"),
                          ("BENCHMARK.json", "{}"), ("tests/test_x.py", "skip"),
                          ("src/exclab/__pycache__/x.cpython-311.pyc", "skip")):
            (checkout / rel).parent.mkdir(parents=True, exist_ok=True)
            (checkout / rel).write_text(text)
    staged = bench_pairs._stage(sides, tmp_path / "staged")
    assert staged == {side: tmp_path / "staged" / side for side in sides}
    assert len(str(staged["parent"])) == len(str(staged["change"]))
    for side, path in staged.items():
        assert (path / "src" / "exclab" / "__init__.py").read_text() == side
        assert (path / "bench" / "run.py").read_text() == "run"
        assert (path / "BENCHMARK.json").read_text() == "{}"
        assert not (path / "tests").exists()
        assert not (path / "src" / "exclab" / "__pycache__").exists()
