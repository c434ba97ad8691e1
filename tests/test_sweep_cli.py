import csv
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from exclab.heatmap import render_heatmap
from exclab.errors import DegenerateFermi, MalformedCsv, UnknownColumn
from exclab.sweep import (
    CANONICAL_COLUMNS,
    SweepConfig,
    compute_row,
    load_config,
    parse_grid_spec,
    sweep_rows,
    sweep_to_csv,
    write_csv,
)

EXPECTED_HEADER = (
    "vg,vsd,j_qr,d_qr,d1,d2,d3,fano,j_act,j_sigma,mu,e_t,var_t,e_tau,cov_qt,"
    "p00,p10,p01,p11,mi,p_suc,p_fail,p_dis,tur_lhs,tur_rhs,kur_rhs,cur_rhs"
)

SMALL = dict(vg_lo=-8.0, vg_hi=8.0, vg_n=9, vsd_lo=-16.0, vsd_hi=16.0, vsd_n=9)


def run_cli(*args, env=None):
    # the child process must fail on numpy deprecations and on floating-point
    # warnings, as pytest does
    e = dict(os.environ,
             PYTHONWARNINGS="error::DeprecationWarning,error::RuntimeWarning")
    if env:
        e.update(env)
    return subprocess.run(
        [sys.executable, "-m", "exclab.cli", *args],
        capture_output=True, text=True, env=e,
    )


class TestConfig:
    def test_defaults_match_diamond_figure(self):
        cfg = SweepConfig()
        assert cfg.g == 1.0 and cfg.u == 10.0 and cfg.temperature == 1.0
        assert cfg.gamma == pytest.approx(2 * math.pi * 0.1)
        assert cfg.vg_n == cfg.vsd_n == 101

    def test_file_and_flag_precedence(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text(
            "temperature = 2.5  # kelvin-ish\nvg_n = 5\nblockade = true\n",
            encoding="utf-8")
        cfg = load_config(str(path))
        assert cfg.temperature == 2.5 and cfg.vg_n == 5 and cfg.blockade

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("volts = 3\n", encoding="utf-8")
        with pytest.raises(ValueError):
            load_config(str(path))

    def test_grid_spec(self):
        upd = parse_grid_spec("vg:-1:1:11,vsd:0:5:3")
        assert upd == dict(vg_lo=-1.0, vg_hi=1.0, vg_n=11,
                           vsd_lo=0.0, vsd_hi=5.0, vsd_n=3)
        assert parse_grid_spec("vsd:-2:2:5") == dict(vsd_lo=-2.0, vsd_hi=2.0, vsd_n=5)
        with pytest.raises(ValueError):
            parse_grid_spec("vx:0:1:2")

    def test_invalid_grid_rejected(self):
        with pytest.raises(ValueError):
            SweepConfig(vg_n=0)
        with pytest.raises(ValueError):
            SweepConfig(vsd_lo=3.0, vsd_hi=-3.0)

    def test_workers_env_fallback(self, monkeypatch):
        monkeypatch.setenv("EXCLAB_WORKERS", "6")
        assert SweepConfig().resolve_workers() == 6
        assert SweepConfig(workers=2).resolve_workers() == 2
        monkeypatch.setenv("EXCLAB_WORKERS", "nope")
        with pytest.raises(ValueError):
            SweepConfig().resolve_workers()

    def test_column_subset_keeps_canonical_order(self):
        cfg = SweepConfig(columns=("j_qr", "vsd", "vg", "mu"))
        assert cfg.columns == ("vg", "vsd", "j_qr", "mu")
        with pytest.raises(ValueError):
            SweepConfig(columns=("vg", "vsd", "bogus"))


class TestSweep:
    def test_header_and_row_shape(self, tmp_path):
        cfg = SweepConfig(vg_n=3, vsd_n=3, temperature=2.0)
        out = tmp_path / "s.csv"
        n = sweep_to_csv(cfg, str(out))
        assert n == 9
        lines = out.read_text(encoding="utf-8").splitlines()
        assert lines[0] == EXPECTED_HEADER
        assert len(lines) == 10

    def test_rows_are_vsd_major(self, tmp_path):
        cfg = SweepConfig(vg_n=3, vsd_n=2, vg_lo=0, vg_hi=2, vsd_lo=-1, vsd_hi=1)
        rows = sweep_rows(cfg)
        coords = [(r["vg"], r["vsd"]) for r in rows]
        assert coords == [(0.0, -1.0), (1.0, -1.0), (2.0, -1.0),
                          (0.0, 1.0), (1.0, 1.0), (2.0, 1.0)]

    def test_byte_identical_across_worker_counts(self, tmp_path):
        paths = []
        for workers in (1, 2):
            cfg = SweepConfig(workers=workers, temperature=2.0, **SMALL)
            p = tmp_path / f"w{workers}.csv"
            sweep_to_csv(cfg, str(p))
            paths.append(p)
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_outcome_columns_empty_without_blockade(self, tmp_path):
        cfg = SweepConfig(vg_n=2, vsd_n=2)
        rows = sweep_rows(cfg)
        assert all(r["p_suc"] is None for r in rows)
        cfgb = SweepConfig(vg_n=2, vsd_n=2, blockade=True)
        rowsb = sweep_rows(cfgb)
        assert all(0.0 <= r["p_suc"] <= 1.0 for r in rowsb)
        assert all(r["p11"] == 0.0 for r in rowsb)

    def test_in_row_identities(self):
        cfg = SweepConfig(temperature=2.0, blockade=True, **SMALL)
        for r in sweep_rows(cfg):
            assert abs(r["d_qr"] - (r["d1"] + r["d2"] + r["d3"])) \
                <= 1e-12 * max(1.0, abs(r["d_qr"]))
            assert abs(r["mu"] - (r["e_t"] + r["e_tau"])) \
                <= 1e-12 * max(1.0, abs(r["mu"]))
            psum = r["p00"] + r["p10"] + r["p01"] + r["p11"]
            assert abs(psum - 1.0) <= 1e-10
            assert r["p_suc"] + r["p_fail"] + r["p_dis"] == pytest.approx(1.0, abs=1e-12)
            lhs, cur, kur = r["tur_lhs"], r["cur_rhs"], r["kur_rhs"]
            slack = lambda v: v - 1e-9 * max(abs(v), 1.0)
            assert math.isinf(lhs) or lhs >= slack(r["tur_rhs"])
            assert math.isinf(lhs) or lhs >= slack(cur)
            assert cur >= slack(kur)

    def test_gate_shift_moves_the_axis(self):
        cfg = SweepConfig(vg_lo=0.0, vg_hi=0.0, vg_n=1, vsd_lo=7.0, vsd_hi=7.0,
                          vsd_n=1, temperature=2.0)
        shifted = sweep_rows(cfg, gate_shift=True)[0]
        plain = sweep_rows(cfg, gate_shift=False)[0]
        assert shifted["vg"] == plain["vg"] == 0.0
        assert shifted["j_qr"] != plain["j_qr"]
        manual = compute_row(cfg, -cfg.u / 2.0, 7.0, False)
        assert shifted["j_qr"] == manual["j_qr"]

    @pytest.mark.parametrize("blockade", [False, True])
    def test_batch_matches_single_points(self, blockade):
        # one engine pass over a 7 x 7 block, including the stiff edge
        # vg = -10, against one scalar call per cell
        cfg = SweepConfig(temperature=1.0, blockade=blockade)
        vg, vsd = np.meshgrid(np.linspace(-10, 10, 7), np.linspace(-20, 20, 7))
        block = compute_row(cfg, vg, vsd, True)
        # d = d1 + d2 + d3 cancels in stiff cells, so d and the columns
        # divided by J or J^2 are compared on the scale of the summands
        divisor = {"d_qr": lambda j: 1.0, "fano": abs, "tur_lhs": lambda j: j * j}
        for idx in np.ndindex(vg.shape):
            single = compute_row(cfg, float(vg[idx]), float(vsd[idx]), True)
            for col, want in single.items():
                if want is None:
                    assert block[col] is None, col
                    continue
                got = float(block[col][idx])
                if got == want:
                    continue
                if col in divisor:
                    summands = sum(abs(single[k]) for k in ("d1", "d2", "d3"))
                    tol = 1e-12 * summands / divisor[col](single["j_qr"])
                else:
                    tol = max(1e-12 * max(abs(got), abs(want)), 1e-15)
                assert abs(got - want) <= tol, (col, idx, got, want)

    def test_failing_cell_is_named(self):
        # only the point (vg, vsd) = (-10, -60) has a lead occupation of 1
        cfg = SweepConfig(temperature=1.0)
        vg = np.array([[0.0, 5.0], [-10.0, 5.0]])
        vsd = np.array([[-60.0, -60.0], [-60.0, 0.0]])
        with pytest.raises(DegenerateFermi, match=r"vg=-10, vsd=-60"):
            compute_row(cfg, vg, vsd, False)
        with pytest.raises(DegenerateFermi, match=r"vg=-10, vsd=-60"):
            compute_row(cfg, -10.0, -60.0, False)

    def test_serialization_round_trips(self, tmp_path):
        cfg = SweepConfig(vg_n=3, vsd_n=3, temperature=2.0)
        rows = sweep_rows(cfg)
        out = tmp_path / "rt.csv"
        write_csv(rows, str(out), cfg.columns)
        with open(out, encoding="utf-8", newline="") as fh:
            parsed = list(csv.DictReader(fh))
        for raw, row in zip(parsed, rows):
            for col in ("j_qr", "d_qr", "mu", "cur_rhs"):
                assert float(raw[col]) == row[col]

    def test_no_partial_file_on_failure(self, tmp_path):
        cfg = SweepConfig(vg_n=2, vsd_n=2)
        rows = sweep_rows(cfg)
        rows[-1] = {k: v for k, v in rows[-1].items() if k != "mu"}  # poison
        target = tmp_path / "broken.csv"
        with pytest.raises(KeyError):
            write_csv(rows, str(target), cfg.columns)
        assert not target.exists()
        assert not (tmp_path / "broken.csv.tmp").exists()


class TestHeatmap:
    def _sweep(self, tmp_path, **kw):
        cfg = SweepConfig(vg_n=7, vsd_n=5, temperature=2.0, **kw)
        out = tmp_path / "hm.csv"
        sweep_to_csv(cfg, str(out))
        return out

    def test_renders_ppm_with_sidecar(self, tmp_path):
        csv_path = self._sweep(tmp_path)
        out = tmp_path / "img.ppm"
        info = render_heatmap(str(csv_path), "j_qr", str(out))
        data = out.read_bytes()
        assert data.startswith(b"P6\n7 5\n255\n")
        assert len(data) == len(b"P6\n7 5\n255\n") + 7 * 5 * 3
        sidecar = (tmp_path / "img.ppm.txt").read_text(encoding="utf-8")
        assert "column = j_qr" in sidecar
        assert info["n_vg"] == 7 and info["n_vsd"] == 5

    def test_constant_column_renders_uniform(self, tmp_path):
        csv_path = tmp_path / "const.csv"
        lines = ["vg,vsd,j_qr"]
        for vsd in (0.0, 1.0):
            for vg in (0.0, 1.0, 2.0):
                lines.append(f"{vg},{vsd},0.42")
        csv_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        out = tmp_path / "flat.ppm"
        render_heatmap(str(csv_path), "j_qr", str(out))
        body = out.read_bytes().split(b"255\n", 1)[1]
        assert len(set(body)) == 1

    def test_unknown_column(self, tmp_path):
        csv_path = self._sweep(tmp_path)
        with pytest.raises(UnknownColumn):
            render_heatmap(str(csv_path), "nope", str(tmp_path / "x.ppm"))

    def test_empty_cells_rejected(self, tmp_path):
        csv_path = self._sweep(tmp_path)  # no blockade: p_suc empty
        with pytest.raises(MalformedCsv):
            render_heatmap(str(csv_path), "p_suc", str(tmp_path / "x.ppm"))

    def test_nonfinite_cells_are_clamped(self, tmp_path):
        # fano is inf on the vsd = 0 line
        cfg = SweepConfig(vg_n=3, vsd_n=3, vsd_lo=-5.0, vsd_hi=5.0,
                          temperature=2.0)
        out = tmp_path / "f.csv"
        sweep_to_csv(cfg, str(out))
        info = render_heatmap(str(out), "fano", str(tmp_path / "f.ppm"))
        assert info["nonfinite"] == 3

    def test_low_current_diamond_visible(self, tmp_path):
        # current map on the diamond grid: near-zero center renders at
        # mid-gray (the range is sign symmetric), strong-bias pixels dark
        # or bright
        cfg = SweepConfig(vg_n=21, vsd_n=21, temperature=1.0)
        csv_path = tmp_path / "d.csv"
        sweep_to_csv(cfg, str(csv_path))
        out = tmp_path / "d.ppm"
        render_heatmap(str(csv_path), "j_qr", str(out))
        header, body = out.read_bytes().split(b"255\n", 1)
        pix = np.frombuffer(body, dtype=np.uint8).reshape(21, 21, 3)
        center = int(pix[10, 10, 0])       # vsd = 0, vg = 0
        top = int(pix[0, 10, 0])           # vsd = +20, vg = 0
        bottom = int(pix[20, 10, 0])       # vsd = -20, vg = 0
        assert abs(center - 127) <= 3
        assert top < 40 and bottom > 215


class TestCli:
    def test_usage_error_exit_code(self):
        assert run_cli("sweep", "--grid", "bogus").returncode == 2
        assert run_cli("nonsense").returncode == 2

    def test_analyze_machine_block(self):
        r = run_cli("analyze", "--temperature", "2", "--vg", "1.5",
                    "--vsd", "7")
        assert r.returncode == 0
        lines = r.stdout.splitlines()
        i = lines.index("# machine-readable")
        assert lines[i + 1] == EXPECTED_HEADER
        cells = lines[i + 2].split(",")
        assert len(cells) == len(CANONICAL_COLUMNS)
        assert float(cells[0]) == 1.5 and float(cells[1]) == 7.0

    def test_analyze_equilibrium_shows_zero_currents(self):
        r = run_cli("analyze", "--temperature", "2", "--vg", "1", "--vsd", "0")
        assert r.returncode == 0
        row = dict(zip(CANONICAL_COLUMNS,
                       r.stdout.splitlines()[-1].split(",")))
        assert abs(float(row["j_qr"])) < 1e-12
        assert abs(float(row["j_sigma"])) < 1e-12
        assert "divergent" in r.stdout

    def test_analyze_blockade_mode(self):
        r = run_cli("analyze", "--temperature", "2", "--vg", "0", "--vsd", "7",
                    "--blockade")
        assert r.returncode == 0
        assert "outcomes:" in r.stdout
        assert "p11" not in r.stdout.split("# machine-readable")[0]

    def test_sweep_deterministic_bytes_cli(self, tmp_path):
        args = ("sweep", "--temperature", "2", "--grid",
                "vg:-5:5:5,vsd:-10:10:5")
        r1 = run_cli(*args, "--out", str(tmp_path / "a.csv"), "--workers", "1")
        r2 = run_cli(*args, "--out", str(tmp_path / "b.csv"), "--workers", "2")
        assert r1.returncode == r2.returncode == 0
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

    def test_simulate_reproducible_bytes(self):
        args = ("simulate", "--temperature", "2", "--vg", "0", "--vsd", "7",
                "--n", "5000", "--seed", "99")
        r1, r2 = run_cli(*args), run_cli(*args)
        assert r1.returncode == 0
        assert r1.stdout == r2.stdout
        assert "worst |z|" in r1.stdout

    def test_simulate_at_equilibrium_passes(self):
        # at vsd = 0 every entropy sample is exactly 0 (standard error 0)
        # and the analytic values are rounding noise around 0
        r = run_cli("simulate", "--vsd", "0", "--n", "20000")
        assert r.returncode == 0, r.stdout + r.stderr
        assert "worst |z| = inf" not in r.stdout

    def test_sweep_failure_names_the_cell(self, tmp_path):
        out = tmp_path / "cold.csv"
        r = run_cli("sweep", "--temperature", "0.2", "--grid",
                    "vg:-10:10:21,vsd:-20:20:21", "--out", str(out))
        assert r.returncode == 2
        assert "vg=" in r.stderr and "vsd=" in r.stderr
        assert "DegenerateFermi" in r.stderr
        assert not out.exists() and not (tmp_path / "cold.csv.tmp").exists()

    def test_simulate_too_few_records(self):
        r = run_cli("simulate", "--n", "10", "--temperature", "2")
        assert r.returncode == 2
        assert "excursions" in r.stderr

    def test_verify_passes_and_injection_fails(self):
        r = run_cli("verify")
        assert r.returncode == 0, r.stdout + r.stderr
        r = run_cli("verify", "--inject-d2", "-0.1")
        assert r.returncode == 1
        assert "[FAIL] FCS equivalence" in r.stdout
        assert "[PASS] entropy/transport proportionality" in r.stdout

    def test_verify_blockade_includes_outcome_checks(self):
        r = run_cli("verify", "--blockade")
        assert r.returncode == 0, r.stdout + r.stderr
        assert "[PASS] outcome probabilities sum to one" in r.stdout
        plain = run_cli("verify")
        assert "outcome probabilities" not in plain.stdout

    def test_analyze_reference_sign_convention(self):
        # positive bias pushes electrons out of the right lead, so the
        # current into it is negative
        r = run_cli("analyze", "--temperature", "1", "--vg", "0",
                    "--vsd", "10")
        row = dict(zip(CANONICAL_COLUMNS,
                       r.stdout.splitlines()[-1].split(",")))
        assert float(row["j_qr"]) < 0.0

    def test_analyze_invalid_parameters_exit(self):
        r = run_cli("analyze", "--temperature", "-3")
        assert r.returncode == 2
        assert r.stderr.strip().count("\n") == 0 and r.stderr.strip()

    def test_heatmap_unknown_column_exit(self, tmp_path):
        cfg_csv = tmp_path / "h.csv"
        sweep_to_csv(SweepConfig(vg_n=3, vsd_n=3, temperature=2.0), str(cfg_csv))
        r = run_cli("heatmap", str(cfg_csv), "missing")
        assert r.returncode == 2

    def test_config_file_with_flag_override(self, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("temperature = 1.0\nvg_n = 3\nvsd_n = 3\n", encoding="utf-8")
        out = tmp_path / "o.csv"
        r = run_cli("sweep", "--config", str(cfg), "--temperature", "2",
                    "--out", str(out))
        assert r.returncode == 0
        direct = tmp_path / "d.csv"
        sweep_to_csv(SweepConfig(vg_n=3, vsd_n=3, temperature=2.0), str(direct))
        assert out.read_bytes() == direct.read_bytes()

    def test_workers_env_used_by_cli(self, tmp_path):
        out = tmp_path / "env.csv"
        r = run_cli("sweep", "--grid", "vg:-2:2:3,vsd:-2:2:3",
                    "--out", str(out), env={"EXCLAB_WORKERS": "2"})
        assert r.returncode == 0 and out.exists()
