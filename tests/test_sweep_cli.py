import csv
import math
import os
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

import reference_sweep as reference
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

    @pytest.mark.parametrize("key, val", [("temperature", "warm"), ("vg_n", "2.5")])
    def test_bad_number_names_its_line(self, tmp_path, key, val):
        path = tmp_path / "c.cfg"
        path.write_text(f"u = 10\n{key} = {val}\n", encoding="utf-8")
        with pytest.raises(ValueError) as err:
            load_config(str(path))
        assert str(err.value) == f"{path}:2: bad value for {key}: {val!r}"

    @pytest.mark.parametrize("text, line, key, message", [
        ("u = 10\ncolumns = j_qr, foo\n", 2, "columns", "unknown columns ['foo']"),
        ("vg_n = 0\nu = 10\n", 1, "vg_n", "grid needs at least one point per axis"),
        # the file's own settings pass through an invalid state on the way
        ("vg_lo = 20\nvg_hi = 30\nvsd_n = 0\n", 3, "vsd_n",
         "grid needs at least one point per axis"),
        ("vsd_lo = 5\nvsd_hi = 9\nvsd_lo = 12\n", 3, "vsd_lo",
         "grid bounds must satisfy lo <= hi"),
        ("workers = 0\nvg_n = 0\n", 2, "vg_n", "grid needs at least one point per axis"),
    ])
    def test_invalid_value_names_its_line_and_key(self, tmp_path, text, line, key, message):
        path = tmp_path / "c.cfg"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(ValueError) as err:
            load_config(str(path))
        assert str(err.value) == f"{path}:{line}: {key}: {message}"

    def test_invalid_value_named_by_the_cli(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("vg_n = 3\nvsd_n = 0\n", encoding="utf-8")
        r = run_cli("sweep", "--config", str(path), "--out", str(tmp_path / "s.csv"))
        assert r.returncode == 2
        assert r.stderr == (f"exclab sweep: error: {path}:2: vsd_n: "
                            "grid needs at least one point per axis\n")
        assert not (tmp_path / "s.csv").exists()

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
        table = sweep_rows(cfg)
        coords = [(table["vg"][i], table["vsd"][i]) for i in range(table["vg"].size)]
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
        table = sweep_rows(cfg)
        assert table["p_suc"] is None
        cfgb = SweepConfig(vg_n=2, vsd_n=2, blockade=True)
        tb = sweep_rows(cfgb)
        cells = range(tb["vg"].size)
        assert all(0.0 <= tb["p_suc"][i] <= 1.0 for i in cells)
        assert all(tb["p11"][i] == 0.0 for i in cells)

    def test_in_row_identities(self):
        cfg = SweepConfig(temperature=2.0, blockade=True, **SMALL)
        t = sweep_rows(cfg)
        for i in range(t["vg"].size):
            assert abs(t["d_qr"][i] - (t["d1"][i] + t["d2"][i] + t["d3"][i])) \
                <= 1e-12 * max(1.0, abs(t["d_qr"][i]))
            assert abs(t["mu"][i] - (t["e_t"][i] + t["e_tau"][i])) \
                <= 1e-12 * max(1.0, abs(t["mu"][i]))
            psum = t["p00"][i] + t["p10"][i] + t["p01"][i] + t["p11"][i]
            assert abs(psum - 1.0) <= 1e-10
            assert t["p_suc"][i] + t["p_fail"][i] + t["p_dis"][i] \
                == pytest.approx(1.0, abs=1e-12)
            lhs, cur, kur = t["tur_lhs"][i], t["cur_rhs"][i], t["kur_rhs"][i]
            slack = lambda v: v - 1e-9 * max(abs(v), 1.0)
            assert math.isinf(lhs) or lhs >= slack(t["tur_rhs"][i])
            assert math.isinf(lhs) or lhs >= slack(cur)
            assert cur >= slack(kur)

    def test_gate_shift_moves_the_axis(self):
        cfg = SweepConfig(vg_lo=0.0, vg_hi=0.0, vg_n=1, vsd_lo=7.0, vsd_hi=7.0,
                          vsd_n=1, temperature=2.0)
        shifted = sweep_rows(replace(cfg, gate_shift=True))
        plain = sweep_rows(replace(cfg, gate_shift=False))
        assert shifted["vg"][0] == plain["vg"][0] == 0.0
        assert shifted["j_qr"][0] != plain["j_qr"][0]
        manual = compute_row(cfg, -cfg.u / 2.0, 7.0, False)
        assert shifted["j_qr"][0] == manual["j_qr"]

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

    def test_arithmetic_failure_is_named(self):
        # gamma_A**2 underflows to 0 at vg = 400 and 1/gamma_A**2 divides by 0
        with pytest.raises(ZeroDivisionError, match=r"vg=400, vsd=0"):
            compute_row(SweepConfig(), 400.0, 0.0, False)

    def test_serialization_round_trips(self, tmp_path):
        cfg = SweepConfig(vg_n=3, vsd_n=3, temperature=2.0)
        table = sweep_rows(cfg)
        out = tmp_path / "rt.csv"
        write_csv(table, str(out), cfg.columns)
        with open(out, encoding="utf-8", newline="") as fh:
            parsed = list(csv.DictReader(fh))
        assert len(parsed) == table["vg"].size
        for i, raw in enumerate(parsed):
            for col in ("j_qr", "d_qr", "mu", "cur_rhs"):
                assert float(raw[col]) == table[col][i]

    def test_no_partial_file_on_failure(self, tmp_path):
        cfg = SweepConfig(vg_n=2, vsd_n=2)
        table = sweep_rows(cfg)
        del table["mu"]  # poison
        target = tmp_path / "broken.csv"
        with pytest.raises(KeyError):
            write_csv(table, str(target), cfg.columns)
        assert not target.exists()
        assert not (tmp_path / "broken.csv.tmp").exists()

    def test_unequal_columns_rejected_before_any_file(self, tmp_path):
        # zip over the columns would silently drop the last row
        cfg = SweepConfig(vg_n=2, vsd_n=2)
        table = sweep_rows(cfg)
        table["mu"] = table["mu"][:-1]
        with pytest.raises(ValueError, match="differ in length"):
            write_csv(table, str(tmp_path / "short.csv"), cfg.columns)
        assert list(tmp_path.iterdir()) == []

    def test_no_partial_file_when_rename_fails(self, tmp_path, monkeypatch):
        def refuse(src, dst):
            raise OSError("rename refused")

        table = sweep_rows(SweepConfig(vg_n=2, vsd_n=2))
        target = tmp_path / "late.csv"
        monkeypatch.setattr(os, "replace", refuse)
        with pytest.raises(OSError, match="rename refused"):
            write_csv(table, str(target))
        assert not target.exists()
        assert not (tmp_path / "late.csv.tmp").exists()


class TestReferenceWriter:
    """The columnar writer against the row-dict writer it replaced."""

    @staticmethod
    def _both(tmp_path, table, rows, columns):
        new, old = tmp_path / "new.csv", tmp_path / "old.csv"
        write_csv(table, str(new), columns)
        reference.write_csv(rows, str(old), columns)
        return new.read_bytes(), old.read_bytes()

    @pytest.mark.parametrize("blockade", [False, True])
    def test_small_sweep(self, tmp_path, blockade):
        cfg = SweepConfig(temperature=2.0, blockade=blockade, **SMALL)
        new, old = self._both(tmp_path, sweep_rows(cfg),
                              reference.sweep_rows(cfg), cfg.columns)
        assert new == old
        direct = tmp_path / "direct.csv"
        assert sweep_to_csv(cfg, str(direct)) == 81
        assert direct.read_bytes() == old

    def test_column_subset(self, tmp_path):
        cfg = SweepConfig(temperature=2.0, columns=("j_qr", "mu"), **SMALL)
        new, old = self._both(tmp_path, sweep_rows(cfg),
                              reference.sweep_rows(cfg), cfg.columns)
        assert new == old
        assert new.startswith(b"vg,vsd,j_qr,mu\n")

    def test_edge_values(self, tmp_path):
        edge = [math.inf, -math.inf, math.nan, -0.0, 5e-324,
                1.7976931348623157e308]
        table = {c: None if c.startswith("p_") else np.array(edge)
                 for c in CANONICAL_COLUMNS}
        table["vg"] = np.arange(len(edge), dtype=float)
        rows = [{c: None if v is None else v[i] for c, v in table.items()}
                for i in range(len(edge))]
        new, old = self._both(tmp_path, table, rows, CANONICAL_COLUMNS)
        assert new == old
        assert new.splitlines()[1].startswith(b"0,inf,inf,")


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

    def test_analyze_evaluates_its_point_once(self, monkeypatch, capsys):
        import exclab.cli
        import exclab.excursions
        calls = dict.fromkeys(("partition", "excursion_report"), 0)
        modules = [m for k, m in sys.modules.items() if k.startswith("exclab.")]
        for name in calls:
            original = getattr(exclab.excursions, name)

            def counted(*args, _name=name, _fn=original, **kwargs):
                calls[_name] += 1
                return _fn(*args, **kwargs)
            for mod in modules:
                if getattr(mod, name, None) is original:
                    monkeypatch.setattr(mod, name, counted)
        argv = ["analyze", "--temperature", "2", "--vg", "0", "--vsd", "7"]
        assert exclab.cli.main(argv) == 0
        assert calls == {"partition": 1, "excursion_report": 3}
        assert "# machine-readable" in capsys.readouterr().out

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

    def test_analyze_fano_is_the_row_column(self):
        r = run_cli("analyze", "--temperature", "2", "--vg", "0", "--vsd", "7")
        assert r.returncode == 0
        row = dict(zip(CANONICAL_COLUMNS,
                       r.stdout.splitlines()[-1].split(",")))
        assert f"fano (transport): {float(row['fano']):.6g}\n" in r.stdout
        assert "divergent" not in r.stdout

    def test_analyze_blockade_mode(self):
        r = run_cli("analyze", "--temperature", "2", "--vg", "0", "--vsd", "7",
                    "--blockade")
        assert r.returncode == 0
        assert "outcomes:" in r.stdout
        assert "p11" not in r.stdout.split("# machine-readable")[0]

    def test_sweep_deterministic_bytes_cli(self, tmp_path):
        args = ("sweep", "--temperature", "2", "--grid",
                "vg:-5:5:5,vsd:-10:10:5")
        r1 = run_cli(*args, "--out", str(tmp_path / "a.csv"))
        r2 = run_cli(*args, "--out", str(tmp_path / "b.csv"))
        assert r1.returncode == r2.returncode == 0
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
        # the sweep runs in one process and takes no worker count
        r = run_cli(*args, "--out", str(tmp_path / "c.csv"), "--workers", "2")
        assert r.returncode == 2
        assert "unrecognized arguments: --workers 2" in r.stderr
        assert not (tmp_path / "c.csv").exists()

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

    @pytest.mark.parametrize("n", ["0", "-5"])
    def test_simulate_nonpositive_count_exits_2(self, n):
        for extra in ((), ("--dump-trajectory", os.devnull)):
            r = run_cli("simulate", "--n", n, *extra)
            assert r.returncode == 2 and r.stdout == ""
            assert r.stderr.count("\n") == 1 and n in r.stderr

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

    def test_analyze_at_large_gate_voltage(self):
        # mu ~ 1e104 at (240, 4): mu**3 overflowed and analyze crashed
        r = run_cli("analyze", "--vg", "240", "--vsd", "4")
        assert r.returncode == 0, r.stderr
        row = dict(zip(CANONICAL_COLUMNS, r.stdout.splitlines()[-1].split(",")))
        assert float(row["d2"]) == pytest.approx(5.3498e-105, rel=1e-4)
        assert float(row["d2"]) > 0.4 * float(row["d_qr"])

    def test_sweep_at_large_gate_voltage(self, tmp_path):
        # this sweep wrote d2 = 0 at vg = 240 and 250, where d2 is ~10% of d
        pytest.importorskip("mpmath")
        from reference_mpmath import Reference
        from exclab import build_model, transport_weights
        from exclab.sweep import _point_params

        out = tmp_path / "far.csv"
        r = run_cli("sweep", "--no-gate-shift", "--grid",
                    "vg:230:250:3,vsd:-1:1:3", "--out", str(out))
        assert r.returncode == 0, r.stderr
        with open(out, encoding="utf-8", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 9
        tr = transport_weights("R", 4).weights
        for row in rows:
            vg, vsd = float(row["vg"]), float(row["vsd"])
            m = build_model(_point_params(SweepConfig(), vg, vsd, False))
            want = Reference(m.w, m.gamma).renewal(tr)
            if vsd != 0.0:
                assert float(row["d2"]) > 0.05 * float(row["d_qr"])
            for key, col in (("d", "d_qr"), ("d1", "d1"), ("d2", "d2")):
                assert abs(float(row[col]) - want[key]) <= 1e-12 * want["d"], (
                    vg, vsd, col, row[col], want[key])

    def test_analyze_arithmetic_failure_exits_2(self):
        # gamma_A**2 underflows to 0 at vg = 400: a named error, no traceback
        r = run_cli("analyze", "--vg", "400", "--vsd", "0")
        assert r.returncode == 2
        assert "Traceback" not in r.stderr
        assert r.stderr.startswith("exclab analyze: error:")

    def test_heatmap_default_out_keeps_dotted_directory(self, tmp_path):
        # the default output replaces only the CSV's own extension
        folder = tmp_path / "results.d"
        folder.mkdir()
        sweep_to_csv(SweepConfig(vg_n=3, vsd_n=3, temperature=2.0),
                     str(folder / "sweep"))
        r = run_cli("heatmap", str(folder / "sweep"), "j_qr")
        assert r.returncode == 0, r.stderr
        assert (folder / "sweep.j_qr.ppm").exists()
        assert not (tmp_path / "results.j_qr.ppm").exists()

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

    def test_column_subset_config(self, tmp_path):
        cfg = tmp_path / "sub.cfg"
        cfg.write_text("temperature = 2\nvg_n = 3\nvsd_n = 3\ncolumns = j_qr, mu\n",
                       encoding="utf-8")
        sub, full = tmp_path / "sub.csv", tmp_path / "full.csv"
        r = run_cli("sweep", "--config", str(cfg), "--out", str(sub))
        assert r.returncode == 0, r.stderr
        sweep_to_csv(SweepConfig(vg_n=3, vsd_n=3, temperature=2.0), str(full))
        lines = sub.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "vg,vsd,j_qr,mu"
        with open(full, encoding="utf-8", newline="") as fh:
            want = [",".join(row[c] for c in ("vg", "vsd", "j_qr", "mu"))
                    for row in csv.DictReader(fh)]
        assert lines[1:] == want

    def test_workers_env_used_by_cli(self, tmp_path):
        # simulate reads EXCLAB_WORKERS; the sweep does not read it at all
        r = run_cli("simulate", "--n", "2000", env={"EXCLAB_WORKERS": "2"})
        assert r.returncode == 0, r.stdout + r.stderr
        r = run_cli("simulate", "--n", "2000", env={"EXCLAB_WORKERS": "nope"})
        assert r.returncode == 2 and "EXCLAB_WORKERS" in r.stderr
        out = tmp_path / "env.csv"
        r = run_cli("sweep", "--grid", "vg:-2:2:3,vsd:-2:2:3",
                    "--out", str(out), env={"EXCLAB_WORKERS": "nope"})
        assert r.returncode == 0 and out.exists()
