"""Parameter sweeps over the Coulomb diamond: grid evaluation, the fixed
CSV row schema, and the CSV writer.

Gate shift: diamond plots recenter the gate axis by substituting
vg -> vg - u/2 before building the model; the CSV always reports the grid
coordinate.  Rows are emitted vsd-major (all vg values for the first vsd,
then the next vsd).  The grid is evaluated in one process, a block of
cells per pass of the batched engine, so the output does not depend on
the worker count (which only the Monte Carlo sampler uses).
"""
from __future__ import annotations

import math
import os
from dataclasses import dataclass, replace

import numpy as np

from .dqd import DqdParams, build_model
from .errors import ExclabError
from .excursions import excess_time, excursion_report, partition
from .observables import (
    ZERO_CURRENT,
    activity_weights,
    entropy_weights,
    mutual_information,
    populations,
    success_fail_disaster,
    transport_weights,
)

__all__ = [
    "CANONICAL_COLUMNS",
    "SweepConfig",
    "load_config",
    "parse_grid_spec",
    "compute_row",
    "format_cell",
    "sweep_rows",
    "write_csv",
    "sweep_to_csv",
]

CANONICAL_COLUMNS = (
    "vg", "vsd", "j_qr", "d_qr", "d1", "d2", "d3", "fano", "j_act",
    "j_sigma", "mu", "e_t", "var_t", "e_tau", "cov_qt", "p00", "p10",
    "p01", "p11", "mi", "p_suc", "p_fail", "p_dis", "tur_lhs", "tur_rhs",
    "kur_rhs", "cur_rhs",
)

# Grid cells per pass of the batched engine.  Bigger blocks save little
# time but hold more stacked arrays at once, which sets the sweep's peak
# memory.
_BLOCK_CELLS = 1024


@dataclass(frozen=True)
class SweepConfig:
    """Model parameters plus grid and execution settings.

    Defaults reproduce the transport diamond figure: g = 1,
    gamma = 2 pi 0.1, T = 1, U = 10 on a 101 x 101 grid.
    ``gate_shift=None`` defers to the command default (on for sweeps,
    off for single-point analysis).
    """

    g: float = 1.0
    gamma: float = 2.0 * math.pi * 0.1
    temperature: float = 1.0
    u: float = 10.0
    vg_lo: float = -10.0
    vg_hi: float = 10.0
    vg_n: int = 101
    vsd_lo: float = -20.0
    vsd_hi: float = 20.0
    vsd_n: int = 101
    blockade: bool = False
    gate_shift: bool | None = None
    workers: int | None = None
    seed: int = 1234
    columns: tuple[str, ...] = CANONICAL_COLUMNS

    def __post_init__(self):
        if self.vg_n < 1 or self.vsd_n < 1:
            raise ValueError("grid needs at least one point per axis")
        if self.vg_lo > self.vg_hi or self.vsd_lo > self.vsd_hi:
            raise ValueError("grid bounds must satisfy lo <= hi")
        if self.workers is not None and self.workers < 1:
            raise ValueError("workers must be >= 1")
        bad = [c for c in self.columns if c not in CANONICAL_COLUMNS]
        if bad:
            raise ValueError(f"unknown columns {bad}")
        ordered = tuple(c for c in CANONICAL_COLUMNS if c in self.columns)
        if "vg" not in ordered or "vsd" not in ordered:
            ordered = tuple(
                c for c in CANONICAL_COLUMNS if c in ("vg", "vsd") or c in ordered
            )
        object.__setattr__(self, "columns", ordered)

    def vg_values(self) -> np.ndarray:
        return np.linspace(self.vg_lo, self.vg_hi, self.vg_n)

    def vsd_values(self) -> np.ndarray:
        return np.linspace(self.vsd_lo, self.vsd_hi, self.vsd_n)

    def resolve_workers(self) -> int:
        if self.workers is not None:
            return self.workers
        env = os.environ.get("EXCLAB_WORKERS", "")
        if env.strip():
            try:
                w = int(env)
            except ValueError:
                raise ValueError(f"EXCLAB_WORKERS={env!r} is not an integer")
            if w < 1:
                raise ValueError("EXCLAB_WORKERS must be >= 1")
            return w
        return 1


_BOOL_KEYS = ("blockade", "gate_shift")
_INT_KEYS = ("vg_n", "vsd_n", "workers", "seed")
_FLOAT_KEYS = (
    "g", "gamma", "temperature", "u", "vg_lo", "vg_hi", "vsd_lo", "vsd_hi",
)


def load_config(path: str, base: SweepConfig | None = None) -> SweepConfig:
    """Read a flat ``key = value`` config file over ``base`` defaults.

    Unknown keys are rejected; '#' starts a comment; booleans accept
    true/false/1/0/yes/no.
    """
    cfg = base if base is not None else SweepConfig()
    updates: dict = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key = value")
            key, val = (s.strip() for s in line.split("=", 1))
            if key in _BOOL_KEYS:
                low = val.lower()
                if low in ("true", "1", "yes", "on"):
                    updates[key] = True
                elif low in ("false", "0", "no", "off"):
                    updates[key] = False
                else:
                    raise ValueError(f"{path}:{lineno}: bad boolean {val!r}")
            elif key in _INT_KEYS:
                updates[key] = int(val)
            elif key in _FLOAT_KEYS:
                updates[key] = float(val)
            elif key == "columns":
                updates[key] = tuple(s.strip() for s in val.split(",") if s.strip())
            else:
                raise ValueError(f"{path}:{lineno}: unknown key {key!r}")
    return replace(cfg, **updates)


def parse_grid_spec(spec: str) -> dict:
    """Parse ``vg:lo:hi:n,vsd:lo:hi:n`` (either axis may be omitted)."""
    updates: dict = {}
    for part in spec.split(","):
        fields = part.strip().split(":")
        if len(fields) != 4 or fields[0] not in ("vg", "vsd"):
            raise ValueError(f"bad grid spec {part!r}, want axis:lo:hi:n")
        axis = fields[0]
        updates[f"{axis}_lo"] = float(fields[1])
        updates[f"{axis}_hi"] = float(fields[2])
        updates[f"{axis}_n"] = int(fields[3])
    return updates


def _point_params(cfg: SweepConfig, vg, vsd, gate_shift: bool) -> DqdParams:
    vg_phys = vg - cfg.u / 2.0 if gate_shift else vg
    return DqdParams(
        g=cfg.g, gamma=cfg.gamma, temperature=cfg.temperature, u=cfg.u,
        vg=vg_phys, vsd=vsd, blockade=cfg.blockade,
    )


def _columns(cfg: SweepConfig, params: DqdParams) -> dict:
    model = build_model(params)
    dec = partition(model, 0)
    rep = excursion_report(dec, transport_weights("R", model.n))
    j_act = excursion_report(dec, activity_weights(model.n)).j
    j_sigma = excursion_report(dec, entropy_weights(params)).j
    pop = populations(model)
    # numpy values even for one point, so that a zero divisor gives inf
    j, d, j_sigma = np.asarray(rep.j), rep.d, np.asarray(j_sigma)
    with np.errstate(divide="ignore", invalid="ignore"):
        fano_val = np.where(np.abs(j) < ZERO_CURRENT, math.inf, d / np.abs(j))
        lhs = np.where(np.abs(j) > 1e-13, d / j**2, math.inf)
        tur_rhs = np.where(j_sigma != 0.0, 2.0 / j_sigma, math.inf)
    cols = {
        "j_qr": j, "d_qr": d, "d1": rep.d1, "d2": rep.d2, "d3": rep.d3,
        "fano": fano_val, "j_act": j_act, "j_sigma": j_sigma, "mu": rep.mu,
        "e_t": rep.e_t, "var_t": rep.var_t, "e_tau": rep.e_tau,
        "cov_qt": rep.cov_qt, "p00": pop.p00, "p10": pop.p10,
        "p01": pop.p01, "p11": pop.p11, "mi": mutual_information(pop),
        "tur_lhs": lhs, "tur_rhs": tur_rhs, "kur_rhs": 1.0 / j_act,
        "cur_rhs": excess_time(dec),
    }
    if cfg.blockade:
        triple = success_fail_disaster(params)
        cols.update(p_suc=triple.p_suc, p_fail=triple.p_fail, p_dis=triple.p_dis)
    else:
        cols.update(p_suc=None, p_fail=None, p_dis=None)
    return cols


def compute_row(cfg: SweepConfig, vg, vsd, gate_shift: bool) -> dict:
    """All canonical columns at one grid point; keys are column names and
    values floats (blockade-only cells are None outside blockade mode).

    Equal-shape arrays ``vg`` and ``vsd`` evaluate a block of points in one
    pass of the engine; every value is then an array of that shape.  When
    a check fails, the points are evaluated one at a time up to the first
    failing one, which raises its own exception type with a message that
    names the class and the point's grid coordinates.
    """
    if np.shape(vg) != np.shape(vsd):
        raise ValueError("vg and vsd must have the same shape")
    params = _point_params(cfg, vg, vsd, gate_shift)
    try:
        cols = {"vg": vg, "vsd": vsd, **_columns(cfg, params)}
    except (ExclabError, ValueError):
        for at_vg, at_vsd in zip(np.ravel(vg).tolist(), np.ravel(vsd).tolist()):
            try:
                _columns(cfg, _point_params(cfg, at_vg, at_vsd, gate_shift))
            except (ExclabError, ValueError) as exc:
                raise type(exc)(
                    f"{type(exc).__name__} at vg={at_vg:g}, vsd={at_vsd:g}: {exc}"
                ) from None
        raise
    if np.ndim(vg) == 0:
        return {k: None if v is None else float(v) for k, v in cols.items()}
    return cols


def format_cell(v) -> str:
    """Serialize one cell: 17 significant digits, empty for None."""
    if v is None:
        return ""
    return format(float(v), ".17g")


def sweep_rows(cfg: SweepConfig, gate_shift: bool | None = None) -> list[dict]:
    """Evaluate the whole grid, vsd-major, one block of cells per
    :func:`compute_row` call.  A failing cell aborts the sweep with an
    error that names its grid coordinates.
    """
    shift = cfg.gate_shift if gate_shift is None else gate_shift
    if shift is None:
        shift = True
    cfg.resolve_workers()  # rejects a bad EXCLAB_WORKERS, though unused here
    vg, vsd = (a.ravel() for a in np.meshgrid(cfg.vg_values(), cfg.vsd_values()))
    rows = []
    for lo in range(0, vg.size, _BLOCK_CELLS):
        block = slice(lo, lo + _BLOCK_CELLS)
        cols = compute_row(cfg, vg[block], vsd[block], shift)
        n = vg[block].size
        values = [[None] * n if v is None else v.tolist() for v in cols.values()]
        rows.extend(dict(zip(cols, cells)) for cells in zip(*values))
    return rows


def write_csv(rows: list[dict], path: str, columns=CANONICAL_COLUMNS) -> None:
    """Write rows atomically: temp file in the target directory, then
    rename.  UTF-8, LF newlines, header exactly the column list."""
    tmp = f"{path}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(",".join(columns) + "\n")
            for row in rows:
                fh.write(",".join(format_cell(row[c]) for c in columns) + "\n")
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def sweep_to_csv(cfg: SweepConfig, path: str, gate_shift: bool | None = None) -> int:
    """Run the sweep and write the CSV; returns the row count."""
    rows = sweep_rows(cfg, gate_shift=gate_shift)
    write_csv(rows, path, columns=cfg.columns)
    return len(rows)
