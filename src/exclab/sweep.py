"""Parameter sweeps over the Coulomb diamond: the one engine evaluation
of a point or a batch, the fixed CSV row schema, and the CSV writer.

:func:`evaluate` returns everything the sweep writes as one record, and
:func:`compute_row` maps it to the columns; ``analyze``, ``simulate`` and
``verify`` read the same record, so ``analyze`` prints the sweep's cell.

Gate shift: diamond plots recenter the gate axis by substituting
vg -> vg - u/2 before building the model; the CSV always reports the grid
coordinate.  The sweep is columnar: :func:`sweep_rows` returns one array
per column, cells vsd-major (all vg values for the first vsd, then the
next vsd), and :func:`write_csv` formats rows straight from those arrays.
The grid is evaluated in one process, a block of cells per pass of the
batched engine, so the output does not depend on the worker count.
"""
from __future__ import annotations

import math
import os
from dataclasses import dataclass, replace

import numpy as np

from .dqd import DqdParams, build_model
from .errors import ExclabError
from .excursions import (
    BlockDecomposition,
    ExcursionReport,
    excess_time,
    excursion_report,
    partition,
)
from .markov import RateMatrix, WeightScheme
from .observables import (
    BoundsReport,
    OutcomeTriple,
    Populations,
    activity_weights,
    entropy_weights,
    mutual_information,
    populations,
    precision_bounds,
    success_fail_disaster,
    transport_weights,
)

__all__ = [
    "CANONICAL_COLUMNS",
    "SweepConfig",
    "load_config",
    "parse_grid_spec",
    "Evaluation",
    "evaluate",
    "compute_row",
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

ZERO_CURRENT = 1e-14  # |J| below this makes the Fano factor divergent

# Grid cells per pass of the batched engine, and CSV rows per write.
# Bigger blocks save little time but hold more stacked arrays (and row
# text) at once, which sets the sweep's peak memory.
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
    true/false/1/0/yes/no.  An error names the file, and the line and key
    it comes from.
    """
    cfg = base if base is not None else SweepConfig()
    updates: dict = {}  # ordered by the line that last set each key
    lines: dict[str, int] = {}
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
                    value = True
                elif low in ("false", "0", "no", "off"):
                    value = False
                else:
                    raise ValueError(f"{path}:{lineno}: bad boolean {val!r}")
            elif key in _INT_KEYS or key in _FLOAT_KEYS:
                try:
                    value = (int if key in _INT_KEYS else float)(val)
                except ValueError:
                    raise ValueError(
                        f"{path}:{lineno}: bad value for {key}: {val!r}") from None
            elif key == "columns":
                value = tuple(s.strip() for s in val.split(",") if s.strip())
            else:
                raise ValueError(f"{path}:{lineno}: unknown key {key!r}")
            updates.pop(key, None)
            updates[key] = value
            lines[key] = lineno
    try:
        return replace(cfg, **updates)
    except ValueError as exc:
        key = _culprit(cfg, updates, exc)
        where = path if key is None else f"{path}:{lines[key]}: {key}"
        raise ValueError(f"{where}: {exc}") from None


def _culprit(cfg: SweepConfig, updates: dict, exc: ValueError) -> str | None:
    """The last-set key of ``updates`` without which the validation error
    ``exc`` goes away or becomes another one."""
    for key in reversed(updates):
        try:
            replace(cfg, **{k: v for k, v in updates.items() if k != key})
        except ValueError as other:
            if str(other) == str(exc):
                continue
        return key
    return None


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


@dataclass(frozen=True)
class Evaluation:
    """One pass of the engine over a point or a batch: the chain, its
    decomposition at A = {0}, the transport/activity/entropy schemes and
    their excursion reports (keyed by those names), the populations, the
    transport precision bounds, and the outcome probabilities (blockade
    models only, else None).  Report, population and bound fields are
    floats for one point and arrays over the cells of a batch."""

    model: RateMatrix
    dec: BlockDecomposition
    schemes: dict[str, WeightScheme]
    reports: dict[str, ExcursionReport]
    pop: Populations
    bounds: BoundsReport
    outcomes: OutcomeTriple | None


def evaluate(params: DqdParams) -> Evaluation:
    """Evaluate every sweep quantity at ``params`` in one engine pass."""
    model = build_model(params)
    dec = partition(model, 0)
    schemes = {
        "transport": transport_weights("R", model.n),
        "activity": activity_weights(model.n),
        "entropy": entropy_weights(params),
    }
    reports = {name: excursion_report(dec, s) for name, s in schemes.items()}
    rep = reports["transport"]
    bounds = precision_bounds(rep.j, rep.d, reports["activity"].j,
                              reports["entropy"].j, excess_time(dec))
    return Evaluation(
        model=model, dec=dec, schemes=schemes, reports=reports,
        pop=populations(model), bounds=bounds,
        outcomes=success_fail_disaster(params) if params.blockade else None,
    )


def _columns(ev: Evaluation, vg, vsd) -> dict:
    """The canonical columns of ``ev`` at grid coordinates ``vg``, ``vsd``:
    floats for one point, arrays for a batch."""
    rep, pop, bounds = ev.reports["transport"], ev.pop, ev.bounds
    # numpy values even for one point, so that a zero divisor gives inf
    j, d = np.asarray(rep.j), rep.d
    with np.errstate(divide="ignore", invalid="ignore"):
        fano_val = np.where(np.abs(j) < ZERO_CURRENT, math.inf, d / np.abs(j))
    cols = {
        "vg": vg, "vsd": vsd,
        "j_qr": j, "d_qr": d, "d1": rep.d1, "d2": rep.d2, "d3": rep.d3,
        "fano": fano_val, "j_act": ev.reports["activity"].j,
        "j_sigma": ev.reports["entropy"].j, "mu": rep.mu,
        "e_t": rep.e_t, "var_t": rep.var_t, "e_tau": rep.e_tau,
        "cov_qt": rep.cov_qt, "p00": pop.p00, "p10": pop.p10,
        "p01": pop.p01, "p11": pop.p11, "mi": mutual_information(pop),
        # outcome columns are None outside blockade mode
        **{k: getattr(ev.outcomes, k, None) for k in ("p_suc", "p_fail", "p_dis")},
        "tur_lhs": bounds.lhs, "tur_rhs": bounds.tur_rhs,
        "kur_rhs": bounds.kur_rhs, "cur_rhs": bounds.cur_rhs,
    }
    if np.ndim(vg) == 0:
        return {k: None if v is None else float(v) for k, v in cols.items()}
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
    def row(vg, vsd):
        return _columns(evaluate(_point_params(cfg, vg, vsd, gate_shift)), vg, vsd)

    try:
        return row(vg, vsd)
    except (ExclabError, ValueError, ArithmeticError):
        for at_vg, at_vsd in zip(np.ravel(vg).tolist(), np.ravel(vsd).tolist()):
            try:
                row(at_vg, at_vsd)
            except (ExclabError, ValueError, ArithmeticError) as exc:
                raise type(exc)(
                    f"{type(exc).__name__} at vg={at_vg:g}, vsd={at_vsd:g}: {exc}"
                ) from None
        raise


def sweep_rows(cfg: SweepConfig) -> dict:
    """Evaluate the whole grid, one block of cells per :func:`compute_row`
    call, into one table ``{column: 1-D float array over the cells,
    vsd-major}``; the outcome columns are None outside blockade mode.  A
    failing cell aborts the sweep with an error naming its grid coordinates."""
    shift = cfg.gate_shift is not False  # None: sweeps default to the shift
    vg, vsd = (a.ravel() for a in np.meshgrid(cfg.vg_values(), cfg.vsd_values()))
    blocks = [compute_row(cfg, vg[i:i + _BLOCK_CELLS], vsd[i:i + _BLOCK_CELLS], shift)
              for i in range(0, vg.size, _BLOCK_CELLS)]
    return {c: None if v is None else np.concatenate([b[c] for b in blocks])
            for c, v in blocks[0].items()}


def _csv_chunks(table: dict, columns):
    """Yield ``columns`` of ``table`` as CSV text: the header, then the rows
    _BLOCK_CELLS at a time, one ``%`` call each, 17 significant digits a cell
    and an empty cell in a None column.  The table is checked first."""
    cols = [table[c] for c in columns]
    live = [np.ravel(a) for a in cols if a is not None]
    if len({a.size for a in live}) > 1:
        raise ValueError(f"table columns differ in length: {[a.size for a in live]}")
    fmt = ",".join("" if a is None else "%.17g" for a in cols) + "\n"
    yield ",".join(columns) + "\n"
    for i in range(0, live[0].size if live else 0, _BLOCK_CELLS):
        cells = np.column_stack([a[i:i + _BLOCK_CELLS] for a in live])
        yield (fmt * len(cells)) % tuple(cells.ravel().tolist())


def write_csv(table: dict, path: str, columns=CANONICAL_COLUMNS) -> None:
    """Write a :func:`sweep_rows` table atomically: temp file in the target
    directory, then rename.  UTF-8, LF newlines, header exactly ``columns``."""
    chunks = _csv_chunks(table, columns)
    header = next(chunks)  # checks the table before any file exists
    tmp = f"{path}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(header)
            fh.writelines(chunks)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def sweep_to_csv(cfg: SweepConfig, path: str) -> int:
    """Run the sweep and write the CSV; returns the row count."""
    table = sweep_rows(cfg)
    write_csv(table, path, columns=cfg.columns)
    return len(table["vg"])
