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

Each CSV cell is the bytes of ``format(x, ".17g")``.  The formatter works
on passes of about 4096 cells in numpy: it forms the 17 digits from a
double-double product with 10**(16 - E), writes them as four-digit ASCII
words into a fixed row per cell, and copies out the bytes the cell's
layout keeps.  A cell it cannot certify (0, inf, nan, |x| outside
[1e-280, 1e280], a near-tie in the 17th digit, or an exponent off by one)
is written by ``format`` itself, so the fallback is exact.
"""
from __future__ import annotations

import functools
import math
import os
from contextlib import contextmanager
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
    ZERO_CURRENT,
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

# Grid cells per pass of the batched engine, and CSV cells per pass of the
# formatter.  Bigger passes save little time but hold more stacked arrays
# (and row bytes) at once, which sets the sweep's peak memory.
_BLOCK_CELLS = 1024
_CSV_CELLS = 4096


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
    workers: int = 1
    seed: int = 1234
    columns: tuple[str, ...] = CANONICAL_COLUMNS

    def __post_init__(self):
        # settings of the whole grid, not of a cell: the model's are checked
        # where every point's are, then the grid bounds
        DqdParams(g=self.g, gamma=self.gamma, temperature=self.temperature,
                  u=self.u, vg=0.0, vsd=0.0)
        for key in ("vg_lo", "vg_hi", "vsd_lo", "vsd_hi"):
            if not math.isfinite(getattr(self, key)):
                raise ValueError(f"{key} must be finite")
        if self.vg_n < 1 or self.vsd_n < 1:
            raise ValueError("grid needs at least one point per axis")
        if self.vg_lo > self.vg_hi or self.vsd_lo > self.vsd_hi:
            raise ValueError("grid bounds must satisfy lo <= hi")
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        bad = [c for c in self.columns if c not in CANONICAL_COLUMNS]
        if bad:
            raise ValueError(f"unknown columns {bad}")
        object.__setattr__(self, "columns", tuple(
            c for c in CANONICAL_COLUMNS if c in ("vg", "vsd") or c in self.columns))

    def vg_values(self) -> np.ndarray:
        return np.linspace(self.vg_lo, self.vg_hi, self.vg_n)

    def vsd_values(self) -> np.ndarray:
        return np.linspace(self.vsd_lo, self.vsd_hi, self.vsd_n)


_BOOL_KEYS = ("blockade", "gate_shift")
_INT_KEYS = ("vg_n", "vsd_n", "workers", "seed")
_FLOAT_KEYS = (
    "g", "gamma", "temperature", "u", "vg_lo", "vg_hi", "vsd_lo", "vsd_hi",
)


def load_config(path: str, base: SweepConfig | None = None) -> SweepConfig:
    """Read a flat ``key = value`` config file over ``base`` defaults.

    Unknown keys are rejected; '#' starts a comment; booleans accept
    true/false/1/0/yes/no/on/off.  An error names the file, and the line
    and key it comes from.
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
        bad = ValueError(f"bad grid spec {part!r}, want axis:lo:hi:n")
        if len(fields) != 4 or fields[0] not in ("vg", "vsd"):
            raise bad
        axis = fields[0]
        try:
            lo, hi, n = float(fields[1]), float(fields[2]), int(fields[3])
        except ValueError:
            raise bad from None
        if f"{axis}_n" in updates:
            raise ValueError(f"bad grid spec {spec!r}: axis {axis} repeated")
        updates.update({f"{axis}_lo": lo, f"{axis}_hi": hi, f"{axis}_n": n})
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
    """Evaluate every sweep quantity at ``params`` in one engine pass.

    Each quantity is computed once per pass: the lead occupations (cached
    on ``params``), the rate matrix, one partition and its fundamental
    matrix, one moment insertion for all three schemes through one
    :func:`excursion_report` call, whose ends also give the duration
    moments (cached on the decomposition), and one steady-state solve
    (cached on the chain), which the excess time and the populations
    share.
    """
    model = build_model(params)
    dec = partition(model, 0)
    schemes = {
        "transport": transport_weights("R", model.n),
        "activity": activity_weights(model.n),
        "entropy": entropy_weights(params),
    }
    reports = excursion_report(dec, schemes)
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
        fano_val = np.where(np.abs(j) <= ZERO_CURRENT, math.inf, d / np.abs(j))
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


# the failures a grid point is named in
_POINT_ERRORS = (ExclabError, ValueError, ArithmeticError)


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
    except _POINT_ERRORS:
        for at_vg, at_vsd in zip(np.ravel(vg).tolist(), np.ravel(vsd).tolist()):
            with _point_named(at_vg, at_vsd):
                row(at_vg, at_vsd)
        raise


@contextmanager
def _point_named(vg: float, vsd: float):
    """Raise a failure of the block as its own exception type, with a
    message that names the class and the grid point (vg, vsd)."""
    try:
        yield
    except _POINT_ERRORS as exc:
        raise type(exc)(f"{type(exc).__name__} at vg={vg:g}, vsd={vsd:g}: {exc}") from None


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


# The CSV formatter writes each number into a fixed body of _BODY bytes,
#     " -0." A "   ." B "e+XYZ   "
# with A and B the same 20-digit field, "000" and the 17 significant digits,
# then keeps the bytes the cell's layout prints: the sign, "0." and leading
# zeros below 1, the integer digits from A, the point and the fraction
# digits from B, and the exponent.  Each run of kept bytes is contiguous,
# which keeps the boolean copy fast.
_BODY = 56
_BODY_TEXT = " -0." + "0" * 20 + "   ." + "0" * 20 + "e+000   "
_E_LO, _E_HI = -281, 280  # decimal exponents of the certified range [1e-280, 1e280]
_LAYOUTS = 23  # fixed notation for exponents -4..16, scientific with 2 or 3 exponent digits
_FALLBACK = 24  # bytes of the longest ".17g" text, "-2.2250738585072014e-308"


@functools.cache
def _format_tables():
    """The formatter's tables, built on first use: 10**(16 - E) as a
    double-double (hi, lo) by E, the layout's first mask row by E, the ASCII
    words of 0000..9999 and the place of their last nonzero digit, the
    exponent text by E as two words, and the keep masks of the body: row L
    keeps the first L bytes, for a fallback text of length L <= _FALLBACK,
    then one row per (layout, significant digits, sign)."""
    hi, lo = [], []
    for e in range(_E_LO, _E_HI + 1):
        k = 16 - e
        if k >= 0:  # each part correctly rounded from Python ints
            n = 10 ** k
            hi.append(float(n))
            lo.append(float(n - int(hi[-1])))
        else:
            n = 10 ** -k
            hi.append(1 / n)
            a, b = hi[-1].as_integer_ratio()
            lo.append((b - a * n) / (b * n))
    e = np.arange(_E_LO, _E_HI + 1)
    layout = np.where((e >= -4) & (e < 17), e + 4, np.where(np.abs(e) < 100, 21, 22))
    g = np.arange(10000)
    quad = np.stack([g // 1000, g // 100 % 10, g // 10 % 10, g % 10], axis=1)
    words = (48 + quad).astype(np.uint8).view(np.uint32).ravel()
    # -100 for 0000, so that a zero group never holds the last digit
    last = np.where(g == 0, -100, 4 - np.argmax(quad[:, ::-1] != 0, axis=1))
    a = np.abs(e)
    etext = np.stack([np.full_like(e, ord("e")), np.where(e < 0, ord("-"), ord("+")),
                      48 + a // 100, 48 + a // 10 % 10, 48 + a % 10,
                      *[np.full_like(e, ord(" "))] * 3], axis=1)
    lay = np.arange(_LAYOUTS)[:, None, None, None]
    s = np.arange(1, 18)[:, None, None]
    neg = np.arange(2)[:, None]
    pos = np.arange(_BODY)
    small, sci = lay < 4, lay >= 21
    nint = np.where(sci, 1, lay - 3)  # digits before the point, E >= 0
    nexp = np.where(lay == 22, 3, 2)
    keep = np.zeros((_LAYOUTS, 17, 2, _BODY), bool)
    keep |= (pos == 1) & (neg == 1)
    keep |= small & ((pos == 2) | (pos == 3))
    keep |= (pos >= 4 + np.where(small, lay, 3)) & (pos < 7 + np.where(small, s, nint))
    keep |= ~small & (s > nint) & ((pos == 27) | ((pos >= 31 + nint) & (pos < 31 + s)))
    keep |= sci & (((pos >= 48) & (pos < 50)) | ((pos >= 53 - nexp) & (pos < 53)))
    fallback = pos < np.arange(_FALLBACK + 1)[:, None]
    return (np.array(hi), np.array(lo), _FALLBACK + 1 + 34 * layout, words,
            last.astype(np.int8), etext.astype(np.uint8).view(np.uint32),
            np.concatenate([fallback, keep.reshape(-1, _BODY)]))


def _split(a):
    """Dekker's split of ``a`` into two halves of 26 bits each."""
    c = 134217729.0 * a  # 2**27 + 1
    hi = c - (c - a)
    return hi, a - hi


def _format(x: np.ndarray, body: np.ndarray) -> np.ndarray:
    """Write the ``format(v, ".17g")`` text of each float64 in ``x`` into
    the rows of ``body`` (uint8, shape (x.size, _BODY)) and return each
    cell's keep-mask row.

    |v| times 10**(16 - E), E = floor(log10|v|), is formed as a double
    hi + lo with Dekker's exact product (Numer. Math. 18:224, 1971), to
    within 1e-14; its floor and fraction give the 17 digits rounded half
    to even.  A cell the fast path cannot certify -- 0, inf, nan, |v|
    outside [1e-280, 1e280], a fraction within 1e-6 of one half, or a
    floor outside [1e16, 1e17 - 1), which a wrong E or a carry into the
    next decade gives -- is written by ``format`` itself.
    """
    hi, lo, base, words, last, etext, _ = _format_tables()
    ax = np.abs(x)
    ok = (ax >= 1e-280) & (ax <= 1e280)
    ax[~ok] = 1.0
    e = np.floor(np.log10(ax)).astype(np.intp) - _E_LO
    h = hi[e]
    p = ax * h
    (ah, al), (hh, hl) = _split(ax), _split(h)
    r = (((ah * hh - p) + ah * hl + al * hh) + al * hl) + ax * lo[e]
    floor = np.floor(r)
    frac = r - floor
    d = p.astype(np.int64) + floor.astype(np.int64)
    ok &= (np.abs(frac - 0.5) > 1e-6) & (d >= 10 ** 16) & (d < 10 ** 17 - 1)
    d += frac > 0.5
    groups = np.empty((x.size, 5), np.int64)  # four digits each
    for k in range(4, 0, -1):
        q = d // 10000
        groups[:, k] = d - 10000 * q
        d = q
    groups[:, 0] = d
    at = last[groups]
    s = at[:, 0] - 3  # significant digits once trailing zeros go
    for k in range(1, 5):
        np.maximum(s, at[:, k] + (4 * k - 3), out=s)
    idx = base[e] + 2 * s + np.signbit(x) - 2
    w = body.view(np.uint32)
    w[:, 1:6] = w[:, 7:12] = words[groups]
    w[:, 12] = etext[e, 0]
    w[:, 13] = etext[e, 1]
    bad = np.flatnonzero(~ok)
    if bad.size:
        texts = [format(v, ".17g") for v in x[bad].tolist()]
        body[bad, :_FALLBACK] = np.frombuffer("".join(
            t.ljust(_FALLBACK) for t in texts).encode(), np.uint8).reshape(-1, _FALLBACK)
        idx[bad] = np.fromiter(map(len, texts), np.intp, len(texts))
    return idx


def _csv_chunks(table: dict, columns):
    """Yield ``columns`` of ``table`` as CSV bytes: the header, then the rows
    about _CSV_CELLS cells per pass, each cell the bytes of
    ``format(x, ".17g")`` and an empty cell in a None column.  The table is
    checked first."""
    cols = [table[c] for c in columns]
    live = [np.ravel(a) for a in cols if a is not None]
    if len({a.size for a in live}) > 1:
        raise ValueError(f"table columns differ in length: {[a.size for a in live]}")
    yield (",".join(columns) + "\n").encode()
    if not live:
        return
    # A live cell ends with its separator and the commas of the None cells
    # after it; the first one starts with the commas of those before it.
    lead, seps = 0, []
    for a in cols:
        if a is not None:
            seps.append(",")
        elif seps:
            seps[-1] += ","
        else:
            lead += 1
    seps[-1] = seps[-1][:-1] + "\n"
    pre, post = -(-lead // 4) * 4, -(-max(map(len, seps)) // 4) * 4
    width = pre + _BODY + post
    template = np.frombuffer("".join(
        ("," * lead if j == 0 else "").ljust(pre) + _BODY_TEXT + s.ljust(post)
        for j, s in enumerate(seps)).encode(), np.uint8).reshape(len(seps), width)
    fixed = np.zeros(template.shape, bool)  # the kept separator bytes
    fixed[0, :lead] = True
    for j, s in enumerate(seps):
        fixed[j, pre + _BODY:pre + _BODY + len(s)] = True
    body_masks = _format_tables()[-1]
    masks = np.zeros((len(body_masks), width), bool)
    masks[:, pre:pre + _BODY] = body_masks
    rows = max(1, _CSV_CELLS // len(live))
    for i in range(0, live[0].size, rows):
        x = np.column_stack([a[i:i + rows] for a in live]).astype(float, copy=False)
        out = np.empty(x.shape + (width,), np.uint8)
        out[...] = template
        idx = _format(x.ravel(), out.reshape(-1, width)[:, pre:pre + _BODY])
        keep = masks[idx].reshape(out.shape)
        keep |= fixed
        yield out[keep].tobytes()


def write_csv(table: dict, path: str, columns=CANONICAL_COLUMNS) -> None:
    """Write a :func:`sweep_rows` table atomically: temp file beside the
    file ``path`` resolves to, then rename onto it, so a symlink stays a
    link.  A target that exists and is not a regular file (a FIFO, a
    device) is written straight, not replaced.  UTF-8, LF newlines, header
    exactly ``columns``."""
    chunks = _csv_chunks(table, columns)
    header = next(chunks)  # checks the table before any file exists
    target = os.path.realpath(path)
    if os.path.exists(target) and not os.path.isfile(target):
        with open(target, "wb") as fh:
            fh.write(header)
            fh.writelines(chunks)
        return
    tmp = f"{target}.tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.write(header)
            fh.writelines(chunks)
        os.replace(tmp, target)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def sweep_to_csv(cfg: SweepConfig, path: str) -> int:
    """Run the sweep and write the CSV; returns the row count."""
    table = sweep_rows(cfg)
    write_csv(table, path, columns=cfg.columns)
    return len(table["vg"])
