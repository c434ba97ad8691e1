"""Reference implementation of the sweep output: the row-dict
``sweep_rows``, the per-cell ``format_cell`` and the ``write_csv`` that
exclab shipped before the sweep became columnar, kept verbatim as oracles,
and ``evaluate``, the per-scheme composition of the engine pass that
exclab shipped before one insertion served all three schemes.

The columnar writer must reproduce their CSV bytes exactly, on full and
column-subset sweeps and on hand-built tables of edge values; the sweep's
table must equal the per-scheme composition's bit for bit.
"""
from __future__ import annotations

import os

import numpy as np

from exclab.dqd import DqdParams, build_model
from exclab.excursions import excess_time, excursion_report, partition
from exclab.observables import (
    activity_weights,
    entropy_weights,
    populations,
    precision_bounds,
    success_fail_disaster,
    transport_weights,
)
from exclab.sweep import (
    _BLOCK_CELLS,
    CANONICAL_COLUMNS,
    Evaluation,
    SweepConfig,
    _columns,
    _point_params,
    compute_row,
)


def evaluate(params: DqdParams) -> Evaluation:
    """The engine pass with one :func:`excursion_report` call, and so one
    moment insertion, per scheme."""
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


def evaluated_table(cfg: SweepConfig) -> dict:
    """The gate-shifted sweep table of ``cfg``, vsd-major, one
    :func:`evaluate` per block of cells, mapped to the columns as the
    sweep maps them."""
    vg, vsd = (a.ravel() for a in np.meshgrid(cfg.vg_values(), cfg.vsd_values()))
    blocks = []
    for lo in range(0, vg.size, _BLOCK_CELLS):
        at_vg, at_vsd = vg[lo:lo + _BLOCK_CELLS], vsd[lo:lo + _BLOCK_CELLS]
        ev = evaluate(_point_params(cfg, at_vg, at_vsd, True))
        blocks.append(_columns(ev, at_vg, at_vsd))
    return {c: None if v is None else np.concatenate([b[c] for b in blocks])
            for c, v in blocks[0].items()}


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
