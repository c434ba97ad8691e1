"""Reference implementation of the sweep output: the row-dict
``sweep_rows``, the per-cell ``format_cell`` and the ``write_csv`` that
exclab shipped before the sweep became columnar, kept verbatim as oracles.

The columnar writer must reproduce their CSV bytes exactly, on full and
column-subset sweeps and on hand-built tables of edge values.
"""
from __future__ import annotations

import os

import numpy as np

from exclab.sweep import _BLOCK_CELLS, CANONICAL_COLUMNS, SweepConfig, compute_row


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
