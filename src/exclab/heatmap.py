"""Render one sweep-CSV column as a binary portable pixmap (P6).

One pixel per grid point, grayscale mapped linearly between the column's
finite minimum and maximum; the top pixel row is the largest vsd.  A
sidecar text file next to the image records the column, value range and
grid shape.
"""
from __future__ import annotations

import csv
import os

import numpy as np

from .errors import MalformedCsv, UnknownColumn

__all__ = ["render_heatmap"]


def _read_column(csv_path: str, column: str):
    with open(csv_path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise MalformedCsv(f"{csv_path}: empty file") from None
        for name in ("vg", "vsd", column):
            if name not in header:
                raise UnknownColumn(f"column {name!r} not in {header}")
        iv, isd, ic = header.index("vg"), header.index("vsd"), header.index(column)
        vg, vsd, vals = [], [], []
        for lineno, row in enumerate(reader, 2):
            if len(row) != len(header):
                raise MalformedCsv(f"{csv_path}:{lineno}: ragged row")
            try:
                vg.append(float(row[iv]))
                vsd.append(float(row[isd]))
                vals.append(float(row[ic]) if row[ic] != "" else np.nan)
            except ValueError:
                raise MalformedCsv(
                    f"{csv_path}:{lineno}: unparseable cell"
                ) from None
    return np.array(vg), np.array(vsd), np.array(vals)


def render_heatmap(csv_path: str, column: str, out_path: str) -> dict:
    """Write ``out_path`` (P6 pixmap) plus ``out_path + '.txt'``.

    Returns a summary dict with the finite min/max and grid shape.  The
    CSV must be a complete vsd-major grid as written by the sweep.
    """
    vg, vsd, vals = _read_column(csv_path, column)
    if vals.size == 0:
        raise MalformedCsv(f"{csv_path}: no data rows")
    n_vg = len(np.unique(vg))
    n_vsd = len(np.unique(vsd))
    if n_vg * n_vsd != vals.size:
        raise MalformedCsv(
            f"{csv_path}: {vals.size} rows do not tile a {n_vg} x {n_vsd} grid"
        )
    grid = vals.reshape(n_vsd, n_vg)
    # vsd is constant along each block of n_vg rows, and every block repeats
    # the first one's n_vg distinct vg values in the same order
    vg_blocks, vsd_blocks = vg.reshape(n_vsd, n_vg), vsd.reshape(n_vsd, n_vg)
    if (not np.all(vsd_blocks == vsd_blocks[:, :1])
            or not np.all(vg_blocks == vg_blocks[:1])
            or len(np.unique(vg_blocks[0])) != n_vg):
        raise MalformedCsv(f"{csv_path}: rows are not a vsd-major grid")

    finite = np.isfinite(grid)
    n_bad = int(grid.size - finite.sum())
    if not finite.any():
        raise MalformedCsv(f"column {column!r} has no finite values")
    lo = float(grid[finite].min())
    hi = float(grid[finite].max())
    if hi > lo:  # from halves: hi - lo overflows when the range passes 1.8e308
        t = (grid / 2 - lo / 2) / (hi / 2 - lo / 2)
    else:
        t = np.full_like(grid, 0.5)
    t = np.where(np.isposinf(grid), 1.0, t)
    t = np.where(np.isneginf(grid) | np.isnan(grid), 0.0, np.clip(t, 0.0, 1.0))
    shade = np.rint(255 * t).astype(np.uint8)[::-1, :]  # top row = max vsd
    pixels = np.repeat(shade[:, :, None], 3, axis=2)

    with open(out_path, "wb") as fh:
        fh.write(f"P6\n{n_vg} {n_vsd}\n255\n".encode("ascii"))
        fh.write(pixels.tobytes())
    with open(out_path + ".txt", "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"source = {os.path.basename(csv_path)}\n")
        fh.write(f"column = {column}\n")
        fh.write(f"min = {lo!r}\nmax = {hi!r}\n")
        fh.write(f"grid = {n_vg} x {n_vsd} (vg x vsd)\n")
        fh.write(f"nonfinite_cells = {n_bad}\n")
    return {"min": lo, "max": hi, "n_vg": n_vg, "n_vsd": n_vsd, "nonfinite": n_bad}
