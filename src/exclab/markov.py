"""Continuous-time Markov chains: validated generators, steady states,
tilted generators, and long-time full-counting-statistics current/noise.

Conventions: ``w[x, y]`` is the rate for the jump y -> x, ``gamma[x]`` is the
total escape rate out of x (column sum of ``w``), and the generator is
``w - diag(gamma)``, whose columns sum to zero.

Chains may be stacked: ``w`` of shape (..., n, n) holds one chain per cell
of the leading batch axes.  Validation and the steady state then work cell
by cell, with every check applied to each cell at its single-chain
tolerance; a 2-D ``w`` is the single-chain case.  The tilted-generator
oracle takes single chains only.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cache, cached_property

import numpy as np

from .errors import (
    DimensionMismatch,
    EigenFailure,
    NegativeRate,
    NonzeroDiagonal,
    Reducible,
    SingularSystem,
    StepCollapse,
    raise_first,
)

__all__ = [
    "RateMatrix",
    "WeightScheme",
    "validate_rate_matrix",
    "steady_state",
    "tilt_generator",
    "fcs_current_noise",
]


def _frozen(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a, dtype=float)
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class RateMatrix:
    """Validated generator of an irreducible continuous-time Markov chain.

    Attributes
    ----------
    n : int
        Number of states.
    w : ndarray, shape (..., n, n)
        Off-diagonal jump rates (1/time), zero diagonal.
    gamma : ndarray, shape (..., n)
        Escape rates, ``gamma[x] = sum_y w[y, x]``.
    generator : ndarray, shape (..., n, n)
        ``w - diag(gamma)``; every column sums to zero.
    labels : tuple of str
        Per-state identifiers.
    stationary : ndarray, shape (..., n)
        The steady state, solved on first use and cached (read-only).
    """

    n: int
    w: np.ndarray
    gamma: np.ndarray
    generator: np.ndarray
    labels: tuple[str, ...]

    @cached_property
    def stationary(self) -> np.ndarray:
        """What :func:`steady_state` returns; see there."""
        a = self.generator.copy()
        a[..., 0, :] = 1.0
        b = np.zeros(self.gamma.shape + (1,))
        b[..., 0, 0] = 1.0
        try:
            p = np.linalg.solve(a, b)[..., 0]
        except np.linalg.LinAlgError as exc:
            raise SingularSystem(str(exc)) from None
        resid = np.abs(_leading(self.generator @ p[..., None])).max(axis=(0, 1))
        scale = np.maximum(_leading(self.gamma, 1).max(axis=0), 1.0)
        raise_first(~np.isfinite(resid) | (resid > 1e-10 * scale), SingularSystem,
                    "steady-state residual {:.3e} too large", resid)
        entries = _leading(p, 1)
        raise_first((entries < -1e-12).any(axis=0), SingularSystem,
                    "steady state has a negative component")
        total = _entry_sum(np.maximum(entries, 0.0))
        p = np.maximum(p, 0.0)
        p /= total[..., None]
        p.flags.writeable = False
        return p


@dataclass(frozen=True)
class WeightScheme:
    """Weight matrix defining a counting observable.

    ``weights[x, y]`` is the weight picked up by a jump y -> x; the diagonal
    is ignored (forced to zero).  ``kind`` is "transition" for generic
    weights or "state" when the weight depends only on the departed state
    (all columns constant).  Weights of shape (..., n, n) give one scheme
    per cell of a batch of chains.
    """

    weights: np.ndarray
    kind: str = "transition"
    integer_valued: bool = field(init=False)

    def __post_init__(self):
        nu = np.asarray(self.weights, dtype=float).copy()
        if nu.ndim < 2 or nu.shape[-1] != nu.shape[-2]:
            raise DimensionMismatch("weight matrix must be square")
        n = nu.shape[-1]
        diag = np.arange(n)
        nu[..., diag, diag] = 0.0
        if self.kind not in ("transition", "state"):
            raise ValueError(f"unknown scheme kind {self.kind!r}")
        if self.kind == "state":
            cols = nu.reshape(nu.shape[:-2] + (n * n,)).take(_off_diagonal(n), axis=-1)
            if not np.all(cols == cols[..., :1, :]):
                raise ValueError("state scheme requires constant columns")
        object.__setattr__(self, "weights", _frozen(nu))
        object.__setattr__(
            self, "integer_valued", bool(np.all(nu == np.round(nu)))
        )

    @property
    def n(self) -> int:
        return self.weights.shape[-1]

    def max_abs_weight(self):
        """Largest |weight|: a float, or a read-only array with one per cell
        for a batch.  Formed on first use and kept, as the weights are
        read-only; a maximum takes no order, so it is that of a fresh
        ``np.abs(weights).max(axis=(-2, -1))`` bit for bit."""
        return self._max_abs_weight

    @cached_property
    def _max_abs_weight(self):
        m = np.abs(_leading(self.weights)).max(axis=(0, 1))
        if m.ndim == 0:
            return float(m)
        m.flags.writeable = False
        return m


@cache
def _off_diagonal(n: int) -> np.ndarray:
    """Flat indices ``x * n + y`` of the off-diagonal entries of an n x n
    matrix, column by column: entry (i, y) is the i-th row other than y of
    column y, shape (n - 1, n); read-only."""
    i, y = np.arange(n - 1)[:, None], np.arange(n)
    index = (i + (i >= y)) * n + y
    index.flags.writeable = False
    return index


def _leading(x: np.ndarray, k: int = 2) -> np.ndarray:
    """A C-contiguous copy of ``x`` with its last ``k`` axes first: entry
    by entry, one array over the cells.  One point, with no batch axes, is
    ``x`` itself.

    numpy reduces over short trailing axes with a loop per cell, at about
    20 times the cost of an elementwise pass; over the leading axes of
    this copy a reduction is one elementwise pass per entry.  Such a pass
    adds the entries one by one from 0.0, which is also numpy's order for
    a trailing axis of fewer than 8 entries and for a non-contiguous one
    such as the column sums of a matrix (axis -2).  numpy adds 8 or more
    contiguous entries pairwise: :func:`_entry_sum` keeps that order.
    A maximum or an ``any`` gives the same values in any order.
    """
    if x.ndim == k:
        return x
    entries, batch = x.shape[-k:], x.shape[:-k]
    flat = x.reshape(math.prod(batch), math.prod(entries))
    return np.ascontiguousarray(flat.T).reshape(entries + batch)


def _entry_sum(x: np.ndarray):
    """Sum over the first axis of an entry-major array, in the order numpy
    sums that many contiguous entries of a trailing axis, bit for bit (but
    for the sign and payload of a NaN, which depend on the operand order
    of the compiled loop): one by one from 0.0 below 8 entries; else
    pairwise, with 8 accumulators over blocks of at most 128 entries, each
    combined as ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7)) before
    the tail entries are added, and larger runs halved at a multiple of 8.
    One point (1-D ``x``) is summed by numpy itself."""
    m = len(x)
    if m < 8 or x.ndim == 1:
        return x.sum(axis=0)
    if m > 128:
        half = m // 2 - m // 2 % 8
        return _entry_sum(x[:half]) + _entry_sum(x[half:])
    body = m - m % 8
    r = x[:8]
    for i in range(8, body, 8):
        r = r + x[i:i + 8]
    r = r[0::2] + r[1::2]
    r = r[0::2] + r[1::2]
    total = r[0] + r[1]
    for i in range(body, m):
        total = total + x[i]
    return 0.0 + total  # numpy adds the sum to its identity: -0.0 becomes 0.0


def _strongly_connected(adj: np.ndarray) -> np.ndarray:
    """Strong connectivity of each directed graph of the entry-major stack
    ``adj`` (n, n, ...), where ``adj[x, y]`` marks an edge y -> x; a single
    graph is (n, n).

    Warshall's closure, one elementwise pass per intermediate node k: a
    path y -> k -> x joins x's row to k's where y reaches k, so after step k
    ``reach[x, y]`` marks every path y -> x through nodes 0..k.  The graph
    is strongly connected when node 0 reaches every other node and every
    other node reaches node 0.
    """
    reach = adj.copy()
    for k in range(len(adj)):
        reach |= reach[:, k, None] & reach[None, k]
    return reach[0, 1:].all(axis=0) & reach[1:, 0].all(axis=0)


def validate_rate_matrix(raw, labels=None) -> RateMatrix:
    """Build a :class:`RateMatrix` from an off-diagonal rate matrix.

    Parameters
    ----------
    raw : array_like, shape (..., n, n)
        ``raw[x, y]`` is the jump rate y -> x; diagonal must be zero.
    labels : sequence of str, optional
        State names; defaults to "0", "1", ...

    Every check reduces over the leading axes of an entry-major copy of
    the rates (:func:`_leading`), cell by cell.

    Raises
    ------
    NegativeRate, NonzeroDiagonal, Reducible
    """
    w = np.array(raw, dtype=float)
    if w.ndim < 2 or w.shape[-1] != w.shape[-2] or w.shape[-1] < 2:
        raise DimensionMismatch("rate matrix must be square with n >= 2")
    n = w.shape[-1]
    diag = np.arange(n)
    lw = _leading(w)
    raise_first((lw[diag, diag] != 0.0).any(axis=0), NonzeroDiagonal,
                "raw rate matrix must have a zero diagonal")
    raise_first((lw < 0.0).any(axis=(0, 1)), NegativeRate,  # the diagonal is 0
                "off-diagonal rates must be nonnegative")
    raise_first(~_strongly_connected(lw > 0.0), Reducible,
                "transition graph is not strongly connected")
    gamma = lw.sum(axis=0)
    gen = lw.copy()
    gen[diag, diag] = -gamma
    # construction identity: columns of the generator sum to zero
    colsum = np.abs(gen.sum(axis=0))
    raise_first((colsum > 1e-12 * np.maximum(gamma, 1e-300)).any(axis=0),
                SingularSystem, "generator column sums exceed tolerance")
    if labels is None:
        labels = tuple(str(i) for i in range(n))
    return RateMatrix(
        n=n, w=_frozen(w), gamma=_frozen(np.moveaxis(gamma, 0, -1)),
        generator=_frozen(np.moveaxis(gen, (0, 1), (-2, -1))),
        labels=tuple(labels),
    )


def steady_state(m: RateMatrix) -> np.ndarray:
    """Stationary distribution p with ``generator @ p = 0`` and ``sum(p) = 1``,
    shape (..., n).

    Solved through the bordered system (one generator row replaced by the
    normalization row), which is deterministic and well conditioned for the
    small chains used here.  The solve runs once per chain: the read-only
    result is cached on ``m`` (``m.stationary``).
    """
    return m.stationary


def tilt_generator(m: RateMatrix, scheme: WeightScheme, chi) -> np.ndarray:
    """Generator with off-diagonal entries ``w[x, y] * exp(weights[x, y] * chi)``.

    The diagonal stays ``-gamma``; chi = 0 returns the generator exactly.
    An array ``chi`` of shape (k,) gives the stack of k tilted generators,
    shape (k, n, n).
    """
    if scheme.n != m.n:
        raise DimensionMismatch("scheme dimension does not match chain")
    t = m.w * np.exp(scheme.weights * np.asarray(chi)[..., None, None])
    diag = np.arange(m.n)
    t[..., diag, diag] = -m.gamma
    return t


def _dominant_eigenvalues(mats: np.ndarray) -> list[float]:
    """Real part of the eigenvalue with the largest real part, for each
    matrix of a (k, n, n) stack, from one eigensolver call."""
    try:
        ev = np.linalg.eigvals(mats)
    except np.linalg.LinAlgError as exc:
        raise EigenFailure(str(exc)) from None
    top = np.argmax(ev.real, axis=-1)
    return ev[np.arange(len(ev)), top].real.tolist()


def _richardson(samples: list[float]) -> tuple[float, float]:
    """Extrapolate central-difference estimates on h, h/2, h/4, ...

    Returns the diagonal value and the last diagonal increment, which
    serves as the convergence estimate.
    """
    rows = [[samples[0]]]
    for k in range(1, len(samples)):
        row = [samples[k]]
        for j in range(1, k + 1):
            row.append((4**j * row[j - 1] - rows[k - 1][j - 1]) / (4**j - 1))
        rows.append(row)
    diag = rows[-1][-1]
    err = abs(diag - rows[-2][-2]) if len(rows) > 1 else np.inf
    return diag, err


def fcs_current_noise(
    m: RateMatrix,
    scheme: WeightScheme,
    h0: float | None = None,
    levels: int = 5,
    target: float = 1e-7,
) -> tuple[float, float]:
    """Long-time current and noise from the dominant eigenvalue lambda(chi)
    of the tilted generator: J = lambda'(0), D = lambda''(0).

    Derivatives use central differences on the step ladder h0/2^k with
    Richardson extrapolation.  The base step is scaled down for schemes
    with large weights so the tilt stays in the analytic regime; pushing
    h0 much below ~1e-3 runs into the eigensolver noise floor.  lambda(0)
    and the whole +-h ladder come from one stacked eigensolver call.

    Raises
    ------
    EigenFailure
        Eigenvalue solver did not converge.
    StepCollapse
        Richardson refinement did not reach ``target`` (relative, with a
        1e-9 absolute floor).
    """
    if scheme.n != m.n:
        raise DimensionMismatch("scheme dimension does not match chain")
    if h0 is None:
        h0 = 0.05 / max(1.0, scheme.max_abs_weight())
    hs = [h0 / 2**k for k in range(levels)]
    lam = _dominant_eigenvalues(
        tilt_generator(m, scheme, np.array([0.0] + hs + [-h for h in hs])))
    lam0, lp, lm = lam[0], lam[1:levels + 1], lam[levels + 1:]
    if abs(lam0) > 1e-10 * max(np.max(m.gamma), 1.0):
        raise EigenFailure(f"lambda(0) = {lam0:.3e}, expected 0")
    j, err_j = _richardson([(lp[k] - lm[k]) / (2 * hs[k]) for k in range(levels)])
    d, err_d = _richardson(
        [(lp[k] - 2 * lam0 + lm[k]) / hs[k] ** 2 for k in range(levels)]
    )
    if err_j > max(1e-9, target * abs(j)) or err_d > max(1e-9, target * abs(d)):
        raise StepCollapse(
            f"refinement stalled at dJ={err_j:.2e}, dD={err_d:.2e}"
        )
    return j, d
