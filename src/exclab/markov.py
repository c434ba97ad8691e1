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

from dataclasses import dataclass, field

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
    """

    n: int
    w: np.ndarray
    gamma: np.ndarray
    generator: np.ndarray
    labels: tuple[str, ...]


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
    name: str = ""
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
            off = ~np.eye(n, dtype=bool)
            for y in range(n):
                col = nu[..., off[:, y], y]
                if col.size and not np.all(col == col[..., :1]):
                    raise ValueError("state scheme requires constant columns")
        object.__setattr__(self, "weights", _frozen(nu))
        object.__setattr__(
            self, "integer_valued", bool(np.all(nu == np.round(nu)))
        )

    @property
    def n(self) -> int:
        return self.weights.shape[-1]

    @property
    def antisymmetric(self) -> bool:
        """True when the scheme defines a thermodynamic current."""
        flipped = np.swapaxes(self.weights, -1, -2)
        return bool(np.allclose(self.weights, -flipped, atol=0.0))

    def max_abs_weight(self):
        """Largest |weight|: a float, or one per cell for a batch."""
        m = np.max(np.abs(self.weights), axis=(-2, -1))
        return float(m) if m.ndim == 0 else m


def _strongly_connected(adj: np.ndarray) -> np.ndarray:
    """Strong connectivity of each directed graph in the stack ``adj``
    (..., n, n), where ``adj[x, y]`` marks an edge y -> x.

    Every node reachable from node 0 in the graph and in its reverse
    implies strong connectivity of the whole graph; n - 1 rounds of
    boolean products reach every node that a path can reach.
    """
    n = adj.shape[-1]
    ok = np.ones(adj.shape[:-2], dtype=bool)
    for a in (adj, np.swapaxes(adj, -1, -2)):
        seen = np.zeros(adj.shape[:-1] + (1,), dtype=bool)
        seen[..., 0, 0] = True
        for _ in range(n - 1):
            seen = seen | (a @ seen)
        ok &= seen.all(axis=(-2, -1))
    return ok


def validate_rate_matrix(raw, labels=None) -> RateMatrix:
    """Build a :class:`RateMatrix` from an off-diagonal rate matrix.

    Parameters
    ----------
    raw : array_like, shape (..., n, n)
        ``raw[x, y]`` is the jump rate y -> x; diagonal must be zero.
    labels : sequence of str, optional
        State names; defaults to "0", "1", ...

    Raises
    ------
    NegativeRate, NonzeroDiagonal, Reducible
    """
    w = np.array(raw, dtype=float)
    if w.ndim < 2 or w.shape[-1] != w.shape[-2] or w.shape[-1] < 2:
        raise DimensionMismatch("rate matrix must be square with n >= 2")
    n = w.shape[-1]
    diag = np.arange(n)
    raise_first(np.any(w[..., diag, diag] != 0.0, axis=-1), NonzeroDiagonal,
                "raw rate matrix must have a zero diagonal")
    off = w[..., ~np.eye(n, dtype=bool)]
    raise_first(np.any(off < 0.0, axis=-1), NegativeRate,
                "off-diagonal rates must be nonnegative")
    raise_first(~_strongly_connected(w > 0.0), Reducible,
                "transition graph is not strongly connected")
    gamma = w.sum(axis=-2)
    gen = w.copy()
    gen[..., diag, diag] = -gamma
    # construction identity: columns of the generator sum to zero
    colsum = np.abs(gen.sum(axis=-2))
    raise_first(np.any(colsum > 1e-12 * np.maximum(gamma, 1e-300), axis=-1),
                SingularSystem, "generator column sums exceed tolerance")
    if labels is None:
        labels = tuple(str(i) for i in range(n))
    return RateMatrix(
        n=n, w=_frozen(w), gamma=_frozen(gamma), generator=_frozen(gen),
        labels=tuple(labels),
    )


def steady_state(m: RateMatrix) -> np.ndarray:
    """Stationary distribution p with ``generator @ p = 0`` and ``sum(p) = 1``,
    shape (..., n).

    Solved through the bordered system (one generator row replaced by the
    normalization row), which is deterministic and well conditioned for the
    small chains used here.
    """
    a = m.generator.copy()
    a[..., 0, :] = 1.0
    b = np.zeros(m.gamma.shape + (1,))
    b[..., 0, 0] = 1.0
    try:
        p = np.linalg.solve(a, b)[..., 0]
    except np.linalg.LinAlgError as exc:
        raise SingularSystem(str(exc)) from None
    resid = np.max(np.abs(m.generator @ p[..., None]), axis=(-2, -1))
    scale = np.maximum(np.max(m.gamma, axis=-1), 1.0)
    raise_first(~np.isfinite(resid) | (resid > 1e-10 * scale), SingularSystem,
                "steady-state residual {:.3e} too large", resid)
    raise_first(np.any(p < -1e-12, axis=-1), SingularSystem,
                "steady state has a negative component")
    p = np.maximum(p, 0.0)
    return p / p.sum(axis=-1, keepdims=True)


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
