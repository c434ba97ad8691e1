"""Excursion statistics from the block decomposition of a chain generator.

An excursion starts with a jump out of the single-state region A and ends at
the first return.  All moments of the excursion duration T and of counting
observables Q_i come from the tilted resolvent

    M(chi, s) = <x_A| W_AB(chi) (s - gen_B(chi))^(-1) W_BA(chi) |x_A> / gamma_A

with the real tilt exp(weights_i * chi_i) on every off-diagonal rate.  Every
first and second derivative at the origin is one bilinear insertion,
:func:`cross_moments`; :func:`observable_moments` is its view for (Q, T),
:func:`time_moments` reads the same sums for T alone off the insertion's
ends, and :func:`noise_terms` assembles the noise D = D1 + D2 + D3 from
them.  :func:`observable_moments` and
:func:`excursion_report` take one scheme or a mapping or sequence of
schemes; several schemes share one insertion, and each result is bit for
bit that of its scheme alone.

The fundamental matrix G = (diag(gamma_B) - W_B)^-1 comes from GTH
elimination (Grassmann, Taksar & Heyman, Oper. Res. 33:1107, 1985): its
pivots are sums of the exit rates w[A, b] and the off-diagonal rates, so
no step subtracts, and G keeps its relative accuracy on stiff chains whose
exits are many decades below their internal rates.  No LAPACK call forms
it.  The insertions apply G by the elimination's factors, not by G's
entries: on such a chain G's columns agree to many digits, and a net count
whose insertion vectors sum to nearly zero across them would lose those
digits to the rounding of the entries.

A stacked chain (``w`` of shape (..., n, n)) gives stacked blocks, and the
insertion formulas then run over the batch; every check is made cell by
cell.  The elimination and the substitutions that apply G run entry by
entry, on one array over the cells per entry, with a Python loop over the
B states only; one point runs the same arithmetic on Python floats, so a
batch equals its points bit for bit.  The duration moments of
:func:`time_moments` are read off the ends of the insertion once per
decomposition and cached on it, with no insertion of their own.
The transform oracles (:func:`finite_difference_moments`,
:func:`outcome_quadrature`) take single chains only.  They stack their
probes instead: each ladder of trial steps of the finite differences, their
Richardson ladder and each quadrature grid is one batched solve over a
(k, nb, nb) stack of tilted B blocks, and a doubled quadrature grid solves
only the nodes it adds.

The outcome distribution P(q) of an integer count, :func:`outcome_distribution`,
needs no transform: it solves the charge-resolved chain, B states times
net counts, level by level (single chains only as well).
"""
from __future__ import annotations

import math
import operator
from collections.abc import Mapping
from dataclasses import dataclass
from functools import cache, cached_property
from itertools import combinations_with_replacement

import numpy as np

from .errors import (
    BadPartition,
    DimensionMismatch,
    MassDeficit,
    NonIntegerScheme,
    SingularB,
    raise_first,
)
from .markov import RateMatrix, WeightScheme, _richardson, steady_state

__all__ = [
    "BlockDecomposition",
    "ExcursionReport",
    "partition",
    "cross_moments",
    "time_moments",
    "observable_moments",
    "noise_terms",
    "excursion_report",
    "finite_difference_moments",
    "outcome_quadrature",
    "outcome_distribution",
    "excess_time",
]

# Trial steps h, h/2, ... per stacked solve of the finite-difference step
# search: a ladder's probes cost one solve call, and most searches end in
# the first ladder.
_LADDER = 8


@dataclass(frozen=True)
class BlockDecomposition:
    """A/B partition of a rate matrix with A a single state.

    ``w_ab`` (1 x nb) and ``w_ba`` (nb x 1) are the off-diagonal coupling
    blocks, ``gen_b`` the substochastic B block of the generator, and
    ``fundamental`` its negated inverse G, whose entries are expected
    occupation times in B before absorption into A.  ``factors`` are the
    pivots and eliminated rates of the GTH elimination that formed G, with
    which :func:`_solve_g` applies G.  For a stacked chain every block
    carries the leading batch axes and ``gamma_a`` is an array.
    """

    parent: RateMatrix
    a_state: int
    b_states: tuple[int, ...]
    gamma_a: float | np.ndarray
    w_ab: np.ndarray
    w_ba: np.ndarray
    w_b: np.ndarray
    gen_b: np.ndarray
    fundamental: np.ndarray
    factors: tuple

    @property
    def nb(self) -> int:
        return len(self.b_states)

    @cached_property
    def ends(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Row L = (1, W_AB G), column R = (1, G W_BA) in state order, and
        the jump weights L[x] w[x, y] R[y] (see :func:`cross_moments`)."""
        g = self.fundamental
        lft = np.insert(self.w_ab @ g, self.a_state, 1.0, axis=-1)
        rgt = np.insert(g @ self.w_ba, self.a_state, 1.0, axis=-2)
        jump = np.swapaxes(lft, -1, -2) * self.parent.w * np.swapaxes(rgt, -1, -2)
        return lft, rgt, jump

    @cached_property
    def jump_bound(self):
        """2 + max(gamma) * ||G||_1, a bound on the expected jump count of an
        excursion; the rails of :func:`excursion_report` scale with it."""
        return 2.0 + _leading(self.parent.gamma, 1).max(axis=0) * (
            np.abs(_leading(self.fundamental)).sum(axis=0).max(axis=0)
        )

    @cached_property
    def duration_moments(self):
        """``(e_t, e_t2, var_t, mu, delta2)`` of :func:`time_moments`, read
        off the ends L, R; batch arrays are read-only.

        T inserts the identity on B, so gamma_A e_t = sum_b L_b R_b and
        gamma_A E[T^2] = 2 L_B G R_B, with G R_B from the GTH factors.  The
        products and sums run in the order of :func:`cross_moments`, so both
        equal its T row and T x T entry bit for bit, without an insertion
        of their own.
        """
        lft, rgt, _ = self.ends
        terms = lft * np.swapaxes(rgt, -1, -2)
        terms[..., self.a_state] = 0.0
        c = _insert(self, lft, rgt)[0, 0]
        e_t = _float(terms.sum(axis=-1)[..., 0] / self.gamma_a)
        e_t2 = _float((c + c) / self.gamma_a)
        var_t = e_t2 - e_t * e_t
        # 1/gamma_a**2 overflows on slow chains; excursion_report's rail
        # fails them.  One point's gamma_a**2 can underflow to 0, where
        # Python raises instead of giving a batch's inf.
        with np.errstate(divide="ignore", over="ignore"):
            try:
                inv_a2 = 1.0 / self.gamma_a**2
            except ZeroDivisionError:
                inv_a2 = math.inf
            moments = (e_t, e_t2, var_t, e_t + 1.0 / self.gamma_a, var_t + inv_a2)
        for x in moments:
            if isinstance(x, np.ndarray):
                x.flags.writeable = False
        return moments


@cache
def _on_b(n: int, a_state: int) -> np.ndarray:
    """The identity on B, the block that T inserts; read-only."""
    on_b = np.diag(np.arange(n) != a_state)
    on_b.flags.writeable = False
    return on_b


def _float(v):
    """A float for one point, the array itself for a batch."""
    return float(v) if np.ndim(v) == 0 else v


def _block(x: np.ndarray, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """Sub-block ``x[..., rows, cols]`` over the last two axes for integer
    index arrays, C-contiguous so that every cell's products take the same
    BLAS path as one point.  One gather; for a stack numpy lays the gathered
    axes out ahead of the batch axes, so only a stack is copied again."""
    return np.ascontiguousarray(x[..., rows[:, None], cols])


def partition(m: RateMatrix, a) -> BlockDecomposition:
    """Split the generator into A/B blocks and invert the B block.

    ``a`` is the index of the single state of region A, which the
    renewal-cycle results assume; an index outside the chain raises
    BadPartition.  The fundamental matrix G is formed by GTH elimination
    from the off-diagonal rates, the exits w[A, b] included, and never
    reads the rounded escape rates on the diagonal of ``gen_b``.  Raises SingularB
    for a zero or non-finite pivot, and where G fails a check of
    :func:`_check_decomposition`; for a batch the message is the first
    failing cell's.
    """
    a_state = operator.index(a)
    if not 0 <= a_state < m.n:
        raise BadPartition(f"state index {a_state} out of range")
    b_states = tuple(i for i in range(m.n) if i != a_state)
    a, bi = np.array([a_state]), np.array(b_states)
    w_ab = _block(m.w, a, bi)
    w_ba = _block(m.w, bi, a)
    w_b = _block(m.w, bi, bi)
    gen_b = _block(m.generator, bi, bi)
    fund, factors = _fundamental(m, a_state, b_states)
    gamma_a = _float(m.gamma[..., a_state])
    _check_decomposition(m, gen_b, fund, w_ab, w_ba, gamma_a)
    return BlockDecomposition(
        parent=m, a_state=a_state, b_states=b_states, gamma_a=gamma_a,
        w_ab=w_ab, w_ba=w_ba, w_b=w_b, gen_b=gen_b, fundamental=fund,
        factors=factors,
    )


def _leading(x: np.ndarray, k: int = 2) -> np.ndarray:
    """A C-contiguous copy of ``x`` with its last ``k`` axes first: entry by
    entry, one array over the cells.  numpy reduces over those leading axes
    in one elementwise pass per entry, where a reduction over short trailing
    axes loops cell by cell; the values and the order of the sums are the
    same.  One point, with no batch axes, is ``x`` itself."""
    if x.ndim == k:
        return x
    entries, batch = x.shape[-k:], x.shape[:-k]
    flat = x.reshape(math.prod(batch), math.prod(entries))
    return np.ascontiguousarray(flat.T).reshape(entries + batch)


def _fundamental(m: RateMatrix, a_state: int, b_states):
    """G = (diag(gamma_B) - W_B)^-1 by GTH elimination (Grassmann, Taksar
    & Heyman, Oper. Res. 33:1107, 1985), with no LAPACK call; C-contiguous
    like the blocks.  Returns G and the factors of :func:`_gth`, with which
    :func:`_solve_g` applies G; G is G applied to the unit vectors.

    The elimination reads the rates themselves: Python floats for one
    point, one array over the cells per entry for a batch, so that a batch
    equals its points bit for bit.  Raises SingularB, through
    :func:`raise_first`, where a pivot is zero or not finite.
    """
    batch, nb = m.w.shape[:-2], len(b_states)
    w = _leading(m.w) if batch else m.w.tolist()
    o = [[w[i][j] for j in b_states] for i in b_states]
    e = [w[a_state][j] for j in b_states]
    if batch:  # Python floats neither warn nor divide by a bad pivot
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            factors = _gth(o, e)
    else:
        factors = _gth(o, e)
    if batch or factors[1] is None:  # one point stops at its first bad pivot
        pivots = np.array(factors[0])
        bad = ~((pivots > 0.0) & (pivots < np.inf))
        if bad.any():
            first = np.argmax(bad, axis=0)
            raise_first(bad.any(axis=0), SingularB,
                        "B block of the generator is singular: GTH pivot {!r} at state {}",
                        np.take_along_axis(pivots, first[None], axis=0)[0],
                        np.asarray(b_states)[first])
    unit = np.eye(nb)
    if not batch:
        cols = [_solve_g(factors, col) for col in unit.tolist()]
        return np.array(cols).T.copy(), factors
    # all nb unit vectors at once: component b is row b of the identity
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        g = _solve_g(factors, list(unit.reshape((nb, nb) + (1,) * len(batch))))
    return np.ascontiguousarray(np.moveaxis(np.array(g), (0, 1), (-2, -1))), factors


def _gth(o: list, e: list):
    """The GTH factors of diag(e + column sums of o) - o.

    ``o[i][j]`` is the rate j -> i between B states (the diagonal is not
    read) and ``e[j]`` the exit rate j -> A.  Eliminating state k, the
    paths j -> k -> i add o_ik o_kj / d_k to o_ij and j -> k -> A adds
    o_kj e_k / d_k to e_j; the pivot d_k is e_k plus the rates left in
    column k, a sum rather than a difference.  Returns ``(pivots, lower,
    upper)`` as lists, with lower[i][k] = o_ik / d_k (k < i) and
    upper[k][j] = o_kj (j > k) after the elimination: the factors
    L_ik = -lower[i][k] and U_kj = -upper[k][j], U_kk = d_k.  One point
    stops at a pivot that is not positive and finite, with lower and upper
    None.
    """
    nb = len(e)
    o, e, pivots = [list(row) for row in o], list(e), []
    for k in range(nb):
        d = e[k]
        for i in range(k + 1, nb):
            d = d + o[i][k]
        pivots.append(d)
        if not isinstance(d, np.ndarray) and not 0.0 < d < math.inf:
            return pivots, None, None
        for j in range(k + 1, nb):
            t = o[k][j] / d
            e[j] = e[j] + t * e[k]
            for i in range(k + 1, nb):
                if i != j:
                    o[i][j] = o[i][j] + t * o[i][k]
    lower = [[o[i][k] / pivots[k] for k in range(i)] for i in range(nb)]
    return pivots, lower, o


def _solve_g(factors, r: list) -> list:
    """G r by the forward and back substitutions of the GTH factors.

    ``r`` is a list of B-state components, floats for one point or arrays
    broadcasting against the factors' cell arrays for a batch, and so is
    the result.  With the signs of L and U folded into lower and upper,
    a nonnegative r adds nonnegative terms only, so no step subtracts; r
    may have either sign.  On a stiff chain G is nearly
    rank one, its columns equal to 10 digits at T = 0.7, and an r that sums
    to nearly zero across them loses those digits in the products with G's
    rounded entries; the substitutions with the factors do not.
    """
    pivots, lower, upper = factors
    nb = len(pivots)
    y = []
    for i in range(nb):
        s = r[i]
        for k in range(i):
            s = s + lower[i][k] * y[k]
        y.append(s)
    x = [None] * nb
    for k in range(nb - 1, -1, -1):
        s = y[k]
        for j in range(k + 1, nb):
            s = s + upper[k][j] * x[j]
        x[k] = s / pivots[k]
    return x


def _insert(d: BlockDecomposition, lv: np.ndarray, vr: np.ndarray) -> np.ndarray:
    """The terms l_i G r_j for the B parts l_i of the rows of ``lv``
    (..., k, n) and r_j of the columns of ``vr`` (..., n, k), with G applied
    by :func:`_solve_g`: shape (k, k) for one point, (k, k) + batch for a
    batch.  One point runs on Python floats the arithmetic that a batch
    runs on arrays over its cells, so that the two agree bit for bit."""
    if lv.ndim == 2:
        ls, rs = lv.tolist(), vr.T.tolist()
        for row in ls + rs:  # the B parts
            del row[d.a_state]
        cols = [_solve_g(d.factors, r) for r in rs]
        return np.array([[_dot(l, x) for x in cols] for l in ls]).reshape(len(ls), len(rs))
    # entry by entry: each B component one array over the k columns and the cells
    lvl, vrl = _leading(lv), _leading(vr)
    x = _solve_g(d.factors, [vrl[b] for b in d.b_states])
    return _dot([lvl[:, b, None] for b in d.b_states], [xb[None] for xb in x])


def _dot(a: list, b: list):
    """a_0 b_0 + a_1 b_1 + ..., summed in that order."""
    s = a[0] * b[0]
    for i in range(1, len(a)):
        s = s + a[i] * b[i]
    return s


def _check_decomposition(m, gen_b, fund, w_ab, w_ba, gamma_a):
    # every reduction runs over the leading axes of entry-major copies
    gen, g = _leading(gen_b), _leading(fund)
    scale = np.maximum(_leading(m.gamma, 1).max(axis=0), 1.0)
    # substochastic B block: column sums <= 0, at least one strictly negative
    colsum = gen.sum(axis=0)
    tol = 1e-12 * scale
    raise_first((colsum > tol).any(axis=0) | ~(colsum < -tol).any(axis=0),
                SingularB, "B block of the generator is not substochastic")
    raise_first((g < -1e-12 / scale).any(axis=(0, 1)),
                SingularB, "fundamental matrix has negative entries")
    # G's rounding and gamma's, on the diagonal of gen_b, leave a residual
    # ~ eps * |gen_b| * |G|, so the 1e-10 criterion is taken relative to
    # that conditioning scale
    cond = np.maximum(
        1.0,
        np.abs(gen).sum(axis=1).max(axis=0) * np.abs(g).sum(axis=1).max(axis=0),
    )
    if g.ndim == 2:  # one point: no cells to run over, the products are shorter
        prod, norm = gen @ g, float(w_ab[0] @ g @ w_ba[:, 0])
    else:
        prod = (gen[:, :, None] * g[None]).sum(axis=1)
        lg = (_leading(w_ab[..., 0, :], 1)[:, None] * g).sum(axis=0)
        norm = (lg * _leading(w_ba[..., 0], 1)).sum(axis=0)
    nb = len(prod)
    prod.reshape(nb * nb, -1)[:: nb + 1] += 1.0  # + the identity, in place
    resid = np.abs(prod).max(axis=(0, 1))
    raise_first(resid > 1e-10 * cond, SingularB,
                "fundamental-matrix residual {:.3e}", resid)
    raise_first(
        np.abs(norm - gamma_a) > 1e-10 * gamma_a * np.maximum(1.0, 1e-4 * cond),
        SingularB, "normalization identity violated: {!r} != {!r}",
        norm, gamma_a)


def cross_moments(d: BlockDecomposition, schemes: list[WeightScheme | None]):
    """E[X_i] and E[X_i X_j] per excursion for the observables ``schemes``
    (None for the duration T), as ``m1[i]`` and ``m2[i][j]``: nested lists
    of floats for one point, arrays with the batch axes behind for a batch.

    Each observable inserts one block V, weights * w for a scheme and the
    identity on B for T, between the ends L, R of ``d.ends``.  With l, r
    the B parts of L V and V R and G the fundamental matrix,

        gamma_A E[X] = L V R,
        gamma_A E[XY] = l_X G r_Y + l_Y G r_X + L (nu_X nu_Y w) R,

    whose last term sums nu_X nu_Y over single jumps (zero for T).  G r
    comes from the GTH factors (:func:`_insert`), not from G's entries:
    near equilibrium l_Q and r_Q of a net count cancel against the nearly
    equal rows of a stiff G, and the products with its rounded entries
    would leave var(Q) off by up to 2e-7 at T = 0.7.
    """
    n, k = d.parent.n, len(schemes)
    if any(s is not None and s.n != n for s in schemes):
        raise DimensionMismatch("scheme dimension does not match chain")
    w = d.parent.w
    lft, rgt, jump = d.ends
    batch = w.shape[:-2]
    on_b = _on_b(n, d.a_state)
    v = np.empty(batch + (n, k, n))  # v[..., x, i, y] = V_i[x, y]
    for i, s in enumerate(schemes):
        v[..., i, :] = on_b if s is None else s.weights * w
    lv = (lft @ v.reshape(batch + (n, k * n))).reshape(batch + (k, n))
    vr = (v.reshape(batch + (n * k, n)) @ rgt).reshape(batch + (n, k))
    c = _insert(d, lv, vr)  # entries first
    m1, m2 = (lv * np.swapaxes(rgt, -1, -2)).sum(axis=-1), c + np.swapaxes(c, 0, 1)
    qs = [i for i, s in enumerate(schemes) if s is not None]
    for i, j in combinations_with_replacement(qs, 2):
        nu_nu = schemes[i].weights * schemes[j].weights
        m2[i, j] = m2[j, i] = m2[i, j] + (nu_nu * jump).sum(axis=(-2, -1))
    if not batch:
        return (m1 / d.gamma_a).tolist(), (m2 / d.gamma_a).tolist()
    return np.moveaxis(m1, -1, 0) / d.gamma_a, m2 / d.gamma_a


def time_moments(d: BlockDecomposition):
    """Excursion-duration and cycle-time moments, the T row and T x T entry
    of :func:`cross_moments` read off the decomposition's ends.

    Returns ``(e_t, e_t2, var_t, mu, delta2)`` where mu and delta2 are the
    mean and variance of the renewal cycle (excursion plus the following
    exponential residence in A).  They are computed once per decomposition
    (``d.duration_moments``), and the arrays of a batch are read-only.
    """
    return d.duration_moments


_first = operator.itemgetter(0)


def _scheme_list(schemes):
    """The schemes of a single, mapping or sequence argument as a list, and
    the function that puts one result per scheme back into that form: the
    result itself, a dict with the mapping's keys, or a list."""
    if isinstance(schemes, WeightScheme):
        return [schemes], _first
    if isinstance(schemes, Mapping):
        return list(schemes.values()), lambda out: dict(zip(schemes, out))
    return list(schemes), list


def observable_moments(d: BlockDecomposition, schemes):
    """Moments ``(e_q, e_q2, var_q, e_qt, cov_qt)`` of counting observables
    per excursion, from one :func:`cross_moments` insertion with T.

    ``schemes`` is one :class:`WeightScheme`, which gives its tuple, or a
    mapping or sequence of them, which gives a dict with the same keys or a
    list of tuples; all of them share the insertion.
    """
    seq, shaped = _scheme_list(schemes)
    k = len(seq)
    m1, m2 = cross_moments(d, [*seq, None])
    e_t = m1[k]
    out = []
    for i in range(k):
        e_q, e_q2, e_qt = m1[i], m2[i][i], m2[i][k]
        out.append((e_q, e_q2, e_q2 - e_q * e_q, e_qt, e_qt - e_q * e_t))
    return shaped(out)


def noise_terms(var_q, e_q, cov_qt, mu, delta2):
    """The three parts of the noise D = D1 + D2 + D3 from renewal moments.

    D1 = var(Q)/mu carries observable fluctuations, D2 = Delta^2 J^2/mu
    cycle-time fluctuations, D3 = -2 J cov(Q,T)/mu their interplay, with
    J = E(Q)/mu; no power of mu, which overflows beyond mu ~ 1e100.
    Works on floats and arrays alike.  Returns ``(d1, d2, d3)``.
    """
    j = e_q / mu
    return var_q / mu, delta2 / mu * j * j, -2.0 * j * cov_qt / mu


@dataclass(frozen=True)
class ExcursionReport:
    """Every excursion-level statistic for one (model, scheme) pair; each
    field is an array over the cells of a stacked model.

    Invariants (up to rounding on the raw-moment scale): nonnegative
    variances, mu = e_t + e_tau, delta2 = var_t + e_tau^2, d = d1+d2+d3,
    and |cov_qt| <= sqrt(var_q * var_t).
    """

    e_q: float
    var_q: float
    e_t: float
    var_t: float
    cov_qt: float
    e_tau: float
    mu: float
    delta2: float
    j: float
    d1: float
    d2: float
    d3: float
    d: float


def excursion_report(d: BlockDecomposition, schemes):
    """Assemble all moments, the current and the noise for one scheme, or
    for each scheme of a mapping or sequence (a dict with the same keys or
    a list of reports), from one :func:`observable_moments` insertion.

    Sanity rails, per scheme in order and cell by cell: the second moments
    come from sums that can cancel down from magnitude
    (max_weight * expected_jumps)^2, so the nonnegativity and
    Cauchy-Schwarz checks allow rounding slack on that scale; non-finite
    noise raises ArithmeticError.
    """
    seq, shaped = _scheme_list(schemes)
    e_t, e_t2, var_t, mu, delta2 = time_moments(d)
    moments = observable_moments(d, seq)
    t_scale = np.maximum(1.0, e_t2)
    reports = []
    for scheme, (e_q, _, var_q, _, cov_qt) in zip(seq, moments):
        q_scale = np.maximum(1.0, (scheme.max_abs_weight() * d.jump_bound) ** 2)
        raise_first((var_t < -1e-9 * t_scale) | (var_q < -1e-9 * q_scale),
                    ValueError, "negative variance in excursion report")
        bound = np.sqrt(np.maximum(var_q, 0.0) * np.maximum(var_t, 0.0))
        raise_first(np.abs(cov_qt) > bound + 1e-9 * np.maximum(q_scale, t_scale),
                    ValueError, "covariance violates Cauchy-Schwarz")
        var_q = np.maximum(var_q, 0.0)
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            d1, d2, d3 = noise_terms(var_q, e_q, cov_qt, mu, delta2)
            noise = d1 + d2 + d3
        raise_first(~np.isfinite(noise), ArithmeticError,
                    "non-finite noise d1={}, d2={}, d3={}", d1, d2, d3)
        reports.append(ExcursionReport(
            e_q=e_q, var_q=var_q, e_t=e_t, var_t=var_t, cov_qt=cov_qt,
            e_tau=1.0 / d.gamma_a, mu=mu, delta2=delta2,
            j=e_q / mu, d1=d1, d2=d2, d3=d3, d=noise,
        ))
    return shaped(reports)


def _tilted_blocks(d: BlockDecomposition, tilt: np.ndarray):
    """A/B blocks of tilted rate matrices of the single chain behind ``d``.

    ``tilt`` has shape (..., n, n), typically a (k, n, n) stack of probes.
    Returns C-contiguous ``t_ab`` (..., 1, nb), ``t_ba`` (..., nb, 1) and
    ``t_b`` (..., nb, nb); ``t_b`` carries the untilted diagonal -gamma_B.
    """
    a, bi = np.array([d.a_state]), np.array(d.b_states)
    t_b = _block(tilt, bi, bi) - np.diag(d.parent.gamma[bi])
    return _block(tilt, a, bi), _block(tilt, bi, a), t_b


def _mgf(d: BlockDecomposition, scheme: WeightScheme, chi, s) -> list[float]:
    """Real-tilt transforms E[exp(Q chi - s T)] at the probes (chi[k], s[k]),
    used for finite differences; one batched solve for all k probes."""
    chi = np.asarray(chi, dtype=float)
    s = np.asarray(s, dtype=float)
    tilt = d.parent.w * np.exp(scheme.weights * chi[:, None, None])
    t_ab, t_ba, t_b = _tilted_blocks(d, tilt)
    x = np.linalg.solve(s[:, None, None] * np.eye(d.nb) - t_b, t_ba)
    return ((t_ab @ x)[:, 0, 0] / d.gamma_a).tolist()


def finite_difference_moments(
    d: BlockDecomposition,
    scheme: WeightScheme,
    levels: int = 4,
    target: float = 0.05,
):
    """Independent check of the insertion formulas: Richardson-extrapolated
    central differences of the real-tilt transform.
    Returns ``(e_q, e_q2, e_t, e_t2, e_qt)``.

    Each base step is halved until the transform is finite and positive on
    every probe side and the central second difference drops below
    ``target``.  Pinning the second difference rather than the step keeps
    the relative rounding noise bounded by the solver's condition number
    even for heavy-tailed excursion statistics, where the chi convergence
    radius shrinks with the mean jump count and the s abscissa with the
    slowest absorption rate.  The trial steps h, h/2, ... are tried
    ``_LADDER`` at a time, all their probes in one stacked solve (f(0, 0)
    rides in the first), and the first step that passes wins: a probe's
    value does not depend on its stack, so that is the step a solve per
    step accepts.  A stack that raises ``LinAlgError`` is solved again step
    by step, skipping the steps that raise.  All 8 * ``levels``
    Richardson probes are one stacked solve as well.
    """
    f00 = None

    def solved(probes):
        try:
            return _mgf(d, scheme, *probes)
        except np.linalg.LinAlgError:
            return None

    def shrink(h, probes):
        # probes(h) gives (chi, s) lists; the first two are the +-h sides
        nonlocal f00
        for start in range(0, 200, _LADDER):
            steps = []
            for _ in range(min(_LADDER, 200 - start)):
                steps.append(h)
                h /= 2.0
            head = [([0.0], [0.0])] if f00 is None else []
            stack = head + [probes(t) for t in steps]
            try:
                vals = _mgf(d, scheme, [c for p in stack for c in p[0]],
                            [t for p in stack for t in p[1]])
            except np.linalg.LinAlgError:
                # one singular probe fails the stack
                if head:
                    (f00,) = _mgf(d, scheme, *head[0])
                rows = map(solved, stack[len(head):])
            else:
                if head:
                    f00 = vals.pop(0)
                k = len(vals) // len(steps)
                rows = (vals[i:i + k] for i in range(0, len(vals), k))
            for t, v in zip(steps, rows):
                if (v is not None and all(np.isfinite(x) and x > 0.0 for x in v)
                        and abs(v[0] - 2.0 * f00 + v[1]) <= target):
                    return t
        return h

    hc = shrink(0.25 / max(1.0, scheme.max_abs_weight()),
                lambda h: ([h, -h], [0.0, 0.0]))
    norm_g = float(np.abs(d.fundamental).sum(axis=0).max())
    hs = shrink(0.25 / max(1.0, norm_g),
                lambda h: ([0.0, 0.0, hc, -hc], [h, -h, -h, -h]))

    steps = [(hc / 2**k, hs / 2**k) for k in range(levels)]
    vals = _mgf(d, scheme,
                [c for a, _ in steps for c in (a, -a, 0.0, 0.0, a, a, -a, -a)],
                [t for _, b in steps for t in (0.0, 0.0, b, -b, b, -b, b, -b)])

    d1q, d2q, d1t, d2t, dqt = [], [], [], [], []
    for k, (a, b) in enumerate(steps):
        fp, fm, gp, gm, fpp, fpm, fmp, fmm = vals[8 * k:8 * k + 8]
        d1q.append((fp - fm) / (2 * a))
        d2q.append((fp - 2 * f00 + fm) / a**2)
        d1t.append(-(gp - gm) / (2 * b))
        d2t.append((gp - 2 * f00 + gm) / b**2)
        dqt.append(-(fpp - fpm - fmp + fmm) / (4 * a * b))
    return tuple(_richardson(s)[0] for s in (d1q, d2q, d1t, d2t, dqt))


def outcome_quadrature(
    d: BlockDecomposition,
    scheme: WeightScheme,
    q_range: tuple[int, int] = (-50, 50),
    nodes: int | None = None,
):
    """Independent check of :func:`outcome_distribution`: P(q) by Fourier
    inversion of the marginal characteristic function M(xi, 0).

    The trapezoid rule runs on a uniform grid over [-pi, pi); the integrand
    is 2*pi periodic on the integer lattice, so the rule is spectrally
    accurate.  The node count doubles from ``2 * nodes`` until two
    successive refinements agree below 1e-10, up to ``16 * nodes``;
    ``nodes=None`` takes the smallest power of two >= 4 (hi - lo + 1).
    Each doubled grid keeps the nodes it shares with the coarser one (the
    even nodes) and solves only its new odd nodes; the first two grids are
    solved together.

    Returns ``(qs, probs)`` as integer and float arrays; a sum within
    1e-8 of one is renormalised to one by the in-range mass.

    Raises
    ------
    NonIntegerScheme
        The scheme has non-integer weights.
    MassDeficit
        The requested range misses more than 1e-6 of the mass.
    """
    if not scheme.integer_valued:
        raise NonIntegerScheme("outcome distribution needs integer weights")
    lo, hi = int(q_range[0]), int(q_range[1])
    if lo > hi:
        raise ValueError("empty q range")
    qs = np.arange(lo, hi + 1)
    if nodes is None:
        nodes = 1 << (4 * (hi - lo + 1) - 1).bit_length()

    def transform(xi):
        phase = np.exp(-1j * np.multiply.outer(xi, scheme.weights))
        t_ab, t_ba, t_b = _tilted_blocks(d, phase * d.parent.w)
        x = np.linalg.solve(-t_b, t_ba)
        return (t_ab @ x)[:, 0, 0] / d.gamma_a

    def grid(n):
        return -np.pi + 2.0 * np.pi * np.arange(n) / n

    def inversion(xi, mvals):
        return np.real(np.exp(1j * np.outer(qs, xi)) @ mvals) / len(xi)

    # 2 pi k / n == 2 pi (2k) / (2n) in floating point, so the coarse nodes
    # are bit-equal to the even nodes of the doubled grid
    n = 2 * nodes
    xi = grid(n)
    mvals = transform(xi)
    prev = inversion(grid(nodes), mvals[::2])
    while True:
        probs = inversion(xi, mvals)
        if np.max(np.abs(probs - prev)) < 1e-10:
            break
        if n >= 16 * nodes:
            break
        prev = probs
        n *= 2
        xi = grid(n)
        coarse, mvals = mvals, np.empty(n, dtype=complex)
        mvals[0::2] = coarse
        mvals[1::2] = transform(xi[1::2])

    if np.min(probs) < -1e-12:
        raise MassDeficit(
            f"negative probability {np.min(probs):.3e}: quadrature failed"
        )
    probs = np.maximum(probs, 0.0)
    mass = probs.sum()
    if mass < 1.0 - 1e-6:
        raise MassDeficit(
            f"range [{lo}, {hi}] captures only {mass:.9f} of the mass"
        )
    if abs(1.0 - mass) <= 1e-8:
        probs = probs / mass
    return qs, probs


def outcome_distribution(
    d: BlockDecomposition,
    scheme: WeightScheme,
    q_range: tuple[int, int] = (-50, 50),
):
    """Per-excursion outcome probabilities P(q) for an integer scheme, from
    the charge-resolved chain (the n-resolved master equation of counting).

    The unknowns x(q, b) are the expected times spent in B state b with net
    count q before the return to A.  Level q carries the block
    diag(gamma_B) - W_B^(0) and takes in level q - k through W_B^(k), the
    B -> B rates whose jumps add k.  Groups of m = max |k| consecutive levels
    keep the system block-tridiagonal, and :func:`_block_thomas` solves it.
    Then P(q) = sum_b w[A, b] x(q - nu(A, b), b) / gamma_A.

    The solve runs on the levels [lo - K, hi + K], widened to hold every
    entry and return level.  Paths that leave them are absorbed, and the
    flux absorbed at each edge is known exactly.  An edge that no B -> B
    jump crosses back is exact at K = 0; otherwise K doubles from
    hi - lo + 1 until the mass absorbed there is at most 1e-14, up to
    16 (hi - lo + 1).  P is normalised by the total mass of the solve,
    every level's return flux plus the absorbed flux, so
    ``1 - probs.sum()`` is the mass outside the range.  A range that misses
    more than 1e-6 even if all the absorbed mass came back fails at once.

    Returns ``(qs, probs)`` as integer and float arrays.

    Raises
    ------
    NonIntegerScheme
        The scheme has non-integer weights.
    MassDeficit
        The requested range misses more than 1e-6 of the mass, or more
        than 1e-14 can still come back from beyond the largest window.
    """
    if not scheme.integer_valued:
        raise NonIntegerScheme("outcome distribution needs integer weights")
    if scheme.n != d.parent.n:
        raise DimensionMismatch("scheme dimension does not match chain")
    lo, hi = int(q_range[0]), int(q_range[1])
    if lo > hi:
        raise ValueError("empty q range")
    qs = np.arange(lo, hi + 1)
    a, bi, nb = d.a_state, list(d.b_states), d.nb
    w, nu = d.parent.w, np.rint(scheme.weights).astype(np.int64)
    rate_in, nu_in = w[bi, a], nu[bi, a]     # A -> b
    rate_out, nu_out = w[a, bi], nu[a, bi]   # b -> A
    nu_b = nu[np.ix_(bi, bi)]
    steps = nu_b[d.w_b > 0]
    m = int(np.abs(steps).max(initial=0))
    # an edge can be crossed back only by B -> B jumps towards the window
    back_lo, back_hi = bool(np.any(steps > 0)), bool(np.any(steps < 0))
    core_lo = min(lo - nu_out[rate_out > 0].max(), nu_in[rate_in > 0].min())
    core_hi = max(hi - nu_out[rate_out > 0].min(), nu_in[rate_in > 0].max())

    g = max(m, 1)
    r = np.arange(g)

    def coupling(shift):
        # rows (level j g + r, b), columns (level (j + shift) g + r', b')
        k = (r[:, None] - r[None, :] - shift * g)[:, None, :, None]
        blk = np.where(nu_b[:, None, :] == k, d.w_b[:, None, :], 0.0)
        return -blk.reshape(g * nb, g * nb)

    blocks = (coupling(0) + np.diag(np.tile(d.parent.gamma[bi], g)),
              coupling(-1), coupling(1))
    # out_rate[k][b'] = rate of the jumps out of b' that add k
    out_rate = {k: np.where(nu_b == k, d.w_b, 0.0).sum(axis=0)
                for k in range(-m, m + 1) if k}

    width = hi - lo + 1
    pad = width if back_lo or back_hi else 0
    live = rate_in > 0
    while True:
        start = core_lo - pad
        n_blk = -(-(core_hi + pad - start + 1) // g)
        rhs = np.zeros((n_blk * g, nb))
        rhs[nu_in[live] - start, np.flatnonzero(live)] = rate_in[live]
        x = _block_thomas(*blocks, rhs.reshape(n_blk, g * nb)).reshape(-1, nb)
        ret = x * rate_out
        lost_lo = sum(o @ x[:-k].sum(axis=0) for k, o in out_rate.items() if k < 0)
        lost_hi = sum(o @ x[-k:].sum(axis=0) for k, o in out_rate.items() if k > 0)
        total = ret.sum() + lost_lo + lost_hi
        # P(q) gathers the return flux of levels q - nu_out[b]; a state with
        # no return rate adds zero, so its clipped level does not matter
        rows = np.clip(qs[:, None] - nu_out - start, 0, len(ret) - 1)
        probs = ret[rows, np.arange(nb)].sum(axis=1) / total
        # absorbed paths could still add at most `leak` to the range
        leak = (back_lo * lost_lo + back_hi * lost_hi) / total
        if probs.sum() + leak < 1.0 - 1e-6:
            raise MassDeficit(f"range [{lo}, {hi}] captures only "
                              f"{probs.sum() + leak:.9f} of the mass")
        if leak <= 1e-14:
            return qs, probs
        if pad >= 16 * width:
            raise MassDeficit(
                f"{leak:.3e} of the mass is absorbed beyond the window "
                f"[{start}, {start + n_blk * g - 1}] and may return to "
                f"[{lo}, {hi}]")
        pad = min(2 * pad, 16 * width)


def _block_thomas(diag, lower, upper, rhs):
    """Solve the block-tridiagonal system with the constant blocks ``diag``,
    ``lower`` (coupling to the previous block) and ``upper`` (to the next)
    for the right-hand sides ``rhs`` of shape (n_blk, s).

    Block LU without pivoting, which is stable for the column diagonally
    dominant charge-resolved matrix: one solve per block on the way down,
    matrix products on the way back.  No dense matrix of the whole system
    is formed.
    """
    n_blk, s = rhs.shape
    elim = np.empty((n_blk, s, s))
    y = np.empty((n_blk, s))
    pivot, carry = diag, rhs[0]
    for j in range(n_blk):
        if j:
            pivot = diag - lower @ elim[j - 1]
            carry = rhs[j] - lower @ y[j - 1]
        sol = np.linalg.solve(pivot, np.column_stack((upper, carry)))
        elim[j], y[j] = sol[:, :s], sol[:, s]
    for j in range(n_blk - 2, -1, -1):
        y[j] -= elim[j] @ y[j + 1]
    return y


def excess_time(d: BlockDecomposition) -> float | np.ndarray:
    """Renewal excess time, the diffusion coefficient of the scheme whose
    weights are the per-state mean residence times.

    Combines the A residence time, the cycle mean and the steady-state
    weighted residence in B.
    """
    bi = list(d.b_states)
    p_b = steady_state(d.parent)[..., bi]
    gam_b = d.parent.gamma[..., bi]
    e_t, _, _, mu, _ = time_moments(d)
    ga = d.gamma_a
    return (1.0 / ga + mu * ga * np.sum(p_b / gam_b, axis=-1)) / (1.0 + ga * e_t)
