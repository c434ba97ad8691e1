"""Excursion statistics from the block decomposition of a chain generator.

An excursion starts with a jump out of the single-state region A and ends at
the first return.  All moments of the excursion duration T and of counting
observables Q_i come from the tilted resolvent

    M(chi, s) = <x_A| W_AB(chi) (s - gen_B(chi))^(-1) W_BA(chi) |x_A> / gamma_A

with the real tilt exp(weights_i * chi_i) on every off-diagonal rate.  Every
first and second derivative at the origin is one bilinear insertion,
:func:`cross_moments`; :func:`time_moments` and :func:`observable_moments`
are its views for T and for (Q, T), and :func:`noise_terms` assembles the
noise D = D1 + D2 + D3 from them.

A stacked chain (``w`` of shape (..., n, n)) gives stacked blocks, and the
insertion formulas then run as broadcast matrix products over the batch;
every check is made cell by cell.  The transform oracles
(:func:`finite_difference_moments`, :func:`outcome_quadrature`) take single
chains only.  They stack their probes instead: each trial step of the finite
differences, their Richardson ladder and each quadrature grid is one batched
solve over a (k, nb, nb) stack of tilted B blocks, and a doubled quadrature
grid solves only the nodes it adds.

The outcome distribution P(q) of an integer count, :func:`outcome_distribution`,
needs no transform: it solves the charge-resolved chain, B states times
net counts, level by level (single chains only as well).
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
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


@dataclass(frozen=True)
class BlockDecomposition:
    """A/B partition of a rate matrix with A a single state.

    ``w_ab`` (1 x nb) and ``w_ba`` (nb x 1) are the off-diagonal coupling
    blocks, ``gen_b`` the substochastic B block of the generator, and
    ``fundamental`` its negated inverse G, whose entries are expected
    occupation times in B before absorption into A.  For a stacked chain
    every block carries the leading batch axes and ``gamma_a`` is an array.
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

    ``a`` is a single state index or a singleton iterable; larger regions
    are rejected because the renewal-cycle results assume one A state.
    """
    if isinstance(a, (int, np.integer)):
        a_set = {int(a)}
    else:
        a_set = {int(x) for x in a}
    if not a_set or len(a_set) >= m.n:
        raise BadPartition("region A must be a nonempty proper subset")
    if len(a_set) != 1:
        raise BadPartition("only single-state regions A are supported")
    a_state = a_set.pop()
    if not 0 <= a_state < m.n:
        raise BadPartition(f"state index {a_state} out of range")
    b_states = tuple(i for i in range(m.n) if i != a_state)
    a, bi = np.array([a_state]), np.array(b_states)
    w_ab = _block(m.w, a, bi)
    w_ba = _block(m.w, bi, a)
    w_b = _block(m.w, bi, bi)
    gen_b = _block(m.generator, bi, bi)
    try:
        fund = np.linalg.solve(-gen_b, np.eye(len(bi)))
    except np.linalg.LinAlgError as exc:
        raise SingularB(str(exc)) from None
    gamma_a = _float(m.gamma[..., a_state])
    _check_decomposition(m, bi, gen_b, fund, w_ab, w_ba, gamma_a)
    return BlockDecomposition(
        parent=m, a_state=a_state, b_states=b_states, gamma_a=gamma_a,
        w_ab=w_ab, w_ba=w_ba, w_b=w_b, gen_b=gen_b, fundamental=fund,
    )


def _check_decomposition(m, bi, gen_b, fund, w_ab, w_ba, gamma_a):
    scale = np.maximum(np.max(m.gamma, axis=-1), 1.0)
    # substochastic B block: column sums <= 0, at least one strictly negative
    colsum = gen_b.sum(axis=-2)
    tol = 1e-12 * scale[..., None]
    raise_first(np.any(colsum > tol, axis=-1) | ~np.any(colsum < -tol, axis=-1),
                SingularB, "B block of the generator is not substochastic")
    raise_first(np.any(fund < -1e-12 / scale[..., None, None], axis=(-2, -1)),
                SingularB, "fundamental matrix has negative entries")
    # backward-stable solves leave a residual ~ eps * |gen_b| * |G|, so the
    # 1e-10 criterion is taken relative to that conditioning scale
    cond = np.maximum(
        1.0,
        np.abs(gen_b).sum(axis=-1).max(axis=-1)
        * np.abs(fund).sum(axis=-1).max(axis=-1),
    )
    resid = np.max(np.abs(gen_b @ fund + np.eye(len(bi))), axis=(-2, -1))
    raise_first(resid > 1e-10 * cond, SingularB,
                "fundamental-matrix residual {:.3e}", resid)
    norm = _float((w_ab @ fund @ w_ba)[..., 0, 0])
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

    whose last term sums nu_X nu_Y over single jumps (zero for T).
    """
    n, k = d.parent.n, len(schemes)
    if any(s is not None and s.n != n for s in schemes):
        raise DimensionMismatch("scheme dimension does not match chain")
    w, g, bi = d.parent.w, d.fundamental, list(d.b_states)
    lft, rgt, jump = d.ends
    batch = w.shape[:-2]
    on_b = np.diag(np.arange(n) != d.a_state)
    v = np.empty(batch + (n, k, n))  # v[..., x, i, y] = V_i[x, y]
    for i, s in enumerate(schemes):
        v[..., i, :] = on_b if s is None else s.weights * w
    lv = (lft @ v.reshape(batch + (n, k * n))).reshape(batch + (k, n))
    vr = (v.reshape(batch + (n * k, n)) @ rgt).reshape(batch + (n, k))
    c = (lv[..., bi] @ g) @ vr[..., bi, :]
    m1, m2 = (lv * np.swapaxes(rgt, -1, -2)).sum(axis=-1), c + np.swapaxes(c, -1, -2)
    qs = [i for i, s in enumerate(schemes) if s is not None]
    for i, j in combinations_with_replacement(qs, 2):
        nu_nu = schemes[i].weights * schemes[j].weights
        m2[..., i, j] = m2[..., j, i] = m2[..., i, j] + (nu_nu * jump).sum(axis=(-2, -1))
    if not batch:
        return (m1 / d.gamma_a).tolist(), (m2 / d.gamma_a).tolist()
    return np.moveaxis(m1, -1, 0) / d.gamma_a, np.moveaxis(m2, (-2, -1), (0, 1)) / d.gamma_a


def time_moments(d: BlockDecomposition):
    """Excursion-duration and cycle-time moments from :func:`cross_moments`.

    Returns ``(e_t, e_t2, var_t, mu, delta2)`` where mu and delta2 are the
    mean and variance of the renewal cycle (excursion plus the following
    exponential residence in A).
    """
    (e_t,), ((e_t2,),) = cross_moments(d, [None])
    var_t = e_t2 - e_t * e_t
    mu = e_t + 1.0 / d.gamma_a
    delta2 = var_t + 1.0 / d.gamma_a**2
    return e_t, e_t2, var_t, mu, delta2


def observable_moments(d: BlockDecomposition, scheme: WeightScheme):
    """Moments ``(e_q, e_q2, var_q, e_qt, cov_qt)`` of one counting
    observable per excursion, from :func:`cross_moments` with T."""
    (e_q, e_t), ((e_q2, e_qt), _) = cross_moments(d, [scheme, None])
    return e_q, e_q2, e_q2 - e_q * e_q, e_qt, e_qt - e_q * e_t


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


def excursion_report(d: BlockDecomposition, scheme: WeightScheme) -> ExcursionReport:
    """Assemble all moments, the current and the noise for one scheme.

    Sanity rails: the second moments come from sums that can cancel down
    from magnitude (max_weight * expected_jumps)^2, so the nonnegativity
    and Cauchy-Schwarz checks allow rounding slack on that scale.
    """
    e_t, e_t2, var_t, mu, delta2 = time_moments(d)
    e_q, _, var_q, _, cov_qt = observable_moments(d, scheme)
    jump_bound = 2.0 + np.max(d.parent.gamma, axis=-1) * (
        np.abs(d.fundamental).sum(axis=-2).max(axis=-1)
    )
    q_scale = np.maximum(1.0, (scheme.max_abs_weight() * jump_bound) ** 2)
    t_scale = np.maximum(1.0, e_t2)
    raise_first((var_t < -1e-9 * t_scale) | (var_q < -1e-9 * q_scale),
                ValueError, "negative variance in excursion report")
    bound = np.sqrt(np.maximum(var_q, 0.0) * np.maximum(var_t, 0.0))
    raise_first(np.abs(cov_qt) > bound + 1e-9 * np.maximum(q_scale, t_scale),
                ValueError, "covariance violates Cauchy-Schwarz")
    var_q = np.maximum(var_q, 0.0)
    d1, d2, d3 = noise_terms(var_q, e_q, cov_qt, mu, delta2)
    return ExcursionReport(
        e_q=e_q, var_q=var_q, e_t=e_t, var_t=var_t, cov_qt=cov_qt,
        e_tau=1.0 / d.gamma_a, mu=mu, delta2=delta2,
        j=e_q / mu, d1=d1, d2=d2, d3=d3, d=d1 + d2 + d3,
    )


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
    slowest absorption rate.  Each trial step evaluates its probes in one
    stacked solve, and so do all 8 * ``levels`` Richardson probes.
    """
    (f00,) = _mgf(d, scheme, [0.0], [0.0])

    def shrink(h, probes):
        # probes(h) gives (chi, s) lists; the first two are the +-h sides
        for _ in range(200):
            try:
                vals = _mgf(d, scheme, *probes(h))
            except np.linalg.LinAlgError:
                h /= 2.0
                continue
            ok = all(np.isfinite(v) and v > 0.0 for v in vals)
            if ok and abs(vals[0] - 2.0 * f00 + vals[1]) <= target:
                return h
            h /= 2.0
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


def excess_time(d: BlockDecomposition) -> float:
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
