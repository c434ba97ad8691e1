"""Excursion statistics from the block decomposition of a chain generator.

An excursion starts with a jump out of the single-state region A and ends at
the first return.  All moments of the excursion duration T and of a counting
observable Q come from the tilted resolvent

    M(chi, s) = <x_A| W_AB(chi) (s - gen_B(chi))^(-1) W_BA(chi) |x_A> / gamma_A,

the joint moment generating function of (Q, T) with the real tilt
exp(weights * chi) on every off-diagonal rate.  First and second derivatives
at (0, 0) are evaluated with exact insertion formulas; each chi derivative
inserts one weighted block V = weights * w, each s derivative inserts one
extra factor of the fundamental matrix G = (-gen_B)^(-1).

A stacked chain (``w`` of shape (..., n, n)) gives stacked blocks, and the
insertion formulas then run as broadcast matrix products over the batch;
every check is made cell by cell.  The transform oracles
(:func:`joint_characteristic`, :func:`finite_difference_moments`,
:func:`outcome_distribution`) take single chains only.  They stack their
probes instead: each trial step of the finite differences, their
Richardson ladder and each quadrature grid is one batched solve over a
(k, nb, nb) stack of tilted B blocks, and a doubled quadrature grid solves
only the nodes it adds.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    BadPartition,
    DimensionMismatch,
    MassDeficit,
    NonIntegerScheme,
    SingularB,
    SingularResolvent,
    raise_first,
)
from .markov import RateMatrix, WeightScheme, _richardson, steady_state

__all__ = [
    "BlockDecomposition",
    "ExcursionReport",
    "partition",
    "time_moments",
    "observable_moments",
    "current",
    "noise_decomposition",
    "excursion_report",
    "joint_characteristic",
    "finite_difference_moments",
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


def _scalar(x):
    """The entry of a (..., 1, 1) product: a float, or one per cell."""
    v = np.asarray(x)[..., 0, 0]
    return float(v) if v.ndim == 0 else v


def _block(x: np.ndarray, rows, cols) -> np.ndarray:
    """Sub-block ``x[..., rows, cols]`` over the last two axes, C-contiguous
    so that every cell's products take the same BLAS path as one point."""
    return np.ascontiguousarray(x[..., rows, :][..., cols])


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
    bi = list(b_states)
    w_ab = _block(m.w, [a_state], bi)
    w_ba = _block(m.w, bi, [a_state])
    w_b = _block(m.w, bi, bi)
    gen_b = _block(m.generator, bi, bi)
    try:
        fund = np.linalg.solve(-gen_b, np.eye(len(bi)))
    except np.linalg.LinAlgError as exc:
        raise SingularB(str(exc)) from None
    gamma_a = m.gamma[..., a_state]
    gamma_a = float(gamma_a) if gamma_a.ndim == 0 else gamma_a
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
    norm = _scalar(w_ab @ fund @ w_ba)
    raise_first(
        np.abs(norm - gamma_a) > 1e-10 * gamma_a * np.maximum(1.0, 1e-4 * cond),
        SingularB, "normalization identity violated: {!r} != {!r}",
        norm, gamma_a)


def _scheme_blocks(d: BlockDecomposition, scheme: WeightScheme, power: int = 1):
    """Restrict weights^power * w to the AB, BA and B blocks."""
    if scheme.n != d.parent.n:
        raise DimensionMismatch("scheme dimension does not match chain")
    v = scheme.weights**power * d.parent.w
    bi = list(d.b_states)
    a = [d.a_state]
    return _block(v, a, bi), _block(v, bi, a), _block(v, bi, bi)


def time_moments(d: BlockDecomposition):
    """Excursion-duration and cycle-time moments.

    Returns ``(e_t, e_t2, var_t, mu, delta2)`` where mu and delta2 are the
    mean and variance of the renewal cycle (excursion plus the following
    exponential residence in A).
    """
    g = d.fundamental
    e_t = _scalar(d.w_ab @ g @ g @ d.w_ba) / d.gamma_a
    e_t2 = 2.0 * _scalar(d.w_ab @ g @ g @ g @ d.w_ba) / d.gamma_a
    var_t = e_t2 - e_t * e_t
    mu = e_t + 1.0 / d.gamma_a
    delta2 = var_t + 1.0 / d.gamma_a**2
    return e_t, e_t2, var_t, mu, delta2


def observable_moments(d: BlockDecomposition, scheme: WeightScheme):
    """First and second moments of the counting observable per excursion.

    Returns ``(e_q, e_q2, var_q, e_qt, cov_qt)``.  Derivative bookkeeping
    for M(chi, s) at (0, 0), writing G for the fundamental matrix and V
    for a weighted block:

        e_q   : V_AB G W_BA + W_AB G V_B G W_BA + W_AB G V_BA
        e_q2  : second chi derivative; V2 blocks carry squared weights and
                the V_B insertion appears once and twice
        e_qt  : one V insertion combined with one extra G factor
    """
    g = d.fundamental
    v_ab, v_ba, v_b = _scheme_blocks(d, scheme, 1)
    v2_ab, v2_ba, v2_b = _scheme_blocks(d, scheme, 2)
    w_ab, w_ba = d.w_ab, d.w_ba
    ga = d.gamma_a

    gw = g @ w_ba                      # G W_BA, reused throughout
    wg = w_ab @ g                      # W_AB G
    e_q = (_scalar(v_ab @ gw) + _scalar(wg @ v_b @ gw) + _scalar(wg @ v_ba)) / ga
    e_q2 = (
        _scalar(v2_ab @ gw)
        + _scalar(wg @ (2.0 * v_b @ g @ v_b + v2_b) @ gw)
        + _scalar(wg @ v2_ba)
        + 2.0 * (
            _scalar(v_ab @ g @ v_b @ gw)
            + _scalar(v_ab @ g @ v_ba)
            + _scalar(wg @ v_b @ g @ v_ba)
        )
    ) / ga
    e_qt = (
        _scalar(v_ab @ g @ gw)
        + _scalar(wg @ (g @ v_b + v_b @ g) @ gw)
        + _scalar(wg @ g @ v_ba)
    ) / ga
    e_t = _scalar(wg @ gw) / ga
    var_q = e_q2 - e_q * e_q
    cov_qt = e_qt - e_q * e_t
    return e_q, e_q2, var_q, e_qt, cov_qt


def current(d: BlockDecomposition, scheme: WeightScheme) -> float:
    """Steady-state current J = E(Q) / mu."""
    e_q = observable_moments(d, scheme)[0]
    mu = time_moments(d)[3]
    return e_q / mu


def noise_decomposition(d: BlockDecomposition, scheme: WeightScheme):
    """Noise D and its three components.

    D1 = var(Q)/mu carries observable fluctuations, D2 = Delta^2 E(Q)^2/mu^3
    cycle-time fluctuations, D3 = -2 E(Q) cov(Q,T)/mu^2 their interplay.
    Returns ``(d1, d2, d3, d)``.
    """
    e_q, _, var_q, _, cov_qt = observable_moments(d, scheme)
    _, _, _, mu, delta2 = time_moments(d)
    d1 = var_q / mu
    d2 = delta2 / mu**3 * e_q * e_q
    d3 = -2.0 * e_q / mu**2 * cov_qt
    return d1, d2, d3, d1 + d2 + d3


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
    d1 = var_q / mu
    d2 = delta2 / mu**3 * e_q * e_q
    d3 = -2.0 * e_q / mu**2 * cov_qt
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
    bi = list(d.b_states)
    a = [d.a_state]
    t_b = _block(tilt, bi, bi) - np.diag(d.parent.gamma[bi])
    return _block(tilt, a, bi), _block(tilt, bi, a), t_b


def joint_characteristic(
    d: BlockDecomposition, scheme: WeightScheme, xi: float, s: float
) -> complex:
    """Joint transform M(xi, s) with the complex tilt exp(-i weights xi).

    For s >= 0 this is E[exp(-i Q xi - s T)] over one excursion; M(0, 0) = 1.
    """
    if scheme.n != d.parent.n:
        raise DimensionMismatch("scheme dimension does not match chain")
    if s < 0.0:
        # the transform converges only above the abscissa of the untilted B
        # block: |exp(-i Q xi - s T)| = exp(-s T) for every xi, and a
        # complex tilt can only lower the abscissa
        abscissa = float(np.max(np.linalg.eigvals(d.gen_b).real))
        if s <= abscissa:
            raise SingularResolvent(
                f"s = {s} at or below the abscissa {abscissa:.6g}"
            )
    t_ab, t_ba, t_b = _tilted_blocks(
        d, d.parent.w * np.exp(-1j * scheme.weights * xi))
    a = s * np.eye(d.nb) - t_b
    try:
        x = np.linalg.solve(a, t_ba)
    except np.linalg.LinAlgError as exc:
        raise SingularResolvent(str(exc)) from None
    return complex((t_ab @ x)[0, 0]) / d.gamma_a


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
            except (SingularResolvent, np.linalg.LinAlgError):
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


def outcome_distribution(
    d: BlockDecomposition,
    scheme: WeightScheme,
    q_range: tuple[int, int] = (-50, 50),
    nodes: int = 4096,
):
    """Per-excursion outcome probabilities P(q) for an integer scheme.

    Fourier inversion of the marginal characteristic function M(xi, 0) by
    the trapezoid rule on a uniform grid over [-pi, pi); the integrand is
    2*pi periodic on the integer lattice, so the rule is spectrally
    accurate.  The node count doubles until two successive refinements
    agree below 1e-10.  Each doubled grid keeps the nodes it shares with
    the coarser one (the even nodes) and solves only its new odd nodes; the
    first two grids are solved together.

    Returns ``(qs, probs)`` as integer and float arrays.

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
