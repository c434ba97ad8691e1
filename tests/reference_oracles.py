"""Reference implementations of the transform oracles: the per-probe
``_mgf`` and ``finite_difference_moments``, the fresh-grid
``outcome_distribution`` and the per-step ``fcs_current_noise`` that exclab
shipped before their probes were stacked, kept verbatim as oracles.

The library versions must reproduce them bit for bit: the same moment
tuples, the same outcome probabilities, the same current and noise, and the
same exception types.  The quadrature here is now the library's
``outcome_quadrature`` at an explicit ``nodes``; the library's
``outcome_distribution`` is a charge-resolved solve checked against it.
"""
from __future__ import annotations

import numpy as np

from exclab.errors import (
    DimensionMismatch,
    EigenFailure,
    MassDeficit,
    NonIntegerScheme,
    SingularResolvent,
    StepCollapse,
)
from exclab.excursions import BlockDecomposition, _float
from exclab.markov import RateMatrix, WeightScheme


def _mgf(d: BlockDecomposition, scheme: WeightScheme, chi: float, s: float) -> float:
    """Real-tilt transform E[exp(Q chi - s T)], used for finite differences."""
    bi = list(d.b_states)
    tilt = d.parent.w * np.exp(scheme.weights * chi)
    t_ab = tilt[np.ix_([d.a_state], bi)]
    t_ba = tilt[np.ix_(bi, [d.a_state])]
    t_b = tilt[np.ix_(bi, bi)] - np.diag(d.parent.gamma[bi])
    x = np.linalg.solve(s * np.eye(d.nb) - t_b, t_ba)
    return _float((t_ab @ x)[0, 0]) / d.gamma_a


def _richardson_table(samples):
    rows = [[samples[0]]]
    for k in range(1, len(samples)):
        row = [samples[k]]
        for j in range(1, k + 1):
            row.append((4**j * row[j - 1] - rows[k - 1][j - 1]) / (4**j - 1))
        rows.append(row)
    return rows[-1][-1]


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
    slowest absorption rate.
    """
    f = lambda chi, s: _mgf(d, scheme, chi, s)
    f00 = f(0.0, 0.0)

    def shrink(h, sides, extra=()):
        for _ in range(200):
            try:
                p, m = sides(h)
                ok = all(np.isfinite(v) and v > 0.0 for v in (p, m) + extra_vals(h, extra))
            except (SingularResolvent, np.linalg.LinAlgError):
                h /= 2.0
                continue
            if ok and abs(p - 2.0 * f00 + m) <= target:
                return h
            h /= 2.0
        return h

    def extra_vals(h, extra):
        return tuple(g(h) for g in extra)

    hc = shrink(0.25 / max(1.0, scheme.max_abs_weight()),
                lambda h: (f(h, 0.0), f(-h, 0.0)))
    norm_g = float(np.abs(d.fundamental).sum(axis=0).max())
    hs = shrink(
        0.25 / max(1.0, norm_g),
        lambda h: (f(0.0, h), f(0.0, -h)),
        extra=(lambda h: f(hc, -h), lambda h: f(-hc, -h)),
    )

    d1q, d2q, d1t, d2t, dqt = [], [], [], [], []
    for k in range(levels):
        a, b = hc / 2**k, hs / 2**k
        fp, fm = f(a, 0.0), f(-a, 0.0)
        gp, gm = f(0.0, b), f(0.0, -b)
        d1q.append((fp - fm) / (2 * a))
        d2q.append((fp - 2 * f00 + fm) / a**2)
        d1t.append(-(gp - gm) / (2 * b))
        d2t.append((gp - 2 * f00 + gm) / b**2)
        dqt.append(
            -(f(a, b) - f(a, -b) - f(-a, b) + f(-a, -b)) / (4 * a * b)
        )
    return tuple(_richardson_table(s) for s in (d1q, d2q, d1t, d2t, dqt))


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
    agree below 1e-10.

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
    bi = list(d.b_states)
    w = d.parent.w
    nu = scheme.weights
    gam_b = d.parent.gamma[bi]

    prev = None
    n = nodes
    while True:
        xi = -np.pi + 2.0 * np.pi * np.arange(n) / n
        phase = np.exp(-1j * np.multiply.outer(xi, nu))
        tilt = phase * w
        t_b = tilt[:, bi, :][:, :, bi] - np.diag(gam_b)
        t_ba = tilt[:, bi, :][:, :, [d.a_state]]
        t_ab = tilt[:, [d.a_state], :][:, :, bi]
        x = np.linalg.solve(-t_b, t_ba)
        mvals = (t_ab @ x)[:, 0, 0] / d.gamma_a
        probs = np.real(np.exp(1j * np.outer(qs, xi)) @ mvals) / n
        if prev is not None and np.max(np.abs(probs - prev)) < 1e-10:
            break
        if n >= 16 * nodes:
            break
        prev = probs
        n *= 2

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


def tilt_generator(m: RateMatrix, scheme: WeightScheme, chi: float) -> np.ndarray:
    """Generator with off-diagonal entries ``w[x, y] * exp(weights[x, y] * chi)``.

    The diagonal stays ``-gamma``; chi = 0 returns the generator exactly.
    """
    if scheme.n != m.n:
        raise DimensionMismatch("scheme dimension does not match chain")
    t = m.w * np.exp(scheme.weights * chi)
    np.fill_diagonal(t, -m.gamma)
    return t


def _dominant_eigenvalue(mat: np.ndarray) -> float:
    try:
        ev = np.linalg.eigvals(mat)
    except np.linalg.LinAlgError as exc:
        raise EigenFailure(str(exc)) from None
    return float(ev[np.argmax(ev.real)].real)


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
    h0 much below ~1e-3 runs into the eigensolver noise floor.

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
    lam0 = _dominant_eigenvalue(tilt_generator(m, scheme, 0.0))
    if abs(lam0) > 1e-10 * max(np.max(m.gamma), 1.0):
        raise EigenFailure(f"lambda(0) = {lam0:.3e}, expected 0")
    hs = [h0 / 2**k for k in range(levels)]
    lp = [_dominant_eigenvalue(tilt_generator(m, scheme, h)) for h in hs]
    lm = [_dominant_eigenvalue(tilt_generator(m, scheme, -h)) for h in hs]
    j, err_j = _richardson([(lp[k] - lm[k]) / (2 * hs[k]) for k in range(levels)])
    d, err_d = _richardson(
        [(lp[k] - 2 * lam0 + lm[k]) / hs[k] ** 2 for k in range(levels)]
    )
    if err_j > max(1e-9, target * abs(j)) or err_d > max(1e-9, target * abs(d)):
        raise StepCollapse(
            f"refinement stalled at dJ={err_j:.2e}, dD={err_d:.2e}"
        )
    return j, d
