"""50-digit reference for the excursion moments (test-only, needs mpmath).

The fundamental matrix G and the insertion formulas are evaluated in mpmath
on the engine's own float rates ``w`` and escape rates ``gamma``, so any gap
to the float engine is rounding in the engine, not a different model.
:meth:`Reference.exact_fermi` builds the double-dot rates themselves in
mpmath from the exact Fermi functions instead, so it also sees rounding in
the float rates, such as a complement 1 - f formed by subtraction.  The
formulas are written block by block, the way they read in the derivation:
for the duration T the block V is the identity on B, for a scheme it is
weights * w, and the one-jump term uses the squared or mixed weights.

Load it with ``pytest.importorskip("mpmath")`` first.
"""
import mpmath

DPS = 50


def _blocks(full, a, bi):
    return (mpmath.matrix([[full[a][y] for y in bi]]),
            mpmath.matrix([[full[x][a]] for x in bi]),
            mpmath.matrix([[full[x][y] for y in bi] for x in bi]))


def _one(m):
    return m[0, 0]


class Reference:
    """G, gamma_A and the per-excursion moments of one chain at ``DPS``
    digits.  ``w`` and ``gamma`` are the float arrays of a RateMatrix;
    observables are weight matrices, or None for the duration T.

    With ``exact_gamma`` the escape rates are the exact sums of the float
    off-diagonal rates, and ``gamma`` is not read: the chain the float
    rates define, not the one their rounded column sums define.  Entries
    of ``w`` may be mpmath numbers.
    """

    def __init__(self, w, gamma, a_state=0, exact_gamma=False):
        n = len(w)
        self.n, self.a = n, a_state
        self.bi = [i for i in range(n) if i != a_state]
        with mpmath.workdps(DPS):
            self.w = [[mpmath.mpf(w[x][y]) for y in range(n)] for x in range(n)]
            if exact_gamma:
                # the sum of the float rates, exact to DPS digits
                gam = [mpmath.fsum(self.w[x][y] for x in range(n) if x != y)
                       for y in range(n)]
            else:
                gam = [mpmath.mpf(float(gamma[y])) for y in range(n)]
            self.gamma_a = gam[a_state]
            self.w_ab, self.w_ba, w_b = _blocks(self.w, a_state, self.bi)
            gen_b = w_b - mpmath.diag([gam[i] for i in self.bi])
            self.g = mpmath.inverse(-gen_b)

    @classmethod
    def exact_fermi(cls, p, a_state=0):
        """The chain of one double-dot point ``p`` (an ``exclab.DqdParams``
        with float voltages), its rates written out by hand at ``DPS``
        digits: gamma f and gamma (1 - f) with f = 1 / (1 + exp(x)) and
        x = (level - mu) / T exact, on each lead jump of the state order
        (00, 10, 01, 11), and 2 g^2 / gamma between 10 and 01.  The escape
        rates are the exact column sums."""
        with mpmath.workdps(DPS):
            mpf = mpmath.mpf
            gam, t, u = mpf(p.gamma), mpf(p.temperature), mpf(p.u)
            mu = {"L": -mpf(p.vsd) / 2, "R": mpf(p.vsd) / 2}
            n = p.n_states
            w = [[mpf(0)] * n for _ in range(n)]
            # (to, from, lead, level): an electron enters a dot from the lead
            jumps = [(1, 0, "L", mpf(p.vg)), (2, 0, "R", mpf(p.vg)),
                     (3, 1, "R", p.vg + u), (3, 2, "L", p.vg + u)][:2 * (n - 2)]
            for to, frm, lead, level in jumps:
                x = (level - mu[lead]) / t
                w[to][frm] = gam / (1 + mpmath.exp(x))
                w[frm][to] = gam / (1 + mpmath.exp(-x))
            w[1][2] = w[2][1] = 2 * mpf(p.g) ** 2 / gam
        return cls(w, None, a_state, exact_gamma=True)

    def _v(self, nu):
        """(V_AB, V_BA, V_B) for one observable."""
        nb = len(self.bi)
        if nu is None:
            return (mpmath.zeros(1, nb), mpmath.zeros(nb, 1), mpmath.eye(nb))
        full = [[mpmath.mpf(nu[x][y]) * self.w[x][y] if x != y else 0
                 for y in range(self.n)] for x in range(self.n)]
        return _blocks(full, self.a, self.bi)

    def _jumps(self, nu1, nu2):
        """Sum of nu1 * nu2 over the jumps of an excursion, times gamma_A."""
        if nu1 is None or nu2 is None:
            return mpmath.mpf(0)
        prod = [[mpmath.mpf(float(nu1[x][y])) * mpmath.mpf(float(nu2[x][y]))
                 for y in range(self.n)] for x in range(self.n)]
        p_ab, p_ba, p_b = self._v(prod)
        g, wab, wba = self.g, self.w_ab, self.w_ba
        return (_one(p_ab * g * wba) + _one(wab * g * p_b * g * wba)
                + _one(wab * g * p_ba))

    def mean(self, nu):
        """E[X] per excursion."""
        with mpmath.workdps(DPS):
            v_ab, v_ba, v_b = self._v(nu)
            g, wab, wba = self.g, self.w_ab, self.w_ba
            return (_one(v_ab * g * wba) + _one(wab * g * v_b * g * wba)
                    + _one(wab * g * v_ba)) / self.gamma_a

    def product(self, nu1, nu2):
        """E[X1 X2] per excursion."""
        with mpmath.workdps(DPS):
            g, wab, wba = self.g, self.w_ab, self.w_ba

            def l_r(nu):
                v_ab, v_ba, v_b = self._v(nu)
                return v_ab + wab * g * v_b, v_b * g * wba + v_ba

            l1, r1 = l_r(nu1)
            l2, r2 = l_r(nu2)
            return (_one(l1 * g * r2) + _one(l2 * g * r1)
                    + self._jumps(nu1, nu2)) / self.gamma_a

    def renewal(self, nu):
        """Float dict of the renewal quantities of one scheme: the raw and
        central moments, the current j and the noise parts d1, d2, d3."""
        with mpmath.workdps(DPS):
            e_q, e_t = self.mean(nu), self.mean(None)
            e_q2, e_t2 = self.product(nu, nu), self.product(None, None)
            e_qt = self.product(nu, None)
            var_q, var_t = e_q2 - e_q**2, e_t2 - e_t**2
            cov_qt = e_qt - e_q * e_t
            mu = e_t + 1 / self.gamma_a
            delta2 = var_t + 1 / self.gamma_a**2
            j = e_q / mu
            d1 = var_q / mu
            d2 = delta2 * j**2 / mu
            d3 = -2 * j * cov_qt / mu
            out = dict(e_q=e_q, e_q2=e_q2, var_q=var_q, e_qt=e_qt,
                       cov_qt=cov_qt, e_t=e_t, e_t2=e_t2, var_t=var_t, mu=mu,
                       delta2=delta2, j=j, d1=d1, d2=d2, d3=d3,
                       d=d1 + d2 + d3)
            return {k: float(v) for k, v in out.items()}
