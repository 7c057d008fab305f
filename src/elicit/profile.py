"""The default solve of every 2-parameter problem: a 1-D search over shape.

Each 2-parameter model is a row of the product-form table r_k = h_k(phi)
P_k(t) (``distmodels``), so at fixed shape phi every moment is a polynomial
in one coordinate t, and the profile P(phi) = min_t F(t, phi) of the total
loss is searched over phi alone: variable projection (Golub & Pereyra, SIAM
J. Numer. Anal. 10, 1973).

**Inner.**  At fixed phi, dF/dt is a polynomial of degree 5 in t whose
second derivative increases (per sign pattern of the residuals, under
asymmetric losses), so it rises, falls and rises again: its least and its
greatest root are the only minima of F.  Below every single-moment
fit t_k (r_k(t_k) = m_hat_k) each residual is negative and above every fit
positive, so both roots lie between the fits.  Newton from the least fit
climbs monotonically to the least root, where dF/dt is concave, and from
an upper bound down to the greatest, where it is convex; a lane that meets
d^2F/dt^2 <= 0 has no root on its side and goes to the other end.  The
lower of the two wins.  On a scale family t is measured in units of the fit
T of the held moment K (below), so that it stays near 1.

**Outer.**  dP/dphi and d^2P/dphi^2 are taken along the curve that holds
one moment r_K at its fit: the constrained moment of a problem with c_K =
inf, whose t stays on that curve, and otherwise the active term with the
largest w_K m_hat_K^2.  By the envelope theorem any such curve gives dP/dphi,
and this one leaves out the largest term, whose rounding would swamp the
others.  Both are corrected for the lane's pending Newton step, so they are
exact to second order in its distance from t*.  In z = log(phi - lo), a grid
that depends on the model's bounds alone is scanned, SCAN_STEPS inner steps
per lane; the grid's least P and its neighbour across the sign change of dP
bracket the minimum, and ``newton_in_bracket`` refines it with the inner
lanes run to convergence, warm from the nearer end.  Where P still falls at
an end of the grid, the search marches on past it a decade at a time, to a
bracket, or until a decade lowers P by less than PTOL.  Each problem's rows
leave the search when they have converged, so its answer does not depend
on the others.

**Terminations.**  ``converged``; ``boundary`` where P rises from a closed
lower end of phi (lognormal's v2 = 0), scored there with the inner lanes run
to convergence and returned as that end; ``limit`` where
P falls to an infimum at an open end of phi that no shape attains (a point
mass as phi -> inf, two as beta2's phi -> 0, or the loglogistic shape
floor), returned where the march stopped, or at the shape nearest lo: P's
gap to such an infimum shrinks tenfold or more per decade, so what is left
is below PTOL / 9; and ``limit`` too where the inner minimum lies at t = 0,
or at beta2's t = phi, a point mass at 0 or at 1 which no theta attains,
and no P on FINE lies below its loss: log t = -LOG_CLIP is returned on a
scale family, and on beta2 the coordinate that is 0 (or below, on a fit of
a moment m_hat_K <= 0) as machine epsilon times the other, so each r_k is
within 3 eps of the point mass's; ``limit`` also where the one active term
of an unconstrained problem has m_hat_K <= 0, which no r_K > 0 fits: F
falls to its infimum at the point mass at 0, returned so at phi = lo + 1;
``exact_fit`` or ``constraint`` where F is 0 along a curve (one active term,
or none but a constraint), returned at phi = lo + 1; and, not converged,
``open_end`` where P still falls MARCH decades past an end of the grid, or
stops being finite, ``no_bracket`` where the signs of dP at the bracket's
ends disagree with the scan, and ``multimodal`` where another grid minimum
lies within ``RIVAL`` of the minimum found, or a P on FINE lies below the
point mass found; but as F >= 0, a minimum below EXACT times the size of
F's terms is ``converged`` whatever they say.
"""

from __future__ import annotations

import math

import numpy as np

from .distmodels import LOG_CLIP, _rising_inverse, newton_in_bracket
from .losses import SquaredLoss

GRID = np.linspace(-10.0, 8.0, 19) * math.log(10.0)  # z = log(phi - lo)
FINE = np.linspace(-10.0, 8.0, 181) * math.log(10.0)  # the same decades, ten points to each
SCAN_STEPS = 6      # inner Newton steps at each grid point
MAX_STEPS = 100     # a cap on inner Newton steps where they run to convergence
STEP_RTOL = 1e-7    # an inner Newton step this small, relative, is the last one
MARCH = 22          # decades the search marches past an end of the grid, at most
PTOL = 1e-12        # a decade of the march that lowers P less than this, relative, ends it
Z_TOL = 1e-14       # the outer search stops where its Newton step in z is this small
EXACT = 1e-24       # F this small against its terms' size fits every moment to 1e-12
RIVAL = 0.1         # another grid minimum within this of the minimum, relative, competes

_K = np.array([1.0, 2.0, 3.0])


def _derivative_table(*coefficients):
    """[1, s, s^2, s^3] @ table gives Q_k, Q_k' and Q_k'' for Q_k = sum_j c_kj s^j."""
    table = np.zeros((4, 9))
    for k, c in enumerate(coefficients):
        for order in range(3):
            table[:len(c), 3 * order + k] = c
            c = np.arange(1, len(c)) * c[1:]
    return table


# P_k(t) = t^k on a scale family, t^[k] = t (t+1) ... (t+k-1) on beta2.
_POWERS = _derivative_table([0.0, 1.0], [0.0, 0.0, 1.0], [0.0, 0.0, 0.0, 1.0])
_RISING = _derivative_table([0.0, 1.0], [0.0, 1.0, 1.0], [0.0, 2.0, 3.0, 1.0])


class _Rows:
    """The problems of one ``solve``, with what their rows need at every phi."""

    def __init__(self, model, em, kinds, eff, held):
        self.model, self.m_hat, self.kinds, self.eff = model, em.m_hat, kinds, eff
        self.squared = all(isinstance(kind, SquaredLoss) for kind in kinds)
        m2 = np.where(eff > 0.0, em.m_hat, 0.0) ** 2    # a held m_hat enters only through its fit
        neg, pos = (eff * [float(np.max(kind.weight(np.array([sign])))) for kind in kinds]
                    for sign in (-1.0, 1.0))
        self.size = (np.maximum(neg, pos) * m2).sum(axis=1)   # the size of F's terms
        self.fits = (eff > 0.0) & (em.m_hat > 0.0)
        self.open = ((eff > 0.0) & ~self.fits).any(axis=1) | ~self.fits.any(axis=1)
        self.pinned = held >= 0
        self.K = np.where(self.pinned, held, np.argmax(np.where(self.fits, pos * m2, -1.0), axis=1))
        # On a scale family every root lies below s_k rho_k^(1/k) for each
        # fit s_k: beyond it term k alone outweighs every negative term.
        C = np.where(self.fits, _K * neg * m2, 0.0).sum(axis=1, keepdims=True) / 4.0
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            self.grow = (0.5 + 0.5 * np.sqrt(1.0 + 4.0 * C / (_K * pos * m2))) ** (1.0 / _K)

    def point(self, rows, phi, start=None, steps=None):
        """P, dP/dphi, d^2P/dphi^2 and theta at each row's phi, and both lanes' next place.

        Pinned rows stay on the fit of their moment.  ``start`` holds both
        lanes' places from a nearby phi (log t on a scale family, t on
        beta2), or None.  Each lane takes ``steps`` Newton steps, or steps
        until its step falls below STEP_RTOL; it is scored at the last point
        it evaluated.
        """
        model, m_hat, n, ar = self.model, self.m_hat, len(rows), np.arange(len(rows))
        fits, K, pinned = self.fits[rows], self.K[rows], self.pinned[rows]
        h, L1, L2 = (np.broadcast_to(np.column_stack(v), (n, 3)) for v in model.h(phi, 2))
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            if model.scale:
                L = h if model.log else np.log(h)
                x = (np.log(m_hat) - L) / _K
                T = np.where(fits.any(axis=1) | pinned, x[ar, K], 0.0)
                H, fit = np.exp(_K * T[:, None] + L), np.exp(x - T[:, None])
                hi = np.min(np.where(fits, fit * self.grow[rows], math.inf), axis=1)
            else:
                H, T = h, None
                fit = np.minimum(_rising_inverse(m_hat / h), phi[:, None])
                hi = np.max(np.where(fits, fit, 0.0), axis=1)
                hi = np.where(((self.eff[rows] > 0.0) & (m_hat >= 1.0)).any(axis=1), phi, hi)
            lo = np.where(self.open[rows], 0.0, np.min(np.where(fits, fit, math.inf), axis=1))
            hi = np.where(fits.any(axis=1), np.maximum(hi, lo), lo)
            lo[pinned] = hi[pinned] = fit[ar[pinned], K[pinned]]
            T2 = np.tile(T, 2) if model.scale else 0.0
            lower, upper = np.tile(lo, 2), np.tile(hi, 2)
            if start is None:
                s = np.concatenate([lo, hi])
            else:
                s = np.clip(np.exp(start.T.ravel() - T2) if model.scale else start.T.ravel(), lower, upper)
            other, H2, eff = np.concatenate([hi, lo]), np.vstack([H, H]), np.tile(self.eff[rows], (2, 1))
            table, moving = (_POWERS if model.scale else _RISING), np.ones(2 * n, dtype=bool)
            for _ in range(steps or MAX_STEPS):
                S = s
                Q = H2[:, None, :] * ((S[:, None] ** np.arange(4.0)) @ table).reshape(-1, 3, 3)
                d = Q[:, 0] - m_hat
                W = eff if self.squared else eff * np.column_stack(
                    [kind.weight(d[:, i]) * np.ones(len(d)) for i, kind in enumerate(self.kinds)])
                gp = (W * Q[:, 1] * Q[:, 1] + W * d * Q[:, 2]).sum(axis=1)
                step = (W * d * Q[:, 1]).sum(axis=1) / gp
                if not moving.any():
                    break
                new = np.where((gp > 0.0) & np.isfinite(S - step), np.clip(S - step, lower, upper), other)
                s = np.where(moving, new, S)
                if steps is None:
                    moving &= np.abs(new - S) > STEP_RTOL * np.abs(S)
            F = np.where(np.isfinite(F := (W * d * d).sum(axis=1)), F, math.inf)
            pick = np.where(F[n:] < F[:n], ar + n, ar)
            (r, dr, d2r), d, W, step = Q[pick].transpose(1, 0, 2), d[pick], W[pick], step[pick]
            # Along s = s_K(phi) + u, which holds r_K: tau = ds_K / dphi.
            r_p, r_pp, r_sp = r * L1, r * (L1 * L1 + L2), dr * L1
            tau = (-r_p[ar, K] / dr[ar, K])[:, None]
            tau_p = (-(r_pp + (2.0 * r_sp + d2r * tau) * tau)[ar, K] / dr[ar, K])[:, None]
            D, X = r_p + dr * tau, r_sp + d2r * tau
            E = r_pp + (2.0 * r_sp + d2r * tau) * tau + dr * tau_p
            F_pu = (W * (dr * D + d * X)).sum(axis=1)
            dP = 2.0 * ((W * d * D).sum(axis=1) - np.where(pinned, 0.0, step * F_pu))
            d2P = 2.0 * ((W * (D * D + d * E)).sum(axis=1) - np.where(pinned, 0.0, F_pu * F_pu / gp[pick]))
            place = (lambda s: T2 + np.log(s)) if model.scale else (lambda s: s)
            theta = np.empty((n, 2))
            t = place(S)[pick]
            theta[:, model.t] = np.exp(t) if model.scale and not model.log else t
            theta[:, 1 - model.t] = phi if model.scale else phi - t
            return F[pick], dP, d2P, theta, place(s).reshape(2, -1).T


def solve(model, em, kinds, eff, held):
    """Each problem's theta and termination, one per row of ``eff``.

    ``held`` gives each problem's constrained moment index, or -1.
    """
    n, rows = len(eff), np.arange(len(eff))
    e = 1 - model.t     # the theta coordinate that phi moves at fixed t
    lo = model.domain[e][0] if model.scale else 0.0   # beta2's phi = a + b > 0
    flat = (eff > 0.0).sum(axis=1) == (held < 0)
    term = np.where(flat, np.where(held < 0, "exact_fit", "constraint"), "converged").astype(object)
    problems = _Rows(model, em, kinds, eff, np.where(flat & (held < 0), np.argmax(eff > 0.0, axis=1), held))

    # The scan, in z = log(phi - lo), where dP/dz = dP/dphi e^z.
    G, x = len(GRID), np.exp(GRID)
    P, dP, _, theta, lanes = problems.point(np.repeat(rows, G), np.tile(lo + x, n), steps=SCAN_STEPS)
    P, dP, lanes = P.reshape(n, G), dP.reshape(n, G) * x, lanes.reshape(n, G, 2)
    j = np.argmin(P, axis=1)
    theta, best = theta.reshape(n, G, 2)[rows, j], P[rows, j]
    done = flat | (dP[rows, j] == 0.0)
    if flat.any():
        theta[flat] = problems.point(rows[flat], np.full(flat.sum(), lo + 1.0), steps=1)[3]
    if model.scale and model.domain_closed and model.domain_closed[e][0]:
        P_end, dP_end, _, theta_end, _ = problems.point(rows, np.full(n, lo))
        end = ~done & (dP_end >= 0.0) & (P_end <= best)
        theta[end], best[end], term[end], done[end] = theta_end[end], P_end[end], "boundary", True
    # The bracket [za, zb] about the minimum, dP/dz < 0 at za and > 0 at zb, with its lanes.
    a = np.clip(np.where(dP[rows, j] < 0.0, j, j - 1), 0, G - 2)
    za, zb, la, lb = GRID[a], GRID[a + 1], lanes[rows, a], lanes[rows, a + 1]
    # Past an end of the grid where P still falls, march on a decade at a time.
    step = -np.sign(dP[rows, j]) * (GRID[1] - GRID[0])  # the way P falls from the minimum
    live = np.flatnonzero(~done & (j == np.where(step > 0.0, G - 1, 0)))
    z, P0, warm, term[live] = GRID[j], np.full(n, math.inf), lanes[rows, j], "open_end"
    for _ in range(MARCH):
        edge = lo + np.exp(z[live]) <= lo
        term[live[edge]] = "limit"      # no shape lies nearer lo
        live = live[~edge]
        if not live.size:
            break
        P1, dP1, _, theta1, lanes1 = problems.point(live, lo + np.exp(z[live]), warm[live])
        lower, still = P1 < P0[live], P1 < P0[live] * (1.0 - PTOL)
        rise = still & (dP1 * step[live] > 0.0)
        k, up = live[rise], step[live[rise]] > 0.0
        za[k], zb[k] = np.where(up, z[k] - step[k], z[k]), np.where(up, z[k], z[k] - step[k])
        la[k] = np.where(up[:, None], warm[k], lanes1[rise])
        lb[k] = np.where(up[:, None], lanes1[rise], warm[k])
        term[k] = "converged"
        term[live[~still]] = np.where(np.isfinite(P1[~still]), "limit", "open_end")
        i = live[lower]
        best[i], theta[i], P0[i], warm[i] = P1[lower], theta1[lower], P1[lower], lanes1[lower]
        live = live[still & ~rise]
        z[live] += step[live]
    search = np.flatnonzero(term == "converged")
    # Both ends of each bracket, to convergence, warm from the scan or the march.
    m, z = len(search), np.concatenate([za[search], zb[search]])
    P_e, dP_e, d2P_e, theta_e, lanes_e = problems.point(
        np.tile(search, 2), lo + np.exp(z), np.concatenate([la[search], lb[search]]))
    g, dg = dP_e * np.exp(z), (d2P_e * np.exp(z) + dP_e) * np.exp(z)
    ok = (g[:m] <= 0.0) & (g[m:] >= 0.0)
    term[search[~ok]] = "no_bracket"
    near = np.where(-g[:m] < g[m:], rows[:m], rows[:m] + m)[ok]
    search, warm, A, B = search[ok], lanes_e[near], np.flatnonzero(ok), np.flatnonzero(ok) + m
    theta[search], best[search] = theta_e[near], P_e[near]

    def f(live, z):
        rows = search[live]
        best[rows], dP, d2P, theta[rows], warm[live] = problems.point(rows, lo + np.exp(z), warm[live])
        return dP * np.exp(z), (d2P * np.exp(z) + dP) * np.exp(z)

    newton_in_bracket(f, z[A], z[B], g[A], g[B], dg[A], dg[B], Z_TOL)
    # Another grid minimum, away from j, within RIVAL of the minimum found competes with it.
    Pp = np.pad(P, ((0, 0), (1, 1)), constant_values=math.inf)
    rival = (P <= Pp[:, :-2]) & (P <= Pp[:, 2:]) & (np.abs(np.arange(G) - j[:, None]) > 1)
    term[(rival & (P <= best[:, None] + RIVAL * np.abs(best[:, None]))).any(axis=1)
         & np.isin(term, ("converged", "limit"))] = "multimodal"
    # A flat row on m_hat_K <= 0: every r_K > 0, so F falls to its infimum as t -> 0, a
    # point mass at 0, placed by the rule below.
    mass = flat & (held < 0) & (em.m_hat[problems.K] <= 0.0)
    theta[mass, model.t] = -math.inf if model.log else 0.0
    theta[mass, e], term[mass] = lo + 1.0, "limit"
    # F >= 0, so a minimum at F's rounding level is global, whatever the signs or rivals say.
    term[np.isin(term, ("no_bracket", "multimodal")) & (best <= EXACT * problems.size)] = "converged"
    # t = 0, or beta2's t = phi: a point mass at 0 or 1, which no theta attains.  On a scale
    # family t goes to the end of the log clip; on beta2 the coordinate at 0 a relative eps inside.
    if model.scale:
        edge = theta[:, model.t] <= (-math.inf if model.log else 0.0)
        theta[edge, model.t] = -LOG_CLIP if model.log else math.exp(-LOG_CLIP)
    else:
        edge = (theta <= 0.0).any(axis=1)
        theta[edge] = np.maximum(theta[edge], np.finfo(float).eps * theta[edge].max(axis=1, keepdims=True))
    # The point mass is in every phi's closure, so no P exceeds its loss.  Where no P on FINE,
    # its inner lanes run to convergence, lies more than PTOL below it either, P is flat and
    # the point mass is least, even where the march found no direction (dP is 0/0 on the held
    # curve at t = 0) and ended open_end; where one does, the search missed a lower shape.
    k = np.flatnonzero(edge & ~mass)
    if k.size:
        P_k = problems.point(np.repeat(k, len(FINE)), np.tile(lo + np.exp(FINE), len(k)))[0]
        least = best[k] <= P_k.reshape(len(k), -1).min(axis=1) * (1.0 + PTOL)
        settled = np.isin(term[k], ("converged", "exact_fit", "no_bracket", "multimodal", "open_end"))
        term[k[least & settled]] = "limit"
        term[k[~least]] = "multimodal"
    return theta, term
