"""Minimize the weighted total loss over a model's parameter domain.

Every objective is a least-squares problem.  Over the active terms (finite,
strictly positive effective weight) it is rho . rho, with one residual per
term

    rho_i = sqrt(eff_i * w_i(d_i)) * d_i,    d_i = r_i(theta) - m_hat_i,

where w_i is 1 for the squared loss and a or b (by the sign of d_i) for the
asymmetric one.  Its Jacobian is diag(sqrt(eff * w)) . moment_jacobian.

Problems are solved in batches.  One lane is one (weight vector, start)
pair, and the residual is evaluated for every lane at once: a row of
effective weights per lane, with inactive terms masked to a zero residual
rather than summed, so a moment that is undefined on an inactive term
rejects nothing.  Every operation acts on each lane alone, so a lane's
result does not depend on which other lanes share its batch.

Free coordinates are smoothly reparameterized (log above a lower bound,
logit inside an interval) so iterates stay strictly interior; the Jacobian
in z picks up the factor d theta / d z.  Three solvers share the residual:

* ``levenberg_marquardt`` (the default): damped Gauss-Newton on (rho, J),
  advancing every lane of the batch together, with isotropic damping
  relative to the largest diagonal entry of J^T J and Nielsen's damping
  update.  A trial point where rho or J is undefined or not finite is a
  rejected step.
* ``nelder_mead``: a simplex on rho . rho, run lane by lane.
* ``gradient_descent``: steepest descent on rho . rho with gradient
  2 J^T rho and backtracking line search, run lane by lane, kept
  specifically to reproduce its documented sensitivity to the starting point
  on ill-conditioned problems.

Each problem runs from a moment-matching start plus random multistarts, and
the lowest (loss, theta) over its lanes wins.

The residuals leave out the sample variance v_hat_i that each sub-loss
carries.  It is constant in theta; left in, it can dwarf the data-dependent
part, so that float64 cannot see the residuals the theory checks are meant
to judge.  ``Solution.loss`` adds the constant sum_{active} eff_i * v_hat_i
back, so it reports the full total loss that the meshgrid oracle also
evaluates.

Every one-parameter model is quadratic, r(theta) = (a theta, b theta +
c theta^2), so r_i(theta) = t has a closed-form root for either moment:
t / a, or 2 t / (b + sqrt(b^2 + 4 c t)).  A one-parameter model with exactly
one active finite-weight sub-loss i is an exact fit: its minimizer is that
root at t = m_hat_i whenever m_hat_i lies strictly inside the model's image;
otherwise the iterative solve finds the boundary-side optimum.  With both
sub-losses active the loss is a piecewise quartic in theta, and its least
interior stationary point is found in closed form for every such problem
at once (``_least_stationary_points``); only a problem whose optimum lies
at an end of the domain goes on to the iterative solve.

An infinite weight on coordinate i is never summed into the objective; it
becomes the hard constraint r_i(theta) = m_hat_i.  A 1-parameter model
takes the same closed-form root, clamped to just inside the model's image
when m_hat_i lies outside it.  A 2-parameter model eliminates one
coordinate through the constraint in closed form and minimizes the remaining
residuals over the other; its starts are lanes of the same batch as the
finite-weight problems.  Such a lane keeps 0 in the z of the eliminated
coordinate, and its Jacobian column for the free coordinate f is
J_f + J_e * d theta_e / d theta_f, with d theta_e / d theta_f =
-(d r_i / d theta_f) / (d r_i / d theta_e), while the eliminated column is
0, so a Levenberg-Marquardt step never moves it.  Nelder-Mead and gradient
descent see only the free coordinate of such a lane.

A brute-force meshgrid oracle provides an independent cross-check on the
iterative solvers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .distmodels import ParametricModel, clamp_to_image, libm
from .errors import DomainError, ElicitError, EmptyGrid, OutOfImage
from .losses import (
    EmpiricalMoments,
    SquaredLoss,
    WeightVector,
    default_kinds,
    sub_loss_vector,
    total_loss,
)

CONSTRAINT_RTOL = 1e-9
METHODS = ("levenberg_marquardt", "nelder_mead", "gradient_descent")
GRID_SLAB = 1 << 14  # grid points the meshgrid oracle evaluates at a time
NEWTON_STEPS = 3  # polishing steps on each root of a 1-parameter problem's F'


@dataclass(frozen=True)
class OptimizerConfig:
    """Settings of the iterative solve, which every 2-parameter problem takes.

    A 1-parameter problem takes it only when its optimum lies at an end of
    the domain; the closed-form answers take no start and no iteration.
    """

    method: str = "levenberg_marquardt"
    max_iters: int = 10000
    tol_loss: float = 1e-12
    tol_step: float = 1e-10
    multistart: int = 4
    init: str | tuple = "moment_match"
    seed: int = 0

    def __post_init__(self):
        if self.method not in METHODS:
            raise DomainError(f"unknown optimizer method {self.method!r}")
        for key in ("tol_loss", "tol_step"):
            if not 0 < getattr(self, key) < math.inf:
                raise DomainError(f"{key} = {getattr(self, key)} must be positive and finite")
        if self.max_iters < 1:
            raise DomainError("max_iters must be at least 1")
        if self.multistart < 0:
            raise DomainError("multistart count must be nonnegative")
        if not 0 <= self.seed < 2**64:
            raise DomainError(f"optimizer seed {self.seed} must fit in 64 unsigned bits")
        init = self.init
        ok = init == "moment_match" if isinstance(init, str) else all(map(math.isfinite, init))
        if not ok:
            raise DomainError(f"optimizer init {init!r} must be 'moment_match' or finite numbers")


@dataclass(frozen=True)
class Solution:
    """A minimizer and its total loss.

    ``loss`` is the minimized rho . rho plus the constant sum_{active} eff_i *
    v_hat_i, i.e. the full weighted total loss including the sample
    variances; ``sub_losses`` include v_hat as well.

    ``termination`` says why the solve stopped: ``converged`` (the solver's
    stopping rule held), ``max_iters``, ``no_descent`` (no step was left
    where the loss is defined, or gradient descent's line search found no
    descent), ``exact_fit`` (one active sub-loss on a
    1-parameter model) or ``constraint`` (an infinite weight on a
    1-parameter model), the two solved by the closed-form root of the
    constrained moment, or ``exact_minimum`` (both sub-losses active on a
    1-parameter model, an interior optimum): the least root of the loss's
    cubic derivative.  These three take no iterations.  ``converged`` is
    False after ``max_iters``, when no start reached a point with a finite
    loss, and when a 2-parameter constrained solve ends off its constraint.

    ``n_iters`` and ``n_evals`` (residual evaluations) are summed over the
    problem's starts; ``exact_minimum`` scores each candidate root and
    finite end of the domain once.  ``start_index`` is the winning start's
    place in the start list: 0 for the configured init, 1..multistart for
    the random offsets; None when no start was used (a closed form or the
    meshgrid).
    """

    theta_star: np.ndarray
    r_star: np.ndarray
    loss: float
    sub_losses: np.ndarray
    converged: bool
    n_iters: int
    start_used: np.ndarray
    clamped: bool = False
    termination: str = "converged"
    start_index: int | None = None
    n_evals: int = 0


# ---------------------------------------------------------------------------
# Reparameterization: z (unconstrained) <-> theta (interior), row-wise
# ---------------------------------------------------------------------------

# Clip limits keep exp/expit strictly inside their open ranges in float64.
_LOG_CLIP = 700.0
_LOGIT_CLIP = 36.0


# scipy.special's expit and logit, in the same floating-point operations and
# the same libm calls, so z <-> theta keeps its bits without importing scipy.
def _expit(x: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + libm(math.exp, -x))


def _logit(p: np.ndarray) -> np.ndarray:
    """log(p / (1 - p)), taken as log1p(s) - log1p(-s), s = 2 (p - 1/2), for p in [0.3, 0.65]."""
    p = np.asarray(p, dtype=float)
    out = np.empty_like(p)
    outer = (p < 0.3) | (p > 0.65)
    q = p[outer]
    out[outer] = libm(math.log, q / (1.0 - q))
    s = 2.0 * (p[~outer] - 0.5)
    out[~outer] = libm(math.log1p, s) - libm(math.log1p, -s)
    return out


def _to_z(theta: np.ndarray, domain) -> np.ndarray:
    """z for an (..., d) array of interior points."""
    theta = np.asarray(theta, dtype=float)
    z = np.empty_like(theta)
    for j, (lo, hi) in enumerate(domain):
        x = theta[..., j]
        if lo is None:
            z[..., j] = x
        elif hi is None:
            z[..., j] = np.log(x - lo)
        else:
            z[..., j] = _logit((x - lo) / (hi - lo))
    return z


def _from_z(z: np.ndarray, domain) -> tuple[np.ndarray, np.ndarray]:
    """theta and d theta / d z, elementwise, for an (..., d) array of z."""
    theta = np.empty_like(z)
    dtheta = np.empty_like(z)
    for j, (lo, hi) in enumerate(domain):
        x = z[..., j]
        if lo is None:
            theta[..., j] = x
            dtheta[..., j] = 1.0
        elif hi is None:
            e = np.exp(np.minimum(np.maximum(x, -_LOG_CLIP), _LOG_CLIP))
            theta[..., j] = lo + e
            dtheta[..., j] = e
        else:
            s = _expit(np.minimum(np.maximum(x, -_LOGIT_CLIP), _LOGIT_CLIP))
            theta[..., j] = lo + (hi - lo) * s
            dtheta[..., j] = (hi - lo) * s * (1.0 - s)
    return theta, dtheta


def interior_start(model: ParametricModel, theta) -> np.ndarray:
    """Pull a candidate start strictly inside the model domain."""
    theta = np.asarray(theta, dtype=float).reshape(model.theta_dim)
    out = theta.copy()
    for j, (lo, hi) in enumerate(model.domain):
        if lo is not None and hi is not None:
            pad = 1e-6 * (hi - lo)
            out[j] = min(max(out[j], lo + pad), hi - pad)
        elif lo is not None:
            out[j] = max(out[j], lo + 1e-6)
    return out


# ---------------------------------------------------------------------------
# Core solvers (operating on an unconstrained residual rho(z))
#
# ``fun(z, lanes, jac)`` evaluates the rows z of the given lanes and returns
# (rho, J or None, ok), ok marking the rows where rho is defined and finite.
# ---------------------------------------------------------------------------


def _sq(rho, ok) -> np.ndarray:
    """rho . rho per row, or inf where the residual is undefined."""
    return np.where(ok, (rho * rho).sum(axis=1), math.inf)


def _lm_point(fun, z, lanes):
    """f, J^T J as (d, d, n) and J^T rho as (d, n), and where all are defined and finite.

    Lanes on the last axis make each term one long elementwise pass.  The
    sums over moment rows run from 0.0 in row order, as numpy's reduction.
    """
    rho, J, ok = fun(z, lanes, jac=True)
    f = (rho * rho).sum(axis=1)
    A = g = 0.0
    for Jm, rm in zip(J.transpose(1, 2, 0).copy(), rho.T.copy()):
        A = A + Jm[:, None] * Jm[None, :]
        g = g + Jm * rm
    ok = ok & np.isfinite(f) & np.isfinite(A).all(axis=(0, 1)) & np.isfinite(g).all(axis=0)
    return f, A, g, ok


def _damped_step(A, damping, g):
    """h solving (A + damping * I) h = -g per lane (last axis), in closed form for d <= 2.

    nan where the damped matrix is singular, so the step is rejected.
    """
    if len(g) == 1:
        return -g / (A[0] + damping)
    a = A[0, 0] + damping
    c = A[1, 1] + damping
    b = A[0, 1]
    det = a * c - b * b
    det = np.where(det == 0.0, math.nan, det)
    return np.stack([(b * g[1] - c * g[0]) / det, (b * g[0] - a * g[1]) / det])


def _levenberg_marquardt(point, z0, max_iters, tol_loss, tol_step):
    """Damped Gauss-Newton on f = rho . rho, every row of z0 a lane.

    ``point(z, lanes)`` gives (f, J^T J, J^T rho, ok) for the rows z of the
    given lanes, laid out as by ``_lm_point``.  Each lane's step solves
    (J^T J + mu * s * I) h = -J^T rho, where s is the largest diagonal entry
    of J^T J at its current point, so mu is relative to the curvature there.
    From a start whose moments miss the data by many orders of magnitude,
    J^T J falls by as many orders within a few steps; an absolute damping
    would lag behind it for dozens of short steps.  A step is accepted when
    it lowers f, and mu then follows Nielsen's update; otherwise mu grows by
    a doubling factor.  A lane has converged when f reaches 0 or J^T rho
    vanishes, or when a step of at most tol_step * (1 + |z|) lowers f by at
    most tol_loss * f (a rejected step lowers it by nothing); it ends in
    no_descent when such a step lands where rho or J is undefined, or when
    its start is undefined.  A lane leaves the batch once it stops.  z and h
    are (d, n), so reducing over the d <= 2 coordinates is elementwise.

    Returns z, f, iterations, termination and evaluations, one per lane.
    """
    n, d = z0.shape
    z_out = np.array(z0, dtype=float)
    f_out = np.full(n, math.inf)
    iters = np.zeros(n, dtype=int)
    evals = np.ones(n, dtype=int)
    term = np.full(n, "no_descent", dtype=object)
    diagonal = np.arange(d)

    f, A, g, ok = point(z_out, np.arange(n))
    lanes = np.flatnonzero(ok)
    z, f, A, g = z_out[lanes].T, f[lanes], A[..., lanes], g[:, lanes]
    mu, nu = np.full(len(lanes), 1e-3), np.full(len(lanes), 2.0)
    for it in range(1, max_iters + 1):
        if not lanes.size:
            break
        flat = (f == 0.0) | ~g.any(axis=0)
        damping = mu * A[diagonal, diagonal].max(axis=0)
        h = _damped_step(A, damping, g)
        # A non-finite h is neither small nor tried: it is rejected and mu grows.
        small = np.abs(h).max(axis=0) <= tol_step * (1.0 + np.abs(z).max(axis=0))
        tried = ~flat & np.isfinite(h).all(axis=0)
        # Untried lanes are evaluated where they stand, and the result is dropped.
        f_t, A_t, g_t, ok_t = point(np.where(tried, z + h, z).T, lanes)
        evals[lanes] += tried
        better = tried & ok_t & (f_t < f)
        df = f - f_t
        predicted = (h * (damping * h - g)).sum(axis=0)
        gain = np.where(predicted > 0.0, df / predicted, 1.0)
        mu = np.where(better, mu * np.maximum(1.0 / 3.0, 1.0 - (2.0 * gain - 1.0) ** 3), mu * nu)
        nu = np.where(better, 2.0, 2.0 * nu)
        z = np.where(better, z + h, z)
        f = np.where(better, f_t, f)
        A = np.where(better, A_t, A)
        g = np.where(better, g_t, g)
        # A small step that does not lower f meets the stopping rule; one that
        # lands where rho or J is undefined leaves no descent to take.
        rejected = ~flat & ~better & small
        stop = flat | rejected | (better & small & (df <= tol_loss * f))
        if stop.any():
            done = lanes[stop]
            z_out[done], f_out[done] = z[:, stop].T, f[stop]
            iters[done] = it - flat[stop]
            term[done] = np.where((rejected & ~ok_t)[stop], "no_descent", "converged")
            keep = ~stop
            lanes, z, f, A, g, mu, nu = (x[..., keep] for x in (lanes, z, f, A, g, mu, nu))
    z_out[lanes], f_out[lanes] = z.T, f
    iters[lanes] = max_iters
    term[lanes] = "max_iters"
    return z_out, f_out, iters, term, evals


def _nelder_mead(f, z0, max_iters, tol_loss, tol_step):
    """Standard simplex method; stops on relative loss spread and simplex size."""
    n = len(z0)
    alpha, gamma, rho, sigma = 1.0, 2.0, 0.5, 0.5
    step = np.where(np.abs(z0) > 1e-8, 0.1 * np.abs(z0), 0.1)
    simplex = [np.array(z0, dtype=float)]
    for j in range(n):
        v = simplex[0].copy()
        v[j] += step[j]
        simplex.append(v)
    simplex = np.array(simplex)
    values = np.array([f(v) for v in simplex])

    n_iters = 0
    termination = "max_iters"
    for n_iters in range(1, max_iters + 1):
        order = np.argsort(values, kind="stable")
        simplex, values = simplex[order], values[order]
        f_best, f_worst = values[0], values[-1]
        loss_ok = (f_worst - f_best) <= tol_loss * (1.0 + abs(f_best))
        size = np.max(np.abs(simplex[1:] - simplex[0]))
        step_ok = size <= tol_step * (1.0 + np.max(np.abs(simplex[0])))
        if loss_ok and step_ok:
            termination = "converged"
            break

        centroid = simplex[:-1].mean(axis=0)
        reflected = centroid + alpha * (centroid - simplex[-1])
        f_r = f(reflected)
        if f_r < values[0]:
            expanded = centroid + gamma * (reflected - centroid)
            f_e = f(expanded)
            if f_e < f_r:
                simplex[-1], values[-1] = expanded, f_e
            else:
                simplex[-1], values[-1] = reflected, f_r
        elif f_r < values[-2]:
            simplex[-1], values[-1] = reflected, f_r
        else:
            if f_r < values[-1]:
                contracted = centroid + rho * (reflected - centroid)
            else:
                contracted = centroid + rho * (simplex[-1] - centroid)
            f_c = f(contracted)
            if f_c < min(f_r, values[-1]):
                simplex[-1], values[-1] = contracted, f_c
            else:
                for j in range(1, n + 1):
                    simplex[j] = simplex[0] + sigma * (simplex[j] - simplex[0])
                    values[j] = f(simplex[j])

    order = np.argsort(values, kind="stable")
    return simplex[order][0], float(values[order][0]), n_iters, termination


def _gradient_descent(f, grad, z0, max_iters, tol_loss, tol_step):
    """Steepest descent with Armijo backtracking; no safeguards by design.

    ``grad(z)`` returns None where the gradient is undefined.
    """
    z = np.array(z0, dtype=float)
    fz = f(z)
    n_iters = 0
    termination = "max_iters"
    for n_iters in range(1, max_iters + 1):
        g = grad(z)
        gnorm2 = math.inf if g is None else float(g @ g)
        if not np.isfinite(gnorm2):
            termination = "no_descent"
            break
        if gnorm2 == 0.0:
            termination = "converged"
            break
        t = 1.0
        accepted = False
        for _ in range(60):
            z_new = z - t * g
            f_new = f(z_new)
            if np.isfinite(f_new) and f_new <= fz - 1e-4 * t * gnorm2:
                accepted = True
                break
            t *= 0.5
        if not accepted:
            termination = "no_descent"  # no descent left at line-search resolution
            break
        step = np.max(np.abs(z_new - z))
        df = fz - f_new
        z, fz = z_new, f_new
        if df <= tol_loss * (1.0 + abs(fz)) and step <= tol_step * (1.0 + np.max(np.abs(z))):
            termination = "converged"
            break
    return z, float(fz), n_iters, termination


def brentq(f, xa, xb, xtol=2e-12, rtol=4 * np.finfo(float).eps, maxiter=100) -> float:
    """A root of f in [xa, xb] by Brent's method (Brent 1973, ch. 4).

    The steps of scipy.optimize.brentq, so the same root to the bit.  Raises
    ValueError on equal signs at the ends or a nan, RuntimeError after maxiter.
    """
    def fx(x):
        if math.isnan(y := float(f(x))):
            raise ValueError(f"the function value at x={x} is nan")
        return y

    xpre, xcur = float(xa), float(xb)
    fpre, fcur = fx(xpre), fx(xcur)
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    if (fpre < 0.0) == (fcur < 0.0):
        raise ValueError("f(a) and f(b) must have different signs")
    xblk = fblk = spre = scur = 0.0
    for _ in range(maxiter):
        if fpre != 0.0 and fcur != 0.0 and (fpre < 0.0) != (fcur < 0.0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2.0
        sbis = (xblk - xcur) / 2.0
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:  # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:  # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            if 2.0 * abs(stry) < min(abs(spre), 3.0 * abs(sbis) - delta):
                spre, scur = scur, stry  # good short step
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0 else -delta)
        fcur = fx(xcur)
    raise RuntimeError(f"brentq did not converge in {maxiter} iterations")


def _run_lane(fun, lane, z0, free, config):
    """Nelder-Mead or gradient descent on one lane: (z, f, iterations, termination, evals).

    The solver moves only the coordinates of z0 flagged in ``free``.
    """
    lanes = np.array([lane])
    evals = 0

    def full(x):
        z = z0.copy()
        z[free] = x
        return z[None]

    def f(x):
        nonlocal evals
        evals += 1
        rho, _, ok = fun(full(x), lanes)
        return float(_sq(rho, ok)[0])

    def grad(x):
        nonlocal evals
        evals += 1
        rho, J, ok = fun(full(x), lanes, jac=True)
        return 2.0 * (J * rho[:, :, None]).sum(axis=1)[0, free] if ok[0] else None

    args = (z0[free], config.max_iters, config.tol_loss, config.tol_step)
    if config.method == "gradient_descent":
        x, *out = _gradient_descent(f, grad, *args)
    else:
        x, *out = _nelder_mead(f, *args)
    return (full(x)[0], *out, evals)


def _run_solver(fun, z0, free, config):
    """Solve every lane (row of z0): z, f, iterations, terminations and evaluations.

    ``free`` flags, per lane, the coordinates of z the solver may move.
    """
    if config.method == "levenberg_marquardt":
        return _levenberg_marquardt(lambda z, lanes: _lm_point(fun, z, lanes), z0,
                                    config.max_iters, config.tol_loss, config.tol_step)
    runs = [_run_lane(fun, k, z, free[k], config) for k, z in enumerate(z0)]
    z, f, iters, term, evals = zip(*runs)
    return (np.array(z), np.array(f), np.array(iters), np.array(term, dtype=object),
            np.array(evals))


# ---------------------------------------------------------------------------
# Initialization
# ---------------------------------------------------------------------------


def moment_match_init(model: ParametricModel, em: EmpiricalMoments) -> np.ndarray:
    """An interior start matching the low-order sample moments where it can.

    One-parameter families invert the first moment (clamped into its image).
    The log-normal map is inverted in closed form; gamma2/beta2/loglogistic
    solve the first two moment equations, falling back to the domain center
    when the sample moments are infeasible for the family.
    """
    m = em.m_hat
    if model.theta_dim == 1:
        r1, _ = clamp_to_image(model, float(m[0]))
        return interior_start(model, [model.theta_from_r1(r1)])

    name = model.name
    try:
        if name == "lognormal":
            if m[0] <= 0 or m[1] <= 0:
                return model.domain_center()
            v2 = math.log(m[1]) - 2.0 * math.log(m[0])
            v2 = max(v2, 1e-6)
            # Keep u consistent with the clamped v2.
            u = math.log(m[0]) - 0.5 * v2
            return np.array([u, v2])
        if name == "gamma2":
            var = m[1] - m[0] ** 2
            if m[0] <= 0 or var <= 0:
                return model.domain_center()
            a = m[0] ** 2 / var
            b = var / m[0]
            return interior_start(model, [a, b])
        if name == "beta2":
            var = m[1] - m[0] ** 2
            if not 0 < m[0] < 1 or var <= 0 or var >= m[0] * (1 - m[0]):
                return model.domain_center()
            common = m[0] * (1 - m[0]) / var - 1.0
            return interior_start(model, [m[0] * common, (1 - m[0]) * common])
        if name == "loglogistic":
            # m2/m1^2 = tan(c)/c with c = pi/b; solvable on (1, tan(c_max)/c_max).
            ratio = m[1] / m[0] ** 2 if m[0] > 0 else 0.0
            b_lo = model.domain[1][0] + 1e-6
            c_max = math.pi / b_lo
            if not 1.0 < ratio < math.tan(c_max) / c_max:
                return model.domain_center()
            b = brentq(
                lambda b: math.tan(math.pi / b) / (math.pi / b) - ratio,
                b_lo,
                1e8,
                xtol=1e-12,
            )
            c = math.pi / b
            a = m[0] * math.sin(c) / c
            return interior_start(model, [a, b])
    except (ValueError, OverflowError):
        return model.domain_center()
    return model.domain_center()


def _multistart_offsets(config: OptimizerConfig, dim: int) -> np.ndarray:
    if config.multistart == 0:
        return np.empty((0, dim))
    rng = np.random.Generator(np.random.Philox(key=(int(config.seed) << 64) | 0x6D73))
    return rng.uniform(-2.0, 2.0, size=(config.multistart, dim))


def _resolve_init(model, em, config) -> np.ndarray:
    if isinstance(config.init, str):
        return moment_match_init(model, em)
    return interior_start(model, np.asarray(config.init, dtype=float))


def _starts(x0, domain, config):
    """x0, then its multistart perturbations in z space."""
    z0 = _to_z(x0, domain)
    offsets = _multistart_offsets(config, len(domain))
    return [x0, *_from_z(z0 + offsets, domain)[0]]


# ---------------------------------------------------------------------------
# minimize
# ---------------------------------------------------------------------------


def _active_weights(weights: WeightVector) -> list[float]:
    """Effective weights with every inactive term (zero or infinite weight) set to 0."""
    return [e if 0.0 < e < math.inf else 0.0 for e in weights.effective.tolist()]


def _loss_constant(eff, em: EmpiricalMoments) -> np.ndarray:
    """sum_i eff_i * v_hat_i, from 0.0 in order, per row of active weights: no theta moves it."""
    return sum((eff[:, i] * em.v_hat[i] for i in range(eff.shape[1])), 0.0)


def _finite_objective(model, em, kinds, eff):
    """The residual over the active terms, as ``residual(theta, lanes, jac=False)``.

    ``eff`` holds one row of effective weights per lane, 0 on every inactive
    term; row k of the (n, d) ``theta`` belongs to lane ``lanes[k]``.  rho_i
    = sqrt(eff_i * w_i(d_i)) * d_i with d_i = r_i - m_hat_i on the active
    terms and 0 on the others; squared losses have w_i = 1, so their roots
    are taken once.  Returns (rho, d rho / d theta, moment Jacobian, ok),
    the Jacobians None unless ``jac``; ok marks the rows inside the domain
    with a finite rho.  v_hat is left out, so the solvers see the residuals
    down to float64 resolution; callers add ``_loss_constant`` back.
    """
    m_hat = em.m_hat
    active = eff > 0.0
    squared = all(isinstance(kind, SquaredLoss) for kind in kinds)
    root = np.sqrt(eff) if squared else None

    def residual(theta, lanes, jac=False):
        d = model.moments_grid(theta) - m_hat
        on = active[lanes]
        if squared:
            s = root[lanes]
        else:
            w = np.empty_like(d)
            for i, kind in enumerate(kinds):
                w[:, i] = kind.weight(d[:, i])
            s = np.sqrt(eff[lanes] * w)
        rho = np.where(on, s * d, 0.0)
        ok = model.in_domain(theta) & np.isfinite(rho).all(axis=1)
        if not jac:
            return rho, None, None, ok
        jr = model.jacobian_grid(theta)
        return rho, np.where(on[..., None], s[:, :, None] * jr, 0.0), jr, ok

    return residual


def _lane_objective(model, residual, eliminated):
    """``fun`` over the z rows of a batch, and ``thetas(z, lanes)`` decoding them.

    ``residual`` is the batch's ``_finite_objective``.  ``eliminated`` lists
    (lo, hi, free index, constraint index, build) per constrained problem:
    its lanes lo..hi-1 search the free coordinate, ``build`` supplies the
    other from the constraint, and the constraint's row d r_i / d theta is
    read from the residual's moment Jacobian: one ``jacobian_grid`` each.
    """

    def thetas(z, lanes):
        theta, dtheta = _from_z(z, model.domain)
        for lo, hi, f, _, build in eliminated:
            rows = (lanes >= lo) & (lanes < hi)
            theta[rows] = build(theta[rows, f])
        return theta, dtheta

    def fun(z, lanes, jac=False):
        theta, dtheta = thetas(z, lanes)
        rho, J, jr, ok = residual(theta, lanes, jac)
        if not jac:
            return rho, None, ok
        Jz = J * dtheta[:, None, :]
        for lo, hi, f, i, _ in eliminated:
            rows = (lanes >= lo) & (lanes < hi)
            e = 1 - f
            slope = -jr[rows, i, f] / jr[rows, i, e]
            Jz[rows] = 0.0
            Jz[rows, :, f] = ((J[rows, :, f] + J[rows, :, e] * slope[:, None])
                              * dtheta[rows, f, None])
        return rho, Jz, ok

    return fun, thetas


def _winners(spans, end, start):
    """Each problem's best candidate: its lane, theta, f and whether it is ok.

    ``end`` and ``start`` hold (theta, f, ok) per lane at the solver's end
    and raw start; lanes spans[p]..spans[p+1]-1 are problem p's.  A stable
    sort of the candidates (each lane's end, then its start, in lane order)
    by (problem, not ok, f, theta) puts first the lowest ok (f, theta), the
    earlier one on a tie; a problem with no ok candidate gets one not ok.
    """
    theta, f, ok = (np.stack(pair, axis=1) for pair in zip(end, start))
    theta, f, ok = theta.reshape(len(f) * 2, -1), f.ravel(), ok.ravel()
    problem = np.repeat(np.arange(len(spans) - 1), 2 * np.diff(spans))
    win = np.lexsort((*theta.T[::-1], f, ~ok, problem))[2 * spans[:-1]]
    return win // 2, theta[win], f[win], ok[win]


def _solution(theta, r_star, loss, kinds, em, termination="converged", n_iters=0,
              start_used=None, clamped=False, converged=True, start_index=None,
              n_evals=0, sub_losses=None) -> Solution:
    """A Solution; it has not converged after max_iters or without a finite loss."""
    theta = np.asarray(theta)
    if sub_losses is None:
        with np.errstate(over="ignore", invalid="ignore"):
            sub_losses = sub_loss_vector(kinds, r_star, em)
    return Solution(
        theta_star=theta,
        r_star=r_star,
        loss=float(loss),
        sub_losses=sub_losses,
        converged=converged and termination != "max_iters" and math.isfinite(loss),
        n_iters=int(n_iters),
        start_used=theta if start_used is None else np.asarray(start_used),
        clamped=clamped,
        termination=termination,
        start_index=start_index,
        n_evals=int(n_evals),
    )


def _solve_constrained_1p(model, i, target):
    """theta with r_i(theta) = target for a 1-parameter model, clamping to the image.

    Both moments invert in closed form.  The r_2 root is kept in [t_lo, t_hi]:
    t_lo at r_1 = 1e-9, pulled inside the domain, and for a bounded image
    (the binomial's) t_hi at r_1 = K (1 - 1e-9).  A target that r_2 does not
    reach strictly inside those ends is clamped to the nearer one.
    """
    if i == 0:
        r1, clamped = clamp_to_image(model, target)
        return model.theta_from_r1(r1), clamped
    t_lo = interior_start(model, [model.theta_from_r1(1e-9)])[0]
    hi = model.r1_image()[1]
    t_hi = model.theta_from_r1(hi - 1e-9 * hi) if math.isfinite(hi) else math.inf
    if model.moments([t_lo])[1] >= target:
        return t_lo, True
    if t_hi < math.inf and model.moments([t_hi])[1] <= target:
        return t_hi, True
    return min(max(model.theta_from_r2(target), t_lo), t_hi), False


def _own_path(model, weights, em, kinds):
    """The Solution of a problem solved by a closed-form root, else None.

    On a 1-parameter model an infinite weight on r_i, or a single active
    sub-loss i (an exact fit), fixes theta by r_i(theta) = m_hat_i.  A target
    outside the image has no exact fit; the multistart solve then finds the
    boundary-side optimum.
    """
    if len(weights.c) != em.moment_order:
        raise DomainError("weight vector length must match the moment order")
    fixed = weights.infinite_index
    eff = _active_weights(weights)
    active = [i for i, e in enumerate(eff) if e]
    if fixed is None and not active:
        raise DomainError("no active sub-loss: all finite weights are zero")
    if model.theta_dim != 1 or (fixed is None and len(active) > 1):
        return None
    i = active[0] if fixed is None else fixed
    theta_c, clamped = _solve_constrained_1p(model, i, float(em.m_hat[i]))
    if clamped and fixed is None:
        return None
    theta, eff = np.array([theta_c]), np.array([eff])
    with np.errstate(over="ignore", invalid="ignore"):
        rho, _, _, ok = _finite_objective(model, em, kinds, eff)(theta[None], [0])
        loss = float(_sq(rho, ok)[0]) + _loss_constant(eff, em)[0]
    return _solution(theta, model.moments(theta), loss, kinds, em,
                     "exact_fit" if fixed is None else "constraint", clamped=clamped, n_evals=1)


def _cubic_roots(p, q, r):
    """Real roots of x^3 + p x^2 + q x + r, elementwise, as a trailing axis of 3.

    x = t - p / 3 gives t^3 + P t + Q = 0.  Three distinct real roots come
    from the trigonometric form; otherwise the one real root, by Cardano's
    formula in a form without cancellation (Press et al., Numerical Recipes,
    3rd ed., sec. 5.6), fills every place.  No root is finite where a
    coefficient is not.
    """
    s = p / 3.0
    P, Q = q - p * s, (2.0 * s * s - q) * s + r
    m = 2.0 * np.sqrt(-P / 3.0)
    phi = np.arccos(np.clip(3.0 * Q / (P * m), -1.0, 1.0)) / 3.0
    three = m[..., None] * np.cos(phi[..., None] - np.array([0.0, 2.0, 4.0]) * math.pi / 3.0)
    A = -np.sign(Q) * np.cbrt(np.abs(Q) / 2.0 + np.sqrt(Q * Q / 4.0 + P * P * P / 27.0))
    one = A + np.where(A == 0.0, 0.0, -P / (3.0 * A))
    real = 4.0 * P * P * P + 27.0 * Q * Q < 0.0
    return np.where(real[..., None], three, one[..., None]) - np.asarray(s)[..., None]


def _least_stationary_points(model, em, kinds, eff):
    """Each row's least interior stationary point of F on a 1-parameter model.

    Both sub-losses are active in every row of ``eff``.  With d = (a theta -
    m_1, b theta + c theta^2 - m_2) and each w_i held at its value on one
    side of d_i = 0, F = sum eff_i w_i d_i^2 is a quartic and

        F' / 2 = W_2 (2 c^2 theta^3 + 3 b c theta^2 + (b^2 - 2 c m_2) theta
                 - b m_2) + W_1 a (a theta - m_1),    W_i = eff_i w_i,

    a cubic, linear when c = 0: one per sign pattern, one for squared
    losses and up to four with asymmetric ones.  w_i d_i^2 has slope 0 at
    d_i = 0, so F is C^1 and an interior minimizer is a root of the cubic of
    its own pattern; a root of another pattern is just a point, scored like
    any other.  The roots of every row and pattern come from one
    elementwise ``_cubic_roots``, take NEWTON_STEPS Newton steps on their
    cubic and are scored by the batch's residual.  The least (f, theta)
    strictly inside the domain wins; a cubic whose coefficients overflow
    gives no candidate.

    Returns theta, its excess loss, whether it beats F at every finite end
    of the domain (if not, the optimum may lie at the boundary), and the
    number of points scored per row.
    """
    a, b, c = model.a, model.b, model.c
    m1, m2 = em.m_hat.tolist()
    # Each kind's w(d) below and above d = 0, once where the two agree.
    one, two = (sorted({float(kind.weight(s)) for s in (-1.0, 1.0)}) for kind in kinds)
    u, v = np.array([(u, v) for u in one for v in two]).T
    W1, W2 = eff[:, :1] * u, eff[:, 1:] * v
    lin = W2 * (b * b - 2.0 * c * m2) + W1 * a * a
    const = -(W2 * b * m2 + W1 * a * m1)
    if c == 0.0:
        theta = (-const / lin)[..., None]
    else:
        lead = 2.0 * c * c * W2
        theta = _cubic_roots(1.5 * b / c, lin / lead, const / lead)
    W1, W2 = W1[..., None], W2[..., None]
    for _ in range(NEWTON_STEPS):
        d1, d2 = a * theta - m1, b * theta + c * theta * theta - m2
        slope = b + 2.0 * c * theta
        step = (W1 * a * d1 + W2 * slope * d2) / (W1 * a * a + W2 * (slope * slope + 2.0 * c * d2))
        theta = np.where(np.isfinite(step), theta - step, theta)
    theta = theta.reshape(len(eff), -1)

    # Score the candidates and the domain's finite ends, one lane each.
    n, K = theta.shape
    lo, hi = model.domain[0]
    ends = [x for x in (lo, hi) if x is not None]
    points = np.column_stack([theta, np.tile(ends, (n, 1))])
    lane_eff = np.repeat(eff, points.shape[1], axis=0)
    rho, _, _, ok = _finite_objective(model, em, kinds, lane_eff)(points.reshape(-1, 1),
                                                                   np.arange(len(lane_eff)))
    f = (rho * rho).sum(axis=1).reshape(n, -1)
    inside = ok.reshape(n, -1)[:, :K] & (theta > lo) & (theta < (math.inf if hi is None else hi))
    f_in = np.where(inside, f[:, :K], math.inf)
    best = np.lexsort((theta, f_in))[:, 0]
    rows = np.arange(n)
    theta, f_in = theta[rows, best], f_in[rows, best]
    return theta, f_in, f_in < f[:, K:].min(axis=1), points.shape[1]


def minimize_many(
    model: ParametricModel,
    weights_list,
    em: EmpiricalMoments,
    kinds=None,
    config: OptimizerConfig | None = None,
    starts=None,
) -> list[Solution | ElicitError]:
    """``minimize`` for every weight vector, the iterative ones as one batch.

    Returns one Solution per weight vector, or the ElicitError that its
    problem raised, so one infeasible problem leaves the others solved.
    Each result equals ``minimize`` on that weight vector alone.
    ``starts``, when given, holds per weight vector None or theta starts that
    replace the configured ones of a finite-weight problem, pulled inside the domain.
    Every 1-parameter problem with both sub-losses active is solved exactly,
    all of them together, and joins the iterative batch only when its
    optimum lies at the boundary.  Winners come from ``_winners``, their
    moments from one ``moments_grid``.
    """
    config = config or OptimizerConfig()
    kinds = default_kinds(em.moment_order) if kinds is None else kinds
    out: list = [None] * len(weights_list)
    quartic, iterative = [], []
    for k, weights in enumerate(weights_list):
        try:
            out[k] = _own_path(model, weights, em, kinds)
        except ElicitError as exc:
            out[k] = exc
        if out[k] is None:
            eff = _active_weights(weights)
            if model.theta_dim == 1 and all(eff):
                quartic.append((k, eff))
            else:
                iterative.append(k)
    if quartic:
        eff_rows = np.array([eff for _, eff in quartic])
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            theta, excess, found, n_evals = _least_stationary_points(model, em, kinds, eff_rows)
            r_star = model.moments_grid(theta[:, None])
            sub_losses = sub_loss_vector(kinds, r_star, em)
        loss = excess + _loss_constant(eff_rows, em)
        for p, (k, _) in enumerate(quartic):
            if found[p]:
                out[k] = _solution(theta[p:p + 1], r_star[p], loss[p], kinds, em,
                                   "exact_minimum", n_evals=n_evals, sub_losses=sub_losses[p])
            else:
                iterative.append(k)

    batch = []      # (result index, constraint index, active weights, starts, (free index, build))
    base = None
    for k in sorted(iterative):
        weights = weights_list[k]
        try:
            i = weights.infinite_index
            elim = None
            if i is None and starts is not None and starts[k] is not None:
                lanes = [interior_start(model, x) for x in starts[k]]
            else:
                base = base or _starts(_resolve_init(model, em, config), model.domain, config)
                lanes = base
                if i is not None:
                    f, build = model.eliminate_for_moment(i, float(em.m_hat[i]))
                    lanes = _starts(base[0][f:f + 1], model.domain[f:f + 1], config)
                    elim = (f, build)
            batch.append((k, i, _active_weights(weights), lanes, elim))
        except ElicitError as exc:
            out[k] = exc
    if not batch:
        return out

    # Every start is one lane, and lanes lo..hi-1 hold one problem's starts.
    # A constrained problem's lanes search its free coordinate f and hold 0
    # in the z of the eliminated one.
    spans = np.cumsum([0] + [len(lanes) for _, _, _, lanes, _ in batch])
    n, d = spans[-1], model.theta_dim
    eff_rows = np.array([eff for _, _, eff, _, _ in batch])
    z0 = np.zeros((n, d))
    theta0 = np.empty((n, d))
    free = np.ones((n, d), dtype=bool)
    eliminated = []
    for (_, i, _, lanes, elim), lo, hi in zip(batch, spans, spans[1:]):
        x = np.asarray(lanes, dtype=float)
        if elim is None:
            z0[lo:hi], theta0[lo:hi] = _to_z(x, model.domain), x
        else:
            f, build = elim
            z0[lo:hi, f] = _to_z(x, model.domain[f:f + 1])[:, 0]
            theta0[lo:hi] = build(x[:, 0])
            free[lo:hi, 1 - f] = False
            eliminated.append((lo, hi, f, i, build))

    residual = _finite_objective(model, em, kinds, np.repeat(eff_rows, np.diff(spans), axis=0))
    fun, thetas = _lane_objective(model, residual, eliminated)
    # Each raw start is itself a candidate, scored without the z round trip,
    # so a start sitting exactly on the minimizer is returned bit-exact.  A
    # lane searching theta itself always has a theta; an eliminated lane has
    # one where the constraint's build lands inside the domain.
    every, direct = np.arange(n), free.all(axis=1)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        z, f_end, iters, term, evals = _run_solver(fun, z0, free, config)
        theta_end = thetas(z, every)[0]
        rho, _, _, ok = residual(theta0, every)
        lane, theta, excess, ok = _winners(
            spans, (theta_end, f_end, direct | model.in_domain(theta_end)),
            (theta0, _sq(rho, ok), direct | model.in_domain(theta0)))
        r_star = model.moments_grid(theta)
        sub_losses = sub_loss_vector(kinds, r_star, em)
    loss = excess + _loss_constant(eff_rows, em)
    inside = model.in_domain(theta)
    n_iters = np.add.reduceat(iters, spans[:-1])
    # Scoring each raw start is one evaluation on top of the solver's.
    n_evals = np.add.reduceat(evals, spans[:-1]) + np.diff(spans)
    m_hat = em.m_hat
    for p, (k, i, _, _, _) in enumerate(batch):
        try:
            if not ok[p]:
                raise OutOfImage(f"{model.name}: constraint r_{i + 1} = {float(m_hat[i])} "
                                 "admits no interior solution")
            if not inside[p]:
                model.moments(theta[p])  # raises the DomainError naming the bound
            on_constraint = i is None or (abs(r_star[p, i] - m_hat[i])
                                          <= CONSTRAINT_RTOL * (1.0 + abs(m_hat[i])))
            out[k] = _solution(theta[p], r_star[p], loss[p], kinds, em, str(term[lane[p]]),
                               n_iters[p], theta0[lane[p]], converged=on_constraint,
                               start_index=int(lane[p] - spans[p]), n_evals=n_evals[p],
                               sub_losses=sub_losses[p])
        except ElicitError as exc:
            out[k] = exc
    return out


def minimize(
    model: ParametricModel,
    weights: WeightVector,
    em: EmpiricalMoments,
    kinds=None,
    config: OptimizerConfig | None = None,
) -> Solution:
    """Best Solution over the configured starts."""
    (out,) = minimize_many(model, [weights], em, kinds, config)
    if isinstance(out, ElicitError):
        raise out
    return out


# ---------------------------------------------------------------------------
# Brute-force meshgrid oracle
# ---------------------------------------------------------------------------


def default_box(model: ParametricModel, em: EmpiricalMoments, half_width: float = 3.0):
    """Moment-matching start +/- half_width per coordinate, clipped to the domain."""
    center = moment_match_init(model, em)
    box = []
    for j, (lo, hi) in enumerate(model.domain):
        a = center[j] - half_width
        b = center[j] + half_width
        if lo is not None:
            a = max(a, lo + 1e-6)
        if hi is not None:
            b = min(b, hi - 1e-6)
        box.append((a, b))
    return box


def meshgrid_oracle(
    model: ParametricModel,
    weights: WeightVector,
    em: EmpiricalMoments,
    kinds=None,
    box=None,
    width: float = 0.1,
) -> Solution:
    """Exhaustive grid minimizer, GRID_SLAB points at a time: the first minimum in C order.

    Axis j holds lo_j + width * k up to hi_j, so C order sorts the grid
    lexicographically by theta and the first minimum has the smallest theta.
    A nan loss counts as inf; if every loss is inf the first point wins.
    """
    if not 0.0 < width < math.inf:
        raise DomainError(f"grid width must be positive and finite, got {width}")
    if weights.infinite_index is not None:
        raise DomainError("meshgrid oracle needs finite weights")
    kinds = default_kinds(em.moment_order) if kinds is None else kinds
    box = default_box(model, em) if box is None else box
    if len(box) != model.theta_dim:
        raise DomainError("box must give one (lo, hi) pair per parameter")

    axes = []
    for j, (lo, hi) in enumerate(box):
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise DomainError(f"box coordinate {j}: bounds ({lo}, {hi}) must be finite")
        if lo > hi:
            raise EmptyGrid(f"box coordinate {j}: lo = {lo} > hi = {hi}")
        if lo < hi and width > (hi - lo):
            raise EmptyGrid(
                f"box coordinate {j}: width {width} exceeds the box span {hi - lo}"
            )
        n_steps = int(math.floor((hi - lo) / width + 1e-12)) if hi > lo else 0
        axes.append(lo + width * np.arange(n_steps + 1))

    shape = tuple(len(a) for a in axes)
    n = math.prod(shape)
    best = None
    for start in range(0, n, GRID_SLAB):
        index = np.unravel_index(np.arange(start, min(start + GRID_SLAB, n)), shape)
        thetas = np.column_stack([a[i] for a, i in zip(axes, index)])
        with np.errstate(over="ignore", invalid="ignore"):
            r_matrix = model.moments_grid(thetas)
            losses = total_loss(weights, r_matrix, em, kinds)
        losses = np.where(np.isfinite(losses), losses, math.inf)
        k = int(np.argmin(losses))
        # Strict: on a tie the earlier slab, so the earlier grid point, wins.
        if best is None or losses[k] < best[2]:
            best = (thetas[k], r_matrix[k], losses[k])
    return _solution(*best, kinds, em, n_iters=n, n_evals=n)
