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

A one-parameter model with exactly one active finite-weight sub-loss i is an
exact fit: its minimizer solves r_i(theta) = m_hat_i, which is done by the
same inversion as the constrained path whenever m_hat_i lies in the model's
image.

An infinite weight on coordinate i is never summed into the objective; it
becomes the hard constraint r_i(theta) = m_hat_i, solved by inverting the
moment map (1-parameter models) or by eliminating one coordinate and
minimizing the remaining residuals over the other (2-parameter models).
There the lanes are the problem's own starts, and the Jacobian is a central
difference over the free coordinate.

A brute-force meshgrid oracle provides an independent cross-check on the
iterative solvers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
from scipy.optimize import brentq
from scipy.special import expit, logit

from .distmodels import ParametricModel, clamp_to_image
from .errors import DomainError, ElicitError, EmptyGrid, OutOfImage
from .losses import (
    EmpiricalMoments,
    WeightVector,
    default_kinds,
    sub_loss_vector,
    total_loss,
)

CONSTRAINT_RTOL = 1e-9
METHODS = ("levenberg_marquardt", "nelder_mead", "gradient_descent")


@dataclass(frozen=True)
class OptimizerConfig:
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
        if self.tol_loss <= 0 or self.tol_step <= 0:
            raise DomainError("tolerances must be positive")
        if self.max_iters < 1:
            raise DomainError("max_iters must be at least 1")
        if self.multistart < 0:
            raise DomainError("multistart count must be nonnegative")


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
    1-parameter model, solved by inversion) or ``constraint`` (an infinite
    weight on a 1-parameter model, solved by inversion).  ``converged`` is
    False after ``max_iters``, when no start reached a point with a finite
    loss, and when a 2-parameter constrained solve ends off its constraint.

    ``n_iters`` and ``n_evals`` (residual evaluations) are summed over the
    problem's starts.  ``start_index`` is the winning start's place in the
    start list: 0 for the configured init, 1..multistart for the random
    offsets, then any extra starts; None when no start was used (inversion
    or the meshgrid).
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


def _to_z(theta: np.ndarray, domain) -> np.ndarray:
    """z for an (..., d) array of interior points."""
    theta = np.asarray(theta, dtype=float)
    z = np.empty_like(theta)
    for j, (lo, hi) in enumerate(domain):
        x = theta[..., j]
        if lo is None and hi is None:
            z[..., j] = x
        elif hi is None:
            z[..., j] = np.log(x - lo)
        elif lo is None:
            z[..., j] = -np.log(hi - x)
        else:
            z[..., j] = logit((x - lo) / (hi - lo))
    return z


def _from_z(z: np.ndarray, domain) -> tuple[np.ndarray, np.ndarray]:
    """theta and d theta / d z, elementwise, for an (..., d) array of z."""
    theta = np.empty_like(z)
    dtheta = np.empty_like(z)
    for j, (lo, hi) in enumerate(domain):
        x = z[..., j]
        if lo is None and hi is None:
            theta[..., j] = x
            dtheta[..., j] = 1.0
        elif lo is not None and hi is not None:
            s = expit(np.minimum(np.maximum(x, -_LOGIT_CLIP), _LOGIT_CLIP))
            theta[..., j] = lo + (hi - lo) * s
            dtheta[..., j] = (hi - lo) * s * (1.0 - s)
        else:
            e = np.exp(np.minimum(np.maximum(x if hi is None else -x, -_LOG_CLIP), _LOG_CLIP))
            theta[..., j] = lo + e if hi is None else hi - e
            dtheta[..., j] = e
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
        elif hi is not None:
            out[j] = min(out[j], hi - 1e-6)
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
    """f, J^T J and J^T rho per row, and where all three are defined and finite."""
    rho, J, ok = fun(z, lanes, jac=True)
    f = (rho * rho).sum(axis=1)
    A = (J[:, :, :, None] * J[:, :, None, :]).sum(axis=1)
    g = (J * rho[:, :, None]).sum(axis=1)
    ok = ok & np.isfinite(f) & np.isfinite(A).all(axis=(1, 2)) & np.isfinite(g).all(axis=1)
    return f, A, g, ok


def _damped_step(A, damping, g):
    """h solving (A + damping * I) h = -g per row, in closed form for d <= 2.

    nan where the damped matrix is singular, so the step is rejected.
    """
    if g.shape[1] == 1:
        return -g / (A[:, 0] + damping[:, None])
    a = A[:, 0, 0] + damping
    c = A[:, 1, 1] + damping
    b = A[:, 0, 1]
    det = a * c - b * b
    det = np.where(det == 0.0, math.nan, det)
    return np.stack([(b * g[:, 1] - c * g[:, 0]) / det, (b * g[:, 0] - a * g[:, 1]) / det], axis=1)


def _levenberg_marquardt(point, z0, max_iters, tol_loss, tol_step):
    """Damped Gauss-Newton on f = rho . rho, every row of z0 a lane.

    ``point(z, lanes)`` gives (f, J^T J, J^T rho, ok) for the rows z of the
    given lanes.  Each lane's step solves (J^T J + mu * s * I) h = -J^T rho,
    where s is the largest diagonal entry of J^T J at its current point, so
    mu is relative to the curvature there.  From a start whose moments miss
    the data by many orders of magnitude, J^T J falls by as many orders
    within a few steps; an absolute damping would lag behind it for dozens
    of short steps.  A step is accepted when it lowers f, and mu then
    follows Nielsen's update; otherwise mu grows by a doubling factor.  A
    lane has converged when f reaches 0 or J^T rho vanishes, or when a step
    of at most tol_step * (1 + |z|) lowers f by at most tol_loss * f (a
    rejected step lowers it by nothing); it ends in no_descent when such a
    step lands where rho or J is undefined, or when its start is undefined.
    A lane leaves the batch once it stops.

    Returns z, f, iterations, termination and evaluations, one per lane.
    """
    n = len(z0)
    z_out = np.array(z0, dtype=float)
    f_out = np.full(n, math.inf)
    iters = np.zeros(n, dtype=int)
    evals = np.ones(n, dtype=int)
    term = np.full(n, "no_descent", dtype=object)

    f, A, g, ok = point(z_out, np.arange(n))
    lanes = np.flatnonzero(ok)
    z, f, A, g = z_out[lanes], f[lanes], A[lanes], g[lanes]
    mu, nu = np.full(len(lanes), 1e-3), np.full(len(lanes), 2.0)
    for it in range(1, max_iters + 1):
        if not lanes.size:
            break
        flat = (f == 0.0) | ~g.any(axis=1)
        damping = mu * np.diagonal(A, axis1=1, axis2=2).max(axis=1)
        h = _damped_step(A, damping, g)
        # A non-finite h is neither small nor tried: it is rejected and mu grows.
        small = np.abs(h).max(axis=1) <= tol_step * (1.0 + np.abs(z).max(axis=1))
        tried = ~flat & np.isfinite(h).all(axis=1)
        # Untried lanes are evaluated where they stand, and the result is dropped.
        f_t, A_t, g_t, ok_t = point(np.where(tried[:, None], z + h, z), lanes)
        evals[lanes] += tried
        better = tried & ok_t & (f_t < f)
        df = f - f_t
        predicted = (h * (damping[:, None] * h - g)).sum(axis=1)
        gain = np.where(predicted > 0.0, df / predicted, 1.0)
        mu = np.where(better, mu * np.maximum(1.0 / 3.0, 1.0 - (2.0 * gain - 1.0) ** 3), mu * nu)
        nu = np.where(better, 2.0, 2.0 * nu)
        z = np.where(better[:, None], z + h, z)
        f = np.where(better, f_t, f)
        A = np.where(better[:, None, None], A_t, A)
        g = np.where(better[:, None], g_t, g)
        # A small step that does not lower f meets the stopping rule; one that
        # lands where rho or J is undefined leaves no descent to take.
        rejected = ~flat & ~better & small
        stop = flat | rejected | (better & small & (df <= tol_loss * f))
        if stop.any():
            done = lanes[stop]
            z_out[done], f_out[done] = z[stop], f[stop]
            iters[done] = it - flat[stop]
            term[done] = np.where((rejected & ~ok_t)[stop], "no_descent", "converged")
            keep = ~stop
            lanes, z, f, A, g, mu, nu = (x[keep] for x in (lanes, z, f, A, g, mu, nu))
    z_out[lanes], f_out[lanes] = z, f
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


def _run_lane(fun, lane, z0, config):
    """Nelder-Mead or gradient descent on one lane: (z, f, iterations, termination, evals)."""
    lanes = np.array([lane])
    evals = 0

    def f(z):
        nonlocal evals
        evals += 1
        rho, _, ok = fun(z[None], lanes)
        return float(_sq(rho, ok)[0])

    def grad(z):
        nonlocal evals
        evals += 1
        rho, J, ok = fun(z[None], lanes, jac=True)
        return 2.0 * (J * rho[:, :, None]).sum(axis=1)[0] if ok[0] else None

    args = (z0, config.max_iters, config.tol_loss, config.tol_step)
    if config.method == "gradient_descent":
        out = _gradient_descent(f, grad, *args)
    else:
        out = _nelder_mead(f, *args)
    return (*out, evals)


def _run_solver(fun, z0, config):
    """Solve every lane (row of z0): z, f, iterations, terminations and evaluations."""
    if config.method == "levenberg_marquardt":
        return _levenberg_marquardt(lambda z, lanes: _lm_point(fun, z, lanes), z0,
                                    config.max_iters, config.tol_loss, config.tol_step)
    runs = [_run_lane(fun, k, z, config) for k, z in enumerate(z0)]
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


def _resolve_init(model, weights, em, kinds, config) -> np.ndarray:
    if isinstance(config.init, str):
        if config.init == "moment_match":
            return moment_match_init(model, em)
        if config.init == "meshgrid_min":
            sol = meshgrid_oracle(
                model, weights, em, kinds, box=default_box(model, em), width=0.1
            )
            return interior_start(model, sol.theta_star)
        raise DomainError(f"unknown init setting {config.init!r}")
    return interior_start(model, np.asarray(config.init, dtype=float))


def _starts(x0, domain, config):
    """x0, then its multistart perturbations in z space."""
    z0 = _to_z(x0, domain)
    offsets = _multistart_offsets(config, len(domain))
    return [x0, *_from_z(z0 + offsets, domain)[0]]


# ---------------------------------------------------------------------------
# minimize
# ---------------------------------------------------------------------------


def _active_terms(eff) -> list[int]:
    """Indices of the finite, strictly positive effective weights."""
    return [i for i in range(len(eff)) if np.isfinite(eff[i]) and eff[i] > 0.0]


def _active_weights(weights: WeightVector) -> np.ndarray:
    """Effective weights with every inactive term (zero or infinite weight) set to 0."""
    eff = weights.effective
    return np.where(np.isfinite(eff) & (eff > 0.0), eff, 0.0)


def _loss_constant(eff, em: EmpiricalMoments, active) -> float:
    """sum_{active} eff_i * v_hat_i: the part of the total loss no theta can change."""
    out = 0.0
    for i in active:
        out += eff[i] * em.v_hat[i]
    return float(out)


def _finite_objective(model, em, kinds):
    """The residual over the active terms, as ``residual(theta, eff, jac=False)``.

    ``theta`` is (n, d) and ``eff`` holds the effective weights, (M,) or one
    row per theta, with 0 on every inactive term.  rho_i = sqrt(eff_i *
    w_i(d_i)) * d_i with d_i = r_i - m_hat_i on the active terms and 0 on the
    others.  Returns (rho, d rho / d theta or None, ok), where ok marks the
    rows inside the domain with a finite rho.  v_hat is left out, so the
    solvers see the residuals down to float64 resolution; callers add
    ``_loss_constant`` back when reporting.
    """
    m_hat = em.m_hat

    def residual(theta, eff, jac=False):
        active = eff > 0.0
        d = model.moments_grid(theta) - m_hat
        w = np.empty_like(d)
        for i, kind in enumerate(kinds):
            w[:, i] = kind.weight(d[:, i])
        s = np.sqrt(eff * w)
        rho = np.where(active, s * d, 0.0)
        ok = model.in_domain(theta) & np.isfinite(rho).all(axis=1)
        if not jac:
            return rho, None, ok
        return rho, np.where(active[..., None], s[:, :, None] * model.jacobian_grid(theta), 0.0), ok

    return residual


def _direct(residual, domain, eff):
    """``fun`` for lanes that search theta itself, one row of ``eff`` per lane."""

    def fun(z, lanes, jac=False):
        theta, dtheta = _from_z(z, domain)
        rho, J, ok = residual(theta, eff[lanes], jac)
        return rho, (J * dtheta[:, None, :] if jac else None), ok

    return fun


def _as_theta(x):
    """``decode`` for lanes that search theta itself."""
    return x, np.ones(len(x), dtype=bool)


def _eliminated(residual, domain, eff, decode):
    """``fun`` over the one free coordinate of a constrained problem.

    The Jacobian is a central difference in z over the residual of the
    decoded theta.
    """

    def rho_z(z):
        theta, ok = decode(_from_z(z, domain)[0])
        rho, _, ok_r = residual(theta, eff)
        return rho, ok & ok_r

    def fun(z, lanes, jac=False):
        if not jac:
            rho, ok = rho_z(z)
            return rho, None, ok
        n = len(z)
        h = 1e-6 * (1.0 + np.abs(z))
        rho, ok = rho_z(np.concatenate([z, z + h, z - h]))
        up, down = rho[n:2 * n], rho[2 * n:]
        J = ((up - down) / (2.0 * h))[:, :, None]
        return rho[:n], J, ok[:n] & ok[n:2 * n] & ok[2 * n:]

    return fun


def _solve_starts(fun, decode, residual, eff, domain, starts, config):
    """Run the solver from every start (rows of x) and score each raw start.

    ``decode(x)`` gives the rows of theta and where they exist.  Each raw
    start is itself a candidate, evaluated without the z round trip, so a
    start sitting exactly on the minimizer is returned bit-exact.  Returns
    the per-lane candidates ((theta, f, ok) at the solver's end and at the
    raw start) plus iterations, terminations and evaluations.
    """
    starts = np.asarray(starts, dtype=float)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        z, f_end, iters, term, evals = _run_solver(fun, _to_z(starts, domain), config)
        theta_end, ok_end = decode(_from_z(z, domain)[0])
        theta_start, ok_start = decode(starts)
        rho, _, ok = residual(theta_start, eff)
        f_start = _sq(rho, ok & ok_start)
    return (theta_end, f_end, ok_end), (theta_start, f_start, ok_start), iters, term, evals + 1


def _best_lane(lanes, end, start, term, starts):
    """The (loss, lexicographic theta) best candidate over the given lanes.

    Returns (theta, loss, termination, start, start index), or None when no
    candidate decodes to a theta.
    """
    best = None
    for index, lane in enumerate(lanes):
        for theta, f, ok in (end, start):
            if not ok[lane]:
                continue
            key = (float(f[lane]), tuple(theta[lane]))
            if best is None or key < best[0]:
                best = (key, (theta[lane].copy(), key[0], str(term[lane]), starts[index], index))
    return None if best is None else best[1]


def _solution(theta, r_star, loss, kinds, em, termination="converged", n_iters=0,
              start_used=None, clamped=False, converged=True, start_index=None,
              n_evals=0) -> Solution:
    """A Solution; it has not converged after max_iters or without a finite loss."""
    theta = np.asarray(theta)
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
    """theta with r_i(theta) = target for a 1-parameter model, clamping to the image."""
    clamped = False
    if i == 0:
        r1, clamped = clamp_to_image(model, target)
        return model.theta_from_r1(r1), clamped

    lo, hi = model.r1_image()

    def resid(theta):
        return model.moments([theta])[i] - target

    t_lo = interior_start(model, [model.theta_from_r1(lo + 1e-9 if math.isfinite(lo) else 1e-9)])[0]
    # Expand the upper bracket geometrically; moments are monotone in theta.
    if math.isfinite(hi):
        t_hi = model.theta_from_r1(hi - 1e-9 * max(1.0, abs(hi)))
    else:
        t_hi = max(1.0, 2.0 * abs(t_lo))
        for _ in range(200):
            if resid(t_hi) > 0:
                break
            t_hi *= 2.0
    r_lo, r_hi = resid(t_lo), resid(t_hi)
    if r_lo >= 0:
        return t_lo, True
    if r_hi <= 0:
        return t_hi, True
    theta = brentq(resid, t_lo, t_hi, xtol=1e-15, rtol=8.9e-16)
    return float(theta), clamped


def _own_path(model, weights, em, kinds, config, extra_starts):
    """The Solution of a problem that is not a finite-weight multistart solve, else None."""
    if len(weights.c) != em.moment_order:
        raise DomainError("weight vector length must match the moment order")
    inf_idx = weights.infinite_index
    if inf_idx is not None:
        return _minimize_constrained(model, inf_idx, weights, em, kinds, config, extra_starts)
    active = _active_terms(weights.effective)
    if not active:
        raise DomainError("no active sub-loss: all finite weights are zero")
    if model.theta_dim == 1 and len(active) == 1:
        # Exact fit: the minimizer solves r_i(theta) = m_hat_i.  A target
        # outside the model's image has no exact fit; the multistart solve
        # then finds the boundary-side optimum.
        sol = _minimize_constrained(model, active[0], weights, em, kinds, config)
        if not sol.clamped:
            return replace(sol, termination="exact_fit")
    return None


def minimize_many(
    model: ParametricModel,
    weights_list,
    em: EmpiricalMoments,
    kinds=None,
    config: OptimizerConfig | None = None,
    extra_starts=None,
) -> list[Solution | ElicitError]:
    """``minimize`` for every weight vector, the finite-weight ones as one batch.

    ``extra_starts``, when given, holds one sequence of extra starts per
    weight vector.  Returns one Solution per weight vector, or the
    ElicitError that its problem raised, so one infeasible problem leaves
    the others solved.  Each result equals ``minimize`` on that weight
    vector alone.
    """
    config = config or OptimizerConfig()
    kinds = default_kinds(em.moment_order) if kinds is None else kinds
    if extra_starts is None:
        extra_starts = [()] * len(weights_list)
    if len(extra_starts) != len(weights_list):
        raise DomainError("extra_starts must hold one sequence of starts per weight vector")
    out: list = [None] * len(weights_list)
    batch = []                      # (result index, weights, starts)
    base = None
    for k, (weights, extra) in enumerate(zip(weights_list, extra_starts)):
        try:
            out[k] = _own_path(model, weights, em, kinds, config, extra)
            if out[k] is None:
                if base is None or config.init == "meshgrid_min":
                    base = _starts(_resolve_init(model, weights, em, kinds, config),
                                   model.domain, config)
                batch.append((k, weights, base + [interior_start(model, s) for s in extra]))
        except ElicitError as exc:
            out[k] = exc
    if not batch:
        return out

    residual = _finite_objective(model, em, kinds)
    eff = np.array([_active_weights(w) for _, w, problem_starts in batch for _ in problem_starts])
    starts = [s for _, _, problem_starts in batch for s in problem_starts]
    end, start, iters, term, evals = _solve_starts(
        _direct(residual, model.domain, eff), _as_theta, residual, eff, model.domain, starts,
        config,
    )
    first = 0
    for k, weights, problem_starts in batch:
        lanes = range(first, first + len(problem_starts))
        first += len(problem_starts)
        theta, fz, termination, start_used, index = _best_lane(lanes, end, start, term,
                                                                problem_starts)
        eff_k = weights.effective
        loss = fz + _loss_constant(eff_k, em, _active_terms(eff_k))
        try:
            out[k] = _solution(theta, model.moments(theta), loss, kinds, em, termination,
                               iters[lanes].sum(), start_used, start_index=index,
                               n_evals=evals[lanes].sum())
        except ElicitError as exc:
            out[k] = exc
    return out


def minimize(
    model: ParametricModel,
    weights: WeightVector,
    em: EmpiricalMoments,
    kinds=None,
    config: OptimizerConfig | None = None,
    extra_starts=(),
) -> Solution:
    """Best Solution over the configured starts (plus any extra warm starts)."""
    (out,) = minimize_many(model, [weights], em, kinds, config, [extra_starts])
    if isinstance(out, ElicitError):
        raise out
    return out


def _minimize_constrained(model, i, weights, em, kinds, config, extra_starts=()):
    """Minimize the residuals of the finite-weight terms subject to r_i(theta) = m_hat_i."""
    target = float(em.m_hat[i])
    residual = _finite_objective(model, em, kinds)
    eff = _active_weights(weights)
    constant = _loss_constant(weights.effective, em, _active_terms(weights.effective))

    if model.theta_dim == 1:
        theta_c, clamped = _solve_constrained_1p(model, i, target)
        theta = np.array([theta_c])
        with np.errstate(over="ignore", invalid="ignore"):
            rho, _, ok = residual(theta[None], eff)
            loss = float(_sq(rho, ok)[0]) + constant
        return _solution(theta, model.moments(theta), loss, kinds, em, "constraint",
                         clamped=clamped, n_evals=1)

    # Two-parameter models: eliminate one coordinate through the constraint
    # and minimize the remaining residuals over the free coordinate.
    free_idx, build = model.eliminate_for_moment(i, target)
    free_domain = (model.domain[free_idx],)

    def decode(x):
        """Full thetas for rows of the free coordinate, and where they are strictly interior."""
        theta = np.full((len(x), model.theta_dim), math.nan)
        for k, v in enumerate(x[:, 0]):
            try:
                theta[k] = build(float(v))
            except (OutOfImage, ValueError, OverflowError):
                pass
        ok = np.ones(len(x), dtype=bool)
        for j, (lo, hi) in enumerate(model.domain):
            if lo is not None:
                ok &= theta[:, j] > lo
            if hi is not None:
                ok &= theta[:, j] < hi
        return theta, ok

    init_full = _resolve_init(model, weights, em, kinds, replace(config, init="moment_match")
                              if config.init == "meshgrid_min" else config)
    extra = []
    for s in extra_starts:
        s = np.asarray(s, dtype=float)
        if s.size == model.theta_dim:
            extra.append(np.array([s[free_idx]]))
    starts = _starts(np.array([init_full[free_idx]]), free_domain, config) + extra
    end, start, iters, term, evals = _solve_starts(
        _eliminated(residual, free_domain, eff, decode), decode, residual, eff, free_domain,
        starts, config,
    )
    found = _best_lane(range(len(starts)), end, start, term, starts)
    if found is None:
        raise OutOfImage(
            f"{model.name}: constraint r_{i + 1} = {target} admits no interior solution"
        )
    theta, fz, termination, start_used, index = found
    r_star = model.moments(theta)
    on_constraint = abs(r_star[i] - target) <= CONSTRAINT_RTOL * (1.0 + abs(target))
    return _solution(theta, r_star, fz + constant, kinds, em, termination, iters.sum(),
                     start_used, converged=on_constraint, start_index=index,
                     n_evals=evals.sum())


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
    """Exhaustive grid minimizer; ties broken by lexicographically smallest theta."""
    if width <= 0:
        raise DomainError("grid width must be positive")
    if weights.infinite_index is not None:
        raise DomainError("meshgrid oracle needs finite weights")
    kinds = default_kinds(em.moment_order) if kinds is None else kinds
    box = default_box(model, em) if box is None else box
    if len(box) != model.theta_dim:
        raise DomainError("box must give one (lo, hi) pair per parameter")

    axes = []
    for j, (lo, hi) in enumerate(box):
        if lo > hi:
            raise EmptyGrid(f"box coordinate {j}: lo = {lo} > hi = {hi}")
        if lo < hi and width > (hi - lo):
            raise EmptyGrid(
                f"box coordinate {j}: width {width} exceeds the box span {hi - lo}"
            )
        n_steps = int(math.floor((hi - lo) / width + 1e-12)) if hi > lo else 0
        axes.append(lo + width * np.arange(n_steps + 1))

    mesh = np.meshgrid(*axes, indexing="ij")
    thetas = np.column_stack([m.ravel() for m in mesh])
    with np.errstate(over="ignore", invalid="ignore"):
        r_matrix = model.moments_grid(thetas)
        losses = total_loss(weights, r_matrix, em, kinds)
    losses = np.where(np.isfinite(losses), losses, math.inf)

    keys = tuple(thetas[:, j] for j in reversed(range(thetas.shape[1]))) + (losses,)
    idx = int(np.lexsort(keys)[0])
    return _solution(thetas[idx], r_matrix[idx], losses[idx], kinds, em, n_iters=len(thetas),
                     n_evals=len(thetas))
