"""Minimize the weighted total loss over a model's parameter domain.

Every objective is a least-squares problem.  Over the active terms (finite,
strictly positive effective weight) it is rho . rho, with one residual per
term

    rho_i = sqrt(eff_i * w_i(d_i)) * d_i,    d_i = r_i(theta) - m_hat_i,

where w_i is 1 for the squared loss and a or b (by the sign of d_i) for the
asymmetric one.  Its Jacobian is diag(sqrt(eff * w)) . moment_jacobian.

Free coordinates are smoothly reparameterized (log above a lower bound,
logit inside an interval) so iterates stay strictly interior; the Jacobian
in z picks up the factor d theta / d z.  Three solvers share the residual:

* ``levenberg_marquardt`` (the default): damped Gauss-Newton on (rho, J)
  with isotropic damping relative to the largest diagonal entry of J^T J
  and Nielsen's damping update.  A trial point where rho or J is undefined
  or not finite is a rejected step.
* ``nelder_mead``: a simplex on rho . rho.
* ``gradient_descent``: steepest descent on rho . rho with gradient
  2 J^T rho and backtracking line search, kept specifically to reproduce its
  documented sensitivity to the starting point on ill-conditioned problems.

Each runs from a moment-matching start plus random multistarts, and the
lowest (loss, theta) wins.

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
There the Jacobian is a central difference over the free coordinate.

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
from .errors import DomainError, EmptyGrid, OutOfImage
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


# ---------------------------------------------------------------------------
# Reparameterization: z (unconstrained) <-> theta (interior)
# ---------------------------------------------------------------------------

# Clip limits keep exp/expit strictly inside their open ranges in float64.
_LOG_CLIP = 700.0
_LOGIT_CLIP = 36.0


def _to_z(theta: np.ndarray, domain) -> np.ndarray:
    z = np.empty(len(theta))
    for j, (lo, hi) in enumerate(domain):
        x = theta[j]
        if lo is None and hi is None:
            z[j] = x
        elif hi is None:
            z[j] = math.log(x - lo)
        elif lo is None:
            z[j] = -math.log(hi - x)
        else:
            z[j] = logit((x - lo) / (hi - lo))
    return z


def _from_z(z: np.ndarray, domain) -> np.ndarray:
    theta = np.empty(len(z))
    for j, (lo, hi) in enumerate(domain):
        x = z[j]
        if lo is None and hi is None:
            theta[j] = x
        elif hi is None:
            theta[j] = lo + math.exp(min(max(x, -_LOG_CLIP), _LOG_CLIP))
        elif lo is None:
            theta[j] = hi - math.exp(min(max(-x, -_LOG_CLIP), _LOG_CLIP))
        else:
            theta[j] = lo + (hi - lo) * expit(min(max(x, -_LOGIT_CLIP), _LOGIT_CLIP))
    return theta


def _dtheta_dz(z: np.ndarray, domain) -> np.ndarray:
    d = np.empty(len(z))
    for j, (lo, hi) in enumerate(domain):
        x = z[j]
        if lo is None and hi is None:
            d[j] = 1.0
        elif hi is None:
            d[j] = math.exp(min(max(x, -_LOG_CLIP), _LOG_CLIP))
        elif lo is None:
            d[j] = math.exp(min(max(-x, -_LOG_CLIP), _LOG_CLIP))
        else:
            s = expit(min(max(x, -_LOGIT_CLIP), _LOGIT_CLIP))
            d[j] = (hi - lo) * s * (1.0 - s)
    return d


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
# Each returns (z, loss, iterations, termination).
# ---------------------------------------------------------------------------


def _levenberg_marquardt(fun, z0, max_iters, tol_loss, tol_step):
    """Damped Gauss-Newton on f = rho . rho; ``fun(z, jac=True)`` gives (rho, J) or None.

    The step solves (J^T J + mu * s * I) h = -J^T rho, where s is the largest
    diagonal entry of J^T J at the current point, so mu is relative to the
    curvature there.  From a start whose moments miss the data by many
    orders of magnitude, J^T J falls by as many orders within a few steps;
    an absolute damping would lag behind it for dozens of short steps.  A
    step is accepted when it lowers f, and mu then follows Nielsen's update;
    otherwise mu grows by a doubling factor.  Converged when f reaches 0 or
    J^T rho vanishes, or when a step of at most tol_step * (1 + |z|) lowers
    f by at most tol_loss * f (a rejected step lowers it by nothing).
    no_descent when such a step lands where rho or J is undefined.
    """
    z = np.array(z0, dtype=float)
    here = _lm_point(fun, z)
    if here is None:
        return z, math.inf, 0, "no_descent"
    f, A, g = here
    eye = np.eye(len(z))
    mu, nu = 1e-3, 2.0
    n_iters = 0
    for n_iters in range(1, max_iters + 1):
        if f == 0.0 or not g.any():
            return z, f, n_iters - 1, "converged"
        damping = mu * float(A.diagonal().max())
        try:
            h = np.linalg.solve(A + damping * eye, -g)
        except np.linalg.LinAlgError:  # the damping is negligible next to a singular J^T J
            h = np.full_like(z, math.nan)
        # A non-finite h is neither small nor tried: it is rejected and mu grows.
        small = np.max(np.abs(h)) <= tol_step * (1.0 + np.max(np.abs(z)))
        trial = _lm_point(fun, z + h) if np.isfinite(h).all() else None
        if trial is not None and trial[0] < f:
            df = f - trial[0]
            predicted = float(h @ (damping * h - g))
            gain = df / predicted if predicted > 0.0 else 1.0
            mu *= max(1.0 / 3.0, 1.0 - (2.0 * gain - 1.0) ** 3)
            nu = 2.0
            z = z + h
            f, A, g = trial
            if small and df <= tol_loss * f:
                return z, f, n_iters, "converged"
        elif small:
            # A small step that does not lower f meets the stopping rule; one
            # that lands where rho or J is undefined leaves no descent to take.
            return z, f, n_iters, "converged" if trial is not None else "no_descent"
        else:
            mu *= nu
            nu *= 2.0
    return z, f, n_iters, "max_iters"


def _lm_point(fun, z):
    """(f, J^T J, J^T rho) at z, or None where any of them is undefined or not finite."""
    out = fun(z, jac=True)
    if out is None:
        return None
    rho, J = out
    f = float(rho @ rho)
    A = J.T @ J
    g = J.T @ rho
    if not (math.isfinite(f) and np.isfinite(A).all() and np.isfinite(g).all()):
        return None
    return f, A, g


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


# ---------------------------------------------------------------------------
# minimize
# ---------------------------------------------------------------------------


def _active_terms(eff) -> list[int]:
    """Indices of the finite, strictly positive effective weights."""
    return [i for i in range(len(eff)) if np.isfinite(eff[i]) and eff[i] > 0.0]


def _loss_constant(eff, em: EmpiricalMoments, active) -> float:
    """sum_{active} eff_i * v_hat_i: the part of the total loss no theta can change."""
    out = 0.0
    for i in active:
        out += eff[i] * em.v_hat[i]
    return float(out)


def _finite_objective(model, weights, em, kinds):
    """The residual vector over the active terms, as ``residual(theta, jac=False)``.

    rho_i = sqrt(eff_i * w_i(d_i)) * d_i with d_i = r_i - m_hat_i; with
    ``jac`` the result is (rho, d rho / d theta).  None where theta is
    outside the domain or rho is not finite.  v_hat is left out, so
    the solvers see the residuals down to float64 resolution; callers add
    ``_loss_constant`` back when reporting.
    """
    eff = weights.effective
    active = _active_terms(eff)
    eff_a = eff[active]
    kinds_a = [kinds[i] for i in active]
    m_a = em.m_hat[active]

    def residual(theta, jac=False):
        try:
            d = model.moments(theta)[active] - m_a
        except DomainError:
            return None
        s = np.sqrt(eff_a * [k.weight(x) for k, x in zip(kinds_a, d)])
        rho = s * d
        if not np.isfinite(rho).all():
            return None
        # moment_jacobian checks the same domain as moments did.
        return (rho, s[:, None] * model.moment_jacobian(theta)[active]) if jac else rho

    return residual, active


def _sq(rho) -> float:
    """rho . rho, or inf where the residual is undefined."""
    return math.inf if rho is None else float(rho @ rho)


def _run_solver(fun, z0, config):
    args = (z0, config.max_iters, config.tol_loss, config.tol_step)
    if config.method == "levenberg_marquardt":
        return _levenberg_marquardt(fun, *args)

    def f(z):
        return _sq(fun(z))

    if config.method == "gradient_descent":
        def grad(z):
            out = fun(z, jac=True)
            return None if out is None else 2.0 * (out[1].T @ out[0])

        return _gradient_descent(f, grad, *args)
    return _nelder_mead(f, *args)


def _starts(x0, domain, config, extra):
    """x0, its multistart perturbations in z space, then any extra starts."""
    z0 = _to_z(x0, domain)
    offsets = _multistart_offsets(config, len(domain))
    return [x0, *(_from_z(z0 + off, domain) for off in offsets), *extra]


def _best_of_starts(residual, domain, starts, config, theta_of=None):
    """Run the solver from every start in x space; pick (loss, lexicographic theta).

    x lives in ``domain`` and is searched in its z reparameterization.
    Without ``theta_of``, x is theta and the Jacobian is analytic.  With it,
    x is the one free coordinate of an eliminated problem, ``theta_of(x)``
    decodes it into the full theta (None when infeasible), and the Jacobian
    is a central difference in z.  Each raw start is itself a candidate,
    evaluated without the z round trip, so a start sitting exactly on the
    minimizer is returned bit-exact.

    Returns ((theta, loss, termination, start), total iterations), with None
    in place of the tuple when no candidate is feasible.
    """
    decode = (lambda x: x) if theta_of is None else theta_of

    def rho_x(x):
        theta = decode(x)
        return None if theta is None else residual(theta)

    def fun(z, jac=False):
        if not jac:
            return rho_x(_from_z(z, domain))
        if theta_of is None:
            out = residual(_from_z(z, domain), jac=True)
            return None if out is None else (out[0], out[1] * _dtheta_dz(z, domain))
        h = 1e-6 * (1.0 + abs(float(z[0])))
        rho, up, down = (rho_x(_from_z(z + dz, domain)) for dz in (0.0, h, -h))
        if rho is None or up is None or down is None:
            return None
        return rho, ((up - down) / (2.0 * h))[:, None]

    best = None
    total_iters = 0
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for start in starts:
            z, fz, iters, termination = _run_solver(fun, _to_z(start, domain), config)
            total_iters += iters
            for x, fx in ((_from_z(z, domain), fz), (start, _sq(rho_x(start)))):
                theta = decode(x)
                if theta is None:
                    continue
                key = (fx, tuple(theta))
                if best is None or key < best[0]:
                    best = (key, (theta, fx, termination, start))
    return (None if best is None else best[1]), total_iters


def _solution(theta, r_star, loss, kinds, em, termination="converged", n_iters=0,
              start_used=None, clamped=False, converged=True) -> Solution:
    """A Solution; it has not converged after max_iters or without a finite loss."""
    theta = np.asarray(theta)
    return Solution(
        theta_star=theta,
        r_star=r_star,
        loss=float(loss),
        sub_losses=sub_loss_vector(kinds, r_star, em),
        converged=converged and termination != "max_iters" and math.isfinite(loss),
        n_iters=n_iters,
        start_used=theta if start_used is None else np.asarray(start_used),
        clamped=clamped,
        termination=termination,
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


def minimize(
    model: ParametricModel,
    weights: WeightVector,
    em: EmpiricalMoments,
    kinds=None,
    config: OptimizerConfig | None = None,
    extra_starts=(),
) -> Solution:
    """Best Solution over the configured starts (plus any extra warm starts)."""
    config = config or OptimizerConfig()
    kinds = default_kinds(em.moment_order) if kinds is None else kinds
    if len(weights.c) != em.moment_order:
        raise DomainError("weight vector length must match the moment order")

    inf_idx = weights.infinite_index
    if inf_idx is not None:
        return _minimize_constrained(model, inf_idx, weights, em, kinds, config, extra_starts)

    residual, active = _finite_objective(model, weights, em, kinds)
    if not active:
        raise DomainError("no active sub-loss: all finite weights are zero")

    if model.theta_dim == 1 and len(active) == 1:
        # Exact fit: the minimizer solves r_i(theta) = m_hat_i.  A target
        # outside the model's image has no exact fit; the multistart solve
        # below then finds the boundary-side optimum.
        sol = _minimize_constrained(model, active[0], weights, em, kinds, config)
        if not sol.clamped:
            return replace(sol, termination="exact_fit")

    init = _resolve_init(model, weights, em, kinds, config)
    extra = [interior_start(model, s) for s in extra_starts]
    starts = _starts(init, model.domain, config, extra)
    (theta, fz, termination, start_used), iters = _best_of_starts(
        residual, model.domain, starts, config
    )
    loss = fz + _loss_constant(weights.effective, em, active)
    return _solution(theta, model.moments(theta), loss, kinds, em, termination, iters,
                     start_used)


def _minimize_constrained(model, i, weights, em, kinds, config, extra_starts=()):
    """Minimize the residuals of the finite-weight terms subject to r_i(theta) = m_hat_i."""
    target = float(em.m_hat[i])
    residual, active = _finite_objective(model, weights, em, kinds)
    constant = _loss_constant(weights.effective, em, active)

    if model.theta_dim == 1:
        theta_c, clamped = _solve_constrained_1p(model, i, target)
        theta = np.array([theta_c])
        with np.errstate(over="ignore", invalid="ignore"):
            loss = _sq(residual(theta)) + constant
        return _solution(theta, model.moments(theta), loss, kinds, em, "constraint",
                         clamped=clamped)

    # Two-parameter models: eliminate one coordinate through the constraint
    # and minimize the remaining residuals over the free coordinate.
    free_idx, build = model.eliminate_for_moment(i, target)
    free_domain = (model.domain[free_idx],)

    def theta_of(x):
        try:
            theta = build(float(x[0]))
        except (OutOfImage, ValueError, OverflowError):
            return None
        for j, (lo, hi) in enumerate(model.domain):
            if lo is not None and theta[j] <= lo:
                return None
            if hi is not None and theta[j] >= hi:
                return None
        return theta

    init_full = _resolve_init(model, weights, em, kinds, replace(config, init="moment_match")
                              if config.init == "meshgrid_min" else config)
    extra = []
    for s in extra_starts:
        s = np.asarray(s, dtype=float)
        if s.size == model.theta_dim:
            extra.append(np.array([s[free_idx]]))
    starts = _starts(np.array([init_full[free_idx]]), free_domain, config, extra)
    found, iters = _best_of_starts(residual, free_domain, starts, config, theta_of)
    if found is None:
        raise OutOfImage(
            f"{model.name}: constraint r_{i + 1} = {target} admits no interior solution"
        )
    theta, fz, termination, start_used = found
    r_star = model.moments(theta)
    on_constraint = abs(r_star[i] - target) <= CONSTRAINT_RTOL * (1.0 + abs(target))
    return _solution(theta, r_star, fz + constant, kinds, em, termination, iters, start_used,
                     converged=on_constraint)


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
    return _solution(thetas[idx], r_matrix[idx], losses[idx], kinds, em, n_iters=len(thetas))
