"""Minimize the weighted total loss over a model's parameter domain.

Every objective is a least-squares problem.  Over the active terms (finite,
strictly positive effective weight) it is rho . rho, with one residual per
term

    rho_i = sqrt(eff_i * w_i(d_i)) * d_i,    d_i = r_i(theta) - m_hat_i,

where w_i is 1 for the squared loss and a or b (by the sign of d_i) for the
asymmetric one.  Its Jacobian is diag(sqrt(eff * w)) . moment_jacobian.

The residuals leave out the sample variance v_hat_i that each sub-loss
carries.  It is constant in theta; left in, it can dwarf the data-dependent
part, so that float64 cannot see the residuals the theory checks are meant
to judge.  ``Solution.loss`` adds the constant sum_{active} eff_i * v_hat_i
back, so it reports the full total loss that the meshgrid oracle also
evaluates.

Every one-parameter model is quadratic, r(theta) = (a theta, b theta +
c theta^2), so r_i(theta) = t has a closed-form root for either moment:
t / a, or 2 t / (b + sqrt(b^2 + 4 c t)).  A one-parameter problem is
pinned to moment i when c_i is infinite or sub-loss i is its only active
term; r_i increases in theta, so its answer is that root at t = m_hat_i
clipped to the ends of the domain.  With both sub-losses active the loss is
a piecewise quartic in theta, and its least interior stationary point is
found in closed form for every such problem at once
(``_least_stationary_points``); where an end of the domain scores lower,
that end is the answer.  An end is returned as itself when the domain is
closed there, and as lo + e^-700 at an open lower bound lo.

An infinite weight on coordinate i is never summed into the objective; it
becomes the hard constraint r_i(theta) = m_hat_i, on a 1-parameter model
the pinned root above.  A 2-parameter problem is solved by one of

* ``profile`` (the default): a 1-D search over the shape of the model's row
  of the product-form table, with t minimized out at each shape
  (``elicit.profile``); a constrained problem stays on the fit of its
  constrained moment.  It takes no start and no setting of
  ``OptimizerConfig`` but the method.
* ``nelder_mead``: a simplex on rho . rho.
* ``gradient_descent``: steepest descent on rho . rho with gradient
  2 J^T rho and backtracking line search, kept specifically to reproduce
  its documented sensitivity to the starting point on ill-conditioned
  problems.

The last two run on each finite-weight problem from a moment-matching start
plus random multistarts, and the lowest (loss, theta) over its starts wins.
Every coordinate of a 2-parameter domain is unbounded or bounded below only,
and one bounded below is reparameterized as log(theta - lo), so iterates
stay strictly interior.  A constrained 2-parameter problem is a 1-D search
along its constraint, which the profile solves whatever the start, so it
takes the profile under every method.

Each solver returns only its problems' thetas, each with its termination and
what else it keeps of a Solution; ``_score`` evaluates every row at once.  A
row has converged when its loss is finite, its termination is none of
``UNCONVERGED``, and its constraint on moment i, if any, holds: r_i lies
within CONSTRAINT_RTOL (1 + |m_hat_i|) of m_hat_i, or its root was clamped
to an end of the domain.

A brute-force meshgrid oracle provides an independent cross-check on the
solvers; it scores its grid by ``total_loss``, apart from the solvers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import profile
from .distmodels import LOG_CLIP, NEWTON_STEPS, ParametricModel, _cubic_roots
from .errors import DomainError, ElicitError, EmptyGrid
from .losses import (
    EmpiricalMoments,
    SquaredLoss,
    WeightVector,
    default_kinds,
    sub_loss_vector,
    total_loss,
)

CONSTRAINT_RTOL = 1e-9
_ROW = np.zeros(1, dtype=int)
UNCONVERGED = ("max_iters", "open_end", "no_bracket", "multimodal")
METHODS = ("profile", "nelder_mead", "gradient_descent")
GRID_SLAB = 1 << 14  # grid points per block of the meshgrid oracle, which takes one row at least


@dataclass(frozen=True)
class OptimizerConfig:
    """Settings of the 2-parameter solve.

    ``method`` picks the solver.  ``max_iters``, ``tol_loss``, ``tol_step``,
    ``multistart``, ``init`` and ``seed`` are read only by ``nelder_mead``
    and ``gradient_descent``: the default ``profile`` solve takes no start
    and stops on its own tolerances.  Every 1-parameter problem is solved in
    closed form, with no start and no iteration, so no setting moves its
    answer.
    """

    method: str = "profile"
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

    ``termination`` says why the solve stopped.  On a 1-parameter model:
    ``exact_fit`` (one active sub-loss) or ``constraint`` (an infinite
    weight), the root of the pinned moment clipped to the domain's ends;
    ``exact_minimum`` (both sub-losses active), the least root of the loss's
    cubic derivative; or ``boundary``, an end of the domain, where the loss
    is the infimum over the domain's closure.  On a 2-parameter model the
    profile's terminations (``elicit.profile``), or under ``nelder_mead``
    and ``gradient_descent`` ``converged``, ``max_iters`` or ``no_descent``
    (no step was left where the loss is defined, or the line search found no
    descent).  ``converged`` holds where ``loss`` is finite, the termination
    is none of ``max_iters``, ``open_end``, ``no_bracket`` and
    ``multimodal``, and a constraint on moment i, if any, holds: r_i is
    within CONSTRAINT_RTOL (1 + |m_hat_i|) of m_hat_i, or ``clamped``.

    ``clamped`` marks a ``constraint`` whose root of r_i = m_hat_i was
    clipped to an end of the domain, so that r_i misses m_hat_i.

    ``n_iters`` and ``n_evals`` (residual evaluations) are summed over the
    starts of ``nelder_mead`` and ``gradient_descent``; a 1-parameter closed
    form counts the candidate roots and ends it scores, and the profile 0.
    ``start_index`` is the winning start's place in the start list: 0 for
    the configured init, 1..multistart for the random offsets; None when no
    start was used.
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

def _to_z(theta: np.ndarray, domain) -> np.ndarray:
    """z for an (..., d) array of interior points."""
    theta = np.asarray(theta, dtype=float)
    z = np.empty_like(theta)
    for j, (lo, _) in enumerate(domain):
        x = theta[..., j]
        z[..., j] = x if lo is None else np.log(x - lo)
    return z


def _from_z(z: np.ndarray, domain) -> tuple[np.ndarray, np.ndarray]:
    """theta and d theta / d z, elementwise, for an (..., d) array of z."""
    theta = np.empty_like(z)
    dtheta = np.empty_like(z)
    for j, (lo, _) in enumerate(domain):
        x = z[..., j]
        if lo is None:
            theta[..., j] = x
            dtheta[..., j] = 1.0
        else:
            e = np.exp(np.minimum(np.maximum(x, -LOG_CLIP), LOG_CLIP))
            theta[..., j] = lo + e
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
    return out


# ---------------------------------------------------------------------------
# Nelder-Mead and gradient descent, on rho . rho over z
# ---------------------------------------------------------------------------


def _sq(rho, ok) -> np.ndarray:
    """rho . rho per row, or inf where the residual is undefined."""
    return np.where(ok, (rho * rho).sum(axis=1), math.inf)


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
        if f_best == math.inf:
            termination = "no_descent"  # no vertex where the loss is defined
            break
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


def _run_lane(model, residual, z0, config):
    """Nelder-Mead or gradient descent from z0: (z, f, iterations, termination, evals).

    ``residual`` is the problem's ``_finite_objective``; theta = ``_from_z``
    of z, so the gradient 2 J^T rho picks up the factor d theta / d z.
    """
    evals = 0

    def f(z, jac=False):
        nonlocal evals
        evals += 1
        theta, dtheta = _from_z(z[None], model.domain)
        rho, J, ok = residual(theta, _ROW, jac)
        if not jac:
            return float(_sq(rho, ok)[0])
        return 2.0 * (J * dtheta[:, None, :] * rho[:, :, None]).sum(axis=1)[0] if ok[0] else None

    args = (z0, config.max_iters, config.tol_loss, config.tol_step)
    if config.method == "gradient_descent":
        return (*_gradient_descent(f, lambda z: f(z, jac=True), *args), evals)
    return (*_nelder_mead(f, *args), evals)


# ---------------------------------------------------------------------------
# Initialization
# ---------------------------------------------------------------------------


def moment_match_init(model: ParametricModel, em: EmpiricalMoments) -> np.ndarray:
    """An interior start matching the first sample moments where the model can.

    One-parameter families invert the first moment; only ``default_box`` reads
    that.  A 2-parameter model matches the first two by its ``match_moments``,
    derived from its row of the product-form table, and falls back to the
    domain center where the sample moments are off its image.
    """
    m = em.m_hat
    if model.theta_dim == 1:
        return interior_start(model, [model.theta_from_r1(m[0])])
    try:
        theta = model.match_moments(*m[:2].tolist())
    except (ValueError, OverflowError):
        theta = None
    return model.domain_center() if theta is None else interior_start(model, theta)


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


def _loss_constant(eff, em: EmpiricalMoments) -> np.ndarray:
    """sum_i eff_i * v_hat_i, from 0.0 in order, per row of active weights: no theta moves it."""
    return sum((eff[:, i] * em.v_hat[i] for i in range(eff.shape[1])), 0.0)


def _finite_objective(model, em, kinds, eff):
    """The residual over the active terms, as ``residual(theta, rows, jac=False)``.

    ``eff`` holds one row of effective weights per problem, 0 on every
    inactive term; row k of the (n, d) ``theta`` belongs to problem
    ``rows[k]``.  rho_i = sqrt(eff_i * w_i(d_i)) * d_i with d_i = r_i -
    m_hat_i on the active terms and 0 on the others; squared losses have w_i
    = 1, so their roots are taken once.  Returns (rho, d rho / d theta or
    None unless ``jac``, ok); ok marks the rows inside the domain with a
    finite rho.  v_hat is left out, so the solvers see the residuals down to
    float64 resolution; callers add ``_loss_constant`` back.
    """
    m_hat = em.m_hat
    active = eff > 0.0
    squared = all(isinstance(kind, SquaredLoss) for kind in kinds)
    root = np.sqrt(eff) if squared else None

    def residual(theta, rows, jac=False):
        d = model.moments_grid(theta) - m_hat
        on = active[rows]
        if squared:
            s = root[rows]
        else:
            w = np.empty_like(d)
            for i, kind in enumerate(kinds):
                w[:, i] = kind.weight(d[:, i])
            s = np.sqrt(eff[rows] * w)
        rho = np.where(on, s * d, 0.0)
        ok = model.in_domain(theta) & np.isfinite(rho).all(axis=1)
        J = np.where(on[..., None], s[:, :, None] * model.jacobian_grid(theta), 0.0) if jac else None
        return rho, J, ok

    return residual


def _score(model, em, kinds, eff, held, theta, found) -> list[Solution | ElicitError]:
    """A Solution per row of the (n, d) ``theta``, or the DomainError of a row outside the domain.

    Row p solved the problem with effective weights ``eff[p]`` and
    constrained moment ``held[p]`` (-1 for none); ``found[p]`` holds its
    termination and any other Solution fields its solver keeps.
    """
    n = len(theta)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        rho, _, ok = _finite_objective(model, em, kinds, eff)(theta, np.arange(n))
        loss = _sq(rho, ok) + _loss_constant(eff, em)
        r_star = model.moments_grid(theta)
        sub_losses = sub_loss_vector(kinds, r_star, em)
    i, m_hat = np.maximum(held, 0), em.m_hat
    clamped = np.array([row.get("clamped", False) for row in found], dtype=bool)
    on = (held < 0) | clamped | (np.abs(r_star[np.arange(n), i] - m_hat[i])
                                 <= CONSTRAINT_RTOL * (1.0 + np.abs(m_hat[i])))
    settled = np.array([row["termination"] not in UNCONVERGED for row in found], dtype=bool)
    converged = np.isfinite(loss) & on & settled
    inside, out = model.in_domain(theta), []
    for p in range(n):
        try:
            if not inside[p]:
                model.moments(theta[p])  # raises the DomainError naming the bound
            fields = {"n_iters": 0, "start_used": theta[p], **found[p]}
            out.append(Solution(theta_star=theta[p], r_star=r_star[p], loss=float(loss[p]),
                                sub_losses=sub_losses[p], converged=bool(converged[p]), **fields))
        except ElicitError as exc:
            out.append(exc)
    return out


def _ends(model) -> list[float]:
    """The ends of a 1-parameter domain, as the thetas returned for an optimum there.

    A closed bound is itself.  An open lower bound lo is lo + e^-700, where
    ``_from_z``'s clip puts a coordinate that runs toward lo.  The one
    domain bounded above, the binomial's, is closed.
    """
    (lo, hi), = model.domain
    (lo_closed, _), = model.domain_closed or ((False, False),)
    ends = [lo if lo_closed else lo + math.exp(-LOG_CLIP)]
    return ends if hi is None else [*ends, hi]


def _moment_fits(model, m_hat) -> list[float]:
    """The unclipped theta with r_i(theta) = m_hat_i per moment; r_2(0) = 0, so r_2 < 0 maps to -inf."""
    m1, m2 = m_hat.tolist()
    return [model.theta_from_r1(m1),
            model.theta_from_r2(m2) if m2 > 0.0 else -math.inf if m2 < 0.0 else 0.0]


def _least_point(model, em, kinds, eff, candidates):
    """Per row of ``eff``, the least (f, theta) of its candidates and the domain's ends.

    f is the excess loss, inf off the domain.  Of the (n, K) candidates only
    those strictly inside the domain count, and an end wins only where it
    scores strictly lower.  Returns theta, whether it is a candidate rather
    than an end, and the number of points scored per row.
    """
    n, K = candidates.shape
    lo, hi = model.domain[0]
    inside = (candidates > lo) & (candidates < (math.inf if hi is None else hi))
    points = np.column_stack([np.where(inside, candidates, math.nan),
                              np.tile(_ends(model), (n, 1))])
    m = points.shape[1]
    residual = _finite_objective(model, em, kinds, np.repeat(eff, m, axis=0))
    rho, _, ok = residual(points.reshape(-1, 1), np.arange(n * m))
    f = _sq(rho, ok).reshape(n, m)
    is_end = np.broadcast_to(np.arange(m) >= K, points.shape)
    best = np.lexsort((points, is_end, f))[:, 0]
    return points[np.arange(n), best], best < K, m


def _active_terms(weights: WeightVector, em: EmpiricalMoments):
    """(infinite index, effective weights, pinned moment) of one problem.

    Inactive terms (zero or infinite weight) get effective weight 0.  A
    1-parameter problem is pinned to moment i when c_i is infinite or
    sub-loss i is its only active term, and to None otherwise.  Raises
    DomainError on a weight vector of the wrong length or with no active term.
    """
    if len(weights.c) != em.moment_order:
        raise DomainError("weight vector length must match the moment order")
    eff = [e if 0.0 < e < math.inf else 0.0 for e in weights.effective.tolist()]
    active = [i for i, e in enumerate(eff) if e]
    fixed = weights.infinite_index
    if fixed is None and not active:
        raise DomainError("no active sub-loss: all finite weights are zero")
    return fixed, eff, active[0] if fixed is None and len(active) == 1 else fixed


def _solve_1p(model, em, kinds, rows):
    """The (n, 1) theta and the Solution fields of each 1-parameter row, in closed form.

    A row pinned to moment i takes the root of r_i(theta) = m_hat_i clipped to
    ``_ends``, exact since r_i increases in theta, and scores one point.  It
    ends ``constraint`` under an infinite weight (``clamped`` if clipped),
    else ``exact_fit`` (``boundary`` if clipped).  The other rows take
    ``_least_stationary_points``.
    """
    theta, found = np.empty(len(rows)), [None] * len(rows)
    fits, (lo, *hi) = _moment_fits(model, em.m_hat), _ends(model)
    free = [p for p, row in enumerate(rows) if row[3] is None]
    for p, (_, fixed, _, i) in enumerate(rows):
        if i is not None:
            theta[p] = t = min(max(lo, fits[i]), hi[0] if hi else math.inf)
            clipped = t != fits[i]
            term = "constraint" if fixed is not None else "boundary" if clipped else "exact_fit"
            found[p] = {"termination": term, "clamped": clipped and fixed is not None, "n_evals": 1}
    if free:
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            theta[free], interior, n_evals = _least_stationary_points(
                model, em, kinds, np.array([rows[p][2] for p in free]))
        for p, x in zip(free, interior.tolist()):
            found[p] = {"termination": "exact_minimum" if x else "boundary", "n_evals": n_evals}
    return theta[:, None], found


def _least_stationary_points(model, em, kinds, eff):
    """Each row's least point of F on a 1-parameter model: a stationary point or an end.

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
    elementwise ``_cubic_roots``.  A cubic whose coefficients overflow (a
    weight ratio beyond float64) has no finite root, so the single-moment
    fits m_hat_1 / a and r_2^-1(m_hat_2) take its place: where one weight is
    that small, the fit of the other moment is the minimizer.  Every
    candidate takes NEWTON_STEPS Newton steps on its cubic, and
    ``_least_point`` scores it against the ends of the domain.

    Returns theta, whether it is a stationary point rather than an end, and
    the number of points scored per row.
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
    overflow = ~np.isfinite(theta).any(axis=-1, keepdims=True)
    fits = np.where(overflow, _moment_fits(model, em.m_hat), math.nan)
    theta = np.concatenate([theta, fits], axis=-1)
    W1, W2 = W1[..., None], W2[..., None]
    for _ in range(NEWTON_STEPS):
        d1, d2 = a * theta - m1, b * theta + c * theta * theta - m2
        slope = b + 2.0 * c * theta
        step = (W1 * a * d1 + W2 * slope * d2) / (W1 * a * a + W2 * (slope * slope + 2.0 * c * d2))
        theta = np.where(np.isfinite(step), theta - step, theta)
    return _least_point(model, em, kinds, eff, theta.reshape(len(eff), -1))


def minimize_many(
    model: ParametricModel,
    weights_list,
    em: EmpiricalMoments,
    kinds=None,
    config: OptimizerConfig | None = None,
) -> list[Solution | ElicitError]:
    """``minimize`` for every weight vector.

    Returns one Solution per weight vector, or the ElicitError that its
    problem raised, so one infeasible problem leaves the others solved.
    Each result equals ``minimize`` on that weight vector alone.  Every
    1-parameter problem is solved in closed form by ``_solve_1p``, and every
    2-parameter one by ``profile.solve`` under the default method, all of them
    together, ignoring ``config``'s other settings; ``_score`` scores them all.
    """
    kinds = default_kinds(em.moment_order) if kinds is None else kinds
    config = config or OptimizerConfig()
    out: list = [None] * len(weights_list)
    # A constrained 2-parameter problem is a 1-D search along its constraint,
    # which the profile solves whatever the start: so under every method.
    iterative = model.theta_dim == 2 and config.method != "profile"
    rows = []       # (result index, constraint index, active weights, pinned moment)
    for k, weights in enumerate(weights_list):
        try:
            row = (k, *_active_terms(weights, em))
            if model.theta_dim == 2 and row[1] is not None:  # raises OutOfImage off the image
                model.check_image(row[1], float(em.m_hat[row[1]]))
            rows.append(row)
        except ElicitError as exc:
            out[k] = exc
    rows.sort(key=lambda row: iterative and row[1] is None)     # the rows that take a start last
    n = sum(not iterative or row[1] is not None for row in rows)
    eff = np.array([row[2] for row in rows]).reshape(len(rows), em.moment_order)
    held = np.array([-1 if row[1] is None else row[1] for row in rows], dtype=int)
    if model.theta_dim == 1:
        theta, found = _solve_1p(model, em, kinds, rows)
    else:
        theta, term = profile.solve(model, em, kinds, eff[:n], held[:n])
        found = [{"termination": t} for t in term.tolist()]
    base = _starts(_resolve_init(model, em, config), model.domain, config) if n < len(rows) else None
    for p in range(n, len(rows)):
        end, fields = _best_of_starts(model, em, kinds, eff[p], base, config)
        theta, found = np.vstack([theta, end]), found + [fields]
    for row, sol in zip(rows, _score(model, em, kinds, eff, held, theta, found)):
        out[row[0]] = sol
    return out


def _best_of_starts(model, em, kinds, eff, x0s, config):
    """Nelder-Mead or gradient descent on one finite-weight problem from each start.

    Each start's raw theta is a candidate beside the solver's end, scored
    without the z round trip, so a start sitting exactly on the minimizer is
    returned bit-exact.  The least (f, theta) wins, the earlier candidate on
    a tie (each start's end, then the start itself, in start order).
    Returns the winner's theta and its Solution fields for ``_score``.
    """
    residual = _finite_objective(model, em, kinds, np.array([eff]))
    candidates, n_iters, n_evals = [], 0, 0
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for index, x0 in enumerate(x0s):
            z, f_end, iters, term, evals = _run_lane(model, residual, _to_z(x0, model.domain), config)
            rho, _, ok = residual(x0[None], _ROW)
            for theta, value in ((_from_z(z, model.domain)[0], f_end), (x0, float(_sq(rho, ok)[0]))):
                candidates.append(((value, *theta.tolist()), theta, term, x0, index))
            n_iters, n_evals = n_iters + iters, n_evals + evals + 1
    _, theta, term, x0, index = min(candidates, key=lambda c: c[0])
    return theta, {"termination": term, "n_iters": n_iters, "n_evals": n_evals,
                   "start_used": x0, "start_index": index}


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
    """Exhaustive grid minimizer, in blocks of whole rows: the first minimum in C order.

    Axis j holds lo_j + width * k up to hi_j, so C order sorts the grid
    lexicographically by theta and the first minimum has the smallest theta.
    A block takes max(1, GRID_SLAB // row length) values of axis 0 with every
    point of the later axes, so about GRID_SLAB points and never less than
    one row; ``moments_mesh`` evaluates it on the tensor product of its axes.
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

    row = math.prod(len(a) for a in axes[1:])
    rows, best = max(1, GRID_SLAB // row), None
    for start in range(0, len(axes[0]), rows):
        block = [axes[0][start:start + rows], *axes[1:]]
        with np.errstate(over="ignore", invalid="ignore"):
            r_block = model.moments_mesh(block)
            losses = total_loss(weights, r_block, em, kinds)
        losses = np.where(np.isfinite(losses), losses, math.inf)
        k = np.unravel_index(int(np.argmin(losses)), losses.shape)
        # Strict: on a tie the earlier block, so the earlier grid point, wins.
        if best is None or losses[k] < best[2]:
            best = (np.array([a[i] for a, i in zip(block, k)]), r_block[k], losses[k])
    theta, r_star, loss = best
    with np.errstate(over="ignore", invalid="ignore"):
        sub_losses = sub_loss_vector(kinds, r_star, em)
    n = len(axes[0]) * row
    return Solution(theta_star=theta, r_star=r_star, loss=float(loss), sub_losses=sub_losses,
                    converged=bool(np.isfinite(loss)), n_iters=n, start_used=theta, n_evals=n)
