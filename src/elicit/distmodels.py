"""Parametric distribution models with closed-form raw-moment maps.

Each model maps a free parameter vector theta to its first M raw moments
r(theta) = (E[X], ..., E[X^M]).  One-parameter models carry M = 2 and
two-parameter models M = 3, so the moment image is always a codimension-1
set and a generic empirical moment vector lies off it.

The five one-parameter families are one quadratic family, r(theta) =
(a theta, b theta + c theta^2), with (a, b, c) per family in ``_QUADRATIC``.
Both moments invert in closed form, and the model curve r2 = R(r1) is the
parabola (b / a) r1 + (c / a^2) r1^2.  Against the variance contour's slope
T'(r1) = 2 r1 that gives R' - T' = b / a + 2 (c / a^2 - 1) r1, which changes
sign only for the binomial (c / a^2 = 1 - 1/K), at r1 = K / 2.

The four two-parameter families are one product form, r_k = P_k(t) h_k(phi)
for k = 1, 2, 3, with one row per family in ``_PRODUCT``; x^[k] is the
rising product x (x+1) ... (x+k-1):

    family       theta    t    phi    P_k(t)  h_k(phi)                    free
    lognormal    (u, v2)  e^u  v2     t^k     e^(k^2 phi / 2)             phi
    gamma2       (a, b)   b    a      t^k     phi^[k]                     phi
    loglogistic  (a, b)   a    b      t^k     (k pi/phi) / sin(k pi/phi)  phi
    beta2        (a, b)   a    a + b  t^[k]   1 / phi^[k]                 t

The lognormal row is evaluated in logs, r_k = exp(k u + k^2 v2 / 2), and the
Jacobian is r_k (d log P_k / dt dt / dtheta + d log h_k / dphi dphi / dtheta).
``eliminate_for_moment`` holds the free coordinate: the three scale families
(P_k = t^k) set t = (m_k / h_k(phi))^(1/k), in logs u = (log m_k - k^2 v2 / 2)
/ k; beta2 solves (a + b)^[k] - a^[k] = a^[k] (1 - m_k) / m_k, a polynomial
of degree k in b without constant term and with one positive root, in closed
form (for k = 3 the largest root of ``_cubic_roots``, polished by
NEWTON_STEPS Newton steps).  ``match_moments`` fits r_1 and r_2: t cancels
from h_2(phi) / h_1(phi)^2 = m_2 / m_1^2, which gives phi = log of the ratio
for lognormal, 1 / (ratio - 1) for gamma2 and the root of tan(pi/phi) /
(pi/phi) = ratio (``newton_in_bracket``) for loglogistic; then t = m_1 /
h_1(phi).
beta2 matches the mean and variance in closed form.  On a grid, ``moments_mesh``
feeds the table an (n, 1) and a (1, m) column of theta, so P and h are taken once
per axis value and broadcast; each product and exp(p + q) is the same float
op on the same operands as in ``moments_grid``, so the bits are the same.

Deterministic sampling lives here too.  The repository-wide generator is
numpy's Philox4x64 (counter-based); per-template substreams are keyed by
``(seed << 64) | blake2b64(template_name)``.  All families are sampled by
inverse-CDF transform of the substream's uniforms, so identical (name,
params, n_samples, seed) reproduce identical bytes.  The normal quantile is
``_ndtri``, a port of Cephes ``ndtri`` (Moshier, *Methods and Programs for
Mathematical Functions*, 1989) that reproduces ``scipy.special.ndtri`` bit
for bit; the incomplete-gamma, incomplete-beta, Poisson and binomial
inverses come from ``scipy.special``, which ``sample`` imports only for those
families, so a run that needs none of them never loads it.
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import math
import operator
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, OutOfImage

PRNG_ALGORITHM = "Philox4x64 (numpy.random.Philox)"
PRNG_SUBSTREAM = "key = (seed << 64) | blake2b-64(template name)"

# Log-logistic moments of order k exist only for shape b > k; we keep a
# safety margin above b = M so 1/sin(k*pi/b) stays well-conditioned.
LOGLOGISTIC_SHAPE_FLOOR = 3.5
NEWTON_STEPS = 3  # polishing steps on each closed-form root of a cubic
LOG_CLIP = 700.0  # |log| of the least and greatest positive coordinate: exp stays inside (0, inf)

Bound = tuple[float | None, float | None]


# Each acts elementwise on arrays and directly on floats.
_BOUND_OPS = {">": operator.gt, ">=": operator.ge, "<": operator.lt, "<=": operator.le}


def _bounds(domain, closed) -> list[tuple[int, str, float]]:
    """Every finite bound as (j, op, bound): theta[j] op bound must hold."""
    out = []
    for j, (lo, hi) in enumerate(domain):
        lo_closed, hi_closed = closed[j] if closed is not None else (False, False)
        if lo is not None:
            out.append((j, ">=" if lo_closed else ">", lo))
        if hi is not None:
            out.append((j, "<=" if hi_closed else "<", hi))
    return out


def libm(f, a) -> np.ndarray:
    """A ``math`` function applied elementwise to an array.

    ``math`` calls the C library, as scipy's compiled special functions do;
    numpy's vectorized ``log``/``exp`` may differ from it in the last bit.
    """
    a = np.asarray(a, dtype=float)
    return np.fromiter(map(f, a.ravel().tolist()), float, a.size).reshape(a.shape)


class ParametricModel:
    """A named moment map theta -> r(theta) with domain and Jacobian.

    Subclasses implement ``moments_grid`` and ``jacobian_grid`` over rows of
    interior points; ``moments`` and ``moment_jacobian`` validate one theta
    first.  ``theta_dim`` is always ``moment_order - 1``.
    """

    name: str = ""
    theta_dim: int = 1
    moment_order: int = 2
    # Interval bounds per coordinate; None means unbounded.  A coordinate is
    # unbounded, bounded below, or bounded on both sides, never bounded above
    # only.  Bounds are exclusive unless flagged closed in domain_closed.
    domain: tuple[Bound, ...] = ((0.0, None),)
    domain_closed: tuple[tuple[bool, bool], ...] | None = None

    # (op, bound) for a family with a fixed shape or trial count K: the only
    # fixed param, finite, and K op bound must hold.  Other families take none.
    k_bound: tuple[str, float] | None = None

    def __init__(self, fixed_params: tuple[float, ...] = ()):
        self.fixed_params = p = tuple(float(x) for x in fixed_params)
        if self.k_bound is None:
            ok, rule = not p, "()"
        else:
            op, bound = self.k_bound
            ok = len(p) == 1 and math.isfinite(p[0]) and _BOUND_OPS[op](p[0], bound)
            rule = f"(K,) with K {op} {bound}"
        if not ok:
            raise DomainError(f"{self.name}: fixed_params must be {rule}")
        self._bounds = _bounds(self.domain, self.domain_closed)

    def in_domain(self, thetas) -> np.ndarray:
        """(n,) mask of the rows of an (n, d) array that are finite and inside the domain."""
        thetas = np.asarray(thetas, dtype=float)
        ok = np.isfinite(thetas).all(axis=1)
        for j, op, bound in self._bounds:
            ok &= _BOUND_OPS[op](thetas[:, j], bound)
        return ok

    def _check(self, theta) -> None:
        """Raise DomainError naming the rule of ``in_domain`` that one theta violates."""
        theta = np.asarray(theta, dtype=float).reshape(-1)
        if len(theta) != self.theta_dim:
            raise DomainError(f"{self.name}: theta = {theta.tolist()} must hold "
                              f"{self.theta_dim} values")
        for j, x in enumerate(theta):
            if not math.isfinite(x):
                raise DomainError(f"{self.name}: theta[{j}] = {x} is not finite")
            for jj, op, bound in self._bounds:
                if jj == j and not _BOUND_OPS[op](x, bound):
                    raise DomainError(
                        f"{self.name}: theta[{j}] = {x} violates theta[{j}] {op} {bound}")

    def moments(self, theta) -> np.ndarray:
        self._check(theta)
        return self.moments_grid(np.reshape(theta, (1, self.theta_dim)))[0]

    def moment_jacobian(self, theta) -> np.ndarray:
        self._check(theta)
        return self.jacobian_grid(np.reshape(theta, (1, self.theta_dim)))[0]

    def moments_mesh(self, axes) -> np.ndarray:
        """The moments on the grid of ``axes``, one per coordinate, as (*lengths, M)."""
        mesh = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)
        return self.moments_grid(mesh.reshape(-1, len(axes))).reshape(*mesh.shape[:-1], -1)

    def domain_center(self) -> np.ndarray:
        """A canonical interior point, used as an optimizer fallback start."""
        center = []
        for lo, hi in self.domain:
            if lo is not None and hi is not None:
                center.append(0.5 * (lo + hi))
            elif lo is not None:
                center.append(lo + 1.0)
            else:
                center.append(0.0)
        return np.array(center)

    def __repr__(self) -> str:  # pragma: no cover
        return f"{type(self).__name__}({self.name!r}, fixed_params={self.fixed_params})"


# ---------------------------------------------------------------------------
# One-parameter families (M = 2, variance experiments)
# ---------------------------------------------------------------------------

# r(theta) = (a theta, b theta + c theta^2) per family: (a, b, c) from the
# fixed params, the bound on the shape or trial count K where the family has
# one, and whether theta is a probability in [0, 1] rather than in (0, inf).
_QUADRATIC = {
    "poisson": (lambda: (1.0, 1.0, 1.0), None, False),
    "chisq": (lambda: (1.0, 2.0, 1.0), None, False),  # theta degrees of freedom
    "exponential": (lambda: (1.0, 0.0, 2.0), None, False),  # theta the mean
    "gamma_fixed_shape": (lambda K: (K, 0.0, K * (K + 1.0)), (">", 0), False),  # theta the scale
    "binomial_fixed_trials": (lambda K: (K, K, K * K - K), (">=", 1), True),
}


class QuadraticModel(ParametricModel):
    """A 1-parameter family with r(theta) = (a theta, b theta + c theta^2).

    Both moments invert in closed form: theta = r1 / a, and theta = 2 r2 /
    (b + sqrt(b^2 + 4 c r2)), the positive root of c theta^2 + b theta = r2
    in a form without cancellation that also holds for b = 0 and for c = 0.
    """

    def __init__(self, name, fixed_params=()):
        coefficients, self.k_bound, probability = _QUADRATIC[name]
        self.name = name
        if probability:
            self.domain, self.domain_closed = ((0.0, 1.0),), ((True, True),)
        super().__init__(fixed_params)
        self.a, self.b, self.c = coefficients(*self.fixed_params)

    def moments_grid(self, thetas):
        t = np.asarray(thetas, dtype=float)[:, 0]
        return np.column_stack([self.a * t, self.b * t + self.c * t * t])

    def jacobian_grid(self, thetas):
        t = np.asarray(thetas, dtype=float)[:, :1]
        return np.stack([np.full_like(t, self.a), self.b + 2.0 * self.c * t], axis=1)

    def theta_from_r1(self, r1: float) -> float:
        """Closed-form inverse of the first moment."""
        return float(r1) / self.a

    def theta_from_r2(self, r2: float) -> float:
        """Closed-form inverse of the second moment, for r2 > 0.

        The root is taken halved throughout, r2 / (b/2 + sqrt(b^2/4 + c r2)),
        the same bits, so that only c r2 can overflow; where it does, b is
        negligible and the root is sqrt(r2 / c).
        """
        h = 0.5 * self.b
        s = h * h + self.c * r2
        return math.sqrt(r2 / self.c) if math.isinf(s) else r2 / (h + math.sqrt(s))


# ---------------------------------------------------------------------------
# Roots
# ---------------------------------------------------------------------------


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


def newton_in_bracket(f, a, b, fa, fb, da, db, xtol, rtol=0.0):
    """A root of f per row, by Newton's method kept inside the row's bracket [a, b].

    f(a) < 0 < f(b) on each row (a may exceed b), and da, db are f' there.
    ``f(rows, x)`` returns f and f' at x for the given rows.  Each step is
    Newton's from the end nearer the root by |f|, or bisects the bracket
    where that step leaves it, and replaces the end whose sign it shares, so
    every row converges.  A row stops at x once the Newton step from x, or
    the bracket, is at most xtol + rtol |x|, or f vanishes there; the rows
    leave one by one.  Returns each row's last x.
    """
    a, b, fa, fb, da, db = (np.array(v, dtype=float) for v in (a, b, fa, fb, da, db))
    x = np.where(fa == 0.0, a, b)
    live = np.flatnonzero((fa != 0.0) & (fb != 0.0))
    while live.size:
        A, B, FA, FB, DA, DB = (v[live] for v in (a, b, fa, fb, da, db))
        near = np.abs(FA) < np.abs(FB)
        X = np.where(near, A, B)
        with np.errstate(divide="ignore", invalid="ignore"):  # a step that is not finite bisects
            newton = X - np.where(near, FA, FB) / np.where(near, DA, DB)
        x[live] = new = np.where((newton - A) * (newton - B) < 0.0, newton, 0.5 * (A + B))
        F, D = f(live, new)
        below = F < 0.0
        a[live], fa[live], da[live] = (np.where(below, v, w) for v, w in ((new, A), (F, FA), (D, DA)))
        b[live], fb[live], db[live] = (np.where(below, w, v) for v, w in ((new, B), (F, FB), (D, DB)))
        tol = xtol + rtol * np.abs(new)
        live = live[(F != 0.0) & (np.abs(F) > tol * np.abs(D)) & (np.abs(a[live] - b[live]) > tol)]
    return x


# ---------------------------------------------------------------------------
# Two-parameter families (M = 3, skewness experiments)
# ---------------------------------------------------------------------------

# The entries P and h of ``_PRODUCT``: each maps an array x to its three values
# over k = 1, 2, 3 and, up to ``order``, to the derivatives of their logs in x.


def _powers(x, order=0):
    """x^k, and k / x."""
    return [[x**k for k in (1, 2, 3)], *([[k / x for k in (1, 2, 3)]] if order else [])]


def _rising(x, order=0, inverse=False):
    """x^[k] and the first two derivatives of its log, or with inverse 1 / x^[k] and theirs."""
    y, sign = [x, x + 1.0, x + 2.0], -1.0 if inverse else 1.0
    op, first = (operator.truediv, 1.0 / x) if inverse else (operator.mul, x)
    out = [list(itertools.accumulate(y[1:], op, initial=first))]
    for n in range(1, order + 1):  # sum_{j<k} (-1)^(n-1) / (x+j)^n
        out.append(list(itertools.accumulate(sign * (-1.0) ** (n - 1) / v**n for v in y)))
    return out


def _loglogistic_h(x, order=0):
    """c / sin(c) with c = k pi / x, and the first two derivatives of its log in x."""
    c = [k * np.pi / x for k in (1, 2, 3)]
    out = [[v / np.sin(v) for v in c]]
    if order:
        out.append([(v / np.tan(v) - 1.0) / x for v in c])
    if order > 1:
        out.append([(1.0 - 2.0 * v / np.tan(v) + (v / np.sin(v)) ** 2) / (x * x) for v in c])
    return out


def _linear(K):
    """The entry K_k x, whose log-derivative is K_k: the log row's log P_k and log h_k."""
    return lambda x, order=0: [[c * x for c in K], K, (0.0, 0.0, 0.0)][:order + 1]


def _loglogistic_shape(ratio: float) -> float:
    """The b with tan(c) / c = ratio, c = pi / b, by ``newton_in_bracket``; nan where there is none."""
    def f(_, c):
        tan = np.tan(c)
        return tan / c - ratio, (1.0 / np.cos(c) ** 2 - tan / c) / c

    ends = np.array([math.pi / 1e8, math.pi / (LOGLOGISTIC_SHAPE_FLOOR + 1e-6)])
    (f_lo, f_hi), (d_lo, d_hi) = f(None, ends)
    if not f_lo < 0.0 < f_hi:
        return math.nan
    c = newton_in_bracket(f, ends[:1], ends[1:], [f_lo], [f_hi], [d_lo], [d_hi], 0.0,
                          4.0 * np.finfo(float).eps)
    return math.pi / float(c[0])


# One row per family: its domain and closed bounds, the index of t in theta,
# whether it is a scale family, whether P and h give logs, P, h, and phi as a
# function of h_2 / h_1^2 (of its log in logs) on a scale family.
_PRODUCT = {
    "lognormal": (((None, None), (0.0, None)), ((False, False), (True, False)), 0, True, True,
                  _linear((1.0, 2.0, 3.0)), _linear((0.5, 2.0, 4.5)), lambda ratio: ratio),
    "gamma2": (((0.0, None), (0.0, None)), None, 1, True, False, _powers, _rising,
               lambda ratio: 1.0 / (ratio - 1.0) if ratio > 1.0 else math.nan),
    "loglogistic": (((0.0, None), (LOGLOGISTIC_SHAPE_FLOOR, None)), None, 0, True, False,
                    _powers, _loglogistic_h, _loglogistic_shape),
    "beta2": (((0.0, None), (0.0, None)), None, 0, False, False, _rising,
              functools.partial(_rising, inverse=True), None),
}


def _beta2_build(a, i, odds):
    """(a, b) with r_{i+1} = 1 / (1 + odds), b the positive root of the module docstring."""
    D = _rising(a)[0][i] * odds
    if i == 0:
        b = D
    elif i == 1:
        # Root of b^2 + (2a+1) b = D, in a form without cancellation.
        b = 2.0 * D / ((2.0 * a + 1.0) + np.sqrt((2.0 * a + 1.0) ** 2 + 4.0 * D))
    else:
        c2, c1 = 3.0 * (a + 1.0), 3.0 * a * a + 6.0 * a + 2.0
        with np.errstate(invalid="ignore", divide="ignore"):
            b = _cubic_roots(c2, c1, -D).max(axis=-1)
        for _ in range(NEWTON_STEPS):
            step = (((b + c2) * b + c1) * b - D) / ((3.0 * b + 2.0 * c2) * b + c1)
            b = np.where(np.isfinite(step), b - step, b)
    return np.column_stack([a, b])


class ProductModel(ParametricModel):
    """A 2-parameter family from its row of ``_PRODUCT``: r_k(theta) = P_k(t) h_k(phi)."""

    theta_dim = 2
    moment_order = 3

    def __init__(self, name, fixed_params=()):
        self.name = name
        (self.domain, self.domain_closed, self.t, self.scale, self.log, self.P, self.h,
         self.phi_of_ratio) = _PRODUCT[name]
        super().__init__(fixed_params)

    def _entries(self, columns, order=0):
        """P and h over theta's broadcast columns, each with ``order`` log-derivatives."""
        x, y = columns[self.t], columns[1 - self.t]
        return self.P(x, order), self.h(y if self.scale else x + y, order)

    def _r(self, p, q, out=None):
        return np.exp(p + q, out=out) if self.log else np.multiply(p, q, out=out)

    def _moments(self, columns, out):
        """r_k = P_k h_k into out[..., k] over the broadcast ``columns``."""
        (P,), (h,) = self._entries(columns)
        for k, (p, q) in enumerate(zip(P, h)):
            self._r(p, q, out[..., k])
        return out

    def moments_grid(self, thetas):
        return self._moments(np.asarray(thetas, dtype=float).T, np.empty((len(thetas), 3)))

    def moments_mesh(self, axes):  # moment-major, so that each r_k is contiguous
        return self._moments(np.ix_(*axes), np.moveaxis(np.empty((3, *map(len, axes))), 0, -1))

    def jacobian_grid(self, thetas):
        """The chain rule, r_k (d log P_k / dt dt / dtheta + d log h_k / dphi dphi / dtheta)."""
        (P, dP), (h, dh) = self._entries(np.asarray(thetas, dtype=float).T, 1)
        out = np.empty((len(thetas), 3, 2))
        for k, (p, q, dp, dq) in enumerate(zip(P, h, dP, dh)):
            r = self._r(p, q)
            # beta2's phi = a + b moves with t = a.
            np.multiply(r, dp if self.scale else dp + dq, out=out[:, k, self.t])
            np.multiply(r, dq, out=out[:, k, 1 - self.t])
        return out

    def eliminate_for_moment(self, i: int, target: float):
        """Solve r_i(theta) = target for one coordinate, as the module docstring derives.

        Returns ``(free_index, build)``, or raises OutOfImage when no
        parameter can reach the target.  ``build(x)`` maps an (n,) array of
        the free coordinate to the (n, 2) thetas that satisfy the constraint;
        a row that leaves the domain is left for ``in_domain`` to reject.
        """
        k = i + 1
        if target <= 0 or not (self.scale or target < 1.0):
            image = "is positive" if self.scale else "lies in (0, 1)"
            raise OutOfImage(f"{self.name}: moment {k} {image}, target {target} unreachable")
        if not self.scale:
            return 0, functools.partial(_beta2_build, i=i, odds=(1.0 - target) / target)
        log_target = math.log(target)

        def build(phi):
            h = self.h(phi)[0][i]
            t = (log_target - h) / k if self.log else (target / h) ** (1.0 / k)
            return np.column_stack([t, phi] if self.t == 0 else [phi, t])

        return 1 - self.t, build

    def match_moments(self, m1: float, m2: float):
        """A theta with r_1 = m1 and r_2 = m2 as the module docstring derives, or None."""
        if not self.scale:
            var = m2 - m1**2
            if not 0 < m1 < 1 or var <= 0 or var >= m1 * (1 - m1):
                return None
            phi = m1 * (1 - m1) / var - 1.0  # a + b
            return [m1 * phi, (1 - m1) * phi]
        if m1 <= 0 or m2 <= 0:
            return None
        phi = self.phi_of_ratio(math.log(m2) - 2.0 * math.log(m1) if self.log else m2 / m1**2)
        if math.isnan(phi):
            return None
        phi = max(phi, self.domain[1 - self.t][0] + 1e-6)
        h1 = float(self.h(np.asarray(phi))[0][0])
        t = math.log(m1) - h1 if self.log else m1 / h1
        return [t, phi] if self.t == 0 else [phi, t]


_MODELS = {name: functools.partial(cls, name)
           for cls, table in ((QuadraticModel, _QUADRATIC), (ProductModel, _PRODUCT))
           for name in table}

MODEL_NAMES = tuple(sorted(_MODELS))


def make_model(name: str, fixed_params=()) -> ParametricModel:
    if name not in _MODELS:
        raise DomainError(f"unknown model name {name!r}; expected one of {MODEL_NAMES}")
    return _MODELS[name](tuple(fixed_params))


# ---------------------------------------------------------------------------
# Deterministic sampling
# ---------------------------------------------------------------------------

# The params of each template family, in order: the models, then three
# families that are sampled only.  sum_lognormal takes one or more
# (u_j, v2_j) pairs.
TEMPLATE_PARAMS = {
    "beta2": ("a", "b"), "binomial_fixed_trials": ("K", "p"), "chisq": ("dof",),
    "exponential": ("mean",), "gamma2": ("shape", "scale"),
    "gamma_fixed_shape": ("K", "scale"), "loglogistic": ("a", "b"), "lognormal": ("u", "v2"),
    "poisson": ("mean",), "normal": ("mean", "variance"), "abs_normal": ("mean", "variance"),
    "sum_lognormal": ("u1", "v2_1", "u2", "v2_2", "..."),
}
TEMPLATE_NAMES = tuple(TEMPLATE_PARAMS)

# The sign and range rule on each family's params p, as (rule, test on p).
_TEMPLATE_RULES = {
    "beta2": ("a > 0 and b > 0", lambda p: p[0] > 0 and p[1] > 0),
    "binomial_fixed_trials": ("K >= 1 and 0 <= p <= 1", lambda p: p[0] >= 1 and 0 <= p[1] <= 1),
    "chisq": ("dof > 0", lambda p: p[0] > 0),
    "exponential": ("mean > 0", lambda p: p[0] > 0),
    "gamma2": ("shape > 0 and scale > 0", lambda p: p[0] > 0 and p[1] > 0),
    "gamma_fixed_shape": ("K > 0 and scale > 0", lambda p: p[0] > 0 and p[1] > 0),
    "loglogistic": ("a > 0 and b > 0", lambda p: p[0] > 0 and p[1] > 0),
    "lognormal": ("v2 >= 0", lambda p: p[1] >= 0),
    "poisson": ("mean >= 0", lambda p: p[0] >= 0),
    "normal": ("variance >= 0", lambda p: p[1] >= 0),
    "abs_normal": ("variance >= 0", lambda p: p[1] >= 0),
    "sum_lognormal": ("every v2_j >= 0", lambda p: all(v2 >= 0 for v2 in p[1::2])),
}


@dataclass(frozen=True)
class SamplingTemplate:
    """A named sampling recipe: (family, params, n_samples, seed).

    ``params`` follow ``TEMPLATE_PARAMS[name]``.  The template owns every
    rule on its inputs, each family's sign rule in ``_TEMPLATE_RULES``
    included, so ``sample`` checks none.
    """

    name: str
    params: tuple[float, ...]
    n_samples: int
    seed: int

    def __post_init__(self):
        object.__setattr__(self, "params", tuple(float(p) for p in self.params))
        if self.name not in TEMPLATE_PARAMS:
            raise DomainError(f"unknown template name {self.name!r}")
        if self.n_samples < 0:
            raise DomainError("n_samples must be nonnegative")
        if not 0 <= self.seed < 2**64:
            raise DomainError("seed must fit in 64 unsigned bits")
        n, names = len(self.params), TEMPLATE_PARAMS[self.name]
        if (n < 2 or n % 2) if self.name == "sum_lognormal" else n != len(names):
            raise DomainError(f"template {self.name!r}: params {list(self.params)} must be "
                              f"({', '.join(names)})")
        if not all(math.isfinite(p) for p in self.params):
            raise DomainError(f"template {self.name!r}: params {list(self.params)} must be finite")
        if self.name == "binomial_fixed_trials" and not self.params[0].is_integer():
            raise DomainError(f"template {self.name!r}: the number of trials K = "
                              f"{self.params[0]} must be an integer")
        rule, holds = _TEMPLATE_RULES[self.name]
        if not holds(self.params):
            raise DomainError(f"template {self.name!r}: params {list(self.params)} must have {rule}")


def _substream(seed: int, name: str) -> np.random.Generator:
    tag = int.from_bytes(hashlib.blake2b(name.encode(), digest_size=8).digest(), "big")
    return np.random.Generator(np.random.Philox(key=(seed << 64) | tag))


def _uniform_open(rng: np.random.Generator, shape) -> np.ndarray:
    # Keep uniforms strictly inside (0, 1) so unbounded quantile maps stay finite.
    u = rng.random(shape)
    return np.clip(u, 2.0**-53, float(np.nextafter(1.0, 0.0)))


# Cephes ndtri: y - 1/2 in a rational function of (y - 1/2)^2 on the centre
# (e^-2, 1 - e^-2); in the tails a rational function of 1/x, x = sqrt(-2 log y),
# with (P1, Q1) for x < 8 and (P2, Q2) beyond.  Each Q omits its leading 1.
_NDTRI_P0 = (-5.99633501014107895267e1, 9.80010754185999661536e1, -5.66762857469070293439e1,
             1.39312609387279679503e1, -1.23916583867381258016e0)
_NDTRI_Q0 = (1.95448858338141759834e0, 4.67627912898881538453e0, 8.63602421390890590575e1,
             -2.25462687854119370527e2, 2.00260212380060660359e2, -8.20372256168333339912e1,
             1.59056225126211695515e1, -1.18331621121330003142e0)
_NDTRI_P1 = (4.05544892305962419923e0, 3.15251094599893866154e1, 5.71628192246421288162e1,
             4.40805073893200834700e1, 1.46849561928858024014e1, 2.18663306850790267539e0,
             -1.40256079171354495875e-1, -3.50424626827848203418e-2, -8.57456785154685413611e-4)
_NDTRI_Q1 = (1.57799883256466749731e1, 4.53907635128879210584e1, 4.13172038254672030440e1,
             1.50425385692907503408e1, 2.50464946208309415979e0, -1.42182922854787788574e-1,
             -3.80806407691578277194e-2, -9.33259480895457427372e-4)
_NDTRI_P2 = (3.23774891776946035970e0, 6.91522889068984211695e0, 3.93881025292474443415e0,
             1.33303460815807542389e0, 2.01485389549179081538e-1, 1.23716634817820021358e-2,
             3.01581553508235416007e-4, 2.65806974686737550832e-6, 6.23974539184983293730e-9)
_NDTRI_Q2 = (6.02427039364742014255e0, 3.67983563856160859403e0, 1.37702099489081330271e0,
             2.16236993594496635890e-1, 1.34204006088543189037e-2, 3.28014464682127739104e-4,
             2.89247864745380683936e-6, 6.79019408009981274425e-9)
_EXP_M2 = 0.13533528323661269189  # e^-2
_SQRT_2PI = 2.50662827463100050242


def _horner(x, coef, leading_one=False):
    """Cephes polevl (or p1evl, whose coefficient list omits a leading 1)."""
    out = x + coef[0] if leading_one else coef[0]
    for c in coef[1:]:
        out = out * x + c
    return out


def _ndtri(y):
    """Standard normal quantile, elementwise, bit-identical to ``scipy.special.ndtri``."""
    y = np.asarray(y, dtype=float)
    upper = y > 1.0 - _EXP_M2
    t = np.where(upper, 1.0 - y, y)  # the tail probability, <= 1/2 off the centre
    out = np.full(y.shape, np.nan)
    out[y == 0.0] = -np.inf
    out[y == 1.0] = np.inf
    mid = t > _EXP_M2
    c = t[mid] - 0.5
    c2 = c * c
    out[mid] = (c + c * (c2 * _horner(c2, _NDTRI_P0) / _horner(c2, _NDTRI_Q0, True))) * _SQRT_2PI
    tail = (t > 0.0) & ~mid
    x = np.sqrt(-2.0 * libm(math.log, t[tail]))
    x0 = x - libm(math.log, x) / x
    z = 1.0 / x
    x1 = np.where(x < 8.0, z * _horner(z, _NDTRI_P1) / _horner(z, _NDTRI_Q1, True),
                  z * _horner(z, _NDTRI_P2) / _horner(z, _NDTRI_Q2, True))
    out[tail] = np.where(upper[tail], x0 - x1, x1 - x0)
    return out


def _normal_from_uniform(u, mean, variance):
    if variance == 0.0:
        return np.full_like(u, mean)
    return mean + math.sqrt(variance) * _ndtri(u)


def _discrete_quantile(u, x, cdf):
    """Smallest integer k with cdf(k) >= u, given the continuous inverse x of the cdf at u."""
    v = np.ceil(x)
    below = np.maximum(v - 1.0, 0.0)
    return np.where(cdf(below) >= u, below, v)


def sample(template: SamplingTemplate) -> np.ndarray:
    """Draw template.n_samples values, bit-identical for identical inputs."""
    n = template.n_samples
    if n == 0:
        return np.empty(0)
    rng = _substream(template.seed, template.name)
    p = template.params
    name = template.name

    if name == "sum_lognormal":
        pairs = [(p[2 * j], p[2 * j + 1]) for j in range(len(p) // 2)]
        u = _uniform_open(rng, (len(pairs), n))
        total = np.zeros(n)
        for row, (uj, v2j) in enumerate(pairs):
            total += np.exp(_normal_from_uniform(u[row], uj, v2j))
        return total

    u = _uniform_open(rng, n)
    if name == "normal":
        return _normal_from_uniform(u, p[0], p[1])
    if name == "abs_normal":
        return np.abs(_normal_from_uniform(u, p[0], p[1]))
    if name == "lognormal":
        return np.exp(_normal_from_uniform(u, p[0], p[1]))
    if name == "exponential":
        return -p[0] * np.log1p(-u)
    if name == "loglogistic":
        return p[0] * (u / (1.0 - u)) ** (1.0 / p[1])
    # Every remaining family inverts an incomplete gamma or beta function (the
    # Poisson and binomial cdfs are such functions), so only these load scipy.special.
    from scipy import special

    if name == "poisson":
        return _discrete_quantile(u, special.pdtrik(u, p[0]), lambda k: special.pdtr(k, p[0]))
    if name == "chisq":
        return 2.0 * special.gammaincinv(p[0] / 2.0, u)
    if name == "gamma_fixed_shape" or name == "gamma2":
        return special.gammaincinv(p[0], u) * p[1]
    if name == "binomial_fixed_trials":
        K, prob = int(p[0]), p[1]  # K is integral, as SamplingTemplate checks
        if prob == 0.0:
            return np.zeros(n)  # bdtrik is nan at p = 0, where every draw is 0.
        q = _discrete_quantile(u, special.bdtrik(u, K, prob), lambda k: special.bdtr(k, K, prob))
        return np.minimum(q, K)
    return special.betaincinv(p[0], p[1], u)  # beta2, the last family
