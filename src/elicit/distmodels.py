"""Parametric distribution models with closed-form raw-moment maps.

Each model maps a free parameter vector theta to its first M raw moments
r(theta) = (E[X], ..., E[X^M]).  One-parameter models carry M = 2 and
two-parameter models M = 3, so the moment image is always a codimension-1
set and a generic empirical moment vector lies off it.

Deterministic sampling lives here too.  The repository-wide generator is
numpy's Philox4x64 (counter-based); per-template substreams are keyed by
``(seed << 64) | blake2b64(template_name)``.  All families are sampled by
inverse-CDF transform of the substream's uniforms, so identical
(name, params, n_samples, seed) reproduce identical bytes.
"""

from __future__ import annotations

import hashlib
import math
import operator
from dataclasses import dataclass

import numpy as np
from scipy import special, stats

from .errors import DomainError, OutOfImage

PRNG_ALGORITHM = "Philox4x64 (numpy.random.Philox)"
PRNG_SUBSTREAM = "key = (seed << 64) | blake2b-64(template name)"

# Margin (relative) used when clamping a value into an open interval.
DOMAIN_MARGIN = 1e-9

# Log-logistic moments of order k exist only for shape b > k; we keep a
# safety margin above b = M so 1/sin(k*pi/b) stays well-conditioned.
LOGLOGISTIC_SHAPE_FLOOR = 3.5

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


class ParametricModel:
    """A named moment map theta -> r(theta) with domain and Jacobian.

    Subclasses implement the raw (unvalidated, broadcasting) moment map and
    Jacobian; the public methods validate the domain first.  ``theta_dim``
    is always ``moment_order - 1``.
    """

    name: str = ""
    theta_dim: int = 1
    moment_order: int = 2
    # Interval bounds per coordinate; None means unbounded.  Bounds are
    # exclusive unless flagged closed in domain_closed.
    domain: tuple[Bound, ...] = ((0.0, None),)
    domain_closed: tuple[tuple[bool, bool], ...] | None = None

    def __init__(self, fixed_params: tuple[float, ...] = ()):
        self.fixed_params = tuple(float(p) for p in fixed_params)
        self._bounds = _bounds(self.domain, self.domain_closed)

    # -- hooks -------------------------------------------------------------

    def _raw_moments(self, cols: list[np.ndarray]) -> list[np.ndarray]:
        raise NotImplementedError

    def _raw_jacobian(self, cols: list[np.ndarray]) -> list[list]:
        """Rows dr_i / dtheta_j over broadcasting columns; entries may be scalars."""
        raise NotImplementedError

    # -- public surface ----------------------------------------------------

    def in_domain(self, thetas) -> np.ndarray:
        """(n,) mask of the rows of an (n, d) array that are finite and inside the domain."""
        thetas = np.asarray(thetas, dtype=float)
        ok = np.isfinite(thetas).all(axis=1)
        for j, op, bound in self._bounds:
            ok &= _BOUND_OPS[op](thetas[:, j], bound)
        return ok

    def _checked_cols(self, theta) -> list[np.ndarray]:
        """One theta as 0-d columns, after the rule of ``in_domain`` names any violated bound."""
        theta = np.asarray(theta, dtype=float).reshape(self.theta_dim)
        for j, x in enumerate(theta):
            if not math.isfinite(x):
                raise DomainError(f"{self.name}: theta[{j}] = {x} is not finite")
            for jj, op, bound in self._bounds:
                if jj == j and not _BOUND_OPS[op](x, bound):
                    raise DomainError(
                        f"{self.name}: theta[{j}] = {x} violates theta[{j}] {op} {bound}")
        return [np.asarray(x) for x in theta]

    def moments(self, theta) -> np.ndarray:
        return np.array([float(m) for m in self._raw_moments(self._checked_cols(theta))])

    def moments_grid(self, thetas: np.ndarray) -> np.ndarray:
        """Vectorized moment map over an (n, d) array of interior points."""
        thetas = np.asarray(thetas, dtype=float)
        cols = [thetas[:, j] for j in range(self.theta_dim)]
        return np.column_stack(self._raw_moments(cols))

    def jacobian_grid(self, thetas: np.ndarray) -> np.ndarray:
        """Vectorized moment Jacobian, (n, M, d), over an (n, d) array of interior points."""
        thetas = np.asarray(thetas, dtype=float)
        rows = self._raw_jacobian([thetas[:, j] for j in range(self.theta_dim)])
        out = np.empty((len(thetas), self.moment_order, self.theta_dim))
        for i, row in enumerate(rows):
            for j, entry in enumerate(row):
                out[:, i, j] = entry
        return out

    def moment_jacobian(self, theta) -> np.ndarray:
        rows = self._raw_jacobian(self._checked_cols(theta))
        return np.array([[float(x) for x in row] for row in rows])

    def r1_image(self) -> tuple[float, float]:
        """Open-interval image of the first moment (1-parameter models)."""
        raise NotImplementedError

    def theta_from_r1(self, r1: float) -> float:
        """Closed-form inverse of the first moment (1-parameter models)."""
        raise NotImplementedError

    def eliminate_for_moment(self, i: int, target: float):
        """Solve r_i(theta) = target for one coordinate (2-parameter models).

        Returns ``(free_index, build)`` where ``build(x)`` maps a value of
        the free coordinate to a full theta satisfying the constraint, or
        raises OutOfImage when no parameter can reach the target.
        """
        raise NotImplementedError

    def domain_center(self) -> np.ndarray:
        """A canonical interior point, used as an optimizer fallback start."""
        center = []
        for lo, hi in self.domain:
            if lo is not None and hi is not None:
                center.append(0.5 * (lo + hi))
            elif lo is not None:
                center.append(lo + 1.0)
            elif hi is not None:
                center.append(hi - 1.0)
            else:
                center.append(0.0)
        return np.array(center)

    def __repr__(self) -> str:  # pragma: no cover
        return f"{type(self).__name__}(fixed_params={self.fixed_params})"


# ---------------------------------------------------------------------------
# One-parameter families (M = 2, variance experiments)
# ---------------------------------------------------------------------------


class PoissonModel(ParametricModel):
    """r(theta) = (theta, theta + theta^2)."""

    name = "poisson"

    def _raw_moments(self, cols):
        (t,) = cols
        return [t, t + t * t]

    def _raw_jacobian(self, cols):
        (t,) = cols
        return [[1.0], [1.0 + 2.0 * t]]

    def r1_image(self):
        return (0.0, math.inf)

    def theta_from_r1(self, r1):
        return float(r1)


class ChiSqModel(ParametricModel):
    """Chi-square with theta degrees of freedom: r = (theta, 2*theta + theta^2)."""

    name = "chisq"

    def _raw_moments(self, cols):
        (t,) = cols
        return [t, 2.0 * t + t * t]

    def _raw_jacobian(self, cols):
        (t,) = cols
        return [[1.0], [2.0 + 2.0 * t]]

    def r1_image(self):
        return (0.0, math.inf)

    def theta_from_r1(self, r1):
        return float(r1)


class ExponentialModel(ParametricModel):
    """Exponential with mean theta (rate 1/theta): r = (theta, 2*theta^2)."""

    name = "exponential"

    def _raw_moments(self, cols):
        (t,) = cols
        return [t, 2.0 * t * t]

    def _raw_jacobian(self, cols):
        (t,) = cols
        return [[1.0], [4.0 * t]]

    def r1_image(self):
        return (0.0, math.inf)

    def theta_from_r1(self, r1):
        return float(r1)


class GammaFixedShapeModel(ParametricModel):
    """Gamma with fixed shape K and free scale theta: r = (K*theta, K*(K+1)*theta^2)."""

    name = "gamma_fixed_shape"

    def __init__(self, fixed_params):
        super().__init__(fixed_params)
        if len(self.fixed_params) != 1 or self.fixed_params[0] <= 0:
            raise DomainError("gamma_fixed_shape: fixed_params must be (K,) with K > 0")
        self.K = self.fixed_params[0]

    def _raw_moments(self, cols):
        (t,) = cols
        K = self.K
        return [K * t, K * (K + 1.0) * t * t]

    def _raw_jacobian(self, cols):
        (t,) = cols
        K = self.K
        return [[K], [2.0 * K * (K + 1.0) * t]]

    def r1_image(self):
        return (0.0, math.inf)

    def theta_from_r1(self, r1):
        return float(r1) / self.K


class BinomialFixedTrialsModel(ParametricModel):
    """Binomial with fixed trial count K: r = (K*p, K*p*(1-p) + (K*p)^2)."""

    name = "binomial_fixed_trials"
    domain = ((0.0, 1.0),)
    domain_closed = ((True, True),)

    def __init__(self, fixed_params):
        super().__init__(fixed_params)
        if len(self.fixed_params) != 1 or self.fixed_params[0] < 1:
            raise DomainError("binomial_fixed_trials: fixed_params must be (K,) with K >= 1")
        self.K = self.fixed_params[0]

    def _raw_moments(self, cols):
        (p,) = cols
        K = self.K
        return [K * p, K * p * (1.0 - p) + (K * p) ** 2]

    def _raw_jacobian(self, cols):
        (p,) = cols
        K = self.K
        return [[K], [K + 2.0 * (K * K - K) * p]]

    def r1_image(self):
        return (0.0, self.K)

    def theta_from_r1(self, r1):
        return float(r1) / self.K


# ---------------------------------------------------------------------------
# Two-parameter families (M = 3, skewness experiments)
# ---------------------------------------------------------------------------


class LogNormalModel(ParametricModel):
    """Log-normal with theta = (u, v2): r_i = exp(i*u + i^2*v2/2)."""

    name = "lognormal"
    theta_dim = 2
    moment_order = 3
    domain = ((None, None), (0.0, None))
    domain_closed = ((False, False), (True, False))

    def _raw_moments(self, cols):
        u, v2 = cols
        return [np.exp(i * u + 0.5 * i * i * v2) for i in (1, 2, 3)]

    def _raw_jacobian(self, cols):
        u, v2 = cols
        rows = []
        for i in (1, 2, 3):
            # np.exp overflows to inf, as in _raw_moments.
            r = np.exp(i * u + 0.5 * i * i * v2)
            rows.append([i * r, 0.5 * i * i * r])
        return rows

    def eliminate_for_moment(self, i, target):
        if target <= 0:
            raise OutOfImage(f"lognormal: moment {i + 1} is positive, target {target} unreachable")
        k = i + 1
        log_t = math.log(target)

        def build(v2: float) -> np.ndarray:
            u = (log_t - 0.5 * k * k * v2) / k
            return np.array([u, v2])

        return 1, build


class Gamma2Model(ParametricModel):
    """Gamma with free shape a and scale b: r_k = b^k * a*(a+1)*...*(a+k-1)."""

    name = "gamma2"
    theta_dim = 2
    moment_order = 3
    domain = ((0.0, None), (0.0, None))

    @staticmethod
    def _rising(a, k):
        out = 1.0
        for j in range(k):
            out = out * (a + j)
        return out

    def _raw_moments(self, cols):
        a, b = cols
        return [b**k * self._rising(a, k) for k in (1, 2, 3)]

    def _raw_jacobian(self, cols):
        a, b = cols
        rows = []
        for k in (1, 2, 3):
            rising = self._rising(a, k)
            d_a = b**k * rising * sum(1.0 / (a + j) for j in range(k))
            d_b = k * b ** (k - 1) * rising
            rows.append([d_a, d_b])
        return rows

    def eliminate_for_moment(self, i, target):
        if target <= 0:
            raise OutOfImage(f"gamma2: moment {i + 1} is positive, target {target} unreachable")
        k = i + 1

        def build(a: float) -> np.ndarray:
            b = (target / self._rising(a, k)) ** (1.0 / k)
            return np.array([a, b])

        return 0, build


class Beta2Model(ParametricModel):
    """Beta(a, b): r_k = prod_{j<k} (a+j)/(a+b+j)."""

    name = "beta2"
    theta_dim = 2
    moment_order = 3
    domain = ((0.0, None), (0.0, None))

    def _raw_moments(self, cols):
        a, b = cols
        s = a + b
        out = []
        acc = None
        for j in range(3):
            term = (a + j) / (s + j)
            acc = term if acc is None else acc * term
            out.append(acc)
        return out

    def _raw_jacobian(self, cols):
        a, b = cols
        s = a + b
        rows = []
        for k, rk in zip((1, 2, 3), self._raw_moments(cols)):
            d_a = rk * sum(1.0 / (a + j) - 1.0 / (s + j) for j in range(k))
            d_b = rk * sum(-1.0 / (s + j) for j in range(k))
            rows.append([d_a, d_b])
        return rows

    def eliminate_for_moment(self, i, target):
        # Given shape a, r_k is strictly decreasing in b with range (0, 1);
        # bracket and bisect on b.
        if not 0.0 < target < 1.0:
            raise OutOfImage(f"beta2: moment {i + 1} lies in (0, 1), target {target} unreachable")
        k = i + 1

        def build(a: float) -> np.ndarray:
            from scipy.optimize import brentq

            def resid(b):
                rk = 1.0
                for j in range(k):
                    rk *= (a + j) / (a + b + j)
                return rk - target

            lo, hi = 1e-12, 1.0
            while resid(hi) > 0:
                hi *= 2.0
                if hi > 1e12:
                    raise OutOfImage(f"beta2: cannot bracket b for moment {k} = {target}")
            b = brentq(resid, lo, hi, xtol=1e-15, rtol=8.9e-16)
            return np.array([a, b])

        return 0, build


class LogLogisticModel(ParametricModel):
    """Log-logistic(scale a, shape b): r_k = a^k * (k*pi/b) / sin(k*pi/b), b > k."""

    name = "loglogistic"
    theta_dim = 2
    moment_order = 3
    domain = ((0.0, None), (LOGLOGISTIC_SHAPE_FLOOR, None))

    @staticmethod
    def _g(k, b):
        c = k * math.pi / b
        return c / math.sin(c)

    def _raw_moments(self, cols):
        a, b = cols
        out = []
        for k in (1, 2, 3):
            c = k * np.pi / b
            out.append(a**k * c / np.sin(c))
        return out

    def _raw_jacobian(self, cols):
        a, b = cols
        rows = []
        for k in (1, 2, 3):
            c = k * np.pi / b
            sin_c = np.sin(c)
            # dg/dc = (sin c - c cos c) / sin^2 c;  dc/db = -k*pi/b^2
            dg_dc = (sin_c - c * np.cos(c)) / sin_c**2
            d_a = k * a ** (k - 1) * (c / sin_c)
            d_b = a**k * dg_dc * (-k * np.pi / (b * b))
            rows.append([d_a, d_b])
        return rows

    def eliminate_for_moment(self, i, target):
        if target <= 0:
            raise OutOfImage(f"loglogistic: moment {i + 1} is positive, target {target} unreachable")
        k = i + 1

        def build(b: float) -> np.ndarray:
            a = (target / self._g(k, b)) ** (1.0 / k)
            return np.array([a, b])

        return 1, build


_MODEL_CLASSES = {
    cls.name: cls
    for cls in (
        PoissonModel,
        ChiSqModel,
        ExponentialModel,
        GammaFixedShapeModel,
        BinomialFixedTrialsModel,
        LogNormalModel,
        Gamma2Model,
        Beta2Model,
        LogLogisticModel,
    )
}

MODEL_NAMES = tuple(sorted(_MODEL_CLASSES))


def make_model(name: str, fixed_params=()) -> ParametricModel:
    if name not in _MODEL_CLASSES:
        raise DomainError(f"unknown model name {name!r}; expected one of {MODEL_NAMES}")
    return _MODEL_CLASSES[name](tuple(fixed_params))


# Free-function forms of the model operations.


def moments(model: ParametricModel, theta) -> np.ndarray:
    return model.moments(theta)


def moment_jacobian(model: ParametricModel, theta) -> np.ndarray:
    return model.moment_jacobian(theta)


def model_curve_value(model: ParametricModel, r1: float) -> float:
    """R(r1) = r2(theta) at the theta with r1(theta) = r1 (1-parameter models)."""
    if model.theta_dim != 1:
        raise DomainError(f"{model.name}: model_curve_value needs a 1-parameter model")
    lo, hi = model.r1_image()
    if not lo < r1 < hi:
        raise OutOfImage(f"{model.name}: r1 = {r1} outside image ({lo}, {hi})")
    theta = model.theta_from_r1(r1)
    return float(model.moments([theta])[1])


def clamp_to_image(model: ParametricModel, r1: float) -> tuple[float, bool]:
    """Clamp r1 into the open image of the first moment; flags whether clamped."""
    lo, hi = model.r1_image()
    span = (hi - lo) if math.isfinite(hi - lo) else max(1.0, abs(lo))
    margin = DOMAIN_MARGIN * max(1.0, span if math.isfinite(span) else 1.0)
    if r1 <= lo:
        return lo + margin, True
    if r1 >= hi:
        return hi - margin, True
    return float(r1), False


# ---------------------------------------------------------------------------
# Deterministic sampling
# ---------------------------------------------------------------------------

TEMPLATE_NAMES = MODEL_NAMES + ("normal", "abs_normal", "sum_lognormal")


@dataclass(frozen=True)
class SamplingTemplate:
    """A named sampling recipe: (family, params, n_samples, seed).

    Parameter conventions (all documented in the README's file-format notes):
    poisson (mean,), chisq (dof,), exponential (mean,),
    gamma_fixed_shape (K, scale), binomial_fixed_trials (K, p),
    gamma2 (shape, scale), beta2 (a, b), lognormal (u, v2),
    loglogistic (a, b), normal (mean, variance), abs_normal (mean, variance),
    sum_lognormal (u1, v2_1, u2, v2_2, ...).
    """

    name: str
    params: tuple[float, ...]
    n_samples: int
    seed: int

    def __post_init__(self):
        object.__setattr__(self, "params", tuple(float(p) for p in self.params))
        if self.name not in TEMPLATE_NAMES:
            raise DomainError(f"unknown template name {self.name!r}")
        if self.n_samples < 0:
            raise DomainError("n_samples must be nonnegative")
        if not 0 <= self.seed < 2**64:
            raise DomainError("seed must fit in 64 unsigned bits")


def _substream(seed: int, name: str) -> np.random.Generator:
    tag = int.from_bytes(hashlib.blake2b(name.encode(), digest_size=8).digest(), "big")
    return np.random.Generator(np.random.Philox(key=(seed << 64) | tag))


def _uniform_open(rng: np.random.Generator, shape) -> np.ndarray:
    # Keep uniforms strictly inside (0, 1) so unbounded quantile maps stay finite.
    u = rng.random(shape)
    return np.clip(u, 2.0**-53, float(np.nextafter(1.0, 0.0)))


def _normal_from_uniform(u, mean, variance):
    if variance < 0:
        raise DomainError("normal: variance must be nonnegative")
    if variance == 0.0:
        return np.full_like(u, mean)
    return mean + math.sqrt(variance) * special.ndtri(u)


def sample(template: SamplingTemplate) -> np.ndarray:
    """Draw template.n_samples values, bit-identical for identical inputs."""
    n = template.n_samples
    if n == 0:
        return np.empty(0)
    rng = _substream(template.seed, template.name)
    p = template.params
    name = template.name

    if name == "sum_lognormal":
        if len(p) < 2 or len(p) % 2 != 0:
            raise DomainError("sum_lognormal: params must be (u1, v2_1, u2, v2_2, ...)")
        pairs = [(p[2 * j], p[2 * j + 1]) for j in range(len(p) // 2)]
        u = _uniform_open(rng, (len(pairs), n))
        total = np.zeros(n)
        for row, (uj, v2j) in enumerate(pairs):
            if v2j < 0:
                raise DomainError("sum_lognormal: v2 components must be nonnegative")
            total += np.exp(_normal_from_uniform(u[row], uj, v2j))
        return total

    u = _uniform_open(rng, n)
    if name == "normal":
        return _normal_from_uniform(u, p[0], p[1])
    if name == "abs_normal":
        return np.abs(_normal_from_uniform(u, p[0], p[1]))
    if name == "lognormal":
        if p[1] < 0:
            raise DomainError("lognormal: v2 must be nonnegative")
        return np.exp(_normal_from_uniform(u, p[0], p[1]))
    if name == "poisson":
        if p[0] < 0:
            raise DomainError("poisson: mean must be nonnegative")
        return np.asarray(stats.poisson.ppf(u, mu=p[0]), dtype=float)
    if name == "chisq":
        if p[0] <= 0:
            raise DomainError("chisq: dof must be positive")
        return np.asarray(stats.chi2.ppf(u, df=p[0]), dtype=float)
    if name == "exponential":
        if p[0] <= 0:
            raise DomainError("exponential: mean must be positive")
        return -p[0] * np.log1p(-u)
    if name == "gamma_fixed_shape" or name == "gamma2":
        shape, scale = p[0], p[1]
        if shape <= 0 or scale <= 0:
            raise DomainError(f"{name}: shape and scale must be positive")
        return np.asarray(stats.gamma.ppf(u, a=shape, scale=scale), dtype=float)
    if name == "binomial_fixed_trials":
        K, prob = p[0], p[1]
        if K < 1 or not 0.0 <= prob <= 1.0:
            raise DomainError("binomial_fixed_trials: need K >= 1 and p in [0, 1]")
        return np.asarray(stats.binom.ppf(u, n=int(K), p=prob), dtype=float)
    if name == "beta2":
        a, b = p[0], p[1]
        if a <= 0 or b <= 0:
            raise DomainError("beta2: a and b must be positive")
        return np.asarray(stats.beta.ppf(u, a=a, b=b), dtype=float)
    if name == "loglogistic":
        a, b = p[0], p[1]
        if a <= 0 or b <= 0:
            raise DomainError("loglogistic: a and b must be positive")
        return a * (u / (1.0 - u)) ** (1.0 / b)
    raise DomainError(f"unknown template name {name!r}")  # pragma: no cover
