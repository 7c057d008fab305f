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
sign only for the binomial (c / a^2 = 1 - 1/K), at r1 = K / 2.  The
two-parameter families each eliminate one coordinate through a moment
constraint in closed form (``eliminate_for_moment``).

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
import math
import operator
from dataclasses import dataclass

import numpy as np

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


def libm(f, a) -> np.ndarray:
    """A ``math`` function applied elementwise to an array.

    ``math`` calls the C library, as scipy's compiled special functions do;
    numpy's vectorized ``log``/``exp`` may differ from it in the last bit.
    """
    a = np.asarray(a, dtype=float)
    return np.fromiter(map(f, a.ravel().tolist()), float, a.size).reshape(a.shape)


def _rising(a, k):
    """The rising product a (a+1) ... (a+k-1)."""
    out = 1.0
    for j in range(k):
        out = out * (a + j)
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

    def eliminate_for_moment(self, i: int, target: float):
        """Solve r_i(theta) = target for one coordinate (2-parameter models).

        Returns ``(free_index, build)``, or raises OutOfImage when no
        parameter can reach the target.  ``build(x)`` maps an (n,) array of
        the free coordinate to the (n, 2) thetas that satisfy the constraint,
        in closed form; a row that leaves the domain is left for
        ``in_domain`` to reject.
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

    def _raw_moments(self, cols):
        (t,) = cols
        return [self.a * t, self.b * t + self.c * t * t]

    def _raw_jacobian(self, cols):
        (t,) = cols
        return [[self.a], [self.b + 2.0 * self.c * t]]

    def r1_image(self) -> tuple[float, float]:
        """Open-interval image of the first moment."""
        hi = self.domain[0][1]
        return (0.0, math.inf if hi is None else self.a * hi)

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

        def build(v2):
            return np.column_stack([(log_t - 0.5 * k * k * v2) / k, v2])

        return 1, build


class Gamma2Model(ParametricModel):
    """Gamma with free shape a and scale b: r_k = b^k * a*(a+1)*...*(a+k-1)."""

    name = "gamma2"
    theta_dim = 2
    moment_order = 3
    domain = ((0.0, None), (0.0, None))

    def _raw_moments(self, cols):
        a, b = cols
        return [b**k * _rising(a, k) for k in (1, 2, 3)]

    def _raw_jacobian(self, cols):
        a, b = cols
        rows = []
        for k in (1, 2, 3):
            rising = _rising(a, k)
            d_a = b**k * rising * sum(1.0 / (a + j) for j in range(k))
            d_b = k * b ** (k - 1) * rising
            rows.append([d_a, d_b])
        return rows

    def eliminate_for_moment(self, i, target):
        if target <= 0:
            raise OutOfImage(f"gamma2: moment {i + 1} is positive, target {target} unreachable")
        k = i + 1

        def build(a):
            return np.column_stack([a, (target / _rising(a, k)) ** (1.0 / k)])

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
        # Given shape a, prod_{j<k} (a+b+j) - prod_{j<k} (a+j) = D with
        # D = prod_{j<k} (a+j) * (1 - t) / t: a polynomial in b with no
        # constant term, increasing and convex on b > 0.
        if not 0.0 < target < 1.0:
            raise OutOfImage(f"beta2: moment {i + 1} lies in (0, 1), target {target} unreachable")
        k = i + 1
        odds = (1.0 - target) / target

        def build(a):
            D = _rising(a, k) * odds
            if k == 1:
                b = D
            elif k == 2:
                # Root of b^2 + (2a+1) b = D, in a form without cancellation.
                b = 2.0 * D / ((2.0 * a + 1.0) + np.sqrt((2.0 * a + 1.0) ** 2 + 4.0 * D))
            else:
                # Newton on b^3 + c2 b^2 + c1 b = D from above the root (each
                # term is positive, so D / c1 and D^(1/3) both bound it): the
                # iterates fall monotonically until a step no longer lowers b.
                c2, c1 = 3.0 * (a + 1.0), 3.0 * a * a + 6.0 * a + 2.0
                b = np.minimum(D / c1, np.cbrt(D))
                for _ in range(100):
                    lower = b - (((b + c2) * b + c1) * b - D) / ((3.0 * b + 2.0 * c2) * b + c1)
                    if not (lower < b).any():
                        break
                    b = np.fmin(lower, b)
            return np.column_stack([a, b])

        return 0, build


class LogLogisticModel(ParametricModel):
    """Log-logistic(scale a, shape b): r_k = a^k * (k*pi/b) / sin(k*pi/b), b > k."""

    name = "loglogistic"
    theta_dim = 2
    moment_order = 3
    domain = ((0.0, None), (LOGLOGISTIC_SHAPE_FLOOR, None))

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

        def build(b):
            c = k * np.pi / b
            return np.column_stack([(target / (c / np.sin(c))) ** (1.0 / k), b])

        return 1, build


_MODELS = {
    **{name: functools.partial(QuadraticModel, name) for name in _QUADRATIC},
    **{cls.name: cls for cls in (LogNormalModel, Gamma2Model, Beta2Model, LogLogisticModel)},
}

MODEL_NAMES = tuple(sorted(_MODELS))


def make_model(name: str, fixed_params=()) -> ParametricModel:
    if name not in _MODELS:
        raise DomainError(f"unknown model name {name!r}; expected one of {MODEL_NAMES}")
    return _MODELS[name](tuple(fixed_params))


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
