"""Accuracy-rewarding sub-losses and their positive-weighted total.

The expected squared loss against a sample reduces to its sufficient
statistics: E[(r_i - X^i)^2] = (r_i - mean(X^i))^2 + var(X^i).  The
variance term is constant in r_i, so every sub-loss here is written as a
function of (r_i, m_hat_i, v_hat_i).  Analytic moment vectors are the
special case v_hat = 0.  Every kind is w(d) * d^2 + v_hat with d = r_i -
m_hat_i, so sqrt(w(d)) * d is a least-squares residual.  The optimizer
relies on the v_hat term being constant in r: it minimizes the squared
residuals alone and adds the weighted v_hat back to the reported loss.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DomainError,
    EmptySample,
    InfiniteWeightInSum,
    ZeroMomentBase,
)

ZERO_MOMENT_EPS = 1e-12


@dataclass(frozen=True)
class EmpiricalMoments:
    """Sample means and variances of X^i for i = 1..M."""

    m_hat: np.ndarray
    v_hat: np.ndarray
    n: int

    def __post_init__(self):
        m = np.asarray(self.m_hat, dtype=float)
        v = np.asarray(self.v_hat, dtype=float)
        if m.ndim != 1 or m.shape != v.shape:
            raise DomainError("m_hat and v_hat must be 1-D arrays of equal length")
        if not (np.all(np.isfinite(m)) and np.all(np.isfinite(v))):
            raise DomainError(f"sample moments must be finite: m_hat = {m}, v_hat = {v}")
        if np.any(v < 0):
            raise DomainError("v_hat entries must be nonnegative")
        object.__setattr__(self, "m_hat", m)
        object.__setattr__(self, "v_hat", v)

    @property
    def moment_order(self) -> int:
        return len(self.m_hat)


def empirical_moments(samples, M: int) -> EmpiricalMoments:
    samples = np.asarray(samples, dtype=float)
    if samples.size == 0:
        raise EmptySample("cannot take moments of an empty sample: n_samples = 0")
    if M < 2:
        raise DomainError("moment order M must be at least 2")
    # Overflow surfaces as non-finite moments, which EmpiricalMoments rejects.
    with np.errstate(over="ignore", invalid="ignore"):
        powers = np.stack([samples**i for i in range(1, M + 1)])
        m_hat, v_hat = powers.mean(axis=1), powers.var(axis=1)
    return EmpiricalMoments(m_hat=m_hat, v_hat=v_hat, n=int(samples.size))


def analytic_moments(model, theta, perturb=None) -> EmpiricalMoments:
    """Exact model moments as an EmpiricalMoments with v_hat = 0.

    ``perturb`` optionally shifts the moment vector off the model image.
    """
    m = model.moments(theta)
    if perturb is not None:
        if np.size(perturb) != len(m):
            raise DomainError(f"{model.name}: perturb {list(perturb)} must hold {len(m)} values")
        m = m + np.asarray(perturb, dtype=float).reshape(m.shape)
    return EmpiricalMoments(m_hat=m, v_hat=np.zeros_like(m), n=0)


# ---------------------------------------------------------------------------
# Sub-loss kinds
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SquaredLoss:
    kind = "squared"

    def value(self, r, m, v):
        d = r - m
        return d * d + v

    def weight(self, d):
        """w in value = w * d^2 + v, for the residual d = r - m."""
        return 1.0


@dataclass(frozen=True)
class AsymmetricSquaredLoss:
    """a-weighted square below the truth, b-weighted above; still minimized at it."""

    a: float
    b: float
    kind = "asymmetric_squared"

    def __post_init__(self):
        if not (0 < self.a < math.inf and 0 < self.b < math.inf):
            raise DomainError(f"asymmetric_squared: a = {self.a} and b = {self.b} "
                              "must be positive and finite")

    def value(self, r, m, v):
        d = r - m
        return self.weight(d) * d * d + v

    def weight(self, d):
        return np.where(d < 0, self.a, self.b)


LossKind = SquaredLoss | AsymmetricSquaredLoss


def default_kinds(M: int) -> tuple[LossKind, ...]:
    return tuple(SquaredLoss() for _ in range(M))


def sub_loss(kind: LossKind, i: int, r_i: float, em: EmpiricalMoments) -> float:
    return float(kind.value(r_i, em.m_hat[i], em.v_hat[i]))


def sub_loss_vector(kinds, r, em: EmpiricalMoments) -> np.ndarray:
    """The sub-losses of a moment vector, or of each row of an (n, M) moment matrix."""
    r = np.asarray(r, dtype=float)
    return np.stack([kinds[i].value(r[..., i], em.m_hat[i], em.v_hat[i])
                     for i in range(r.shape[-1])], axis=-1)


# ---------------------------------------------------------------------------
# Weights
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class WeightVector:
    """Extended-nonnegative weights c plus strictly positive base weights k.

    Effective weights are elementwise c / k.  At most one entry of c may be
    infinite (the optimizer turns it into an equality constraint); an
    all-zero c is rejected.
    """

    c: np.ndarray
    k: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.c, dtype=float)
        k = np.asarray(self.k, dtype=float)
        if c.ndim != 1 or c.shape != k.shape:
            raise DomainError("c and k must be 1-D arrays of equal length")
        cs = c.tolist()  # M <= 3: the checks run on Python floats
        if any(x < 0 or math.isnan(x) for x in cs):
            raise DomainError("weights must lie in [0, +inf]")
        if all(x == 0 for x in cs):
            raise DomainError("all-zero weight vector rejected: the total loss would vanish")
        if sum(map(math.isinf, cs)) > 1:
            raise DomainError("at most one weight may be infinite")
        if not all(0 < x < math.inf for x in k.tolist()):
            raise DomainError("base weights k must be finite and strictly positive")
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "k", k)

    @classmethod
    def of(cls, c, k=None) -> "WeightVector":
        c = np.asarray(c, dtype=float)
        return cls(c=c, k=np.ones_like(c) if k is None else np.asarray(k, dtype=float))

    @property
    def effective(self) -> np.ndarray:
        return self.c / self.k

    @property
    def infinite_index(self) -> int | None:
        return next((i for i, x in enumerate(self.c.tolist()) if math.isinf(x)), None)


def total_loss(weights: WeightVector, r, em: EmpiricalMoments, kinds=None):
    """Sum of effective-weighted sub-losses; zero-weight terms contribute exactly 0.

    ``r`` holds moments on its last axis; leading axes broadcast, so an
    (n, M) moment matrix gives n losses.  A single moment vector gives a float.
    """
    if weights.infinite_index is not None:
        raise InfiniteWeightInSum(
            "total_loss is undefined with an infinite weight; "
            "the optimizer treats it as an equality constraint"
        )
    r = np.asarray(r, dtype=float)
    kinds = default_kinds(r.shape[-1]) if kinds is None else kinds
    eff = weights.effective
    out = np.zeros(r.shape[:-1])
    for i in range(r.shape[-1]):
        if eff[i] == 0.0:
            continue
        out += eff[i] * kinds[i].value(r[..., i], em.m_hat[i], em.v_hat[i])
    return float(out) if out.ndim == 0 else out


def renormalize_base(em: EmpiricalMoments) -> np.ndarray:
    """Base weights k_i = m_hat_i^2, balancing sub-loss magnitudes."""
    if np.any(np.abs(em.m_hat) < ZERO_MOMENT_EPS):
        j = int(np.argmin(np.abs(em.m_hat)))
        raise ZeroMomentBase(f"m_hat[{j}] = {em.m_hat[j]} too small to square into a base weight")
    with np.errstate(over="ignore"):
        k = em.m_hat**2
    if np.isinf(k).any():
        j = int(np.argmax(np.isinf(k)))
        raise DomainError(f"m_hat[{j}] = {em.m_hat[j]} too large to square into a base weight")
    return k


def resolve_base_weights(setting: str, em: EmpiricalMoments) -> np.ndarray:
    if setting == "ones":
        return np.ones(em.moment_order)
    if setting == "rhat_squared":
        return renormalize_base(em)
    raise DomainError(f"unknown base_weights setting {setting!r}")
