"""Mechanical checks of the monotonicity theory on concrete experiments.

Each check returns a CheckResult naming the property it verifies, a
verdict, and a witness for failures.  Covered properties:

* one-sided / orthant containment of the optimizer trajectory around the
  sample moment vector (condition A);
* monotonicity of the target property along the trajectory (condition B);
* the 2-D slope-sign classification of model curve vs link contour, which
  predicts whether the best weight is infinite, zero, or interior;
* strict monotonicity of fixed-coordinate slices of a 2-parameter moment
  surface (the premise the orthant result needs in three dimensions), in
  closed form on the product table;
* near-linearity of 3-D trajectories (reported, not asserted);
* the log-coordinate hyperplane identity and skewness growth rate of the
  log-normal moment map.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .distmodels import ParametricModel, _rising_inverse
from .errors import DomainError, MixedCase, TooFewPoints
from .links import LinkFunction, contour_slope
from .profile import FINE
from .sweep import SweepCurve, monotone_trend

CONTAINMENT_SLACK = 1e-9
LINEAR_RESIDUAL_PASS = 0.05


@dataclass
class CheckResult:
    name: str
    verdict: str                    # pass | fail | not_applicable
    details: dict = field(default_factory=dict)
    witness: dict | None = None

    @property
    def passed(self) -> bool:
        return self.verdict == "pass"


# ---------------------------------------------------------------------------
# Conditions A and B on sweep curves
# ---------------------------------------------------------------------------


def check_condition_A(curve: SweepCurve, m_hat) -> CheckResult:
    """Trajectory stays weakly on one side of every sample moment coordinate."""
    m_hat = np.asarray(m_hat, dtype=float)
    pts = curve.converged_points()
    if len(pts) < 2:
        return CheckResult("one_sided_containment", "not_applicable",
                           {"reason": "fewer than 2 converged points"})
    r = np.array([p.solution.r_star for p in pts])
    orthant = []
    for j in range(r.shape[1]):
        slack = CONTAINMENT_SLACK * (1.0 + abs(m_hat[j]))
        above = bool(np.all(r[:, j] >= m_hat[j] - slack))
        below = bool(np.all(r[:, j] <= m_hat[j] + slack))
        if above and below:
            orthant.append("eq")
        elif above:
            orthant.append("ge")
        elif below:
            orthant.append("le")
        else:
            k_lo = int(np.argmin(r[:, j]))
            k_hi = int(np.argmax(r[:, j]))
            return CheckResult(
                "one_sided_containment",
                "fail",
                {"coordinate": j, "m_hat_j": float(m_hat[j])},
                witness={
                    "below_at_c": pts[k_lo].c_value,
                    "r_min": float(r[k_lo, j]),
                    "above_at_c": pts[k_hi].c_value,
                    "r_max": float(r[k_hi, j]),
                },
            )
    return CheckResult("one_sided_containment", "pass", {"orthant": orthant})


def check_condition_B(curve: SweepCurve, link: LinkFunction) -> CheckResult:
    """Target property is monotone along the trajectory, ordered by the swept moment."""
    i = curve.spec.index
    pts = curve.converged_points()
    if len(pts) < 2:
        return CheckResult("link_monotone_along_trajectory", "not_applicable",
                           {"reason": "fewer than 2 converged points"})
    order = np.argsort([p.solution.r_star[i] for p in pts], kind="stable")
    gammas = np.array([pts[k].gamma for k in order])
    direction, diffs, g_range, tau = monotone_trend(gammas)
    if direction == "non_monotone":
        return CheckResult(
            "link_monotone_along_trajectory",
            "fail",
            {"gamma_range": g_range, "tolerance": tau},
            witness={"max_rise_at": int(np.argmax(diffs)), "max_fall_at": int(np.argmin(diffs)),
                     "diffs_min": float(diffs.min()), "diffs_max": float(diffs.max())},
        )
    return CheckResult("link_monotone_along_trajectory", "pass",
                       {"direction": direction, "gamma_range": g_range})


# ---------------------------------------------------------------------------
# 2-D slope-sign classification
# ---------------------------------------------------------------------------


@dataclass
class CaseClassification:
    case: str                       # a | b | mixed
    interval: tuple[float, float]
    boundaries: list[float]
    diff_min: float                 # min / max of R'(r1) - T'(r1) over the interval
    diff_max: float


def classify_2d_case(
    model: ParametricModel,
    link: LinkFunction,
    r1_interval: tuple[float, float],
) -> CaseClassification:
    """Compare model-curve slope R' with contour slope T' over an r1 interval.

    R' < T' everywhere is case a (infinite weight best), R' > T' case b
    (zero weight best); a zero of R' - T' in the interval makes it ``mixed``
    with that r1 as its boundary.  On r = (a theta, b theta + c theta^2)
    under the variance link, the only two-moment link, R' = b/a + 2 c r1 /
    a^2 and T' = 2 r1, so R' - T' = b/a + 2 r1 (c/a^2 - 1) is linear in r1:
    its extremes are its values at the ends, and its one possible zero is
    r1* = -a b / (2 (c - a^2)).  Both slopes are positive on the image (b,
    c >= 0), so case c, opposite signs and an interior best weight, cannot
    occur.
    """
    if model.theta_dim != 1:
        raise DomainError(f"{model.name}: 2-D classification needs a 1-parameter model")
    if link.moment_order != 2:
        raise DomainError(f"{link.name}: 2-D classification needs a two-moment link")
    lo, hi = float(r1_interval[0]), float(r1_interval[1])
    if not lo < hi:
        raise DomainError(f"empty interval [{lo}, {hi}]")

    def slope_gap(r1: float) -> float:
        """R' - T' at r1; the model names the bound an r1 off its domain violates."""
        theta = [model.theta_from_r1(r1)]
        jac = model.moment_jacobian(theta)
        tp = contour_slope(link, (r1, float(model.moments(theta)[1])))
        return float(jac[1, 0] / jac[0, 0]) - tp

    diffs = [slope_gap(lo), slope_gap(hi)]
    a, b, c = model.a, model.b, model.c
    root = -a * b / (2.0 * (c - a * a)) if c != a * a else math.inf
    boundaries = [root] if lo <= root <= hi else []
    case = "mixed" if boundaries else ("b" if sum(diffs) > 0.0 else "a")
    return CaseClassification(case=case, interval=(lo, hi), boundaries=boundaries,
                              diff_min=min(diffs), diff_max=max(diffs))


def predict_best_weight(case: str) -> str:
    """a -> infinity, b -> zero, c -> interior."""
    table = {"a": "infinity", "b": "zero", "c": "interior"}
    if case not in table:
        raise MixedCase(f"no single best-weight prediction for case {case!r}")
    return table[case]


# ---------------------------------------------------------------------------
# Higher-dimensional checks
# ---------------------------------------------------------------------------


def check_md_slice_premise(model: ParametricModel, axis_pair: tuple[int, int], fixed_values) -> CheckResult:
    """Fixed-coordinate slices of the moment surface are strictly monotone curves.

    On a row r_k = P_k(t) h_k(phi) of the product table, holding r_K = m
    leaves one curve, parametrized by the shape phi, along which t is the fit
    of P_K(t) = m / h_K(phi).  Along it d log r_k / dphi is

        g_k = (log h_k)'(phi) - [(log P_k)'(t) / (log P_K)'(t)] (log h_K)'(phi),

    so r_j is strictly monotone in r_i exactly where g_i g_j keeps one strict
    sign, which is read at phi = lo + e^z for each fixed value m, with z on
    the profile's ``FINE`` grid.  On a scale family (log P_k)'(t) = k / t,
    so the ratio is k / K whatever t is, and g does not depend on m.  On
    beta2 t is ``_rising_inverse`` of m phi^[K], and with a_j = 1 / (t+j)
    and b_j = 1 / (phi+j), g_k A_K = A_k B_K - B_k A_K is a sum of pair
    terms a_j b_l - a_l b_j = (j - l) (t - phi) a_j a_l b_j b_l, j < k and
    l < K.  The terms j = l, which cancel exactly and near phi = 0 outweigh
    the rest, are left out, and g / b is read for g, as every other term has
    the factor t - phi = -b < 0.  An m off the image raises OutOfImage.
    """
    if model.moment_order != 3 or model.theta_dim != 2:
        return CheckResult("slice_monotonicity", "not_applicable",
                           {"reason": "needs a 3-moment, 2-parameter model"})
    i, j = axis_pair
    (fixed,) = set(range(3)) - {i, j}
    phi = (model.domain[1 - model.t][0] if model.scale else 0.0) + np.exp(FINE)
    details = {"axis_pair": [i, j], "fixed_coordinate": fixed, "slices": []}
    for value in map(float, fixed_values):
        model.check_image(fixed, value)
        if model.scale:
            dh = model.h(phi, 1)[1]
            g = [dh[k] - (k + 1) / (fixed + 1) * dh[fixed] for k in (i, j)]
        else:
            t = _rising_inverse(value / np.column_stack(model.h(phi)[0]))[:, fixed]
            c = [1.0 / ((t + n) * (phi + n)) for n in range(3)]
            A = model.P(t, 1)[1][fixed]
            g = [-sum((p - q) * c[p] * c[q] for p in range(k + 1) for q in range(fixed + 1)) / A
                 for k in (i, j)]
        sign = np.broadcast_to(np.sign(g[0] * g[1]), phi.shape)
        bad = np.flatnonzero((sign != sign[0]) | (sign == 0))
        details["slices"].append({"fixed_value": value, "monotone": not bad.size})
        if bad.size:
            return CheckResult("slice_monotonicity", "fail", details,
                               witness={"fixed_value": value, "phi": float(phi[bad[0]])})
    return CheckResult("slice_monotonicity", "pass", details)


def check_linear_trajectory(curve: SweepCurve) -> CheckResult:
    """Total-least-squares line fit to the 3-D trajectory; reported diagnostic."""
    pts = curve.converged_points()
    if len(pts) < 4:
        raise TooFewPoints(f"need at least 4 converged points, got {len(pts)}")
    r = np.array([p.solution.r_star for p in pts])
    if r.shape[1] != 3:
        return CheckResult("trajectory_linearity", "not_applicable",
                           {"reason": "needs 3 moments"})
    center = r.mean(axis=0)
    centered = r - center
    _, _, vt = np.linalg.svd(centered, full_matrices=False)
    direction = vt[0]
    residuals = centered - np.outer(centered @ direction, direction)
    max_orth = float(np.linalg.norm(residuals, axis=1).max())
    diameter = float(np.linalg.norm(r[:, None, :] - r[None, :, :], axis=2).max())
    ratio = max_orth / diameter if diameter > 0 else 0.0
    verdict = "pass" if ratio < LINEAR_RESIDUAL_PASS else "fail"
    return CheckResult(
        "trajectory_linearity",
        verdict,
        {"residual_ratio": ratio, "max_orthogonal_distance": max_orth, "diameter": diameter},
    )


# ---------------------------------------------------------------------------
# Log-normal identities
# ---------------------------------------------------------------------------


def lognormal_log_map(theta) -> tuple[np.ndarray, float]:
    """Log-moment coordinates (x, y, z) of the log-normal map and |3x - 3y + z|.

    x = u + v2/2, y = 2u + 2*v2, z = 3u + 4.5*v2; the image lies on the
    hyperplane 3x - 3y + z = 0.
    """
    u, v2 = float(theta[0]), float(theta[1])
    if v2 < 0:
        raise DomainError(f"v2 = {v2} must be nonnegative")
    xyz = np.array([u + 0.5 * v2, 2.0 * u + 2.0 * v2, 3.0 * u + 4.5 * v2])
    residual = abs(3.0 * xyz[0] - 3.0 * xyz[1] + xyz[2])
    return xyz, float(residual)


def lognormal_skew_approx(v2: float) -> tuple[float, float, float]:
    """Exact log-normal skewness, its exponential approximation, and the gap.

    exact = (e^{v2} + 2) * sqrt(e^{v2} - 1), approx = e^{1.5 * v2}.  The
    approximation is only meaningful for large v2: the relative gap shrinks
    as v2 grows but blows up as v2 -> 0 (exact -> 0 while approx -> 1).
    """
    if v2 <= 0:
        raise DomainError(f"v2 = {v2} must be positive")
    ev = math.exp(v2)
    exact = (ev + 2.0) * math.sqrt(ev - 1.0)
    approx = math.exp(1.5 * v2)
    return exact, approx, abs(exact - approx) / exact
