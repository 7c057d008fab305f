"""Mechanical checks of the monotonicity theory on concrete experiments.

Each check returns a CheckResult naming the property it verifies, a
verdict, and a witness for failures.  Covered properties:

* one-sided / orthant containment of the optimizer trajectory around the
  sample moment vector (condition A);
* monotonicity of the target property along the trajectory (condition B);
* the 2-D slope-sign classification of model curve vs link contour, which
  predicts whether the best weight is infinite, zero, or interior;
* strict monotonicity of fixed-coordinate slices of a 2-parameter moment
  surface (the premise the orthant result needs in three dimensions);
* near-linearity of 3-D trajectories (reported, not asserted);
* the log-coordinate hyperplane identity and skewness growth rate of the
  log-normal moment map.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .distmodels import ParametricModel
from .errors import DomainError, MixedCase, SliceEmpty, TooFewPoints
from .links import LinkFunction, contour_slope
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


def check_md_slice_premise(
    model: ParametricModel,
    axis_pair: tuple[int, int],
    fixed_values,
    n_grid: int = 101,
    free_interval: tuple[float, float] | None = None,
) -> CheckResult:
    """Fixed-coordinate slices of the moment surface are strictly monotone curves.

    For each fixed value of the remaining coordinate the slice is traced by
    solving the constraint along a grid of the model's free parameter, then
    r_j is checked to be strictly monotone in r_i.  Grid points whose theta
    leaves the domain are dropped.
    """
    if model.moment_order != 3 or model.theta_dim != 2:
        return CheckResult("slice_monotonicity", "not_applicable",
                           {"reason": "needs a 3-moment, 2-parameter model"})
    i, j = axis_pair
    (fixed_coord,) = set(range(3)) - {i, j}

    slices = []
    skipped = []
    for value in fixed_values:
        try:
            free_idx, build = model.eliminate_for_moment(fixed_coord, float(value))
        except Exception as exc:
            skipped.append({"fixed_value": float(value), "reason": str(exc)})
            continue
        lo, hi = free_interval if free_interval is not None else _default_free_interval(model, free_idx)
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            thetas = build(np.linspace(lo, hi, n_grid))
            r = model.moments_grid(thetas[model.in_domain(thetas)])
        if len(r) < 3:
            skipped.append({"fixed_value": float(value), "reason": "slice empty on the grid"})
            continue
        order = np.lexsort((r[:, j], r[:, i]))
        ri, rj = r[order, i], r[order, j]
        if np.any(np.diff(ri) <= 0):
            # Distinct grid points collapsing in r_i would break functionality.
            keep = np.concatenate([[True], np.diff(ri) > 0])
            ri, rj = ri[keep], rj[keep]
        drj = np.diff(rj)
        monotone = bool(np.all(drj > 0) or np.all(drj < 0))
        slices.append({"fixed_value": float(value), "n_points": len(ri), "monotone": monotone})
        if not monotone:
            k = int(np.argmax((drj[:-1] > 0) & (drj[1:] < 0))) if len(drj) > 1 else 0
            return CheckResult(
                "slice_monotonicity",
                "fail",
                {"axis_pair": [i, j], "fixed_coordinate": fixed_coord, "slices": slices},
                witness={"fixed_value": float(value), "turn_near_r_i": float(ri[k])},
            )
    if not slices:
        raise SliceEmpty(f"{model.name}: every requested slice was empty; skipped = {skipped}")
    return CheckResult(
        "slice_monotonicity",
        "pass",
        {"axis_pair": [i, j], "fixed_coordinate": fixed_coord,
         "slices": slices, "skipped": skipped},
    )


def _default_free_interval(model: ParametricModel, free_idx: int) -> tuple[float, float]:
    a = model.domain[free_idx][0] + 1e-3  # every free coordinate is bounded below only
    return a, a + 10.0


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
