import copy
import math
import re
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from elicit import make_link, make_model
from elicit.config import resolve
from elicit.errors import DomainError, MixedCase, OutOfImage, TooFewPoints
from elicit.links import contour_slope
from elicit.sweep import run_sweep
from scipy.optimize import brentq
from elicit.theory import (
    check_condition_A,
    check_condition_B,
    check_linear_trajectory,
    check_md_slice_premise,
    classify_2d_case,
    lognormal_log_map,
    lognormal_skew_approx,
    predict_best_weight,
)

from conftest import load_shipped_configs, make_variance_spec
from test_sweep import _stub_curve

VAR = make_link("variance")


class TestConditionA:
    def test_poisson_sweep_passes_with_quadrant(self, poisson_variance_curve):
        res = check_condition_A(poisson_variance_curve, poisson_variance_curve.spec.em.m_hat)
        assert res.passed
        # trajectory: r1 in [3, 3.405], r2 in [12, 15] -> (r1 >= 3, r2 <= 15)
        assert res.details["orthant"] == ["ge", "le"]

    def test_exact_fit_trivially_passes(self):
        from elicit.sweep import run_sweep

        curve = run_sweep(make_variance_spec("poisson", (), [3.0], None))
        res = check_condition_A(curve, curve.spec.em.m_hat)
        assert res.passed

    def test_synthetic_crossing_fails_with_witness(self):
        curve = _stub_curve([1.0, 2.0, 3.0], endpoint_gammas=(0.5, 3.5))
        # r_1 values straddle m_hat_1 = 2: containment must fail on coordinate 0
        res = check_condition_A(curve, [2.0, 100.0])
        assert res.verdict == "fail"
        assert res.details["coordinate"] == 0
        assert res.witness["r_min"] < 2.0 < res.witness["r_max"]


class TestConditionB:
    def test_poisson_sweep(self, poisson_variance_curve):
        res = check_condition_B(poisson_variance_curve, VAR)
        assert res.passed
        assert res.details["direction"] == "increasing"

    def test_constant_curve(self):
        res = check_condition_B(_stub_curve([2.0] * 6), VAR)
        assert res.passed
        assert res.details["direction"] == "constant"

    def test_zigzag_fails(self):
        # r_1 increases point by point while gamma zigzags: not monotone
        # along the trajectory.
        curve = _stub_curve([1.0, 3.0, 2.0, 4.0, 1.5])
        for j, p in enumerate(curve.points):
            p.solution.r_star[0] = float(j)
        res = check_condition_B(curve, VAR)
        assert res.verdict == "fail"
        assert res.witness is not None


class TestClassification:
    @pytest.mark.parametrize("name,fixed", [
        ("poisson", ()),
        ("chisq", ()),
        ("exponential", ()),
        ("gamma_fixed_shape", (2.0,)),
    ])
    def test_case_b_families(self, name, fixed):
        res = classify_2d_case(make_model(name, fixed), VAR, (0.5, 20.0))
        assert res.case == "b"
        assert res.diff_min > 0

    def test_binomial_mixed_boundary(self):
        res = classify_2d_case(make_model("binomial_fixed_trials", (10.0,)), VAR, (0.5, 9.5))
        assert res.case == "mixed"
        assert len(res.boundaries) == 1
        assert res.boundaries[0] == pytest.approx(5.0, abs=0.1)

    def test_binomial_pure_regions(self):
        m = make_model("binomial_fixed_trials", (10.0,))
        assert classify_2d_case(m, VAR, (0.5, 4.0)).case == "b"
        assert classify_2d_case(m, VAR, (6.0, 9.5)).case == "a"

    def test_empty_interval_rejected(self):
        with pytest.raises(DomainError):
            classify_2d_case(make_model("poisson"), VAR, (5.0, 5.0))

    def test_two_param_model_rejected(self):
        with pytest.raises(DomainError):
            classify_2d_case(make_model("lognormal"), VAR, (0.5, 2.0))

    def test_predictions(self):
        assert predict_best_weight("a") == "infinity"
        assert predict_best_weight("b") == "zero"
        assert predict_best_weight("c") == "interior"
        with pytest.raises(MixedCase):
            predict_best_weight("mixed")

    def test_poisson_gamma_equals_theta_along_curve(self):
        # Along the poisson curve the variance link returns theta itself, so
        # the implied direction of gamma in r1 is +1, matching case b's
        # motion away from an off-curve truth.
        model = make_model("poisson")
        for theta in np.linspace(0.2, 8.0, 17):
            from elicit.links import link_value

            assert link_value(VAR, model.moments([theta])) == pytest.approx(theta, rel=1e-12)


def classify_reference(model, link, r1_interval, n_grid):
    """The point-by-point walk over an r1 grid: (case, min and max of R' - T', boundaries).

    A point is case c where R' and T' have opposite signs, a where R' < T'
    and b where R' > T'; one case at every point and no boundary is the
    interval's case, anything else is mixed.  Boundaries are the grid points
    where R' = T' and the brentq roots between grid points of opposite sign.
    """
    grid = np.linspace(float(r1_interval[0]), float(r1_interval[1]), n_grid)

    def slopes(r1):
        theta = [model.theta_from_r1(r1)]
        jac = model.moment_jacobian(theta)
        return float(jac[1, 0] / jac[0, 0]), contour_slope(link, (r1, model.moments(theta)[1]))

    def slope_gap(r1):
        rp, tp = slopes(r1)
        return rp - tp

    pairs = [slopes(r1) for r1 in grid]
    diffs = np.array([rp - tp for rp, tp in pairs])
    boundaries = [float(grid[k]) for k in range(len(grid)) if diffs[k] == 0.0]
    for k in range(len(grid) - 1):
        if diffs[k] * diffs[k + 1] < 0:
            boundaries.append(brentq(slope_gap, grid[k], grid[k + 1]))
    cases = {"c" if rp * tp < 0 else ("a" if rp < tp else "b") for rp, tp in pairs if rp != tp}
    case = cases.pop() if len(cases) == 1 and not boundaries else "mixed"
    return case, float(diffs.min()), float(diffs.max()), sorted(boundaries)


class TestClosedFormClassification:
    """classify_2d_case from the interval's ends and the linear root equals the grid walk."""

    def test_shipped_variance_intervals(self, shipped_sweeps):
        # The slope gap is linear, so the walk's extremes are at the ends, bit for bit.
        names = [name for name in shipped_sweeps if name.startswith("var-")]
        assert len(names) == 6
        for name in names:
            exp, curve = shipped_sweeps[name]
            r1 = [p.solution.r_star[0] for p in curve.converged_points()]
            res = classify_2d_case(exp.model, VAR, (min(r1), max(r1)))
            case, diff_min, diff_max, boundaries = classify_reference(
                exp.model, VAR, (min(r1), max(r1)), 101)
            assert (res.case, res.boundaries) == (case, boundaries) == (case, []), name
            assert float(res.diff_min).hex() == diff_min.hex(), name
            assert float(res.diff_max).hex() == diff_max.hex(), name

    @pytest.mark.parametrize("interval", [(0.5, 9.5), (0.3, 9.2), (4.0, 5.5), (5.0, 9.0)])
    def test_binomial_mixed_case(self, interval):
        # Opposite directions below and above r1 = 5 = K / 2.
        model = make_model("binomial_fixed_trials", (10.0,))
        res = classify_2d_case(model, VAR, interval)
        case, diff_min, diff_max, boundaries = classify_reference(model, VAR, interval, 201)
        assert res.case == case == "mixed"
        assert res.boundaries == [5.0] and boundaries == [pytest.approx(5.0, abs=2e-12)]
        assert (res.diff_min, res.diff_max) == pytest.approx((diff_min, diff_max), rel=1e-12)

    @pytest.mark.parametrize("interval", [(5.0, 10.0), (0.0, 10.0), (0.0, 4.0), (6.0, 10.0)])
    def test_binomial_closed_ends_are_on_the_curve(self, interval):
        # p = 0 and p = 1 are in the binomial's domain, so r1 = 0 and r1 = K
        # classify like any other point; the walk agrees at every grid point.
        model = make_model("binomial_fixed_trials", (10.0,))
        res = classify_2d_case(model, VAR, interval)
        case, diff_min, diff_max, boundaries = classify_reference(model, VAR, interval, 201)
        assert (res.case, res.boundaries) == (case, boundaries)
        assert (res.diff_min, res.diff_max) == pytest.approx((diff_min, diff_max), rel=1e-12)

    @pytest.mark.parametrize("name,fixed,interval,error", [
        ("poisson", (), (-1.0, 5.0), DomainError),
        ("poisson", (), (0.0, 5.0), DomainError),
        ("binomial_fixed_trials", (10.0,), (0.5, 12.0), DomainError),
        ("binomial_fixed_trials", (10.0,), (-0.5, 5.0), DomainError),
    ])
    def test_an_end_off_the_domain_raises_the_walks_error(self, name, fixed, interval, error):
        # The domain is an interval, so checking its two ends checks every point.
        model = make_model(name, fixed)
        with pytest.raises(error) as walked:
            classify_reference(model, VAR, interval, 2)
        with pytest.raises(error, match=re.escape(str(walked.value))):
            classify_2d_case(model, VAR, interval)

    def test_three_moment_link_rejected(self):
        with pytest.raises(DomainError, match="two-moment link"):
            classify_2d_case(make_model("poisson"), make_link("skewness"), (0.5, 20.0))


class TestPaperVarianceGrid:
    """The variance half of the paper's grid: 6 var configs x index {1, 2} x base weights."""

    def test_directions_and_checks(self):
        t0 = time.perf_counter()
        configs = [(name, cfg) for name, cfg in load_shipped_configs() if name.startswith("var-")]
        assert len(configs) == 6
        for name, base in configs:
            for base_weights in ("ones", "rhat_squared"):
                curves = {}
                for index in (1, 2):
                    cfg = copy.deepcopy(base)
                    cfg["base_weights"], cfg["sweep"]["index"] = base_weights, index
                    exp = resolve(cfg)
                    curve = curves[index] = run_sweep(exp.spec)
                    tag = (name, base_weights, index)
                    # Only B(10, 0.9) sits above p = 1/2, where the slope gap flips sign.
                    rising = (index == 1) == (name == "var-binomial-hi")
                    assert curve.monotonicity.direction == (
                        "increasing" if rising else "decreasing"), tag
                    for point in curve.points:
                        sol = point.solution
                        assert sol.converged and sol.n_iters == 0, tag
                        assert sol.termination in ("exact_fit", "exact_minimum", "boundary",
                                                   "constraint"), tag
                    assert check_condition_A(curve, exp.em.m_hat).passed, tag
                    assert check_condition_B(curve, exp.link).passed, tag
                    if index == 1:
                        r1 = [p.solution.r_star[0] for p in curve.points]
                        case = classify_2d_case(exp.model, exp.link, (min(r1), max(r1))).case
                        assert curve.best.kind == predict_best_weight(case), tag
                # c_1 = 0 and c_2 = inf both pin theta to r_2 = m_hat_2.
                zero, inf = curves[1].points[0], curves[2].points[-1]
                assert (zero.c_value, inf.c_value) == (0.0, math.inf)
                assert zero.solution.theta_star[0].hex() == inf.solution.theta_star[0].hex()
        assert time.perf_counter() - t0 <= 1.0


class TestPaperSkewGrid:
    """The skewness half of the paper's grid: 6 skew configs x index {1, 2, 3} x base weights."""

    def test_directions_and_checks(self):
        t0 = time.perf_counter()
        configs = [(name, cfg) for name, cfg in load_shipped_configs() if name.startswith("skew-")]
        assert len(configs) == 6
        for name, base in configs:
            for base_weights in ("ones", "rhat_squared"):
                for index in (1, 2, 3):
                    cfg = copy.deepcopy(base)
                    cfg["base_weights"], cfg["sweep"]["index"] = base_weights, index
                    exp = resolve(cfg)
                    curve = run_sweep(exp.spec)
                    tag = (name, base_weights, index)
                    assert all(p.converged and p.solution.termination in ("converged", "boundary")
                               for p in curve.points), tag
                    # Weight on the mean raises skewness and is best at zero; weight on
                    # r_2 or r_3 lowers it and is best at infinity.  beta2 under unit
                    # base weights flips on r_2.
                    rising = index == 1 or (name, base_weights, index) == ("skew-beta2", "ones", 2)
                    assert curve.monotonicity.direction == (
                        "increasing" if rising else "decreasing"), tag
                    assert curve.best.kind == ("zero" if rising else "infinity"), tag
                    assert check_condition_A(curve, exp.em.m_hat).passed, tag
                    assert check_condition_B(curve, exp.link).passed, tag
        assert time.perf_counter() - t0 <= 2.0


class TestSlopeGapTheorems:
    """Under the variance link R' - T' = b/a + 2 r1 (c/a^2 - 1) on every 1-parameter model."""

    @pytest.mark.parametrize("K", [1.0, 2.0, 10.0, 1000.0])
    def test_binomial_flips_direction_at_one_half(self, K):
        # b/a = 1 and c/a^2 - 1 = -1/K: R' - T' = 1 - 2 r1 / K, zero at theta = 1/2.
        model = make_model("binomial_fixed_trials", (K,))
        for theta0 in (0.02, 0.1, 0.3, 0.45, 0.499):
            assert classify_2d_case(model, VAR, (0.01 * K, theta0 * K)).case == "b"
            assert classify_2d_case(model, VAR, ((1.0 - theta0) * K, 0.99 * K)).case == "a"
            res = classify_2d_case(model, VAR, (theta0 * K, (1.0 - theta0) * K))
            assert res.case == "mixed" and len(res.boundaries) == 1
            assert abs(res.boundaries[0] - K / 2) <= 4 * np.spacing(K / 2)

    @pytest.mark.parametrize("name,fixed", [
        ("poisson", ()), ("chisq", ()), ("exponential", ()),
        ("gamma_fixed_shape", (0.5,)), ("gamma_fixed_shape", (2.0,)),
        ("gamma_fixed_shape", (50.0,)), ("binomial_fixed_trials", (10.0,)),
    ])
    def test_no_case_c_under_the_variance_link(self, name, fixed):
        # R' = (b + 2 c theta) / a > 0 and T' = 2 r1 > 0 on the whole image,
        # so the slopes never have opposite signs; off the binomial, no boundary.
        model = make_model(name, fixed)
        hi = min(model.a * (model.domain[0][1] or math.inf), 1e6)
        r1 = np.geomspace(1e-6 * hi, hi * (1.0 - 1e-6), 60)
        for x in r1:
            theta = [model.theta_from_r1(x)]
            jac = model.moment_jacobian(theta)
            assert jac[1, 0] / jac[0, 0] > 0.0
            assert contour_slope(VAR, (x, model.moments(theta)[1])) > 0.0
        if name != "binomial_fixed_trials":
            for lo, hi in zip(r1[:-1], r1[1:]):
                res = classify_2d_case(model, VAR, (lo, hi))
                assert res.case == "b" and res.boundaries == [] and res.diff_min > 0.0


def stand_in_row():
    """lognormal's P with log h = (0, phi, (phi - 1)^2): holding r_1, r_3 turns at phi = 1."""
    model = make_model("lognormal")
    model.name = "stand_in"
    model.h = lambda x, order=0: [[0.0 * x, x, (x - 1.0) ** 2], [0.0, 1.0, 2.0 * (x - 1.0)]][:order + 1]
    return model


# Values of each held moment: any positive one on a scale family, inside (0, 1) on beta2.
HELD_VALUES = {"lognormal": [0.5, 2.0, 50.0], "gamma2": [0.5, 2.0, 50.0],
               "loglogistic": [0.5, 2.0, 50.0],
               "beta2": [1e-6, 0.05, 0.3, 0.7, 0.999, 1.0 - 1e-6, 1.0 - 1e-9]}


class TestSlicePremise:
    # Every test here also fails on a RuntimeWarning, as all Tier-1 tests do.
    def test_lognormal_slices_fixing_first_moment(self):
        res = check_md_slice_premise(make_model("lognormal"), (1, 2), [2.0, 5.0, 10.0])
        assert res.passed
        assert all(s["monotone"] for s in res.details["slices"])

    def test_lognormal_slices_fixing_third_moment(self):
        res = check_md_slice_premise(make_model("lognormal"), (0, 1), [50.0, 500.0])
        assert res.passed

    @pytest.mark.parametrize("name", sorted(HELD_VALUES))
    @pytest.mark.parametrize("axis_pair", [(1, 2), (0, 2), (0, 1)])
    def test_product_rows_pass(self, name, axis_pair):
        res = check_md_slice_premise(make_model(name), axis_pair, HELD_VALUES[name])
        assert res.passed, res.witness
        assert [s["fixed_value"] for s in res.details["slices"]] == HELD_VALUES[name]

    def test_non_monotone_surface_fails(self):
        # On a scale family g_k = (log h_k)' - (k / K) (log h_K)' does not depend on m.
        for m in (1e-300, 2.0, 1e300):
            res = check_md_slice_premise(stand_in_row(), (1, 2), [m])
            assert res.verdict == "fail" and res.witness["fixed_value"] == m
            assert res.witness["phi"] == 1.0    # g_3 = 2 (phi - 1) is 0 there, a grid point

    @pytest.mark.parametrize("name, value", [("lognormal", 0.0), ("gamma2", -1.0),
                                             ("beta2", 1.0), ("loglogistic", 0.0)])
    def test_off_image_value_raises(self, name, value):
        with pytest.raises(OutOfImage, match="moment 1"):
            check_md_slice_premise(make_model(name), (1, 2), [0.5, value])

    def test_one_param_model_not_applicable(self):
        res = check_md_slice_premise(make_model("poisson"), (0, 1), [1.0])
        assert res.verdict == "not_applicable"


class TestLinearTrajectory:
    def test_collinear_points(self):
        import dataclasses

        gammas = list(np.linspace(1.0, 2.0, 6))
        curve = _stub_curve(gammas)
        for p, g in zip(curve.points, gammas):
            p.solution = dataclasses.replace(p.solution, r_star=np.array([g, 2 * g, 3 * g]))
        res = check_linear_trajectory(curve)
        assert res.details["residual_ratio"] == pytest.approx(0.0, abs=1e-12)
        assert res.passed

    def test_quarter_circle_fails(self):
        import dataclasses

        angles = np.linspace(0.0, math.pi / 2, 8)
        curve = _stub_curve(list(angles))
        for p, a in zip(curve.points, angles):
            p.solution = dataclasses.replace(
                p.solution, r_star=np.array([math.cos(a), math.sin(a), 1.0])
            )
        res = check_linear_trajectory(curve)
        assert res.verdict == "fail"
        assert res.details["residual_ratio"] > 0.05

    def test_too_few_points(self):
        with pytest.raises(TooFewPoints):
            check_linear_trajectory(_stub_curve([1.0, 2.0, 3.0]))


class TestLogNormalIdentities:
    def test_origin(self):
        xyz, resid = lognormal_log_map([0.0, 0.0])
        assert np.array_equal(xyz, [0.0, 0.0, 0.0])
        assert resid == 0.0

    def test_standard(self):
        xyz, resid = lognormal_log_map([0.0, 1.0])
        assert np.allclose(xyz, [0.5, 2.0, 4.5])
        assert resid == 0.0

    def test_generic_point(self):
        xyz, resid = lognormal_log_map([2.0, 3.0])
        assert np.allclose(xyz, [3.5, 10.0, 19.5])
        assert resid == 0.0

    @given(u=st.floats(-20, 20), v2=st.floats(0, 20))
    @settings(max_examples=200)
    def test_hyperplane_residual_everywhere(self, u, v2):
        _, resid = lognormal_log_map([u, v2])
        assert resid < 1e-9 * (1 + 3 * abs(u) + 5 * v2)

    def test_log_map_matches_log_of_moments(self):
        model = make_model("lognormal")
        for u, v2 in [(0.0, 1.0), (-1.0, 0.5), (2.0, 3.0)]:
            xyz, _ = lognormal_log_map([u, v2])
            assert np.allclose(xyz, np.log(model.moments([u, v2])), rtol=1e-12)

    def test_skew_approx_moderate(self):
        exact, approx, gap = lognormal_skew_approx(1.0)
        want_exact = (math.e + 2) * math.sqrt(math.e - 1)
        assert exact == pytest.approx(want_exact, rel=1e-12)
        assert approx == pytest.approx(math.exp(1.5), rel=1e-12)
        assert gap == pytest.approx(abs(want_exact - math.exp(1.5)) / want_exact, rel=1e-9)
        assert 0.25 < gap < 0.30

    def test_skew_approx_large_v2(self):
        _, _, gap = lognormal_skew_approx(9.0)
        assert gap < 0.01

    def test_skew_approx_small_v2_limit(self):
        exact, approx, gap = lognormal_skew_approx(1e-8)
        assert exact < 1e-3
        assert approx == pytest.approx(1.0, abs=1e-6)
        assert gap > 100.0
