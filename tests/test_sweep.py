import json
import math
from dataclasses import replace

import numpy as np
import pytest

from elicit import link_value, make_link, make_model, minimize, profile
from elicit.config import resolve
from elicit.errors import EndpointMissing, TooFewPoints
from elicit.losses import WeightVector
from elicit.optimize import Solution
from elicit.sweep import (
    BestWeight,
    SweepCurve,
    SweepPoint,
    best_weight,
    classify_monotonicity,
    default_grid,
    run_sweep,
)

from elicit.theory import check_condition_A

from conftest import DIAGNOSTIC_CONFIG_DIR, SWEEP_CONFIG_DIR, make_variance_spec


def _stub_point(c_value, gamma, r_star=None, converged=True, is_endpoint=False):
    sol = None
    if converged:
        r = np.asarray(r_star if r_star is not None else [gamma, gamma])
        sol = Solution(
            theta_star=np.array([gamma]),
            r_star=r,
            loss=0.0,
            sub_losses=np.zeros(len(r)),
            converged=True,
            n_iters=1,
            start_used=np.array([gamma]),
        )
    return SweepPoint(c_value=c_value, solution=sol, gamma=gamma, is_endpoint=is_endpoint)


def _stub_curve(gammas, gamma_hat=0.0, endpoint_gammas=None, spec=None):
    """Synthetic curve: interior gammas on a log grid plus endpoints."""
    grid = default_grid(len(gammas))
    points = []
    if endpoint_gammas is not None:
        points.append(_stub_point(0.0, endpoint_gammas[0], is_endpoint=True))
    points.extend(_stub_point(c, g) for c, g in zip(grid, gammas))
    if endpoint_gammas is not None:
        points.append(_stub_point(math.inf, endpoint_gammas[1], is_endpoint=True))
    if spec is None:
        spec = make_variance_spec("poisson", (), [3.0], [0.0, 3.0], grid_points=len(gammas))
    return SweepCurve(spec=spec, points=points, gamma_hat=gamma_hat)


class TestRunSweep:
    def test_poisson_variance_endpoints(self, poisson_variance_curve):
        curve = poisson_variance_curve
        assert curve.points[0].c_value == 0.0
        assert math.isinf(curve.points[-1].c_value)
        root = (-1 + math.sqrt(61)) / 2
        assert curve.points[0].gamma == pytest.approx(root, abs=1e-6)
        assert curve.points[-1].gamma == pytest.approx(3.0, abs=1e-6)
        assert curve.gamma_hat == pytest.approx(6.0)
        assert curve.failure_rate == 0.0
        assert curve.usable

    def test_exact_fit_constant(self):
        spec = make_variance_spec("poisson", (), [3.0], None)
        curve = run_sweep(spec)
        gammas = np.array([p.gamma for p in curve.converged_points()])
        assert np.all(np.abs(gammas - 3.0) < 1e-8)
        assert curve.monotonicity.direction == "constant"

    def test_sub_loss_monotone_in_swept_weight(self, poisson_variance_curve):
        vals = [p.solution.sub_losses[0] for p in poisson_variance_curve.converged_points()]
        for a, b in zip(vals, vals[1:]):
            assert b <= a + 1e-8 + 1e-6 * abs(a)

    @pytest.mark.parametrize("name", ["var-exponential", "skew-lognormal"])
    def test_previous_point_as_start_never_improves(self, shipped_sweeps, name):
        # Each point is solved once, from its own starts.  A solve from the
        # previous point's minimizer alone finds no lower loss.
        exp, curve = shipped_sweeps[name]
        spec = exp.spec
        for prev, point in zip(curve.points, curve.points[1:-1]):
            config = replace(spec.optimizer, init=tuple(prev.solution.theta_star), multistart=0)
            warm = minimize(spec.model, spec.weights_at(point.c_value), spec.em,
                            kinds=spec.kinds, config=config)
            assert warm.loss >= point.solution.loss, point.c_value

    def test_two_param_curve_is_one_profile_solve(self, monkeypatch):
        # Every grid point and the c = inf endpoint are rows of one profile solve.
        exp = resolve(json.loads((SWEEP_CONFIG_DIR / "skew-gamma2.json").read_text()))
        rows = []
        solve = profile.solve

        def counted(model, em, kinds, eff, held):
            rows.append(len(eff))
            return solve(model, em, kinds, eff, held)

        monkeypatch.setattr(profile, "solve", counted)
        curve = run_sweep(exp.spec)
        assert rows == [len(curve.points)]
        assert curve.points[-1].c_value == math.inf and curve.points[-1].converged

    @pytest.mark.parametrize("name", ["var-exponential", "skew-lognormal"])
    def test_a_point_does_not_depend_on_the_rest_of_the_grid(self, shipped_sweeps, name):
        # The curve is solved as one batch; each point equals its solve alone.
        exp, curve = shipped_sweeps[name]
        spec = exp.spec
        for point in curve.points:
            alone = minimize(spec.model, spec.weights_at(point.c_value), spec.em,
                             kinds=spec.kinds, config=spec.optimizer)
            sol = point.solution
            assert np.array_equal(sol.theta_star, alone.theta_star), point.c_value
            assert sol.loss == alone.loss, point.c_value
            assert sol.termination == alone.termination, point.c_value
            assert (sol.n_iters, sol.n_evals) == (alone.n_iters, alone.n_evals), point.c_value

    def test_unit_base_weights_on_heavy_tailed_lognormal(self):
        # The diagnostic config without renormalization: the moments of the
        # lognormal(0, 9) sample span many orders of magnitude.
        cfg = json.loads((DIAGNOSTIC_CONFIG_DIR / "renorm-ones-lognormal.json").read_text())
        exp = resolve(cfg)
        curve = run_sweep(exp.spec)
        assert len(curve.points) == 43 and len(curve.converged_points()) == 43
        vals = [p.solution.sub_losses[exp.spec.index] for p in curve.points]
        for a, b in zip(vals, vals[1:]):
            assert b <= a + 1e-8 + 1e-6 * abs(a)
        assert check_condition_A(curve, exp.em.m_hat).verdict == "pass"
        assert curve.monotonicity.direction == "increasing"
        assert curve.best.kind == "zero"

    def test_large_finite_weight_approximates_infinite_endpoint(self, poisson_em_3_15):
        model = make_model("poisson")
        link = make_link("variance")
        sol_inf = minimize(model, WeightVector.of([math.inf, 1.0]), poisson_em_3_15)
        sol_big = minimize(model, WeightVector.of([1e8, 1.0]), poisson_em_3_15)
        g_inf = link_value(link, sol_inf.r_star)
        g_big = link_value(link, sol_big.r_star)
        assert abs(g_big - g_inf) / (1 + abs(g_inf)) < 1e-4

    def test_failure_rate_flags_unusable(self):
        curve = _stub_curve([1.0, 2.0, 3.0], endpoint_gammas=(0.5, 3.5))
        for p in curve.points[:3]:
            p.solution = None
        assert curve.failure_rate > 0.2


class TestClassifyMonotonicity:
    def test_increasing(self):
        v = classify_monotonicity(_stub_curve(list(np.linspace(1, 2, 10))))
        assert v.direction == "increasing"
        assert v.max_violation == 0.0

    def test_decreasing(self):
        v = classify_monotonicity(_stub_curve(list(np.linspace(2, 1, 10))))
        assert v.direction == "decreasing"

    def test_constant(self):
        v = classify_monotonicity(_stub_curve([5.0] * 8))
        assert v.direction == "constant"

    def test_non_monotone(self):
        v = classify_monotonicity(_stub_curve([1.0, 2.0, 1.2, 2.5, 0.5]))
        assert v.direction == "non_monotone"
        assert v.max_violation > 0

    def test_small_wiggle_tolerated(self):
        # A dip smaller than 1e-3 of the range does not break monotonicity.
        gammas = list(np.linspace(1, 2, 20))
        gammas[10] -= 1e-5
        assert classify_monotonicity(_stub_curve(gammas)).direction == "increasing"

    def test_too_few_points(self):
        with pytest.raises(TooFewPoints):
            classify_monotonicity(_stub_curve([1.0, 2.0]))


class TestBestWeight:
    def test_truth_beyond_zero_endpoint(self):
        # gamma(0) = 3.405, gamma(inf) = 3, truth 6: zero endpoint is nearest
        curve = _stub_curve(list(np.linspace(3.4, 3.01, 5)), gamma_hat=6.0,
                            endpoint_gammas=(3.405, 3.0))
        assert best_weight(curve).kind == "zero"

    def test_truth_beyond_infinite_endpoint(self):
        curve = _stub_curve(list(np.linspace(1.1, 1.9, 5)), gamma_hat=3.0,
                            endpoint_gammas=(1.0, 2.0))
        assert best_weight(curve).kind == "infinity"

    def test_truth_inside(self):
        curve = _stub_curve(list(np.linspace(1.1, 2.9, 9)), gamma_hat=2.0,
                            endpoint_gammas=(1.0, 3.0))
        res = best_weight(curve)
        assert res.kind == "interior"
        assert res.achieved_gap <= 0.3

    def test_interior_refined_by_golden_section(self):
        curve = _stub_curve(list(np.linspace(1.1, 2.9, 9)), gamma_hat=2.0,
                            endpoint_gammas=(1.0, 3.0))
        # Synthetic response: gamma rises in log10(c) over [1e-3, 1e3]
        evaluate = lambda c: 1.0 + (math.log10(c) + 3) / 3.0
        res = best_weight(curve, evaluate=evaluate)
        assert res.kind == "interior"
        assert res.achieved_gap < 1e-2
        assert res.c_star == pytest.approx(1.0, rel=0.1)

    def test_endpoint_missing(self):
        curve = _stub_curve(list(np.linspace(1, 2, 5)), gamma_hat=3.0,
                            endpoint_gammas=(1.0, 2.0))
        curve.points[-1].solution = None
        with pytest.raises(EndpointMissing):
            best_weight(curve)

    def test_reported_verdict_matches_helper(self, poisson_variance_curve):
        assert poisson_variance_curve.best.kind == "zero"
        assert isinstance(poisson_variance_curve.best, BestWeight)
