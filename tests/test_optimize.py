import json
import math
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from elicit import analytic_moments, make_model, minimize, optimize
from elicit.config import resolve
from elicit.distmodels import SamplingTemplate, sample
from elicit.errors import DomainError, EmptyGrid
from elicit.losses import WeightVector, empirical_moments, renormalize_base
from elicit.optimize import (
    OptimizerConfig,
    default_box,
    meshgrid_oracle,
    moment_match_init,
)
from elicit.theory import CONTAINMENT_SLACK

POISSON = make_model("poisson")
SWEEP_CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs" / "sweeps"


def quadratic_root(b, c):
    """Positive root of theta^2 + b*theta - c = 0 (closed-form oracle)."""
    return (-b + math.sqrt(b * b + 4 * c)) / 2.0


class TestMinimize:
    def test_poisson_weight_on_second_moment_only(self, poisson_em_3_15):
        sol = minimize(POISSON, WeightVector.of([0.0, 1.0]), poisson_em_3_15)
        # theta + theta^2 = 15
        assert sol.theta_star[0] == pytest.approx(quadratic_root(1.0, 15.0), abs=1e-6)
        assert sol.r_star[1] == pytest.approx(15.0, abs=1e-6)
        assert sol.converged

    def test_poisson_constrained_first_moment(self, poisson_em_3_15):
        sol = minimize(POISSON, WeightVector.of([np.inf, 1.0]), poisson_em_3_15)
        assert np.allclose(sol.theta_star, [3.0])
        assert np.allclose(sol.r_star, [3.0, 12.0])
        assert sol.loss == pytest.approx(9.0, abs=1e-9)
        assert not sol.clamped

    def test_poisson_constrained_second_moment(self, poisson_em_3_15):
        sol = minimize(POISSON, WeightVector.of([1.0, np.inf]), poisson_em_3_15)
        assert sol.r_star[1] == pytest.approx(15.0, abs=1e-9)

    def test_constraint_clamps_to_image(self):
        model = make_model("binomial_fixed_trials", (10.0,))
        em = analytic_moments(model, [0.5], perturb=[7.0, 0.0])  # m_hat_1 = 12 > K
        sol = minimize(model, WeightVector.of([np.inf, 1.0]), em)
        assert sol.clamped
        assert sol.r_star[0] < 10.0

    def test_exact_fit_is_invariant_in_weights(self):
        model = make_model("poisson")
        em = analytic_moments(model, [3.0])
        for c in ([1.0, 1.0], [10.0, 0.1], [0.003, 40.0]):
            sol = minimize(model, WeightVector.of(c), em)
            assert sol.loss == 0.0
            assert np.allclose(sol.theta_star, [3.0], atol=1e-12)

    def test_lognormal_constrained_elimination(self):
        model = make_model("lognormal")
        em = analytic_moments(model, [0.3, 1.2], perturb=[0.0, 0.5, 40.0])
        sol = minimize(model, WeightVector.of([np.inf, 1.0, 1.0]), em)
        assert sol.r_star[0] == pytest.approx(em.m_hat[0], rel=1e-12)
        assert sol.converged

    def test_two_param_constrained_other_families(self):
        for name, theta0 in [("gamma2", [2.0, 3.0]), ("beta2", [2.0, 5.0]),
                             ("loglogistic", [1.0, 6.0])]:
            model = make_model(name)
            em = analytic_moments(model, theta0, perturb=None)
            em = analytic_moments(model, theta0,
                                  perturb=0.01 * np.abs(em.m_hat) * np.array([0, 1.0, -1.0]))
            sol = minimize(model, WeightVector.of([np.inf, 1.0, 1.0]), em)
            resid = abs(sol.r_star[0] - em.m_hat[0]) / (1 + abs(em.m_hat[0]))
            assert resid < 1e-9, name

    def test_determinism(self, poisson_em_3_15):
        cfg = OptimizerConfig(multistart=4, seed=11)
        a = minimize(POISSON, WeightVector.of([1.0, 1.0]), poisson_em_3_15, config=cfg)
        b = minimize(POISSON, WeightVector.of([1.0, 1.0]), poisson_em_3_15, config=cfg)
        assert np.array_equal(a.theta_star, b.theta_star)
        assert a.loss == b.loss and a.n_iters == b.n_iters

    def test_returned_theta_strictly_interior(self):
        model = make_model("binomial_fixed_trials", (10.0,))
        em = analytic_moments(model, [0.5], perturb=[7.0, 60.0])  # pushes toward p = 1
        sol = minimize(model, WeightVector.of([1.0, 1.0]), em)
        assert 0.0 < sol.theta_star[0] < 1.0

    def test_gradient_descent_on_benign_problem(self, poisson_em_3_15):
        cfg = OptimizerConfig(method="gradient_descent", multistart=2, max_iters=20000)
        gd = minimize(POISSON, WeightVector.of([1.0, 1.0]), poisson_em_3_15, config=cfg)
        nm = minimize(POISSON, WeightVector.of([1.0, 1.0]), poisson_em_3_15)
        assert gd.loss == pytest.approx(nm.loss, rel=1e-6)

    def test_asymmetric_kinds_accepted(self, poisson_em_3_15):
        from elicit.losses import AsymmetricSquaredLoss, SquaredLoss

        kinds = (AsymmetricSquaredLoss(a=2.0, b=1.0), SquaredLoss())
        sol = minimize(POISSON, WeightVector.of([1.0, 1.0]), poisson_em_3_15, kinds=kinds)
        assert sol.converged


def shipped_experiment(name):
    return resolve(json.loads((SWEEP_CONFIG_DIR / f"{name}.json").read_text()))


class TestExcessLoss:
    """The solver minimizes only the data-dependent part of the loss.

    The sample variances v_hat enter every sub-loss as a constant; the
    minimizer must not depend on them, and the reported loss must add them
    back exactly.
    """

    @pytest.mark.parametrize("name", ["var-exponential", "skew-lognormal"])
    def test_sample_variance_does_not_move_the_minimizer(self, name):
        exp = shipped_experiment(name)
        em = exp.em
        em0 = replace(em, v_hat=np.zeros_like(em.v_hat))
        weights = WeightVector.of(np.ones(em.moment_order))
        sol = minimize(exp.model, weights, em, config=exp.spec.optimizer)
        sol0 = minimize(exp.model, weights, em0, config=exp.spec.optimizer)
        assert np.array_equal(sol.theta_star, sol0.theta_star)
        constant = 0.0
        for i, eff in enumerate(weights.effective):
            constant += eff * em.v_hat[i]
        assert constant > 0.0
        assert sol.loss == sol0.loss + constant

    def test_single_active_sub_loss_fits_its_moment(self):
        # The c = 0 endpoint of the var-exponential sweep: only sub-loss 2 is active.
        exp = shipped_experiment("var-exponential")
        m2 = exp.em.m_hat[1]
        sol = minimize(exp.model, exp.spec.weights_at(0.0), exp.em, config=exp.spec.optimizer)
        assert abs(sol.r_star[1] - m2) <= 1e-9 * (1.0 + abs(m2))
        assert sol.converged


def lognormal_9_sample_moments():
    """The heavy-tailed sample behind criterion 08: lognormal(0, 9), n = 1000, seed 17."""
    return empirical_moments(sample(SamplingTemplate("lognormal", (0.0, 9.0), 1000, seed=17)), 3)


class TestLevenbergMarquardt:
    def test_is_the_default_and_the_others_stay_selectable(self, poisson_em_3_15):
        assert OptimizerConfig().method == "levenberg_marquardt"
        w = WeightVector.of([1.0, 1.0])
        losses = [minimize(POISSON, w, poisson_em_3_15, config=OptimizerConfig(method=m)).loss
                  for m in optimize.METHODS]
        assert max(losses) - min(losses) <= 1e-9 * (1.0 + min(losses))

    def test_undefined_trial_points_are_rejected_without_warnings(self, monkeypatch):
        # From (0, 1) on the renormalized lognormal(0, 9) problem, some trial
        # steps land where r_3 or its Jacobian overflows.
        model = make_model("lognormal")
        em = lognormal_9_sample_moments()
        w = WeightVector.of([1.0, 1.0, 1.0], renormalize_base(em))
        reference = minimize(model, w, em)
        undefined = []
        lm_point = optimize._lm_point

        def counting(fun, z, lanes):
            out = lm_point(fun, z, lanes)
            undefined.append(not out[3].all())
            return out

        monkeypatch.setattr(optimize, "_lm_point", counting)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sol = minimize(model, w, em, config=OptimizerConfig(multistart=0, init=(0.0, 1.0)))
        assert any(undefined)
        assert sol.converged
        assert sol.loss <= reference.loss + 1e-9 * (1.0 + abs(reference.loss))

    def test_undefined_region_ends_in_no_descent(self):
        # rho = z - 3 is undefined beyond z = 1.5: the solver walks to the
        # edge and stops there.
        def fun(z, lanes, jac=False):
            return z - 3.0, np.ones((len(z), 1, 1)), z[:, 0] <= 1.5

        z, f, _, termination, _ = optimize._levenberg_marquardt(
            lambda z, lanes: optimize._lm_point(fun, z, lanes), np.zeros((1, 1)),
            1000, 1e-12, 1e-10)
        assert termination[0] == "no_descent"
        assert 1.5 - 1e-6 < z[0, 0] <= 1.5
        assert f[0] == (z[0, 0] - 3.0) ** 2

    def test_damping_follows_the_curvature_from_far_starts(self):
        # rho_1 = exp(z) - 2: from z0 a Gauss-Newton step lowers z by about 1
        # while J^T J falls by e^2, so 20 more units of start distance cost
        # about 20 more steps.  A damping fixed in absolute units lags behind
        # J^T J and took 68 more.  Both starts run as lanes of one batch.
        def fun(z, lanes, jac=False):
            e = np.exp(z[:, 0])
            rho = np.column_stack([e - 2.0, 0.5 * (z[:, 0] - 1.0)])
            J = np.stack([e, np.full_like(e, 0.5)], axis=1)[:, :, None]
            return rho, J, np.ones(len(z), dtype=bool)

        z, _, iters, termination, _ = optimize._levenberg_marquardt(
            lambda z, lanes: optimize._lm_point(fun, z, lanes), np.array([[10.0], [30.0]]),
            1000, 1e-12, 1e-10)
        assert list(termination) == ["converged", "converged"]
        assert z[:, 0] == pytest.approx([0.7107536660] * 2, abs=1e-9)
        assert iters[1] - iters[0] <= 25

    def test_undefined_start_is_not_converged(self):
        # r_3 overflows at v2 = 100, and no multistart offers a way out.  The
        # overflow stays inside the solver: no warning escapes.
        cfg = OptimizerConfig(multistart=0, init=(0.0, 100.0))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sol = minimize(make_model("lognormal"), WeightVector.of([1.0, 1.0, 1.0]),
                           lognormal_9_sample_moments(), config=cfg)
        assert sol.termination == "no_descent"
        assert sol.loss == math.inf and not sol.converged

    def test_c0_is_an_exact_fit_on_two_param_sweeps(self, shipped_sweeps):
        # At c = 0 two sub-losses are active on a 2-parameter model, so the
        # minimizer fits both moments; the residual must sit far inside
        # condition A's slack.
        names = [name for name in shipped_sweeps if name.startswith("skew-")]
        assert len(names) == 6
        for name in names:
            exp, curve = shipped_sweeps[name]
            point = curve.points[0]
            assert point.c_value == 0.0
            eff = exp.spec.weights_at(0.0).effective
            for j in range(len(eff)):
                if not (np.isfinite(eff[j]) and eff[j] > 0.0):
                    continue
                m = exp.em.m_hat[j]
                slack = CONTAINMENT_SLACK * (1.0 + abs(m))
                assert abs(point.solution.r_star[j] - m) <= 1e-3 * slack, (name, j)


class TestBatch:
    def test_each_problem_equals_its_own_minimize(self, poisson_em_3_15):
        weights = [WeightVector.of(c) for c in ([1.0, 1.0], [0.0, 1.0], [np.inf, 1.0], [3.0, 0.2])]
        batch = optimize.minimize_many(POISSON, weights, poisson_em_3_15)
        for w, sol in zip(weights, batch):
            alone = minimize(POISSON, w, poisson_em_3_15)
            assert np.array_equal(sol.theta_star, alone.theta_star)
            assert (sol.loss, sol.termination, sol.n_iters) == (
                alone.loss, alone.termination, alone.n_iters)

    def test_an_infeasible_problem_leaves_the_others_solved(self, poisson_em_3_15):
        good, bad = WeightVector.of([1.0, 1.0]), WeightVector.of([1.0, 1.0, 1.0])
        sol, err = optimize.minimize_many(POISSON, [good, bad], poisson_em_3_15)
        assert sol.converged
        assert isinstance(err, DomainError)
        with pytest.raises(DomainError, match="moment order"):
            minimize(POISSON, bad, poisson_em_3_15)
        with pytest.raises(DomainError, match="one sequence of starts per weight vector"):
            optimize.minimize_many(POISSON, [good, good], poisson_em_3_15, extra_starts=[()])


class TestTelemetry:
    @pytest.mark.parametrize("name", ["var-exponential", "skew-lognormal"])
    def test_start_index_names_the_start_used(self, shipped_sweeps, name):
        exp, curve = shipped_sweeps[name]
        cfg = exp.spec.optimizer
        init = optimize._resolve_init(exp.model, None, exp.em, exp.spec.kinds, cfg)
        starts = optimize._starts(init, exp.model.domain, cfg)
        for point in curve.points:
            sol = point.solution
            assert sol.n_evals >= sol.n_iters >= 0
            if sol.termination in ("exact_fit", "constraint"):
                assert sol.start_index is None
            elif math.isfinite(point.c_value):
                assert np.array_equal(sol.start_used, starts[sol.start_index])
            else:
                assert 0 <= sol.start_index <= cfg.multistart
        assert len(starts) == cfg.multistart + 1

    def test_extra_starts_follow_the_configured_ones(self, poisson_em_3_15):
        cfg = OptimizerConfig(multistart=2)
        extra = [[2.0], [7.0]]
        sol = minimize(POISSON, WeightVector.of([1.0, 1.0]), poisson_em_3_15, config=cfg,
                       extra_starts=extra)
        starts = optimize._starts(moment_match_init(POISSON, poisson_em_3_15), POISSON.domain,
                                  cfg) + [np.array(s) for s in extra]
        assert np.array_equal(sol.start_used, starts[sol.start_index])
        assert sol.n_evals >= sol.n_iters + len(starts)


class TestTermination:
    def test_converged(self, poisson_em_3_15):
        sol = minimize(POISSON, WeightVector.of([1.0, 1.0]), poisson_em_3_15)
        assert sol.termination == "converged" and sol.converged

    def test_max_iters(self, poisson_em_3_15):
        cfg = OptimizerConfig(max_iters=1, multistart=0)
        sol = minimize(POISSON, WeightVector.of([1.0, 1.0]), poisson_em_3_15, config=cfg)
        assert sol.termination == "max_iters" and not sol.converged

    def test_no_descent(self):
        # Criterion 08's gradient descent: the line search finds no descent.
        cfg = OptimizerConfig(method="gradient_descent", multistart=0, init=(0.0, 3.0),
                              max_iters=20000)
        sol = minimize(make_model("lognormal"), WeightVector.of([1.0, 1.0, 1.0]),
                       lognormal_9_sample_moments(), config=cfg)
        assert sol.termination == "no_descent" and sol.converged

    def test_exact_fit(self, poisson_em_3_15):
        sol = minimize(POISSON, WeightVector.of([0.0, 1.0]), poisson_em_3_15)
        assert sol.termination == "exact_fit" and sol.converged

    def test_constraint(self, poisson_em_3_15):
        sol = minimize(POISSON, WeightVector.of([np.inf, 1.0]), poisson_em_3_15)
        assert sol.termination == "constraint" and sol.converged


# (name, fixed params, a (lo, hi) range per coordinate of theta_0)
PROPERTY_MODELS = [
    ("poisson", (), [(0.5, 10.0)]),
    ("chisq", (), [(0.5, 10.0)]),
    ("exponential", (), [(0.5, 10.0)]),
    ("gamma_fixed_shape", (2.0,), [(0.5, 10.0)]),
    ("binomial_fixed_trials", (10.0,), [(0.05, 0.95)]),
    ("lognormal", (), [(-1.0, 1.0), (0.1, 1.5)]),
    ("gamma2", (), [(0.5, 5.0), (0.5, 3.0)]),
    ("beta2", (), [(0.5, 8.0), (0.5, 8.0)]),
    ("loglogistic", (), [(0.5, 3.0), (4.5, 10.0)]),
]


@st.composite
def off_image_problems(draw):
    """A model, moments r(theta_0) shifted by up to 20% per coordinate, finite weights."""
    name, fixed, ranges = draw(st.sampled_from(PROPERTY_MODELS))
    model = make_model(name, fixed)
    theta0 = [draw(st.floats(lo, hi)) for lo, hi in ranges]
    M = model.moment_order
    shift = np.array(draw(st.lists(st.floats(-0.2, 0.2), min_size=M, max_size=M)))
    em = analytic_moments(model, theta0, perturb=shift * model.moments(theta0))
    c = draw(st.lists(st.floats(0.0, 10.0), min_size=M, max_size=M).filter(any))
    return model, em, WeightVector.of(c)


class TestDefaultSolverProperty:
    @settings(max_examples=30, deadline=None)
    @given(off_image_problems())
    def test_no_worse_than_simplex_or_grid(self, problem):
        model, em, w = problem
        sol = minimize(model, w, em)
        simplex = minimize(model, w, em, config=OptimizerConfig(method="nelder_mead"))
        grid = meshgrid_oracle(model, w, em, box=default_box(model, em), width=0.05)
        tol = 1e-9 * (1.0 + abs(sol.loss))
        assert sol.loss <= simplex.loss + tol
        assert sol.loss <= grid.loss + tol


class TestMomentMatchInit:
    def test_poisson(self, poisson_em_3_15):
        assert np.allclose(moment_match_init(POISSON, poisson_em_3_15), [3.0])

    def test_lognormal_inverts_log_map(self):
        model = make_model("lognormal")
        em = analytic_moments(model, [0.0, 1.0])
        assert np.allclose(moment_match_init(model, em), [0.0, 1.0], atol=1e-12)

    def test_lognormal_degenerate_second_moment(self):
        model = make_model("lognormal")
        em = empirical_moments(np.full(10, 2.0), 3)  # m2 = m1^2 exactly
        init = moment_match_init(model, em)
        assert init[1] == pytest.approx(1e-6)

    def test_gamma2_closed_form(self):
        model = make_model("gamma2")
        em = analytic_moments(model, [2.0, 3.0])
        assert np.allclose(moment_match_init(model, em), [2.0, 3.0], rtol=1e-10)

    def test_beta2(self):
        model = make_model("beta2")
        em = analytic_moments(model, [2.0, 5.0])
        assert np.allclose(moment_match_init(model, em), [2.0, 5.0], rtol=1e-10)

    def test_loglogistic_roundtrip(self):
        model = make_model("loglogistic")
        em = analytic_moments(model, [1.0, 6.0])
        assert np.allclose(moment_match_init(model, em), [1.0, 6.0], rtol=1e-8)

    def test_infeasible_falls_back_to_interior(self):
        model = make_model("beta2")
        em = empirical_moments(np.array([5.0, 7.0, 9.0]), 3)  # means outside (0, 1)
        init = moment_match_init(model, em)
        assert init[0] > 0 and init[1] > 0


class TestMeshgridOracle:
    def test_single_point_grid(self, poisson_em_3_15):
        sol = meshgrid_oracle(POISSON, WeightVector.of([1.0, 1.0]), poisson_em_3_15,
                              box=[(2.5, 2.5)], width=0.1)
        assert np.allclose(sol.theta_star, [2.5])

    def test_width_larger_than_box(self, poisson_em_3_15):
        with pytest.raises(EmptyGrid):
            meshgrid_oracle(POISSON, WeightVector.of([1.0, 1.0]), poisson_em_3_15,
                            box=[(2.0, 2.5)], width=1.0)

    def test_inverted_box(self, poisson_em_3_15):
        with pytest.raises(EmptyGrid):
            meshgrid_oracle(POISSON, WeightVector.of([1.0, 1.0]), poisson_em_3_15,
                            box=[(3.0, 2.0)], width=0.1)

    def test_tie_break_lexicographic(self, poisson_em_3_15):
        # With weight only on the first moment the loss is symmetric about
        # theta = 3; the 2-point grid {2.9, 3.1} ties and the smaller wins.
        sol = meshgrid_oracle(POISSON, WeightVector.of([1.0, 0.0]), poisson_em_3_15,
                              box=[(2.9, 3.1)], width=0.2)
        assert sol.theta_star[0] == pytest.approx(2.9)

    def test_optimizer_dominates_grid(self, poisson_em_3_15):
        w = WeightVector.of([1.0, 1.0])
        grid = meshgrid_oracle(POISSON, w, poisson_em_3_15, box=[(0.1, 6.0)], width=0.01)
        opt = minimize(POISSON, w, poisson_em_3_15)
        assert opt.loss <= grid.loss + 1e-9 * (1 + abs(grid.loss))

    def test_default_box_covers_moment_match(self, poisson_em_3_15):
        box = default_box(POISSON, poisson_em_3_15)
        assert box[0][0] <= 3.0 <= box[0][1]

    def test_sparse_vs_dense_grids_may_disagree(self):
        # Two grid resolutions on the ill-conditioned unrenormalized problem
        # are allowed to return different coarse minimizers.
        from elicit.distmodels import SamplingTemplate, sample

        model = make_model("lognormal")
        em = empirical_moments(sample(SamplingTemplate("lognormal", (0.0, 9.0), 1000, seed=17)), 3)
        w = WeightVector.of([1.0, 1.0, 1.0])
        box = default_box(model, em)
        sparse = meshgrid_oracle(model, w, em, box=box, width=0.1)
        dense = meshgrid_oracle(model, w, em, box=box, width=0.01)
        assert dense.loss <= sparse.loss + 1e-12 * (1 + abs(sparse.loss))
