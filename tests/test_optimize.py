import json
import math
import tracemalloc
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special
from scipy.optimize import brentq as scipy_brentq

from elicit import analytic_moments, make_model, minimize, optimize
from elicit.config import resolve
from elicit.distmodels import SamplingTemplate, sample
from elicit.errors import DomainError, EmptyGrid, OutOfImage
from elicit.losses import (
    AsymmetricSquaredLoss,
    EmpiricalMoments,
    SquaredLoss,
    WeightVector,
    default_kinds,
    empirical_moments,
    renormalize_base,
    total_loss,
)
from elicit.optimize import (
    OptimizerConfig,
    default_box,
    meshgrid_oracle,
    moment_match_init,
)
from elicit.links import make_link
from elicit.sweep import run_sweep
from elicit.theory import CONTAINMENT_SLACK, classify_2d_case

POISSON = make_model("poisson")
SWEEP_CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs" / "sweeps"


def quadratic_root(b, c):
    """Positive root of theta^2 + b*theta - c = 0 (closed-form oracle)."""
    return (-b + math.sqrt(b * b + 4 * c)) / 2.0


def gamma2_problem():
    """A benign 2-parameter problem that every method solves: gamma2(1, 1) moments
    shifted by (2%, -2%, 2%), weights (1, 0.1, 0.01)."""
    model = make_model("gamma2")
    em = analytic_moments(model, [1.0, 1.0], perturb=[0.02, -0.04, 0.12])
    return model, WeightVector.of([1.0, 0.1, 0.01]), em


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
        # m_hat_1 = 12 > K pushes toward p = 1, but F(1) = 160.25 and F falls
        # to 7.16 at p = 0.933: an interior optimum, so the exact path solves it.
        model = make_model("binomial_fixed_trials", (10.0,))
        em = analytic_moments(model, [0.5], perturb=[7.0, 60.0])
        sol = minimize(model, WeightVector.of([1.0, 1.0]), em)
        assert 0.0 < sol.theta_star[0] < 1.0

    def test_gradient_descent_on_benign_problem(self):
        model, w, em = gamma2_problem()
        cfg = OptimizerConfig(method="gradient_descent", multistart=2, max_iters=20000)
        gd = minimize(model, w, em, config=cfg)
        nm = minimize(model, w, em)
        assert gd.loss == pytest.approx(nm.loss, rel=1e-6)

    def test_asymmetric_kinds_accepted(self, poisson_em_3_15):
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
    def test_is_the_default_and_the_others_stay_selectable(self):
        assert OptimizerConfig().method == "levenberg_marquardt"
        model, w, em = gamma2_problem()
        losses = [minimize(model, w, em, config=OptimizerConfig(method=m)).loss
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


def assert_same_solution(a, b):
    """Every field of two Solutions equal, arrays bit for bit."""
    for name, x in vars(a).items():
        y = getattr(b, name)
        if isinstance(x, np.ndarray):
            assert np.array_equal(x, y), name
        else:
            assert x == y, name


class TestStartsArgument:
    @pytest.mark.parametrize("constrained_first", [True, False])
    @pytest.mark.parametrize("with_starts", [False, True])
    def test_each_problem_equals_its_own_solve(self, constrained_first, with_starts):
        # A 2-parameter c = inf problem builds a start list of its own; a
        # finite-weight problem after it must still read its own starts.
        exp = shipped_experiment("skew-lognormal")
        spec = exp.spec
        finite_starts = [[0.0, 0.5], [0.2, 1.0]] if with_starts else None
        problems = [(spec.weights_at(math.inf), None), (spec.weights_at(1.0), finite_starts)]
        if not constrained_first:
            problems.reverse()
        batch = optimize.minimize_many(exp.model, [w for w, _ in problems], exp.em, spec.kinds,
                                       spec.optimizer,
                                       starts=[s for _, s in problems] if with_starts else None)
        for (w, s), sol in zip(problems, batch):
            if s is None:
                alone = minimize(exp.model, w, exp.em, spec.kinds, spec.optimizer)
            else:
                (alone,) = optimize.minimize_many(exp.model, [w], exp.em, spec.kinds,
                                                  spec.optimizer, starts=[s])
            assert_same_solution(sol, alone)


def best_lane_reference(lanes, end, start, term):
    """The (loss, lexicographic theta) best candidate over the given lanes, by a strict-< scan.

    ``end`` and ``start`` hold (theta, f, ok) per lane at the solver's end
    and at the raw start.  Returns (theta, loss, termination, start, start
    index), or None when no candidate has a theta in the domain.
    """
    best = None
    for index, lane in enumerate(lanes):
        for theta, f, ok in (end, start):
            if not ok[lane]:
                continue
            key = (float(f[lane]), tuple(theta[lane]))
            if best is None or key < best[0]:
                best = (key, (theta[lane].copy(), key[0], str(term[lane]),
                              start[0][lane].copy(), index))
    return None if best is None else best[1]


def loss_constant_reference(weights, em):
    """sum_{active} eff_i * v_hat_i, term by term."""
    eff = weights.effective
    out = 0.0
    for i in range(len(eff)):
        if np.isfinite(eff[i]) and eff[i] > 0.0:
            out += eff[i] * em.v_hat[i]
    return float(out)


class TestWinnerSelection:
    """The sort in ``_winners`` picks what the strict-< scan over lanes picked."""

    @staticmethod
    def solve_against_reference(monkeypatch, model, weights, em, kinds=None, config=None,
                                starts=None):
        seen = {}
        run_solver, winners = optimize._run_solver, optimize._winners

        def spy_solver(*args):
            out = run_solver(*args)
            seen["term"] = out[3]
            return out

        def spy_winners(spans, end, start):
            seen.update(spans=spans, end=end, start=start, result=winners(spans, end, start))
            return seen["result"]

        monkeypatch.setattr(optimize, "_run_solver", spy_solver)
        monkeypatch.setattr(optimize, "_winners", spy_winners)
        sols = optimize.minimize_many(model, weights, em, kinds, config, starts=starts)
        monkeypatch.undo()

        spans, term = seen["spans"], seen["term"]
        lane, theta, f, ok = seen["result"]
        ref = [best_lane_reference(range(lo, hi), seen["end"], seen["start"], term)
               for lo, hi in zip(spans, spans[1:])]
        for p, r in enumerate(ref):
            assert (r is None) == (not ok[p])
            if r is not None:
                r_theta, r_f, r_term, r_start, r_index = r
                assert np.array_equal(theta[p], r_theta) and f[p] == r_f
                assert term[lane[p]] == r_term and lane[p] - spans[p] == r_index
                assert np.array_equal(seen["start"][0][lane[p]], r_start)
        # The iterative problems' Solutions, in batch order, carry the winners.
        iterative = [(w, s) for w, s in zip(weights, sols)
                     if isinstance(s, optimize.Solution) and s.start_index is not None]
        found = [r for r in ref if r is not None]
        assert len(iterative) == len(found)
        for (w, sol), (r_theta, r_f, r_term, r_start, r_index) in zip(iterative, found):
            assert np.array_equal(sol.theta_star, r_theta)
            assert sol.loss == r_f + loss_constant_reference(w, em)
            assert (sol.termination, sol.start_index) == (r_term, r_index)
            assert np.array_equal(sol.start_used, r_start)
            assert np.array_equal(sol.r_star, model.moments(sol.theta_star))
        return sols, seen

    @pytest.mark.parametrize("name", ["skew-gamma2", "skew-lognormal", "skew-beta2"])
    def test_shipped_sweep_batches(self, monkeypatch, name):
        spec = shipped_experiment(name).spec
        weights = [spec.weights_at(c) for c in [0.0, *spec.grid, math.inf]]
        sols, _ = self.solve_against_reference(monkeypatch, spec.model, weights, spec.em,
                                               spec.kinds, spec.optimizer)
        assert all(isinstance(s, optimize.Solution) for s in sols)

    def test_duplicate_starts_pick_the_earlier_lane(self, monkeypatch):
        model = make_model("lognormal")
        em = analytic_moments(model, [0.3, 1.2], perturb=[0.1, 0.5, 4.0])
        (sol,), _ = self.solve_against_reference(
            monkeypatch, model, [WeightVector.of([1.0, 1.0, 1.0])], em,
            starts=[[[0.2, 1.0], [0.2, 1.0]]])
        assert sol.start_index == 0

    def test_start_on_the_minimizer_ends_where_it_starts(self, monkeypatch):
        # Gamma2 moments at theta = (1, 1): the moment-matching start is the
        # exact fit, and the z round trip of 1.0 is exact, so end and start tie.
        model = make_model("gamma2")
        em = analytic_moments(model, [1.0, 1.0])
        (sol,), seen = self.solve_against_reference(
            monkeypatch, model, [WeightVector.of([1.0, 1.0, 1.0])], em)
        end, start = seen["end"], seen["start"]
        assert np.array_equal(end[0][0], start[0][0]) and end[1][0] == start[1][0] == 0.0
        assert np.array_equal(sol.theta_star, [1.0, 1.0]) and sol.start_index == 0

    def test_constrained_problem_without_a_feasible_lane(self, monkeypatch):
        class NoFeasibleBuild(type(make_model("lognormal"))):
            def eliminate_for_moment(self, i, target):
                f, _ = super().eliminate_for_moment(i, target)
                return f, lambda v2: np.column_stack([np.full_like(v2, np.nan), v2])

        model = NoFeasibleBuild()
        em = analytic_moments(model, [0.3, 1.2], perturb=[0.1, 0.5, 4.0])
        weights = [WeightVector.of([1.0, 1.0, 1.0]), WeightVector.of([np.inf, 1.0, 1.0])]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            (sol, err), _ = self.solve_against_reference(monkeypatch, model, weights, em)
        assert sol.converged
        assert isinstance(err, OutOfImage) and "admits no interior solution" in str(err)

    def test_r_star_is_the_scalar_moment_map_on_every_shipped_point(self, shipped_sweeps):
        for name, (exp, curve) in shipped_sweeps.items():
            for point in curve.points:
                sol = point.solution
                assert np.array_equal(sol.r_star, exp.model.moments(sol.theta_star)), name


class TestOneJacobianPerEvaluation:
    def test_skew_gamma2_sweep(self, monkeypatch):
        # The c = inf lanes read their constraint row from the same Jacobian.
        exp = shipped_experiment("skew-gamma2")
        model = exp.model
        jacobians, per_point = [], []
        jacobian_grid, lm_point = model.jacobian_grid, optimize._lm_point

        def counting_jacobian(thetas):
            jacobians.append(len(thetas))
            return jacobian_grid(thetas)

        def counting_point(fun, z, lanes):
            before = len(jacobians)
            out = lm_point(fun, z, lanes)
            per_point.append(len(jacobians) - before)
            return out

        monkeypatch.setattr(model, "jacobian_grid", counting_jacobian)
        monkeypatch.setattr(optimize, "_lm_point", counting_point)
        curve = run_sweep(exp.spec)
        assert curve.points[-1].c_value == math.inf and curve.points[-1].converged
        assert per_point and set(per_point) == {1}


class TestEliminatedLanes:
    @pytest.mark.parametrize("name, theta0", [("lognormal", [0.3, 1.2]), ("gamma2", [2.0, 3.0]),
                                              ("beta2", [2.0, 5.0]), ("loglogistic", [1.0, 6.0])])
    @pytest.mark.parametrize("i", [0, 1, 2])
    def test_jacobian_matches_central_difference(self, name, theta0, i):
        # A lane of the constrained problem r_i = m_hat_i searches the free
        # coordinate; its Jacobian in z is the total derivative through the
        # elimination, and the eliminated column is 0.
        model = make_model(name)
        em = analytic_moments(model, theta0)
        em = analytic_moments(model, theta0, perturb=0.01 * em.m_hat * np.array([1.0, -1.0, 1.0]))
        c = np.ones(3)
        c[i] = np.inf
        f, build = model.eliminate_for_moment(i, float(em.m_hat[i]))
        free = theta0[f] * np.array([0.7, 1.0, 1.5, 2.0])
        z = np.zeros((len(free), 2))
        z[:, f] = optimize._to_z(free[:, None], model.domain[f:f + 1])[:, 0]
        eff = np.tile(optimize._active_weights(WeightVector.of(c)), (len(free), 1))
        residual = optimize._finite_objective(model, em, default_kinds(3), eff)
        fun, _ = optimize._lane_objective(model, residual,
                                          [(0, len(free), f, i, build)])
        lanes = np.arange(len(free))
        _, J, ok = fun(z, lanes, jac=True)
        assert ok.all()
        assert (J[:, :, 1 - f] == 0.0).all()
        h = np.zeros_like(z)
        h[:, f] = 1e-6 * (1.0 + np.abs(z[:, f]))
        fd = (fun(z + h, lanes)[0] - fun(z - h, lanes)[0]) / (2.0 * h[:, f, None])
        scale = np.abs(J[:, :, f]).max(axis=1, keepdims=True)
        assert (np.abs(J[:, :, f] - fd) <= 1e-6 * scale).all()


class TestReparameterization:
    def test_expit_matches_scipy_bit_for_bit(self):
        rng = np.random.default_rng(11)
        clip = optimize._LOGIT_CLIP
        x = np.concatenate([rng.uniform(-clip, clip, 300_000), rng.normal(0.0, 1.0, 100_000),
                            [clip, -clip, np.nextafter(clip, 0.0), np.nextafter(-clip, 0.0),
                             0.0, -0.0, 1e-300, -1e-300]])
        assert np.array_equal(optimize._expit(x).view(np.int64),
                              special.expit(x).view(np.int64))

    def test_logit_matches_scipy_bit_for_bit(self):
        # Both branches, their edges at 0.3 and 0.65 with the neighbours, the
        # images of +-_LOGIT_CLIP, and p down to 1e-300.
        rng = np.random.default_rng(12)
        clip = optimize._LOGIT_CLIP
        edges = [0.3, 0.65, 0.5, 1e-300, 5e-324,
                 float(special.expit(clip)), float(special.expit(-clip))]
        edges += [float(np.nextafter(p, to)) for p in (0.3, 0.65) for to in (0.0, 1.0)]
        p = np.concatenate([rng.random(200_000), rng.uniform(0.25, 0.7, 100_000),
                            np.exp(-rng.uniform(0.0, 690.0, 50_000)),
                            -np.expm1(-rng.uniform(0.0, clip, 50_000)), edges])
        assert np.array_equal(optimize._logit(p).view(np.int64), special.logit(p).view(np.int64))

    def test_z_maps_on_an_interval_match_the_scipy_forms(self):
        # binomial_fixed_trials is the one model with an interval domain.
        domain = make_model("binomial_fixed_trials", (10.0,)).domain
        (lo, hi), = domain
        rng = np.random.default_rng(13)
        theta = rng.uniform(1e-6, 1.0 - 1e-6, (500, 1))
        z = np.concatenate([rng.uniform(-40.0, 40.0, (500, 1)), optimize._to_z(theta, domain)])
        want_z = special.logit((theta - lo) / (hi - lo))
        s = special.expit(np.minimum(np.maximum(z, -optimize._LOGIT_CLIP), optimize._LOGIT_CLIP))
        got_theta, got_dtheta = optimize._from_z(z, domain)
        assert np.array_equal(optimize._to_z(theta, domain), want_z)
        assert np.array_equal(got_theta, lo + (hi - lo) * s)
        assert np.array_equal(got_dtheta, (hi - lo) * s * (1.0 - s))


class TestTelemetry:
    @pytest.mark.parametrize("name", ["skew-gamma2", "skew-lognormal"])
    def test_start_index_names_the_start_used(self, shipped_sweeps, name):
        exp, curve = shipped_sweeps[name]
        cfg = exp.spec.optimizer
        init = optimize._resolve_init(exp.model, exp.em, cfg)
        starts = optimize._starts(init, exp.model.domain, cfg)
        for point in curve.points:
            sol = point.solution
            assert sol.n_evals >= sol.n_iters >= 0
            if sol.termination in ("exact_fit", "constraint", "exact_minimum"):
                assert sol.start_index is None
            elif math.isfinite(point.c_value):
                assert np.array_equal(sol.start_used, starts[sol.start_index])
            else:
                assert 0 <= sol.start_index <= cfg.multistart
        assert len(starts) == cfg.multistart + 1


class TestTermination:
    def test_converged(self):
        sol = minimize(*gamma2_problem())
        assert sol.termination == "converged" and sol.converged

    def test_max_iters(self):
        cfg = OptimizerConfig(max_iters=1, multistart=0)
        sol = minimize(*gamma2_problem(), config=cfg)
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

    def test_exact_minimum(self, poisson_em_3_15):
        sol = minimize(POISSON, WeightVector.of([1.0, 1.0]), poisson_em_3_15)
        assert sol.termination == "exact_minimum" and sol.converged


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


# The five 1-parameter families: binomial K = 1 has c = 0 (a linear F'),
# exponential and gamma_fixed_shape have b = 0.
QUARTIC_FAMILIES = st.sampled_from([
    ("poisson", st.just(()), (0.2, 10.0)),
    ("chisq", st.just(()), (0.2, 10.0)),
    ("exponential", st.just(()), (0.2, 10.0)),
    ("gamma_fixed_shape", st.tuples(st.floats(0.5, 5.0)), (0.2, 10.0)),
    ("binomial_fixed_trials", st.sampled_from([(1.0,), (2.0,), (10.0,)]), (0.05, 0.95)),
])
SUB_LOSS_KINDS = st.one_of(
    st.just(SquaredLoss()),
    st.builds(AsymmetricSquaredLoss, st.floats(0.1, 10.0), st.floats(0.1, 10.0)))


@st.composite
def quartic_problems(draw):
    """A 1-parameter model, r(theta_0) shifted by up to 30% per moment, both weights active."""
    name, fixed, (lo, hi) = draw(QUARTIC_FAMILIES)
    model = make_model(name, draw(fixed))
    theta0 = [draw(st.floats(lo, hi))]
    shift = np.array(draw(st.lists(st.floats(-0.3, 0.3), min_size=2, max_size=2)))
    em = analytic_moments(model, theta0, perturb=shift * model.moments(theta0))
    c = draw(st.lists(st.floats(1e-3, 1e3), min_size=2, max_size=2))
    kinds = tuple(draw(st.lists(SUB_LOSS_KINDS, min_size=2, max_size=2)))
    return model, WeightVector.of(c), em, kinds


def loss_slope(model, w, em, kinds, theta):
    """F'(theta), and the scale of its rounding error: the terms' size with |m_hat| in d."""
    d = model.moments([theta]) - em.m_hat
    s = w.effective * np.array([float(kind.weight(x)) for kind, x in zip(kinds, d)])
    dr = model.moment_jacobian([theta])[:, 0]
    return 2.0 * float((s * d * dr).sum()), 2.0 * float((s * np.abs(dr) * (np.abs(em.m_hat)
                                                                            + np.abs(d))).sum())


class TestExactMinimum:
    """Every finite-weight 1-parameter problem with two active sub-losses is solved exactly."""

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(quartic_problems())
    def test_least_stationary_point(self, problem):
        model, w, em, kinds = problem
        sol = minimize(model, w, em, kinds)
        box = default_box(model, em)
        grid = meshgrid_oracle(model, w, em, kinds, box=box, width=(box[0][1] - box[0][0]) / 4000)
        assert sol.loss <= grid.loss + 1e-12 * (1.0 + abs(sol.loss))
        theta = float(sol.theta_star[0])
        if sol.termination == "exact_minimum":
            slope, scale = loss_slope(model, w, em, kinds, theta)
            assert abs(slope) <= 8.0 * np.finfo(float).eps * scale
        else:
            # Left to the iterative solve only when the optimum is at an end of the domain.
            ends = [x for x in model.domain[0] if x is not None]
            assert min(abs(theta - x) for x in ends) <= 1e-6

    @pytest.mark.parametrize("name, fixed, m_hat, end", [
        # B(1, theta) has r = (theta, theta), so F' is linear, with its root at
        # the mean 1.15 of m_hat, beyond theta = 1.
        ("binomial_fixed_trials", (1.0,), [1.2, 1.1], 1.0),
        # F has a local minimum at theta = 1.80, where F = 544.4, but falls to
        # 541 as theta -> 0.
        ("poisson", (), [-21.0, 10.0], 0.0),
    ])
    def test_boundary_optimum_falls_back_to_levenberg_marquardt(self, monkeypatch, name, fixed,
                                                                 m_hat, end):
        model = make_model(name, fixed)
        em = EmpiricalMoments(np.array(m_hat), np.zeros(2), 0)
        lanes = []
        solve = optimize._levenberg_marquardt

        def counted(point, z0, *args):
            lanes.append(len(z0))
            return solve(point, z0, *args)

        monkeypatch.setattr(optimize, "_levenberg_marquardt", counted)
        cfg = OptimizerConfig(max_iters=1000)
        sol = minimize(model, WeightVector.of([1.0, 1.0]), em, config=cfg)
        assert lanes == [cfg.multistart + 1]
        assert sol.termination != "exact_minimum" and sol.start_index is not None
        assert sol.theta_star[0] == pytest.approx(end, abs=1e-6)
        lo, hi = model.domain[0]
        assert lo < sol.theta_star[0] < (math.inf if hi is None else hi)  # strictly inside
        at_end = float(((model.moments_grid([[end]])[0] - em.m_hat) ** 2).sum())
        assert sol.loss <= at_end + 1e-12 * at_end

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_cubic_beyond_float64_falls_back(self):
        # c_2 = 2.2e-313 makes the monic cubic's coefficients overflow.
        em = analytic_moments(POISSON, [1.0])
        sol = minimize(POISSON, WeightVector.of([1.0, 2.22507386e-313]), em)
        assert sol.termination == "converged" and sol.loss == 0.0

    def test_no_solver_setting_moves_it(self, poisson_em_3_15):
        w = WeightVector.of([1.0, 1.0])
        sol = minimize(POISSON, w, poisson_em_3_15)
        assert (sol.termination, sol.n_iters, sol.start_index) == ("exact_minimum", 0, None)
        for cfg in (OptimizerConfig(method="nelder_mead"), OptimizerConfig(max_iters=1),
                    OptimizerConfig(multistart=0, init=(50.0,), seed=7)):
            assert_same_solution(minimize(POISSON, w, poisson_em_3_15, config=cfg), sol)
        (from_starts,) = optimize.minimize_many(POISSON, [w], poisson_em_3_15,
                                                starts=[[[0.5], [40.0]]])
        assert_same_solution(from_starts, sol)

    @pytest.mark.parametrize("name", [p.stem for p in sorted(SWEEP_CONFIG_DIR.glob("var-*.json"))])
    def test_shipped_variance_sweeps_take_no_lanes(self, monkeypatch, name):
        def no_lanes(*args):
            raise AssertionError("a 1-parameter sweep reached Levenberg-Marquardt")

        monkeypatch.setattr(optimize, "_levenberg_marquardt", no_lanes)
        curve = run_sweep(shipped_experiment(name).spec)
        terminations = [p.solution.termination for p in curve.points]
        assert terminations == ["exact_fit", *["exact_minimum"] * 41, "constraint"]
        assert all(p.converged and p.solution.n_iters == 0 for p in curve.points)


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


def lexsort_oracle(model, weights, em, box, width):
    """Reference meshgrid oracle: the whole grid at once, the first row of a lexsort."""
    steps = [int(math.floor((hi - lo) / width + 1e-12)) if hi > lo else 0 for lo, hi in box]
    axes = [lo + width * np.arange(n + 1) for (lo, _), n in zip(box, steps)]
    thetas = np.column_stack([m.ravel() for m in np.meshgrid(*axes, indexing="ij")])
    with np.errstate(over="ignore", invalid="ignore"):
        r = model.moments_grid(thetas)
        losses = total_loss(weights, r, em, default_kinds(em.moment_order))
    losses = np.where(np.isfinite(losses), losses, math.inf)
    idx = np.lexsort(tuple(thetas[:, j] for j in reversed(range(thetas.shape[1]))) + (losses,))[0]
    return thetas[idx], r[idx], losses[idx]


class TestSlabbedMeshgrid:
    """The slab-by-slab argmin picks the point a lexsort of the whole grid picks."""

    @staticmethod
    def assert_matches_reference(model, weights, em, box, width):
        sol = meshgrid_oracle(model, weights, em, box=box, width=width)
        theta, r, loss = lexsort_oracle(model, weights, em, box, width)
        assert np.array_equal(sol.theta_star, theta)
        assert np.array_equal(sol.r_star, r, equal_nan=True)
        assert sol.loss == loss
        return sol

    @pytest.mark.parametrize("slab", [optimize.GRID_SLAB, 7])
    @pytest.mark.parametrize("name,fixed,ranges", PROPERTY_MODELS,
                             ids=[m[0] for m in PROPERTY_MODELS])
    def test_every_model(self, monkeypatch, name, fixed, ranges, slab):
        monkeypatch.setattr(optimize, "GRID_SLAB", slab)
        model = make_model(name, fixed)
        theta0 = [(lo + hi) / 2 for lo, hi in ranges]
        r0 = model.moments(theta0)
        em = analytic_moments(model, theta0, perturb=0.1 * r0 * (-1.0) ** np.arange(len(r0)))
        weights = WeightVector.of(np.ones(model.moment_order))
        self.assert_matches_reference(model, weights, em, default_box(model, em), 0.05)

    def test_several_slabs_and_a_partial_one(self):
        model = make_model("gamma2")
        em = analytic_moments(model, [2.0, 1.5], perturb=[0.1, -0.5, 2.0])
        box = [(0.5, 3.5), (0.5, 2.5)]
        sol = self.assert_matches_reference(model, WeightVector.of([1.0, 1.0, 1.0]), em, box, 0.01)
        assert sol.n_evals > 3 * optimize.GRID_SLAB and sol.n_evals % optimize.GRID_SLAB
        assert sol.n_iters == sol.n_evals == 301 * 201

    def test_one_point_axis(self):
        model = make_model("gamma2")
        em = analytic_moments(model, [2.0, 1.5], perturb=[0.1, -0.5, 2.0])
        sol = self.assert_matches_reference(model, WeightVector.of([1.0, 1.0, 1.0]), em,
                                            [(2.0, 2.0), (0.5, 3.0)], 0.01)
        assert sol.theta_star[0] == 2.0 and sol.n_evals == 251

    @pytest.mark.parametrize("slab", [optimize.GRID_SLAB, 7])
    def test_all_overflow_returns_the_first_point(self, monkeypatch, slab):
        monkeypatch.setattr(optimize, "GRID_SLAB", slab)
        model = make_model("lognormal")
        em = analytic_moments(model, [0.0, 1.0])
        sol = self.assert_matches_reference(model, WeightVector.of([1.0, 1.0, 1.0]), em,
                                            [(800.0, 801.0), (0.5, 1.5)], 0.1)
        assert sol.loss == math.inf and np.array_equal(sol.theta_star, [800.0, 0.5])

    def test_memory_is_bounded_by_the_slab(self):
        exp = resolve(json.loads((SWEEP_CONFIG_DIR / "skew-gamma2.json").read_text()))
        box = default_box(exp.model, exp.em)
        tracemalloc.start()
        try:
            sol = meshgrid_oracle(exp.model, exp.spec.weights_at(1.0), exp.em, exp.spec.kinds,
                                  box=box, width=0.01)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sol.n_evals > 300_000
        assert peak < 8 * 2**20

    @pytest.mark.parametrize("box,width", [
        ([(0.1, 6.0)], math.nan),
        ([(0.1, 6.0)], math.inf),
        ([(-math.inf, 6.0)], 0.1),
        ([(0.1, math.inf)], 0.1),
        ([(0.1, math.nan)], 0.1),
    ])
    def test_non_finite_grid_rejected(self, poisson_em_3_15, box, width):
        with pytest.raises(DomainError, match="finite"):
            meshgrid_oracle(POISSON, WeightVector.of([1.0, 1.0]), poisson_em_3_15,
                            box=box, width=width)


# (name, fixed params, thetas spanning the domain) for each quadratic family;
# exponential and gamma_fixed_shape have b = 0, binomial_fixed_trials with K = 1 has c = 0.
QUADRATIC_FAMILIES = [
    ("poisson", (), np.geomspace(1e-5, 1e5, 41)),
    ("chisq", (), np.geomspace(1e-5, 1e5, 41)),
    ("exponential", (), np.geomspace(1e-5, 1e5, 41)),
    ("gamma_fixed_shape", (2.0,), np.geomspace(1e-5, 1e5, 41)),
    ("binomial_fixed_trials", (10.0,), np.linspace(1e-5, 1.0 - 1e-5, 41)),
    ("binomial_fixed_trials", (1.0,), np.linspace(1e-5, 1.0 - 1e-5, 41)),
]


class TestClosedFormInverse:
    """The r_2 root of _solve_constrained_1p, 2 t / (b + sqrt(b^2 + 4 c t))."""

    @pytest.mark.parametrize("name,fixed,thetas", QUADRATIC_FAMILIES)
    def test_root_reproduces_the_target(self, name, fixed, thetas):
        model = make_model(name, fixed)
        for theta in thetas:
            target = model.moments([theta])[1]
            root, clamped = optimize._solve_constrained_1p(model, 1, target)
            assert not clamped
            assert abs(model.moments([root])[1] - target) <= 4 * np.spacing(target), theta
            b, c = model.b, model.c
            if c:
                assert root == pytest.approx(quadratic_root(b / c, target / c), rel=1e-9)
            else:  # r_2 = b theta, so the root is exact
                assert root == target / b
            if not b:  # r_2 = c theta^2
                assert root == pytest.approx(math.sqrt(target / c), rel=4e-16)

    @pytest.mark.parametrize("name,fixed,_", QUADRATIC_FAMILIES[:4])
    def test_targets_near_the_float_limit(self, name, fixed, _):
        # 4 c r_2 overflows above about 4.5e307 / c.
        model = make_model(name, fixed)
        for target in (1e307, 1e308, 1.7e308):
            root, clamped = optimize._solve_constrained_1p(model, 1, target)
            assert not clamped
            assert abs(model.moments([root])[1] - target) <= 4 * np.spacing(target), target

    @pytest.mark.parametrize("name,fixed,_", QUADRATIC_FAMILIES)
    @pytest.mark.parametrize("target", [0.0, -1.0, 1e-13])
    def test_target_below_the_image_clamps_to_the_lower_end(self, name, fixed, _, target):
        # The lower end is theta at r_1 = 1e-9, pulled 1e-6 inside the domain.
        model = make_model(name, fixed)
        assert optimize._solve_constrained_1p(model, 1, target) == (1e-6, True)

    def test_binomial_target_at_or_above_the_top_clamps_to_the_upper_end(self):
        model = make_model("binomial_fixed_trials", (10.0,))
        t_hi = (10.0 - 1e-8) / 10.0  # theta at r_1 = K (1 - 1e-9)
        for target in (model.moments([t_hi])[1], model.moments([1.0])[1], 1e3):
            assert optimize._solve_constrained_1p(model, 1, target) == (t_hi, True)
        below = model.moments([0.99])[1]
        root, clamped = optimize._solve_constrained_1p(model, 1, below)
        assert not clamped and root == pytest.approx(0.99, rel=1e-15)

    @pytest.mark.parametrize("name,fixed,_", QUADRATIC_FAMILIES)
    def test_constraint_on_the_second_moment_uses_no_bracket(self, monkeypatch, name, fixed, _):
        model = make_model(name, fixed)
        monkeypatch.setattr(optimize, "brentq", None)
        em = analytic_moments(model, [0.5], perturb=[0.1, 0.0])
        sol = minimize(model, WeightVector.of([1.0, np.inf]), em)
        assert sol.termination == "constraint" and not sol.clamped
        assert abs(sol.r_star[1] - em.m_hat[1]) <= 4 * np.spacing(em.m_hat[1])


class TestBrentq:
    """optimize.brentq takes the same steps as scipy.optimize.brentq."""

    @staticmethod
    def assert_same_steps(f, xa, xb, **tols):
        # Same evaluation points and the same root, compared as bit patterns.
        ours, theirs = [], []
        root = optimize.brentq(lambda x: ours.append(x) or f(x), xa, xb, **tols)
        want = scipy_brentq(lambda x: theirs.append(x) or f(x), xa, xb, **tols)
        assert [float(x).hex() for x in ours] == [float(x).hex() for x in theirs]
        assert float(root).hex() == float(want).hex()

    @staticmethod
    def recorded_calls(monkeypatch, module, run):
        calls = []
        real = optimize.brentq

        def spy(f, xa, xb, **tols):
            calls.append((f, xa, xb, tols))
            return real(f, xa, xb, **tols)

        monkeypatch.setattr(module, "brentq", spy)
        run()
        monkeypatch.undo()
        assert calls
        return calls

    def test_loglogistic_start_site(self, monkeypatch):
        model = make_model("loglogistic")
        ems = [analytic_moments(model, [1.0, b]) for b in (4.0, 6.0, 25.0)]
        calls = self.recorded_calls(monkeypatch, optimize, lambda: [
            moment_match_init(model, em) for em in ems])
        for f, xa, xb, tols in calls:
            self.assert_same_steps(f, xa, xb, **tols)

    def test_slope_crossing_site(self, monkeypatch):
        from elicit import theory

        model = make_model("binomial_fixed_trials", (10.0,))
        # The crossing at r1 = 5 lies between grid points on both intervals.
        calls = self.recorded_calls(monkeypatch, theory, lambda: [
            classify_2d_case(model, make_link("variance"), (0.5, 9.0)),
            classify_2d_case(model, make_link("variance"), (0.3, 9.2), n_grid=40)])
        for f, xa, xb, tols in calls:
            self.assert_same_steps(f, xa, xb, **tols)

    def test_smooth_functions(self):
        self.assert_same_steps(lambda x: x**3 - 2.0 * x - 5.0, 2.0, 3.0)
        self.assert_same_steps(lambda x: x**3 - 2.0 * x - 5.0, -10.0, 10.0,
                               xtol=1e-15, rtol=8.9e-16)
        for ratio in (1.01, 1.2, 1.39):
            self.assert_same_steps(
                lambda b: math.tan(math.pi / b) / (math.pi / b) - ratio,
                3.5 + 1e-6, 1e8, xtol=1e-12)
        self.assert_same_steps(lambda x: math.cos(x) - x, 0.0, 1.0, xtol=1e-15,
                               rtol=8.9e-16)

    def test_root_at_an_end(self):
        assert optimize.brentq(lambda x: x - 1.0, 1.0, 2.0) == 1.0
        assert optimize.brentq(lambda x: x - 2.0, 1.0, 2.0) == 2.0

    def test_same_signs_raise_value_error(self):
        with pytest.raises(ValueError):
            optimize.brentq(lambda x: x * x + 1.0, -1.0, 1.0)

    def test_no_convergence_raises_runtime_error(self):
        with pytest.raises(RuntimeError):
            optimize.brentq(lambda x: x**3 - 2.0 * x - 5.0, -10.0, 10.0, maxiter=3)
