import json
import math
import time
import tracemalloc
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq as scipy_brentq

from elicit import analytic_moments, distmodels, make_model, minimize, optimize, profile
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
from elicit.sweep import run_sweep
from elicit.theory import CONTAINMENT_SLACK

POISSON = make_model("poisson")
OPEN_END = math.exp(-700.0)  # theta returned for an optimum at the open end theta -> 0
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

    def test_overflowing_effective_weight_is_rejected(self, poisson_em_3_15):
        # c_1 / k_1 = 1e310 once dropped sub-loss 1 as inactive: theta = 3.405,
        # the exact fit of r_2, where c_1 = inf gives the r_1 fit theta = 3.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match=r"c\[0\] = 1e\+300 over k\[0\] = 1e-10"):
                minimize(POISSON, WeightVector.of([1e300, 1.0], [1e-10, 1.0]), poisson_em_3_15)

    def test_constraint_off_the_image_lands_on_the_end(self):
        # m_hat_1 = 12 > K: the root p = 1.2 is clipped to the closed end p = 1.
        model = make_model("binomial_fixed_trials", (10.0,))
        em = analytic_moments(model, [0.5], perturb=[7.0, 0.0])
        sol = minimize(model, WeightVector.of([np.inf, 1.0]), em)
        assert sol.termination == "constraint" and sol.clamped and sol.converged
        assert sol.theta_star[0] == 1.0 and sol.r_star[0] == 10.0

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


class TestMethods:
    def test_profile_is_the_default_and_the_others_stay_selectable(self):
        assert OptimizerConfig().method == "profile"
        assert optimize.METHODS == ("profile", "nelder_mead", "gradient_descent")
        model, w, em = gamma2_problem()
        losses = [minimize(model, w, em, config=OptimizerConfig(method=m)).loss
                  for m in optimize.METHODS]
        assert max(losses) - min(losses) <= 1e-9 * (1.0 + min(losses))

    def test_overflowing_grid_points_raise_no_warnings(self):
        # On the renormalized lognormal(0, 9) problem r_3 overflows at the
        # grid's large v2; the overflow stays inside the solve.
        model = make_model("lognormal")
        em = lognormal_9_sample_moments()
        w = WeightVector.of([1.0, 1.0, 1.0], renormalize_base(em))
        simplex = minimize(model, w, em, config=OptimizerConfig(method="nelder_mead"))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sol = minimize(model, w, em)
        assert sol.converged and sol.termination == "converged"
        assert sol.loss <= simplex.loss + 1e-9 * (1.0 + abs(simplex.loss))

    def test_undefined_start_is_not_converged(self):
        # r_3 overflows at v2 = 100, and no multistart offers a way out: gradient
        # descent finds no gradient there.  The overflow stays inside the
        # solver: no warning escapes.
        cfg = OptimizerConfig(method="gradient_descent", multistart=0, init=(0.0, 100.0))
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

    @pytest.mark.parametrize("name", ["skew-beta2", "skew-loglogistic"])
    def test_each_profile_row_equals_its_own_minimize(self, name):
        # The profile's rows leave its searches one by one.
        spec = shipped_experiment(name).spec
        weights = [spec.weights_at(c) for c in (math.inf, 0.0, 3.0, 1e-3)]
        batch = optimize.minimize_many(spec.model, weights, spec.em, spec.kinds)
        for w, sol in zip(weights, batch):
            assert_same_solution(sol, minimize(spec.model, w, spec.em, spec.kinds))

    def test_an_infeasible_problem_leaves_the_others_solved(self, poisson_em_3_15):
        good, bad = WeightVector.of([1.0, 1.0]), WeightVector.of([1.0, 1.0, 1.0])
        sol, err = optimize.minimize_many(POISSON, [good, bad], poisson_em_3_15)
        assert sol.converged
        assert isinstance(err, DomainError)
        with pytest.raises(DomainError, match="moment order"):
            minimize(POISSON, bad, poisson_em_3_15)


class TestProfileTerminations:
    """The profile's ends, flat problems, inner minima and grid rivals."""

    def test_lognormal_closed_end_is_a_boundary(self):
        # m_hat_2 and m_hat_3 below the v2 = 0 curve: the profile rises from v2 = 0,
        # which is returned as itself.
        model = make_model("lognormal")
        em = analytic_moments(model, [0.3, 0.01], perturb=[0.0, -0.2, -0.5])
        w = WeightVector.of([1.0, 1.0, 1.0])
        sol = minimize(model, w, em)
        assert (sol.termination, sol.converged, sol.theta_star[1]) == ("boundary", True, 0.0)
        simplex = minimize(model, w, em, config=OptimizerConfig(method="nelder_mead"))
        assert sol.loss <= simplex.loss + 1e-9 * (1.0 + abs(simplex.loss))

    def test_infimum_past_the_grid_is_a_limit(self):
        # gamma2 with m_hat_2 < m_hat_1^2: the loss falls as the shape a -> inf,
        # towards a point mass at mu, whose loss (mu - 4.5)^2 + (mu^2 - 20)^2 is
        # least at a root of 4 mu^3 - 78 mu - 9.
        em = EmpiricalMoments(np.array([4.5, 20.0, 120.0]), np.zeros(3), 0)
        sol = minimize(make_model("gamma2"), WeightVector.of([1.0, 1.0, 0.0]), em)
        assert (sol.termination, sol.converged) == ("limit", True)
        assert sol.theta_star[0] > 1e8
        mu = np.roots([4.0, 0.0, -78.0, -9.0]).real
        assert sol.loss == pytest.approx(min((mu - 4.5) ** 2 + (mu * mu - 20.0) ** 2), rel=1e-12)

    def test_a_profile_falling_past_the_march_is_an_open_end(self, monkeypatch):
        # A stand-in profile P = 1 / phi, which falls by 90% every decade.
        def point(self, rows, phi, start=None, steps=None):
            theta = np.column_stack([phi, np.ones_like(phi)])
            return 1.0 / phi, -1.0 / phi**2, 2.0 / phi**3, theta, np.ones((len(rows), 2))

        monkeypatch.setattr(profile._Rows, "point", point)
        model, w, em = gamma2_problem()
        (theta,), (term,) = profile.solve(model, em, default_kinds(3),
                                          np.array([w.effective]), np.array([-1]))
        assert term == "open_end"
        assert theta[0] == pytest.approx(1e8 * 10.0 ** (profile.MARCH - 1))

    @pytest.mark.parametrize("c, termination", [([0.0, 0.0, 2.0], "exact_fit"),
                                                ([np.inf, 0.0, 0.0], "constraint")])
    def test_a_flat_problem_fits_its_moment(self, c, termination):
        model, _, em = gamma2_problem()
        sol = minimize(model, WeightVector.of(c), em)
        i = int(np.argmax(np.array(c) > 0.0))
        assert (sol.termination, sol.converged) == (termination, True)
        assert sol.r_star[i] == pytest.approx(em.m_hat[i], rel=1e-14)

    def test_the_inner_search_finds_the_far_minimum(self):
        # At v2 = 0 the lognormal moments are t^k.  With fits t_1 = 1 and
        # t_3 = 1e3 and these weights F has two minima in t, and the one near
        # t_3 (about 1e6) is lower than the one near t_1 (about 2e6).
        model = make_model("lognormal")
        em = EmpiricalMoments(np.array([1.0, 1.0, 1e9]), np.zeros(3), 0)
        eff = np.array([[1.0, 0.0, 2e-12]])
        rows = profile._Rows(model, em, default_kinds(3), eff, np.array([-1]))
        P, *_, theta, _ = rows.point(np.array([0]), np.array([0.0]))
        u = np.linspace(math.log(1e-2), math.log(1e4), 200001)
        brute = eff[0] @ (np.exp(np.outer([1.0, 2.0, 3.0], u)) - em.m_hat[:, None]) ** 2
        assert brute.min() * (1.0 - 1e-6) <= P[0] <= brute.min()
        assert theta[0, 0] == pytest.approx(u[np.argmin(brute)], abs=1e-4)

    def test_a_second_grid_minimum_as_low_is_multimodal(self, monkeypatch):
        # A stand-in profile with equal minima at phi = 1 and phi = 0.01, both grid points.
        def point(self, rows, phi, start=None, steps=None):
            z, z2 = np.log(phi), math.log(0.01)
            p, dp = z * (z - z2), 2.0 * z - z2
            P, dP, d2P = p * p + 1.0, 2.0 * p * dp, 2.0 * dp * dp + 4.0 * p
            theta = np.column_stack([phi, np.ones_like(phi)])
            return P, dP / phi, (d2P - dP) / phi**2, theta, np.ones((len(rows), 2))

        monkeypatch.setattr(profile._Rows, "point", point)
        model, w, em = gamma2_problem()
        (theta,), (term,) = profile.solve(model, em, default_kinds(3),
                                          np.array([w.effective]), np.array([-1]))
        assert term == "multimodal"

    @pytest.mark.parametrize("c", [1e-3, 1.0, 1e3])
    def test_simplex_from_the_answer_finds_nothing_lower(self, c):
        # Unit base weights on the lognormal(0, 9) sample: r_3 ~ 2e10 swamps the
        # other terms, the case the held-moment derivative is for.
        model, em = make_model("lognormal"), lognormal_9_sample_moments()
        w = WeightVector.of([c, 1.0, 1.0])
        sol = minimize(model, w, em)
        polish = OptimizerConfig(method="nelder_mead", multistart=0, init=tuple(sol.theta_star))
        assert sol.converged
        assert sol.loss <= minimize(model, w, em, config=polish).loss * (1.0 + 1e-12)


def assert_same_solution(a, b):
    """Every field of two Solutions equal, arrays bit for bit."""
    for name, x in vars(a).items():
        y = getattr(b, name)
        if isinstance(x, np.ndarray):
            assert np.array_equal(x, y), name
        else:
            assert x == y, name


class TestMixedBatch:
    @pytest.mark.parametrize("constrained_first", [True, False])
    @pytest.mark.parametrize("method", ["profile", "nelder_mead"])
    def test_each_problem_equals_its_own_solve(self, constrained_first, method):
        # A 2-parameter c = inf problem takes the profile under every method;
        # a finite-weight problem beside it must still take the configured solve.
        exp = shipped_experiment("skew-lognormal")
        spec, config = exp.spec, OptimizerConfig(method=method)
        problems = [spec.weights_at(math.inf), spec.weights_at(1.0)]
        if not constrained_first:
            problems.reverse()
        batch = optimize.minimize_many(exp.model, problems, exp.em, spec.kinds, config)
        for w, sol in zip(problems, batch):
            assert_same_solution(sol, minimize(exp.model, w, exp.em, spec.kinds, config))


def best_start_reference(model, w, em, kinds, lanes):
    """The (loss, lexicographic theta) best candidate over one problem's starts, by a strict-< scan.

    ``lanes`` holds (raw start theta, z at the solver's end, termination) per
    start of a finite-weight problem.  Returns (theta, excess loss,
    termination, start, start index).
    """
    residual = optimize._finite_objective(model, em, kinds or default_kinds(3),
                                          np.array([optimize._active_terms(w, em)[1]]))
    best = None
    for index, (x0, z, term) in enumerate(lanes):
        end = optimize._from_z(z[None], model.domain)[0][0]
        for theta in (end, x0):
            rho, _, ok = residual(theta[None], np.zeros(1, dtype=int))
            key = (float(optimize._sq(rho, ok)[0]), tuple(theta))
            if best is None or key < best[0]:
                best = (key, (theta.copy(), key[0], term, x0, index))
    return best[1]


def loss_constant_reference(weights, em):
    """sum_{active} eff_i * v_hat_i, term by term."""
    eff = weights.effective
    out = 0.0
    for i in range(len(eff)):
        if np.isfinite(eff[i]) and eff[i] > 0.0:
            out += eff[i] * em.v_hat[i]
    return float(out)


SIMPLEX = OptimizerConfig(method="nelder_mead")


class TestWinnerSelection:
    """Of a problem's starts, the least (loss, theta) candidate wins, as a strict-< scan picks it."""

    @staticmethod
    def solve_against_reference(monkeypatch, model, w, em, kinds=None, config=SIMPLEX,
                                starts=None):
        lanes = []
        run_lane = optimize._run_lane

        def spy(model, residual, z0, cfg):
            out = run_lane(model, residual, z0, cfg)
            lanes.append((out[0], out[3]))
            return out

        monkeypatch.setattr(optimize, "_run_lane", spy)
        if starts is None:
            (sol,) = optimize.minimize_many(model, [w], em, kinds, config)
            x0s = optimize._starts(optimize._resolve_init(model, em, config), model.domain, config)
        else:
            x0s = [optimize.interior_start(model, x) for x in starts]
            kinds, eff = kinds or default_kinds(3), np.array([optimize._active_terms(w, em)[1]])
            theta, fields = optimize._best_of_starts(model, em, kinds, eff[0], x0s, config)
            (sol,) = optimize._score(model, em, kinds, eff, np.array([-1]), theta[None], [fields])
        monkeypatch.undo()
        assert len(lanes) == len(x0s)
        theta, excess, term, start, index = best_start_reference(
            model, w, em, kinds, [(x0, z, t) for x0, (z, t) in zip(x0s, lanes)])
        assert np.array_equal(sol.theta_star, theta)
        assert sol.loss == excess + loss_constant_reference(w, em)
        assert (sol.termination, sol.start_index) == (term, index)
        assert np.array_equal(sol.start_used, start)
        assert np.array_equal(sol.r_star, model.moments(sol.theta_star))
        return sol

    @pytest.mark.parametrize("name", ["skew-gamma2", "skew-lognormal", "skew-beta2"])
    def test_shipped_configs(self, monkeypatch, name):
        spec = shipped_experiment(name).spec
        self.solve_against_reference(monkeypatch, spec.model, spec.weights_at(1.0), spec.em,
                                     spec.kinds)

    def test_duplicate_starts_pick_the_earlier_lane(self, monkeypatch):
        model = make_model("lognormal")
        em = analytic_moments(model, [0.3, 1.2], perturb=[0.1, 0.5, 4.0])
        sol = self.solve_against_reference(monkeypatch, model, WeightVector.of([1.0, 1.0, 1.0]),
                                           em, starts=[[0.2, 1.0], [0.2, 1.0]])
        assert sol.start_index == 0

    def test_start_on_the_minimizer_ends_where_it_starts(self, monkeypatch):
        # Gamma2 moments at theta = (1, 1): the moment-matching start is the
        # exact fit, and it wins with the earliest index.
        model = make_model("gamma2")
        em = analytic_moments(model, [1.0, 1.0])
        sol = self.solve_against_reference(monkeypatch, model, WeightVector.of([1.0, 1.0, 1.0]),
                                           em)
        assert np.array_equal(sol.theta_star, [1.0, 1.0]) and sol.start_index == 0

    def test_r_star_is_the_scalar_moment_map_on_every_shipped_point(self, shipped_sweeps):
        for name, (exp, curve) in shipped_sweeps.items():
            for point in curve.points:
                sol = point.solution
                assert np.array_equal(sol.r_star, exp.model.moments(sol.theta_star)), name


class TestTelemetry:
    @pytest.mark.parametrize("name", ["skew-gamma2", "skew-lognormal"])
    def test_start_index_names_the_start_used(self, name):
        spec = shipped_experiment(name).spec
        init = optimize._resolve_init(spec.model, spec.em, SIMPLEX)
        starts = optimize._starts(init, spec.model.domain, SIMPLEX)
        assert len(starts) == SIMPLEX.multistart + 1
        for c in (0.0, 1.0):
            sol = minimize(spec.model, spec.weights_at(c), spec.em, spec.kinds, SIMPLEX)
            assert sol.n_evals >= sol.n_iters >= 0
            assert np.array_equal(sol.start_used, starts[sol.start_index])

    @pytest.mark.parametrize("method", ["nelder_mead", "gradient_descent"])
    def test_a_constrained_problem_takes_the_profile_under_every_method(self, method):
        # A c = inf problem is a 1-D search along its constraint: no start to be sensitive to.
        spec = shipped_experiment("skew-lognormal").spec
        w = spec.weights_at(math.inf)
        sol = minimize(spec.model, w, spec.em, spec.kinds, OptimizerConfig(method=method))
        assert_same_solution(sol, minimize(spec.model, w, spec.em, spec.kinds))
        assert sol.start_index is None and sol.converged

    @pytest.mark.parametrize("name", ["skew-gamma2", "skew-lognormal"])
    def test_profile_solutions_use_no_start(self, shipped_sweeps, name):
        exp, curve = shipped_sweeps[name]
        for point in curve.points:
            sol = point.solution
            assert (sol.start_index, sol.n_iters, sol.n_evals) == (None, 0, 0)
            assert np.array_equal(sol.start_used, sol.theta_star)


class TestTermination:
    def test_converged(self):
        sol = minimize(*gamma2_problem())
        assert sol.termination == "converged" and sol.converged

    def test_max_iters(self):
        cfg = OptimizerConfig(method="nelder_mead", max_iters=1, multistart=0)
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


def reaches(model, i, target):
    """Whether some theta of a 2-parameter model has r_i = target."""
    try:
        model.eliminate_for_moment(i, target)
    except OutOfImage:
        return False
    return True


@st.composite
def off_image_problems(draw):
    """A model, moments r(theta_0) shifted by up to 20% per coordinate, weights and sub-losses.

    The sub-losses are squared or asymmetric; in some problems one weight is
    infinite, on a moment that the model can reach.
    """
    name, fixed, ranges = draw(st.sampled_from(PROPERTY_MODELS))
    model = make_model(name, fixed)
    theta0 = [draw(st.floats(lo, hi)) for lo, hi in ranges]
    M = model.moment_order
    shift = np.array(draw(st.lists(st.floats(-0.2, 0.2), min_size=M, max_size=M)))
    em = analytic_moments(model, theta0, perturb=shift * model.moments(theta0))
    c = draw(st.lists(st.floats(0.0, 10.0), min_size=M, max_size=M).filter(any))
    if draw(st.booleans()):
        i = draw(st.integers(0, M - 1))
        c[i] = np.inf
        assume(model.theta_dim == 1 or reaches(model, i, float(em.m_hat[i])))
    kinds = tuple(draw(st.lists(SUB_LOSS_KINDS, min_size=M, max_size=M)))
    return model, em, WeightVector.of(c), kinds


def off_image_example(name, theta0, shift, c, kinds):
    """One draw of ``off_image_problems`` in full; ``kinds`` holds None (squared) or (a, b)."""
    model = make_model(name)
    em = analytic_moments(model, theta0, perturb=np.array(shift) * model.moments(theta0))
    kinds = tuple(SquaredLoss() if k is None else AsymmetricSquaredLoss(*k) for k in kinds)
    return model, em, WeightVector.of(c), kinds


def point_example(name, m_hat, c):
    """A 2-parameter model with squared sub-losses at the moments ``m_hat`` themselves, v_hat = 0."""
    em = EmpiricalMoments(np.array(m_hat), np.zeros(3), 0)
    return make_model(name), em, WeightVector.of(c), (SquaredLoss(),) * 3


# One active sub-loss on a moment m_hat_K <= 0, which every r_K > 0 misses: F
# falls to m_hat_K^2 at the point mass at 0, on every 2-parameter model.
FLAT_AT_ZERO = [([-0.1, 0.5, 0.4], [1.0, 0.0, 0.0]), ([0.5, -2.0, 0.4], [0.0, 1.0, 0.0]),
                ([0.5, 0.4, -0.3], [0.0, 0.0, 1.0])]


class TestDefaultSolverProperty:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(off_image_problems())
    # beta2 with m_hat_1 >= 1 (or <= 0) outside its image 0 < r_1 < 1: the
    # infimum is the point mass at 1 (at 0), b -> 0 (a -> 0), for every shape.
    @example(point_example("beta2", [1.0, 0.808, 0.746], [1.0, 0.0, 0.0]))
    @example(point_example("beta2", [1.0, 0.808, 0.746], [1.0, 1e-300, 0.0]))
    @example(point_example("beta2", [1.2, 0.9, 0.8], [1.0, 0.0, 0.0]))
    @example(point_example("beta2", [1.2, 0.9, 0.8], [1.0, 1e-6, 0.0]))
    @example(point_example("beta2", [1.2, 0.9, 0.8], [1.0, 1.0, 0.0]))
    # FLAT_AT_ZERO: the point mass at 0, which no theta attains.
    @example(point_example("beta2", *FLAT_AT_ZERO[0]))
    @example(point_example("beta2", *FLAT_AT_ZERO[1]))
    @example(point_example("gamma2", *FLAT_AT_ZERO[0]))
    @example(point_example("gamma2", *FLAT_AT_ZERO[1]))
    @example(point_example("gamma2", *FLAT_AT_ZERO[2]))
    @example(point_example("lognormal", *FLAT_AT_ZERO[0]))
    @example(point_example("lognormal", *FLAT_AT_ZERO[1]))
    @example(point_example("lognormal", *FLAT_AT_ZERO[2]))
    @example(point_example("loglogistic", *FLAT_AT_ZERO[0]))
    @example(point_example("loglogistic", *FLAT_AT_ZERO[1]))
    @example(point_example("loglogistic", *FLAT_AT_ZERO[2]))
    # The minimum at lognormal's closed end v2 = 0, below what six inner steps reach there.
    @example(point_example("lognormal", [-0.787, 2.038, -3.836], [0.0, 4.04, 7.41]))
    # The loss falls as the shape grows without bound (gamma2) or shrinks to
    # its lower end (loglogistic, beta2): each infimum lies past the scan's grid.
    @example(off_image_example("gamma2", [3.09, 2.92], [-0.017, 0.135, -0.178],
                               [3.86, 5.6, 6.2], [(0.75, 0.62), None, None]))
    @example(off_image_example("gamma2", [4.67, 0.61], [0.128, -0.105, 0.12],
                               [6.42, np.inf, 0.0], [(1.55, 9.74), None, (9.06, 0.34)]))
    @example(off_image_example("loglogistic", [0.69, 8.37], [-0.175, -0.088, 0.143],
                               [1.05, 2.07, 0.0], [(7.91, 9.15), None, (4.1, 9.06)]))
    @example(off_image_example("beta2", [6.78, 1.15], [-0.138, 0.072, 0.003],
                               [2.67, 5.76, 2.07], [(7.49, 3.85), (6.15, 2.65), None]))
    # An exact fit whose shape v2 = 1 is a point of the scan's grid, where dP = 0.
    @example(off_image_example("lognormal", [0.0, 1.0], [0.0] * 3, [0.0, 1.0, 1.0], [None] * 3))
    def test_no_worse_than_simplex_or_grid(self, problem):
        # The meshgrid oracle takes finite weights only.
        model, em, w, kinds = problem
        sol = minimize(model, w, em, kinds)
        assert sol.converged, sol.termination
        simplex = minimize(model, w, em, kinds, config=OptimizerConfig(method="nelder_mead"))
        tol = 1e-9 * (1.0 + abs(sol.loss))
        assert sol.loss <= simplex.loss + tol
        if w.infinite_index is None:
            grid = meshgrid_oracle(model, w, em, kinds, box=default_box(model, em), width=0.05)
            assert sol.loss <= grid.loss + tol

    @pytest.mark.parametrize("name,m_hat,c,b", [
        ("beta2", [1.0, 0.808, 0.746], [1.0, 0.0, 0.0], 1),
        ("beta2", [1.2, 0.9, 0.8], [1.0, 1.0, 0.0], 1),
        *((name, m_hat, c, 0) for name in ("beta2", "gamma2", "lognormal", "loglogistic")
          for m_hat, c in FLAT_AT_ZERO)])
    def test_point_mass_is_a_limit_inside_the_domain(self, name, m_hat, c, b):
        model, em, w, kinds = point_example(name, m_hat, c)
        sol = minimize(model, w, em, kinds)
        assert sol.termination == "limit" and sol.converged
        assert model.in_domain(sol.theta_star[None])[0]
        assert np.allclose(sol.r_star, b, rtol=0.0, atol=1e-15)
        # Every raw moment of the point mass at b is b, so its loss is the infimum.
        infimum = total_loss(w, np.full(3, float(b)), em, kinds)
        assert sol.loss == pytest.approx(infimum, rel=1e-12, abs=1e-30)

    def test_beta2_mean_constraint_off_its_image_raises(self):
        model, em, _, kinds = point_example("beta2", [1.2, 0.9, 0.8], [1.0, 0.0, 0.0])
        with pytest.raises(OutOfImage, match="moment 1 lies in"):
            minimize(model, WeightVector.of([np.inf, 1.0, 0.0]), em, kinds)


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
            assert sol.termination == "boundary" and theta in optimize._ends(model)

    @pytest.mark.parametrize("name, fixed, m_hat, c, end", [
        # F has a local minimum at theta = 1.80, where F = 544.4, but falls to
        # 541 as theta -> 0; with c_2 = 0 the target m_hat_1 < 0 is off the image.
        ("poisson", (), [-21.0, 10.0], [1.0, 1.0], OPEN_END),
        ("poisson", (), [-21.0, 10.0], [1.0, 0.0], OPEN_END),
        ("exponential", (), [-1.0, -5.0], [1.0, 1.0], OPEN_END),
        ("exponential", (), [-1.0, -5.0], [1.0, 0.0], OPEN_END),
        # B(1, theta) has r = (theta, theta), so F' is linear, with its root at
        # the mean 1.15 of m_hat, beyond the closed end theta = 1.
        ("binomial_fixed_trials", (1.0,), [1.2, 1.1], [1.0, 1.0], 1.0),
    ])
    def test_boundary_optimum_is_the_end(self, name, fixed, m_hat, c, end):
        # An open end is returned as e^-700, where the log map's clip stops an
        # iterate, and a closed end as itself.
        model = make_model(name, fixed)
        em = EmpiricalMoments(np.array(m_hat), np.zeros(2), 0)
        w = WeightVector.of(c)
        seconds = []
        for _ in range(5):
            t0 = time.perf_counter()
            sol = minimize(model, w, em)
            seconds.append(time.perf_counter() - t0)
        assert min(seconds) <= 1e-3
        assert (sol.termination, sol.converged, sol.n_iters, sol.start_index) == (
            "boundary", True, 0, None)
        assert sol.theta_star[0] == end and model.in_domain(sol.theta_star[None])[0]
        at_end = float((np.asarray(c) * (model.moments([end]) - em.m_hat) ** 2).sum())
        assert abs(sol.loss - at_end) <= 1e-12 * at_end

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_cubic_beyond_float64_takes_the_single_moment_fit(self):
        # c_2 = 2.2e-313 makes the monic cubic's coefficients overflow; the
        # interior optimum theta = 1 is the fit of m_hat_1, not an end.
        em = analytic_moments(POISSON, [1.0])
        sol = minimize(POISSON, WeightVector.of([1.0, 2.22507386e-313]), em)
        assert sol.termination == "exact_minimum" and sol.loss == 0.0
        assert sol.theta_star[0] == 1.0

    def test_no_solver_setting_moves_it(self, poisson_em_3_15):
        w = WeightVector.of([1.0, 1.0])
        sol = minimize(POISSON, w, poisson_em_3_15)
        assert (sol.termination, sol.n_iters, sol.start_index) == ("exact_minimum", 0, None)
        for cfg in (OptimizerConfig(method="nelder_mead"), OptimizerConfig(max_iters=1),
                    OptimizerConfig(multistart=0, init=(50.0,), seed=7)):
            assert_same_solution(minimize(POISSON, w, poisson_em_3_15, config=cfg), sol)

    @pytest.mark.parametrize("name", [p.stem for p in sorted(SWEEP_CONFIG_DIR.glob("var-*.json"))])
    def test_shipped_variance_sweeps_take_no_lanes(self, monkeypatch, name):
        def no_lanes(*args):
            raise AssertionError("a 1-parameter sweep reached an iterative or profile solve")

        monkeypatch.setattr(optimize, "_run_lane", no_lanes)
        monkeypatch.setattr(profile, "solve", no_lanes)
        curve = run_sweep(shipped_experiment(name).spec)
        terminations = [p.solution.termination for p in curve.points]
        assert terminations == ["exact_fit", *["exact_minimum"] * 41, "constraint"]
        assert all(p.converged and p.solution.n_iters == 0 for p in curve.points)


# The five 1-parameter families, the binomial with K = 1 (c = 0) and K = 10.
PINNED_FAMILIES = [("poisson", ()), ("chisq", ()), ("exponential", ()),
                   ("gamma_fixed_shape", (2.0,)), ("binomial_fixed_trials", (1.0,)),
                   ("binomial_fixed_trials", (10.0,))]
PINNED_WEIGHTS = st.one_of(st.sampled_from([0.0, math.inf]), st.floats(1e-3, 1e3))


def clipped_root(model, i, target):
    """theta with r_i(theta) = target clipped to the domain's ends, and whether it was clipped."""
    if i == 0:
        root = target / model.a
    elif target > 0.0:
        root = model.theta_from_r2(target)
    else:  # r_2(0) = 0 and r_2 rises
        root = -math.inf if target < 0.0 else 0.0
    lo = 0.0 if model.domain_closed else OPEN_END
    hi = 1.0 if model.domain_closed else math.inf
    theta = min(max(root, lo), hi)
    return theta, theta != root


@st.composite
def pinned_problems(draw):
    """A 1-parameter model, moments on its image, off it on either side, at 0 or at
    +-1e-300, weights from {0, 1e-3..1e3, inf} and squared or asymmetric losses."""
    name, fixed = draw(st.sampled_from(PINNED_FAMILIES))
    model = make_model(name, fixed)
    top = 1.0 if model.domain_closed else 1e3
    m_hat = []
    for i in range(2):
        on = st.floats(1e-6, top).map(lambda t, i=i: float(model.moments([t])[i]))
        edge = model.moments([top])[i]
        off = st.sampled_from([0.0, 1e-300, -1e-300, -1e-7, -5.0, edge * (1.0 + 1e-9), 3.0 * edge])
        m_hat.append(draw(st.one_of(on, off)))
    em = EmpiricalMoments(np.array(m_hat), np.array([0.0, draw(st.sampled_from([0.0, 2.0]))]), 0)
    kinds = draw(st.sampled_from([(SquaredLoss(), SquaredLoss()),
                                  (AsymmetricSquaredLoss(2.0, 0.5), SquaredLoss()),
                                  (SquaredLoss(), AsymmetricSquaredLoss(0.25, 4.0))]))
    pair = st.tuples(PINNED_WEIGHTS, PINNED_WEIGHTS).filter(
        lambda c: any(c) and not all(map(math.isinf, c)))
    weights = [WeightVector.of(c) for c in draw(st.lists(pair, min_size=1, max_size=6))]
    return model, em, kinds, weights


class TestOneEndConvention:
    """A pinned 1-parameter problem, c_i = inf or sub-loss i alone, is the clipped root of r_i."""

    @settings(max_examples=120, deadline=None, derandomize=True)
    @given(pinned_problems())
    @example((POISSON, EmpiricalMoments(np.array([1e-7, 1e-7]), np.zeros(2), 0),
              default_kinds(2), [WeightVector.of([1.0, np.inf]), WeightVector.of([0.0, 1.0])]))
    def test_pinned_rows_take_the_clipped_root(self, problem):
        model, em, kinds, weights = problem
        solutions = optimize.minimize_many(model, weights, em, kinds)
        for w, sol in zip(weights, solutions):
            assert_same_solution(sol, minimize(model, w, em, kinds))
            c = w.c.tolist()
            fixed = w.infinite_index
            if fixed is None and all(c):
                assert not sol.clamped
                continue
            i = fixed if fixed is not None else next(j for j, x in enumerate(c) if x)
            theta, clipped = clipped_root(model, i, float(em.m_hat[i]))
            assert sol.theta_star[0] == theta
            assert sol.clamped == (fixed is not None and clipped)
            if fixed is None:
                assert sol.termination == ("boundary" if clipped else "exact_fit")
            else:
                assert sol.termination == "constraint"
                alone = WeightVector.of([1.0 if j == i else 0.0 for j in range(2)])
                assert minimize(model, alone, em, kinds).theta_star[0] == theta


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

    @pytest.mark.parametrize("name", sorted(distmodels._PRODUCT))
    def test_two_parameter_grid_is_a_tensor_product(self, monkeypatch, name):
        model = make_model(name)
        theta0 = model.domain_center() + 1.0
        em = analytic_moments(model, theta0, perturb=0.1 * model.moments(theta0))
        box = default_box(model, em)

        def rows_of_theta(thetas):
            raise AssertionError("the oracle evaluated rows of theta")

        monkeypatch.setattr(model, "moments_grid", rows_of_theta)
        monkeypatch.setattr(optimize, "GRID_SLAB", 1000)
        sol = meshgrid_oracle(model, WeightVector.of([1.0, 1.0, 1.0]), em, box=box, width=0.05)
        assert sol.n_evals > 3 * optimize.GRID_SLAB

    @pytest.mark.parametrize("config,points", [("skew-gamma2", 301_702), ("skew-lognormal", 361_201)])
    def test_memory_is_bounded_by_the_slab(self, config, points):
        exp = resolve(json.loads((SWEEP_CONFIG_DIR / f"{config}.json").read_text()))
        box = default_box(exp.model, exp.em)
        tracemalloc.start()
        try:
            sol = meshgrid_oracle(exp.model, exp.spec.weights_at(1.0), exp.em, exp.spec.kinds,
                                  box=box, width=0.01)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sol.n_evals == points
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


def pinned_to_r2(model, target):
    """The solve of r_2 = target under c = (1, inf): the pinned root of the second moment."""
    em = EmpiricalMoments(np.array([1.0, target]), np.zeros(2), 0)
    return minimize(model, WeightVector.of([1.0, np.inf]), em)


class TestClosedFormInverse:
    """The pinned r_2 root, 2 t / (b + sqrt(b^2 + 4 c t)), clipped to the domain's ends."""

    @pytest.mark.parametrize("name,fixed,thetas", QUADRATIC_FAMILIES)
    def test_root_reproduces_the_target(self, name, fixed, thetas):
        model = make_model(name, fixed)
        for theta in thetas:
            target = model.moments([theta])[1]
            sol = pinned_to_r2(model, target)
            root = sol.theta_star[0]
            assert sol.termination == "constraint" and not sol.clamped
            assert abs(sol.r_star[1] - target) <= 4 * np.spacing(target), theta
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
            sol = pinned_to_r2(model, target)
            assert not sol.clamped
            assert abs(sol.r_star[1] - target) <= 4 * np.spacing(target), target

    @pytest.mark.parametrize("name,fixed,_", QUADRATIC_FAMILIES)
    @pytest.mark.parametrize("target", [1e-13, 1e-300])
    def test_tiny_targets_are_met_exactly(self, name, fixed, _, target):
        # Their roots lie above the open end e^-700; a 1e-9 pull on r_1 once
        # clamped them to theta = 1e-6.
        sol = pinned_to_r2(make_model(name, fixed), target)
        assert not sol.clamped and sol.theta_star[0] > OPEN_END
        assert abs(sol.r_star[1] - target) <= 4 * np.spacing(target)

    @pytest.mark.parametrize("name,fixed,_", QUADRATIC_FAMILIES)
    @pytest.mark.parametrize("target", [0.0, -1e-300, -1.0])
    def test_target_below_the_image_lands_on_the_lower_end(self, name, fixed, _, target):
        # The lower end is theta = 0 where the domain is closed (the binomial)
        # and e^-700 where it is open.  Only r_2 = 0 at the closed end is met.
        model = make_model(name, fixed)
        sol = pinned_to_r2(model, target)
        end = 0.0 if name == "binomial_fixed_trials" else OPEN_END
        assert sol.theta_star[0] == end and sol.termination == "constraint"
        assert sol.clamped == (target < 0.0 or end > 0.0)

    def test_binomial_target_at_or_above_the_top_lands_on_the_upper_end(self):
        model = make_model("binomial_fixed_trials", (10.0,))
        top = model.moments([1.0])[1]
        sol = pinned_to_r2(model, top)
        assert sol.theta_star[0] == 1.0 and sol.r_star[1] == top and not sol.clamped
        for target in (top * (1.0 + 1e-9), 1e3):
            sol = pinned_to_r2(model, target)
            assert sol.theta_star[0] == 1.0 and sol.clamped
        sol = pinned_to_r2(model, model.moments([0.99])[1])
        assert not sol.clamped and sol.theta_star[0] == pytest.approx(0.99, rel=1e-15)

    @pytest.mark.parametrize("name,fixed,_", QUADRATIC_FAMILIES)
    def test_constraint_on_the_second_moment_uses_no_bracket(self, monkeypatch, name, fixed, _):
        model = make_model(name, fixed)
        monkeypatch.setattr(distmodels, "newton_in_bracket", None)
        monkeypatch.setattr(profile, "newton_in_bracket", None)
        em = analytic_moments(model, [0.5], perturb=[0.1, 0.0])
        sol = minimize(model, WeightVector.of([1.0, np.inf]), em)
        assert sol.termination == "constraint" and not sol.clamped
        assert abs(sol.r_star[1] - em.m_hat[1]) <= 4 * np.spacing(em.m_hat[1])


class TestNewtonInBracket:
    """distmodels.newton_in_bracket: Newton's method kept inside a bracket, row by row."""

    def test_roots_of_smooth_functions_match_brentq(self):
        cases = [(lambda x: x**3 - 2.0 * x - 5.0, lambda x: 3.0 * x * x - 2.0, 2.0, 3.0),
                 (lambda x: x**3 - 2.0 * x - 5.0, lambda x: 3.0 * x * x - 2.0, -10.0, 10.0),
                 (lambda x: x - math.cos(x), lambda x: 1.0 + math.sin(x), 0.0, 1.0),
                 (lambda x: math.exp(x) - 2.0, math.exp, -30.0, 30.0)]

        def f(live, x):
            pairs = [(cases[k][0](v), cases[k][1](v)) for k, v in zip(live, x.tolist())]
            return tuple(np.array(v) for v in zip(*pairs))

        a, b = (np.array([c[j] for c in cases]) for j in (2, 3))
        (fa, da), (fb, db) = f(range(4), a), f(range(4), b)
        x = distmodels.newton_in_bracket(f, a, b, fa, fb, da, db, 0.0, 4 * np.finfo(float).eps)
        for root, (g, _, lo, hi) in zip(x, cases):
            want = scipy_brentq(g, lo, hi, xtol=1e-15, rtol=8.9e-16)
            assert abs(root - want) <= 4 * np.spacing(want)

    def test_rows_leave_one_by_one(self):
        # Roots of x^2 = 1 and x^2 = 4: the first, from a wide bracket, takes
        # more steps, and the second row leaves before it.
        target, rows = np.array([1.0, 4.0]), []

        def f(live, x):
            rows.append(live.tolist())
            return x * x - target[live], 2.0 * x

        a, b = np.array([0.5, 1.9]), np.array([1e6, 2.1])
        x = distmodels.newton_in_bracket(f, a, b, a * a - target, b * b - target, 2.0 * a,
                                         2.0 * b, 0.0, 4 * np.finfo(float).eps)
        assert rows[0] == [0, 1] and rows[-1] == [0]
        assert x[0] == pytest.approx(1.0, rel=1e-15) and x[1] == pytest.approx(2.0, rel=1e-15)

    def test_a_step_out_of_the_bracket_bisects(self):
        # Newton from x = 0.1 on arctan jumps far outside [-0.1, 10]: bisection keeps it inside.
        seen = []

        def f(live, x):
            seen.extend(x.tolist())
            return np.arctan(x - 3.0), 1.0 / (1.0 + (x - 3.0) ** 2)

        x = distmodels.newton_in_bracket(f, np.array([-0.1]), np.array([10.0]),
                                         np.arctan([-3.1]), np.arctan([7.0]),
                                         1.0 / (1.0 + np.array([3.1]) ** 2),
                                         1.0 / (1.0 + np.array([7.0]) ** 2), 1e-14)
        assert all(-0.1 <= v <= 10.0 for v in seen)
        assert x[0] == pytest.approx(3.0, abs=1e-13)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_a_zero_derivative_bisects_quietly(self):
        # f = x^3 - 1 from [-2, 2] with f' = 0 given at both ends: the step is infinite.
        x = distmodels.newton_in_bracket(lambda live, x: (x**3 - 1.0, 3.0 * x * x),
                                         np.array([-2.0]), np.array([2.0]), [-9.0], [7.0],
                                         [0.0], [0.0], 1e-14)
        assert x[0] == pytest.approx(1.0, abs=1e-13)

    def test_a_root_at_an_end_is_returned_as_it(self):
        def f(live, x):
            raise AssertionError("no evaluation is needed")

        x = distmodels.newton_in_bracket(f, np.array([1.0]), np.array([2.0]), [0.0], [1.0],
                                         [1.0], [1.0], 1e-12)
        assert x[0] == 1.0

    @pytest.mark.parametrize("b", [3.6, 4.0, 6.0, 25.0, 1e3])
    def test_loglogistic_start_site(self, b):
        # The loglogistic start solves tan(c) / c = ratio for c = pi / b.
        model = make_model("loglogistic")
        em = analytic_moments(model, [1.0, b])
        theta = moment_match_init(model, em)
        assert theta == pytest.approx([1.0, b], rel=1e-9)
        ratio = em.m_hat[1] / em.m_hat[0] ** 2
        c = math.pi / distmodels._loglogistic_shape(ratio)
        assert abs(math.tan(c) / c - ratio) <= 4 * np.spacing(ratio)
