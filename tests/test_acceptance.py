"""Acceptance gate: one test per shipped criterion, each printing a verdict line.

Run with `pytest tests/test_acceptance.py -v` (or `-s` to see the verdict
lines inline).  Tolerances are pinned here and nowhere else.
"""

import json
import math
import sys
import time

import numpy as np
import pytest

from elicit import analytic_moments, link_value, make_link, make_model, minimize
from elicit.cli import main
from elicit.distmodels import SamplingTemplate, sample
from elicit.losses import WeightVector, empirical_moments, renormalize_base
from elicit.optimize import OptimizerConfig, default_box, meshgrid_oracle, moment_match_init
from elicit.sweep import SweepSpec, run_sweep
from elicit.theory import (
    check_condition_A,
    classify_2d_case,
    lognormal_log_map,
    lognormal_skew_approx,
    predict_best_weight,
)

from conftest import make_variance_spec


def verdict(num, passed, description):
    line = f"criterion {num:02d} {'PASS' if passed else 'FAIL'}: {description}"
    print(line, file=sys.__stdout__, flush=True)
    assert passed, line


def test_criterion_01_closed_form_sweep_endpoints():
    t0 = time.perf_counter()
    spec = make_variance_spec("poisson", (), [3.0], [0.0, 3.0], grid_points=41)
    curve = run_sweep(spec)
    elapsed = time.perf_counter() - t0

    gamma_zero = curve.points[0].gamma
    gamma_inf = curve.points[-1].gamma
    root = (-1.0 + math.sqrt(61.0)) / 2.0
    case = classify_2d_case(spec.model, spec.link, (3.0, root)).case
    ok = (
        abs(gamma_zero - root) < 1e-6
        and abs(gamma_inf - 3.0) < 1e-6
        and curve.monotonicity.direction == "decreasing"
        and curve.best.kind == "zero"
        and curve.best.kind == predict_best_weight(case)
        and elapsed < 10.0
    )
    verdict(1, ok, "closed-form endpoints, decreasing verdict, best weight zero "
                   f"({elapsed:.1f}s)")


def test_criterion_02_case_classifications():
    t0 = time.perf_counter()
    link = make_link("variance")
    ok = True
    for name, fixed in [("poisson", ()), ("chisq", ()), ("exponential", ()),
                        ("gamma_fixed_shape", (2.0,))]:
        ok &= classify_2d_case(make_model(name, fixed), link, (0.5, 20.0)).case == "b"
    binom = classify_2d_case(make_model("binomial_fixed_trials", (10.0,)), link, (0.5, 9.5))
    ok &= binom.case == "mixed"
    ok &= len(binom.boundaries) == 1 and abs(binom.boundaries[0] - 5.0) <= 0.1
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 5.0
    verdict(2, ok, f"slope-sign cases: four case-b families, binomial mixed at "
                   f"r1 = {binom.boundaries[0]:.3f} ({elapsed:.1f}s)")


def test_criterion_03_opposite_monotonicity_directions():
    # The paper's B(K, theta) exception on both sub-losses: sweeping c_2
    # reverses the directions that sweeping c_1 gives.
    t0 = time.perf_counter()
    ok = True
    found = []
    for index, want in ((0, ("decreasing", "increasing")), (1, ("increasing", "decreasing"))):
        lo = run_sweep(make_variance_spec("binomial_fixed_trials", (10.0,), [0.1], [0.0, 0.2],
                                          index=index, grid_points=41))
        hi = run_sweep(make_variance_spec("binomial_fixed_trials", (10.0,), [0.9], [0.0, 0.6],
                                          index=index, grid_points=41))
        got = (lo.monotonicity.direction, hi.monotonicity.direction)
        ok &= got == want
        found.append(f"c_{index + 1}: theta0=0.1 -> {got[0]}, theta0=0.9 -> {got[1]}")
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 30.0
    verdict(3, ok, f"same-side perturbations, opposite directions: {'; '.join(found)} "
                   f"({elapsed:.1f}s)")


def test_criterion_04_sub_loss_monotone_across_shipped_sweeps(shipped_sweeps):
    ok = len(shipped_sweeps) >= 8
    worst = -math.inf
    for name, (exp, curve) in shipped_sweeps.items():
        i = exp.spec.index
        vals = [p.solution.sub_losses[i] for p in curve.converged_points()]
        for a, b in zip(vals, vals[1:]):
            worst = max(worst, b - a - 1e-8 - 1e-6 * abs(a))
            ok &= b <= a + 1e-8 + 1e-6 * abs(a)
    verdict(4, ok, f"swept sub-loss non-increasing over {len(shipped_sweeps)} sweeps "
                   f"(worst margin {worst:.2e})")


def test_criterion_05_containment_on_one_param_sweeps(shipped_sweeps):
    names = []
    ok = True
    for name, (exp, curve) in shipped_sweeps.items():
        if exp.model.theta_dim != 1:
            continue
        names.append(name)
        ok &= check_condition_A(curve, exp.em.m_hat).passed
    ok &= len(names) >= 5
    verdict(5, ok, f"one-orthant containment on {len(names)} one-parameter sweeps")


def test_criterion_06_oracle_dominance(shipped_sweeps):
    checked = 0
    ok = True
    for name, (exp, curve) in shipped_sweeps.items():
        if exp.em.moment_order != 2:
            continue
        checked += 1
        weights = exp.spec.weights_at(1.0)
        grid = meshgrid_oracle(exp.model, weights, exp.em, exp.spec.kinds,
                               box=default_box(exp.model, exp.em), width=0.01)
        opt = minimize(exp.model, weights, exp.em, exp.spec.kinds, exp.spec.optimizer)
        ok &= opt.loss <= grid.loss + 1e-9 * (1.0 + abs(grid.loss))
    ok &= checked >= 5
    verdict(6, ok, f"optimizer dominates the width-0.01 meshgrid on {checked} "
                   "two-moment experiments")


def test_criterion_07_lognormal_identities():
    model = make_model("lognormal")
    link = make_link("skewness")
    worst_resid = max(
        lognormal_log_map([u, v2])[1]
        for u in np.linspace(-5.0, 5.0, 20)
        for v2 in np.linspace(0.0, 9.0, 20)
    )
    worst_rel = 0.0
    for u in (-1.0, 0.0, 2.0):
        for v2 in np.linspace(0.25, 9.0, 15):
            got = link_value(link, model.moments([u, v2]))
            want = (math.exp(v2) + 2.0) * math.sqrt(math.exp(v2) - 1.0)
            worst_rel = max(worst_rel, abs(got - want) / want)
    _, _, gap9 = lognormal_skew_approx(9.0)
    ok = worst_resid < 1e-9 and worst_rel < 1e-9 and gap9 < 0.01
    verdict(7, ok, f"log-map residual {worst_resid:.1e}, skew identity {worst_rel:.1e}, "
                   f"growth-rate gap {gap9:.2%} at v2=9")


def test_criterion_08_start_sensitivity_and_renormalized_stability():
    t0 = time.perf_counter()
    model = make_model("lognormal")
    em = empirical_moments(
        sample(SamplingTemplate("lognormal", (0.0, 9.0), 1000, seed=17)), 3
    )
    link = make_link("skewness")

    # Unit base weights + plain gradient descent: the optimum depends on the start.
    w_ones = WeightVector.of([1.0, 1.0, 1.0])
    gammas = []
    for start in ((0.0, 0.0), (0.0, 3.0)):
        cfg = OptimizerConfig(method="gradient_descent", multistart=0, init=start,
                              max_iters=20000)
        sol = minimize(model, w_ones, em, config=cfg)
        gammas.append(link_value(link, sol.r_star))
    gap = abs(gammas[0] - gammas[1]) / max(abs(g) for g in gammas)

    # Squared-moment base weights + simplex search: every start agrees.
    w_renorm = WeightVector.of([1.0, 1.0, 1.0], renormalize_base(em))
    init0 = moment_match_init(model, em)
    offsets = [(0.0, 0.0), (1.0, 0.5), (-1.0, 0.5), (0.5, -0.5), (-0.5, 1.0)]
    losses = []
    for du, dv in offsets:
        start = (init0[0] + du, max(init0[1] + dv, 1e-3))
        cfg = OptimizerConfig(method="nelder_mead", multistart=0, init=start)
        losses.append(minimize(model, w_renorm, em, config=cfg).loss)
    spread = (max(losses) - min(losses)) / abs(min(losses))
    elapsed = time.perf_counter() - t0
    ok = gap > 0.5 and spread < 1e-6 and elapsed < 120.0
    verdict(8, ok, f"gradient-descent gamma gap {gap:.0%}; renormalized simplex "
                   f"loss spread {spread:.1e} over 5 starts ({elapsed:.1f}s)")


def test_criterion_09_renormalization_equivalence(poisson_em_3_15):
    model = make_model("poisson")
    c = np.array([3.0, 7.0])
    k = np.array([2.0, 0.25])
    a = minimize(model, WeightVector(c=c, k=k), poisson_em_3_15)
    b = minimize(model, WeightVector(c=c / k, k=np.ones(2)), poisson_em_3_15)
    diff = float(np.max(np.abs(a.theta_star - b.theta_star)))
    verdict(9, diff <= 1e-8, f"minimizers with (c, k) and (c/k, ones) differ by {diff:.1e}")


def test_criterion_10_exact_fit_invariance():
    ok = True
    details = []
    for name, fixed, theta0 in [("poisson", (), [3.0]), ("lognormal", (), [0.2, 1.5])]:
        model = make_model(name, fixed)
        link = make_link("variance" if model.moment_order == 2 else "skewness")
        em = analytic_moments(model, theta0)
        M = model.moment_order
        spec = SweepSpec(model=model, link=link, em=em, index=0,
                         fixed_c=np.ones(M), k=np.ones(M),
                         optimizer=OptimizerConfig(multistart=2))
        curve = run_sweep(spec)
        gammas = np.array([p.gamma for p in curve.converged_points()])
        span = float(gammas.max() - gammas.min())
        details.append(f"{name} span {span:.1e}")
        ok &= span < 1e-8
    verdict(10, ok, "on-curve moments give a constant curve (" + "; ".join(details) + ")")


def test_criterion_11_run_determinism(tmp_path):
    cfg = {
        "model": {"name": "poisson", "fixed_params": []},
        "template": {"name": "normal", "params": [10.0, 10.0], "n_samples": 1000, "seed": 17},
        "link": "variance",
        "sweep": {"index": 1, "grid": {"num_points": 11}},
        "optimizer": {"multistart": 2},
        "output": str(tmp_path / "out"),
    }
    cfg_path = tmp_path / "exp.json"
    cfg_path.write_text(json.dumps(cfg))
    assert main(["run", str(cfg_path)]) == 0
    first = (tmp_path / "out" / "curve.csv").read_bytes()
    assert main(["run", str(cfg_path)]) == 0
    second = (tmp_path / "out" / "curve.csv").read_bytes()
    verdict(11, first == second, "repeated `elicit run` produced byte-identical curve.csv")


def test_criterion_12_sampling_statistics():
    t0 = time.perf_counter()
    x = sample(SamplingTemplate("poisson", (3.0,), 100_000, seed=123))
    em = empirical_moments(x, 2)
    # Exact raw moments of a unit-rate-3 count variable: (3, 3 + 9) = (3, 12).
    exact = np.array([3.0, 12.0])
    se = np.sqrt(em.v_hat / em.n)
    z = np.abs(em.m_hat - exact) / se
    elapsed = time.perf_counter() - t0
    ok = bool(np.all(z < 3.0)) and elapsed < 5.0
    verdict(12, ok, f"1e5-sample moments within 3 standard errors "
                    f"(z = {z[0]:.2f}, {z[1]:.2f}; {elapsed:.1f}s)")
