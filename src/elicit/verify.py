"""Self-contained invariant suites behind `elicit verify`.

Every suite returns {"suite", "checks": [{name, pass, detail}], "pass"}.
They run on analytic moment vectors so they are fast and deterministic.
"""

from __future__ import annotations

import math

import numpy as np

from . import distmodels, links, losses, sweep, theory

_JACOBIAN_GRIDS = {
    "poisson": lambda: [[t] for t in np.linspace(0.1, 8.0, 20)],
    "chisq": lambda: [[t] for t in np.linspace(0.1, 8.0, 20)],
    "exponential": lambda: [[t] for t in np.linspace(0.1, 8.0, 20)],
    "gamma_fixed_shape": lambda: [[t] for t in np.linspace(0.1, 8.0, 20)],
    "binomial_fixed_trials": lambda: [[t] for t in np.linspace(0.05, 0.95, 20)],
    "lognormal": lambda: [
        [u, v2] for u in np.linspace(-1.0, 1.0, 5) for v2 in np.linspace(0.25, 2.0, 4)
    ],
    "gamma2": lambda: [
        [a, b] for a in np.linspace(0.5, 4.0, 5) for b in np.linspace(0.5, 4.0, 4)
    ],
    "beta2": lambda: [
        [a, b] for a in np.linspace(0.5, 4.0, 5) for b in np.linspace(0.5, 4.0, 4)
    ],
    "loglogistic": lambda: [
        [a, b] for a in np.linspace(0.5, 3.0, 5) for b in np.linspace(4.0, 10.0, 4)
    ],
}

_FIXED = {"gamma_fixed_shape": (2.0,), "binomial_fixed_trials": (10.0,)}


def fd_jacobian(model, theta, rel_step=1e-6):
    """Central finite-difference oracle for the moment Jacobian."""
    theta = np.asarray(theta, dtype=float)
    cols = []
    for j in range(len(theta)):
        h = rel_step * max(1.0, abs(theta[j]))
        up, dn = theta.copy(), theta.copy()
        up[j] += h
        dn[j] -= h
        cols.append((model.moments(up) - model.moments(dn)) / (2.0 * h))
    return np.column_stack(cols)


def _suite_jacobians():
    checks = []
    for name, grid in _JACOBIAN_GRIDS.items():
        model = distmodels.make_model(name, _FIXED.get(name, ()))
        thetas = grid()
        worst = 0.0
        # Both the scalar Jacobian and the batched one that the solver uses.
        for theta, row in zip(thetas, model.jacobian_grid(np.array(thetas, dtype=float))):
            fd = fd_jacobian(model, theta)
            for an in (model.moment_jacobian(theta), row):
                rel = np.abs(fd - an) / np.maximum(np.abs(an), 1e-10)
                worst = max(worst, float(rel.max()))
        checks.append(
            {"name": f"jacobian_fd_{name}", "pass": worst < 1e-5, "detail": {"max_rel_err": worst}}
        )
    return checks


_VARIANCE_IDENTITIES = {
    "poisson": lambda t, fixed: t,
    "chisq": lambda t, fixed: 2.0 * t,
    "exponential": lambda t, fixed: t * t,
    "gamma_fixed_shape": lambda t, fixed: fixed[0] * t * t,
    "binomial_fixed_trials": lambda t, fixed: fixed[0] * t * (1.0 - t),
}


def _suite_identities():
    checks = []
    var_link = links.VARIANCE
    for name, expected in _VARIANCE_IDENTITIES.items():
        fixed = _FIXED.get(name, ())
        model = distmodels.make_model(name, fixed)
        grid = np.linspace(0.05, 0.95, 30) if name == "binomial_fixed_trials" else np.linspace(0.1, 20.0, 30)
        worst = 0.0
        for t in grid:
            got = links.link_value(var_link, model.moments([t]))
            want = expected(t, fixed)
            worst = max(worst, abs(got - want) / max(abs(want), 1e-12))
        checks.append(
            {"name": f"variance_identity_{name}", "pass": worst < 1e-12,
             "detail": {"max_rel_err": worst}}
        )

    model = distmodels.make_model("lognormal")
    worst = 0.0
    for u in np.linspace(-1.0, 2.0, 7):
        for v2 in np.linspace(0.25, 9.0, 12):
            got = links.link_value(links.SKEWNESS, model.moments([u, v2]))
            want, _, _ = theory.lognormal_skew_approx(v2)
            worst = max(worst, abs(got - want) / abs(want))
    checks.append(
        {"name": "lognormal_skewness_identity", "pass": worst < 1e-9,
         "detail": {"max_rel_err": worst}}
    )

    _, approx9, gap9 = theory.lognormal_skew_approx(9.0)
    checks.append(
        {"name": "lognormal_skewness_growth_rate", "pass": gap9 < 0.01,
         "detail": {"rel_gap_at_v2_9": gap9, "approx": approx9}}
    )
    return checks


def _suite_logmap():
    worst = 0.0
    for u in np.linspace(-5.0, 5.0, 20):
        for v2 in np.linspace(0.0, 9.0, 20):
            _, resid = theory.lognormal_log_map([u, v2])
            worst = max(worst, resid)
    return [{"name": "log_coordinates_hyperplane", "pass": worst < 1e-9,
             "detail": {"max_residual": worst}}]


def _suite_sampling():
    checks = []
    t = distmodels.SamplingTemplate("poisson", (3.0,), 100_000, seed=12345)
    a = distmodels.sample(t)
    b = distmodels.sample(t)
    checks.append(
        {"name": "sample_determinism", "pass": a.tobytes() == b.tobytes(), "detail": {}}
    )
    em = losses.empirical_moments(a, 2)
    se = np.sqrt(em.v_hat / em.n)
    exact = np.array([3.0, 12.0])
    z = np.abs(em.m_hat - exact) / se
    checks.append(
        {"name": "sample_moments_within_3_se", "pass": bool(np.all(z < 3.0)),
         "detail": {"m_hat": em.m_hat.tolist(), "z_scores": z.tolist()}}
    )
    return checks


def analytic_variance_spec(model_name, fixed, theta0, perturb, index=0,
                           grid_points=15) -> sweep.SweepSpec:
    """A variance sweep of c_{index + 1} on the exact moments of theta0 plus
    ``perturb``, with unit fixed and base weights.  Every point of such a
    1-parameter sweep is solved in closed form, so it takes the default
    optimizer settings."""
    model = distmodels.make_model(model_name, fixed)
    return sweep.SweepSpec(
        model=model,
        link=links.VARIANCE,
        em=losses.analytic_moments(model, theta0, perturb=perturb),
        index=index,
        fixed_c=np.ones(2),
        k=np.ones(2),
        grid=sweep.default_grid(grid_points),
    )


def _suite_lemma():
    spec = analytic_variance_spec("poisson", (), [3.0], [0.0, 3.0])
    curve = sweep.run_sweep(spec)
    vals = [p.solution.sub_losses[spec.index] for p in curve.converged_points()]
    ok = all(
        vals[i + 1] <= vals[i] + 1e-8 + 1e-6 * abs(vals[i]) for i in range(len(vals) - 1)
    )
    return [{"name": "weight_increase_reduces_own_sub_loss", "pass": ok,
             "detail": {"sub_loss_head": vals[:3], "sub_loss_tail": vals[-3:]}}]


def _suite_containment():
    checks = []
    cases = [
        ("poisson", (), [3.0], [0.0, 3.0]),
        ("binomial_fixed_trials", (10.0,), [0.1], [0.0, 0.2]),
        ("binomial_fixed_trials", (10.0,), [0.9], [0.0, 0.6]),
    ]
    for name, fixed, theta0, perturb in cases:
        curve = sweep.run_sweep(analytic_variance_spec(name, fixed, theta0, perturb))
        res = theory.check_condition_A(curve, curve.spec.em.m_hat)
        checks.append(
            {"name": f"containment_{name}_theta{theta0[0]:g}", "pass": res.passed,
             "detail": res.details}
        )
    return checks


def _suite_agreement():
    checks = []
    cases = [
        ("poisson", (), [3.0], [0.0, 3.0]),
        ("chisq", (), [4.0], [0.0, 5.0]),
        ("exponential", (), [1.0], [0.0, 0.5]),
        ("gamma_fixed_shape", (2.0,), [2.0], [0.0, 4.0]),
        ("binomial_fixed_trials", (10.0,), [0.1], [0.0, 0.2]),
        ("binomial_fixed_trials", (10.0,), [0.9], [0.0, 0.6]),
    ]
    for name, fixed, theta0, perturb in cases:
        spec = analytic_variance_spec(name, fixed, theta0, perturb)
        curve = sweep.run_sweep(spec)
        r1 = [p.solution.r_star[0] for p in curve.converged_points()]
        lo, hi = min(r1), max(r1)
        if hi - lo < 1e-9:
            hi = lo + 1e-6
        cls = theory.classify_2d_case(spec.model, spec.link, (lo, hi), n_grid=101)
        ok = cls.case != "mixed" and curve.best is not None and (
            theory.predict_best_weight(cls.case) == curve.best.kind
        )
        checks.append(
            {"name": f"agreement_{name}_theta{theta0[0]:g}", "pass": ok,
             "detail": {"case": cls.case,
                        "best": curve.best.kind if curve.best else None}}
        )
    return checks


SUITES = {
    "jacobians": _suite_jacobians,
    "identities": _suite_identities,
    "logmap": _suite_logmap,
    "sampling": _suite_sampling,
    "lemma": _suite_lemma,
    "containment": _suite_containment,
    "agreement": _suite_agreement,
}

SUITE_NAMES = tuple(SUITES)


def run_suite(name: str) -> dict:
    if name == "all":
        checks = []
        for fn in SUITES.values():
            checks.extend(fn())
    else:
        checks = SUITES[name]()
    return {"suite": name, "checks": checks, "pass": all(c["pass"] for c in checks)}
