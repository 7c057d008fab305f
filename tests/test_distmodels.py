import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import special, stats

from conftest import load_shipped_configs
from elicit import analytic_moments, distmodels, make_link, make_model, profile
from elicit.config import resolve
from elicit.distmodels import (
    LOGLOGISTIC_SHAPE_FLOOR,
    MODEL_NAMES,
    TEMPLATE_NAMES,
    TEMPLATE_PARAMS,
    SamplingTemplate,
    _ndtri,
    _rising_inverse,
    _substream,
    _uniform_open,
    sample,
)
from elicit.errors import DomainError, OutOfImage
from elicit.links import link_value
from elicit.losses import EmpiricalMoments, default_kinds
from elicit.optimize import default_box, moment_match_init
from elicit.verify import _FIXED, _JACOBIAN_GRIDS, _VARIANCE_IDENTITIES, fd_jacobian

ONE_PARAM = {
    "poisson": (),
    "chisq": (),
    "exponential": (),
    "gamma_fixed_shape": (2.0,),
    "binomial_fixed_trials": (10.0,),
}

TWO_PARAM = {
    "lognormal": (),
    "gamma2": (),
    "beta2": (),
    "loglogistic": (),
}

INTERIOR_GRIDS = {name: grid() for name, grid in _JACOBIAN_GRIDS.items()}


class TestMoments:
    def test_poisson_theta_2(self):
        assert np.allclose(make_model("poisson").moments([2.0]), [2.0, 6.0], atol=0)

    def test_lognormal_point_mass(self):
        assert np.allclose(make_model("lognormal").moments([0.0, 0.0]), [1, 1, 1], atol=0)

    def test_lognormal_standard(self):
        expected = [math.exp(0.5), math.exp(2.0), math.exp(4.5)]
        assert np.allclose(make_model("lognormal").moments([0.0, 1.0]), expected, rtol=1e-15)

    def test_binomial_k10(self):
        r = make_model("binomial_fixed_trials", (10.0,)).moments([0.1])
        assert np.allclose(r, [1.0, 1.9], rtol=1e-15)
        # variance through the link recovers K*p*(1-p)
        assert link_value(make_link("variance"), r) == pytest.approx(0.9, rel=1e-12)

    def test_domain_violation_names_bound(self):
        with pytest.raises(DomainError, match=r"theta\[0\].*> 0"):
            make_model("poisson").moments([-1.0])
        with pytest.raises(DomainError, match=r"theta\[1\].*3.5"):
            make_model("loglogistic").moments([1.0, 3.4])

    def test_binomial_closed_bounds(self):
        m = make_model("binomial_fixed_trials", (10.0,))
        assert np.allclose(m.moments([0.0]), [0.0, 0.0])
        assert np.allclose(m.moments([1.0]), [10.0, 100.0])
        with pytest.raises(DomainError):
            m.moments([1.0000001])


class TestFixedParams:
    @pytest.mark.parametrize("name", MODEL_NAMES)
    def test_wrong_count_is_rejected(self, name):
        right = ONE_PARAM.get(name, ())
        assert make_model(name, right).fixed_params == right
        for count in {0, 1, 2} - {len(right)}:
            with pytest.raises(DomainError, match=f"{name}: fixed_params must be"):
                make_model(name, (3.0,) * count)

    @pytest.mark.parametrize("name,bad,message", [
        ("gamma_fixed_shape", (0.0, -1.0, math.inf, math.nan),
         "gamma_fixed_shape: fixed_params must be (K,) with K > 0"),
        ("binomial_fixed_trials", (0.5, 0.0, math.inf, math.nan),
         "binomial_fixed_trials: fixed_params must be (K,) with K >= 1"),
    ])
    def test_k_out_of_range_is_rejected(self, name, bad, message):
        # K = inf once gave a binomial whose classify verdict was "case b".
        for K in bad:
            with pytest.raises(DomainError) as info:
                make_model(name, (K,))
            assert str(info.value) == message


class TestJacobians:
    def test_poisson_column(self):
        assert np.allclose(make_model("poisson").moment_jacobian([2.0]), [[1.0], [5.0]])

    def test_exponential_column(self):
        assert np.allclose(make_model("exponential").moment_jacobian([1.0]), [[1.0], [4.0]])

    def test_lognormal_u_column(self):
        m = make_model("lognormal")
        r = m.moments([0.0, 1.0])
        jac = m.moment_jacobian([0.0, 1.0])
        assert np.allclose(jac[:, 0], [1 * r[0], 2 * r[1], 3 * r[2]], rtol=1e-15)

    def test_lognormal_overflows_to_inf_like_moments(self):
        m = make_model("lognormal")
        with np.errstate(over="ignore"):
            r = m.moments([300.0, 1.0])
            jac = m.moment_jacobian([300.0, 1.0])
            batch = m.jacobian_grid(np.array([[300.0, 1.0], [0.0, 1.0]]))
        assert np.isfinite(r[:2]).all() and np.isinf(r[2])
        assert np.isfinite(jac[:2]).all() and np.isinf(jac[2]).all()
        assert np.allclose(jac[:2, 0], [r[0], 2 * r[1]], rtol=1e-15)
        assert np.array_equal(batch[0], jac)
        assert np.isfinite(batch[1]).all()

    @pytest.mark.parametrize("name", MODEL_NAMES)
    def test_batch_equals_moment_jacobian_row_by_row(self, name):
        model = make_model(name, {**ONE_PARAM, **TWO_PARAM}[name])
        thetas = np.array(INTERIOR_GRIDS[name], dtype=float)
        batch = model.jacobian_grid(thetas)
        assert batch.shape == (len(thetas), model.moment_order, model.theta_dim)
        for theta, row in zip(thetas, batch):
            assert np.array_equal(row, model.moment_jacobian(theta)), (name, theta)

    @pytest.mark.parametrize("name", MODEL_NAMES)
    def test_matches_finite_differences(self, name):
        fixed = {**ONE_PARAM, **TWO_PARAM}[name]
        model = make_model(name, fixed)
        batch = model.jacobian_grid(np.array(INTERIOR_GRIDS[name], dtype=float))
        for theta, row in zip(INTERIOR_GRIDS[name], batch):
            fd = fd_jacobian(model, theta)
            for an in (model.moment_jacobian(theta), row):
                rel = np.abs(fd - an) / np.maximum(np.abs(an), 1e-10)
                assert rel.max() < 1e-5, f"{name} at theta={theta}: rel err {rel.max():.2e}"


def outside_by_old_rule(model, theta):
    """The per-coordinate domain rule the vectorized mask replaced: True when theta is outside."""
    for j, (lo, hi) in enumerate(model.domain):
        lo_closed, hi_closed = model.domain_closed[j] if model.domain_closed else (False, False)
        x = theta[j]
        if not np.isfinite(x):
            return True
        if lo is not None and (x < lo if lo_closed else x <= lo):
            return True
        if hi is not None and (x > hi if hi_closed else x >= hi):
            return True
    return False


def points_around_bounds(model):
    """For every bound: points on it, just inside and just outside, other coordinates interior."""
    center = model.domain_center()
    points = []
    for j, bounds in enumerate(model.domain):
        for bound in bounds:
            if bound is None:
                continue
            for x in (bound, np.nextafter(bound, -np.inf), np.nextafter(bound, np.inf),
                      bound - 1e-3, bound + 1e-3, np.nan, np.inf):
                theta = center.copy()
                theta[j] = x
                points.append(theta)
    return np.array(points)


class TestDomainMask:
    @pytest.mark.parametrize("name", MODEL_NAMES)
    def test_agrees_with_the_per_coordinate_rule(self, name):
        model = make_model(name, {**ONE_PARAM, **TWO_PARAM}[name])
        points = points_around_bounds(model)
        mask = model.in_domain(points)
        for theta, inside in zip(points, mask):
            assert inside == (not outside_by_old_rule(model, theta)), (name, theta)
            if inside:
                model.moments(theta)
            else:
                with pytest.raises(DomainError):
                    model.moments(theta)
                with pytest.raises(DomainError):
                    model.moment_jacobian(theta)

    def test_covers_closed_and_open_bounds(self):
        # binomial is closed at both ends and lognormal's v2 at 0: the bound itself is inside.
        assert make_model("binomial_fixed_trials", (10.0,)).in_domain([[0.0], [1.0]]).all()
        assert make_model("lognormal").in_domain([[0.0, 0.0]]).all()
        assert not make_model("poisson").in_domain([[0.0]]).any()
        assert not make_model("loglogistic").in_domain([[1.0, 3.5]]).any()


# Targets of each held moment and values of the profile's phi along it.
ELIMINATION_CASES = {
    "lognormal": ([0.5, 5.0, 50.0], np.linspace(0.01, 5.0, 25)),
    "gamma2": ([0.3, 4.0, 200.0], np.geomspace(0.05, 50.0, 25)),
    "beta2": ([1e-6, 0.02, 0.3, 0.7, 1.0 - 1e-9], np.geomspace(0.01, 100.0, 25)),
    "loglogistic": ([0.3, 4.0, 200.0], np.linspace(3.6, 40.0, 25)),
}


def held_curve(model, i, target, phi):
    """theta at each phi on the curve r_{i+1} = target, as the profile's pinned rows place it."""
    em = EmpiricalMoments(np.full(3, float(target)), np.zeros(3), 0)
    rows = profile._Rows(model, em, default_kinds(3), np.zeros((1, 3)), np.array([i]))
    phi = np.asarray(phi, dtype=float)
    return rows.point(np.zeros(len(phi), dtype=int), phi)[3]


def phi_of(model, thetas):
    """The profile's phi at each theta: the shape on a scale family, a + b on beta2."""
    return thetas[:, 1 - model.t] if model.scale else thetas.sum(axis=1)


class TestElimination:
    """The held moment's curve, where one moment can be held, and beta2's inverse of P."""

    @pytest.mark.parametrize("name", sorted(TWO_PARAM))
    @pytest.mark.parametrize("i", [0, 1, 2])
    def test_build_meets_the_constraint(self, name, i):
        model = make_model(name)
        targets, free = ELIMINATION_CASES[name]
        for target in targets:
            thetas = held_curve(model, i, target, free)
            assert thetas.shape == (len(free), 2)
            np.testing.assert_allclose(phi_of(model, thetas), free, rtol=1e-15, atol=0.0)
            assert model.in_domain(thetas).all()
            np.testing.assert_allclose(model.moments_grid(thetas)[:, i], target,
                                       rtol=1e-14, atol=0.0, err_msg=f"{name} {target}")

    def test_beta2_third_moment_root_is_polished(self):
        # Where t << 1 the closed-form root of (t+1)^3 - (t+1) = D loses digits
        # to the shift by 1; the Newton steps restore them.  Every term of
        # t^[k] is positive, so its residual measures the relative error of t.
        D = np.geomspace(1e-12, 1e12, 49)
        t = _rising_inverse(np.column_stack([D, D, D]))
        np.testing.assert_allclose(t[:, 1] * (t[:, 1] + 1.0), D, rtol=1e-14, atol=0.0)
        np.testing.assert_allclose(t[:, 2] * (t[:, 2] + 1.0) * (t[:, 2] + 2.0), D, rtol=1e-14, atol=0.0)

    @pytest.mark.parametrize("name, target", [("lognormal", 0.0), ("gamma2", -1.0),
                                              ("beta2", 1.0), ("loglogistic", 0.0)])
    def test_unreachable_target_raises(self, name, target):
        with pytest.raises(OutOfImage):
            make_model(name).check_image(1, target)


# The per-family moment maps and Jacobians that the product-form table
# replaced, verbatim, as the reference for every row of the table.
def _rising_reference(a, k):
    out = 1.0
    for j in range(k):
        out = out * (a + j)
    return out


class LogNormalReference:
    def _raw_moments(self, cols):
        u, v2 = cols
        return [np.exp(i * u + 0.5 * i * i * v2) for i in (1, 2, 3)]

    def _raw_jacobian(self, cols):
        u, v2 = cols
        rows = []
        for i in (1, 2, 3):
            # np.exp overflows to inf, as in _raw_moments.
            r = np.exp(i * u + 0.5 * i * i * v2)
            rows.append([i * r, 0.5 * i * i * r])
        return rows


class Gamma2Reference:
    def _raw_moments(self, cols):
        a, b = cols
        return [b**k * _rising_reference(a, k) for k in (1, 2, 3)]

    def _raw_jacobian(self, cols):
        a, b = cols
        rows = []
        for k in (1, 2, 3):
            rising = _rising_reference(a, k)
            d_a = b**k * rising * sum(1.0 / (a + j) for j in range(k))
            d_b = k * b ** (k - 1) * rising
            rows.append([d_a, d_b])
        return rows


class Beta2Reference:
    def _raw_moments(self, cols):
        a, b = cols
        s = a + b
        out = []
        acc = None
        for j in range(3):
            term = (a + j) / (s + j)
            acc = term if acc is None else acc * term
            out.append(acc)
        return out

    def _raw_jacobian(self, cols):
        a, b = cols
        s = a + b
        rows = []
        for k, rk in zip((1, 2, 3), self._raw_moments(cols)):
            d_a = rk * sum(1.0 / (a + j) - 1.0 / (s + j) for j in range(k))
            d_b = rk * sum(-1.0 / (s + j) for j in range(k))
            rows.append([d_a, d_b])
        return rows


class LogLogisticReference:
    def _raw_moments(self, cols):
        a, b = cols
        out = []
        for k in (1, 2, 3):
            c = k * np.pi / b
            out.append(a**k * c / np.sin(c))
        return out

    def _raw_jacobian(self, cols):
        a, b = cols
        rows = []
        for k in (1, 2, 3):
            c = k * np.pi / b
            sin_c = np.sin(c)
            # dg/dc = (sin c - c cos c) / sin^2 c;  dc/db = -k*pi/b^2
            dg_dc = (sin_c - c * np.cos(c)) / sin_c**2
            d_a = k * a ** (k - 1) * (c / sin_c)
            d_b = a**k * dg_dc * (-k * np.pi / (b * b))
            rows.append([d_a, d_b])
        return rows


REFERENCES = {"lognormal": LogNormalReference(), "gamma2": Gamma2Reference(),
              "beta2": Beta2Reference(), "loglogistic": LogLogisticReference()}


class TestProductTable:
    @staticmethod
    def assert_rows_match(name, thetas):
        model, reference = make_model(name), REFERENCES[name]
        thetas = np.asarray(thetas, dtype=float)
        cols = [thetas[:, 0], thetas[:, 1]]
        want_r = np.column_stack(reference._raw_moments(cols))
        want_j = np.array([[np.broadcast_to(e, len(thetas)) for e in row]
                           for row in reference._raw_jacobian(cols)]).transpose(2, 0, 1)
        np.testing.assert_allclose(model.moments_grid(thetas), want_r, rtol=1e-13, atol=0.0)
        np.testing.assert_allclose(model.jacobian_grid(thetas), want_j, rtol=1e-13, atol=0.0)

    @pytest.mark.parametrize("name", sorted(TWO_PARAM))
    def test_interior_grids(self, name):
        # INTERIOR_GRIDS holds the points of verify._JACOBIAN_GRIDS.
        self.assert_rows_match(name, INTERIOR_GRIDS[name])

    def test_shipped_optima(self, shipped_sweeps):
        seen = set()
        for exp, curve in shipped_sweeps.values():
            if exp.model.name in TWO_PARAM:
                seen.add(exp.model.name)
                self.assert_rows_match(exp.model.name,
                                       [p.solution.theta_star for p in curve.points])
        assert seen == set(TWO_PARAM)


def family_theta(name, s, w):
    """theta of one family from two numbers in [0, 1].

    lognormal takes v2 log-uniform on [1e-3, 600] and u in a window of width
    10 below min(5, the largest u at which r_3 stays finite).  The others are
    log-uniform on ranges where the moment-matching start is well conditioned:
    its sample variance m_2 - m_1^2 loses about log10(m_1^2 / var) digits.
    """
    def spread(lo, hi, x):
        return lo * (hi / lo) ** x

    if name == "lognormal":
        v2 = spread(1e-3, 600.0, s)
        top = min(5.0, min((700.0 - 0.5 * k * k * v2) / k for k in (1, 2, 3)))
        return [top - 10.0 * w, v2]
    ranges = {"gamma2": ((1e-2, 1e3), (1e-3, 1e3)), "beta2": ((0.05, 50.0), (0.05, 50.0)),
              "loglogistic": ((1e-2, 1e2), (3.6, 1e3))}[name]
    return [spread(*ranges[0], s), spread(*ranges[1], w)]


UNIT = st.floats(0.0, 1.0)


SHIPPED = load_shipped_configs()


class TestMesh:
    """``moments_mesh`` gives the bits of ``moments_grid`` on the explicit meshgrid."""

    @staticmethod
    def assert_mesh_is_grid(model, box, width):
        axes = [lo + width * np.arange(math.floor((hi - lo) / width + 1e-12) + 1) for lo, hi in box]
        thetas = np.column_stack([g.ravel() for g in np.meshgrid(*axes, indexing="ij")])
        with np.errstate(over="ignore", invalid="ignore"):
            mesh, grid = model.moments_mesh(axes), model.moments_grid(thetas)
        assert mesh.shape == (*map(len, axes), model.moment_order)
        assert np.array_equal(mesh.reshape(grid.shape), grid, equal_nan=True)
        return mesh

    def test_shipped_configs_hold_every_model(self):
        assert {cfg["model"]["name"] for _, cfg in SHIPPED} == set(MODEL_NAMES)

    @pytest.mark.parametrize("cfg", [cfg for _, cfg in SHIPPED], ids=[name for name, _ in SHIPPED])
    def test_shipped_default_boxes(self, cfg):
        exp = resolve(cfg)
        self.assert_mesh_is_grid(exp.model, default_box(exp.model, exp.em), 0.05)

    def test_lognormal_box_that_overflows(self):
        mesh = self.assert_mesh_is_grid(make_model("lognormal"), [(800.0, 801.0), (0.5, 1.5)], 0.05)
        assert np.isinf(mesh).any()

    def test_loglogistic_box_at_the_shape_floor(self):
        box = [(0.5, 3.0), (LOGLOGISTIC_SHAPE_FLOOR, LOGLOGISTIC_SHAPE_FLOOR + 2.0)]
        self.assert_mesh_is_grid(make_model("loglogistic"), box, 0.05)


class TestTableDerivations:
    @pytest.mark.parametrize("name", sorted(TWO_PARAM))
    @pytest.mark.parametrize("i", [0, 1, 2])
    @settings(max_examples=30)
    @given(s=UNIT, w=UNIT)
    @example(s=1.0, w=0.0)
    @example(s=1.0, w=1.0)
    def test_build_meets_the_constraint(self, name, i, s, w):
        model = make_model(name)
        theta = np.array([family_theta(name, s, w)])
        target = float(model.moments_grid(theta)[0, i])
        built = held_curve(model, i, target, phi_of(model, theta))
        assert phi_of(model, built) == pytest.approx(phi_of(model, theta), rel=1e-15, abs=0.0)
        assert model.in_domain(built).all()
        assert abs(model.moments_grid(built)[0, i] - target) <= 1e-14 * target, (theta, built)

    @pytest.mark.parametrize("name", sorted(TWO_PARAM))
    @settings(max_examples=60)
    @given(s=UNIT, w=UNIT)
    @example(s=1.0, w=0.0)
    @example(s=1.0, w=1.0)
    def test_moment_matching_start_recovers_theta(self, name, s, w):
        model = make_model(name)
        theta = np.array(family_theta(name, s, w))
        start = moment_match_init(model, analytic_moments(model, theta))
        assert np.abs(start - theta).max() <= 1e-9 * np.abs(theta).max(), (theta, start)


def curve_value(model, r1):
    """R(r1) = r_2 at the theta with r_1(theta) = r1, as ``classify_2d_case`` reads it."""
    return model.moments([model.theta_from_r1(r1)])[1]


class TestModelCurve:
    def test_poisson(self):
        assert curve_value(make_model("poisson"), 3.0) == pytest.approx(12.0, abs=1e-12)

    def test_binomial(self):
        m = make_model("binomial_fixed_trials", (10.0,))
        assert curve_value(m, 1.0) == pytest.approx(1.9, abs=1e-12)

    def test_chisq(self):
        assert curve_value(make_model("chisq"), 4.0) == pytest.approx(24.0, abs=1e-12)

    def test_binomial_closed_ends(self):
        m = make_model("binomial_fixed_trials", (10.0,))
        assert (curve_value(m, 0.0), curve_value(m, 10.0)) == (0.0, 100.0)

    def test_off_the_domain(self):
        with pytest.raises(DomainError, match=r"theta\[0\] = 1.1 violates theta\[0\] <= 1.0"):
            curve_value(make_model("binomial_fixed_trials", (10.0,)), 11.0)
        for r1 in (-0.5, 0.0):
            with pytest.raises(DomainError, match=r"violates theta\[0\] > 0.0"):
                curve_value(make_model("poisson"), r1)

    @pytest.mark.parametrize("name,fixed", ONE_PARAM.items())
    def test_moments_strictly_monotone_in_theta(self, name, fixed):
        model = make_model(name, fixed)
        hi = 0.99 if name == "binomial_fixed_trials" else 50.0
        grid = np.linspace(0.01, hi, 100)
        r = np.array([model.moments([t]) for t in grid])
        assert np.all(np.diff(r[:, 0]) > 0)
        assert np.all(np.diff(r[:, 1]) > 0)


class TestVarianceIdentities:
    CASES = {name: (_FIXED.get(name, ()), want) for name, want in _VARIANCE_IDENTITIES.items()}

    @pytest.mark.parametrize("name", CASES)
    def test_link_on_exact_moments(self, name):
        fixed, expected = self.CASES[name]
        model = make_model(name, fixed)
        link = make_link("variance")
        grid = np.linspace(0.05, 0.95, 30) if name == "binomial_fixed_trials" else np.linspace(0.1, 20, 30)
        for t in grid:
            got = link_value(link, model.moments([t]))
            want = expected(t, fixed)
            assert got == pytest.approx(want, rel=1e-12)

    def test_lognormal_skewness_identity(self):
        model = make_model("lognormal")
        link = make_link("skewness")
        for u in (-1.0, 0.0, 2.0):
            for v2 in np.linspace(0.25, 9.0, 15):
                got = link_value(link, model.moments([u, v2]))
                want = (math.exp(v2) + 2) * math.sqrt(math.exp(v2) - 1)
                assert got == pytest.approx(want, rel=1e-9), f"u={u} v2={v2}"


class TestSampling:
    def test_determinism_bytes(self):
        t = SamplingTemplate("lognormal", (0.0, 4.0), 2000, seed=99)
        assert sample(t).tobytes() == sample(t).tobytes()

    def test_different_seeds_differ(self):
        a = sample(SamplingTemplate("normal", (0.0, 1.0), 100, seed=1))
        b = sample(SamplingTemplate("normal", (0.0, 1.0), 100, seed=2))
        assert not np.array_equal(a, b)

    def test_empty(self):
        assert sample(SamplingTemplate("poisson", (3.0,), 0, seed=5)).size == 0

    def test_zero_variance_normal(self):
        assert np.array_equal(sample(SamplingTemplate("normal", (0.0, 0.0), 5, seed=1)),
                              np.zeros(5))

    def test_poisson_clt(self):
        x = sample(SamplingTemplate("poisson", (3.0,), 100_000, seed=7))
        assert abs(x.mean() - 3.0) < 3.0 * math.sqrt(3.0 / 100_000)

    def test_abs_normal_nonnegative(self):
        x = sample(SamplingTemplate("abs_normal", (0.0, 1.0), 1000, seed=3))
        assert np.all(x >= 0)

    def test_sum_lognormal_exceeds_parts(self):
        pair = sample(SamplingTemplate("sum_lognormal", (0.0, 1.0, 0.0, 4.0), 500, seed=11))
        assert np.all(pair > 0)

    PPF_CASES = [
        ("poisson", (0.0,), lambda u: stats.poisson.ppf(u, mu=0.0)),
        ("poisson", (0.5,), lambda u: stats.poisson.ppf(u, mu=0.5)),
        ("poisson", (3.0,), lambda u: stats.poisson.ppf(u, mu=3.0)),
        ("poisson", (10.0,), lambda u: stats.poisson.ppf(u, mu=10.0)),
        # bdtrik is nan at p = 0; the draws must still be the ppf's zeros.
        ("binomial_fixed_trials", (10.0, 0.0), lambda u: stats.binom.ppf(u, n=10, p=0.0)),
        ("binomial_fixed_trials", (10.0, 0.1), lambda u: stats.binom.ppf(u, n=10, p=0.1)),
        ("binomial_fixed_trials", (10.0, 0.9), lambda u: stats.binom.ppf(u, n=10, p=0.9)),
        ("binomial_fixed_trials", (10.0, 1.0), lambda u: stats.binom.ppf(u, n=10, p=1.0)),
        ("binomial_fixed_trials", (1.0, 0.3), lambda u: stats.binom.ppf(u, n=1, p=0.3)),
        ("gamma2", (0.7, 1.5), lambda u: stats.gamma.ppf(u, a=0.7, scale=1.5)),
        ("gamma_fixed_shape", (2.0, 3.0), lambda u: stats.gamma.ppf(u, a=2.0, scale=3.0)),
        ("chisq", (4.0,), lambda u: stats.chi2.ppf(u, df=4.0)),
        ("beta2", (2.0, 5.0), lambda u: stats.beta.ppf(u, a=2.0, b=5.0)),
    ]

    @pytest.mark.parametrize("name,params,ppf", PPF_CASES)
    def test_inverse_cdf_matches_scipy_stats(self, name, params, ppf):
        # The scipy.special inverses must reproduce scipy.stats' ppf bit for
        # bit on the same clipped uniforms, so samples never change.
        n, seed = 100_000, 31
        u = _uniform_open(_substream(seed, name), n)
        got = sample(SamplingTemplate(name, params, n, seed=seed))
        assert np.array_equal(got, np.asarray(ppf(u), dtype=float))

    @pytest.mark.parametrize("name,params,cdf", [
        ("poisson", (3.0,), lambda k: special.pdtr(k, 3.0)),
        ("binomial_fixed_trials", (10.0, 0.1), lambda k: special.bdtr(k, 10, 0.1)),
        ("binomial_fixed_trials", (10.0, 0.9), lambda k: special.bdtr(k, 10, 0.9)),
    ])
    def test_discrete_draw_at_a_cdf_value_is_that_integer(self, monkeypatch, name, params, cdf):
        # At u = cdf(k) the continuous inverse is k itself, and rounding can
        # lift its ceiling to k + 1; the draw must be k, the smallest integer
        # whose cdf reaches u.
        k = np.arange(10.0)
        monkeypatch.setattr(distmodels, "_uniform_open", lambda rng, shape: cdf(k))
        assert np.array_equal(sample(SamplingTemplate(name, params, len(k), seed=0)), k)

    NORMAL_CASES = [
        ("normal", (1.5, 4.0), lambda u: 1.5 + 2.0 * special.ndtri(u)),
        ("abs_normal", (-0.5, 2.0), lambda u: np.abs(-0.5 + math.sqrt(2.0) * special.ndtri(u))),
        ("lognormal", (0.3, 0.5), lambda u: np.exp(0.3 + math.sqrt(0.5) * special.ndtri(u))),
        ("sum_lognormal", (0.0, 1.0, 0.5, 0.25),
         lambda u: np.exp(0.0 + 1.0 * special.ndtri(u[0])) + np.exp(0.5 + 0.5 * special.ndtri(u[1]))),
    ]

    @pytest.mark.parametrize("name,params,quantile", NORMAL_CASES)
    def test_normal_families_match_scipy_ndtri(self, name, params, quantile):
        # The normal-based families draw through _ndtri; on the same clipped
        # uniforms they must give scipy.special.ndtri's draws bit for bit.
        n, seed = 100_000, 31
        shape = (len(params) // 2, n) if name == "sum_lognormal" else n
        u = _uniform_open(_substream(seed, name), shape)
        got = sample(SamplingTemplate(name, params, n, seed=seed))
        assert np.array_equal(got.view(np.int64), quantile(u).view(np.int64))

    @pytest.mark.parametrize("name,params,match", [
        ("binomial_fixed_trials", (10.5, 0.9), "number of trials K = 10.5"),
        ("normal", (10.0, math.nan), "finite"),
        ("poisson", (math.inf,), "finite"),
        ("sum_lognormal", (0.0, 1.0, -math.inf, 1.0), "finite"),
    ])
    def test_template_rejects_fractional_trials_and_non_finite_params(self, name, params, match):
        with pytest.raises(DomainError, match=match) as info:
            SamplingTemplate(name, params, 10, seed=0)
        assert repr(name) in str(info.value)

    @pytest.mark.parametrize("name", sorted(TEMPLATE_PARAMS))
    def test_template_checks_its_param_count(self, name):
        assert TEMPLATE_NAMES[:len(MODEL_NAMES)] == MODEL_NAMES  # every model is a template
        n = 4 if name == "sum_lognormal" else len(TEMPLATE_PARAMS[name])
        SamplingTemplate(name, [1.0] * n, 10, seed=0)
        wrong = (0, 1, 3, 5) if name == "sum_lognormal" else (0, n - 1, n + 1)
        for count in sorted(set(wrong) - {n}):
            with pytest.raises(DomainError, match=f"template {name!r}: params .* must be"):
                SamplingTemplate(name, [1.0] * count, 10, seed=0)

    MC_CASES = [
        # family, params, closed-form first three raw moments
        ("chisq", (5.0,), lambda p: [p[0], 2 * p[0] + p[0] ** 2]),
        ("gamma2", (2.0, 3.0),
         lambda p: [p[0] * p[1], p[0] * (p[0] + 1) * p[1] ** 2,
                    p[0] * (p[0] + 1) * (p[0] + 2) * p[1] ** 3]),
        ("beta2", (2.0, 5.0),
         lambda p: [2 / 7, (2 * 3) / (7 * 8), (2 * 3 * 4) / (7 * 8 * 9)]),
        ("loglogistic", (1.0, 8.0),
         lambda p: [p[0] ** k * (k * math.pi / p[1]) / math.sin(k * math.pi / p[1])
                    for k in (1, 2, 3)]),
    ]

    @pytest.mark.parametrize("name,params,closed", MC_CASES)
    def test_closed_forms_vs_monte_carlo(self, name, params, closed):
        # Validates the textbook raw-moment formulas: sample mean of X^k must
        # sit inside a 3-sigma band around the closed form at n = 1e6.
        n = 1_000_000
        x = sample(SamplingTemplate(name, params, n, seed=2024))
        for k, want in enumerate(closed(params), start=1):
            xk = x**k
            se = xk.std() / math.sqrt(n)
            assert abs(xk.mean() - want) < 3.0 * se, f"{name} moment {k}"


def test_ndtri_matches_scipy_bit_for_bit():
    # A port of Cephes ndtri: the centre, both tails with x < 8 (P1/Q1) and
    # x >= 8 (P2/Q2, y < e^-32), the branch edges and their neighbours.
    rng = np.random.default_rng(20250617)
    e2 = math.exp(-2.0)
    edges = [2.0**-53, 1.0 - 2.0**-53, 0.5, e2, 1.0 - e2, 1e-300, 5e-324]
    edges += [float(np.nextafter(y, to)) for y in edges[:5] for to in (0.0, 1.0)]
    y = np.concatenate([
        rng.random(200_000),
        np.exp(-rng.uniform(2.0, 40.0, 100_000)),
        -np.expm1(-rng.uniform(2.0, 36.0, 100_000)),
        2.0 ** -rng.uniform(44.0, 1074.0, 50_000),
        edges,
    ])
    assert (y < math.exp(-32.0)).sum() > 50_000 and (y > 1.0 - e2).sum() > 50_000
    assert np.array_equal(_ndtri(y).view(np.int64), special.ndtri(y).view(np.int64))
    assert np.array_equal(_ndtri([0.0, 1.0]), [-np.inf, np.inf])
    assert np.isnan(_ndtri([-0.25, 1.25])).all()
