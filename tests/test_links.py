import math

import numpy as np
import pytest

from elicit import make_link, make_model
from elicit.errors import DegenerateMoments, DomainError, VerticalContour
from elicit.links import contour_slope, contour_value, link_gradient, link_value

VAR = make_link("variance")
SKEW = make_link("skewness")


def fd_gradient(link, r, h=1e-6):
    r = np.asarray(r, dtype=float)
    out = np.empty(len(r))
    for j in range(len(r)):
        up, dn = r.copy(), r.copy()
        step = h * max(1.0, abs(r[j]))
        up[j] += step
        dn[j] -= step
        out[j] = (link_value(link, up) - link_value(link, dn)) / (2 * step)
    return out


class TestLinkValue:
    def test_variance_basic(self):
        assert link_value(VAR, (0.0, 1.0)) == 1.0
        assert link_value(VAR, (2.0, 6.0)) == 2.0

    def test_skewness_on_lognormal_moments(self):
        r = make_model("lognormal").moments([0.0, 1.0])
        got = link_value(SKEW, r)
        want = (math.e + 2) * math.sqrt(math.e - 1)
        assert got == pytest.approx(want, rel=1e-12)
        assert got == pytest.approx(6.1849, abs=5e-4)

    def test_degenerate(self):
        with pytest.raises(DegenerateMoments):
            link_value(SKEW, (1.0, 1.0, 1.0))
        with pytest.raises(DegenerateMoments):
            link_value(SKEW, (2.0, 4.0 + 1e-13, 9.0))


class TestLinkGradient:
    def test_variance(self):
        assert np.allclose(link_gradient(VAR, (3.0, 15.0)), [-6.0, 1.0])
        assert np.allclose(link_gradient(VAR, (0.0, 7.0)), [0.0, 1.0])

    def test_skewness_matches_fd(self):
        r = make_model("lognormal").moments([0.0, 1.0])
        an = link_gradient(SKEW, r)
        fd = fd_gradient(SKEW, r)
        assert np.all(np.abs(fd - an) / np.maximum(np.abs(an), 1e-10) < 1e-6)

    @pytest.mark.parametrize("link,dim", [(VAR, 2), (SKEW, 3)])
    def test_fd_at_random_interior_points(self, link, dim):
        rng = np.random.Generator(np.random.Philox(key=42))
        count = 0
        while count < 50:
            r1 = rng.uniform(-2, 4)
            var = rng.uniform(0.5, 5.0)
            if dim == 2:
                r = np.array([r1, var + r1**2])
            else:
                mu3 = rng.uniform(-3, 3)
                r = np.array([r1, var + r1**2, mu3 + 3 * r1 * var + r1**3])
            an = link_gradient(link, r)
            fd = fd_gradient(link, r)
            assert np.all(np.abs(fd - an) / np.maximum(np.abs(an), 1e-8) < 1e-5)
            count += 1


class TestContour:
    def test_variance_closed_form(self):
        assert contour_value(VAR, 0.0, 5.0) == 5.0
        assert contour_value(VAR, 3.0, 6.0) == 15.0
        assert contour_value(VAR, 2.0, 0.0) == 4.0

    def test_skewness_rejected(self):
        with pytest.raises(DomainError):
            contour_value(SKEW, 1.0, 1.0)

    def test_consistency_over_grid(self):
        # t(r1, T(r1; t0)) must return t0
        for r1 in np.linspace(-5, 5, 10):
            for t0 in np.linspace(0.1, 50, 10):
                r2 = contour_value(VAR, r1, t0)
                assert link_value(VAR, (r1, r2)) == pytest.approx(t0, abs=1e-9)

    def test_monotone_on_positive_axis(self):
        for t0 in (0.5, 2.0, 10.0):
            grid = np.linspace(0.01, 20, 100)
            values = [contour_value(VAR, r1, t0) for r1 in grid]
            assert np.all(np.diff(values) > 0)


class TestContourSlope:
    def test_variance(self):
        assert contour_slope(VAR, (3.0, 15.0)) == pytest.approx(6.0, abs=1e-12)
        assert contour_slope(VAR, (0.0, 4.0)) == 0.0
        assert contour_slope(VAR, (-2.0, 5.0)) == pytest.approx(-4.0, abs=1e-12)

    def test_matches_fd_of_contour(self):
        h = 1e-6
        for r1 in (0.5, 1.5, 4.0):
            t0 = 3.0
            r2 = contour_value(VAR, r1, t0)
            fd = (contour_value(VAR, r1 + h, t0) - contour_value(VAR, r1 - h, t0)) / (2 * h)
            an = contour_slope(VAR, (r1, r2))
            assert abs(fd - an) / max(abs(an), 1e-10) < 1e-5

    def test_vertical(self):
        # At r = (0, 1, 0) the skewness gradient has a zero second component.
        with pytest.raises(VerticalContour):
            contour_slope(SKEW, (0.0, 1.0, 0.0))
