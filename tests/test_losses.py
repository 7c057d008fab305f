import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from elicit import analytic_moments, make_model, minimize
from elicit.errors import DomainError, EmptySample, InfiniteWeightInSum, ZeroMomentBase
from elicit.losses import (
    AsymmetricSquaredLoss,
    EmpiricalMoments,
    SquaredLoss,
    WeightVector,
    empirical_moments,
    renormalize_base,
    sub_loss,
    total_loss,
)
from elicit.optimize import OptimizerConfig


class TestEmpiricalMoments:
    def test_constant_sample(self):
        em = empirical_moments([1.0, 1.0, 1.0], 2)
        assert np.array_equal(em.m_hat, [1.0, 1.0])
        assert np.array_equal(em.v_hat, [0.0, 0.0])
        assert em.n == 3

    def test_two_point_sample(self):
        em = empirical_moments([0.0, 2.0], 2)
        assert np.allclose(em.m_hat, [1.0, 2.0])
        assert np.allclose(em.v_hat, [1.0, 4.0])

    def test_symmetric_third_moment(self):
        em = empirical_moments([-1.0, 1.0], 3)
        assert np.allclose(em.m_hat, [0.0, 1.0, 0.0])

    def test_empty(self):
        with pytest.raises(EmptySample):
            empirical_moments([], 2)

    def test_permutation_invariant(self):
        rng = np.random.Generator(np.random.Philox(key=5))
        x = rng.uniform(0, 10, 500)
        a = empirical_moments(x, 3)
        b = empirical_moments(x[::-1].copy(), 3)
        assert np.allclose(a.m_hat, b.m_hat, rtol=1e-12)
        assert np.allclose(a.v_hat, b.v_hat, rtol=1e-12)


class TestSubLoss:
    def test_squared_minimum_is_variance_floor(self):
        em = empirical_moments([0.0, 2.0], 2)
        assert sub_loss(SquaredLoss(), 0, 1.0, em) == 1.0  # v_hat term only

    def test_squared_offset(self):
        em = EmpiricalMoments(m_hat=np.array([1.0, 2.0]), v_hat=np.array([1.0, 4.0]), n=2)
        assert sub_loss(SquaredLoss(), 0, 3.0, em) == 5.0

    def test_asymmetric_pieces(self):
        em = EmpiricalMoments(m_hat=np.array([0.0, 1.0]), v_hat=np.zeros(2), n=1)
        kind = AsymmetricSquaredLoss(a=2.0, b=1.0)
        assert sub_loss(kind, 0, -1.0, em) == 2.0
        assert sub_loss(kind, 0, 1.0, em) == 1.0

    def test_asymmetric_validation(self):
        with pytest.raises(DomainError):
            AsymmetricSquaredLoss(a=0.0, b=1.0)

    @given(
        m=st.floats(-50, 50),
        v=st.floats(0, 10),
        scale=st.floats(0.1, 20),
        a=st.floats(0.1, 5),
        b=st.floats(0.1, 5),
        side=st.sampled_from([-1.0, 1.0]),
    )
    @settings(max_examples=100)
    def test_accuracy_rewarding(self, m, v, scale, a, b, side):
        # Walking toward the sample moment from either side strictly lowers
        # either sub-loss kind.
        em = EmpiricalMoments(m_hat=np.array([m, 1.0]), v_hat=np.array([v, 0.0]), n=1)
        offsets = scale * np.array([1.0, 0.6, 0.3, 0.1, 0.01])
        for kind in (SquaredLoss(), AsymmetricSquaredLoss(a=a, b=b)):
            values = [sub_loss(kind, 0, m + side * d, em) for d in offsets]
            assert all(values[i] > values[i + 1] for i in range(len(values) - 1))


class TestWeightVector:
    def test_all_zero_rejected(self):
        with pytest.raises(DomainError):
            WeightVector.of([0.0, 0.0])

    def test_two_infinities_rejected(self):
        with pytest.raises(DomainError):
            WeightVector.of([np.inf, np.inf, 1.0])

    def test_negative_rejected(self):
        with pytest.raises(DomainError):
            WeightVector.of([-1.0, 1.0])

    def test_base_must_be_positive(self):
        with pytest.raises(DomainError):
            WeightVector(c=np.array([1.0, 1.0]), k=np.array([1.0, 0.0]))

    def test_effective(self):
        w = WeightVector(c=np.array([2.0, 6.0]), k=np.array([4.0, 3.0]))
        assert np.allclose(w.effective, [0.5, 2.0])

    SHAPE = "c and k must be 1-D arrays of equal length"
    RANGE = "weights must lie in [0, +inf]"
    ZERO = "all-zero weight vector rejected: the total loss would vanish"
    TWO_INF = "at most one weight may be infinite"
    BASE = "base weights k must be finite and strictly positive"

    @pytest.mark.parametrize("c,k,message", [
        ([np.nan, 1.0], [1.0, 1.0], RANGE),
        ([-1.0, 1.0], [1.0, 1.0], RANGE),
        ([-np.inf, 1.0], [1.0, 1.0], RANGE),
        ([0.0, 0.0], [1.0, 1.0], ZERO),
        ([], [], ZERO),
        ([np.inf, np.inf, 1.0], [1.0, 1.0, 1.0], TWO_INF),
        ([1.0, 1.0], [1.0, 0.0], BASE),
        ([1.0, 1.0], [-2.0, 1.0], BASE),
        ([1.0, 1.0], [1.0, np.inf], BASE),
        ([1.0, 1.0], [np.nan, 1.0], BASE),
        ([1.0, 1.0], [1.0, 1.0, 1.0], SHAPE),
        ([[1.0, 1.0]], [[1.0, 1.0]], SHAPE),
        (1.0, 1.0, SHAPE),
        # The first failing rule names the error.
        ([0.0, 0.0], [0.0, 1.0], ZERO),
        ([np.inf, np.inf], [np.nan, 1.0], TWO_INF),
        ([np.nan, np.inf, np.inf], [0.0, 1.0, 1.0], RANGE),
    ])
    def test_each_invalid_input_names_its_rule(self, c, k, message):
        with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
            WeightVector(c=np.array(c), k=np.array(k))

    @pytest.mark.parametrize("c", [[1.0, 2.0], [np.inf, 0.0, 1.0], [1.0, np.inf, 0.0],
                                   [0.0, 1.0, np.inf], [0.0, 3.0]])
    def test_infinite_index(self, c):
        found = np.flatnonzero(np.isinf(c))
        assert WeightVector.of(c).infinite_index == (int(found[0]) if found.size else None)


class TestTotalLoss:
    def test_exact_fit(self):
        em = EmpiricalMoments(m_hat=np.array([1.0, 2.0]), v_hat=np.zeros(2), n=1)
        assert total_loss(WeightVector.of([1.0, 1.0]), [1.0, 2.0], em) == 0.0

    def test_zero_weight_drops_term(self):
        em = EmpiricalMoments(m_hat=np.array([1.0, 2.0]), v_hat=np.zeros(2), n=1)
        w = WeightVector.of([0.0, 1.0])
        assert total_loss(w, [100.0, 2.5], em) == total_loss(w, [-7.0, 2.5], em)

    def test_arithmetic(self):
        em = EmpiricalMoments(m_hat=np.array([1.0, 2.0]), v_hat=np.zeros(2), n=1)
        assert total_loss(WeightVector.of([2.0, 3.0]), [2.0, 4.0], em) == 14.0

    def test_infinite_weight_rejected(self):
        em = EmpiricalMoments(m_hat=np.array([1.0, 2.0]), v_hat=np.zeros(2), n=1)
        with pytest.raises(InfiniteWeightInSum):
            total_loss(WeightVector.of([np.inf, 1.0]), [1.0, 2.0], em)


class TestRenormalization:
    def test_unit_moments(self):
        em = EmpiricalMoments(m_hat=np.ones(3), v_hat=np.zeros(3), n=1)
        assert np.array_equal(renormalize_base(em), [1.0, 1.0, 1.0])

    def test_squares(self):
        em = EmpiricalMoments(m_hat=np.array([2.0, 5.0, 10.0]), v_hat=np.zeros(3), n=1)
        assert np.array_equal(renormalize_base(em), [4.0, 25.0, 100.0])

    def test_wide_magnitude_moments(self):
        # Sample moments spanning many decades square into base weights that
        # tame the dominant third-order term.
        m = np.array([121.15, 5.02e6, 3.20e11])
        em = EmpiricalMoments(m_hat=m, v_hat=np.zeros(3), n=1)
        k = renormalize_base(em)
        assert k == pytest.approx([1.46773e4, 2.52004e13, 1.02400e23], rel=1e-5)

    def test_zero_moment_rejected(self):
        em = EmpiricalMoments(m_hat=np.array([0.0, 1.0]), v_hat=np.zeros(2), n=1)
        with pytest.raises(ZeroMomentBase):
            renormalize_base(em)

    def test_equivalence_under_optimizer(self):
        # Folding k into c leaves the reachable minimizer unchanged.
        model = make_model("poisson")
        em = analytic_moments(model, [3.0], perturb=[0.0, 3.0])
        c = np.array([2.0, 5.0])
        k = np.array([4.0, 0.5])
        cfg = OptimizerConfig(multistart=2)
        a = minimize(model, WeightVector(c=c, k=k), em, config=cfg)
        b = minimize(model, WeightVector(c=c / k, k=np.ones(2)), em, config=cfg)
        assert np.allclose(a.theta_star, b.theta_star, atol=1e-8)
