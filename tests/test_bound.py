import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedbound.bound import BoundParams, convergence_bound, estimate_initial_distance

positive = st.floats(min_value=1e-3, max_value=1e3, allow_nan=False)


def params(mu=1.0, L=2.0, G=1.0, dist=1.0, squared=False):
    return BoundParams(mu=mu, L=L, G=G, init_distance=dist, squared_distance=squared)


class TestConvergenceBound:
    def test_prefactor_is_one_at_t_equals_one(self):
        p = params(mu=0.5, L=3.0, G=2.0, dist=1.5)
        expected = 16 * 2.0 ** 2 / 0.5 + 4 * 3.0 * 1.5
        assert convergence_bound(1, p) == pytest.approx(expected, rel=1e-12)

    def test_hand_computed_values(self):
        p = params(mu=1.0, L=2.0, G=1.0, dist=1.0)
        assert convergence_bound(1, p) == pytest.approx(24.0, rel=1e-12)
        # 8L/mu = 16, so at t = 17 the prefactor halves: 16 / 32.
        assert convergence_bound(17, p) == pytest.approx(12.0, rel=1e-12)

    def test_vanishes_for_huge_t(self):
        p = params()
        assert convergence_bound(10 ** 9, p) < 1e-5 * convergence_bound(1, p)

    def test_strictly_decreasing_in_t(self):
        p = params(mu=0.3, L=2.5, G=0.7, dist=0.4)
        values = [convergence_bound(t, p) for t in range(1, 200)]
        assert all(b < a for a, b in zip(values, values[1:]))

    def test_increasing_in_g_and_distance(self):
        base = convergence_bound(5, params(G=1.0, dist=1.0))
        assert convergence_bound(5, params(G=2.0, dist=1.0)) > base
        assert convergence_bound(5, params(G=1.0, dist=2.0)) > base

    @given(
        positive, positive, positive, positive,
        st.integers(min_value=1, max_value=10_000),
    )
    @settings(max_examples=100, deadline=None)
    def test_product_with_denominator_is_constant(self, mu, spread, G, dist, t):
        p = params(mu=mu, L=mu + spread, G=G, dist=dist)
        ratio = 8 * p.L / p.mu
        reference = convergence_bound(1, p) * ratio
        value = convergence_bound(t, p) * (t - 1 + ratio)
        assert value == pytest.approx(reference, rel=1e-12)

    def test_invalid_t_rejected(self):
        with pytest.raises(ValueError):
            convergence_bound(0, params())

    def test_nonpositive_mu_rejected(self):
        with pytest.raises(ValueError):
            params(mu=0.0)
        with pytest.raises(ValueError):
            params(mu=-1.0)

    def test_squared_distance_variant(self):
        p_lin = params(G=0.0, dist=3.0)
        p_sq = params(G=0.0, dist=3.0, squared=True)
        assert convergence_bound(1, p_sq) == pytest.approx(3.0 * convergence_bound(1, p_lin))

    def test_doubling_g_quadruples_bound_without_distance_term(self):
        lo, hi = params(G=1.0, dist=0.0), params(G=2.0, dist=0.0)
        for t in range(1, 21):
            expected = 4.0 * convergence_bound(t, lo)
            assert convergence_bound(t, hi) == pytest.approx(expected, rel=1e-12)

    # G ** 2 past the float range used to raise OverflowError, which failed
    # the run's seed after it had trained.
    @pytest.mark.parametrize("G, dist, squared", [(1e160, 1.0, False), (1.0, 1e160, True)])
    def test_square_past_the_float_range_gives_an_infinite_bound(self, G, dist, squared):
        assert convergence_bound(2, params(G=G, dist=dist, squared=squared)) == np.inf


class TestInitialDistance:
    def test_zero_for_identical_vectors(self):
        w = np.array([1.0, 2.0, 3.0])
        assert estimate_initial_distance(w, w.copy()) == 0.0

    def test_pythagorean_example(self):
        assert estimate_initial_distance(np.zeros(2), np.array([3.0, 4.0])) == pytest.approx(5.0)

    def test_dim_mismatch_rejected(self):
        with pytest.raises(ValueError):
            estimate_initial_distance(np.zeros(2), np.zeros(3))
