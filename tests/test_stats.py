import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from recstrata.stats import (
    StatsError,
    compare_rankings,
    fisher_z,
    kendall_tau_b,
    linear_fit,
    steiger_test,
)


def brute_force_tau_b(x, y):
    n = len(x)
    concordant = discordant = tied_x = tied_y = 0
    for a in range(n):
        for b in range(a + 1, n):
            dx = (x[a] > x[b]) - (x[a] < x[b])
            dy = (y[a] > y[b]) - (y[a] < y[b])
            if dx == 0 and dy == 0:
                continue
            if dx == 0:
                tied_x += 1
            elif dy == 0:
                tied_y += 1
            elif dx == dy:
                concordant += 1
            else:
                discordant += 1
    nx = concordant + discordant + tied_y
    ny = concordant + discordant + tied_x
    if nx == 0 or ny == 0:
        return None
    return (concordant - discordant) / math.sqrt(nx * ny)


class TestKendallTauB:
    def test_identity(self):
        assert kendall_tau_b([3, 1, 2, 5], [3, 1, 2, 5]) == 1.0

    def test_reversal(self):
        assert kendall_tau_b([1, 2, 3], [3, 2, 1]) == -1.0

    def test_single_swap(self):
        assert kendall_tau_b([1, 2, 3, 4], [1, 3, 2, 4]) == pytest.approx(4.0 / 6.0)

    def test_all_tied_is_undefined(self):
        assert kendall_tau_b([1.0, 1.0, 1.0], [1, 2, 3]) is None

    def test_too_short(self):
        with pytest.raises(StatsError):
            kendall_tau_b([1], [1])

    def test_length_mismatch(self):
        with pytest.raises(StatsError):
            kendall_tau_b([1, 2], [1, 2, 3])

    @settings(max_examples=200, deadline=None)
    @given(
        pairs=st.lists(
            st.tuples(st.integers(0, 6), st.integers(0, 6)), min_size=2, max_size=40
        )
    )
    def test_matches_brute_force_with_ties(self, pairs):
        x = [p[0] for p in pairs]
        y = [p[1] for p in pairs]
        expected = brute_force_tau_b(x, y)
        actual = kendall_tau_b(x, y)
        if expected is None:
            assert actual is None
        else:
            assert actual == pytest.approx(expected, abs=1e-12)

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 10_000), n=st.integers(3, 50))
    def test_invariant_under_monotone_transform(self, seed, n):
        rng = np.random.default_rng(seed)
        x = rng.random(n)
        y = rng.random(n)
        base = kendall_tau_b(x, y)
        warped = kendall_tau_b(np.exp(3 * x), y)
        assert warped == pytest.approx(base, abs=1e-12)


class TestFisherZ:
    def test_zero(self):
        assert fisher_z(0.0) == 0.0

    def test_half(self):
        assert fisher_z(0.5) == pytest.approx(0.5493, abs=1e-4)

    def test_antisymmetry(self):
        assert fisher_z(-0.73) == -fisher_z(0.73)

    def test_domain(self):
        with pytest.raises(StatsError):
            fisher_z(1.0)


class TestSteiger:
    def test_equal_correlations_give_zero(self):
        z, p = steiger_test(0.6, 0.6, 0.4, n=30)
        assert z == 0.0
        assert p == 1.0

    def test_larger_n_gives_larger_statistic(self):
        z_small, _ = steiger_test(0.7, 0.5, 0.6, n=50)
        z_large, _ = steiger_test(0.7, 0.5, 0.6, n=200)
        assert abs(z_large) > abs(z_small)

    def test_boundary_correlation_is_an_error(self):
        with pytest.raises(StatsError):
            steiger_test(1.0, 0.5, 0.5, n=10)

    def test_minimum_n(self):
        with pytest.raises(StatsError):
            steiger_test(0.5, 0.4, 0.3, n=3)

    def test_p_is_two_sided_normal(self):
        z, p = steiger_test(0.7, 0.5, 0.6, n=50)
        assert p == pytest.approx(math.erfc(abs(z) / math.sqrt(2.0)))

    def test_compare_rankings_wraps_everything(self):
        x = [1, 2, 3, 4, 5, 6]
        y = [1, 2, 4, 3, 5, 6]
        z = [2, 1, 3, 4, 6, 5]
        report = compare_rankings(x, y, z)
        assert report.n == 6
        assert report.tau_xy == pytest.approx(kendall_tau_b(x, y))
        assert 0.0 <= report.p <= 1.0

    def test_compare_rankings_strict_boundary(self):
        x = [1, 2, 3, 4]
        with pytest.raises(StatsError):
            compare_rankings(x, x, [1, 3, 2, 4])
        report = compare_rankings(x, x, [1, 3, 2, 4], strict=False)
        assert report.tau_xy == 1.0
        assert report.steiger_z is None and report.p is None

    def test_compare_rankings_fully_tied(self):
        x, y = [1, 2, 3, 4, 5], [2, 1, 3, 5, 4]
        with pytest.raises(StatsError, match="fully tied"):
            compare_rankings(x, y, [0.0] * 5)
        report = compare_rankings(x, y, [0.0] * 5, strict=False)
        assert report.tau_xy == kendall_tau_b(x, y)
        assert report.tau_xz is None and report.tau_yz is None
        assert report.steiger_z is None and report.p is None


class TestLinearFit:
    def test_exact_line(self):
        x = [0.0, 1.0, 2.0, 3.0]
        slope, intercept = linear_fit(x, [2 * v + 1 for v in x])
        assert slope == pytest.approx(2.0)
        assert intercept == pytest.approx(1.0)

    def test_flat_data(self):
        slope, _ = linear_fit([0, 1, 2], [5, 5, 5])
        assert slope == 0.0

    def test_residuals_orthogonal_to_x(self):
        rng = np.random.default_rng(7)
        x = rng.random(100)
        y = 3 * x + rng.standard_normal(100)
        slope, intercept = linear_fit(x, y)
        residuals = y - (slope * x + intercept)
        assert abs(float(np.dot(residuals, x))) < 1e-9

    def test_constant_x_is_an_error(self):
        with pytest.raises(StatsError):
            linear_fit([2, 2, 2], [1, 2, 3])
