import io
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from recstrata.corpus import Dataset, Interaction, ParseError
from recstrata.propensity import (
    EstimationError,
    GammaEstimate,
    _zeta,
    estimate_propensities,
    fit_gamma,
    read_propensities,
    write_propensities,
)


def dataset_with_counts(counts):
    interactions = []
    for item, c in counts.items():
        for k in range(c):
            interactions.append(Interaction(f"u{k}", item, 5))
    return Dataset.from_interactions(interactions)


class TestFitGamma:
    def test_all_ones_closed_form(self):
        # with every count at the cutoff the closed form applies:
        # 1 + 1/ln 2
        est = fit_gamma({"a": 1, "b": 1, "c": 1})
        assert est.gamma == pytest.approx(1.0 + 1.0 / math.log(2.0), rel=1e-12)

    def test_single_item_is_an_error(self):
        with pytest.raises(EstimationError):
            fit_gamma({"a": 3})

    def test_nonpositive_count_is_an_error(self):
        with pytest.raises(EstimationError):
            fit_gamma({"a": 0, "b": 0, "c": 0})

    def test_recovers_synthetic_exponent(self):
        rng = np.random.default_rng(42)
        sample = rng.zipf(2.5, 10_000)
        est = fit_gamma({str(k): int(x) for k, x in enumerate(sample)})
        assert 2.4 <= est.gamma <= 2.6
        assert est.n_samples == 10_000

    def test_approximate_method_is_biased_but_close(self):
        rng = np.random.default_rng(42)
        sample = rng.zipf(2.5, 10_000)
        counts = {str(k): int(x) for k, x in enumerate(sample)}
        approx = fit_gamma(counts, method="approximate")
        exact = fit_gamma(counts, method="mle")
        assert approx.method == "approximate"
        assert abs(approx.gamma - exact.gamma) < 0.5

    def test_unknown_method(self):
        with pytest.raises(ValueError):
            fit_gamma({"a": 1, "b": 2}, method="nope")


class TestScipyIdentity:
    """The Hurwitz zeta and root-finder ports give scipy's results to the last bit."""

    def test_zeta_matches_scipy(self):
        from scipy.special import zeta

        rng = np.random.default_rng(11)
        # x across (1, 50], and densely near the pole the gamma fit starts from
        xs = np.concatenate([50.0 - 49.0 * rng.random(2000), 1.0 + 10 ** rng.uniform(-6, -1, 500)])
        for q in (1, 2, 3, 5, 10):
            assert [_zeta(x, q) for x in xs.tolist()] == zeta(xs, q).tolist()

    def test_fit_gamma_matches_scipy_brentq_over_zeta(self):
        from scipy.optimize import brentq
        from scipy.special import zeta

        def reference(counts, x_min):
            mean_log = float(np.mean(np.log(counts)))

            def score(g):
                h = 1e-7 * g
                return (math.log(zeta(g + h, x_min)) - math.log(zeta(g - h, x_min))) / (2 * h) + mean_log

            return float(brentq(score, 1.0 + 1e-4, 50.0, xtol=1e-9))

        rng = np.random.default_rng(5)
        fits = 0
        for _ in range(300):
            x_min = int(rng.integers(1, 4))
            # continuous power-law draws with exponent in [1.5, 3], floored to counts >= x_min
            raw = np.floor(x_min * rng.random(int(rng.integers(20, 200))) ** -(1 / rng.uniform(0.5, 2.0)))
            counts = {f"i{k}": int(c) for k, c in enumerate(raw)}
            if all(c == x_min for c in counts.values()):
                continue
            kept = np.array(list(counts.values()), dtype=np.float64)
            assert fit_gamma(counts, x_min).gamma == reference(kept, x_min)
            fits += 1
        assert fits > 250


class TestEstimatePropensities:
    def test_direct_substitution(self):
        ds = dataset_with_counts({"a": 1, "b": 4})
        table = estimate_propensities(ds, GammaEstimate(gamma=3.0, n_samples=2))
        # exponent (3+1)/2 = 2 -> raw {1, 16} -> max-one scores
        assert table.scores["a"] == pytest.approx(1.0 / 16.0)
        assert table.scores["b"] == 1.0

    def test_gamma_one_is_proportional_to_counts(self):
        ds = dataset_with_counts({"a": 2, "b": 4})
        table = estimate_propensities(ds, GammaEstimate(gamma=1.0, n_samples=2))
        assert table.scores["a"] == pytest.approx(0.5)

    def test_equal_counts_give_equal_unit_scores(self):
        ds = dataset_with_counts({"a": 3, "b": 3})
        table = estimate_propensities(ds, GammaEstimate(gamma=2.2, n_samples=2))
        assert table.scores == {"a": 1.0, "b": 1.0}

    def test_invalid_gamma(self):
        ds = dataset_with_counts({"a": 1, "b": 2})
        with pytest.raises(EstimationError):
            estimate_propensities(ds, GammaEstimate(gamma=-1.0, n_samples=2))

    @settings(max_examples=50, deadline=None)
    @given(
        counts=st.dictionaries(
            st.text(st.characters(min_codepoint=97, max_codepoint=122), min_size=1, max_size=4),
            st.integers(1, 500),
            min_size=2,
            max_size=30,
        ),
        gamma=st.floats(0.1, 8.0),
    )
    def test_monotone_in_counts_for_any_gamma(self, counts, gamma):
        ds = dataset_with_counts(counts)
        table = estimate_propensities(ds, GammaEstimate(gamma=gamma, n_samples=len(counts)))
        assert max(table.scores.values()) == 1.0
        items = sorted(counts)
        for i in items:
            for j in items:
                if counts[i] >= counts[j]:
                    assert table.scores[i] >= table.scores[j]

    def test_ordering_is_gamma_free(self):
        ds = dataset_with_counts({"a": 1, "b": 7, "c": 3})
        order = None
        for gamma in (0.5, 1.0, 2.5, 6.0):
            table = estimate_propensities(ds, GammaEstimate(gamma=gamma, n_samples=3))
            this = sorted(table.scores, key=table.scores.get)
            if order is None:
                order = this
            assert this == order


class TestSerialization:
    def test_round_trip(self):
        ds = dataset_with_counts({"a": 1, "b": 4, "c": 9})
        table = estimate_propensities(ds, fit_gamma(ds.item_counts))
        buf = io.StringIO()
        write_propensities(table, buf)
        buf.seek(0)
        again = read_propensities(buf)
        assert again.scores == table.scores
        assert again.item_counts == table.item_counts
        assert again.gamma.gamma == table.gamma.gamma

    def test_missing_header_is_an_error(self):
        with pytest.raises(ParseError, match="line 1"):
            read_propensities(io.StringIO("a,1,0.5\n"))
