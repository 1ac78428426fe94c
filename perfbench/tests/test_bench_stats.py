import numpy as np
import pytest

import stats


@pytest.mark.parametrize(
    "n, want",
    [(0, None), (99, None), (100, 900), (999, 900), (1000, 990), (9999, 990), (10000, 999)],
)
def test_tail_percentile_needs_ten_samples_beyond(n, want):
    assert stats.tail_permille(n) == want


def test_samples_beyond_is_exact_at_the_boundary():
    # 10 of 100 samples lie above p90, 9 of 99 do not reach the rule.
    assert stats.samples_beyond(100, 900) == 10
    assert stats.samples_beyond(99, 900) == 9
    assert stats.samples_beyond(1000, 990) == 10


def test_percentile_matches_linear_interpolation():
    xs = np.random.default_rng(0).exponential(size=137)
    for p in (0, 10, 50, 90, 99, 100):
        assert stats.percentile(xs, p) == pytest.approx(np.percentile(xs, p), rel=1e-12)


def test_iqr_share():
    assert stats.iqr_share([1, 2, 3, 4, 5, 6, 7, 8, 9, 10]) == pytest.approx((8.25 - 2.75) / 5.5)
