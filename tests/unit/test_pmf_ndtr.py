"""The Cephes ``ndtr`` port equals ``scipy.special.ndtr`` bit for bit."""

import math

import numpy as np
import pytest

from repro.pmf._ndtr import ndtr

special = pytest.importorskip("scipy.special")


def assert_bitwise(a):
    a = np.asarray(a, dtype=np.float64)
    got, want = ndtr(a), special.ndtr(a)
    same = (got.view(np.int64) == want.view(np.int64)) | (
        np.isnan(got) & np.isnan(want)
    )
    assert same.all(), a[~same][:10]


def test_dense_grid():
    assert_bitwise(np.linspace(-40.0, 40.0, 400_001))


def test_random_points():
    rng = np.random.default_rng(2012)
    assert_bitwise(rng.normal(0.0, 1.0, 50_000))
    assert_bitwise(rng.normal(0.0, 12.0, 50_000))


@pytest.mark.parametrize(
    "x_branch",
    [
        math.sqrt(0.5),  # ndtr: erf below, erfc above
        1.0,  # erfc: 1 - erf below
        8.0,  # erfc: P/Q below, R/S above
        math.sqrt(7.09782712893383996843e2),  # erfc: MAXLOG underflow
    ],
)
def test_branch_points_and_neighbours(x_branch):
    """Each branch point of ``x = a / sqrt(2)``, a few ulps either side."""
    centre = x_branch / math.sqrt(0.5)
    points = [centre]
    for direction in (math.inf, -math.inf):
        p = centre
        for _ in range(3):
            p = math.nextafter(p, direction)
            points.append(p)
    points += [-p for p in points]
    assert_bitwise(points)


def test_special_values():
    assert_bitwise([0.0, -0.0, math.inf, -math.inf, 1e300, -1e300, 5e-324])
    assert ndtr(np.array([0.0, -0.0])).tolist() == [0.5, 0.5]
    assert ndtr(np.array([math.inf, -math.inf])).tolist() == [1.0, 0.0]
    assert np.isnan(ndtr(np.array([math.nan]))).all()
