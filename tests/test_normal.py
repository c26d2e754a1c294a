"""The Cephes normal cdf / quantile port against scipy.special, bit for bit."""

import math

import numpy as np
from scipy.special import ndtr as scipy_ndtr
from scipy.special import ndtri as scipy_ndtri

from cafa.normal import ndtr, ndtri

_EXPM2 = math.exp(-2.0)
_MAXLOG = 7.09782712893383996843e2


def _bits(a):
    return np.asarray(a, dtype=np.float64).view(np.uint64)


def _around(points, steps=40):
    """Each point and its ``steps`` float64 neighbours on either side."""
    out = []
    for p in points:
        for direction in (-np.inf, np.inf):
            v = np.float64(p)
            for _ in range(steps):
                out.append(v)
                v = np.nextafter(v, direction)
    return np.array(out)


def _assert_ndtri_matches(y):
    y = y[(y >= 0.0) & (y <= 1.0)]
    got, want = ndtri(y), scipy_ndtri(y)
    bad = _bits(got) != _bits(want)
    assert not bad.any(), list(zip(y[bad][:5], got[bad][:5], want[bad][:5]))


def _assert_ndtr_matches(a):
    got = np.array([ndtr(v) for v in a.tolist()])
    want = scipy_ndtr(a)
    bad = _bits(got) != _bits(want)
    assert not bad.any(), list(zip(a[bad][:5], got[bad][:5], want[bad][:5]))


def test_ndtri_matches_scipy_on_random_inputs():
    rng = np.random.default_rng(0)
    _assert_ndtri_matches(rng.random(100_000))
    _assert_ndtri_matches(rng.random(50_000) * _EXPM2)  # lower tail
    _assert_ndtri_matches(1.0 - rng.random(50_000) * _EXPM2)  # upper tail
    _assert_ndtri_matches(np.exp(-rng.random(50_000) * 740.0))  # deep tail


def test_ndtri_matches_scipy_at_branch_edges():
    # exp(-2) and its complement switch central <-> tail; y = exp(-32) is
    # where sqrt(-2 log y) crosses 8; then tiny values down to subnormals
    edges = [_EXPM2, 1.0 - _EXPM2, 0.5, math.exp(-32.0), 1.0 - math.exp(-32.0),
             1e-300, 2.2250738585072014e-308, 5e-324, 0.0, 1.0]
    _assert_ndtri_matches(_around(edges))
    assert ndtri(np.array([0.0]))[0] == -np.inf and ndtri(np.array([1.0]))[0] == np.inf
    assert np.isnan(ndtri(np.array([-0.1, 1.1, np.nan]))).all()


def test_ndtri_keeps_shape():
    y = np.linspace(0.01, 0.99, 12).reshape(3, 4)
    assert ndtri(y).shape == (3, 4)


def test_ndtr_matches_scipy_on_random_inputs():
    rng = np.random.default_rng(1)
    _assert_ndtr_matches(rng.normal(size=10_000) * 3.0)
    _assert_ndtr_matches(rng.uniform(-40.0, 40.0, 10_000))
    _assert_ndtr_matches(rng.uniform(-4.0, 4.0, 10_000))  # the sampler's range


def test_ndtr_matches_scipy_at_branch_edges():
    # a = +-1: |x| = sqrt(1/2) switches erf <-> erfc; a = +-sqrt(2): erf and
    # erfc hand over at |x| = 1; a = +-8 sqrt(2): erfc's x < 8 rational
    # switch; sqrt(2 MAXLOG): exp(-x^2) underflows
    r2 = math.sqrt(2.0)
    under = math.sqrt(2.0 * _MAXLOG)
    edges = [0.0, 1.0, -1.0, r2, -r2, 8 * r2, -8 * r2, under, -under]
    _assert_ndtr_matches(_around(edges))
    assert ndtr(np.inf) == 1.0 and ndtr(-np.inf) == 0.0 and math.isnan(ndtr(np.nan))
