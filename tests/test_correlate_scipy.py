"""correlate against scipy.stats, bit for bit. scipy is not a dependency of
fedbound, so this module is skipped where it is not installed."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fedbound.analysis import correlate

stats = pytest.importorskip("scipy.stats")


@st.composite
def samples(draw, n):
    """n values at a scale from 1e-6 to 1e200, often with ties, sometimes far
    from zero relative to their spread. Past about 1e154 a std's squares
    overflow."""
    if draw(st.booleans()):
        elements = st.integers(-3, 3).map(float)
    else:
        elements = st.floats(-1.0, 1.0, allow_subnormal=False)
    values = np.array(draw(st.lists(elements, min_size=n, max_size=n)))
    scale = 10.0 ** draw(st.integers(-6, 200))
    offset = draw(st.sampled_from([0.0, 1.0, -50.0, 1e3]))
    return (values + offset) * scale


def varies(v):
    with np.errstate(over="ignore"):
        return np.std(v) != 0.0 and not (v == v[0]).all()


def same_bits(a: float, b: float) -> bool:
    return np.float64(a).tobytes() == np.float64(b).tobytes()


def scipy_pair(x, y):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # near-constant input warnings
        return stats.pearsonr(x, y).statistic, stats.spearmanr(x, y).statistic


@given(st.integers(3, 40).flatmap(lambda n: st.tuples(samples(n), samples(n))))
@settings(max_examples=400, deadline=None)
def test_matches_scipy_bit_for_bit(xy):
    x, y = xy
    assume(varies(x) and varies(y))
    pearson, spearman = correlate(x, y)
    want_pearson, want_spearman = scipy_pair(x, y)
    assert same_bits(pearson, want_pearson)
    assert same_bits(spearman, want_spearman)


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_non_finite_input_matches_scipy(bad):
    x = [1.0, 2.0, bad, 4.0]
    y = [1.0, 3.0, 2.0, 5.0]
    got = correlate(x, y)
    want = scipy_pair(x, y)
    for a, b in zip(got, want):
        assert (math.isnan(a) and math.isnan(b)) or same_bits(a, b)
