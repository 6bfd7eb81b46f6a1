"""The evaluation contract of numutil (pointwise and row_blocks) on the four
evaluators that share it: the shapes and types they give back, several row
blocks against one, and the memory of one large evaluation."""

import math
import re
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bandtile import numutil
from bandtile.bandlimited import (BandSignal, BumpKernel, SincKernel,
                                  ToneKernel, bump_transform)
from bandtile.interpolation import (GridParams, NodeMultiset,
                                    _finite_product, _node_table,
                                    cardinal_kernel,
                                    random_admissible_multiset, saturate,
                                    weierstrass_product)

PROPERTY = settings(derandomize=True, deadline=None, database=None)
PARAMS = GridParams(l=1, rho=Fraction(1), tau=0.5)
MSET = saturate(random_admissible_multiset(PARAMS, (-16, 16),
                                           np.random.default_rng(5)))
SIGNAL = BandSignal((-1.5, 0.0, 2.25), (1.0, -0.5j, 2.0 + 1.0j),
                    BumpKernel(0.8), carrier_freq=2.5)

# name -> (evaluator of the points alone, scalar type, array dtype)
EVALUATORS = {
    "bump_transform": (lambda x: bump_transform(0.7, x), float, np.float64),
    "BandSignal.eval": (SIGNAL.eval, complex, np.complex128),
    "weierstrass_product": (
        lambda z: weierstrass_product(MSET, z, 12, lattice_tail=True),
        complex, np.complex128),
    "cardinal_kernel": (lambda z: cardinal_kernel(MSET, z, 12), complex,
                        np.complex128),
}


@pytest.mark.parametrize("name", sorted(EVALUATORS))
def test_points_keep_their_shape(name):
    f, scalar_type, dtype = EVALUATORS[name]
    grid = np.array([[0.25, -1.5, 3.0], [0.5, 2.0, -0.75]])
    for pts in (grid, grid[0], np.zeros(0), np.zeros((2, 0))):
        out = f(pts)
        assert isinstance(out, np.ndarray)
        assert out.shape == pts.shape and out.dtype == dtype
    # the same points give the same values whatever their shape; a 0-d
    # point is the one-point array's only value, as a Python scalar
    assert np.array_equal(f(grid), f(grid.ravel()).reshape(2, 3))
    assert np.array_equal(f(grid.tolist()), f(grid))
    for x in (0.25, np.float64(-1.5), np.array(3.0)):
        got = f(x)
        assert type(got) is scalar_type
        assert np.array_equal(np.array([got]), f(np.array([float(x)])))


def test_points_can_be_passed_by_name():
    z = np.array([[0.25, -1.5], [3.0, 0.5]])
    assert np.array_equal(bump_transform(tau=0.7, t=z), bump_transform(0.7, z))
    assert np.array_equal(SIGNAL.eval(t=z), SIGNAL.eval(z))
    assert np.array_equal(
        weierstrass_product(mset=MSET, z=z, block_radius=12,
                            lattice_tail=True),
        weierstrass_product(MSET, z, 12, True))
    assert np.array_equal(cardinal_kernel(MSET, z=z, block_radius=12),
                          cardinal_kernel(MSET, z, 12))
    assert cardinal_kernel(MSET, z=0.5, block_radius=12) == \
        cardinal_kernel(MSET, 0.5, 12)


NON_FINITE = [math.nan, math.inf, -math.inf, complex(math.inf, 0.0),
              complex(0.0, -math.inf), complex(math.nan, 1.0)]


@pytest.mark.parametrize("bad", NON_FINITE,
                         ids=["nan", "inf", "-inf", "inf+0j", "-infj",
                              "nan+1j"])
@pytest.mark.parametrize("name", sorted(EVALUATORS))
def test_points_that_are_not_finite_are_rejected(name, bad):
    f = EVALUATORS[name][0]
    # a complex point is refused before a real evaluator casts it
    for pts in (bad, [0.5, bad], np.array([[0.25, 1.0], [bad, -2.0]])):
        with pytest.raises(ValueError, match=re.escape(
                f"points must be finite, got {[bad]} (1 of")):
            f(pts)


def _in_blocks(cap, fn):
    """fn() with the row-block cap set to cap entries."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(numutil, "ROW_BLOCK_ENTRIES", cap)
        return fn()


def test_row_blocks_split_and_join_in_order():
    seen = []

    def record(block):
        seen.append(block.size)
        return block * 2.0

    pts = np.arange(10.0)
    out = _in_blocks(12, lambda: numutil.row_blocks(record, pts, 4))
    assert seen == [3, 3, 3, 1] and np.array_equal(out, pts * 2.0)
    seen.clear()
    out = _in_blocks(3, lambda: numutil.row_blocks(record, pts, 4))
    assert seen == [1] * 10 and np.array_equal(out, pts * 2.0)
    seen.clear()
    assert numutil.row_blocks(record, np.zeros(0), 0).shape == (0,)
    assert seen == [0]


@st.composite
def signals(draw, kernels):
    nodes = draw(st.lists(st.floats(-60.0, 60.0), min_size=1, max_size=12,
                          unique=True))
    coeffs = [complex(draw(st.floats(-3.0, 3.0)), draw(st.floats(-3.0, 3.0)))
              for _ in nodes]
    kernel = draw(st.sampled_from(kernels))(draw(st.floats(0.05, 3.0)))
    carrier = draw(st.one_of(st.just(0.0), st.floats(-6.0, 6.0)))
    return BandSignal(np.sort(nodes), coeffs, kernel, carrier_freq=carrier)


POINTS = st.lists(st.floats(-150.0, 150.0), min_size=1, max_size=60)
CAPS = st.integers(1, 3000)


# The matrix products of the bump lines and of the sinc and tone offsets go
# through BLAS, whose kernels may round a row differently by its place in
# the block (OpenBLAS 0.3.31 on x86-64): over 2,500 random splits each,
# bump_transform moved by up to 1.0e-15 and the bump eval by up to
# 5.6e-16 (1 + sum |c|). Both sums weigh their terms by at most
# 1 + sum |c| (the bump weights sum to 1), hence one bound for both.


@settings(PROPERTY, max_examples=300)
@given(signals([BumpKernel, SincKernel, ToneKernel]), POINTS, CAPS)
def test_eval_in_blocks_matches_one_block(s, points, cap):
    ts = np.array(points)
    got = _in_blocks(cap, lambda: s.eval(ts))
    bound = 1e-15 * (1.0 + np.abs(s.coeffs).sum())
    assert np.max(np.abs(got - s.eval(ts))) <= bound


@settings(PROPERTY, max_examples=200)
@given(st.floats(0.05, 3.0), POINTS, CAPS)
def test_bump_transform_in_blocks_matches_one_block(tau, points, cap):
    ts = np.array(points)
    got = _in_blocks(cap, lambda: bump_transform(tau, ts))
    assert np.max(np.abs(got - bump_transform(tau, ts))) <= 2e-15


# Off the real axis, np.prod reduces each complex row on its own; on it,
# the float64 product multiplies whole node rows into the points, one
# node at a time. Either way a point's product is the same sequence of
# multiplications in every block, so the product is split-exact.
@settings(PROPERTY, max_examples=100)
@given(st.integers(0, 2 ** 32 - 1), st.integers(2, 16),
       st.lists(st.complex_numbers(max_magnitude=12.0), min_size=1,
                max_size=60), st.integers(1, 400))
def test_finite_product_in_blocks_equals_one_block_bitwise(seed, radius, zs,
                                                           cap):
    mset = saturate(random_admissible_multiset(
        PARAMS, (-radius, radius), np.random.default_rng(seed)))
    z = np.array(zs, dtype=complex)
    table = _node_table(mset, radius)
    got = _in_blocks(cap, lambda: _finite_product(table, z))
    assert np.array_equal(got, _finite_product(table, z))


# st.complex_numbers almost never lands on the real axis, which takes the
# float64 path; this draws real points, some of them on nodes
@settings(PROPERTY, max_examples=100)
@given(st.integers(0, 2 ** 32 - 1), st.integers(2, 16),
       st.lists(st.one_of(st.floats(-12.0, 12.0),
                          st.integers(-12, 12).map(float)),
                min_size=1, max_size=60), st.integers(1, 400))
def test_finite_product_of_real_points_in_blocks_equals_one_block_bitwise(
        seed, radius, xs, cap):
    mset = saturate(random_admissible_multiset(
        PARAMS, (-radius, radius), np.random.default_rng(seed)))
    z = np.array(xs, dtype=complex)
    table = _node_table(mset, radius)
    got = _in_blocks(cap, lambda: _finite_product(table, z))
    want = _finite_product(table, z)
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


MIB = 2 ** 20
# One evaluation at T points and K = 1000 nodes, T * K = 1.6e7. Built in
# one piece, its (T x K) matrices peaked at 610 MiB for the sinc eval and
# 487 MiB for the product (tracemalloc); in row blocks of 4e6 entries they
# peak near 153 MiB for the sinc eval, 122 MiB for the complex product off
# the real axis and 31 MiB for the float64 product on it, whatever T.
# The bump eval's matrices are T x U for its U spectral lines: here U = 1032
# and T * U = 1.65e7. In row blocks it peaks near 94 MiB, the phases, their
# cosines (taken on the helper thread) and their sines of one block.
PEAK_BOUND_MIB = 256
NODES = 1000
POINTS_T = 16_000


def _peak_mib(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / MIB
    finally:
        tracemalloc.stop()


def _sinc_eval(T):
    rng = np.random.default_rng(0)
    s = BandSignal(np.arange(NODES) / 4.0 - 125.0,
                   rng.normal(size=NODES) + 1j * rng.normal(size=NODES),
                   SincKernel(2.0))
    ts = np.linspace(-200.0, 200.0, T)
    return lambda: s.eval(ts)


def _bump_eval(T):
    rng = np.random.default_rng(0)
    s = BandSignal(np.arange(NODES) / 4.0 - 125.0,
                   rng.normal(size=NODES) + 1j * rng.normal(size=NODES),
                   BumpKernel(0.19))
    ts = np.linspace(-200.0, 200.0, T)
    return lambda: s.eval(ts)


def _product(T, imag=0.0):
    half = NODES // 2
    lattice = saturate(NodeMultiset((), PARAMS, (-half, half)))
    z = np.linspace(-2.0, 2.0, T) + 1j * imag
    return lambda: weierstrass_product(lattice, z, half)


def _product_off_axis(T):
    return _product(T, imag=0.5)


@pytest.mark.parametrize("case", [_sinc_eval, _bump_eval, _product,
                                  _product_off_axis])
def test_large_evaluation_memory_is_bounded(case):
    small = _peak_mib(case(POINTS_T))
    assert small < PEAK_BOUND_MIB
    # only the O(T) input and output grow with T
    assert _peak_mib(case(4 * POINTS_T)) <= 1.1 * small
