"""The Weierstrass finite product on the real axis against the complex
row-major product it replaces, bit for bit.

_finite_product takes a float64 node-major product when every point is
real, and the complex product otherwise. complex_product is the row-major
complex product as it was written before the real path existed, over each
row of the reciprocal table without its zero pads; each evaluator is run
once as it is and once with complex_product in place of _finite_product.
division_product is the same product over the nodes themselves, z/node in
place of z * (1/node)."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bandtile import interpolation
from bandtile.interpolation import (GridParams, NodeMultiset,
                                    _finite_product, _node_table,
                                    cardinal_kernel,
                                    random_admissible_multiset, saturate,
                                    weierstrass_product)

PROPERTY = settings(derandomize=True, deadline=None, database=None,
                    max_examples=150)


def complex_product(inv, z_flat):
    out = np.empty((inv.shape[0], z_flat.size), complex)
    for i, row in enumerate(inv):
        out[i] = np.prod(1.0 - z_flat[:, None] * row[row != 0.0], axis=1)
    return out


def division_product(mset, z_flat, block_radius):
    pos = mset.positions()
    keep = ((np.abs(pos) > interpolation.POSITION_ZERO_TOL)
            & (np.abs(mset.block_index()) <= block_radius))
    nodes = np.repeat(pos[keep], mset.multiplicities()[keep])
    return np.prod(1.0 - z_flat[:, None] / nodes, axis=1)


# each looks _finite_product up when called, so _both can swap it
EVALUATORS = {
    "_finite_product": lambda m, z, a: interpolation._finite_product(
        _node_table(m, a), z)[0],
    "weierstrass_product": lambda m, z, a: weierstrass_product(m, z, a),
    "weierstrass_product-tail": lambda m, z, a: weierstrass_product(
        m, z, a, lattice_tail=True),
    "cardinal_kernel": lambda m, z, a: cardinal_kernel(m, z, a),
}


def _both(name, mset, z, radius):
    """(evaluator as it is, evaluator over complex_product) at z."""
    f = EVALUATORS[name]
    got = f(mset, z, radius)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(interpolation, "_finite_product", complex_product)
        want = f(mset, z, radius)
    return got, want


def _bits(a):
    return np.ascontiguousarray(a).view(np.int64)


@st.composite
def cases(draw, off_axis):
    """A multiset (random admissible, saturated or without nodes), a block
    radius and complex points in the lattice tail's reach, some exactly at
    nodes; with off_axis, at least one point has a nonzero imaginary
    part."""
    l = draw(st.sampled_from([1, 3, 4]))
    params = GridParams(l=l, rho=Fraction(draw(st.integers(1, 3)), l),
                        tau=draw(st.sampled_from([0.5, 0.9])))
    radius = draw(st.integers(0, 12))
    window = (-radius - 2, radius + 2)
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    mset = random_admissible_multiset(params, window, rng)
    kind = draw(st.sampled_from(["random", "saturated", "empty"]))
    if kind == "saturated":
        mset = saturate(mset)
    elif kind == "empty":
        mset = NodeMultiset((), params, window)
    reach = 0.6 * (radius + 1) * l
    nodes = [q for q in saturate(mset).positions().tolist() if abs(q) < reach]
    real = st.one_of(st.floats(-reach, reach),
                     st.sampled_from(nodes + [0.0, -0.0]))
    imag = (st.one_of(st.sampled_from([0.0, -0.0]),
                      st.floats(-reach / 2, reach / 2)) if off_axis
            else st.sampled_from([0.0, -0.0]))
    zs = draw(st.lists(st.builds(complex, real, imag), max_size=40))
    if off_axis:
        zs.insert(draw(st.integers(0, len(zs))),
                  complex(draw(real), draw(st.floats(1e-3, reach / 2))
                          * draw(st.sampled_from([1.0, -1.0]))))
    return mset, radius, np.array(zs, dtype=complex)


@pytest.mark.parametrize("name", sorted(EVALUATORS))
@settings(PROPERTY)
@given(case=cases(off_axis=False))
def test_real_points_keep_the_real_parts_bitwise(name, case):
    mset, radius, z = case
    got, want = _both(name, mset, z, radius)
    assert got.dtype == np.complex128 and got.shape == z.shape
    assert np.array_equal(_bits(got.real), _bits(want.real))
    # the complex product leaves a zero imaginary part of either sign; the
    # real path leaves +0 off the nodes, which == cannot tell apart
    assert np.all(got.imag == 0.0)


@pytest.mark.parametrize("name", sorted(EVALUATORS))
@settings(PROPERTY)
@given(case=cases(off_axis=True))
def test_off_axis_points_keep_both_parts_bitwise(name, case):
    mset, radius, z = case
    got, want = _both(name, mset, z, radius)
    # the bits hold the sign of every zero too
    assert np.array_equal(_bits(got), _bits(want))


def test_points_on_nodes_keep_the_sign_of_their_zero():
    params = GridParams(l=1, rho=Fraction(1), tau=0.5)
    mset = saturate(NodeMultiset((), params, (-8, 8)))
    z = np.arange(-6.0, 7.0).astype(complex)
    got = _finite_product(_node_table(mset, 8), z)[0]
    want = complex_product(_node_table(mset, 8), z)[0]
    on_node = z != 0
    # both signs occur among the zeros, and each keeps the complex one's,
    # in both parts
    assert set(np.signbit(want.real[on_node])) == {False, True}
    assert np.array_equal(_bits(got[on_node]), _bits(want[on_node]))
    assert np.all(got[~on_node] == 1.0)


@pytest.mark.parametrize("name", sorted(EVALUATORS))
def test_no_nodes_or_no_points(name):
    params = GridParams(l=3, rho=Fraction(2, 3), tau=0.5)
    empty = NodeMultiset((), params, (0, 0))
    z = np.array([0.5, -1.25, 2.0], dtype=complex)
    got, want = _both(name, empty, z, 0)
    assert np.array_equal(got.real, want.real) and np.all(got.imag == 0.0)
    lattice = saturate(NodeMultiset((), params, (-4, 4)))
    got, want = _both(name, lattice, np.zeros(0, dtype=complex), 4)
    assert got.shape == want.shape == (0,) and got.dtype == np.complex128


@settings(PROPERTY)
@given(case=st.one_of(cases(off_axis=False), cases(off_axis=True)))
def test_reciprocal_product_equals_division_by_the_nodes(case):
    # the factors 1 - z * (1/node) and 1 - z/node agree bit for bit
    mset, radius, z = case
    got = complex_product(_node_table(mset, radius), z)[0]
    assert np.array_equal(_bits(got), _bits(division_product(mset, z,
                                                             radius)))
