"""The idealized lattice tail against its closed form in Gamma functions,
prod_{n>A} (1 - w^2/n^2) = Gamma(A+1)^2 / (Gamma(A+1-w) Gamma(A+1+w))
(the Weierstrass product of Gamma, DLMF 5.8), at 40 digits."""

import mpmath
import numpy as np
import pytest

from bandtile.interpolation import _lattice_tail


def reference(w, block_radius, lrho):
    with mpmath.workdps(40):
        q = block_radius + 1
        w = mpmath.mpc(w)
        ratio = mpmath.gamma(q) ** 2 / (mpmath.gamma(q - w)
                                        * mpmath.gamma(q + w))
        return complex(ratio ** lrho)


def _points(block_radius, count=100):
    """Complex points with |Re w| <= 0.94 (A+1), inside the disc of radius
    0.949 (A+1) that _lattice_tail accepts; the real axis, where the
    factors come closest to zero, is sampled on its own."""
    q = block_radius + 1
    rng = np.random.default_rng(block_radius)
    re = rng.uniform(-0.94 * q, 0.94 * q, count)
    im = rng.uniform(-1.0, 1.0, count) * np.sqrt((0.949 * q) ** 2 - re ** 2)
    axis = np.linspace(-0.94 * q, 0.94 * q, 9)
    return np.concatenate([re + 1j * im, axis.astype(complex)])


@pytest.mark.parametrize("block_radius", [8, 16, 32, 40])
def test_lattice_tail_matches_gamma_closed_form(block_radius):
    w = _points(block_radius)
    for lrho in (1, 2, 4):
        got = _lattice_tail(w, block_radius, lrho)
        want = np.array([reference(x, block_radius, lrho) for x in w])
        rel = np.abs(got - want) / np.abs(want)
        # measured worst: 1.9e-13 over 200 random points per radius
        assert np.max(rel) <= 1e-12
