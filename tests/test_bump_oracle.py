"""bump_transform, bump-kernel series and the decay guard's far-field
constant, against 30-digit mpmath quadratures of the bump."""

import functools

import mpmath
import numpy as np
import pytest

from bandtile import bandlimited
from bandtile.bandlimited import BandSignal, BumpKernel, bump_transform


def _bump(u):
    return mpmath.exp(-1 / (1 - u * u))


@functools.cache
def _bump_mass():
    """The integral of the bump over [0, 1] at 30 digits, by tanh-sinh."""
    with mpmath.workdps(30):
        return mpmath.quad(_bump, [0, 1])


def reference(tau, t, nodes=(0.0,), coeffs=(1.0,)):
    """sum_k coeffs[k] times the normalized cosine transform of the bump on
    (-1, 1) at t - nodes[k], integrated over [0, 1] (the integrand is even)
    in about one piece per period of the fastest term, at 30 digits.

    The pieces are integrated by Gauss-Legendre, which agrees with
    mpmath's default tanh-sinh on them within 1.9e-26 relative at every
    test point (worst at |t| = 100/tau) and runs 2.8 to 4.4 times faster
    at |t| >= 20."""
    with mpmath.workdps(30):
        oms = [mpmath.pi * tau * (mpmath.mpmathify(t) - n) for n in nodes]
        pts = mpmath.linspace(0, 1, 3 + int(max(abs(om) for om in oms)
                                            / mpmath.pi))
        num = mpmath.quad(lambda u: sum(c * mpmath.cos(om * u) for om, c
                                        in zip(oms, coeffs)) * _bump(u), pts,
                          method="gauss-legendre")
        return complex(num / _bump_mass())


def _real_points(tau):
    return [0.0, 0.3, 7.3, 20.0, 50.0 / tau, -80.0 / tau, 100.0 / tau]


@pytest.mark.parametrize("tau", [0.5, 0.9])
def test_real_axis_up_to_100_over_tau(tau):
    ts = _real_points(tau)
    want = np.array([reference(tau, t).real for t in ts])
    # one call per point (panels sized by |t|) and one for the whole array
    # (panels sized by the largest |t|)
    for got in (np.array([bump_transform(tau, t) for t in ts]),
                bump_transform(tau, np.array(ts))):
        err = np.abs(got - want)
        # measured: 6.5e-11 absolute at t = 7.3 on a 4-panel rule, 1.7e-7
        # relative at |t| = 100/tau where the value is ~1.4e-9
        assert np.all(err <= 1e-9)
        assert np.all(err <= 1e-6 * np.abs(want))


@pytest.mark.parametrize("tau", [0.5, 0.9])
def test_series_real_axis_up_to_100_over_tau(tau):
    # BandSignal.eval sums a bump series through its spectrum; it must meet
    # the bounds of bump_transform itself
    nodes = (-1.25, 0.4, 2.7)
    coeffs = (0.8 - 0.3j, -0.5 + 1.1j, 0.35 + 0.2j)
    sig = BandSignal(nodes, coeffs, BumpKernel(tau))
    ts = _real_points(tau)
    want = np.array([reference(tau, t, nodes, coeffs) for t in ts])
    for got in (np.array([sig.eval(t) for t in ts]), sig.eval(np.array(ts))):
        err = np.abs(got - want)
        # measured: 2.8e-10 absolute at t = 0.3 on a 4-panel rule, 5.0e-7
        # relative at |t| = 100/tau where the value is ~1.6e-9
        assert np.all(err <= 1e-9)
        assert np.all(err <= 1e-6 * np.abs(want))


@pytest.mark.parametrize("tau", [0.5, 0.9])
def test_complex_continuation(tau):
    ts = np.array([3 + 2j, -7.5 + 1j, 2j])
    want = np.array([reference(tau, t) for t in ts])
    for got in (np.array([bump_transform(tau, t) for t in ts]),
                bump_transform(tau, ts)):
        assert got.dtype == complex
        # measured worst: 1.0e-8 relative at tau = 0.9, t = 3+2j
        assert np.all(np.abs(got - want) <= 1e-7 * np.abs(want))


def test_complex_input_on_the_real_axis_takes_the_real_path():
    ts = np.linspace(-40.0, 40.0, 81)
    real = bump_transform(0.5, ts)
    on_axis = bump_transform(0.5, ts.astype(complex))
    assert on_axis.dtype == float
    assert np.array_equal(real, on_axis)
    assert bump_transform(0.5, 7.3 + 0j) == bump_transform(0.5, 7.3)
    assert isinstance(bump_transform(0.5, 7.3), float)
    # t = 0 on rules of 4, 5 and 8 panels
    for tmax in (0.0, 10.0, 20.0):
        at_zero = bump_transform(0.5, np.array([0.0, tmax]))[0]
        assert abs(at_zero - 1.0) <= 1e-15


def test_far_field_bound_constant():
    """The decay guard's far-field constant is (65/64) N2 / pi^2 with
    N2 = ||beta''||_1 / ||beta||_1, beta'' = beta (6u^4 - 2) / (1-u^2)^4;
    the integrand is even, so each norm is twice its half on [0, 1], split
    at the sign change u^4 = 1/3."""
    with mpmath.workdps(30):
        a = mpmath.mpf(3) ** mpmath.mpf(-0.25)

        def curvature(u):
            return _bump(u) * (6 * u ** 4 - 2) / (1 - u * u) ** 4

        n2 = ((abs(mpmath.quad(curvature, [0, a]))
               + abs(mpmath.quad(curvature, [a, 1])))
              / _bump_mass())
        want = float(mpmath.mpf(65) / 64 * n2 / mpmath.pi ** 2)
    assert bandlimited._FAR_FIELD_BOUND == pytest.approx(want, rel=1e-12,
                                                         abs=0)
