"""band_check's leakage against mpmath quadratures of the Hann-tapered
transform: the line transform H itself, a bump series in the frequency
domain, and a sinc and a tone signal in the time domain."""

import mpmath
import pytest

from bandtile.bandlimited import (
    Band,
    BandSignal,
    BumpKernel,
    SincKernel,
    band_check,
    hann_transform,
    tone_signal,
)

BAND = Band(2.0, 3.0)
PROBES = [1.3, 3.7]
DPS = 16


def _quad(fn, lo, hi, periods):
    """Gauss-Legendre quadrature of fn over [lo, hi], in one piece per 4
    periods of its oscillation, at least 2 pieces."""
    pts = mpmath.linspace(lo, hi, 3 + int(periods / 4))
    return mpmath.quad(fn, pts, method="gauss-legendre")


def _tapered(fn, f, T):
    """integral over [-T, T] of fn(t) cos^2(pi t / 2T) e^(-2 pi i f t), over
    T, for fn of frequencies at most 4."""
    T = mpmath.mpf(T)

    def integrand(t):
        taper = mpmath.cos(mpmath.pi * t / (2 * T)) ** 2
        return fn(t) * taper * mpmath.expjpi(-2 * f * t)

    return _quad(integrand, -T, T, 2 * T * (abs(f) + 4)) / T


@pytest.mark.parametrize("nu, T", [(0.0, 4.0), (0.03, 8.0), (0.3, 4.0),
                                   (-1.7, 2.0), (0.0625, 8.0)])
def test_hann_transform_matches_quadrature(nu, T):
    with mpmath.workdps(DPS):
        Tm = mpmath.mpf(T)
        want = _quad(lambda t: mpmath.cos(mpmath.pi * t / (2 * Tm)) ** 2
                     * mpmath.expjpi(2 * nu * t),
                     -Tm, Tm, 2 * T * abs(nu)) / Tm
    # measured: at most 1.1e-16
    assert abs(hann_transform(nu, T) - complex(want)) <= 1e-15


def _bump_leakage(sig, f, T):
    """The leakage of a bump series as a frequency-domain integral: the
    series is int p(u)/Z sum_k c_k e^(-i pi tau u n_k) e^(2 pi i (c +
    tau u / 2) t) du over [-1, 1], with p the bump profile, so its tapered
    transform is the same integral with H(c + tau u / 2 - f) in place of
    the line."""
    tau, c = sig.kernel.tau, sig.carrier_freq
    nodes, coeffs = sig.nodes.tolist(), sig.coeffs.tolist()
    with mpmath.workdps(DPS):
        Tm = mpmath.mpf(T)

        def p(u):
            return mpmath.exp(-1 / (1 - u * u))

        def h(nu):
            x = 2 * Tm * nu
            return (mpmath.sincpi(x) + mpmath.sincpi(x + 1) / 2
                    + mpmath.sincpi(x - 1) / 2)

        def integrand(u):
            lines = sum(ck * mpmath.expjpi(-tau * u * nk)
                        for nk, ck in zip(nodes, coeffs))
            return p(u) * lines * h(c + tau * u / 2 - f)

        periods = T * tau + tau * max(abs(n) for n in nodes)
        return abs(_quad(integrand, -1, 1, periods) / _quad(p, -1, 1, 0))


@pytest.mark.parametrize("carrier", [2.5, 3.5])
def test_bump_leakage_matches_frequency_domain_integral(carrier):
    # complex coefficients on nodes off centre, so the spectrum is not
    # symmetric about the carrier; at 3.5 the probe 3.7 lies inside the
    # lines and reads about 0.3
    sig = BandSignal((-2.0, 0.5, 3.0), (0.8 - 0.3j, -0.5 + 1.1j, 0.35),
                     BumpKernel(0.9), carrier_freq=carrier)
    T = 8.0
    rep = band_check(sig, BAND, PROBES, half_window=T)
    for f, got in rep.leakage:
        want = float(_bump_leakage(sig, f, T))
        # measured: 1.8e-13 at 3.7 under the carrier 3.5, where the leakage
        # is 0.35 (the bump rule's own error), at most 2.5e-17 elsewhere
        assert abs(got - want) <= 1e-12


@pytest.mark.parametrize("sig", [
    tone_signal(3.6),
    BandSignal((-1.0, 0.0, 2.5), (1.0, -0.4 + 0.7j, 0.6j), SincKernel(0.45),
               carrier_freq=2.5),
], ids=["tone", "sinc"])
def test_time_quadrature_leakage_matches_mpmath(sig):
    T = 4.0
    rep = band_check(sig, BAND, PROBES, half_window=T)
    if isinstance(sig.kernel, SincKernel):
        def fn(t):
            return sum(ck * mpmath.sincpi(2 * sig.kernel.halfwidth * (t - nk))
                       for nk, ck in zip(sig.nodes.tolist(),
                                         sig.coeffs.tolist())) \
                * mpmath.expjpi(2 * sig.carrier_freq * t)
    else:
        def fn(t):
            return mpmath.sinpi(2 * sig.kernel.freq * t)
    for f, got in rep.leakage:
        with mpmath.workdps(DPS):
            want = float(abs(_tapered(fn, f, T)))
        # measured: at most 5.6e-17, for the tone at 3.7
        assert abs(got - want) <= 1e-13 * (1.0 + want)
