import math
import multiprocessing
import sys
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bandtile.bandlimited import (
    Band,
    BandSignal,
    BumpKernel,
    SincKernel,
    StressReport,
    ToneKernel,
    _bump_rule,
    _continuous_grid,
    _lowpass_draw,
    band_check,
    bump_transform,
    sample,
    sampling_injectivity_stress,
    tone_signal,
)
from bandtile import numutil
from bandtile.numutil import cispi, composite_gauss


def test_eval_single_node_normalization():
    s = BandSignal((0.0,), (1.0 + 0.0j,), SincKernel(0.45))
    assert s.eval(0.0) == 1.0


def test_eval_empty_signal_is_zero():
    s = BandSignal((), (), SincKernel(0.45))
    assert s.eval(0.0) == 0.0
    assert s.eval(17.3) == 0.0


SINC_SPECIAL = [0.0, -0.0, 5e-324, -5e-324, 1e-300, -2.2e-308, 1e-17,
                0.5, 1.0, -3.0, 1e15, 2.0 ** 52 + 0.5, 1e300, -1.7e308]


@settings(derandomize=True, deadline=None, database=None, max_examples=200)
@given(st.floats(1e-3, 1e3), st.lists(st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.floats(-64.0, 64.0), st.sampled_from(SINC_SPECIAL)), max_size=64),
    st.sampled_from([(-1,), (-1, 2), (2, -1)]))
def test_sinc_eval_has_the_bits_of_np_sinc(c, values, shape):
    # random, signed zero, subnormal, tiny and huge arguments, where y = pi
    # x overflows or rounds to zero
    u = np.array(values + SINC_SPECIAL)
    if len(shape) == 2:
        u = u[:u.size // 2 * 2].reshape(shape)
    with np.errstate(over="ignore", invalid="ignore"):
        got = SincKernel(c).eval(u)
        want = np.sinc(2.0 * c * u)
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def test_sinc_eval_of_a_scalar_is_np_sinc_of_it():
    k = SincKernel(0.45)
    for x in (0.0, -0.0, 0.3, 7):
        got, want = k.eval(x), np.sinc(2.0 * 0.45 * np.asarray(x, float))
        assert type(got) is type(want) and got == want


def test_sinc_eval_memory_is_two_arrays():
    # the stress table at `sampling --halfwidth 300`: 76,993 x 25 offsets,
    # 14.7 MiB; np.sinc's temporaries peaked at 58.7 MiB beside it, the
    # copy and the sines take 29.4 MiB
    u = np.random.default_rng(0).uniform(-40.0, 40.0, size=(76_993, 25))
    k = SincKernel(300.0)
    tracemalloc.start()
    try:
        k.eval(u)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.1 * u.nbytes


def test_eval_two_nodes_matches_direct_sum():
    # nodes {0, 1}, unit coefficients: value at 1/2 is the sum of the
    # kernel at +1/2 and -1/2
    k = SincKernel(0.45)
    s = BandSignal((0.0, 1.0), (1.0, 1.0), k)
    direct = complex(k.eval(0.5)) + complex(k.eval(-0.5))
    assert s.eval(0.5) == pytest.approx(direct, abs=1e-12)


def _direct_bump_sum(sig, t):
    """The per-(point, node) sum that BandSignal.eval replaces for bump
    kernels, with the carrier applied after it."""
    ts = np.atleast_1d(np.asarray(t, dtype=float))
    nodes, coeffs = np.array(sig.nodes), np.array(sig.coeffs)
    vals = bump_transform(sig.kernel.tau, ts[:, None] - nodes[None, :]) @ coeffs
    if sig.carrier_freq != 0.0:
        vals = vals * cispi(2.0 * sig.carrier_freq * ts)
    return vals


def test_bump_eval_matches_direct_sum():
    # measured: max |eval - direct| / (1 + sum |c_k|) = 1.9e-16 over these
    # draws; the bound below leaves a factor of about 5
    rng = np.random.default_rng(2024)
    for trial in range(24):
        tau = float(rng.uniform(0.3, 1.5))
        count = int(rng.integers(1, 40))
        nodes = np.sort(rng.uniform(-30.0, 30.0, count))
        coeffs = rng.normal(size=count) + 1j * rng.normal(size=count)
        sig = BandSignal(tuple(nodes), tuple(coeffs), BumpKernel(tau),
                         carrier_freq=(0.0, 2.5)[trial % 2])
        bound = 1e-15 * (1.0 + np.abs(coeffs).sum())
        # points beyond the node span on both sides, and on nodes
        ts = np.concatenate([rng.uniform(-70.0, 70.0, 60), nodes[:3]])
        assert np.max(np.abs(sig.eval(ts) - _direct_bump_sum(sig, ts))) <= bound
        for t in (ts[0], nodes[0]):
            got = sig.eval(t)
            assert isinstance(got, complex)
            assert abs(got - _direct_bump_sum(sig, t)[0]) <= bound
        empty = sig.eval(np.array([]))
        assert empty.shape == (0,) and empty.dtype == complex


def test_band_check_midband_tone_passes():
    band = Band(2.0, 3.0)
    s = tone_signal(2.5)
    rep = band_check(s, band, probe_freqs=[1.0, 4.0], tol=1e-3)
    assert rep.passed


def test_band_check_zero_signal():
    rep = band_check(BandSignal((), (), SincKernel(0.45)), Band(2.0, 3.0),
                     probe_freqs=[1.0, 4.0], tol=1e-12)
    assert rep.passed
    assert all(v == 0.0 for _, v in rep.leakage)


def test_band_check_out_of_band_tone_fails():
    band = Band(2.0, 3.0)
    s = tone_signal(4.0)
    rep = band_check(s, band, probe_freqs=[4.0], tol=1e-3)
    assert not rep.passed
    assert dict(rep.leakage)[4.0] > 0.1


BAND = Band(2.0, 3.0)
PROBES = [BAND.lo - 0.7, BAND.hi + 0.7]


def test_band_check_rejects_an_empty_probe_list():
    # with no probe nothing is checked, so nothing may pass
    sig = BandSignal(np.arange(-4.0, 5.0), np.ones(9), BumpKernel(0.9),
                     carrier_freq=BAND.carrier())
    with pytest.raises(ValueError, match="at least one probe"):
        band_check(sig, BAND, [])


@pytest.mark.parametrize("kwargs, message", [
    ({"probe_freqs": [math.nan]}, "probe_freqs must be finite"),
    ({"probe_freqs": [math.inf]}, "probe_freqs must be finite"),
    ({"probe_freqs": [1.3, -math.inf]}, "probe_freqs must be finite"),
    ({"half_window": math.nan}, "half_window must be finite and positive"),
    ({"half_window": math.inf}, "half_window must be finite and positive"),
    ({"half_window": -4.0}, "half_window must be finite and positive"),
    ({"tol": math.nan}, "tol must be finite and positive"),
    ({"tol": math.inf}, "tol must be finite and positive"),
], ids=["probe-nan", "probe-inf", "probe-neg-inf", "window-nan",
        "window-inf", "window-negative", "tol-nan", "tol-inf"])
def test_band_check_rejects_arguments_that_are_not_finite(kwargs, message):
    sig = BandSignal(np.arange(-4.0, 5.0), np.ones(9), BumpKernel(0.9),
                     carrier_freq=BAND.carrier())
    args = {"probe_freqs": PROBES, **kwargs}
    with pytest.raises(ValueError, match=message):
        band_check(sig, BAND, **args)


def test_band_check_evaluates_the_signal_once(monkeypatch):
    sizes = []
    plain_eval = BandSignal.eval

    def counting_eval(self, t):
        sizes.append(np.size(t))
        return plain_eval(self, t)

    monkeypatch.setattr(BandSignal, "eval", counting_eval)
    sig = BandSignal(np.arange(-4.0, 5.0), np.ones(9), BumpKernel(0.9),
                     carrier_freq=BAND.carrier())
    band_check(sig, BAND, PROBES, half_window=16.0)
    # one pass, on the 11 panels of 24 Gauss nodes that the baseband
    # (at least 1 Hz) needs and the two cut points: the leakage of a bump
    # series comes from its spectral lines, not from these samples
    assert sizes == [266]


def test_window_short_flags_a_tone_and_clears_a_centred_bump_series():
    # a tone never decays: its edge share is 1, and passed ignores it
    tone = band_check(tone_signal(2.5), BAND, PROBES, half_window=16.0)
    assert tone.passed and tone.window_short
    assert tone.edge_fraction == pytest.approx(1.0, abs=1e-3)
    coeffs = np.random.default_rng(7).normal(size=9) + 0j
    sig = BandSignal(np.arange(-4.0, 5.0), coeffs, BumpKernel(0.9),
                     carrier_freq=BAND.carrier())
    bump = band_check(sig, BAND, PROBES, half_window=16.0)
    assert bump.passed and not bump.window_short
    assert bump.edge_fraction < 0.01


def test_window_short_reads_the_value_at_the_cut():
    # a sinc lobe falls through 0.3 of its peak at the cut 0.8 T = 8; on
    # the 8 Gauss panels that band_check resolves for the baseband at
    # T = 10, the first node past the cut reads 0.229 of the peak, the cut
    # itself 0.310. A sinc series is evaluated point by point, so the
    # ratio is exact.
    sig = BandSignal((7.175,), (1.0,), SincKernel(0.45),
                     carrier_freq=BAND.carrier())
    ts, _ = composite_gauss(-10.0, 10.0, 8)
    mag = np.abs(sig.eval(np.append(ts, [-8.0, 8.0])))
    assert np.max(mag[:-2][np.abs(ts) >= 8.0]) < 0.3 * np.max(mag)
    rep = band_check(sig, BAND, PROBES, half_window=10.0)
    assert rep.window_short
    assert rep.edge_fraction == abs(sig.eval(8.0)) / np.max(mag)


def test_window_short_reads_the_value_at_the_cut_of_a_bump_series():
    # the same for a bump lobe, on the 8 Gauss panels that band_check
    # resolves for the baseband at T = 10: the first node past the cut lies
    # 0.068 beyond it and reads 0.266 of the peak, the cut itself 0.316.
    # One eval call, as band_check makes, so the bump rule is the same.
    sig = BandSignal((6.77,), (1.0,), BumpKernel(0.9),
                     carrier_freq=BAND.carrier())
    ts, _ = composite_gauss(-10.0, 10.0, 8)
    mag = np.abs(sig.eval(np.append(ts, [-8.0, 8.0])))
    assert np.max(mag[:-2][np.abs(ts) >= 8.0]) < 0.3 * np.max(mag)
    rep = band_check(sig, BAND, PROBES, half_window=10.0)
    assert rep.window_short
    assert rep.edge_fraction == pytest.approx(mag[-1] / np.max(mag),
                                              rel=1e-12)


def edge_fraction_reference(s, T):
    """band_check's edge_fraction read on the uniform grid k/80 over
    [-T, T] instead of the quadrature nodes; for integer T the cut at
    0.8 T lies on the grid (|k| >= 64 T)."""
    k = np.arange(-80 * T, 80 * T + 1)
    mag = np.abs(s.eval(k / 80.0))
    return float(np.max(mag[np.abs(k) >= 64 * T]) / np.max(mag))


def edge_signals(T):
    """Bump series of 7 kernel copies centred from the middle of the
    window to its outer fifth, carrier-modulated sinc expansions on the
    half-integers of [-T/4, T/4] and [-3T/4, 3T/4], and a tone."""
    rng = np.random.default_rng(T)
    for centre in (0.0, 0.75, 0.8):
        coeffs = rng.normal(size=7) + 1j * rng.normal(size=7)
        yield BandSignal(np.arange(-3, 4) + round(centre * T), coeffs,
                         BumpKernel(0.9), carrier_freq=BAND.carrier())
    for spread in (0.25, 0.75):
        half = int(2 * spread * T)
        slots = rng.choice(np.arange(-half, half + 1), size=6, replace=False)
        coeffs = rng.normal(size=6) + 1j * rng.normal(size=6)
        yield BandSignal(np.sort(slots) / 2.0, coeffs, SincKernel(0.45),
                         carrier_freq=BAND.carrier())
    yield tone_signal(2.5)


@pytest.mark.parametrize("T", [8, 16, 24, 64])
def test_edge_fraction_matches_dense_grid_reference(T):
    # measured |edge_fraction - reference| over the 24 signals: at most
    # 2.3e-3, for a sinc expansion at T = 24 read on the baseband grid;
    # 5.3e-4 for a bump series at T = 16 still large at the cut
    for sig in edge_signals(T):
        rep = band_check(sig, BAND, PROBES, half_window=float(T))
        assert abs(rep.edge_fraction - edge_fraction_reference(sig, T)) <= 0.02


def test_sample_constant_all_ones():
    # sin(2 pi (t + 1) / 4) sampled once per period, at its crests
    s = BandSignal((-1.0,), (1.0,), ToneKernel(0.25))
    vals = sample(s, 4.0, (0, 7))
    assert vals.dtype == complex and vals.tolist() == [1.0 + 0.0j] * 8


def test_sample_cosine_frozen_values():
    # sin(2 pi (t + 1) / 4) = cos(pi t / 2), exact at the quarter periods
    s = BandSignal((-1.0,), (1.0,), ToneKernel(0.25))
    vals = sample(s, 0.5, (0, 3))
    assert vals.shape == (4,)
    assert vals[0] == 1.0 and vals[2] == 0.0
    assert vals[1] == pytest.approx(math.cos(0.25 * math.pi), abs=1e-15)
    assert vals[3] == pytest.approx(math.cos(0.75 * math.pi), abs=1e-15)


@pytest.mark.parametrize("window", [(0.7, 2.9), (0, 2.0), (True, 2),
                                    (np.float64(0.0), 2)])
def test_sample_rejects_window_ends_that_are_not_integers(window):
    # int() truncated (0.7, 2.9) to the three samples k = 0, 1, 2
    s = BandSignal((-1.0,), (1.0,), ToneKernel(0.25))
    with pytest.raises(ValueError, match="window ends must be integers"):
        sample(s, 1.0, window)


def test_sample_takes_numpy_integer_window_ends():
    s = BandSignal((-1.0,), (1.0,), ToneKernel(0.25))
    assert sample(s, 4.0, (np.int64(0), np.int64(7))).tolist() == (
        sample(s, 4.0, (0, 7)).tolist())


def test_stress_rejects_zero_trials():
    # with no trial nothing is checked, not even the injected counterexample
    for halfwidth in (0.4, 0.5):
        with pytest.raises(ValueError, match="trials must be >= 1"):
            sampling_injectivity_stress(halfwidth, 1, 0)


@pytest.mark.parametrize("denominator, trials, message", [
    # a fractional or boolean count is not an integer
    (2.5, 1, "denominator must be a positive integer"),
    (True, 1, "denominator must be a positive integer"),
    (1, 1.5, "trials must be >= 1"),
    (1, True, "trials must be >= 1"),
])
def test_stress_rejects_arguments_that_are_not_integers(denominator, trials,
                                                        message):
    with pytest.raises(ValueError, match=message):
        sampling_injectivity_stress(0.4, denominator, trials)


def test_stress_subcritical_band_no_violations():
    rep = sampling_injectivity_stress(0.4, 1, 100, seed=0)
    assert rep.violations == ()
    assert rep.min_ratio > 0.0


def test_nyquist_counterexample_vanishes_on_half_integers():
    """sin(2 pi t) is band limited to [-1, 1] yet every half-integer
    sample is exactly zero, so rate-1/2 sampling cannot separate it
    from the zero signal."""
    s = tone_signal(1.0)
    vals = sample(s, 0.5, (-64, 64))
    assert vals.shape == (129,) and np.all(vals == 0.0)


def test_stress_reports_counterexample_at_critical_rate():
    rep = sampling_injectivity_stress(1.0, 2, 10, seed=0)
    assert rep.counterexample is not None


@pytest.mark.parametrize("nodes, coeffs", [
    ((0.0, math.nan), (1.0, 1.0)),
    ((0.0, math.inf), (1.0, 1.0)),
    ((0.0, 1.0), (1.0, complex(math.nan, 0.0))),
    ((0.0, 1.0), (1.0, complex(0.0, -math.inf))),
    ((0.0, 1.0), (1.0,)),
    ([[0.0, 1.0]], [[1.0, 1.0]]),
    ((1.0, 1.0), (1.0, 1.0)),
    ((1.0, 0.0), (1.0, 1.0)),
])
def test_band_signal_rejects_bad_arrays(nodes, coeffs):
    with pytest.raises(ValueError):
        BandSignal(nodes, coeffs, SincKernel(0.4))


@pytest.mark.parametrize("build", [
    lambda: Band(0.0, math.inf),
    lambda: Band(-math.inf, 0.0),
    lambda: BumpKernel(math.nan),
    lambda: BumpKernel(math.inf),
    lambda: ToneKernel(math.nan),
    lambda: ToneKernel(math.inf),
    lambda: SincKernel(math.nan),
    lambda: BandSignal((0.0,), (1.0,), SincKernel(0.4),
                       carrier_freq=math.nan),
], ids=["band-hi-inf", "band-lo-inf", "bump-nan", "bump-inf", "tone-nan",
        "tone-inf", "sinc-nan", "carrier-nan"])
def test_non_finite_parameters_are_rejected(build):
    with pytest.raises(ValueError, match="finite"):
        build()


@pytest.mark.parametrize("value", [True, "0.4", None, 1j],
                         ids=["bool", "str", "none", "complex"])
@pytest.mark.parametrize("build", [
    lambda x: Band(x, 2.0),
    lambda x: Band(-1.0, x),
    lambda x: BumpKernel(x),
    lambda x: ToneKernel(x),
    lambda x: SincKernel(x),
    lambda x: BandSignal((0.0,), (1.0,), SincKernel(0.4), carrier_freq=x),
    lambda x: sampling_injectivity_stress(x, 1, 2),
], ids=["band-lo", "band-hi", "bump", "tone", "sinc", "carrier", "stress"])
def test_parameters_that_are_not_real_numbers_are_rejected(build, value):
    # a bool is not taken for 1.0, and a string, None or a complex number
    # is refused by the validation, not by a failed comparison
    with pytest.raises(ValueError, match="finite"):
        build(value)


def test_band_signal_holds_read_only_copies():
    nodes, coeffs = np.array([0.0, 1.5]), np.array([1.0, 2.0 - 1.0j])
    s = BandSignal(nodes, coeffs, SincKernel(0.4))
    nodes[0], coeffs[0] = -9.0, 0.0
    assert s.nodes.tolist() == [0.0, 1.5]
    assert s.coeffs.tolist() == [1.0, 2.0 - 1.0j]
    assert s.nodes.dtype == np.float64 and s.coeffs.dtype == np.complex128
    assert not (s.nodes.flags.writeable or s.coeffs.flags.writeable)


# ---------------------------------------------------------------------------
# sample against a per-point loop

PROPERTY = settings(derandomize=True, deadline=None, database=None)


@st.composite
def signals(draw):
    kernel = draw(st.sampled_from([SincKernel(0.45), ToneKernel(0.3),
                                   BumpKernel(0.8)]))
    slots = draw(st.lists(st.integers(-60, 60), max_size=8, unique=True))
    coeffs = [complex(draw(st.floats(-2.0, 2.0)), draw(st.floats(-2.0, 2.0)))
              for _ in slots]
    return BandSignal(np.sort(slots) / 3.0, coeffs, kernel,
                      carrier_freq=draw(st.sampled_from([0.0, 0.3, 2.5])))


@PROPERTY
@given(signals(), st.floats(0.05, 2.0), st.integers(-40, 40),
       st.integers(0, 40))
def test_sample_matches_per_point_eval(s, step, k_lo, count):
    vals = sample(s, step, (k_lo, k_lo + count))
    want = [s.eval(k * step) for k in range(k_lo, k_lo + count + 1)]
    assert vals.shape == (count + 1,) and vals.dtype == np.complex128
    assert not vals.flags.writeable
    # a per-point bump evaluation picks its own quadrature rule, so the
    # values agree to rounding, not bit for bit
    bound = 1e-9 * (1.0 + float(np.abs(s.coeffs).sum()))
    assert np.max(np.abs(vals - np.array(want)), initial=0.0) <= bound


# ---------------------------------------------------------------------------
# band_check's leakage against a quadrature in time


def time_quadrature_leakage(s, band, probes, T):
    """The Hann-tapered leakage integrated in time by composite Gauss
    quadrature, with panels of width at most 3 / fmax (at least 8 nodes per
    period), fmax covering the probes, the band, the carrier and the
    signal's own top frequency |carrier| + halfwidth."""
    fmax = max([abs(f) for f in probes]
               + [abs(band.lo), abs(band.hi), abs(s.carrier_freq),
                  abs(s.carrier_freq) + s.kernel.halfwidth, 1.0])
    panels = max(8, int(math.ceil(2.0 * T * fmax / 3.0)))
    ts, qw = composite_gauss(-T, T, panels)
    taper = np.cos(np.pi * ts / (2.0 * T)) ** 2
    vals = s.eval(ts) * taper * qw
    # T is the closed-form integral of the Hann taper over [-T, T]
    return [abs(np.sum(vals * cispi(-2.0 * f * ts)) / T) for f in probes]


@st.composite
def leakage_signals(draw):
    kernel = draw(st.one_of(
        st.floats(0.3, 1.5).map(BumpKernel),
        st.floats(0.2, 1.0).map(SincKernel),
        st.floats(0.2, 3.0).map(ToneKernel)))
    slots = draw(st.lists(st.integers(-40, 40), max_size=7, unique=True))
    coeffs = [complex(draw(st.floats(-2.0, 2.0)), draw(st.floats(-2.0, 2.0)))
              for _ in slots]
    # carriers in the band, beside it and far from it
    carrier = draw(st.one_of(st.floats(BAND.lo, BAND.hi),
                             st.sampled_from([0.0, -1.0, 3.6, 6.0])))
    return BandSignal(np.sort(slots) / 4.0, coeffs, kernel,
                      carrier_freq=carrier)


@settings(PROPERTY, max_examples=60)
@given(leakage_signals(), st.sampled_from([4.0, 8.0, 16.0, 24.0]))
def test_leakage_matches_time_quadrature_reference(s, T):
    # measured: at most 2.5e-15 (1 + sum |c_k|) over random bump, sinc and
    # tone signals
    rep = band_check(s, BAND, PROBES, half_window=T)
    want = time_quadrature_leakage(s, BAND, PROBES, T)
    bound = 1e-13 * (1.0 + float(np.abs(s.coeffs).sum()))
    for (f, got), ref in zip(rep.leakage, want):
        assert abs(got - ref) <= bound


# ---------------------------------------------------------------------------
# bump-kernel eval against the standalone series evaluator it replaced


def reference_bump_series(tau, t, nodes, coeffs):
    """sum_k coeffs[k] * bump_transform(tau, t - nodes[k]) for real t,
    through the quadrature nodes instead of per (point, node) pair.

    With a_j = pi tau u_j, the identity cos(a (t - n)) = cos(a t) cos(a n)
    + sin(a t) sin(a n) splits the sum into per-node spectral sums
    C_j = gw_j sum_k c_k cos(a_j n_k) and S_j = gw_j sum_k c_k sin(a_j n_k),
    formed once, and the value sum_j cos(a_j t) C_j + sin(a_j t) S_j at
    each point. The rule is the one bump_transform would pick for the
    offsets t - nodes, sized by max |t - n_k| over the call. Returns a
    complex array shaped like t."""
    t_arr = np.asarray(t, dtype=float)
    ts = t_arr.ravel()
    nodes = np.asarray(nodes, dtype=float)
    coeffs = np.asarray(coeffs, dtype=complex)
    out = np.zeros(ts.size, dtype=complex)
    if ts.size == 0 or nodes.size == 0:
        return out.reshape(t_arr.shape)
    # largest |t - n_k| over all pairs, rounded as the offsets would be
    tmax = max(float(ts.max() - nodes.min()), float(nodes.max() - ts.min()))
    u, gw = _bump_rule(tau, tmax)
    a = np.pi * tau * u
    # real and imaginary parts as rows, so every product stays real; the
    # sums are (U, 2) arrays whose columns are the real and imaginary parts
    parts = np.stack([coeffs.real, coeffs.imag])
    node_phase = np.multiply.outer(nodes, a)
    spec_cos = ((parts @ np.cos(node_phase)) * gw).T
    spec_sin = ((parts @ np.sin(node_phase)) * gw).T
    chunk = max(1, numutil.ROW_BLOCK_ENTRIES // u.size)
    for i in range(0, ts.size, chunk):
        phase = np.multiply.outer(ts[i:i + chunk], a)
        val = np.cos(phase) @ spec_cos + np.sin(phase) @ spec_sin
        out[i:i + chunk] = val[:, 0] + 1j * val[:, 1]
    return out.reshape(t_arr.shape)


@st.composite
def bump_series_signals(draw):
    nodes = draw(st.lists(st.floats(-60.0, 60.0), min_size=1, max_size=12,
                          unique=True))
    coeffs = [complex(draw(st.floats(-3.0, 3.0)), draw(st.floats(-3.0, 3.0)))
              for _ in nodes]
    carrier = draw(st.one_of(st.just(0.0), st.floats(-6.0, 6.0)))
    return BandSignal(np.sort(nodes), coeffs,
                      BumpKernel(draw(st.floats(0.05, 3.0))),
                      carrier_freq=carrier)


@settings(PROPERTY, max_examples=300)
@given(bump_series_signals(),
       st.lists(st.floats(-150.0, 150.0), max_size=40),
       st.floats(-150.0, 150.0))
def test_bump_eval_equals_reference_series_bitwise(s, points, point):
    def want(t):
        vals = reference_bump_series(s.kernel.tau, t, s.nodes, s.coeffs)
        if s.carrier_freq != 0.0:
            vals = vals * cispi(2.0 * s.carrier_freq * t)
        return vals

    ts = np.array(points)
    assert np.array_equal(s.eval(ts), want(ts))
    got = s.eval(point)
    assert isinstance(got, complex)
    assert np.array_equal(np.array([got]), want(np.array([point])))


def _bump_signals(count):
    rng = np.random.default_rng(11)
    return [BandSignal(np.sort(rng.uniform(-40.0, 40.0, 9)),
                       rng.normal(size=9) + 1j * rng.normal(size=9),
                       BumpKernel(float(tau)))
            for tau in rng.uniform(0.2, 2.5, count)]


def test_bump_eval_from_more_threads_than_cores_equals_serial_reference():
    # every caller's cosines go to the one helper thread; row blocks of
    # 50,000 entries make each call submit 19 to 154 blocks, interleaved
    # across the callers
    signals = _bump_signals(6)
    ts = np.linspace(-60.0, 60.0, 2001)
    interval = sys.getswitchinterval()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(numutil, "ROW_BLOCK_ENTRIES", 50_000)
        want = [reference_bump_series(s.kernel.tau, ts, s.nodes, s.coeffs)
                for s in signals]
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                futures = [pool.submit(s.eval, ts) for s in signals * 3]
                got = [f.result(timeout=120) for f in futures]
        finally:
            sys.setswitchinterval(interval)
    for g, w in zip(got, want * 3):
        assert np.array_equal(g, w)


def _bump_eval_in_child(conn, signal, ts):
    conn.send(signal.eval(ts))
    conn.close()


@pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                    reason="no fork on this platform")
def test_bump_eval_runs_in_a_child_forked_after_the_helper_started():
    (signal,) = _bump_signals(1)
    ts = np.linspace(-30.0, 30.0, 501)
    want = signal.eval(ts)  # the helper thread is running from here on
    ctx = multiprocessing.get_context("fork")
    recv, send = ctx.Pipe(duplex=False)
    child = ctx.Process(target=_bump_eval_in_child, args=(send, signal, ts))
    child.start()
    try:
        # a child left with the parent's dead worker would wait forever
        assert recv.poll(60), "the forked child's bump eval did not finish"
        got = recv.recv()
    finally:
        child.join(timeout=10)
        if child.is_alive():
            child.kill()
    assert np.array_equal(got, want)


# ---------------------------------------------------------------------------
# the injectivity stress test: its grid, and a per-trial resample loop


def _random_lowpass_signal(halfwidth, rng):
    """One draw of the stress as a BandSignal on its own nodes, so that the
    reference evaluates it through BandSignal.eval, not the slot table."""
    slots, coeffs = _lowpass_draw(rng)
    return BandSignal(slots / (2.0 * halfwidth), coeffs, SincKernel(halfwidth))


@pytest.mark.parametrize("halfwidth",
                         [0.05, 0.3, 0.4, 0.5, 1.0, 1.5, 2.0, 4.0, 6.0, 8.0])
def test_continuous_grid_refines_the_node_lattice(halfwidth):
    grid = _continuous_grid(halfwidth)
    density = 2.0 * halfwidth * max(2, math.ceil(2.0 / halfwidth))
    rng = np.random.default_rng(0)
    nodes = np.concatenate([_random_lowpass_signal(halfwidth, rng).nodes
                            for _ in range(200)])
    assert np.all(np.isin(nodes, grid))
    assert np.all(np.abs(density * nodes - np.round(density * nodes)) <= 1e-9)
    # the points that cover [-32, 32], with one neighbour past each end
    cover = grid[np.abs(grid) <= 32.25]
    pitch = float(np.max(np.diff(cover)))
    assert pitch <= 0.25 and pitch < 1.0 / (2.0 * halfwidth)
    assert cover[0] <= -32.0 and cover[-1] >= 32.0
    assert np.all(np.diff(grid) > 0)
    if halfwidth in (0.4, 0.5, 1.0):
        quarter = np.arange(-128, 129) * 0.25
        assert grid.tobytes() == quarter.tobytes()


def reference_sampling_stress(halfwidth, denominator, trials, seed=0):
    """sampling_injectivity_stress as a loop that redraws a pair up to 20
    times while the two signals agree to 1e-12 on the grid, and evaluates
    each signal on the grid and on the samples apart."""
    step = 1.0 / denominator
    rng = np.random.default_rng(seed)
    k_max = int(round(32.0 * denominator))
    ks = np.arange(-k_max, k_max + 1)
    grid = _continuous_grid(halfwidth)
    violations = []
    min_ratio = None
    for trial in range(trials):
        for _ in range(20):
            s1 = _random_lowpass_signal(halfwidth, rng)
            s2 = _random_lowpass_signal(halfwidth, rng)
            cont = float(np.max(np.abs(s1.eval(grid) - s2.eval(grid))))
            if cont > 1e-12:
                break
        sampled = float(np.max(np.abs(s1.eval(ks * step) - s2.eval(ks * step))))
        ratio = sampled / cont
        if min_ratio is None or ratio < min_ratio:
            min_ratio = ratio
        if sampled < 1e-9 and cont > 1e-6:
            violations.append(trial)
    counterexample = None
    if halfwidth >= denominator / 2.0:
        tone = tone_signal(denominator / 2.0)
        vals = sample(tone, step, (-k_max, k_max))
        counterexample = {
            "tone_freq": denominator / 2.0,
            "sampled_sup": float(np.max(np.abs(vals))),
            "continuous_sup": float(np.max(np.abs(tone.eval(grid)))),
            "exact_zero": bool(np.all(vals == 0)),
        }
    return StressReport(halfwidth=halfwidth, step=step, trials=trials,
                        violations=tuple(violations), min_ratio=min_ratio,
                        counterexample=counterexample)


@settings(PROPERTY, max_examples=60)
@given(st.one_of(st.floats(0.05, 2.0), st.sampled_from([4.0, 8.0])),
       st.integers(1, 4), st.integers(1, 6), st.integers(0, 2 ** 32 - 1))
def test_stress_matches_resampling_reference(halfwidth, denominator, trials,
                                             seed):
    # frozen dataclasses: == compares every field, min_ratio included
    assert (sampling_injectivity_stress(halfwidth, denominator, trials, seed)
            == reference_sampling_stress(halfwidth, denominator, trials, seed))


@pytest.mark.parametrize("halfwidth, denominator", [(2.0, 4), (4.0, 8)])
def test_stress_grid_resolves_the_nyquist_tone(halfwidth, denominator):
    # the grid's pitch 1/(4c) puts a crest of sin(2 pi (N/2) t) on it, and
    # some pair's samples on (1/N)Z see less than its continuous gap
    rep = sampling_injectivity_stress(halfwidth, denominator, 20, seed=0)
    assert rep.counterexample["continuous_sup"] == 1.0
    assert rep.min_ratio < 1.0


@settings(PROPERTY, max_examples=40)
@given(st.one_of(st.floats(0.05, 2.0), st.sampled_from([4.0, 8.0])),
       st.integers(1, 4), st.integers(1, 6), st.integers(0, 2 ** 32 - 1),
       st.integers(33, 3000))
def test_stress_in_row_blocks_matches_resampling_reference(
        halfwidth, denominator, trials, seed, entries):
    # blocks of entries // (distinct slots) rows, so the table splits, the
    # grid and the samples share a block, and the sups run across blocks
    want = reference_sampling_stress(halfwidth, denominator, trials, seed)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(numutil, "ROW_BLOCK_ENTRIES", entries)
        got = sampling_injectivity_stress(halfwidth, denominator, trials, seed)
    assert got == want


@pytest.mark.parametrize("halfwidth, denominator, trials, tone_evals", [
    # the random pairs come from the slot table alone
    (0.4, 1, 7, 0),
    # and the tone's sample and its grid evaluation are BandSignal.evals
    (1.0, 2, 3, 2),
])
def test_stress_evaluates_each_signal_once(monkeypatch, halfwidth,
                                           denominator, trials, tone_evals):
    evals, tables = [], []
    plain_eval, plain_sinc = BandSignal.eval, SincKernel.eval

    def counting_eval(self, t):
        evals.append(1)
        return plain_eval(self, t)

    def counting_sinc(self, u):
        tables.append(np.shape(u))
        return plain_sinc(self, u)

    monkeypatch.setattr(BandSignal, "eval", counting_eval)
    monkeypatch.setattr(SincKernel, "eval", counting_sinc)
    sampling_injectivity_stress(halfwidth, denominator, trials)
    # one table over the points and the distinct slots drawn
    rng = np.random.default_rng(0)
    used = np.unique(np.concatenate([_lowpass_draw(rng)[0]
                                     for _ in range(2 * trials)]))
    points = _continuous_grid(halfwidth).size + 64 * denominator + 1
    assert evals == [1] * tone_evals
    assert tables == [(points, used.size)]
    # and one per row block when the points do not fit in one
    evals.clear()
    tables.clear()
    monkeypatch.setattr(numutil, "ROW_BLOCK_ENTRIES", 100 * used.size)
    sampling_injectivity_stress(halfwidth, denominator, trials)
    blocks = -(-points // 100)
    assert evals == [1] * tone_evals
    assert tables == [(100, used.size)] * (blocks - 1) + [
        (points - 100 * (blocks - 1), used.size)]
