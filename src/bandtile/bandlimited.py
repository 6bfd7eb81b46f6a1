"""Band-limited signals and the bump window: representation, sampling,
spectral checks.

A signal is a finite node/coefficient expansion against a shift-invariant
kernel, optionally modulated by a global carrier: the value at t is

    sum_k coeffs[k] * kernel(t - nodes[k]) * e^(2 pi i carrier t)

The kernel descriptor fixes the nominal band: a kernel of spectral
halfwidth h under carrier c gives content inside [c - h, c + h].

The smooth bump window lives here, for bump kernels and for the cardinal
kernels of interpolation alike: its profile, its Gauss rule,
bump_transform, and the quadratic decay guard that marker encoding puts
bump kernels through. Every kernel states its spectrum as a finite sum of
lines in angular frequency, kernel(u) = sum_j g_j e^(i w_j u)
(kernel.spectrum): a quadrature of the bump profile, a flat Gauss rule
for sinc, and two exact lines for a tone. One routine (_node_sums) sums
the coefficients against the lines, per line.

Bump-kernel expansions are evaluated through their lines. The bump is
real and even, so the series is sum_j g_j sum_k c_k cos(w_j (t - n_k)),
which factors through the lines: per-line sums over the K coefficients,
then one pass over them per point, O((T + K) U) for T points and a
U-line rule instead of O(T K U). Only the elementwise cosines of a block's
phases leave the calling thread: one module-level helper thread takes
them while the caller takes the sines, and both products with the sums
stay on the caller, so the values are the serial ones bit for bit. The
other kernels are evaluated on the offsets t - n_k. Both take the points
in row blocks (numutil.row_blocks).

Band membership is certified numerically (band_check), by the leakage of
the Hann-tapered spectrum at probe frequencies outside the band. The
tapered transform of one line has a closed form (hann_transform), so the
leakage of any signal is a sum over its lines, with no time samples. The
window-edge diagnostic reads |s| on a Gauss grid resolved for the
baseband alone. Nothing here does symbolic complex analysis.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .numutil import (block_rows, cispi, composite_gauss, is_finite_real,
                      is_integer, pointwise, row_blocks, sinpi)


def _bump_profile(u: np.ndarray) -> np.ndarray:
    out = np.zeros_like(u)
    inside = np.abs(u) < 1.0
    ui = u[inside]
    out[inside] = np.exp(-1.0 / (1.0 - ui * ui))
    return out


def _rule_panels(tau: float, tmax: float) -> int:
    """Panels of 24 Gauss nodes on [-1, 1] for at least 16 nodes per period
    of cos(pi tau tmax u)."""
    return max(4, int(math.ceil(tau * tmax / 1.5)) + 1)


def _bump_rule(tau: float, tmax: float):
    """Nodes u on [-1, 1] and weights gw of the bump quadrature for
    |t| <= tmax: a composite Gauss rule of at least 16 nodes per period of
    cos(pi tau tmax u), weighted by the bump profile and normalised by its
    own integral of the bump, so that t = 0 gives exactly 1."""
    u, w = composite_gauss(-1.0, 1.0, _rule_panels(tau, tmax))
    gw = w * _bump_profile(u)
    gw /= gw.sum()
    return u, gw


@pointwise()
def bump_transform(tau: float, t):
    """Fourier transform of the normalized smooth bump supported on
    [-tau/2, tau/2]. Real, even, equals 1 at t = 0, rapidly decreasing on
    the real line; complex t gives the entire continuation.

    Evaluated by a composite Gauss rule sized to the fastest oscillation, at
    least 16 nodes per period of max |t|. Real input, and complex input on
    the real axis, is reduced to |t| and returns real values.
    """
    if not (np.iscomplexobj(t) and np.any(t.imag != 0.0)):
        t = np.abs(np.asarray(t.real, dtype=float))
    u, gw = _bump_rule(tau, float(np.max(np.abs(t), initial=0.0)))
    return row_blocks(lambda b: np.cos(np.pi * tau * b[:, None] * u) @ gw,
                      t, u.size)


def _bump_curvature_ratio() -> float:
    """N2 = ||beta''||_1 / ||beta||_1 for the bump profile
    beta(u) = exp(-1/(1-u^2)) on [-1, 1] (_bump_profile), where
    beta'' = beta (6u^4 - 2) / (1-u^2)^4. beta'' changes sign at
    u^4 = 1/3, so each piece between the sign changes is integrated on its
    own composite Gauss rule and taken in absolute value."""
    a = 3.0 ** -0.25
    curvature = 0.0
    for lo, hi in ((-1.0, -a), (-a, a), (a, 1.0)):
        u, w = composite_gauss(lo, hi, 64)
        curvature += abs(float(w @ (_bump_profile(u) * (6.0 * u ** 4 - 2.0)
                                    / (1.0 - u * u) ** 4)))
    u, w = composite_gauss(-1.0, 1.0, 64)
    return curvature / float(w @ _bump_profile(u))


# tau^2 (1+t^2)|bump_transform(tau, t)| <= _FAR_FIELD_BOUND for all t >= 8
_FAR_FIELD_BOUND = (65.0 / 64.0) * _bump_curvature_ratio() / math.pi ** 2


@dataclass(frozen=True)
class Band:
    """Frequency interval [lo, hi] in cycles per unit time."""

    lo: float
    hi: float

    def __post_init__(self):
        if not (is_finite_real(self.lo) and is_finite_real(self.hi)):
            raise ValueError(f"band edges must be finite real numbers, got "
                             f"[{self.lo!r}, {self.hi!r}]")
        if not self.lo < self.hi:
            raise ValueError(f"band needs lo < hi, got [{self.lo}, {self.hi}]")

    def carrier(self) -> float:
        return (self.lo + self.hi) / 2.0

    def contains(self, freq: float) -> bool:
        return self.lo <= freq <= self.hi


@dataclass(frozen=True)
class ToneKernel:
    """kernel(u) = sin(2 pi f u), exact at quarter periods.

    Argument reduction makes it vanish identically on (1/(2f))Z in closed
    form, which is what the Nyquist counterexample needs.
    """

    freq: float

    def __post_init__(self):
        if not (is_finite_real(self.freq) and self.freq > 0):
            raise ValueError(f"tone frequency must be a finite positive real "
                             f"number, got {self.freq!r}")
        object.__setattr__(self, "freq", float(self.freq))

    @property
    def halfwidth(self) -> float:
        return self.freq

    def eval(self, u):
        return sinpi(2.0 * self.freq * np.asarray(u, dtype=float))

    def spectrum(self, tmax: float):
        """Lines (w, g) in angular frequency, kernel(u) =
        sum_j g_j e^(i w_j u): here exactly, for every u, sin(2 pi f u) =
        (e^(2 pi i f u) - e^(-2 pi i f u)) / 2i, so w = (2 pi f, -2 pi f)
        and g = (-i/2, i/2). tmax is not needed."""
        w = 2.0 * np.pi * self.freq
        return np.array([w, -w]), np.array([-0.5j, 0.5j])


@dataclass(frozen=True)
class SincKernel:
    """kernel(u) = sinc(2 c u): the ideal low-pass kernel for band [-c, c]."""

    halfwidth: float

    def __post_init__(self):
        if not (is_finite_real(self.halfwidth) and self.halfwidth > 0):
            raise ValueError(f"sinc halfwidth must be a finite positive real "
                             f"number, got {self.halfwidth!r}")
        object.__setattr__(self, "halfwidth", float(self.halfwidth))

    def eval(self, u):
        """np.sinc(2 c u) with np.sinc's operations, so its bits: y = pi x
        for x = 2 c u, zeros of either sign set to the float64 eps, then
        sin(y) / y. They are taken in place, in one copy of u and the
        sines, where np.sinc holds about four arrays the size of u."""
        y = np.array(u, dtype=float)
        y *= 2.0 * self.halfwidth
        y *= np.pi
        np.copyto(y, np.finfo(float).eps, where=(y == 0.0))
        out = np.sin(y)
        out /= y
        return out

    def spectrum(self, tmax: float):
        """Lines (w, g) in angular frequency, kernel(u) =
        sum_j g_j e^(i w_j u) for |u| <= tmax: sinc(2 c u) is the mean of
        e^(2 pi i c x u) over x in [-1, 1], taken by a flat composite Gauss
        rule (x_j, q_j) with the bump rule's panels for tau = 2 c, so
        w = 2 pi c x and g = q / 2."""
        c = self.halfwidth
        x, q = composite_gauss(-1.0, 1.0, _rule_panels(2.0 * c, tmax))
        return 2.0 * np.pi * (c * x), 0.5 * q


@dataclass(frozen=True)
class BumpKernel:
    """Transform of the normalized smooth bump on (-tau/2, tau/2): spectral
    support exactly [-tau/2, tau/2], so halfwidth tau/2."""

    tau: float

    def __post_init__(self):
        if not (is_finite_real(self.tau) and self.tau > 0):
            raise ValueError(f"bump support must be a finite positive real "
                             f"number, got {self.tau!r}")
        object.__setattr__(self, "tau", float(self.tau))

    @property
    def halfwidth(self) -> float:
        return self.tau / 2.0

    def eval(self, u):
        return bump_transform(self.tau, np.asarray(u, dtype=float))

    def spectrum(self, tmax: float):
        """Lines (w, g) in angular frequency, kernel(u) =
        sum_j g_j e^(i w_j u) for |u| <= tmax, to the accuracy of
        bump_transform: the bump rule (u_j, gw_j) for tmax, with
        w = pi tau u and g = gw. The rule is symmetric about 0, so the
        kernel is also sum_j g_j cos(w_j u)."""
        u, gw = _bump_rule(self.tau, tmax)
        return np.pi * self.tau * u, gw


@lru_cache(maxsize=1)
def quadratic_decay_guard(kernel: BumpKernel) -> float:
    """Checks the envelope |phi(t)| <= K/(1+t^2) of a bump kernel: the
    far-field envelope constant, on t >= 8, must not exceed twice the
    near-field one, K = max (1+t^2)|phi(t)| over 257 points of [0, 8].
    Returns K.

    The far field is certified in closed form. phi(t) is the integral of
    beta(u) cos(pi tau t u) over [-1, 1] divided by that of beta, and beta
    and beta' vanish at +-1, so integrating by parts twice gives
    |phi(t)| <= N2 / (pi tau t)^2 with N2 = ||beta''||_1 / ||beta||_1.
    For every t >= 8, (1+t^2)/t^2 <= 65/64, hence
    (1+t^2)|phi(t)| <= (65/64) N2 / (pi tau)^2. If that is at most 2K the
    kernel passes. Otherwise, which happens only for tau below about 0.098,
    the guard falls back to scanning 449 points of [8, 64] and rejects if
    their constant exceeds 2K; the bump of a narrow band, spread wide in
    time, fails there.

    Remembers the last kernel it passed (kernels are frozen and hashable),
    so an encoder rebuilt with the same kernel, as for a shift check, is
    guarded once; a rejection is not cached and raises again on every
    call."""
    tn = np.linspace(0.0, 8.0, 257)
    k_near = float(np.max(np.abs(kernel.eval(tn)) * (1.0 + tn ** 2)))
    if _FAR_FIELD_BOUND / kernel.tau ** 2 <= 2.0 * k_near:
        return k_near
    tf = np.linspace(8.0, 64.0, 449)
    k_far = float(np.max(np.abs(kernel.eval(tf)) * (1.0 + tf ** 2)))
    if k_far > 2.0 * k_near:
        raise ValueError(
            f"kernel lacks a quadratic decay envelope: far-field constant "
            f"{k_far:.3g} exceeds twice the near-field {k_near:.3g}")
    return k_near


def _node_sums(s: BandSignal, w: np.ndarray):
    """Per-line sums of the coefficients of s against the lines w:
    (C, S) with C[:, j] = sum_k c_k cos(w_j n_k) and
    S[:, j] = sum_k c_k sin(w_j n_k), row 0 the real and row 1 the
    imaginary part, so every product stays real."""
    parts = np.stack([s.coeffs.real, s.coeffs.imag])
    phase = np.multiply.outer(s.nodes, w)
    return parts @ np.cos(phase), parts @ np.sin(phase)


# The one helper thread of BandSignal.eval's bump lines: it takes np.cos of
# a block's phases while the caller takes np.sin, as numpy releases the GIL
# inside a ufunc. The thread starts on the first submit, not on import. A
# forked child has no copy of it, so the child gets an executor of its own.
_COSINES = ThreadPoolExecutor(max_workers=1)


def _renew_cosines():
    global _COSINES
    _COSINES = ThreadPoolExecutor(max_workers=1)


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_renew_cosines)


@dataclass(frozen=True, eq=False)
class BandSignal:
    """Finite kernel expansion, optionally carrier-modulated.

    nodes: read-only float64 array, finite and strictly increasing; coeffs:
    read-only complex128 array of finite values, one per node. The
    constructor copies whatever it is given. carrier_freq must be finite.
    """

    nodes: np.ndarray
    coeffs: np.ndarray
    kernel: object
    carrier_freq: float = 0.0

    def __post_init__(self):
        nodes = np.array(self.nodes, dtype=float)
        coeffs = np.array(self.coeffs, dtype=complex)
        if nodes.ndim != 1 or nodes.shape != coeffs.shape:
            raise ValueError("nodes and coeffs must be 1-D of equal length")
        if not (np.isfinite(nodes).all() and np.isfinite(coeffs).all()):
            raise ValueError("nodes and coeffs must be finite")
        if np.any(nodes[1:] <= nodes[:-1]):
            raise ValueError("nodes must be strictly increasing")
        if not is_finite_real(self.carrier_freq):
            raise ValueError(f"carrier frequency must be a finite real "
                             f"number, got {self.carrier_freq!r}")
        nodes.flags.writeable = False
        coeffs.flags.writeable = False
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "coeffs", coeffs)

    @pointwise(float)
    def eval(self, t):
        """Value at t (scalar or array of any shape), complex-typed.

        A bump kernel goes through its lines, read for the largest offset
        |t - n_k| of the call, so the rule is the one bump_transform picks
        for these offsets. With cos(w (t - n)) = cos(w t) cos(w n) +
        sin(w t) sin(w n), the coefficients are summed per line once per
        call (_node_sums), at O(K U) for K nodes and U lines, and each point
        is evaluated against the sums at O(U). Per row block, np.cos of the
        phases runs on the helper thread (_COSINES) while this thread takes
        np.sin; a ufunc is elementwise, so the split keeps every bit, and
        the products cos @ spec_cos + sin @ spec_sin stay here, in that
        order. Other kernels evaluate the offsets t - n_k. Both take the
        points in bounded row blocks.
        """
        if isinstance(self.kernel, BumpKernel) and self.nodes.size and t.size:
            # largest |t - n_k| over all pairs, rounded as the offsets would be
            tmax = max(float(t.max() - self.nodes[0]),
                       float(self.nodes[-1] - t.min()))
            w, g = self.kernel.spectrum(tmax)
            cs, sn = _node_sums(self, w)
            # (U, 2) arrays whose columns are the real and imaginary parts
            spec_cos, spec_sin = (cs * g).T, (sn * g).T
            def lines(block):
                phase = np.multiply.outer(block, w)
                cos = _COSINES.submit(np.cos, phase)
                try:
                    sin = np.sin(phase)
                finally:
                    # no cosine block outlives the call if np.sin raises
                    cos = cos.result()
                val = cos @ spec_cos + sin @ spec_sin
                return val[:, 0] + 1j * val[:, 1]
            vals = row_blocks(lines, t, w.size)
        else:
            vals = row_blocks(
                lambda b: (self.kernel.eval(b[:, None] - self.nodes)
                           .astype(complex) @ self.coeffs), t, self.nodes.size)
        if self.carrier_freq != 0.0:
            vals = vals * cispi(2.0 * self.carrier_freq * t)
        return vals


def tone_signal(freq: float) -> BandSignal:
    """sin(2 pi f t) as a single-node expansion."""
    return BandSignal((0.0,), (1.0 + 0.0j,), ToneKernel(freq))


@dataclass(frozen=True)
class BandCheckReport:
    leakage: tuple
    tol: float
    passed: bool
    half_window: float
    edge_fraction: float
    window_short: bool


def band_check(s: BandSignal, band: Band, probe_freqs, tol: float = 1e-3,
               half_window: float = 64.0) -> BandCheckReport:
    """Estimate spectral leakage at probe frequencies outside the band.

    The leakage at f is |F(s * taper)(f)| / integral(taper), with a Hann
    taper on [-T, T]. With the kernel's lines (w_j, g_j) for offsets up to
    tmax = T + max |n_k|, in cycles nu_j = w_j / 2 pi, the signal on the
    window is the sum of lines A_j e^(2 pi i (carrier + nu_j) t),
    A_j = g_j sum_k c_k e^(-i w_j n_k) (from _node_sums), and a line
    contributes A_j H(carrier + nu_j - f) in closed form (hann_transform);
    so the leakage needs no time samples, for any kernel.
    Raises ValueError on an empty probe list (nothing would be checked), on
    a probe that is not finite or lies inside the band, and on a
    half_window or a tol that is not finite and positive.

    A slowly decaying signal still large near the window edge degrades the
    estimate; that is reported as window_short rather than silently passed.
    The signal is evaluated once, on a composite Gauss grid resolved for
    the baseband half-width (at least 1), since |s| does not depend on the
    carrier, and on the two cut points t = +-0.8 T; edge_fraction is the
    peak |s| over the cut points and the nodes past them over the peak over
    all these points, short above 0.3.
    """
    probes = [float(f) for f in probe_freqs]
    if not probes:
        raise ValueError("band_check needs at least one probe frequency")
    for f in probes:
        if not math.isfinite(f):
            raise ValueError(f"probe_freqs must be finite, got {f}")
        if band.contains(f):
            raise ValueError(f"probe frequency {f} lies inside the band")
    T = float(half_window)
    if not (math.isfinite(T) and T > 0):
        raise ValueError(
            f"half_window must be finite and positive, got {half_window}")
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError(f"tol must be finite and positive, got {tol}")
    fmax = max(s.kernel.halfwidth, 1.0)
    # composite panels: 24-node Gauss resolves ~7 periods comfortably; use
    # panel width <= 3 / fmax for >= 8 nodes per period
    panels = max(8, int(math.ceil(2.0 * T * fmax / 3.0)))
    ts, _ = composite_gauss(-T, T, panels)
    cut = 0.8 * T
    at = np.append(ts, [-cut, cut])
    mag = np.abs(s.eval(at))
    w, g = s.kernel.spectrum(T + float(np.max(np.abs(s.nodes), initial=0.0)))
    cs, sn = _node_sums(s, w)
    amps = g * ((cs[0] + sn[1]) + 1j * (cs[1] - sn[0]))
    freqs = s.carrier_freq + w / (2.0 * np.pi)
    est = hann_transform(freqs[None, :] - np.array(probes)[:, None], T) @ amps
    leakage = tuple((f, float(abs(e))) for f, e in zip(probes, est))
    # edge diagnostic: the outer fifth's share of the peak |s|
    overall = float(np.max(mag))
    outer = float(np.max(mag[np.abs(at) >= cut]))
    edge_fraction = outer / overall if overall > 0 else 0.0
    window_short = edge_fraction > 0.3
    passed = all(v <= tol for _, v in leakage)
    return BandCheckReport(leakage=leakage, tol=tol, passed=passed,
                           half_window=T, edge_fraction=edge_fraction,
                           window_short=window_short)


def hann_transform(nu, T: float):
    """integral over [-T, T] of cos^2(pi t / 2T) e^(2 pi i nu t) dt, divided
    by T: sinc(2 nu T) + sinc(2 nu T + 1) / 2 + sinc(2 nu T - 1) / 2, the
    Hann-tapered transform of a unit line nu away from the probe."""
    x = 2.0 * T * np.asarray(nu, dtype=float)
    return np.sinc(x) + 0.5 * (np.sinc(x + 1.0) + np.sinc(x - 1.0))


def sample(s: BandSignal, step: float, window) -> np.ndarray:
    """Read-only complex array of s(k*step) for k in the inclusive integer
    window (k_lo, k_hi): element i holds k = k_lo + i. The ends must be
    integers, rejected rather than truncated."""
    k_lo, k_hi = window
    if not (is_integer(k_lo) and is_integer(k_hi)):
        raise ValueError(
            f"sample window ends must be integers, got {window!r}")
    if k_hi < k_lo:
        raise ValueError("empty sample window")
    if not step > 0:
        raise ValueError("step must be positive")
    vals = s.eval(np.arange(k_lo, k_hi + 1) * float(step))
    vals.flags.writeable = False
    return vals


_SLOTS = np.arange(-16, 17)
_SLOTS.flags.writeable = False


def _lowpass_draw(rng):
    """Slots and coefficients of a random expansion against the ideal
    low-pass kernel for [-c, c]: 2 to 8 distinct slots of _SLOTS, sorted
    (node k sits at slots[k] / (2c), at most 16 grid steps from the
    origin), and complex normal coefficients, one per node."""
    count = int(rng.integers(2, 9))
    slots = np.sort(rng.choice(_SLOTS, size=count, replace=False))
    return slots, rng.normal(size=count) + 1j * rng.normal(size=count)


def _continuous_grid(halfwidth: float) -> np.ndarray:
    """The nodes' lattice (1/(2c))Z refined m-fold, m = max(2, ceil(2/c)),
    on [-32, 32] (pitch at most 1/4 and below 1/(2c)), with every slot a
    random low-pass node can take; sorted. At c = 0.4, 0.5 and 1 this is
    the quarter grid on [-32, 32]."""
    m = max(2, math.ceil(2.0 / halfwidth))
    k_max = math.ceil(64.0 * halfwidth * m)
    fine = np.arange(-k_max, k_max + 1) / (2.0 * halfwidth * m)
    return np.union1d(fine, _SLOTS / (2.0 * halfwidth))


@dataclass(frozen=True)
class StressReport:
    halfwidth: float
    step: float
    trials: int
    violations: tuple
    min_ratio: float
    counterexample: dict | None

    @property
    def passed(self) -> bool:
        return not self.violations and self.counterexample is None


def sampling_injectivity_stress(halfwidth: float, denominator: int,
                                trials: int, seed: int = 0) -> StressReport:
    """Monte-Carlo check that sampling at step 1/N is injective on signals
    band-limited in [-c, c] when c < N/2.

    Each trial draws a pair of random low-pass signals and compares the
    sup gap of their samples on [-32, 32] to the continuous gap, a sup over
    the nodes' lattice refined to pitch at most 1/4 on [-32, 32] and every
    node (_continuous_grid). The sinc kernel is 1 at its own node and 0 at
    the others, so the continuous gap is at least the pair's largest
    coefficient difference and no pair is drawn twice. A violation is a
    sampled gap below 1e-9 against a continuous gap above 1e-6; min_ratio
    is the smallest sampled-to-continuous ratio over the trials.

    Every node is one of the 33 slots _SLOTS / (2c), so all pairs are drawn
    first and the kernel is evaluated once, as a table of
    sinc(2c (t - slot / (2c))) over the points and the distinct slots the
    draws use, in row blocks of numutil.ROW_BLOCK_ENTRIES entries. A
    signal's values are its gathered columns, in C order, times its
    coefficients: the same offsets, kernel values and complex dot products
    per point as BandSignal.eval on its own nodes, so the same bits. Each
    trial's two sups are kept as running maxima across the blocks, which
    is exact in any order.
    At or beyond the boundary c >= N/2 the classical counterexample
    sin(2 pi (N/2) t), which vanishes identically on (1/N)Z, is injected
    and witnessed exactly.
    """
    if not (is_finite_real(halfwidth) and halfwidth > 0
            and math.isfinite(8.0 / halfwidth)):
        raise ValueError(f"band halfwidth c must be finite and positive, with "
                         f"the nodes' reach 8/c finite, got {halfwidth!r}")
    if not (is_integer(denominator) and denominator >= 1):
        raise ValueError(f"sampling denominator must be a positive integer, "
                         f"got {denominator!r}")
    if not (is_integer(trials) and trials >= 1):
        raise ValueError(f"trials must be >= 1 and an integer, got {trials!r}")
    step = 1.0 / denominator
    rng = np.random.default_rng(seed)
    k_max = int(round(32.0 * denominator))
    ks = np.arange(-k_max, k_max + 1)
    grid = _continuous_grid(halfwidth)
    at = np.concatenate([grid, ks * step])
    draws = [_lowpass_draw(rng) for _ in range(2 * trials)]
    used = np.unique(np.concatenate([slots for slots, _ in draws]))
    signals = [(np.searchsorted(used, slots), coeffs)
               for slots, coeffs in draws]
    kernel = SincKernel(halfwidth)
    slot_nodes = used / (2.0 * halfwidth)
    # per trial, the sup of the pair's gap on the grid and on the samples
    cont, sampled = np.zeros(trials), np.zeros(trials)
    rows = block_rows(used.size)
    for lo in range(0, at.size, rows):
        table = kernel.eval(at[lo:lo + rows, None] - slot_nodes)
        # the block's first `split` rows are grid points
        split = min(max(grid.size - lo, 0), table.shape[0])
        for trial in range(trials):
            v1, v2 = (table[:, cols].astype(complex, order="C") @ coeffs
                      for cols, coeffs in signals[2 * trial:2 * trial + 2])
            gap = np.abs(v1 - v2)
            if split > 0:
                cont[trial] = max(cont[trial], np.max(gap[:split]))
            if split < gap.size:
                sampled[trial] = max(sampled[trial], np.max(gap[split:]))
    ratios = sampled / cont
    violations = np.flatnonzero((sampled < 1e-9) & (cont > 1e-6))
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
                        violations=tuple(violations.tolist()),
                        min_ratio=float(np.min(ratios)),
                        counterexample=counterexample)
