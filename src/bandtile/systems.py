"""Concrete dynamical systems and their sampling codecs.

Two desk-scale systems live here: the irrational circle rotation and a
Sturmian binary subshift. The rotation gets a coordinate embedding into
discrete [0,1]-valued signals, a trapezoidal marker bump whose orbit
samples satisfy the marker-sequence invariants, and a band-limited encoder
that plants one kernel copy per time step with the orbit height as
coefficient; its bump kernel and the quadratic decay guard it must pass
come from bandlimited, where the bump window lives. The subshift gets a
toy codec: a nearest-marker partition of the integer window with the
identity block map on every tile, and a verifier for the resulting
delta-embedding property under the word metric.

Time shifts are handled exactly. A Rotation carries an integer step count
so that advancing the orbit relabels time instead of re-rounding the
phase, and the discrete types shift by relabeling their windows; every
equivariance identity downstream is then a bitwise one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .bandlimited import Band, BandSignal, BumpKernel, quadratic_decay_guard
from .numutil import cispi, circle_dist, cospi, frac, is_integer, shift_count
from .tiling import MARKER_DTYPE, MarkerSeq


@dataclass(frozen=True)
class Rotation:
    """Orbit x0, x0+alpha, x0+2 alpha, ... on the circle R/Z.

    step counts how many times the shift has been applied: point(n)
    evaluates the phase at time step+n in one rounding, so shifted(k)
    produces bitwise the same orbit values at relabeled times. A nearly
    rational alpha still constructs.
    """

    alpha: float
    x0: float = 0.0
    step: int = 0

    def __post_init__(self):
        if not math.isfinite(self.alpha) or not math.isfinite(self.x0):
            raise ValueError("alpha and x0 must be finite")
        if not is_integer(self.step):
            raise ValueError("step must be an integer")
        object.__setattr__(self, "step", int(self.step))
        object.__setattr__(self, "x0", frac(float(self.x0)))
        object.__setattr__(self, "alpha", float(self.alpha))

    def point(self, n):
        """Phase at time n, or elementwise at an integer array of times."""
        return frac(self.x0 + (self.step + n) * self.alpha)

    def shifted(self, k: int) -> "Rotation":
        return Rotation(self.alpha, self.x0, self.step + shift_count(k))


def _check_window(window) -> range:
    if not isinstance(window, range) or window.step != 1:
        raise ValueError("window must be a step-1 range of integers")
    if len(window) == 0:
        raise ValueError("window is empty")
    return window


@dataclass(frozen=True, eq=False)
class DiscreteSignal:
    """Values in [0,1] indexed by an integer window, one read-only float64
    array; equal when the windows and the values are equal."""

    window: range
    values: np.ndarray

    def __post_init__(self):
        _check_window(self.window)
        vals = np.array(self.values, dtype=float)
        if vals.shape != (len(self.window),):
            raise ValueError("one value per window site required")
        # written so that NaN fails too
        outside = ~((vals >= 0.0) & (vals <= 1.0))
        if outside.any():
            raise ValueError(
                f"value {float(vals[outside][0])} outside [0, 1]")
        vals.flags.writeable = False
        object.__setattr__(self, "values", vals)

    def __eq__(self, other):
        return (isinstance(other, DiscreteSignal)
                and self.window == other.window
                and np.array_equal(self.values, other.values))

    def __getitem__(self, n: int) -> float:
        return float(self.values[self.window.index(n)])

    def shifted(self, k: int) -> "DiscreteSignal":
        """The signal of the k-step shifted source: site n reads what the
        original held at n + k. Pure relabeling, values untouched."""
        k = shift_count(k)
        return DiscreteSignal(
            range(self.window.start - k, self.window.stop - k), self.values)

    def sup_gap(self, other: "DiscreteSignal") -> float:
        if self.window != other.window:
            raise ValueError("signals live on different windows")
        return float(np.max(np.abs(self.values - other.values)))

    def to_json(self) -> dict:
        return {"window": [self.window.start, self.window.stop - 1],
                "values": self.values.tolist()}


def _coordinate(phase):
    """(1 + cos(2 pi x)) / 2 elementwise, exactly 1 at 0 and 0 at 1/2."""
    return (1.0 + cospi(2.0 * phase)) / 2.0


def rotation_embed(r: Rotation, window) -> DiscreteSignal:
    """Coordinate signal v_n = (1 + cos(2 pi x_n)) / 2 along the orbit.

    Values land in [0, 1] exactly. Shifting the rotation left-shifts the
    signal bitwise (see Rotation.shifted)."""
    window = _check_window(window)
    return DiscreteSignal(
        window, _coordinate(r.point(np.arange(window.start, window.stop))))


def embedding_gap(alpha: float, window, phases, pairs):
    """Minimum sup-distance between embedded signals over phase pairs.

    phases is a sequence of circle points; pairs is a sequence of index
    pairs, each index in [0, len(phases)). Returns (gap, (x, y)) for the
    first closest pair; a positive gap certifies injectivity at sample
    scale. Raises ValueError when there is no pair to compare or an index
    is out of range or not an integer."""
    window = _check_window(window)
    x0 = np.asarray(phases, dtype=float)
    if not (math.isfinite(alpha) and np.isfinite(x0).all()):
        raise ValueError("alpha and x0 must be finite")
    # row i is rotation_embed(Rotation(alpha, phases[i]), window).values
    ns = np.arange(window.start, window.stop)
    V = _coordinate(frac(frac(x0)[:, None] + ns * float(alpha)))
    pairs = [tuple(pair) for pair in pairs]
    # rejected, not truncated by the int64 conversion, as MarkerSeq does
    for i in (i for pair in pairs for i in pair):
        if not is_integer(i):
            raise ValueError(f"pair index {i!r} is not an integer")
    ij = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
    outside = (ij < 0) | (ij >= len(x0))
    if outside.any():
        raise ValueError(f"pair index {int(ij[outside][0])} outside "
                         f"the {len(x0)} phases")
    if not len(ij):
        raise ValueError("no phase pair to compare")
    gaps = np.max(np.abs(V[ij[:, 0]] - V[ij[:, 1]]), axis=1)
    k = int(np.argmin(gaps))
    i, j = ij[k].tolist()
    return float(gaps[k]), (phases[i], phases[j])


@dataclass(frozen=True)
class MarkerBump:
    """Trapezoid on the circle centered at 0: 1 inside half the support
    radius, 0 outside the radius, linear between."""

    halfwidth: float

    def __post_init__(self):
        if not 0.0 < self.halfwidth < 0.5:
            raise ValueError("halfwidth must lie in (0, 1/2)")

    def __call__(self, x):
        """Height at circle point x; elementwise on arrays."""
        d = circle_dist(x)
        w = self.halfwidth
        out = np.where(d >= w, 0.0, np.where(d <= w / 2.0, 1.0,
                                             2.0 - 2.0 * d / w))
        return out if out.shape else float(out)


class MarkerScheme(NamedTuple):
    support: tuple
    plateau: tuple
    h: MarkerBump
    M: int
    min_gap: float


# orbit times per vectorised step of the marker_function plateau scan
SCAN_CHUNK = 4096
# plateau visits that calibrate M, and the last orbit time scanned for them
PLATEAU_HITS = 64
SCAN_LIMIT = 10 ** 6


def marker_function(r: Rotation, L: int) -> MarkerScheme:
    """Bump h whose orbit samples are valid markers at separation L.

    The support arc takes 90% of the closest approach of the first L
    rotation steps to 0, so two orbit points inside the support are always
    more than L steps apart. M is calibrated from the orbit scanned until
    PLATEAU_HITS visits of the h = 1 core, up to time SCAN_LIMIT. Return gaps to an arc take at
    most three values, the largest the sum of the other two (Slater's
    three-gap theorem), so a scan can miss the rare largest one. M is one
    above the larger of the largest observed gap and the sum of the two
    smallest distinct ones, and at least L + 2."""
    if not (is_integer(L) and L >= 1):
        raise ValueError(f"L must be an integer >= 1, got {L!r}")
    gap = min(circle_dist(k * r.alpha, 0.0) for k in range(1, L + 1))
    if gap <= 0.0:
        raise ValueError(
            f"no admissible marker arc: some step k <= {L} of alpha = "
            f"{r.alpha} returns exactly to 0")
    w = 0.45 * gap
    h = MarkerBump(w)
    hits = []
    for start in range(0, SCAN_LIMIT + 1, SCAN_CHUNK):
        ns = np.arange(start, min(start + SCAN_CHUNK, SCAN_LIMIT + 1))
        hits.extend(ns[h(r.point(ns)) == 1.0].tolist())
        if len(hits) >= PLATEAU_HITS:
            break
    hits = hits[:PLATEAU_HITS]
    if len(hits) < 2:
        raise ValueError(
            f"orbit scan of {SCAN_LIMIT} steps saw {len(hits)} plateau "
            f"visits; alpha = {r.alpha} gives no usable marker scheme")
    # one above the worst plateau return gap: height-1 entries then sit
    # strictly closer than M, keeping Voronoi tiles inside open windows
    gaps = sorted({q - p for p, q in zip(hits, hits[1:])})
    M = max(max(gaps[-1], sum(gaps[:2])) + 1, L + 2)
    return MarkerScheme(support=(-w, w), plateau=(-w / 2.0, w / 2.0),
                        h=h, M=M, min_gap=gap)


def orbit_markers(r: Rotation, h, window, L: int, M: int) -> MarkerSeq:
    """Sample h along the orbit; positive heights become marker entries.
    h is applied to the array of orbit points at once (a MarkerBump is
    elementwise). The MarkerSeq constructor re-validates separation and
    coverage."""
    window = _check_window(window)
    ns = np.arange(window.start, window.stop)
    vals = np.asarray(h(r.point(ns)), dtype=float)
    keep = vals > 0.0
    return MarkerSeq(np.rec.fromarrays((ns[keep], vals[keep]),
                                       dtype=MARKER_DTYPE), L=L, M=M)


def marker_encode(r: Rotation, h, band: Band, window) -> BandSignal:
    """Band-limited orbit encoding: one kernel copy per integer time k
    with coefficient h(x_k), modulated to the band center. The nodes are
    the window's times as float64; h is applied elementwise to the array
    of orbit points, as in orbit_markers.

    The carrier phase is absorbed into the coefficients, so each term
    depends on (t - k) and the orbit point alone and the encoder of the
    shifted rotation equals the time-shifted encoding up to rounding and
    window truncation. The kernel is the smooth bump occupying 90% of the
    band, so it fits the band; it must still pass the quadratic decay
    guard, which the bump of a narrow band, spread wide in time, fails."""
    window = _check_window(window)
    kernel = BumpKernel(0.9 * (band.hi - band.lo))
    quadratic_decay_guard(kernel)
    c = band.carrier()
    ns = np.arange(window.start, window.stop)
    coeffs = h(r.point(ns)) * cispi(-2.0 * c * ns)
    return BandSignal(nodes=ns.astype(float), coeffs=coeffs, kernel=kernel,
                      carrier_freq=c)


@dataclass(frozen=True, eq=False)
class SubshiftWindow:
    """A binary word observed over an integer window: a read-only uint8
    copy of the letters, one per window site. Equal when the windows and
    the letters are equal.

    The constructor checks the window, the length and that every letter is
    0 or 1, in O(n). It does not check balance: any binary word builds.
    The words the package makes, exact mechanical words from
    sturmian_window and their shifts, are balanced by construction."""

    word: np.ndarray
    window: range

    def __post_init__(self):
        _check_window(self.window)
        raw = np.asarray(self.word)
        if raw.shape != (len(self.window),):
            raise ValueError("one letter per window site required")
        # a set of Python letters costs less than numpy's elementwise
        # tests at codec word lengths
        if not set(raw.tolist()) <= {0, 1}:
            raise ValueError("letters must be 0 or 1")
        word = raw.astype(np.uint8)
        word.flags.writeable = False
        object.__setattr__(self, "word", word)

    def __eq__(self, other):
        return (isinstance(other, SubshiftWindow)
                and self.window == other.window
                and np.array_equal(self.word, other.word))

    def letters(self, lo: int, hi: int) -> np.ndarray:
        """Letters at window sites lo <= hi, inclusive (a read-only slice)."""
        if not (lo <= hi and lo in self.window and hi in self.window):
            raise ValueError(f"sites {lo}..{hi} must be ordered and inside "
                             f"{self.window}")
        i = self.window.index(lo)
        return self.word[i:i + (hi - lo + 1)]

    def shifted(self, k: int) -> "SubshiftWindow":
        """The k-step shifted word: site n reads the original site n + k.
        Letters are untouched."""
        k = shift_count(k)
        return SubshiftWindow(
            self.word, range(self.window.start - k, self.window.stop - k))


def sturmian_window(slope: float, intercept: float,
                    window) -> SubshiftWindow:
    """Lower mechanical word over the window: letter at n is
    floor((n+1) slope + intercept) - floor(n slope + intercept), computed
    exactly from the rationals the two floats hold.

    The slope must lie in [0, 1] and both parameters must be finite.
    Irrational slopes give Sturmian words; rational slopes give periodic
    balanced words; slope 0 is the all-zero word and slope 1 the all-one
    word. Exact mechanical words are balanced (Lothaire, Algebraic
    Combinatorics on Words, ch. 2), which is why SubshiftWindow need not
    check balance."""
    window = _check_window(window)
    slope, intercept = float(slope), float(intercept)
    if not 0.0 <= slope <= 1.0:  # NaN fails this too
        raise ValueError(f"slope must be a number in [0, 1], got {slope}")
    if not math.isfinite(intercept):
        raise ValueError(f"intercept must be finite, got {intercept}")
    a, b = slope.as_integer_ratio()
    c, d = intercept.as_integer_ratio()
    ad, cb, bd = a * d, c * b, b * d
    floors = [(n * ad + cb) // bd
              for n in range(window.start, window.stop + 1)]
    return SubshiftWindow([q - p for p, q in zip(floors, floors[1:])],
                          window)


def _check_markers(markers, window: range) -> tuple:
    try:
        markers = tuple(markers)
    except TypeError:
        raise ValueError(f"markers must be a sequence of integers, "
                         f"got {markers!r}") from None
    # rejected, not truncated by int(), as MarkerSeq does
    for m in markers:
        if not is_integer(m):
            raise ValueError(f"markers must be integers, got {m!r}")
    mk = tuple(sorted(int(m) for m in markers))
    if not mk:
        raise ValueError("need at least one marker")
    if any(q <= p for p, q in zip(mk, mk[1:])):
        raise ValueError("duplicate markers")
    if mk[0] not in window or mk[-1] not in window:
        raise ValueError("markers must lie inside the word window")
    return mk


def voronoi_tiles(markers, window) -> tuple:
    """Partition of the integer window by nearest marker, equidistant
    sites joining the left marker. Returns ((marker, lo, hi), ...) with
    inclusive site ranges covering the window exactly."""
    window = _check_window(window)
    mk = _check_markers(markers, window)
    # cut after site (m + m') // 2: the last site at least as close to m
    cuts = [(p + q) // 2 for p, q in zip(mk, mk[1:])]
    tiles = []
    lo = window.start
    for m, cut in zip(mk, cuts):
        tiles.append((m, lo, cut))
        lo = cut + 1
    tiles.append((mk[-1], lo, window.stop - 1))
    return tuple(tiles)


def toy_encode(x: SubshiftWindow, markers) -> DiscreteSignal:
    """The toy codec with identity block maps: each tile of the
    nearest-marker partition (voronoi_tiles) carries its own letters, so
    the encoding is the word itself on its window. The markers are checked
    as voronoi_tiles checks them."""
    _check_markers(markers, x.window)
    return DiscreteSignal(x.window, x.word)


def word_metric(x: SubshiftWindow, y: SubshiftWindow) -> float:
    """Distance 2^(-|k|) for the disagreement site k nearest the origin,
    0 when the words agree on their (shared) window."""
    return bowen_metric(x, y, 0, 1)


def bowen_metric(x: SubshiftWindow, y: SubshiftWindow, start: int,
                 length: int) -> float:
    """max of the local word distance over base points start..start+
    length-1: the length-step trajectory distance. That is 2^(-r) where r
    is the distance from those base points to the nearest visible
    disagreement, 0 when the words agree on the whole window."""
    if x.window != y.window:
        raise ValueError("words live on different windows")
    if not is_integer(start):
        raise ValueError(f"start must be an integer, got {start!r}")
    if not (is_integer(length) and length >= 1):
        raise ValueError(f"length must be an integer >= 1, got {length!r}")
    sites = np.flatnonzero(x.word != y.word) + x.window.start
    if sites.size == 0:
        return 0.0
    hi = start + length - 1
    r = int(np.min(np.maximum(np.maximum(start - sites, sites - hi), 0)))
    return 2.0 ** (-r)


def marker_cylinder(x: SubshiftWindow, N: int) -> tuple:
    """A factor of x whose occurrence set is N-separated, with its
    occurrence sites: (block, positions).

    Prefers more occurrences (better coverage), then shorter blocks, then
    lexicographic order. Search by prefix refinement: starting from the
    empty block, only blocks whose occurrences are not yet N-separated
    grow by one letter. An N-separated block beats all its extensions,
    which occur at a subset of its sites and are longer. Always succeeds:
    the whole window is a factor with a single occurrence."""
    if not (is_integer(N) and N >= 1):
        raise ValueError(f"N must be an integer >= 1, got {N!r}")
    # byte slices order like letter blocks and key dicts faster than numpy
    word, start = x.word.tobytes(), x.window.start
    n = len(word)
    best, grow = None, [(1, range(n))]
    while grow:
        size, sites = grow.pop()
        seen = {}
        for i in sites:
            if i + size <= n:
                seen.setdefault(word[i:i + size], []).append(i)
        for block, sites in seen.items():
            if any(q - p <= N for p, q in zip(sites, sites[1:])):
                grow.append((size + 1, sites))
            elif best is None or (-len(sites), size, block) < best[0]:
                best = ((-len(sites), size, block), sites)
    (_, _, block), sites = best
    return tuple(block), tuple(start + i for i in sites)


@dataclass(frozen=True)
class ToyReport:
    """Verification outcome over word pairs sharing a marker set.

    violations: pairs whose encodings are equal yet whose word distance
    reaches delta. chain_failures: pairs where the distance at the origin
    exceeded the trajectory distance over the origin's tile (impossible;
    a nonempty list is a bug witness). eps_failures: pairs
    with equal blocks on the origin's tile whose trajectory distance
    still reached eps."""

    pairs_checked: int
    equal_encoding_pairs: int
    violations: tuple
    chain_failures: tuple
    eps_failures: tuple

    @property
    def passed(self) -> bool:
        return not (self.violations or self.chain_failures
                    or self.eps_failures)

    def to_json(self) -> dict:
        return {
            "pairs_checked": self.pairs_checked,
            "equal_encoding_pairs": self.equal_encoding_pairs,
            "violations": [list(v) for v in self.violations],
            "chain_failures": [list(v) for v in self.chain_failures],
            "eps_failures": [list(v) for v in self.eps_failures],
            "passed": self.passed,
        }


def toy_verify(pairs, markers, delta: float, eps: float) -> ToyReport:
    """Check the delta-embedding property of toy_encode over word pairs.

    markers holds one marker set per pair. For every pair whose
    encodings are equal, the word distance must stay below delta. The
    origin's tile additionally realizes the two-step chain: distance at
    the origin <= trajectory distance over the tile (always), and < eps
    whenever the pair's letter blocks on that tile agree."""
    pairs = list(pairs)
    if not pairs:
        raise ValueError("no pairs given")
    if len(markers) != len(pairs):
        raise ValueError("one marker set per pair required")
    violations = []
    chain_failures = []
    eps_failures = []
    equal = 0
    for i, (x, y) in enumerate(pairs):
        if x.window != y.window:
            raise ValueError(f"pair {i}: words on different windows")
        mk = markers[i]
        gx = toy_encode(x, mk)
        gy = toy_encode(y, mk)
        sup = gx.sup_gap(gy)
        d = word_metric(x, y)
        if sup == 0.0:
            equal += 1
            if d >= delta:
                violations.append((i, d, sup))
        if 0 in x.window:
            lo, hi = next((lo, hi) for m, lo, hi in
                          voronoi_tiles(mk, x.window) if lo <= 0 <= hi)
            dc = bowen_metric(x, y, lo, hi - lo + 1)
            if d > dc:
                chain_failures.append((i, d, dc))
            if (np.array_equal(x.letters(lo, hi), y.letters(lo, hi))
                    and dc >= eps):
                eps_failures.append((i, dc))
    return ToyReport(pairs_checked=len(pairs), equal_encoding_pairs=equal,
                     violations=tuple(violations),
                     chain_failures=tuple(chain_failures),
                     eps_failures=tuple(eps_failures))
