"""Concrete dynamical systems and their sampling codecs.

Two desk-scale systems live here: the irrational circle rotation and a
Sturmian binary subshift. The rotation gets a coordinate embedding into
discrete [0,1]-valued signals, a trapezoidal marker bump whose orbit
samples satisfy the marker-sequence invariants, and a band-limited encoder
that plants one kernel copy per time step with the orbit height as
coefficient. The subshift gets a toy codec: a nearest-marker partition of
the integer window, one block map per tile, and a verifier for the
resulting delta-embedding property under the word metric.

Time shifts are handled exactly. A Rotation carries an integer step count
so that advancing the orbit relabels time instead of re-rounding the
phase, and the discrete types shift by relabeling their windows; every
equivariance identity downstream is then a bitwise one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Mapping, NamedTuple

import numpy as np

from .bandlimited import Band, BandSignal, BumpKernel
from .numutil import cispi, circle_dist, cospi, frac
from .tiling import MarkerSeq


def near_rational(alpha: float, qmax: int = 1000, tol: float = 1e-12):
    """Smallest-denominator rational p/q with q <= qmax within tol of
    alpha, as (p, q, error), or None. Advisory: callers warn, not fail."""
    for q in range(1, qmax + 1):
        p = round(alpha * q)
        err = abs(alpha - p / q)
        if err < tol:
            return p, q, err
    return None


@dataclass(frozen=True)
class Rotation:
    """Orbit x0, x0+alpha, x0+2 alpha, ... on the circle R/Z.

    step counts how many times the shift has been applied: point(n)
    evaluates the phase at time step+n in one rounding, so shifted(k)
    produces bitwise the same orbit values at relabeled times. rational
    hints are advisory only; a nearly rational alpha still constructs.
    """

    alpha: float
    x0: float = 0.0
    step: int = 0

    def __post_init__(self):
        if not math.isfinite(self.alpha) or not math.isfinite(self.x0):
            raise ValueError("alpha and x0 must be finite")
        if not isinstance(self.step, int) or isinstance(self.step, bool):
            raise ValueError("step must be an integer")
        object.__setattr__(self, "x0", frac(float(self.x0)))
        object.__setattr__(self, "alpha", float(self.alpha))

    def rational_hint(self, qmax: int = 1000, tol: float = 1e-12):
        return near_rational(self.alpha, qmax, tol)

    def point(self, n):
        """Phase at time n, or elementwise at an integer array of times."""
        return frac(self.x0 + (self.step + n) * self.alpha)

    def shifted(self, k: int) -> "Rotation":
        return Rotation(self.alpha, self.x0, self.step + int(k))


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
        k = int(k)
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


def embedding_gap(alpha: float, window, phases, pairs=None):
    """Minimum sup-distance between embedded signals over phase pairs.

    phases is a sequence of circle points; pairs is a sequence of index
    pairs, or None for all distinct pairs. Returns (gap, (x, y)) for the
    first closest pair; a positive gap certifies injectivity at sample
    scale. Raises ValueError when there is no pair to compare."""
    window = _check_window(window)
    x0 = np.asarray(phases, dtype=float)
    if not (math.isfinite(alpha) and np.isfinite(x0).all()):
        raise ValueError("alpha and x0 must be finite")
    # row i is rotation_embed(Rotation(alpha, phases[i]), window).values
    ns = np.arange(window.start, window.stop)
    V = _coordinate(frac(frac(x0)[:, None] + ns * float(alpha)))
    best, arg = math.inf, None
    if pairs is None:
        for i in range(len(x0) - 1):
            gaps = np.max(np.abs(V[i + 1:] - V[i]), axis=1)
            j = int(np.argmin(gaps))
            if gaps[j] < best:
                best, arg = float(gaps[j]), (i, i + 1 + j)
    else:
        ij = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
        if len(ij):
            gaps = np.max(np.abs(V[ij[:, 0]] - V[ij[:, 1]]), axis=1)
            k = int(np.argmin(gaps))
            best, arg = float(gaps[k]), tuple(ij[k].tolist())
    if arg is None:
        raise ValueError("no phase pair to compare")
    return best, (phases[arg[0]], phases[arg[1]])


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


def marker_function(r: Rotation, L: int, plateau_hits: int = 64,
                    scan_limit: int = 10 ** 6) -> MarkerScheme:
    """Bump h whose orbit samples are valid markers at separation L.

    The support arc takes 90% of the closest approach of the first L
    rotation steps to 0, so two orbit points inside the support are always
    more than L steps apart. M is calibrated from the orbit scanned until
    plateau_hits visits of the h = 1 core. Return gaps to an arc take at
    most three values, the largest the sum of the other two (Slater's
    three-gap theorem), so a scan can miss the rare largest one. M is one
    above the larger of the largest observed gap and the sum of the two
    smallest distinct ones, and at least L + 2."""
    if L < 1:
        raise ValueError("L must be >= 1")
    gap = min(circle_dist(k * r.alpha, 0.0) for k in range(1, L + 1))
    if gap <= 0.0:
        raise ValueError(
            f"no admissible marker arc: some step k <= {L} of alpha = "
            f"{r.alpha} returns exactly to 0")
    w = 0.45 * gap
    h = MarkerBump(w)
    hits = []
    for start in range(0, scan_limit + 1, SCAN_CHUNK):
        ns = np.arange(start, min(start + SCAN_CHUNK, scan_limit + 1))
        hits.extend(ns[h(r.point(ns)) == 1.0].tolist())
        if len(hits) >= plateau_hits:
            break
    hits = hits[:plateau_hits]
    if len(hits) < 2:
        raise ValueError(
            f"orbit scan of {scan_limit} steps saw {len(hits)} plateau "
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
    return MarkerSeq(tuple(zip(ns[keep].tolist(), vals[keep].tolist())),
                     L=L, M=M)


@lru_cache(maxsize=1)
def _quadratic_decay_guard(kernel, near: float = 8.0,
                           far: float = 64.0) -> float:
    """Numeric stand-in for the envelope |phi(t)| <= K/(1+t^2): the
    far-field envelope constant must not exceed twice the near-field
    one. Rejects slowly decaying kernels (plain sinc fails). Returns the
    near-field K. Remembers the last kernel it passed (kernels are frozen
    and hashable), so an encoder rebuilt with the same kernel, as for a
    shift check, is guarded once; a rejection is not cached and raises
    again on every call."""
    tn = np.linspace(0.0, near, 257)
    tf = np.linspace(near, far, 449)
    k_near = float(np.max(np.abs(kernel.eval(tn)) * (1.0 + tn ** 2)))
    k_far = float(np.max(np.abs(kernel.eval(tf)) * (1.0 + tf ** 2)))
    if k_far > 2.0 * k_near:
        raise ValueError(
            f"kernel lacks a quadratic decay envelope: far-field constant "
            f"{k_far:.3g} exceeds twice the near-field {k_near:.3g}")
    return k_near


def marker_encode(r: Rotation, h, band: Band, window,
                  kernel=None) -> BandSignal:
    """Band-limited orbit encoding: one kernel copy per integer time k
    with coefficient h(x_k), modulated to the band center.

    The carrier phase is absorbed into the coefficients, so each term
    depends on (t - k) and the orbit point alone and the encoder of the
    shifted rotation equals the time-shifted encoding up to rounding and
    window truncation. Defaults to a smooth bump kernel occupying 90% of
    the band; kernels must fit the band halfwidth and decay
    quadratically."""
    window = _check_window(window)
    if kernel is None:
        kernel = BumpKernel(0.9 * (band.hi - band.lo))
    if kernel.halfwidth > (band.hi - band.lo) / 2.0 + 1e-12:
        raise ValueError(
            f"kernel halfwidth {kernel.halfwidth} exceeds band halfwidth "
            f"{(band.hi - band.lo) / 2.0}")
    _quadratic_decay_guard(kernel)
    c = band.carrier()
    nodes = tuple(float(k) for k in window)
    coeffs = tuple(h(r.point(k)) * cispi(-2.0 * c * k) for k in window)
    return BandSignal(nodes=nodes, coeffs=coeffs, kernel=kernel,
                      carrier_freq=c)


@dataclass(frozen=True, eq=False)
class SubshiftWindow:
    """A binary word observed over an integer window: one read-only uint8
    array with one letter per window site, validated balanced (two factors
    of equal length never differ by more than one in their count of
    ones). Equal when the windows and the letters are equal."""

    word: np.ndarray
    window: range

    def __post_init__(self):
        _check_window(self.window)
        raw = np.asarray(self.word)
        if raw.shape != (len(self.window),):
            raise ValueError("one letter per window site required")
        if not ((raw == 0) | (raw == 1)).all():
            raise ValueError("letters must be 0 or 1")
        word = raw.astype(np.uint8)
        # per-size prefix-sum loop: faster than numpy at codec word lengths
        prefix = [0]
        for b in word.tolist():
            prefix.append(prefix[-1] + b)
        n = len(word)
        for size in range(1, n):
            counts = [prefix[i + size] - prefix[i]
                      for i in range(n - size + 1)]
            if max(counts) - min(counts) > 1:
                raise ValueError(
                    f"word is not balanced at factor length {size}")
        word.flags.writeable = False
        object.__setattr__(self, "word", word)

    def __eq__(self, other):
        return (isinstance(other, SubshiftWindow)
                and self.window == other.window
                and np.array_equal(self.word, other.word))

    @property
    def degenerate(self) -> bool:
        return bool(self.word.min() == self.word.max())

    def __getitem__(self, n: int) -> int:
        return int(self.word[self.window.index(n)])

    def letters(self, lo: int, hi: int) -> np.ndarray:
        """Letters at sites lo..hi inclusive (a read-only slice)."""
        i = self.window.index(lo)
        return self.word[i:i + (hi - lo + 1)]

    def shifted(self, k: int) -> "SubshiftWindow":
        """The k-step shifted word: site n reads the original site n + k.
        Letters are untouched."""
        k = int(k)
        return SubshiftWindow(
            self.word, range(self.window.start - k, self.window.stop - k))


def sturmian_window(slope: float, intercept: float,
                    window) -> SubshiftWindow:
    """Mechanical word over the window: letter at n is
    floor((n+1) slope + intercept) - floor(n slope + intercept).

    Irrational slopes give Sturmian words; rational slopes give periodic
    balanced words; slope 0 is the all-zero word (degenerate flag)."""
    window = _check_window(window)
    ns = np.arange(window.start, window.stop)
    word = (np.floor((ns + 1) * slope + intercept)
            - np.floor(ns * slope + intercept))
    return SubshiftWindow(word, window)


def _check_markers(markers, window: range) -> tuple:
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


def toy_encode(x: SubshiftWindow, markers, G=None, window=None,
               tube: float = None) -> DiscreteSignal:
    """Tile the window by nearest marker and apply one block map per tile.

    Each tile of size c feeds its uint8 letter block to the size-c map of
    the family G (a mapping from block length to map, or one map used for
    every length; default is the identity inclusion of binary blocks) and
    the c outputs land on the tile's sites in order. The result restricts
    to the requested subwindow. With tube set, the output must stay within
    tube of the identity encoding (the word itself) at every site."""
    if window is None:
        window = x.window
    window = _check_window(window)
    if window.start < x.window.start or window.stop > x.window.stop:
        raise ValueError("requested window exceeds the word window")
    start = x.window.start
    values = np.empty(len(x.window))
    for m, lo, hi in voronoi_tiles(markers, x.window):
        block = x.letters(lo, hi)
        size = hi - lo + 1
        if isinstance(G, Mapping):
            if size not in G:
                raise ValueError(
                    f"no block map of length {size} supplied; the tile of "
                    f"marker {m} spans sites {lo}..{hi}")
            gmap = G[size]
        else:
            gmap = G
        out = block if gmap is None else np.fromiter(gmap(block), float)
        if out.size != size:
            raise ValueError(
                f"block map returned {out.size} values for a tile of "
                f"size {size}")
        values[lo - start:hi - start + 1] = out
    sub = slice(window.start - start, window.stop - start)
    sig = DiscreteSignal(window, values[sub])
    if tube is not None:
        gap = float(np.max(np.abs(sig.values - x.word[sub])))
        if gap >= tube:
            raise ValueError(
                f"encoded signal leaves the tube: sup gap {gap:.6g} >= "
                f"{tube} from the identity encoding")
    return sig


def _local_word_distance(x: SubshiftWindow, y: SubshiftWindow, lo: int,
                         hi: int) -> float:
    """2^(-r) where r is the distance from the base points lo..hi to the
    nearest visible disagreement, 0 when the words agree on the whole
    window: the largest local word distance over those base points."""
    sites = np.flatnonzero(x.word != y.word) + x.window.start
    if sites.size == 0:
        return 0.0
    r = int(np.min(np.maximum(np.maximum(lo - sites, sites - hi), 0)))
    return 2.0 ** (-r)


def word_metric(x: SubshiftWindow, y: SubshiftWindow) -> float:
    """Distance 2^(-|k|) for the disagreement site k nearest the origin,
    0 when the words agree on their (shared) window."""
    if x.window != y.window:
        raise ValueError("words live on different windows")
    return _local_word_distance(x, y, 0, 0)


def bowen_metric(x: SubshiftWindow, y: SubshiftWindow, start: int,
                 length: int) -> float:
    """max of the local word distance over base points start..start+
    length-1: the length-step trajectory distance."""
    if x.window != y.window:
        raise ValueError("words live on different windows")
    if length < 1:
        raise ValueError("length must be >= 1")
    return _local_word_distance(x, y, start, start + length - 1)


def marker_cylinder(x: SubshiftWindow, N: int) -> tuple:
    """A factor of x whose occurrence set is N-separated, with its
    occurrence sites: (block, positions).

    Exhaustive search over all factors present in the window, preferring
    more occurrences (better coverage), then shorter blocks, then
    lexicographic order. Always succeeds: the whole window is a factor
    with a single (trivially N-separated) occurrence."""
    if N < 1:
        raise ValueError("N must be >= 1")
    # byte slices order like letter blocks and key dicts faster than numpy
    word, start = x.word.tobytes(), x.window.start
    n = len(word)
    best = None
    for size in range(1, n + 1):
        seen = {}
        for i in range(n - size + 1):
            seen.setdefault(word[i:i + size], []).append(start + i)
        # blocks are distinct, so the key breaks every tie in any order
        for block, sites in seen.items():
            if any(q - p <= N for p, q in zip(sites, sites[1:])):
                continue
            key = (-len(sites), size, block, sites[0])
            if best is None or key < best[0]:
                best = (key, sites)
        # a longer block has at most n - size occurrences; stop once the
        # incumbent count is out of reach
        if best is not None and -best[0][0] >= n - size:
            break
    (_, _, block, _), sites = best
    return tuple(block), tuple(sites)


@dataclass(frozen=True)
class ToyReport:
    """Verification outcome over word pairs sharing a marker set.

    violations: pairs whose encodings agree to eta yet whose word
    distance reaches delta. chain_failures: pairs where the distance at
    the origin exceeded the trajectory distance over the origin's tile
    (impossible; a nonempty list is a bug witness). eps_failures: pairs
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


def toy_verify(pairs, markers, delta: float, eps: float,
               eta: float = 0.0, G=None) -> ToyReport:
    """Check the delta-embedding property of toy_encode over word pairs.

    markers is one shared set, or one set per pair. For every pair whose
    encodings agree to within eta, the word distance must stay below
    delta. The origin's tile additionally realizes the two-step chain:
    distance at the origin <= trajectory distance over the tile (always),
    and < eps whenever the pair's letter blocks on that tile agree."""
    pairs = list(pairs)
    if not pairs:
        raise ValueError("no pairs given")
    per_pair = len(markers) > 0 and not isinstance(
        next(iter(markers)), (int, np.integer))
    if per_pair and len(markers) != len(pairs):
        raise ValueError("one marker set per pair required")
    violations = []
    chain_failures = []
    eps_failures = []
    equal = 0
    for i, (x, y) in enumerate(pairs):
        if x.window != y.window:
            raise ValueError(f"pair {i}: words on different windows")
        mk = markers[i] if per_pair else markers
        gx = toy_encode(x, mk, G)
        gy = toy_encode(y, mk, G)
        sup = gx.sup_gap(gy)
        d = word_metric(x, y)
        if sup <= eta:
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
