"""Voronoi tilings of the line driven by marker sequences.

Markers are integer positions n with heights h in (0,1]. Each marker lifts
to the plane point (n, 1/h); the tile of marker n is the set of t whose
lifted distance to (n, 1/h_n) is minimal. Every pairwise comparison is
linear in t (the t^2 cancels), so tiles are intervals and the tile of n is

    [ max over m < n of bisector(m, n),  min over m > n of bisector(m, n) ]

with bisector(m, n) = (m^2 + h_m^-2 - n^2 - h_n^-2) / (2 (m - n)), empty
when the bounds invert.

Only markers within 2M matter: a height-1 marker sits within M on each
side (marker invariant), and for any farther marker at distance D the
bisector value D/2 + (h^-2 - h_n^-2)/(2D) is increasing in D once h <= 1,
so the near height-1 marker's constraint is always at least as tight.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .numutil import is_integer, shift_count

SNAP = 1e-9

MARKER_DTYPE = np.dtype([("n", np.int64), ("h", np.float64)])


@dataclass(frozen=True, eq=False)
class MarkerSeq:
    """Sorted (position, height) markers with gap and height-1 coverage
    invariants: positions pairwise more than L apart, and consecutive
    height-1 markers at most M apart (so every length-M integer window
    inside the covered span sees a height-1 marker).

    entries: read-only MARKER_DTYPE records (n: int64, h: float64), from
    such an array (copied) or any sequence of (integer, height) pairs. A
    failed check names the first offending pair."""

    entries: np.ndarray
    L: int
    M: int

    def __post_init__(self):
        for val in (self.L, self.M):
            if not is_integer(val):
                raise ValueError(f"L and M must be integers, got {val!r}")
        if self.L < 1 or self.M <= self.L:
            raise ValueError("need M > L >= 1")
        entries = self.entries
        if not (isinstance(entries, np.ndarray)
                and entries.dtype == MARKER_DTYPE):
            entries = [(n, h) for n, h in entries]
            kind = np.array([n for n, _ in entries]).dtype.kind
            if entries and kind not in "iu":
                raise ValueError("marker positions must be integers")
        entries = np.array(entries, dtype=MARKER_DTYPE)
        ns, hs = entries["n"], entries["h"]
        gaps = np.diff(ns)
        # L >= 1, so a step that is not increasing is a close pair too
        for i in np.flatnonzero(gaps <= self.L)[:1]:
            if gaps[i] <= 0:
                raise ValueError("marker positions must be strictly increasing")
            raise ValueError(
                f"markers {ns[i]}, {ns[i + 1]} closer than L={self.L}")
        # written so that NaN fails too
        for n, h in entries[~((hs > 0.0) & (hs <= 1.0))][:1].tolist():
            raise ValueError(f"height at {n} outside (0, 1]: {h}")
        ones = ns[hs == 1.0]
        if ns.size and not ones.size:
            raise ValueError("marker sequence has no height-1 marker")
        for i in np.flatnonzero(np.diff(ones) > self.M)[:1]:
            raise ValueError(f"height-1 markers {ones[i]}, {ones[i + 1]} "
                             f"farther than M={self.M}")
        entries.flags.writeable = False
        object.__setattr__(self, "entries", entries)

    def to_json(self) -> dict:
        return {"L": self.L, "M": self.M, "entries": self.entries.tolist()}

    @classmethod
    def from_json(cls, d: dict) -> "MarkerSeq":
        return cls(d["entries"], L=d["L"], M=d["M"])


def shift_markers(markers: MarkerSeq, k: int) -> MarkerSeq:
    """Markers of the k-step shifted orbit: positions move by -k."""
    entries = markers.entries.copy()
    entries["n"] -= shift_count(k)
    return MarkerSeq(entries, markers.L, markers.M)


@dataclass(frozen=True)
class Tile:
    lo: float
    hi: float
    clipped_lo: bool = False
    clipped_hi: bool = False

    def __post_init__(self):
        if not -math.inf < self.lo <= self.hi < math.inf:  # NaN fails too
            raise ValueError(f"tile [{self.lo}, {self.hi}] needs finite ends "
                             "lo <= hi")

    @property
    def length(self) -> float:
        return self.hi - self.lo


@dataclass(frozen=True)
class Tiling:
    """Tiles per marker index over a window; None marks a tile that is
    empty (dominated) or entirely outside the window."""

    tiles: tuple  # ((n, Tile | None), ...)
    window: tuple
    L: int
    M: int

    def __post_init__(self):
        if not -math.inf < self.window[0] <= self.window[1] < math.inf:
            raise ValueError(f"window {self.window!r} needs finite lo <= hi")
        # the first entry wins for a repeated index, as a scan would find
        object.__setattr__(self, "_index", dict(reversed(self.tiles)))

    def tile(self, n: int):
        try:
            return self._index[n]
        except KeyError:
            raise KeyError(f"no marker with index {n}") from None

    def nonempty(self) -> tuple:
        return tuple((n, t) for n, t in self.tiles if t is not None)

    def to_json(self) -> dict:
        return {
            "window": list(self.window), "L": self.L, "M": self.M,
            "tiles": [{"n": n,
                       "interval": None if t is None else [t.lo, t.hi],
                       "clipped": None if t is None
                       else [t.clipped_lo, t.clipped_hi]}
                      for n, t in self.tiles],
        }

    @classmethod
    def from_json(cls, d: dict) -> "Tiling":
        # integers pass through unconverted, so a fractional or boolean
        # value is rejected instead of truncated
        for val in (d["L"], d["M"], *(row["n"] for row in d["tiles"])):
            if not is_integer(val):
                raise ValueError(f"L, M and tile indices must be integers, "
                                 f"got {val!r}")
        tiles = tuple((row["n"], None if row["interval"] is None
                       else Tile(*row["interval"], *row["clipped"]))
                      for row in d["tiles"])
        return cls(tiles, tuple(d["window"]), L=d["L"], M=d["M"])


def _bisector(m: int, hm: float, n: int, hn: float) -> float:
    return (m * m + hm ** -2 - n * n - hn ** -2) / (2.0 * (m - n))


def compute_tiles(markers: MarkerSeq, window) -> Tiling:
    win_lo, win_hi = float(window[0]), float(window[1])
    if not (math.isfinite(win_lo) and math.isfinite(win_hi)):
        raise ValueError(f"window ends must be finite, got {window!r}")
    if win_hi <= win_lo:
        raise ValueError("window must have positive width")
    M = markers.M
    near = [(n, h) for n, h in markers.entries.tolist()
            if win_lo - M <= n <= win_hi + M]
    if not near:
        raise ValueError("no markers inside the M-padded window")
    gap = max((q - p for (p, _), (q, _) in zip(near, near[1:])), default=0)
    if win_hi - win_lo < gap:
        raise ValueError(
            f"window width {win_hi - win_lo} narrower than the marker gap "
            f"{gap}; tiles would be dominated by unseen neighbors")
    tiles = []
    for i, (n, h) in enumerate(near):
        lo, hi = -math.inf, math.inf
        for j in range(i - 1, -1, -1):
            m, g = near[j]
            if n - m > 2 * M:
                break
            lo = max(lo, _bisector(m, g, n, h))
        for j in range(i + 1, len(near)):
            m, g = near[j]
            if m - n > 2 * M:
                break
            hi = min(hi, _bisector(m, g, n, h))
        c_lo, c_hi = max(lo, win_lo), min(hi, win_hi)
        tiles.append((n, None if lo > hi or c_lo > c_hi else
                      Tile(c_lo, c_hi, clipped_lo=lo < win_lo,
                           clipped_hi=hi > win_hi)))
    return Tiling(tuple(tiles), (win_lo, win_hi), L=markers.L, M=markers.M)


def boundary_points(t: Tiling) -> np.ndarray:
    """The distinct endpoints of the nonempty tiles, sorted ascending."""
    return np.array(sorted({p for _, tile in t.nonempty()
                            for p in (tile.lo, tile.hi)}), dtype=float)


def boundary_set(t: Tiling, r: float) -> tuple:
    """Union of the +-r collars of every nonempty tile endpoint, clipped to
    the window and merged into disjoint intervals. r = 0 gives the finite
    endpoint set (degenerate intervals). Raises ValueError unless r >= 0
    is finite, so a NaN or infinite radius is rejected."""
    if not 0 <= r < math.inf:
        raise ValueError(f"collar radius r must be >= 0 and finite, got {r}")
    win_lo, win_hi = t.window
    merged = []
    for p in boundary_points(t).tolist():
        lo, hi = max(p - r, win_lo), min(p + r, win_hi)
        if hi < lo:
            continue
        if merged and lo <= merged[-1][1] + SNAP:
            merged[-1] = (merged[-1][0], max(merged[-1][1], hi))
        else:
            merged.append((lo, hi))
    return tuple(merged)


@dataclass(frozen=True)
class DensityReport:
    count_density: float
    measure_density: float
    count_bound_finite: float
    measure_bound_finite: float
    count_bound_asymptotic: float
    measure_bound_asymptotic: float


def density_report(t: Tiling, r: float, R: float, a: float) -> DensityReport:
    """Integer-count and Lebesgue densities of the r-collar boundary set in
    [a, a+R], with the guaranteed bounds: asymptotically (4r+2)/L and
    4r/L, and at finite R the proof's corrected forms. Raises ValueError
    unless R > 0, [a, a+R] lies inside the tiling window and r >= 0 is
    finite (as boundary_set does), so a NaN R, a or r and an infinite r
    are rejected."""
    if not R > 0:
        raise ValueError(f"R must be positive, got {R}")
    win_lo, win_hi = t.window
    if not (a >= win_lo - SNAP and a + R <= win_hi + SNAP):
        raise ValueError(
            f"[a, a+R] must lie inside the tiling window, got a = {a}, R = {R}")
    count = 0
    measure = 0.0
    for lo, hi in boundary_set(t, r):
        lo, hi = max(lo, a), min(hi, a + R)
        if hi < lo:
            continue
        measure += hi - lo
        count += max(0, math.floor(hi + SNAP) - math.ceil(lo - SNAP) + 1)
    L, M = t.L, t.M
    stretch = 1.0 + (R + M) / L
    count_fin = (2.0 * (r + 1.0) + 2.0 * (2.0 * r + 1.0) * stretch) / R
    measure_fin = (2.0 * r + 4.0 * r * stretch) / R
    return DensityReport(count_density=count / R, measure_density=measure / R,
                         count_bound_finite=count_fin,
                         measure_bound_finite=measure_fin,
                         count_bound_asymptotic=(4.0 * r + 2.0) / L,
                         measure_bound_asymptotic=4.0 * r / L)


def random_marker_seq(L: int, M: int, lo: float, hi: float,
                      rng) -> MarkerSeq:
    """Markers spanning [lo, hi] with M+L padding on both sides: integer
    gaps uniform in [L+1, M-1], heights from the uniform grid
    {1/8, 2/8, ..., 1}, height 1 forced one step before waiting any longer
    would break coverage.

    Gaps stay strictly below M so no two height-1 markers sit exactly M
    apart; that configuration puts a Voronoi tie exactly on a tile bound
    and breaks strict containment in (n - M/2, n + M/2)."""
    if M < L + 2:
        raise ValueError("need M >= L + 2")
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError(f"marker span [{lo}, {hi}] must have finite bounds")
    start = int(math.floor(lo)) - M - L - int(rng.integers(0, M))
    stop = int(math.ceil(hi)) + M + L
    positions = [start]
    while positions[-1] <= stop:
        positions.append(positions[-1] + int(rng.integers(L + 1, M)))
    entries, last_one = [], None
    for p, q in zip(positions, positions[1:] + [positions[-1] + M + 1]):
        h = float(rng.integers(1, 9)) / 8
        if h == 1.0 or last_one is None or q - last_one >= M:
            h, last_one = 1.0, p
        entries.append((p, h))
    return MarkerSeq(entries, L=L, M=M)
