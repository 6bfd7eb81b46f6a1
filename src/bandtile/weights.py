"""Tax allocation over line tilings.

Long tiles hold slack that can absorb perturbations; integers close to a
tile boundary have none and need help from a nearby long tile. This module
moves that slack around explicitly: every tile longer than ``tax_threshold``
pays tax, every integer within ``care_range`` of a tile boundary states a
need, and a round-based greedy transfer matches donors to receivers going
rightward. A final amplify-and-clamp cascade turns raw transfers into
weights in [0, 1] whose support stays proportional to the tax paid, while
every integer very close to a boundary (within care_range - 4) is
guaranteed one full weight of 1.

All computations run on a finite window. Quantities are only trustworthy on
a core sub-window: receivers need their full donor span inside the region
where tiles are exact, so the core keeps ``reach + M`` off the left window
edge and ``2 M`` off the right. See ``bases`` for the exact margins.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .tiling import Tile, Tiling, boundary_points

SLACK = 1e-9


class SurplusError(ValueError):
    """A receiver kept unmet need after the last greedy round: the tax
    collected inside its donor span does not cover the care it requires,
    so the surplus inequality fails on this instance."""


@dataclass(frozen=True)
class WeightParams:
    """Parameters of the tax system. cost_ratio scales how much tax one
    unit of care costs; care_range is how far from a boundary an integer
    still needs care; tiles longer than tax_threshold pay tax; L and M are
    the marker gap bounds of the underlying tiling; a donor at n serves
    receivers n..n+reach and reach is also the averaging window length."""

    cost_ratio: float
    care_range: int
    tax_threshold: int
    L: int
    M: int
    reach: int

    def __post_init__(self):
        if self.cost_ratio <= 0:
            raise ValueError("cost_ratio must be positive")
        for name in ("care_range", "tax_threshold", "L", "M", "reach"):
            val = getattr(self, name)
            if not isinstance(val, (int, np.integer)) or isinstance(val, bool):
                raise ValueError(f"{name} must be an integer")
        if self.care_range < 0 or self.tax_threshold < 0:
            raise ValueError("care_range and tax_threshold must be >= 0")
        if self.L < 1 or self.M < 1 or self.reach < 1:
            raise ValueError("L, M, reach must be >= 1")

    def to_json(self) -> dict:
        return {"cost_ratio": self.cost_ratio, "care_range": self.care_range,
                "tax_threshold": self.tax_threshold, "L": self.L,
                "M": self.M, "reach": self.reach}

    @classmethod
    def from_json(cls, d: dict) -> "WeightParams":
        # integer fields pass through unconverted, so __post_init__ rejects
        # a fractional or boolean value instead of truncating it
        return cls(cost_ratio=float(d["cost_ratio"]),
                   care_range=d["care_range"],
                   tax_threshold=d["tax_threshold"],
                   L=d["L"], M=d["M"], reach=d["reach"])


def validate_params(p: WeightParams) -> bool:
    """True when the gap bound is large enough that tax always covers care
    (L > 4 L1 + 1 + 4 C L0 (4 L0 + 3)) and the window chain reach > M > L
    holds. Construction only checks positivity, so invalid parameter sets
    can be built and probed."""
    c, l0, l1 = p.cost_ratio, p.care_range, p.tax_threshold
    return (p.L > 4 * l1 + 1 + 4 * c * l0 * (4 * l0 + 3)
            and p.reach > p.M > p.L)


def _boundary_distance(t: Tiling, xs: np.ndarray) -> np.ndarray:
    """Distance from each x to the nearest endpoint of a nonempty tile,
    inf when the tiling has none: one searchsorted over the sorted
    endpoints, then the nearer of the two neighbours."""
    pts = boundary_points(t)
    xs = np.asarray(xs, dtype=float)
    if pts.size == 0:
        return np.full(xs.shape, math.inf)
    i = np.searchsorted(pts, xs)
    right = np.where(i < pts.size, pts[np.minimum(i, pts.size - 1)] - xs,
                     math.inf)
    left = np.where(i > 0, xs - pts[np.maximum(i - 1, 0)], math.inf)
    return np.minimum(right, left)


def receiver_core(t: Tiling, p: WeightParams) -> range:
    """Integers whose transfers are trustworthy on this window. A receiver
    needs every donor in [r - reach, r] to have an exact tile (markers at
    least M inside the window) and its own boundary distance to be exact
    (no clipped or truncated tile endpoint within care_range), which keeps
    reach + M off the left edge and 2 M off the right."""
    win_lo, win_hi = t.window
    lo = math.ceil(win_lo + p.reach + p.M - SLACK)
    hi = math.floor(win_hi - 2 * p.M + SLACK)
    return range(lo, hi + 1)


def bases(t: Tiling, p: WeightParams) -> tuple:
    """Initial tax capacity per donor tile and care need per receiver
    integer: a0[n] = (|tile n| - tax_threshold)+ / cost_ratio for markers
    at least M inside the window, b0[r] = (care_range - dist(r, boundary))+
    for r in the receiver core. Both maps are sparse: missing keys mean 0."""
    if (t.L, t.M) != (p.L, p.M):
        raise ValueError(
            f"tiling gap bounds {(t.L, t.M)} do not match params "
            f"{(p.L, p.M)}")
    win_lo, win_hi = t.window
    a0 = {}
    for n, tile in t.nonempty():
        if not win_lo + p.M - SLACK <= n <= win_hi - p.M + SLACK:
            continue
        if tile.clipped_lo or tile.clipped_hi:
            raise ValueError(f"tile {n} is clipped inside the donor zone")
        tax = max(tile.length - p.tax_threshold, 0.0) / p.cost_ratio
        if tax > 0.0:
            a0[int(n)] = tax
    core = receiver_core(t, p)
    rs = np.arange(core.start, core.stop)
    need = p.care_range - _boundary_distance(t, rs)
    keep = need > 0.0
    return a0, dict(zip(rs[keep].tolist(), need[keep].tolist()))


def greedy_rounds(a0: dict, b0: dict, p: WeightParams) -> dict:
    """Round-based transfer: at round m each donor n pays
    min(remaining a_n, remaining b_{n+m}) to receiver n + m. Rounds run
    m = 0..reach; donors go in ascending order inside a round (each
    receiver is touched by exactly one donor per round, so the order only
    fixes reproducibility). Returns the sparse transfer map
    (n, m) -> amount. Raises SurplusError if any receiver keeps need
    beyond 1e-9 after the last round."""
    a = {int(n): float(x) for n, x in a0.items() if x > 0.0}
    b = {int(n): float(x) for n, x in b0.items() if x > 0.0}
    if min(a.values(), default=0.0) < 0.0 or min(b.values(),
                                                 default=0.0) < 0.0:
        raise ValueError("bases must be nonnegative")
    donors = sorted(a)
    v = {}
    for m in range(p.reach + 1):
        for n in donors:
            have = a[n]
            if have <= 0.0:
                continue
            need = b.get(n + m, 0.0)
            if need <= 0.0:
                continue
            pay = min(have, need)
            v[n, m] = pay
            a[n] = have - pay
            b[n + m] = need - pay
    unmet = {r: left for r, left in sorted(b.items()) if left > SLACK}
    if unmet:
        worst = max(unmet, key=unmet.get)
        raise SurplusError(
            f"{len(unmet)} receivers kept unmet need after round "
            f"{p.reach}; worst is {worst} needing {unmet[worst]:.6g} more. "
            f"Tax inside its donor span cannot cover care: the parameters "
            f"and tiling are inconsistent.")
    return v


ENTRY = np.dtype([("n", np.int64), ("m", np.int64),
                  ("transfer", np.float64), ("weight", np.float64)])


@dataclass(frozen=True, eq=False)
class WeightMatrix:
    """Finalized allocation as one read-only record array: entries holds
    one record (n, m, transfer, weight) per greedy transfer from donor n
    to receiver n + m, sorted by (n, m), with transfer >= 0, 0 <= m <=
    reach and weight in [0, 1]. Every (n, m) without a record has weight
    0: there the transfer is 0, and the cascade multiplies it by a gain of
    at least 1. Compare two matrices by their entries (np.array_equal)."""

    entries: np.ndarray
    params: WeightParams

    def __post_init__(self):
        e = self.entries
        n, m, x, w = (e[name] for name in ENTRY.names)
        ok = ((m >= 0) & (m <= self.params.reach) & (x >= 0.0)
              & (w >= 0.0) & (w <= 1.0))
        if not ok.all():
            raise ValueError(f"record {e[np.argmin(ok)]} needs 0 <= m <= "
                             f"reach, transfer >= 0 and weight in [0, 1]")
        rising = (n[1:] > n[:-1]) | ((n[1:] == n[:-1]) & (m[1:] > m[:-1]))
        if not rising.all():
            raise ValueError(f"record {e[np.argmin(rising) + 1]} breaks "
                             f"the strict (n, m) order")
        e.flags.writeable = False


def finalize(v: dict, p: WeightParams) -> WeightMatrix:
    """Cascade the raw transfers into [0, 1] weights. Each donor row is
    amplified right to left (gain reach when every later amplified entry
    is below 1, shrinking linearly to gain 1 once one reaches 1) and then
    clamped by w = min(max(y - 1, 0), 1). The cascade adds at most one
    new positive entry per row beyond the entries already above 1.
    Only a row's own transfers are visited: an index without one amplifies
    to gain * 0 = 0, so its weight is 0 and the running best is unchanged."""
    recs = sorted((int(n), int(m), float(x)) for (n, m), x in v.items())
    weights = [0.0] * len(recs)
    row = None
    for i in range(len(recs) - 1, -1, -1):
        n, _, x = recs[i]
        if n != row:
            row, best = n, 0.0
        gain = p.reach - (p.reach - 1.0) * min(best, 1.0)
        y = gain * x
        best = max(best, y)
        weights[i] = min(max(y - 1.0, 0.0), 1.0)
    entries = np.array([rec + (w,) for rec, w in zip(recs, weights)],
                       dtype=ENTRY)
    return WeightMatrix(entries=entries, params=p)


def _translate_tiling(t: Tiling, k: int) -> Tiling:
    # exact translation by an integer; the round-trip assert would only
    # fire at magnitudes far beyond any realistic window
    def mv(x: float) -> float:
        y = x - k
        if y + k != x:
            raise ArithmeticError(f"translating {x} by {k} is inexact")
        return y

    tiles = tuple(
        (n - k, None if tile is None else Tile(
            mv(tile.lo), mv(tile.hi), tile.clipped_lo, tile.clipped_hi))
        for n, tile in t.tiles)
    return Tiling(tiles, (mv(t.window[0]), mv(t.window[1])), L=t.L, M=t.M)


@dataclass(frozen=True)
class WeightReport:
    """Per-condition outcome of verify_conditions. equivariant: shifting
    the tiling by one step shifts every row index by one, exactly.
    short_rows_zero: tiles of length <= tax_threshold pay nothing.
    support_capped: positive entries per row stay within
    1 + (|tile| - tax_threshold)+ / cost_ratio. wild_served: every core
    integer within care_range - 4 of the boundary receives a full weight
    of 1 from some donor."""

    equivariant: bool
    short_rows_zero: bool
    support_capped: bool
    wild_served: bool
    rows_checked: int
    wild_points: int
    witnesses: tuple

    @property
    def passed(self) -> bool:
        return (self.equivariant and self.short_rows_zero
                and self.support_capped and self.wild_served)

    def to_json(self) -> dict:
        return {"conditions": {
                    "equivariant": self.equivariant,
                    "short_rows_zero": self.short_rows_zero,
                    "support_capped": self.support_capped,
                    "wild_served": self.wild_served},
                "rows_checked": self.rows_checked,
                "wild_points": self.wild_points,
                "passed": self.passed,
                "witnesses": list(self.witnesses)}


def verify_conditions(w: WeightMatrix, t: Tiling, p: WeightParams,
                      shift: int = 1) -> WeightReport:
    """Check the four allocation conditions on one instance. Equivariance
    recomputes the pipeline on the exactly translated tiling and demands
    bitwise equal records at shifted donor indices; the other three are
    read off the records, since every (n, m) without one has weight 0.
    Failures land in witnesses, never raise."""
    witnesses = []

    a0, b0 = bases(t, p)
    base = finalize(greedy_rounds(a0, b0, p), p)
    equivariant = True
    if not np.array_equal(base.entries, w.entries):
        equivariant = False
        witnesses.append("matrix does not match the pipeline output "
                         "for this tiling")
    else:
        t2 = _translate_tiling(t, shift)
        a2, b2 = bases(t2, p)
        moved = finalize(greedy_rounds(a2, b2, p), p)
        want = w.entries.copy()
        want["n"] -= shift
        if not np.array_equal(moved.entries, want):
            equivariant = False
            witnesses.append(f"shift by {shift} does not reindex the "
                             f"matrix exactly")

    e = w.entries
    donors, counts = np.unique(e["n"][e["weight"] > 0.0], return_counts=True)
    positives = dict(zip(donors.tolist(), counts.tolist()))
    win_lo, win_hi = t.window
    short_rows_zero = True
    support_capped = True
    rows_checked = 0
    for n, tile in t.nonempty():
        if not win_lo + p.M - SLACK <= n <= win_hi - p.M + SLACK:
            continue
        rows_checked += 1
        positive = positives.get(int(n), 0)
        if tile.length <= p.tax_threshold and positive > 0:
            short_rows_zero = False
            witnesses.append(f"tile {n} of length {tile.length:.6g} <= "
                             f"{p.tax_threshold} pays tax")
        cap = 1.0 + max(tile.length - p.tax_threshold, 0.0) / p.cost_ratio
        if positive > cap + SLACK:
            support_capped = False
            witnesses.append(f"row {n} has {positive} positive entries, "
                             f"cap {cap:.6g}")

    core = receiver_core(t, p)
    rs = np.arange(core.start, core.stop)
    wild = rs[_boundary_distance(t, rs) <= p.care_range - 4 + SLACK]
    full = e["weight"] >= 1.0 - SLACK
    unserved = wild[~np.isin(wild, e["n"][full] + e["m"][full])]
    wild_served = unserved.size == 0
    witnesses.extend(f"wild point {r} never receives weight 1"
                     for r in unserved.tolist())

    return WeightReport(equivariant=equivariant,
                        short_rows_zero=short_rows_zero,
                        support_capped=support_capped,
                        wild_served=wild_served,
                        rows_checked=rows_checked,
                        wild_points=len(wild),
                        witnesses=tuple(witnesses))


def surplus_check(t: Tiling, p: WeightParams, a: float) -> bool:
    """Tax versus care over one averaging window: sum of
    (|tile n| - tax_threshold)+ over markers n in [a, a + reach] must reach
    cost_ratio times the sum of (care_range - dist(r, boundary))+ over
    integers r there. The window must cover [a - M, a + reach + M] so both
    sums use exact tiles."""
    win_lo, win_hi = t.window
    if a - p.M < win_lo - SLACK or a + p.reach + p.M > win_hi + SLACK:
        raise ValueError(
            "tiling window must cover [a - M, a + reach + M]")
    tax = sum(max(tile.length - p.tax_threshold, 0.0)
              for n, tile in t.nonempty()
              if a - SLACK <= n <= a + p.reach + SLACK)
    rs = np.arange(math.ceil(a - SLACK), math.floor(a + p.reach + SLACK) + 1)
    # a Python sum adds left to right; np.sum's pairwise order rounds apart
    care = sum(np.maximum(p.care_range - _boundary_distance(t, rs),
                          0.0).tolist())
    return tax + SLACK >= p.cost_ratio * care
