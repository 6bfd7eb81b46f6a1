import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bandtile.tiling import (
    MarkerSeq,
    Tile,
    Tiling,
    boundary_set,
    compute_tiles,
    density_report,
    random_marker_seq,
    shift_markers,
)


def two_markers(h0=1.0, h1=1.0, L=3, M=12):
    return MarkerSeq(((0, h0), (10, h1)), L=L, M=M)


def test_marker_seq_rejects_bad_input():
    with pytest.raises(ValueError):
        MarkerSeq(((0, 1.0), (3, 1.0)), L=3, M=12)  # gap <= L
    with pytest.raises(ValueError):
        MarkerSeq(((0, 0.5), (10, 0.5)), L=3, M=12)  # no height-1 marker
    with pytest.raises(ValueError):
        MarkerSeq(((0, 1.0), (10, 1.5)), L=3, M=12)  # height above 1
    with pytest.raises(ValueError):
        MarkerSeq(((0, 1.0), (20, 1.0)), L=3, M=12)  # ones farther than M


def test_equal_heights_bisect_at_midpoint():
    t = compute_tiles(two_markers(), (-5.0, 15.0))
    assert t.tile(0).hi == 5.0
    assert t.tile(10).lo == 5.0


def test_unequal_heights_frozen_bisector():
    # solve t^2 + 1 = (t - 10)^2 + 4 for heights 1 and 1/2
    t = compute_tiles(two_markers(h1=0.5), (-5.0, 15.0))
    assert t.tile(0).hi == 5.15
    assert t.tile(10).lo == 5.15


@pytest.mark.parametrize("window", [(-3.0, math.inf), (-math.inf, 15.0),
                                    (math.nan, 15.0), (-3.0, math.nan)])
def test_compute_tiles_rejects_window_ends_that_are_not_finite(window):
    # an infinite end gave a last tile running to inf, and a NaN end
    # failed as "no markers inside the M-padded window"
    with pytest.raises(ValueError, match="window ends must be finite"):
        compute_tiles(two_markers(), window)


def test_tile_lookup_by_index():
    t = Tiling(tiles=((0, Tile(-5.0, 5.0)), (10, None), (0, Tile(0.0, 1.0))),
               window=(-5.0, 15.0), L=3, M=12)
    assert t.tile(0) == Tile(-5.0, 5.0)  # the first entry for an index
    assert t.tile(10) is None
    with pytest.raises(KeyError, match="no marker with index 7"):
        t.tile(7)
    assert Tiling.from_json(t.to_json()) == t


def test_single_marker_owns_the_window():
    m = MarkerSeq(((0, 1.0),), L=3, M=12)
    t = compute_tiles(m, (-5.0, 5.0))
    tile = t.tile(0)
    assert (tile.lo, tile.hi) == (-5.0, 5.0)
    assert tile.clipped_lo and tile.clipped_hi


def test_shift_zero_is_identity():
    m = two_markers(h1=0.5)
    assert np.array_equal(shift_markers(m, 0).entries, m.entries)


def test_shift_reindexes_the_frozen_bisector():
    m = shift_markers(two_markers(h1=0.5), 1)
    assert m.entries["n"].tolist() == [-1, 9]
    t = compute_tiles(m, (-6.0, 14.0))
    assert t.tile(-1).hi == 4.15


def test_shift_round_trip():
    m = two_markers(h1=0.75)
    assert np.array_equal(shift_markers(shift_markers(m, 4), -4).entries,
                          m.entries)


def test_shift_equivariance_on_random_tilings():
    """Shifting markers by k and the window with them moves every tile
    bound by exactly -k, up to 1e-9 float slack."""
    rng = np.random.default_rng(12)
    for _ in range(50):
        markers = random_marker_seq(8, 30, 0.0, 300.0, rng)
        k = int(rng.integers(-40, 41))
        t = compute_tiles(markers, (0.0, 300.0))
        ts = compute_tiles(shift_markers(markers, k), (0.0 - k, 300.0 - k))
        for (n, a), (m, b) in zip(t.tiles, ts.tiles):
            assert m == n - k
            if a is None:
                assert b is None
                continue
            assert b.lo == pytest.approx(a.lo - k, abs=1e-9)
            assert b.hi == pytest.approx(a.hi - k, abs=1e-9)


def test_strict_containment_on_random_tilings():
    rng = np.random.default_rng(5)
    for _ in range(100):
        L, M = 8, 30
        markers = random_marker_seq(L, M, 0.0, 400.0, rng)
        t = compute_tiles(markers, (0.0, 400.0))
        for n, tile in t.nonempty():
            assert n - M / 2.0 < tile.lo
            assert tile.hi < n + M / 2.0


def test_generator_keeps_height_one_gaps_below_M():
    rng = np.random.default_rng(9)
    for _ in range(20):
        markers = random_marker_seq(8, 30, 0.0, 500.0, rng)
        ones = [n for n, h in markers.entries if h == 1.0]
        assert max(q - p for p, q in zip(ones, ones[1:])) < 30
    with pytest.raises(ValueError):
        random_marker_seq(8, 9, 0.0, 100.0, rng)  # needs M >= L + 2


def test_boundary_set_zero_radius_is_endpoint_set():
    t = compute_tiles(two_markers(), (-5.0, 15.0))
    pts = boundary_set(t, 0.0)
    assert pts == ((-5.0, -5.0), (5.0, 5.0), (15.0, 15.0))


def test_boundary_set_collars_merge():
    t = compute_tiles(two_markers(), (-5.0, 15.0))
    assert boundary_set(t, 1.0) == ((-5.0, -4.0), (4.0, 6.0), (14.0, 15.0))
    # radius large enough to fuse everything
    assert boundary_set(t, 6.0) == ((-5.0, 15.0),)


def test_boundary_set_empty_tiling():
    t = Tiling(tiles=(), window=(0.0, 1.0), L=3, M=12)
    assert boundary_set(t, 1.0) == ()


@pytest.mark.parametrize("r", [math.nan, -1.0, math.inf, -math.inf])
def test_boundary_set_rejects_a_radius_below_zero_or_nan(r):
    t = compute_tiles(two_markers(), (-5.0, 15.0))
    with pytest.raises(ValueError, match="collar radius r must be >= 0"):
        boundary_set(t, r)


@pytest.mark.parametrize("r, R, a, message", [
    (1.0, math.nan, -5.0, "R must be positive"),
    (1.0, 20.0, math.nan, r"\[a, a\+R\] must lie inside"),
    (math.nan, 20.0, -5.0, "collar radius r"),
    (math.inf, 20.0, -5.0, "collar radius r"),
    (-math.inf, 20.0, -5.0, "collar radius r"),
], ids=["R-nan", "a-nan", "r-nan", "r-inf", "r-minus-inf"])
def test_density_report_rejects_nan_arguments(r, R, a, message):
    t = compute_tiles(two_markers(), (-5.0, 15.0))
    with pytest.raises(ValueError, match=message):
        density_report(t, r=r, R=R, a=a)


def test_density_zero_radius_zero_measure():
    t = compute_tiles(two_markers(), (-5.0, 15.0))
    rep = density_report(t, r=0.0, R=20.0, a=-5.0)
    assert rep.measure_density == 0.0
    assert rep.count_density > 0.0


def test_density_within_bounds_at_large_R():
    rng = np.random.default_rng(21)
    L, M = 8, 30
    markers = random_marker_seq(L, M, 0.0, 10_000.0, rng)
    t = compute_tiles(markers, (0.0, 10_000.0))
    rep = density_report(t, r=1.0, R=10_000.0, a=0.0)
    assert rep.count_density <= rep.count_bound_finite
    assert rep.measure_density <= rep.measure_bound_finite
    # at this scale the finite bounds sit close above the asymptotic ones
    assert rep.count_bound_asymptotic == (4.0 * 1.0 + 2.0) / L
    assert rep.measure_bound_asymptotic == 4.0 * 1.0 / L
    assert rep.count_density <= rep.count_bound_asymptotic * 1.1
    assert rep.measure_density <= rep.measure_bound_asymptotic * 1.1


def test_json_round_trips():
    m = two_markers(h1=0.5)
    assert np.array_equal(MarkerSeq.from_json(m.to_json()).entries,
                          m.entries)
    t = compute_tiles(m, (-5.0, 15.0))
    t2 = Tiling.from_json(t.to_json())
    assert t2.tiles == t.tiles and t2.window == t.window
    # as a report stores it: integer JSON, read back as Python ints
    t3 = Tiling.from_json(json.loads(json.dumps(t.to_json())))
    assert t3 == t and (t3.L, t3.M) == (3, 12)


def _tiling_doc(**fields):
    doc = {"window": [-5.0, 15.0], "L": 3, "M": 12,
           "tiles": [{"n": 0, "interval": [-5.0, 5.0],
                      "clipped": [True, False]},
                     {"n": 10, "interval": [5.0, 15.0],
                      "clipped": [False, True]}]}
    n = fields.pop("n", None)
    if n is not None:
        doc["tiles"][1]["n"] = n
    return {**doc, **fields}


@pytest.mark.parametrize("build", [
    lambda: Tile(math.nan, 2.0),
    lambda: Tile(0.0, math.inf),
    lambda: Tile(-math.inf, 0.0),
    lambda: Tile(2.0, 1.0),
    lambda: Tiling((), (math.nan, 1.0), L=3, M=12),
    lambda: Tiling((), (0.0, math.inf), L=3, M=12),
    lambda: Tiling((), (2.0, 1.0), L=3, M=12),
    lambda: Tiling.from_json(_tiling_doc(window=[math.nan, 15.0])),
    lambda: Tiling.from_json(_tiling_doc(tiles=[
        {"n": 0, "interval": [math.nan, 2.0], "clipped": [False, False]}])),
], ids=["tile-nan", "tile-inf", "tile-neg-inf", "tile-inverted",
        "window-nan", "window-inf", "window-inverted", "json-window-nan",
        "json-tile-nan"])
def test_tiles_and_windows_need_finite_ordered_ends(build):
    # a degenerate tile and window stay valid
    t = Tiling(((4, Tile(4.0, 4.0)),), (4.0, 4.0), L=8, M=30)
    assert t.tile(4).length == 0.0
    with pytest.raises(ValueError, match="needs finite"):
        build()


@pytest.mark.parametrize("doc", [
    _tiling_doc(L=3.9), _tiling_doc(M=12.7), _tiling_doc(n=0.5),
    _tiling_doc(n=True), _tiling_doc(L=True), _tiling_doc(M="12"),
], ids=["L=3.9", "M=12.7", "n=0.5", "n=true", "L=true", "M='12'"])
def test_tiling_from_json_rejects_non_integral_fields(doc):
    assert Tiling.from_json(_tiling_doc()).L == 3
    with pytest.raises(ValueError, match="must be integers"):
        Tiling.from_json(doc)


@pytest.mark.parametrize("build", [
    lambda: MarkerSeq(((0, 1.0), (10.7, 1.0)), L=3, M=12),
    lambda: MarkerSeq(((0, 1.0), (10.0, 1.0)), L=3, M=12),
    lambda: MarkerSeq(((0, 1.0), (math.nan, 1.0)), L=3, M=12),
    lambda: MarkerSeq(((0, 1.0), ("10", 1.0)), L=3, M=12),
    lambda: MarkerSeq(((0, 1.0), (10, 1.0)), L=3.5, M=12),
    lambda: MarkerSeq(((0, 1.0), (10, 1.0)), L=True, M=12),
    lambda: MarkerSeq(((0, 1.0), (10, 1.0)), L=3, M=12.0),
    lambda: MarkerSeq.from_json({"L": 3.9, "M": 12,
                                 "entries": [[0, 1.0], [10, 1.0]]}),
    lambda: MarkerSeq.from_json({"L": 3, "M": 12,
                                 "entries": [[0, 1.0], [10.5, 1.0]]}),
])
def test_marker_seq_rejects_non_integral_fields(build):
    with pytest.raises(ValueError, match="integer"):
        build()


def test_marker_seq_holds_a_read_only_record_copy():
    pairs = np.array([(0, 1.0), (10, 0.5), (14, 1.0)],
                     dtype=[("n", np.int64), ("h", np.float64)])
    m = MarkerSeq(pairs, L=3, M=np.int64(14))
    pairs["n"][0] = -99
    assert m.entries.tolist() == [(0, 1.0), (10, 0.5), (14, 1.0)]
    assert not m.entries.flags.writeable
    assert m.entries["n"].tolist() == [0, 10, 14]
    mixed = MarkerSeq(((np.int64(0), 1.0), (10, 0.5)), L=3, M=12)
    assert mixed.entries["n"].dtype == np.int64


# ---------------------------------------------------------------------------
# the MarkerSeq checks against a per-pair loop

PROPERTY = settings(derandomize=True, deadline=None, database=None)

HEIGHTS = st.one_of(
    st.just(1.0),
    st.sampled_from([0.5, 0.125, 0.0, -0.0, -0.25, 1.5, 5e-324, math.nan,
                     math.inf, 1.0 - 2.0 ** -53, 1.0 + 2.0 ** -52]),
    st.floats(0.0, 1.0))


def reference_marker_check(pairs, L, M):
    """The MarkerSeq invariants checked pair by pair, in the constructor's
    order; the message of the first failure, or None."""
    if L < 1 or M <= L:
        return "need M > L >= 1"
    for (p, _), (q, _) in zip(pairs, pairs[1:]):
        if q <= p:
            return "marker positions must be strictly increasing"
        if q - p <= L:
            return f"markers {p}, {q} closer than L={L}"
    for n, h in pairs:
        if not 0.0 < h <= 1.0:
            return f"height at {n} outside (0, 1]: {h}"
    ones = [n for n, h in pairs if h == 1.0]
    if pairs and not ones:
        return "marker sequence has no height-1 marker"
    for p, q in zip(ones, ones[1:]):
        if q - p > M:
            return f"height-1 markers {p}, {q} farther than M={M}"
    return None


@st.composite
def marker_pairs(draw):
    """Mostly valid sequences (gaps above L, heights in (0, 1], height-1
    gaps near M), the rest with any gap and height."""
    # the invalid L and M values last, where the draws are rarest
    L = draw(st.sampled_from([1, 2, 3, 4, 5, 6, 0]))
    M = L + draw(st.sampled_from([*range(1, 21), 0, -1]))
    if draw(st.integers(0, 3)):
        gap = st.integers(L + 1, max(L, M) + 3)
        height = st.one_of(st.sampled_from([1.0, 0.5, 0.125]),
                           st.floats(0.0, 1.0, exclude_min=True))
    else:
        gap, height = st.integers(-2, M + 3), HEIGHTS
    start = draw(st.integers(-10 ** 6, 10 ** 6))
    positions = np.cumsum([start] + draw(st.lists(gap, max_size=12)))
    return [(n, draw(height)) for n in positions.tolist()], L, M


@settings(PROPERTY, max_examples=500)
@given(marker_pairs())
def test_marker_seq_checks_match_per_pair_loop(case):
    pairs, L, M = case
    want = reference_marker_check(pairs, L, M)
    try:
        m = MarkerSeq(pairs, L=L, M=M)
    except ValueError as exc:
        assert str(exc) == want
        return
    assert want is None
    assert m.entries.tolist() == pairs
    assert not m.entries.flags.writeable
    again = MarkerSeq(m.entries, L=L, M=M)
    assert again.entries.tobytes() == m.entries.tobytes()
    assert MarkerSeq.from_json(m.to_json()).entries.tobytes() == (
        m.entries.tobytes())
    k = pairs[0][0] if pairs else 0
    shifted = shift_markers(m, k)
    assert shifted.entries.tolist() == [(n - k, h) for n, h in pairs]
    assert not shifted.entries.flags.writeable
