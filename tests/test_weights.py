import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bandtile.tiling import (
    MarkerSeq,
    Tiling,
    boundary_points,
    compute_tiles,
    random_marker_seq,
    shift_markers,
)
from bandtile.weights import (
    SLACK,
    SurplusError,
    WeightParams,
    _boundary_distance,
    bases,
    finalize,
    greedy_rounds,
    receiver_core,
    surplus_check,
    validate_params,
    verify_conditions,
)

STD = WeightParams(cost_ratio=1.0, care_range=2, tax_threshold=4,
                   L=106, M=110, reach=200)
TINY = WeightParams(cost_ratio=1.0, care_range=2, tax_threshold=4,
                    L=106, M=110, reach=2)


def test_validate_params_boundary():
    assert validate_params(STD)
    # L = 105 sits exactly on the wrong side of the inequality
    assert not validate_params(replace(STD, L=105))
    assert not validate_params(replace(STD, reach=110))


def test_bases_short_tiles_pay_nothing():
    # gaps of 7 make every tile length 7, below a threshold of 10
    p = WeightParams(cost_ratio=1.0, care_range=1, tax_threshold=10,
                     L=2, M=8, reach=9)
    markers = MarkerSeq(tuple((n, 1.0) for n in range(0, 29, 7)), L=2, M=8)
    t = compute_tiles(markers, (0.0, 28.0))
    a0, _ = bases(t, p)
    assert a0 == {}


def test_bases_surplus_formula():
    # tile of length tax_threshold + 3 pays 3 at cost ratio 1; the donor
    # zone needs M of margin from the window edges
    p = WeightParams(cost_ratio=1.0, care_range=1, tax_threshold=4,
                     L=2, M=8, reach=9)
    markers = MarkerSeq(tuple((n, 1.0) for n in range(0, 29, 7)), L=2, M=8)
    t = compute_tiles(markers, (0.0, 28.0))
    a0, _ = bases(t, p)
    assert a0[14] == pytest.approx(3.0)


def test_bases_far_points_need_nothing():
    markers = MarkerSeq(((0, 1.0), (107, 1.0)), L=106, M=110)
    t = compute_tiles(markers, (0.0, 107.0))
    _, b0 = bases(t, STD)
    mid = 53  # more than care_range from both boundaries
    assert b0.get(mid, 0.0) == 0.0


def test_greedy_hand_case_single_donor():
    v = greedy_rounds({0: 3.0}, {1: 2.0}, TINY)
    assert v == {(0, 1): 2.0}


def test_greedy_prefers_earlier_donors():
    v = greedy_rounds({0: 1.0, 1: 2.0}, {1: 2.0}, TINY)
    assert v == {(1, 0): 2.0}


def test_greedy_zero_need_zero_transfers():
    assert greedy_rounds({0: 3.0}, {}, TINY) == {}


def test_greedy_raises_on_residual_need():
    with pytest.raises(SurplusError):
        greedy_rounds({0: 1.0}, {1: 2.0}, TINY)


def test_finalize_cascade_row():
    wm = finalize({(0, 1): 2.0}, TINY)
    assert wm.row(0) == (0.0, 1.0, 0.0)
    assert wm.row(5) == (0.0, 0.0, 0.0)


def test_cascade_thresholds_first_positive_entry():
    # transfer 2 at the first positive index scanned from m = reach
    wm = finalize({(3, 2): 2.0}, TINY)
    assert wm.row(3)[2] == 1.0


def test_wild_instance_serves_every_near_boundary_point():
    """Markers 668 apart make every tile long; the core receivers around
    the middle boundary are all served and condition (4) is nonvacuous."""
    p = WeightParams(cost_ratio=1.0, care_range=6, tax_threshold=4,
                     L=666, M=670, reach=680)
    assert validate_params(p)
    markers = MarkerSeq(tuple((n, 1.0) for n in
                              (32, 700, 1368, 2036, 2704, 3372, 4040)),
                        L=666, M=670)
    t = compute_tiles(markers, (0.0, 3500.0))
    assert receiver_core(t, p) == range(1350, 2161)
    a0, b0 = bases(t, p)
    assert a0 == {700: 664.0, 1368: 664.0, 2036: 664.0, 2704: 664.0}
    assert b0 == {1697: 1.0, 1698: 2.0, 1699: 3.0, 1700: 4.0, 1701: 5.0,
                  1702: 6.0, 1703: 5.0, 1704: 4.0, 1705: 3.0, 1706: 2.0,
                  1707: 1.0}
    wm = finalize(greedy_rounds(a0, b0, p), p)
    row = wm.row(1368)
    assert {m: row[m] for m in range(681) if row[m] > 0} == {
        m: 1.0 for m in range(330, 340)}
    rep = verify_conditions(wm, t, p)
    assert rep.passed
    assert rep.wild_points == 5
    assert rep.witnesses == ()
    assert surplus_check(t, p, 1400.0)


def test_surplus_check_far_from_boundaries():
    markers = MarkerSeq(tuple((n, 1.0) for n in (-107, 0, 107, 214)),
                        L=106, M=110)
    t = compute_tiles(markers, (-160.0, 260.0))
    # boundaries sit at -53.5, 53.5, 160.5; none inside [60, 100]
    assert surplus_check(t, replace(STD, reach=40), 60.0)


def test_surplus_check_densest_valid_spacing():
    markers = MarkerSeq(tuple((n, 1.0) for n in range(0, 1284, 107)),
                        L=106, M=110)
    t = compute_tiles(markers, (0.0, 1283.0))
    assert surplus_check(t, STD, 500.0)


def test_invalid_params_can_fail_greedy():
    # L below the validated threshold can leave receivers unmet
    p = WeightParams(cost_ratio=1.0, care_range=2, tax_threshold=4,
                     L=105, M=110, reach=200)
    assert not validate_params(p)
    rng = np.random.default_rng(0)
    saw_residual = False
    for _ in range(40):
        markers = random_marker_seq(2, 8, 0.0, 200.0, rng)
        t = compute_tiles(markers, (0.0, 200.0))
        a0, b0 = bases(t, WeightParams(1.0, 6, 2, 2, 8, 9))
        try:
            greedy_rounds(a0, b0, WeightParams(1.0, 6, 2, 2, 8, 9))
        except SurplusError:
            saw_residual = True
            break
    assert saw_residual


def test_random_instances_all_conditions():
    rng = np.random.default_rng(7)
    for _ in range(50):
        markers = random_marker_seq(106, 110, 0.0, 900.0, rng)
        t = compute_tiles(markers, (0.0, 900.0))
        a0, b0 = bases(t, STD)
        wm = finalize(greedy_rounds(a0, b0, STD), STD)
        rep = verify_conditions(wm, t, STD)
        assert rep.passed, rep.witnesses[:3]


def test_conservation_on_the_core():
    rng = np.random.default_rng(3)
    markers = random_marker_seq(106, 110, 0.0, 900.0, rng)
    t = compute_tiles(markers, (0.0, 900.0))
    a0, b0 = bases(t, STD)
    wm = finalize(greedy_rounds(a0, b0, STD), STD)
    served = {}
    spent = {}
    for (n, m), val in wm.transfers.items():
        served[n + m] = served.get(n + m, 0.0) + val
        spent[n] = spent.get(n, 0.0) + val
    for r in receiver_core(t, STD):
        assert abs(b0.get(r, 0.0) - served.get(r, 0.0)) <= 1e-9
    for n, total in spent.items():
        assert total <= a0[n] + 1e-9  # tax cap


def test_marker_level_equivariance():
    """Rebuilding the weights from shifted markers reproduces the shifted
    transfer map within 1e-9."""
    rng = np.random.default_rng(17)
    markers = random_marker_seq(106, 110, 0.0, 700.0, rng)
    k = 13
    t = compute_tiles(markers, (0.0, 700.0))
    ts = compute_tiles(shift_markers(markers, k), (-13.0, 687.0))
    a0, b0 = bases(t, STD)
    as_, bs = bases(ts, STD)
    wm = finalize(greedy_rounds(a0, b0, STD), STD)
    ws = finalize(greedy_rounds(as_, bs, STD), STD)
    keys = {(n - k, m) for n, m in wm.transfers}
    assert keys == set(ws.transfers)
    for (n, m), val in wm.transfers.items():
        assert ws.transfers[(n - k, m)] == pytest.approx(val, abs=1e-9)


# ---------------------------------------------------------------------------
# the vectorised boundary distance, against one search per query point

PROPERTY = settings(derandomize=True, deadline=None, database=None)


def reference_points(t):
    pts = set()
    for _, tile in t.nonempty():
        pts.add(tile.lo)
        pts.add(tile.hi)
    return np.array(sorted(pts), dtype=float)


def reference_dist_to(points, x):
    if points.size == 0:
        return math.inf
    i = int(np.searchsorted(points, x))
    best = math.inf
    if i < points.size:
        best = points[i] - x
    if i > 0:
        best = min(best, x - points[i - 1])
    return float(best)


@st.composite
def weighted_tilings(draw):
    """A tiling and parameters whose receiver core and averaging window
    fit inside it; one draw in ten has no nonempty tile at all."""
    L = draw(st.integers(1, 6))
    M = draw(st.integers(L + 2, L + 12))
    p = WeightParams(cost_ratio=draw(st.sampled_from([0.5, 1.0, 3.0])),
                     care_range=draw(st.integers(0, 6)), tax_threshold=2,
                     L=L, M=M, reach=draw(st.integers(1, 20)))
    lo = draw(st.integers(-60, 60)) + draw(st.sampled_from([0.0, 0.25, 0.5]))
    hi = lo + 3 * M + p.reach + draw(st.integers(0, 100))
    if draw(st.integers(0, 9)) == 0:
        return Tiling(((0, None),), (lo, hi), L=L, M=M), p
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    return compute_tiles(random_marker_seq(L, M, lo, hi, rng), (lo, hi)), p


@settings(PROPERTY, max_examples=200)
@given(weighted_tilings(), st.lists(st.one_of(
    st.integers(-100, 400).map(float), st.floats(-100.0, 400.0)),
    max_size=40), st.data())
def test_boundary_distance_matches_scalar_search(tp, xs, data):
    t, p = tp
    pts = reference_points(t)
    assert boundary_points(t).tolist() == pts.tolist()
    if pts.size:  # exact endpoints hit the searchsorted tie
        xs = xs + data.draw(st.lists(st.sampled_from(pts.tolist()),
                                     max_size=5))
    got = _boundary_distance(t, np.array(xs, dtype=float))
    assert got.tolist() == [reference_dist_to(pts, x) for x in xs]
    # the three callers: receiver needs, and care over one window
    want = {}
    for r in receiver_core(t, p):
        need = p.care_range - reference_dist_to(pts, float(r))
        if need > 0.0:
            want[r] = need
    assert bases(t, p)[1] == want
    a = t.window[0] + p.M
    tax = sum(max(tile.length - p.tax_threshold, 0.0)
              for n, tile in t.nonempty()
              if a - SLACK <= n <= a + p.reach + SLACK)
    care = sum(max(p.care_range - reference_dist_to(pts, float(r)), 0.0)
               for r in range(math.ceil(a - SLACK),
                              math.floor(a + p.reach + SLACK) + 1))
    assert surplus_check(t, p, a) == (tax + SLACK >= p.cost_ratio * care)
