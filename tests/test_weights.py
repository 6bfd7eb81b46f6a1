import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from bandtile import weights
from bandtile.tiling import (
    MarkerSeq,
    Tiling,
    boundary_points,
    compute_tiles,
    random_marker_seq,
    shift_markers,
)
from bandtile.weights import (
    ENTRY,
    SLACK,
    SurplusError,
    WeightMatrix,
    WeightParams,
    _boundary_distance,
    allocate,
    bases,
    finalize,
    greedy_rounds,
    receiver_core,
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


@pytest.mark.parametrize("a0, b0", [
    ({0: -1.0}, {1: 2.0}),
    ({0: 3.0}, {1: -2.0}),
    ({0: math.nan}, {1: 2.0}),
    ({0: 3.0}, {1: math.nan}),
], ids=["negative donor", "negative receiver", "nan donor", "nan receiver"])
def test_greedy_rejects_negative_or_nan_bases(a0, b0):
    with pytest.raises(ValueError, match="bases must be nonnegative"):
        greedy_rounds(a0, b0, TINY)


def test_finalize_cascade_row():
    # row 0 is (0, 1, 0): its only record sits at m = 1 with weight 1
    e = finalize({(0, 1): 2.0}, TINY).entries
    assert e[e["n"] == 0][["m", "weight"]].tolist() == [(1, 1.0)]
    assert not (e["n"] == 5).any()


def test_cascade_thresholds_first_positive_entry():
    # transfer 2 at the first positive index scanned from m = reach
    e = finalize({(3, 2): 2.0}, TINY).entries
    assert e[(e["n"] == 3) & (e["m"] == 2)]["weight"].tolist() == [1.0]


@pytest.mark.parametrize("recs", [
    [(0, 3, 1.0, 0.0)],                      # m beyond reach 2
    [(0, -1, 1.0, 0.0)],                     # m below 0
    [(0, 1, -0.5, 0.0)],                     # negative transfer
    [(0, 1, float("nan"), 0.0)],
    [(0, 1, 2.0, 1.5)],                      # weight above 1
    [(0, 1, 2.0, float("nan"))],
    [(0, 1, 2.0, 1.0), (0, 1, 2.0, 1.0)],    # repeated (n, m)
    [(1, 0, 2.0, 1.0), (0, 1, 2.0, 1.0)],    # n out of order
    [(0, 2, 2.0, 1.0), (0, 1, 2.0, 1.0)],    # m out of order in a row
])
def test_weight_matrix_rejects_bad_records(recs):
    with pytest.raises(ValueError):
        WeightMatrix(entries=np.array(recs, dtype=ENTRY), params=TINY)


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
    wm = allocate(t, p)
    assert {m: w for n, m, _, w in wm.entries.tolist()
            if n == 1368 and w > 0} == {m: 1.0 for m in range(330, 340)}
    rep = verify_conditions(t, p)
    assert rep.matrix.entries.tobytes() == wm.entries.tobytes()
    assert rep.passed
    assert rep.wild_points == 5
    assert rep.witnesses == ()


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
        rep = verify_conditions(t, STD)
        assert rep.passed, rep.witnesses[:3]
        want = allocate(t, STD).entries
        assert rep.matrix.entries.tobytes() == want.tobytes()


def test_verify_conditions_flags_a_translation_that_moves_the_matrix(
        monkeypatch):
    """A translation one step too far reindexes every record by 2, not 1:
    equivariance fails with its one witness and the other conditions,
    read off the tiling's own allocation, still hold."""
    rng = np.random.default_rng(7)
    markers = random_marker_seq(106, 110, 0.0, 900.0, rng)
    t = compute_tiles(markers, (0.0, 900.0))
    rep = verify_conditions(t, STD)
    assert rep.passed and rep.witnesses == ()
    translate = weights._translate_tiling
    monkeypatch.setattr(weights, "_translate_tiling",
                        lambda t, k: translate(t, k + 1))
    rep = verify_conditions(t, STD)
    assert not rep.equivariant and not rep.passed
    assert rep.short_rows_zero and rep.support_capped and rep.wild_served
    assert rep.witnesses == ("shift by 1 does not reindex the matrix exactly",)


def test_verify_conditions_rejects_an_empty_core():
    rng = np.random.default_rng(3)
    markers = random_marker_seq(106, 110, 0.0, 529.0, rng)
    t = compute_tiles(markers, (0.0, 529.0))
    assert not receiver_core(t, STD)
    with pytest.raises(ValueError, match="at least reach \\+ 3 M = 530"):
        verify_conditions(t, STD)
    t = compute_tiles(markers, (0.0, 530.0))
    assert receiver_core(t, STD) == range(310, 311)
    assert verify_conditions(t, STD).passed


def test_conservation_on_the_core():
    rng = np.random.default_rng(3)
    markers = random_marker_seq(106, 110, 0.0, 900.0, rng)
    t = compute_tiles(markers, (0.0, 900.0))
    a0, b0 = bases(t, STD)
    wm = allocate(t, STD)
    served = {}
    spent = {}
    for n, m, val, _ in wm.entries.tolist():
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
    wm = allocate(t, STD)
    ws = allocate(ts, STD)
    shifted = {(n, m): val for n, m, val, _ in ws.entries.tolist()}
    assert {(n - k, m) for n, m in wm.entries[["n", "m"]].tolist()} == set(
        shifted)
    for n, m, val, _ in wm.entries.tolist():
        assert shifted[(n - k, m)] == pytest.approx(val, abs=1e-9)


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
    """A tiling and parameters whose receiver core fits inside it; one
    draw in ten has no nonempty tile at all."""
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
    # the receiver needs that bases reads from it
    want = {}
    for r in receiver_core(t, p):
        need = p.care_range - reference_dist_to(pts, float(r))
        if need > 0.0:
            want[r] = need
    assert bases(t, p)[1] == want


# ---------------------------------------------------------------------------
# the sparse cascade, against the dense row cascade over every index


def dense_rows(v, reach):
    """Reference cascade: each donor row as a dense list over 0..reach,
    amplified right to left and clamped into [0, 1]."""
    rows = {}
    for (n, m), val in v.items():
        rows.setdefault(n, [0.0] * (reach + 1))[m] = float(val)
    out = {}
    for n, x in rows.items():
        y = [0.0] * (reach + 1)
        y[reach] = reach * x[reach]
        best = y[reach]
        for m in range(reach - 1, -1, -1):
            gain = reach - (reach - 1.0) * min(best, 1.0)
            y[m] = gain * x[m]
            if y[m] > best:
                best = y[m]
        out[n] = [min(max(t - 1.0, 0.0), 1.0) for t in y]
    return out


@st.composite
def transfer_maps(draw):
    """Sparse transfer maps whose amounts sit below, at and just beside
    the cascade's thresholds 1/reach and 1, or anywhere in [0, 3]."""
    reach = draw(st.integers(1, 12))
    near = st.sampled_from([1.0 / reach, 1.0]).flatmap(
        lambda c: st.sampled_from([0.5 * c, c * (1 - 1e-12), c,
                                   c * (1 + 1e-12), 2.0 * c]))
    v = draw(st.dictionaries(
        st.tuples(st.integers(-5, 5), st.integers(0, reach)),
        st.one_of(near, st.floats(0.0, 3.0)), max_size=30))
    return v, replace(TINY, reach=reach)


@st.composite
def greedy_maps(draw):
    t, p = draw(weighted_tilings())
    try:
        return greedy_rounds(*bases(t, p), p), p
    except SurplusError:
        reject()


def reference_greedy(a0, b0, p):
    """greedy_rounds as the round-by-round loop over every donor."""
    a = {int(n): float(x) for n, x in a0.items() if x > 0.0}
    b = {int(n): float(x) for n, x in b0.items() if x > 0.0}
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


@st.composite
def sparse_bases(draw):
    """Sparse donor and receiver maps on a short stretch, with tied and
    zero amounts; receivers left of every donor or beyond every reach
    occur, and either map may be empty."""
    reach = draw(st.integers(1, 12))
    amount = st.one_of(st.sampled_from([0.0, 0.5, 1.0, 2.0]),
                       st.floats(0.0, 4.0))
    a0 = draw(st.dictionaries(st.integers(-10, 10), amount, max_size=8))
    b0 = draw(st.dictionaries(st.integers(-15, 30), amount, max_size=16))
    return a0, b0, replace(TINY, reach=reach)


def _greedy_outcome(greedy, a0, b0, p):
    try:
        return [(k, x.hex()) for k, x in greedy(a0, b0, p).items()]
    except SurplusError as exc:
        return str(exc)


@settings(PROPERTY, max_examples=300)
@given(st.one_of(weighted_tilings().map(lambda tp: (*bases(*tp), tp[1])),
                 sparse_bases()))
def test_greedy_rounds_matches_round_by_round_loop(abp):
    """Same transfers in the same order, float.hex-equal, or the same
    SurplusError message."""
    assert (_greedy_outcome(greedy_rounds, *abp)
            == _greedy_outcome(reference_greedy, *abp))


@settings(PROPERTY, max_examples=300)
@given(st.one_of(transfer_maps(), greedy_maps()))
def test_finalize_matches_dense_cascade(vp):
    v, p = vp
    e = finalize(v, p).entries
    assert not e.flags.writeable
    keys = sorted(v)
    assert e[["n", "m"]].tolist() == keys
    assert e["transfer"].tolist() == [v[k] for k in keys]
    got = dict(zip(keys, e["weight"].tolist()))
    for n, row in dense_rows(v, p.reach).items():
        for m, w in enumerate(row):
            if (n, m) in got:
                assert got[n, m].hex() == w.hex(), (n, m)
            else:
                assert w.hex() == "0x0.0p+0", (n, m)
