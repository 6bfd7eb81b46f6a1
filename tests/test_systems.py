import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bandtile import bandlimited, systems
from bandtile.bandlimited import Band, BumpKernel, band_check
from bandtile.interpolation import bump_transform
from bandtile.systems import (
    DiscreteSignal,
    MarkerBump,
    Rotation,
    SubshiftWindow,
    bowen_metric,
    embedding_gap,
    marker_cylinder,
    marker_encode,
    marker_function,
    orbit_markers,
    rotation_embed,
    sturmian_window,
    toy_encode,
    toy_verify,
    voronoi_tiles,
    word_metric,
)
from bandtile.numutil import cispi, circle_dist, cospi
from bandtile.tiling import MarkerSeq, shift_markers

ALPHA = math.sqrt(2.0) - 1.0
GOLD = (3.0 - math.sqrt(5.0)) / 2.0


def test_rotation_points_and_exact_relabeling():
    r = Rotation(ALPHA)
    assert r.point(0) == 0.0
    assert r.point(1) == ALPHA
    r5 = r.shifted(5)
    assert all(r5.point(n) == r.point(n + 5) for n in range(-10, 10))


@pytest.mark.parametrize("step", [np.int64(2), np.int32(2), np.uint8(2)])
def test_rotation_takes_a_numpy_integer_step(step):
    r = Rotation(0.3, 0.0, step)
    assert r == Rotation(0.3, 0.0, 2) and type(r.step) is int
    r3 = r.shifted(np.int64(3))
    assert r3 == Rotation(0.3, 0.0, 5) and type(r3.step) is int
    assert all(r3.point(n) == r.point(n + 3) for n in range(-10, 10))


@pytest.mark.parametrize("step", [2.0, np.float64(2.0), True, "2"])
def test_rotation_rejects_a_non_integer_step(step):
    with pytest.raises(ValueError, match="^step must be an integer$"):
        Rotation(0.3, 0.0, step)


SHIFTABLE = {
    "rotation": Rotation(0.3),
    "signal": DiscreteSignal(range(-5, 6), [0.5] * 11),
    "word": SubshiftWindow([0, 1] * 5 + [0], range(-5, 6)),
    "markers": MarkerSeq(((0, 1.0), (10, 0.5)), L=3, M=12),
}


def _shift(kind, k):
    thing = SHIFTABLE[kind]
    if kind == "markers":  # a MarkerSeq compares by identity
        return shift_markers(thing, k).entries.tolist()
    return thing.shifted(k)


@pytest.mark.parametrize("kind", sorted(SHIFTABLE))
@pytest.mark.parametrize("k", [1.5, 2.7, np.float64(2.0), True, "1"])
def test_shifts_reject_a_non_integer_count(kind, k):
    # a fractional count is rejected, not truncated; a NumPy integer passes
    assert _shift(kind, np.int64(2)) == _shift(kind, 2)
    with pytest.raises(ValueError, match="shift count must be an integer"):
        _shift(kind, k)


def test_rotation_embed_exact_endpoints():
    assert rotation_embed(Rotation(ALPHA, 0.0), range(0, 1))[0] == 1.0
    assert rotation_embed(Rotation(ALPHA, 0.5), range(0, 1))[0] == 0.0


def test_rotation_embed_bitwise_equivariance():
    r = Rotation(ALPHA)
    win = range(-50, 51)
    e = rotation_embed(r, win)
    e1 = rotation_embed(r.shifted(1), win)
    assert all(e1[n] == e[n + 1] for n in range(-50, 50))
    shifted = e.shifted(1)
    assert shifted.window == range(-51, 50)
    assert all(shifted[n] == e[n + 1] for n in range(-51, 50))


def test_embedding_gap_frozen_grid_value():
    grid = [i / 200.0 for i in range(200)]
    gap, pair = embedding_gap(ALPHA, range(-50, 51), grid,
                              itertools.combinations(range(200), 2))
    assert gap == pytest.approx(0.01570031940016814, abs=1e-15)
    assert pair == (0.125, 0.13)


def test_embedding_gap_explicit_pairs_positive():
    rng = np.random.default_rng(0)
    phases = rng.random(200)
    gap, _ = embedding_gap(ALPHA, range(-50, 51), phases,
                           pairs=[(2 * i, 2 * i + 1) for i in range(100)])
    assert gap > 0.0


def test_embedding_gap_without_pairs_raises():
    for phases, pairs in (([0.1], itertools.combinations(range(1), 2)),
                          ([0.1, 0.2], []),
                          ([], itertools.combinations(range(0), 2))):
        with pytest.raises(ValueError, match="no phase pair"):
            embedding_gap(ALPHA, range(-5, 6), phases, pairs)


@pytest.mark.parametrize("pairs", [[(0, -1)], [(0, 3)], [(1, 2), (3, 0)]])
def test_embedding_gap_rejects_pair_indices_out_of_range(pairs):
    # -1 would wrap to the last phase, 3 would raise IndexError
    with pytest.raises(ValueError, match="index (-1|3) outside the 3 phases"):
        embedding_gap(ALPHA, range(-5, 6), [0.1, 0.2, 0.3], pairs)


@pytest.mark.parametrize("pairs", [
    [(0.7, 2.9)], [(True, 1)], [(0, 2.0)], [(1, 2), (0, np.float64(1.0))],
    np.array([[0.0, 2.0]]),
])
def test_embedding_gap_rejects_non_integer_pair_indices(pairs):
    # int64 conversion would truncate 0.7 and 2.9 to phases 0 and 2
    with pytest.raises(ValueError, match="is not an integer"):
        embedding_gap(ALPHA, range(-5, 6), [0.1, 0.2, 0.3], pairs)


def test_embedding_gap_accepts_numpy_integer_pairs():
    want = embedding_gap(ALPHA, range(-5, 6), [0.1, 0.2, 0.3], [(0, 2)])
    got = embedding_gap(ALPHA, range(-5, 6), [0.1, 0.2, 0.3],
                        np.array([[0, 2]]))
    assert got == want


def test_marker_function_shape():
    r = Rotation(ALPHA)
    scheme = marker_function(r, 4)
    assert scheme.support[1] == 0.45 * scheme.min_gap
    h = scheme.h
    assert h(0.0) == 1.0
    assert h(scheme.plateau[1]) == 1.0
    assert h(scheme.support[1]) == 0.0
    assert h(scheme.support[1] + 0.01) == 0.0
    mid = (scheme.plateau[1] + scheme.support[1]) / 2.0
    assert 0.0 < h(mid) < 1.0


def test_marker_function_orbit_gaps_exceed_L():
    r = Rotation(ALPHA)
    scheme = marker_function(r, 4)
    hits = [n for n in range(-1000, 1001) if scheme.h(r.point(n)) > 0.0]
    gaps = [q - p for p, q in zip(hits, hits[1:])]
    assert min(gaps) > 4
    assert max(gaps) < scheme.M
    mseq = orbit_markers(r, scheme.h, range(-1000, 1001), L=4, M=scheme.M)
    assert mseq.entries["n"].tolist() == hits


def test_marker_function_bounds_the_unseen_third_gap():
    # the forward scan sees return gaps {7, 25} only; the three-gap
    # theorem puts the third at 7 + 25 = 32, which the backward orbit hits
    r = Rotation(math.e - 2, 0.6551326746199936)
    scheme = marker_function(r, 3)
    hits = [n for n in range(-3000, 3001) if scheme.h(r.point(n)) == 1.0]
    assert sorted({q - p for p, q in zip(hits, hits[1:])}) == [7, 25, 32]
    assert scheme.M == 33
    mseq = orbit_markers(r, scheme.h, range(-50, 51), L=3, M=scheme.M)
    assert mseq.M == 33


def _trapezoid(w, x):
    """The scalar MarkerBump height, one orbit point at a time."""
    d = circle_dist(float(x))
    if d >= w:
        return 0.0
    if d <= w / 2.0:
        return 1.0
    return 2.0 - 2.0 * d / w


def _outcome(build):
    try:
        return build()
    except ValueError as exc:
        return str(exc)


def _scheme_by_loop(r, L, plateau_hits=64, scan_limit=10 ** 6):
    """marker_function's support and M from a per-point plateau scan."""
    gap = min(circle_dist(k * r.alpha, 0.0) for k in range(1, L + 1))
    w = 0.45 * gap
    hits, n = [], 0
    while len(hits) < plateau_hits and n <= scan_limit:
        if _trapezoid(w, r.point(n)) == 1.0:
            hits.append(n)
        n += 1
    if len(hits) < 2:
        raise ValueError(
            f"orbit scan of {scan_limit} steps saw {len(hits)} plateau "
            f"visits; alpha = {r.alpha} gives no usable marker scheme")
    gaps = sorted({q - p for p, q in zip(hits, hits[1:])})
    return (-w, w), max(max(gaps[-1], sum(gaps[:2])) + 1, L + 2)


SCAN_CASES = [
    (a, phase, L, step)
    for a in (ALPHA, GOLD, math.sqrt(3.0) - 1.0, math.pi - 3.0)
    for phase, step in ((0.0, 0), (0.3183, -37), (0.8711, 1234))
    for L in (3, 4, 6)
] + [(math.e - 2, 0.6551326746199936, 3, 0),  # three-gap reproducer
     (math.e - 2, 0.6551326746199936, 3, -500),
     (GOLD, 0.5, 40, 7)]  # rare plateau visits: the scan spans chunks


@pytest.mark.parametrize("alpha, phase, L, step", SCAN_CASES)
def test_marker_scan_matches_per_point_loop(alpha, phase, L, step):
    r = Rotation(alpha, phase, step)
    scheme = marker_function(r, L)
    assert (scheme.support, scheme.M) == _scheme_by_loop(r, L)
    # negative orbit times too; the heights must agree bit for bit
    window = range(-400, 201)
    loop = [(n, _trapezoid(scheme.support[1], r.point(n))) for n in window]
    assert scheme.h(r.point(np.array(window))).tolist() == [
        v for _, v in loop]
    got = _outcome(lambda: orbit_markers(r, scheme.h, window, L, scheme.M))
    want = _outcome(lambda: MarkerSeq(
        tuple((n, v) for n, v in loop if v > 0.0), L=L, M=scheme.M))
    if isinstance(want, str):
        assert got == want
    else:
        assert got.entries.tobytes() == want.entries.tobytes()


@pytest.mark.parametrize("L, step, hits, scan_limit", [
    (4, 0, 64, 0), (4, 0, 64, 5), (4, 0, 64, 60), (4, 0, 64, 4095),
    # fewer visits than one scan chunk holds see fewer return gaps
    (4, 0, 2, 4095), (4, 0, 3, 4095), (3, 0, 5, 4095),
    # plateau visits at times 1512 and 4096 only: one visit and a
    # rejection up to 4095, two visits and a scheme from 4096 on
    (1000, -4157, 64, 4095), (1000, -4157, 64, 4096),
    (1000, -4157, 64, 4097)])
def test_marker_scan_keeps_hit_count_and_scan_limit(monkeypatch, L, step,
                                                    hits, scan_limit):
    monkeypatch.setattr(systems, "PLATEAU_HITS", hits)
    monkeypatch.setattr(systems, "SCAN_LIMIT", scan_limit)
    r = Rotation(GOLD, 0.3, step)
    got = _outcome(lambda: marker_function(r, L).M)
    want = _outcome(lambda: _scheme_by_loop(r, L, hits, scan_limit)[1])
    assert got == want


@pytest.mark.parametrize("L", [2.5, True, 0, "3"])
def test_marker_function_rejects_an_L_that_is_not_a_positive_integer(L):
    # 2.5 used to raise TypeError from inside range()
    with pytest.raises(ValueError, match="L must be an integer >= 1"):
        marker_function(Rotation(ALPHA), L)


def test_marker_function_rejects_rational_angle():
    with pytest.raises(ValueError):
        marker_function(Rotation(0.5), 2)


def test_marker_encode_zero_and_single_coefficient():
    band = Band(2.0, 3.0)
    sig0 = marker_encode(Rotation(ALPHA, 0.5), lambda x: 0.0, band,
                         range(-10, 11))
    assert all(sig0.eval(t) == 0 for t in np.linspace(-5, 5, 11))
    single = marker_encode(Rotation(ALPHA),
                           lambda x: np.where(x == 0.0, 1.0, 0.0),
                           band, range(-10, 11))
    assert abs(single.eval(0.0) - 1.0) < 1e-6


def test_marker_encode_shift_identity():
    """Encoding the shifted orbit over W equals the original encoding
    over W+1 evaluated one step later, to machine precision."""
    r = Rotation(ALPHA)
    scheme = marker_function(r, 4)
    band = Band(2.0, 3.0)
    sA = marker_encode(r.shifted(1), scheme.h, band, range(-40, 41))
    sB = marker_encode(r, scheme.h, band, range(-39, 42))
    ts = np.linspace(-8.0, 8.0, 1000)
    err = float(np.max(np.abs(sA.eval(ts) - sB.eval(ts + 1.0))))
    assert err < 1e-9


def test_marker_encode_stays_in_band():
    r = Rotation(ALPHA)
    scheme = marker_function(r, 4)
    band = Band(2.0, 3.0)
    sig = marker_encode(r, scheme.h, band, range(-40, 41))
    rep = band_check(sig, band, probe_freqs=[band.lo - 0.7, band.hi + 0.7,
                                             0.0])
    assert rep.passed


def test_marker_encode_kernel_guards():
    r = Rotation(ALPHA)
    scheme = marker_function(r, 4)
    # the bump of a band 0.05 wide spreads too far in time
    band = Band(2.0, 2.05)
    for _ in range(2):  # the decay guard caches verdicts, not rejections
        with pytest.raises(ValueError, match="quadratic decay"):
            marker_encode(r, scheme.h, band, range(-5, 6))


def reference_decay_guard(kernel):
    """The two-scan decay guard: the envelope constant on 449 points of
    [8, 64] against twice the one on 257 points of [0, 8]."""
    tn = np.linspace(0.0, 8.0, 257)
    tf = np.linspace(8.0, 64.0, 449)
    k_near = float(np.max(np.abs(kernel.eval(tn)) * (1.0 + tn ** 2)))
    k_far = float(np.max(np.abs(kernel.eval(tf)) * (1.0 + tf ** 2)))
    if k_far > 2.0 * k_near:
        raise ValueError("kernel lacks a quadratic decay envelope")
    return k_near


def _bound_decides(tau, k_near):
    return bandlimited._FAR_FIELD_BOUND / tau ** 2 <= 2.0 * k_near


def test_decay_guard_matches_two_scan_reference():
    """Same verdicts and the same K as the two-scan guard, across the
    scan's threshold (tau near 0.066) and the bound's (near 0.0976)."""
    guard = bandlimited.quadratic_decay_guard.__wrapped__
    taus = np.concatenate([np.geomspace(0.04, 3.0, 200),
                           [0.0659, 0.0661, 0.0976, 0.0977]])
    regimes = set()
    for tau in taus:
        kernel = BumpKernel(tau)
        try:
            want = reference_decay_guard(kernel)
        except ValueError:
            with pytest.raises(ValueError, match="quadratic decay"):
                guard(kernel)
            regimes.add("rejected")
            continue
        assert guard(kernel) == want
        regimes.add("bound" if _bound_decides(tau, want) else "scan")
    assert regimes == {"rejected", "scan", "bound"}


def test_marker_encode_band_the_bound_cannot_decide():
    # tau = 0.081: the bound exceeds 2K, and the far-field scan passes it
    band = Band(2.0, 2.09)
    tau = 0.9 * (band.hi - band.lo)
    assert not _bound_decides(tau, reference_decay_guard(BumpKernel(tau)))
    r = Rotation(ALPHA)
    scheme = marker_function(r, 4)
    sig = marker_encode(r, scheme.h, band, range(-5, 6))
    assert sig.kernel == BumpKernel(tau)


def test_decay_guard_scans_only_the_near_field(monkeypatch):
    calls = []
    real = bandlimited.bump_transform

    def counting(tau, t):
        calls.append(np.size(t))
        return real(tau, t)

    monkeypatch.setattr(bandlimited, "bump_transform", counting)
    k_near = bandlimited.quadratic_decay_guard.__wrapped__(BumpKernel(0.9))
    assert calls == [257]
    assert k_near == reference_decay_guard(BumpKernel(0.9))


@pytest.mark.parametrize("tau", [0.1, 0.675, 1.35, 3.0])
def test_far_field_bound_holds(tau):
    t = np.linspace(8.0, 256.0, 2001)
    env = (1.0 + t ** 2) * np.abs(bump_transform(tau, t))
    assert np.max(env) <= bandlimited._FAR_FIELD_BOUND / tau ** 2


def test_sturmian_frozen_prefix():
    w = sturmian_window(GOLD, 0.0, range(1, 14))
    assert "".join(map(str, w.word)) == "0100101001001"


def test_sturmian_degenerate_slope():
    z = sturmian_window(0.0, 0.0, range(0, 13))
    assert set(z.word) == {0}


@pytest.mark.parametrize("slope, intercept, match", [
    (1.5, 0.0, "slope"), (-0.1, 0.0, "slope"), (math.nan, 0.0, "slope"),
    (math.inf, 0.0, "slope"), (-math.inf, 0.0, "slope"),
    (0.5, math.nan, "intercept"), (0.5, math.inf, "intercept"),
    (0.5, -math.inf, "intercept"),
])
def test_sturmian_rejects_non_binary_parameters(slope, intercept, match):
    # each would give letters outside {0, 1}
    with pytest.raises(ValueError, match=match):
        sturmian_window(slope, intercept, range(-5, 6))


def test_rational_sturmian_windows_pass_the_public_check():
    # float floors got 28 of these wrong: at slope and intercept 0.3,
    # 9 * 0.3 + 0.3 = 2.9999999999999996 lands below 3
    window = range(-20, 21)
    for q in range(2, 11):
        for p in range(1, q):
            for c in range(10):
                x = sturmian_window(p / q, c / 10, window)
                assert x.word.tolist() == reference_mechanical(p / q, c / 10,
                                                               window)
                assert reference_balanced(x.word.tolist())
                assert SubshiftWindow(x.word, window) == x
                for k in (1, -3, 7):
                    assert x.shifted(k) == SubshiftWindow(
                        x.word, range(window.start - k, window.stop - k))


def test_voronoi_tiles_left_tie_break():
    assert voronoi_tiles({0, 10}, range(-5, 16)) == ((0, -5, 5),
                                                     (10, 6, 15))
    assert voronoi_tiles([0], range(-5, 6)) == ((0, -5, 5),)


def test_toy_encode_identity_block():
    x = sturmian_window(GOLD, 0.0, range(-5, 6))
    g = toy_encode(x, [0])
    assert g.window == range(-5, 6)
    assert g.values.tolist() == [float(b) for b in x.word]
    # determinism on equal words
    assert toy_encode(sturmian_window(GOLD, 0.0, range(-5, 6)), [0]) == g


@pytest.mark.parametrize("markers", [[2.7], [2.0], [True], np.array([2.5])])
def test_toy_encode_rejects_non_integer_markers(markers):
    # int() would truncate each of these to a site instead
    x = sturmian_window(GOLD, 0.0, range(-5, 6))
    with pytest.raises(ValueError, match="markers must be integers"):
        toy_encode(x, markers)


def test_toy_encode_bitwise_equivariance():
    xx = sturmian_window(GOLD, 0.3, range(-20, 21))
    mk = [-15, -5, 5, 15]
    enc = toy_encode(xx, mk)
    for k in (1, -3, 7):
        enc_sh = toy_encode(xx.shifted(k), [m - k for m in mk])
        assert enc_sh == enc.shifted(k)


def test_word_and_bowen_metrics():
    ya = SubshiftWindow((0, 1, 0, 0, 1), range(-2, 3))
    yb = SubshiftWindow((0, 1, 0, 1, 0), range(-2, 3))
    assert word_metric(ya, ya) == 0.0
    assert word_metric(ya, yb) == 0.5
    assert word_metric(ya, yb) == word_metric(yb, ya)
    assert bowen_metric(ya, yb, -2, 5) == 1.0


@pytest.mark.parametrize("start, length, match", [
    (0, 2.5, "length must be an integer"),
    (0, True, "length must be an integer"),
    (0, 0, "length must be an integer >= 1"),
    (0.5, 2, "start must be an integer"),
    (False, 2, "start must be an integer"),
])
def test_bowen_metric_rejects_a_non_integer_window(start, length, match):
    # 2.5 steps used to run as a window of its own
    ya = SubshiftWindow((0, 1, 0, 0, 1), range(-2, 3))
    with pytest.raises(ValueError, match=match):
        bowen_metric(ya, ya, start, length)


def test_marker_cylinder_gaps():
    xx = sturmian_window(GOLD, 0.3, range(-20, 21))
    _, sites = marker_cylinder(xx, 3)
    assert all(q - p > 3 for p, q in zip(sites, sites[1:]))
    assert len(sites) >= 2


@pytest.mark.parametrize("N", [2.5, True, 0, "3"])
def test_marker_cylinder_rejects_a_separation_that_is_not_a_positive_integer(
        N):
    xx = sturmian_window(GOLD, 0.3, range(-20, 21))
    with pytest.raises(ValueError, match="N must be an integer >= 1"):
        marker_cylinder(xx, N)


def test_toy_verify_identical_and_near_pairs():
    xx = sturmian_window(GOLD, 0.3, range(-20, 21))
    pairs = [(xx, xx), (xx, sturmian_window(GOLD, 0.31, range(-20, 21)))]
    rep = toy_verify(pairs, [[-15, -5, 5, 15]] * 2, delta=0.5, eps=0.75)
    assert rep.pairs_checked == 2
    assert rep.passed


def test_toy_verify_distinguishes_origin_flip():
    wa = SubshiftWindow((0, 1, 0, 0, 1, 0, 0), range(-3, 4))
    wb = SubshiftWindow((0, 1, 0, 1, 0, 0, 1), range(-3, 4))
    assert toy_encode(wa, [0]).sup_gap(toy_encode(wb, [0])) == 1.0
    rep = toy_verify([(wa, wb)], [[0]], delta=0.5, eps=0.75)
    assert rep.passed
    assert rep.equal_encoding_pairs == 0


def test_toy_verify_marker_sets_as_arrays():
    xx = sturmian_window(GOLD, 0.3, range(-20, 21))
    pairs = [(xx, xx), (xx, sturmian_window(GOLD, 0.31, range(-20, 21))),
             (xx, sturmian_window(GOLD, 0.8, range(-20, 21)))]
    mk = [(-15, -5, 5, 15), (-10, 0, 10), (-15, -5, 5, 15)]
    want = toy_verify(pairs, mk, delta=0.5, eps=0.75)
    assert want.pairs_checked == 3
    assert toy_verify(pairs, [np.array(m) for m in mk], delta=0.5,
                      eps=0.75) == want


@pytest.mark.parametrize("markers, match", [
    ([2.7], "markers must be a sequence of integers, got 2.7"),
    ([5], "markers must be a sequence of integers, got 5"),
    ([-15, -5, 5, 15], "one marker set per pair required"),
    ([[2.7]], "markers must be integers, got 2.7"),
])
def test_toy_verify_takes_one_marker_set_per_pair(markers, match):
    # one set per pair: a flat list of markers is never read as one shared set
    xx = sturmian_window(GOLD, 0.3, range(-20, 21))
    with pytest.raises(ValueError, match=match):
        toy_verify([(xx, xx)], markers, delta=0.5, eps=0.75)


def test_toy_verify_random_sturmian_batch():
    rng = np.random.default_rng(42)
    pairs, marker_sets = [], []
    for _ in range(200):
        slope = 0.2 + 0.6 * rng.random()
        u = sturmian_window(slope, rng.random(), range(-15, 16))
        v = sturmian_window(slope, rng.random(), range(-15, 16))
        _, sites = marker_cylinder(u, 3)
        pairs.append((u, v))
        marker_sets.append(sites)
    rep = toy_verify(pairs, marker_sets, delta=0.5, eps=0.75)
    assert rep.passed
    assert rep.violations == ()


def test_discrete_signal_rejects_values_outside_unit_interval():
    for bad in ([0.5, float("nan")], [0.5, -0.25], [1.5, 0.5],
                [(0.5,), (0.5,)], [0.5]):
        with pytest.raises(ValueError):
            DiscreteSignal(range(0, 2), bad)
    s = DiscreteSignal(range(0, 2), [0.0, 1.0])
    assert not s.values.flags.writeable
    assert s.to_json() == {"window": [0, 1], "values": [0.0, 1.0]}


@pytest.mark.parametrize("lo, hi", [(3, 9), (-6, 0), (3, 1), (6, 6)])
def test_letters_reject_sites_out_of_order_or_outside_the_window(lo, hi):
    w = SubshiftWindow([0, 1] * 5 + [0], range(-5, 6))
    assert w.letters(-5, 5).tolist() == [0, 1] * 5 + [0]
    assert w.letters(3, 3).tolist() == [0]
    with pytest.raises(ValueError, match="must be ordered and inside"):
        w.letters(lo, hi)


def test_discrete_signal_shift_relabels_window():
    vals = tuple(float(i) / 10.0 for i in range(5))
    s = DiscreteSignal(range(0, 5), vals)
    t = s.shifted(2)
    assert t.window == range(-2, 3)
    assert all(t[n] == s[n + 2] for n in range(-2, 3))


# ---------------------------------------------------------------------------
# properties of the array representation, against per-site loops

PROPERTY = settings(derandomize=True, deadline=None, database=None)

UNIT = st.floats(0.0, 1.0, exclude_max=True)


def reference_embed(r, window):
    """rotation_embed one site at a time, through the scalar cospi."""
    return [(1.0 + cospi(2.0 * r.point(n))) / 2.0 for n in window]


def reference_gap(alpha, window, phases, pairs):
    """embedding_gap with one signal per phase and a pair-by-pair scan."""
    V = [reference_embed(Rotation(alpha, x), window) for x in phases]
    best, arg = math.inf, None
    for i, j in pairs:
        gap = max(abs(a - b) for a, b in zip(V[i], V[j]))
        if gap < best:
            best, arg = gap, (phases[i], phases[j])
    return best, arg


def reference_balanced(word):
    """The per-size prefix-sum balance test on a sequence of letters: two
    factors of equal length differ by at most one in their count of ones.
    SubshiftWindow does not check balance; sturmian_window words are held
    to this reference."""
    prefix = [0]
    for b in word:
        prefix.append(prefix[-1] + b)
    n = len(word)
    for size in range(1, n):
        counts = [prefix[i + size] - prefix[i] for i in range(n - size + 1)]
        if max(counts) - min(counts) > 1:
            return False
    return True


def reference_mechanical(slope, intercept, window):
    """The lower mechanical word in Fraction arithmetic, one site at a
    time."""
    s, c = Fraction(slope), Fraction(intercept)
    return [math.floor((n + 1) * s + c) - math.floor(n * s + c)
            for n in window]


def reference_cylinder(word, start, N):
    """marker_cylinder over a tuple word, factors visited in sorted order."""
    n = len(word)
    best = None
    for size in range(1, n + 1):
        seen = {}
        for i in range(n - size + 1):
            seen.setdefault(word[i:i + size], []).append(start + i)
        for block, sites in sorted(seen.items()):
            if any(q - p <= N for p, q in zip(sites, sites[1:])):
                continue
            key = (-len(sites), size, block, sites[0])
            if best is None or key < best[0]:
                best = (key, block, tuple(sites))
        if best is not None and -best[0][0] >= n - size:
            break
    return best[1], best[2]


def reference_local_distance(x, y, m):
    """2^(-r) for the disagreement nearest m, scanning every site."""
    best = None
    for n, a, b in zip(x.window, x.word.tolist(), y.word.tolist()):
        if a != b and (best is None or abs(n - m) < best):
            best = abs(n - m)
    return 0.0 if best is None else 2.0 ** (-best)


@st.composite
def rotations(draw):
    alpha = draw(st.one_of(UNIT, st.floats(-5.0, 5.0),
                           st.sampled_from([ALPHA, GOLD, 0.5, 0.25])))
    x0 = draw(st.one_of(UNIT, st.sampled_from([0.0, 0.25, 0.5, 0.75])))
    return Rotation(alpha, x0, draw(st.integers(-10 ** 6, 10 ** 6)))


@st.composite
def windows(draw, max_len=120):
    lo = draw(st.integers(-10 ** 4, 10 ** 4))
    return range(lo, lo + draw(st.integers(1, max_len)))


P_OVER_Q = st.integers(2, 10).flatmap(
    lambda q: st.integers(1, q - 1).map(lambda p: p / q))
C_OVER_10 = st.integers(0, 9).map(lambda c: c / 10)
SLOPES = st.one_of(UNIT, P_OVER_Q,
                   st.sampled_from([0.0, 1.0, 0.5, 1 / 3, 2 / 5, GOLD]))


@st.composite
def mechanical_words(draw, max_len=31):
    """Mechanical words, Sturmian or periodic: rational slopes p/q and
    intercepts c/10 too."""
    return sturmian_window(draw(SLOPES), draw(st.one_of(UNIT, C_OVER_10)),
                           draw(windows(max_len)))


@settings(PROPERTY, max_examples=300)
@given(SLOPES, st.one_of(UNIT, C_OVER_10, st.floats(-1e6, 1e6),
                         st.floats(allow_nan=False, allow_infinity=False)),
       windows(60))
def test_sturmian_window_matches_exact_reference(slope, intercept, window):
    x = sturmian_window(slope, intercept, window)
    assert x.window == window
    assert x.word.tolist() == reference_mechanical(slope, intercept, window)
    assert x.word.dtype == np.uint8 and not x.word.flags.writeable
    assert reference_balanced(x.word.tolist())


@PROPERTY
@given(rotations(), windows())
def test_rotation_embed_matches_per_site_loop(r, window):
    sig = rotation_embed(r, window)
    want = np.array(reference_embed(r, window))
    assert sig.values.tobytes() == want.tobytes()
    assert not sig.values.flags.writeable


@settings(PROPERTY, max_examples=200)
@given(st.one_of(UNIT, st.sampled_from([ALPHA, GOLD])), windows(40),
       st.lists(UNIT, min_size=2, max_size=12, unique=True),
       st.integers(0, 3),
       st.booleans(), st.lists(st.tuples(st.integers(0, 11),
                                         st.integers(0, 11)),
                                min_size=1, max_size=20))
def test_embedding_gap_matches_per_phase_signals(alpha, window, phases,
                                                 repeat, all_pairs, pairs):
    if repeat == 0:  # ties at gap 0: the first closest pair must win
        phases = phases + phases[:2]
    n = len(phases)
    if all_pairs:
        pairs = list(itertools.combinations(range(n), 2))
    else:
        pairs = [(i % n, (i + 1 + d % (n - 1)) % n) for i, d in pairs]
    got = embedding_gap(alpha, window, phases, pairs)
    assert got == reference_gap(alpha, window, phases, pairs)


BINARY_WORDS = st.lists(st.integers(0, 1), min_size=1, max_size=31)
# the forms a word arrives in: Python letters or an integer or float array
WORD_FORMS = st.sampled_from([
    list, tuple, lambda w: np.array(w, dtype=np.uint8),
    lambda w: np.array(w, dtype=np.int64), lambda w: np.array(w, dtype=float),
])


@settings(PROPERTY, max_examples=300)
@given(st.one_of(BINARY_WORDS,
                 mechanical_words().map(lambda w: w.word.tolist())),
       WORD_FORMS, st.integers(-50, 50), st.integers(-40, 40))
@example([1, 1, 0, 0, 1, 1], list, 0, 3)  # not balanced at length 2
def test_subshift_window_builds_every_binary_word(word, form, lo, k):
    window = range(lo, lo + len(word))
    given_word = form(word)
    x = SubshiftWindow(given_word, window)
    assert x.window == window and x.word.tolist() == word
    assert x.word.dtype == np.uint8 and not x.word.flags.writeable
    if isinstance(given_word, np.ndarray):
        given_word[:] = 1 - given_word  # the window holds a copy
        assert x.word.tolist() == word
    moved = range(lo - k, lo - k + len(word))
    y = x.shifted(k)
    assert y == SubshiftWindow(word, moved) and y.window == moved
    assert y.word.dtype == np.uint8 and not y.word.flags.writeable


@settings(PROPERTY, max_examples=200)
@given(BINARY_WORDS, WORD_FORMS, st.integers(-50, 50), st.data())
def test_subshift_window_rejects_a_wrong_length_or_a_non_binary_letter(
        word, form, lo, data):
    window = range(lo, lo + len(word))
    for bad in (word[:-1], word + [data.draw(st.integers(0, 1))]):
        with pytest.raises(ValueError,
                           match="^one letter per window site required$"):
            SubshiftWindow(form(bad), window)
    i = data.draw(st.integers(0, len(word) - 1))
    letter = data.draw(st.sampled_from([2, -1, 0.5]))
    bad = word[:i] + [letter] + word[i + 1:]
    for given_word in (bad, np.array(bad)):
        with pytest.raises(ValueError, match="^letters must be 0 or 1$"):
            SubshiftWindow(given_word, window)


@settings(PROPERTY, max_examples=300)
@given(mechanical_words(), st.one_of(st.integers(1, 8), st.integers(9, 31)))
def test_marker_cylinder_matches_tuple_keyed_scan(x, N):
    want = reference_cylinder(tuple(x.word.tolist()), x.window.start, N)
    assert marker_cylinder(x, N) == want


@PROPERTY
@given(st.integers(-40, 10), st.integers(1, 31), UNIT, UNIT, UNIT, UNIT,
       st.booleans(), st.integers(-45, 45), st.integers(1, 40))
def test_word_metrics_match_per_site_loop(lo, size, s1, c1, s2, c2, same,
                                          start, length):
    window = range(lo, lo + size)
    x = sturmian_window(s1, c1, window)
    y = x if same else sturmian_window(s2, c2, window)
    assert word_metric(x, y) == reference_local_distance(x, y, 0)
    assert bowen_metric(x, y, start, length) == max(
        reference_local_distance(x, y, start + j) for j in range(length))


def reference_encode(r, h, band, window):
    """marker_encode's nodes and coefficients one time step at a time,
    through the scalar h and cispi."""
    c = band.carrier()
    nodes = [float(k) for k in window]
    coeffs = [complex(h(r.point(k)) * cispi(-2.0 * c * k)) for k in window]
    return np.array(nodes), np.array(coeffs, dtype=complex)


@settings(PROPERTY, max_examples=200)
@given(rotations(), windows(), st.floats(0.01, 0.49),
       st.sampled_from([-0.5, 0.0, 2.0, 2.25, 7.125]))
def test_marker_encode_matches_per_step_loop(r, window, w, lo):
    # one band width, so the decay guard sees one kernel
    band = Band(lo, lo + 1.0)
    h = MarkerBump(w)
    sig = marker_encode(r, h, band, window)
    nodes, coeffs = reference_encode(r, h, band, window)
    assert sig.nodes.tobytes() == nodes.tobytes()
    assert sig.coeffs.tobytes() == coeffs.tobytes()
    assert not (sig.nodes.flags.writeable or sig.coeffs.flags.writeable)
