import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bandtile.bandlimited import Band, BumpKernel, SincKernel, band_check
from bandtile.systems import (
    DiscreteSignal,
    Rotation,
    SubshiftWindow,
    bowen_metric,
    embedding_gap,
    marker_cylinder,
    marker_encode,
    marker_function,
    near_rational,
    orbit_markers,
    rotation_embed,
    sturmian_window,
    toy_encode,
    toy_verify,
    voronoi_tiles,
    word_metric,
)
from bandtile.numutil import circle_dist, cospi
from bandtile.tiling import MarkerSeq

ALPHA = math.sqrt(2.0) - 1.0
GOLD = (3.0 - math.sqrt(5.0)) / 2.0


def test_rotation_points_and_exact_relabeling():
    r = Rotation(ALPHA)
    assert r.point(0) == 0.0
    assert r.point(1) == ALPHA
    r5 = r.shifted(5)
    assert all(r5.point(n) == r.point(n + 5) for n in range(-10, 10))


def test_near_rational_detection():
    assert near_rational(0.5) == (1, 2, 0.0)
    assert near_rational(ALPHA) is None
    assert Rotation(1.0 / 3.0).rational_hint() is not None


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
    gap, pair = embedding_gap(ALPHA, range(-50, 51), grid)
    assert gap == pytest.approx(0.01570031940016814, abs=1e-15)
    assert pair == (0.125, 0.13)


def test_embedding_gap_explicit_pairs_positive():
    rng = np.random.default_rng(0)
    phases = rng.random(200)
    gap, _ = embedding_gap(ALPHA, range(-50, 51), phases,
                           pairs=[(2 * i, 2 * i + 1) for i in range(100)])
    assert gap > 0.0


def test_embedding_gap_without_pairs_raises():
    for phases, pairs in (([0.1], None), ([0.1, 0.2], []), ([], None)):
        with pytest.raises(ValueError, match="no phase pair"):
            embedding_gap(ALPHA, range(-5, 6), phases, pairs)


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
    assert mseq.positions() == tuple(hits)


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
    assert getattr(got, "entries", got) == getattr(want, "entries", want)


@pytest.mark.parametrize("L, step, hits, scan_limit", [
    (4, 0, 64, 0), (4, 0, 64, 5), (4, 0, 64, 60), (4, 0, 64, 4095),
    # fewer visits than one scan chunk holds see fewer return gaps
    (4, 0, 2, 4095), (4, 0, 3, 4095), (3, 0, 5, 4095),
    # plateau visits at times 1512 and 4096 only: one visit and a
    # rejection up to 4095, two visits and a scheme from 4096 on
    (1000, -4157, 64, 4095), (1000, -4157, 64, 4096),
    (1000, -4157, 64, 4097)])
def test_marker_scan_keeps_hit_count_and_scan_limit(L, step, hits,
                                                    scan_limit):
    r = Rotation(GOLD, 0.3, step)
    got = _outcome(lambda: marker_function(r, L, hits, scan_limit).M)
    want = _outcome(lambda: _scheme_by_loop(r, L, hits, scan_limit)[1])
    assert got == want


def test_marker_function_rejects_rational_angle():
    with pytest.raises(ValueError):
        marker_function(Rotation(0.5), 2)


def test_marker_encode_zero_and_single_coefficient():
    band = Band(2.0, 3.0)
    sig0 = marker_encode(Rotation(ALPHA, 0.5), lambda x: 0.0, band,
                         range(-10, 11))
    assert all(sig0.eval(t) == 0 for t in np.linspace(-5, 5, 11))
    single = marker_encode(Rotation(ALPHA),
                           lambda x: 1.0 if x == 0.0 else 0.0,
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
    band = Band(2.0, 3.0)
    for _ in range(2):  # the decay guard caches verdicts, not rejections
        with pytest.raises(ValueError):
            marker_encode(r, scheme.h, band, range(-5, 6),
                          kernel=SincKernel(0.45))  # no quadratic decay
    with pytest.raises(ValueError):
        marker_encode(r, scheme.h, band, range(-5, 6),
                      kernel=BumpKernel(1.5))  # wider than the band


def test_sturmian_frozen_prefix():
    w = sturmian_window(GOLD, 0.0, range(1, 14))
    assert "".join(map(str, w.word)) == "0100101001001"
    assert not w.degenerate


def test_sturmian_degenerate_slope():
    z = sturmian_window(0.0, 0.0, range(0, 13))
    assert z.degenerate
    assert set(z.word) == {0}


def test_subshift_balance_validation():
    with pytest.raises(ValueError):
        SubshiftWindow((1, 1, 0, 0, 1, 1), range(0, 6))
    SubshiftWindow((0, 1, 0, 1, 0), range(0, 5))


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


def test_toy_encode_guards():
    x = sturmian_window(GOLD, 0.0, range(-5, 6))
    with pytest.raises(ValueError):
        toy_encode(x, [0], G={3: lambda b: tuple(map(float, b))})
    noisy = lambda b: tuple(min(1.0, v + 0.05) for v in b)
    toy_encode(x, [0], G=noisy, tube=0.1)
    with pytest.raises(ValueError):
        toy_encode(x, [0], G=noisy, tube=0.01)


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


def test_marker_cylinder_gaps():
    xx = sturmian_window(GOLD, 0.3, range(-20, 21))
    _, sites = marker_cylinder(xx, 3)
    assert all(q - p > 3 for p, q in zip(sites, sites[1:]))
    assert len(sites) >= 2


def test_toy_verify_identical_and_near_pairs():
    xx = sturmian_window(GOLD, 0.3, range(-20, 21))
    pairs = [(xx, xx), (xx, sturmian_window(GOLD, 0.31, range(-20, 21)))]
    rep = toy_verify(pairs, [-15, -5, 5, 15], delta=0.5, eps=0.75)
    assert rep.pairs_checked == 2
    assert rep.passed


def test_toy_verify_distinguishes_origin_flip():
    wa = SubshiftWindow((0, 1, 0, 0, 1, 0, 0), range(-3, 4))
    wb = SubshiftWindow((0, 1, 0, 1, 0, 0, 1), range(-3, 4))
    assert toy_encode(wa, [0]).sup_gap(toy_encode(wb, [0])) == 1.0
    rep = toy_verify([(wa, wb)], [0], delta=0.5, eps=0.75)
    assert rep.passed
    assert rep.equal_encoding_pairs == 0


def test_toy_verify_shared_markers_as_array():
    xx = sturmian_window(GOLD, 0.3, range(-20, 21))
    pairs = [(xx, xx), (xx, sturmian_window(GOLD, 0.31, range(-20, 21))),
             (xx, sturmian_window(GOLD, 0.8, range(-20, 21)))]
    mk = (-15, -5, 5, 15)
    want = toy_verify(pairs, mk, delta=0.5, eps=0.75)
    assert want.pairs_checked == 3
    assert toy_verify(pairs, np.array(mk), delta=0.5, eps=0.75) == want


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


def reference_gap(alpha, window, phases, pairs=None):
    """embedding_gap with one signal per phase and a pair-by-pair scan."""
    V = [reference_embed(Rotation(alpha, x), window) for x in phases]
    best, arg = math.inf, None
    if pairs is None:
        pairs = [(i, j) for i in range(len(phases))
                 for j in range(i + 1, len(phases))]
    for i, j in pairs:
        gap = max(abs(a - b) for a, b in zip(V[i], V[j]))
        if gap < best:
            best, arg = gap, (phases[i], phases[j])
    return best, arg


def reference_balanced(word):
    """The per-size prefix-sum balance test on a tuple of letters."""
    prefix = [0]
    for b in word:
        prefix.append(prefix[-1] + b)
    n = len(word)
    for size in range(1, n):
        counts = [prefix[i + size] - prefix[i] for i in range(n - size + 1)]
        if max(counts) - min(counts) > 1:
            return False
    return True


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


@st.composite
def mechanical_words(draw, max_len=31):
    """Mechanical words, Sturmian or periodic: rational slopes p/q too."""
    slope = draw(st.one_of(UNIT, st.sampled_from([0.0, 1.0, 0.5, 1 / 3,
                                                  2 / 5, GOLD])))
    return sturmian_window(slope, draw(UNIT), draw(windows(max_len)))


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
    pairs = None if all_pairs else [(i % n, (i + 1 + d % (n - 1)) % n)
                                    for i, d in pairs]
    got = embedding_gap(alpha, window, phases, pairs)
    assert got == reference_gap(alpha, window, phases, pairs)


@settings(PROPERTY, max_examples=300)
@given(st.one_of(st.lists(st.integers(0, 1), min_size=1, max_size=31),
                 mechanical_words().map(lambda w: w.word.tolist())))
def test_balance_check_matches_per_size_loop(word):
    got = _outcome(lambda: SubshiftWindow(word, range(-3, len(word) - 3)))
    if reference_balanced(word):
        assert got.word.tolist() == word
        assert not got.word.flags.writeable
    else:
        assert got.startswith("word is not balanced")


@settings(PROPERTY, max_examples=300)
@given(mechanical_words(), st.integers(1, 8))
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
