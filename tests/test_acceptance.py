"""End-to-end acceptance suite.

One test per advertised guarantee, each printing a single pass/fail line
(visible under pytest -s or in failure output). Tolerances and trial
counts here are the package's contract; the unit-test modules cover the
same code paths at smaller scale with frozen oracle values.
"""

import time
from fractions import Fraction

import numpy as np

from bandtile.bandlimited import sample, sampling_injectivity_stress, tone_signal
from bandtile.cli import main
from bandtile.interpolation import (
    GridParams,
    NodeMultiset,
    cardinal_kernel,
    decay_constant,
    random_admissible_multiset,
    saturate,
    weierstrass_product,
)
from bandtile.simplicial import (
    crossing_pair,
    is_embedding,
    random_map,
    triangulated_strip,
    verify_witness,
)
from bandtile.systems import (
    embedding_gap,
    marker_cylinder,
    sturmian_window,
    toy_encode,
    toy_verify,
)
from bandtile.tiling import (
    compute_tiles,
    density_report,
    random_marker_seq,
    shift_markers,
)
from bandtile.weights import (
    WeightParams,
    bases,
    finalize,
    greedy_rounds,
    receiver_core,
    verify_conditions,
)

PARAMS = GridParams(l=1, rho=Fraction(1), tau=0.5)
STD = WeightParams(1.0, 2, 4, 106, 110, 200)


def _line(num, name, passed, detail):
    print(f"acceptance {num} [{name}]: {'PASS' if passed else 'FAIL'} "
          f"({detail})")


def test_01_sinc_oracle():
    t0 = time.perf_counter()
    lattice = NodeMultiset(
        tuple((float(n), 1) for n in range(-256, 257) if n != 0),
        PARAMS, (-256, 256))
    zs = np.linspace(-10.0, 10.0, 1000)
    vals = weierstrass_product(lattice, zs.astype(complex), 128,
                               lattice_tail=True)
    err = float(np.max(np.abs(vals - np.sinc(zs))))
    elapsed = time.perf_counter() - t0
    ok = err <= 1e-6 and elapsed < 5.0
    _line(1, "sinc oracle", ok, f"max err {err:.3e}, {elapsed:.2f}s")
    assert err <= 1e-6
    assert elapsed < 5.0


def test_02_interpolation_duality():
    t0 = time.perf_counter()
    # kernels over windows of +-64 blocks; evaluation stays inside the
    # certified truncation region of the tail formula
    kappa = decay_constant(PARAMS, seed=0)
    xs = np.linspace(-28.0, 28.0, 225).astype(complex)
    rng = np.random.default_rng(11)
    worst_own = worst_other = worst_env = 0.0
    for _ in range(100):
        mset = saturate(random_admissible_multiset(PARAMS, (-64, 64), rng))
        nodes = [float(q) for q in mset.positions() if 1e-9 < abs(q) <= 48.0]
        pts = np.array([0.0] + nodes, dtype=complex)
        vals = cardinal_kernel(mset, pts, 56)
        worst_own = max(worst_own, abs(abs(vals[0]) - 1.0))
        worst_other = max(worst_other, max(abs(v) for v in vals[1:]))
        env = cardinal_kernel(mset, xs, 56)
        worst_env = max(worst_env,
                        float(np.max(np.abs(env) * (1.0 + xs.real ** 2))))
    elapsed = time.perf_counter() - t0
    ok = worst_own <= 1e-4 and worst_other <= 1e-4 and worst_env <= kappa
    _line(2, "kernel duality", ok,
          f"own err {worst_own:.2e}, other {worst_other:.2e}, "
          f"envelope {worst_env:.3f} <= {kappa:.3f}, {elapsed:.1f}s")
    assert worst_own <= 1e-4
    assert worst_other <= 1e-4
    assert worst_env <= kappa


def test_03_nyquist_pair():
    t0 = time.perf_counter()
    rep = sampling_injectivity_stress(0.4, 1, 1000, seed=0)
    tone = tone_signal(1.0, "sin")
    track = sample(tone, 0.5, (-64, 64))
    peak = max(abs(v) for v in track.values)
    elapsed = time.perf_counter() - t0
    ok = rep.passed and peak == 0.0 and elapsed < 30.0
    _line(3, "nyquist pair", ok,
          f"{rep.trials} trials, {len(rep.violations)} violations, "
          f"half-integer peak {peak}, {elapsed:.2f}s")
    assert rep.violations == ()
    assert rep.counterexample is None
    assert peak == 0.0
    assert elapsed < 30.0


def test_04_tiling_geometry():
    t0 = time.perf_counter()
    L, M, span = 8, 30, 300.0
    rng = np.random.default_rng(5)
    contained = True
    worst_equiv = 0.0
    density_ok = True
    slack = 2.0 * 3.0 * (1.0 + (span + M) / L) / span
    for _ in range(1000):
        markers = random_marker_seq(L, M, 0.0, span, rng)
        t = compute_tiles(markers, (0.0, span))
        for n, tile in t.nonempty():
            if not (n - M / 2.0 < tile.lo and tile.hi < n + M / 2.0):
                contained = False
        d = density_report(t, r=1.0, R=span, a=0.0)
        if not (d.count_density <= d.count_bound_finite
                and d.measure_density <= d.measure_bound_finite
                and d.count_density <= d.count_bound_asymptotic + slack
                and d.measure_density <= d.measure_bound_asymptotic + slack):
            density_ok = False
        k = int(rng.integers(-40, 41))
        ts = compute_tiles(shift_markers(markers, k), (-k, span - k))
        for n, a in t.nonempty():
            b = ts.tile(n - k)
            worst_equiv = max(worst_equiv, abs(b.lo - (a.lo - k)),
                              abs(b.hi - (a.hi - k)))
    elapsed = time.perf_counter() - t0
    ok = contained and density_ok and worst_equiv <= 1e-9
    _line(4, "tiling geometry", ok,
          f"1000 tilings, containment {contained}, density {density_ok}, "
          f"equivariance err {worst_equiv:.2e}, {elapsed:.1f}s")
    assert contained
    assert density_ok
    assert worst_equiv <= 1e-9


def test_05_weight_allocation():
    t0 = time.perf_counter()
    rng = np.random.default_rng(7)
    fails = 0
    worst_resid = worst_cap = 0.0
    for _ in range(1000):
        markers = random_marker_seq(STD.L, STD.M, 0.0, 900.0, rng)
        t = compute_tiles(markers, (0.0, 900.0))
        a0, b0 = bases(t, STD)
        wm = finalize(greedy_rounds(a0, b0, STD), STD)
        if not verify_conditions(wm, t, STD).passed:
            fails += 1
        served, spent = {}, {}
        for n, m, val, _ in wm.entries.tolist():
            served[n + m] = served.get(n + m, 0.0) + val
            spent[n] = spent.get(n, 0.0) + val
        for r in receiver_core(t, STD):
            worst_resid = max(worst_resid,
                              abs(b0.get(r, 0.0) - served.get(r, 0.0)))
        for n, total in spent.items():
            worst_cap = max(worst_cap, total - a0[n])
    elapsed = time.perf_counter() - t0
    ok = (fails == 0 and worst_resid <= 1e-9 and worst_cap <= 1e-9
          and elapsed < 60.0)
    _line(5, "weight allocation", ok,
          f"1000 instances, {fails} condition failures, residual "
          f"{worst_resid:.2e}, cap excess {worst_cap:.2e}, {elapsed:.1f}s")
    assert fails == 0
    assert worst_resid <= 1e-9
    assert worst_cap <= 1e-9
    assert elapsed < 60.0


def test_06_simplicial_genericity():
    t0 = time.perf_counter()
    rng = np.random.default_rng(7)
    strip = triangulated_strip(20)
    hits = sum(is_embedding(random_map(strip, 5, rng))[0]
               for _ in range(100))
    witnesses_ok = True
    for D in (2, 3, 4):
        bad = crossing_pair(D)
        embeds, w = is_embedding(bad)
        if embeds or not verify_witness(bad, w):
            witnesses_ok = False
    elapsed = time.perf_counter() - t0
    ok = hits >= 99 and witnesses_ok
    _line(6, "simplicial genericity", ok,
          f"{hits}/100 random maps embed, collapse witnesses "
          f"{'verified' if witnesses_ok else 'broken'}, {elapsed:.1f}s")
    assert hits >= 99
    assert witnesses_ok


def test_07_toy_codec():
    t0 = time.perf_counter()
    rng = np.random.default_rng(42)
    pairs, marker_sets = [], []
    for _ in range(10_000):
        slope = 0.2 + 0.6 * rng.random()
        u = sturmian_window(slope, rng.random(), range(-15, 16))
        v = sturmian_window(slope, rng.random(), range(-15, 16))
        _, sites = marker_cylinder(u, 3)
        pairs.append((u, v))
        marker_sets.append(sites)
    rep = toy_verify(pairs, marker_sets, delta=0.5, eps=0.75)
    equivariant = True
    mk = [-12, -4, 4, 12]
    for u, _ in pairs[:20]:
        enc = toy_encode(u, mk)
        for k in (1, -3, 7):
            if toy_encode(u.shifted(k), [m - k for m in mk]) != enc.shifted(k):
                equivariant = False
    elapsed = time.perf_counter() - t0
    ok = rep.passed and equivariant and elapsed < 60.0
    _line(7, "toy codec", ok,
          f"{rep.pairs_checked} pairs, {len(rep.violations)} violations, "
          f"equivariance {'exact' if equivariant else 'BROKEN'}, "
          f"{elapsed:.1f}s")
    assert rep.violations == ()
    assert rep.passed
    assert equivariant
    assert elapsed < 60.0


def test_08_rotation_embedding_gap():
    t0 = time.perf_counter()
    alpha = 2.0 ** 0.5 - 1.0
    gaps = []
    for seed in (0, 1, 2):
        rng = np.random.default_rng(seed)
        phases = rng.random(2000)
        gap, _ = embedding_gap(alpha, range(-50, 51), phases,
                               pairs=[(2 * i, 2 * i + 1)
                                      for i in range(1000)])
        gaps.append(gap)
    spread = max(gaps) / min(gaps)
    elapsed = time.perf_counter() - t0
    ok = min(gaps) > 1e-6 and spread < 10.0
    _line(8, "rotation embedding", ok,
          f"min gaps {', '.join(f'{g:.2e}' for g in gaps)}, "
          f"seed spread x{spread:.2f}, {elapsed:.1f}s")
    assert min(gaps) > 1e-6
    assert spread < 10.0


def test_09_cli_determinism(tmp_path):
    t0 = time.perf_counter()
    suites = [
        ["interp", "eval", "--seed", "5"],
        ["interp", "oracle-sinc", "--seed", "9"],
        ["interp", "radii", "--seed", "3"],
        ["tiling", "demo", "--seed", "2"],
        ["weights", "run", "--seed", "3"],
        ["simplicial", "check", "--seed", "7"],
        ["simplicial", "perturb", "--seed", "7"],
        ["codec", "rotation", "--seed", "2"],
        ["codec", "marker", "--seed", "1"],
        ["codec", "toy", "--seed", "6"],
        ["sampling", "--seed", "4"],
    ]
    stable = failed = 0
    for i, args in enumerate(suites):
        payloads = []
        for run in ("a", "b"):
            out = tmp_path / f"{i}-{run}.json"
            code = main(args + ["--out", str(out)])
            if code != 0:
                failed += 1
                break
            payloads.append(out.read_bytes())
        if len(payloads) == 2 and payloads[0] == payloads[1]:
            stable += 1
    elapsed = time.perf_counter() - t0
    ok = failed == 0 and stable == len(suites)
    _line(9, "cli determinism", ok,
          f"{stable}/{len(suites)} suites byte-identical, {failed} failed, "
          f"{elapsed:.1f}s")
    assert failed == 0
    assert stable == len(suites)
