"""The four benchmark workloads.

Each workload turns the benchmark seed into a stream of unit inputs, runs
one unit (one certificate or verdict) through the package, and checks the
unit's output. Inputs are small parameter records derived from
(seed, unit index), so the same seed gives the same units in the same
order. The parameters that set a unit's cost come from a low-discrepancy
sequence with a seed-drawn offset (see sizes()), so every run, whatever
its seed or length, times an even spread of sizes with the same mix; the
seed also draws everything else (phases, generator seeds). marker-codec
uses one offset for every seed (see MarkerCodec.unit). The warm-up
unit is of the largest size, so it also sets the memory high-water mark
of the set-up.

Library functions are always called through their module
(`interpolation.truncation_radius(...)`), so the traced run's patches on
the module namespaces see every call.

Expected certificates and verdicts of the pool-based workloads
(kernel-certify, embed-check) live in expected.json, written by record.py.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import numpy as np

from bandtile import (bandlimited, cli, interpolation, simplicial, systems,
                      tiling)

EXPECTED_PATH = Path(__file__).with_name("expected.json")

# the CLI's default grid: block length 1, unit density, window support 1/2
GRID = interpolation.GridParams(l=1, rho=Fraction(1), tau=0.5)

WARMUP_INDEX = 10 ** 9
LARGEST = 1.0 - 1e-12  # size coordinate of the warm-up unit


def load_expected() -> dict:
    with open(EXPECTED_PATH, encoding="utf-8") as fp:
        return json.load(fp)


def sizes(seed, tag, i, dims):
    """Size coordinates in [0, 1)^dims of unit i: the additive recurrence
    frac(offset + i * a) with a = (g^-1, ..., g^-dims), g the generalized
    golden ratio (g^(dims+1) = g + 1), and an offset drawn from the seed.
    Every stretch of consecutive units covers the cube evenly."""
    g = 2.0
    for _ in range(64):
        g = (1.0 + g) ** (1.0 / (dims + 1))
    offset = np.random.default_rng((seed, tag)).random(dims)
    return [float((o + i * g ** -(k + 1)) % 1.0) for k, o in enumerate(offset)]


@dataclass(frozen=True)
class Unit:
    label: str
    params: dict


class Workload:
    """One closed loop of independent units. Subclasses define
    make(index, size coordinates) -> Unit, run(unit) -> output and
    check(unit, output) -> list of problems. Outputs are plain tuples,
    floats and strings so that two runs of one unit compare with ==."""

    name = ""
    traced = ()  # span names that must record calls on this workload
    tag = 0  # keeps the random streams of the workloads apart
    dims = 1  # size coordinates per unit

    def __init__(self, seed: int):
        self.seed = int(seed)

    def setup(self):
        """Once-per-workload references, computed before the warm-up."""

    def unit(self, i) -> Unit:
        return self.make(i, sizes(self.seed, self.tag, i, self.dims))

    def warmup(self) -> Unit:
        """A unit of the largest size, from outside the timed stream."""
        return self.make(WARMUP_INDEX, [LARGEST] * self.dims)


# ---------------------------------------------------------------------------
# marker-codec: systems -> bandlimited -> interpolation.bump_transform

ALPHAS = (math.sqrt(2.0) - 1.0, (math.sqrt(5.0) - 1.0) / 2.0,
          math.sqrt(3.0) - 1.0, math.pi - 3.0, math.e - 2.0)
MARKER_LS = (3, 4, 6)
# marker_function calibrates M on the orbit from time 0 until 64 plateau
# visits, which spans more than 64 L > 100 steps; markers are sampled on
# times 0..100, inside that calibrated stretch. Earlier times can hold a
# longer return gap than M (alpha = e - 2, L = 3 does), and orbit_markers
# then raises.
MARKER_TIMES = range(0, 101)
# half-window T of band_check, and the widest encoding half-width W for
# it: W <= T/2 keeps the encoded signal off the outer fifth of the window,
# so window_short never trips
MARKER_WINDOWS = ((16, 8), (24, 12))
BAND_LO = 2.0
SHIFT_TOL = 1e-9
LEAK_TOL = 1e-3


class MarkerCodec(Workload):
    name = "marker-codec"
    traced = ("bandlimited.BandSignal.eval", "bandlimited.band_check",
              "bandlimited.sampling_injectivity_stress",
              "interpolation.bump_transform", "systems.marker_function",
              "systems.orbit_markers", "systems.marker_encode")

    tag, dims = 1, 5

    def unit(self, i):
        # One size sequence for every seed: which sizes run, in which
        # order, sets glibc's heap high-water mark, and with seed-drawn
        # sizes peak RSS moved by 18 % between seeds. The seed draws the
        # phases and the stress seeds.
        return self.make(i, sizes(0, self.tag, i, self.dims))

    def make(self, i, u):
        T, w_max = MARKER_WINDOWS[int(u[0] * 2)]
        W = 6 + int(u[1] * (w_max - 5))
        width = 0.75 + 0.75 * u[2]
        a = int(u[3] * len(ALPHAS))
        rng = np.random.default_rng((self.seed, self.tag, i))
        p = {"alpha": ALPHAS[a], "phase": float(rng.random()),
             "L": MARKER_LS[int(u[4] * len(MARKER_LS))], "W": W, "T": T,
             "band": (BAND_LO, BAND_LO + width),
             "stress_seed": int(rng.integers(2 ** 31))}
        return Unit(f"alpha#{a} L={p['L']} W={W} T={T} width={width:.3f}",
                    p)

    def run(self, u):
        p = u.params
        r = systems.Rotation(p["alpha"], p["phase"])
        scheme = systems.marker_function(r, p["L"])
        markers = systems.orbit_markers(r, scheme.h, MARKER_TIMES,
                                        L=p["L"], M=scheme.M)
        band = bandlimited.Band(*p["band"])
        win = range(-p["W"], p["W"] + 1)
        sig = systems.marker_encode(r, scheme.h, band, win)
        bc = bandlimited.band_check(sig, band,
                                    probe_freqs=[band.lo - 0.7, band.hi + 0.7],
                                    tol=LEAK_TOL, half_window=p["T"])
        # shift error as `codec marker` computes it: the encoding of the
        # advanced orbit against the base encoding one step later
        s_next = systems.marker_encode(r.shifted(1), scheme.h, band, win)
        s_base = systems.marker_encode(r, scheme.h, band,
                                       range(win.start + 1, win.stop + 1))
        ts = np.linspace(-8.0, 8.0, 201)
        shift_err = float(np.max(np.abs(s_next.eval(ts)
                                        - s_base.eval(ts + 1.0))))
        stress = bandlimited.sampling_injectivity_stress(
            0.4, 1, 20, seed=p["stress_seed"])
        return {"markers": len(markers.entries), "M": scheme.M,
                "leakage": bc.leakage, "passed": bc.passed,
                "window_short": bc.window_short,
                "edge_fraction": bc.edge_fraction, "shift_error": shift_err,
                "stress_passed": stress.passed,
                "stress_min_ratio": stress.min_ratio}

    def check(self, u, out):
        bad = []
        if not out["passed"]:
            bad.append(f"band_check leakage {out['leakage']} over {LEAK_TOL}")
        if out["window_short"]:
            bad.append(f"window_short (edge {out['edge_fraction']:.3g})")
        if not out["shift_error"] < SHIFT_TOL:
            bad.append(f"shift error {out['shift_error']:.3g}")
        if not out["stress_passed"]:
            bad.append("sampling stress failed")
        return bad


# ---------------------------------------------------------------------------
# kernel-certify: interpolation certificates over wide multisets

KERNEL_POOL = 257  # case c certifies over a window of 4096 + 48 c blocks
CERT_EPS = 1e-2
CERT_R = 4.0
FAMILY = 8
NODE_TOL = 1e-4
SINC_TOL = 1e-6


def kernel_window(case):
    return 4096 + 48 * case


class KernelCertify(Workload):
    name = "kernel-certify"
    traced = ("interpolation.bump_transform",
              "interpolation.weierstrass_product",
              "interpolation.cardinal_kernel", "interpolation.saturate",
              "interpolation.check_conditions",
              "interpolation.random_admissible_multiset",
              "interpolation.agreeing_pair",
              "interpolation.truncation_radius",
              "interpolation.locality_radius",
              "interpolation.decay_constant")

    tag = 2

    def setup(self):
        self.expected = load_expected()[self.name]
        # envelope constant K of the decay bound, once per workload
        self.kappa = interpolation.decay_constant(GRID, seed=self.seed)

    def make(self, i, u):
        c = int(u[0] * KERNEL_POOL)
        return Unit(f"case={c} window={kernel_window(c)}",
                    {"case": c, "window": kernel_window(c)})

    @staticmethod
    def certify(case, window):
        trunc = interpolation.truncation_radius(
            CERT_R, CERT_EPS, GRID, seed=case, family_size=FAMILY,
            window_blocks=window)
        local = interpolation.locality_radius(
            CERT_R, CERT_EPS, GRID, seed=case, family_size=FAMILY,
            window_blocks=80)
        return trunc, local

    def run(self, u):
        case, window = u.params["case"], u.params["window"]
        trunc, local = self.certify(case, window)
        # duality as acceptance 2 checks it, on 4 saturated +-64 multisets
        rng = np.random.default_rng((case, 2))
        xs = np.linspace(-28.0, 28.0, 225).astype(complex)
        own = other = env = 0.0
        for _ in range(4):
            mset = interpolation.saturate(
                interpolation.random_admissible_multiset(GRID, (-64, 64), rng))
            nodes = [float(q) for q in mset.positions()
                     if 1e-9 < abs(q) <= 48.0]
            vals = interpolation.cardinal_kernel(
                mset, np.array([0.0] + nodes, dtype=complex), 56)
            own = max(own, abs(abs(vals[0]) - 1.0))
            other = max(other, float(np.max(np.abs(vals[1:]))))
            kern = interpolation.cardinal_kernel(mset, xs, 56)
            env = max(env, float(np.max(np.abs(kern) * (1.0 + xs.real ** 2))))
        # the 1000-point sinc oracle of `interp oracle-sinc`
        lattice = interpolation.saturate(
            interpolation.NodeMultiset((), GRID, (-256, 256)))
        zs = rng.uniform(-10.0, 10.0, size=1000).astype(complex)
        prod = interpolation.weierstrass_product(lattice, zs, block_radius=128,
                                                 lattice_tail=True)
        sinc_err = float(np.max(np.abs(prod - np.sinc(zs.real))))
        return {"truncation": (trunc.radius, trunc.certified, trunc.sup_error),
                "locality": (local.radius, local.certified, local.sup_error),
                "own": own, "other": other, "envelope": env,
                "sinc_error": sinc_err}

    def check(self, u, out):
        want = self.expected[str(u.params["case"])]
        bad = []
        for key in ("truncation", "locality"):
            radius, certified, err = out[key]
            if not certified or radius != want[key]:
                bad.append(f"{key} radius {radius} (certified {certified}, "
                           f"error {err:.3g}), recorded {want[key]}")
        if out["own"] > NODE_TOL or out["other"] > NODE_TOL:
            bad.append(f"duality own {out['own']:.3g}, other "
                       f"{out['other']:.3g} over {NODE_TOL}")
        if out["envelope"] > self.kappa:
            bad.append(f"envelope {out['envelope']:.4g} over K "
                       f"{self.kappa:.4g}")
        if out["sinc_error"] > SINC_TOL:
            bad.append(f"sinc error {out['sinc_error']:.3g}")
        return bad


# ---------------------------------------------------------------------------
# dynamics: tiling, weights and the toy/rotation codecs through cli.run

# Half of the weights runs read these parameters: care range 5 puts the
# integers within 1 of a tile boundary in the wild-point scan, which the
# CLI defaults (care range 2) never enter; the low cost ratio keeps the
# gap bound of validate_params satisfied.
WILD_PARAMS = Path(__file__).with_name("weights_wild.json")
TILING_WINDOW = (-300.0, 300.0)


class Dynamics(Workload):
    name = "dynamics"
    traced = ("tiling.random_marker_seq", "tiling.compute_tiles",
              "tiling.density_report", "tiling.Tiling.tile",
              "weights.bases", "weights.greedy_rounds", "weights.finalize",
              "weights.verify_conditions", "systems.rotation_embed",
              "systems.embedding_gap", "systems.sturmian_window",
              "systems.marker_cylinder", "systems.toy_verify", "cli.run")

    tag, dims = 3, 2

    def make(self, i, u):
        rng = np.random.default_rng((self.seed, self.tag, i))
        span = 900 + int(2100 * u[0])
        wild = u[1] >= 0.5
        seeds = [int(x) for x in rng.integers(2 ** 31, size=4)]
        lo, hi = TILING_WINDOW
        suites = (
            ["weights", "run", "--seed", str(seeds[0]), "--span", str(span)]
            + (["--params", str(WILD_PARAMS)] if wild else []),
            ["tiling", "demo", "--seed", str(seeds[1]),
             "--window", str(lo), str(hi)],
            ["codec", "toy", "--seed", str(seeds[2]), "--trials", "20"],
            ["codec", "rotation", "--seed", str(seeds[3]), "--trials", "20"])
        return Unit(f"span={span} wild={wild} seeds={seeds}",
                    {"suites": suites, "shift": int(rng.integers(-40, 41))})

    def run(self, u):
        reports = []
        for argv in u.params["suites"]:
            text, passed = cli.run(cli.parse_config(argv))
            reports.append((argv[0], passed, text))
        # shift equivariance of the demo tiling, looked up tile by tile
        doc = json.loads(reports[1][2])["report"]
        markers = tiling.MarkerSeq.from_json(doc["markers"])
        t = tiling.Tiling.from_json(doc["tiles"])
        k = u.params["shift"]
        lo, hi = t.window
        moved = tiling.compute_tiles(tiling.shift_markers(markers, k),
                                     (lo - k, hi - k))
        worst = 0.0
        for n, a in t.nonempty():
            b = moved.tile(n - k)
            worst = max(worst, abs(b.lo - (a.lo - k)), abs(b.hi - (a.hi - k)))
        return {"reports": tuple(reports), "shift_error": worst}

    def check(self, u, out):
        bad = [f"{name} report not passed"
               for name, passed, _ in out["reports"] if not passed]
        if out["shift_error"] > 1e-9:
            bad.append(f"tiling shift error {out['shift_error']:.3g}")
        return bad


# ---------------------------------------------------------------------------
# embed-check: exact simplicial embedding verdicts

EMBED_POOL = 238  # case c: a strip of 8 + c // 14 triangles into R^(5 + c % 2)
GRID_STEPS = 2 ** 20  # dyadic vertex grid, as simplicial.random_map uses
PERTURB_MAGNITUDE = 0.25


def strip_map(rng, n, D):
    """Strip of n triangles with vertex images uniform on the dyadic grid
    {0, 1/2^20, ..., 1}^D, drawn here so the inputs do not depend on the
    package's own generators."""
    strip = simplicial.triangulated_strip(n)
    rows = rng.integers(0, GRID_STEPS + 1, size=(len(strip.vertices), D))
    images = {v: tuple(float(x) / GRID_STEPS for x in row)
              for v, row in zip(strip.vertices, rows)}
    return simplicial.SimplicialMap(strip, images)


def embed_inputs(case):
    """The two random maps of pool case `case`: a full-rank strip map into
    R^5 or R^6 and a strip map into R^3."""
    rng = np.random.default_rng((4, case))
    full = strip_map(rng, 8 + case // 14, 5 + case % 2)
    low = strip_map(rng, int(rng.integers(8, 25)), 3)
    return full, low


def _verdict(m):
    ok, wit = simplicial.is_embedding(m)
    if wit is None:
        return ok, None, None
    return ok, json.dumps(wit.to_json()), simplicial.verify_witness(m, wit)


class EmbedCheck(Workload):
    name = "embed-check"
    traced = ("simplicial.is_embedding", "simplicial.verify_witness",
              "simplicial.perturb_to_embedding")

    tag = 4

    def setup(self):
        self.expected = load_expected()[self.name]

    def make(self, i, u):
        c = int(u[0] * EMBED_POOL)
        full, low = embed_inputs(c)
        return Unit(f"case={c} n={len(full.complex.maximal_simplices())} "
                    f"D={full.dim_target}",
                    {"case": c, "full": full, "low": low})

    def run(self, u):
        maps = {"full": u.params["full"], "low": u.params["low"]}
        maps.update({f"crossing{D}": simplicial.crossing_pair(D)
                     for D in (2, 3, 4)})
        out = {key: _verdict(m) for key, m in maps.items()}
        base = simplicial.crossing_pair(5)
        fixed = simplicial.perturb_to_embedding(base, PERTURB_MAGNITUDE,
                                                u.params["case"])
        drift = max(abs(a - b) for v in base.complex.vertices
                    for a, b in zip(base.images[v], fixed.images[v]))
        out["perturbed"] = (_verdict(fixed)[0], drift)
        return out

    def check(self, u, out):
        case = self.expected["cases"][str(u.params["case"])]
        expect = {"full": case["full"], "low": case["low"],
                  **{f"crossing{D}": self.expected["crossing"]
                     for D in (2, 3, 4)}}
        bad = []
        for key, verdict in expect.items():
            ok, _, verified = out[key]
            if ok != verdict:
                bad.append(f"{key}: embedding {ok}, recorded {verdict}")
            if not ok and not verified:
                bad.append(f"{key}: witness fails verify_witness")
        ok, drift = out["perturbed"]
        if not ok or drift > PERTURB_MAGNITUDE:
            bad.append(f"perturbed crossing pair: embedding {ok}, "
                       f"drift {drift:.3g}")
        return bad


WORKLOADS = {w.name: w for w in (MarkerCodec, KernelCertify, Dynamics,
                                 EmbedCheck)}
