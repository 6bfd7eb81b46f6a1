"""Command-line front end: every demo and property suite behind one
deterministic entry point.

Reports are JSON (sorted keys, no timestamps) or CSV, and each carries a
provenance block with the package version, suite name, seed, and the
tolerances in force, so a fixed configuration reproduces its artifact
byte for byte. Exit codes: 0 all checks passed, 1 a check failed (the
report doubles as the witness file), 2 the configuration was invalid.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import sys
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from . import __version__
from .bandlimited import Band, band_check, sampling_injectivity_stress
from .interpolation import (GridParams, NodeMultiset, cardinal_kernel,
                            decay_constant, locality_radius,
                            random_admissible_multiset, saturate,
                            truncation_radius, weierstrass_product)
from .simplicial import (SimplicialMap, crossing_pair, is_embedding,
                         perturb_to_embedding, random_map,
                         triangulated_strip, verify_witness)
from .systems import (Rotation, embedding_gap, marker_cylinder,
                      marker_encode, marker_function, orbit_markers,
                      rotation_embed, sturmian_window, toy_verify)
from .tiling import compute_tiles, density_report, random_marker_seq
from .weights import (SurplusError, WeightParams, validate_params,
                      verify_conditions)

SQRT2M1 = math.sqrt(2.0) - 1.0


class ConfigError(Exception):
    pass


# the tolerances each suite reads, with their defaults; --tol sets no other
TOLERANCES = {
    "interp oracle-sinc": {"oracle": 1e-6},
    "interp eval": {"node": 1e-4},
    "codec marker": {"leak": 1e-3, "shift": 1e-9},
    "codec toy": {"delta": 0.5, "eps": 0.75},
}


@dataclass
class RunConfig:
    subcommand: str
    action: str = ""
    seed: int = 0
    tolerances: dict = field(default_factory=dict)
    output_path: str = ""
    format: str = "json"
    extras: dict = field(default_factory=dict)

    def __post_init__(self):
        known = TOLERANCES.get(self.suite, {})
        unknown = sorted(set(self.tolerances) - set(known))
        if unknown:
            raise ConfigError(f"suite {self.suite!r} has no tolerance "
                              f"{', '.join(unknown)}; it reads: "
                              f"{', '.join(known) or 'none'}")

    @property
    def suite(self) -> str:
        return self.subcommand + (f" {self.action}" if self.action else "")

    def tol(self, name: str) -> float:
        return float(self.tolerances.get(name, TOLERANCES[self.suite][name]))

    def provenance(self) -> dict:
        return {"package": "bandtile", "version": __version__,
                "suite": self.suite, "seed": self.seed, "format": self.format,
                "tolerances": dict(sorted(self.tolerances.items()))}


def _parse_tols(pairs) -> dict:
    tols = {}
    for item in pairs or []:
        name, sep, val = item.partition("=")
        if not sep or not name:
            raise ConfigError(f"--tol expects name=value, got {item!r}")
        try:
            tols[name] = float(val)
        except ValueError:
            raise ConfigError(f"tolerance {name!r} is not a number: {val!r}")
        if not (math.isfinite(tols[name]) and tols[name] > 0.0):
            raise ConfigError(
                f"tolerance {name!r} must be finite and positive: {val!r}")
    return tols


def _expand_dotted_tols(argv) -> list:
    """Accept --tol.name=value and --tol.name value as spellings of
    --tol name=value."""
    out = []
    it = iter(argv)
    for arg in it:
        if arg.startswith("--tol."):
            body = arg[len("--tol."):]
            if "=" not in body:
                try:
                    body += "=" + next(it)
                except StopIteration:
                    raise ConfigError(f"{arg} is missing a value")
            out.extend(["--tol", body])
        else:
            out.append(arg)
    return out


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=0)
    common.add_argument("--out", default="")
    common.add_argument("--format", choices=("json", "csv"), default="json")
    common.add_argument("--tol", action="append", metavar="NAME=VALUE")

    p = argparse.ArgumentParser(prog="bandtile")
    sub = p.add_subparsers(dest="subcommand", required=True)

    def actions(subcommand, *names):
        # one parser per action, holding the common flags and, added by
        # the caller, exactly the flags that action's suite reads
        acts = sub.add_parser(subcommand).add_subparsers(dest="action",
                                                         required=True)
        return [acts.add_parser(name, parents=[common]) for name in names]

    actions("interp", "eval", "oracle-sinc", "radii")

    (tiling,) = actions("tiling", "demo")
    tiling.add_argument("--L", type=int, default=8)
    tiling.add_argument("--M", type=int, default=30)
    tiling.add_argument("--window", type=float, nargs=2,
                        default=(-100.0, 100.0))

    (weights,) = actions("weights", "run")
    weights.add_argument("--params", default="")
    weights.add_argument("--span", type=float, default=2000.0)

    check, perturb = actions("simplicial", "check", "perturb")
    for act in (check, perturb):
        act.add_argument("--map", default="", dest="map_path")
    perturb.add_argument("--magnitude", type=float, default=0.25)

    rotation, marker, toy = actions("codec", "rotation", "marker", "toy")
    for act in (rotation, marker):
        act.add_argument("--window", type=int, nargs=2, default=(-50, 50))
        act.add_argument("--alpha", type=float, default=SQRT2M1)
    marker.add_argument("--L", type=int, default=4)
    for act in (rotation, toy):
        act.add_argument("--trials", type=int, default=200)

    samp = sub.add_parser("sampling", parents=[common])
    samp.add_argument("--halfwidth", type=float, default=0.4)
    samp.add_argument("--denominator", type=int, default=1)
    samp.add_argument("--trials", type=int, default=100)
    return p


# built once: parse_args leaves the parser unchanged and gives each call a
# fresh namespace, with a new --tol list
_PARSER = _build_parser()


def parse_config(argv) -> RunConfig:
    ns = _PARSER.parse_args(_expand_dotted_tols(argv))
    extras = {k: v for k, v in vars(ns).items()
              if k not in ("subcommand", "action", "seed", "out",
                           "format", "tol")}
    return RunConfig(subcommand=ns.subcommand,
                     action=getattr(ns, "action", ""),
                     seed=ns.seed, tolerances=_parse_tols(ns.tol),
                     output_path=ns.out, format=ns.format, extras=extras)


DEFAULT_GRID = GridParams(l=1, rho=Fraction(1), tau=0.5)


def _suite_interp(cfg: RunConfig):
    rng = np.random.default_rng(cfg.seed)
    if cfg.action == "oracle-sinc":
        tol = cfg.tol("oracle")
        lattice = saturate(NodeMultiset((), DEFAULT_GRID, (-256, 256)))
        zs = rng.uniform(-10.0, 10.0, size=1000).astype(complex)
        vals = weierstrass_product(lattice, zs, block_radius=128,
                                   lattice_tail=True)
        want = np.sinc(zs.real)
        err = float(np.max(np.abs(vals - want)))
        return {"max_error": err, "points": 1000,
                "tolerance": tol}, err <= tol, None
    if cfg.action == "eval":
        tol = cfg.tol("node")
        mset = saturate(random_admissible_multiset(DEFAULT_GRID, (-16, 16),
                                                   rng))
        # the kernel is centered at the origin, which the admissibility
        # gap keeps clear of every other node
        inner = [0.0] + [float(q) for q in mset.positions() if abs(q) <= 8.0]
        vals = cardinal_kernel(mset, np.array(inner, dtype=complex), 12)
        own = float(abs(vals[0]))
        others = [float(abs(v)) for q, v in zip(inner[1:], vals[1:])
                  if abs(q) > 1e-9]
        worst = max(others) if others else 0.0
        ok = abs(own - 1.0) <= tol and worst <= tol
        return {"multiset": mset.to_json(), "own_node": own,
                "max_other_node": worst, "tolerance": tol}, ok, None
    # radii: certificates and the decay envelope constant; the truncation
    # cut error scales like r/B so certifying 1e-2 needs a window of a few
    # hundred blocks
    trunc = truncation_radius(4.0, 1e-2, DEFAULT_GRID, seed=cfg.seed,
                              window_blocks=4096)
    # the agreement radius doubles until certified, so the window must
    # leave room past the marginal B=16 step
    local = locality_radius(4.0, 1e-2, DEFAULT_GRID, seed=cfg.seed,
                            window_blocks=80)
    kappa = decay_constant(DEFAULT_GRID, seed=cfg.seed)
    report = {"truncation": {"radius": trunc.radius,
                             "certified": trunc.certified,
                             "sup_error": trunc.sup_error},
              "locality": {"radius": local.radius,
                           "certified": local.certified,
                           "sup_error": local.sup_error},
              "decay_constant": kappa}
    return report, trunc.certified and local.certified, None


def _suite_tiling(cfg: RunConfig):
    lo, hi = cfg.extras["window"]
    L, M = cfg.extras["L"], cfg.extras["M"]
    rng = np.random.default_rng(cfg.seed)
    markers = random_marker_seq(L, M, lo, hi, rng)
    t = compute_tiles(markers, (lo, hi))
    dens = density_report(t, r=1.0, R=hi - lo, a=lo)
    contained = True
    rows = []
    heights = dict(markers.entries.tolist())
    for n, tile in t.tiles:
        if tile is None:
            continue
        height = heights[n]
        if not (n - M / 2.0 < tile.lo and tile.hi < n + M / 2.0):
            contained = False
        rows.append([n, height, tile.lo, tile.hi,
                     int(tile.clipped_lo), int(tile.clipped_hi)])
    density = {"count": dens.count_density,
               "measure": dens.measure_density,
               "count_bound": dens.count_bound_finite,
               "measure_bound": dens.measure_bound_finite}
    within = (dens.count_density <= dens.count_bound_finite + 1e-9
              and dens.measure_density <= dens.measure_bound_finite + 1e-9)
    report = {"markers": markers.to_json(), "tiles": t.to_json(),
              "density": density, "tiles_contained": contained,
              "density_within_bounds": within}
    csv_rows = [["marker", "height", "lo", "hi", "clipped_lo",
                 "clipped_hi"]] + rows
    csv_rows.append([])
    csv_rows.append(["metric", "value"])
    for key in ("count", "measure", "count_bound", "measure_bound"):
        csv_rows.append([key, density[key]])
    return report, contained and within, csv_rows


def _suite_weights(cfg: RunConfig):
    path = cfg.extras["params"]
    if path:
        try:
            with open(path, "r", encoding="utf-8") as fp:
                p = WeightParams.from_json(json.load(fp))
        except (OSError, ValueError, KeyError, TypeError) as exc:
            raise ConfigError(f"cannot read params file {path!r}: {exc}")
    else:
        p = WeightParams(cost_ratio=1.0, care_range=2, tax_threshold=4,
                         L=106, M=110, reach=200)
    if not validate_params(p):
        raise ConfigError(f"parameter set fails the gap bound: {p.to_json()}")
    span = float(cfg.extras["span"])
    rng = np.random.default_rng(cfg.seed)
    markers = random_marker_seq(p.L, p.M, 0.0, span, rng)
    t = compute_tiles(markers, (0.0, span))
    try:
        rep = verify_conditions(t, p)
    except SurplusError as exc:
        return {"params": p.to_json(),
                "error": f"surplus shortfall: {exc}"}, False, None
    report = {"params": p.to_json(), **rep.to_json()}
    csv_rows = [["n", "m", "transfer", "weight"]] + rep.matrix.entries.tolist()
    return report, rep.passed, csv_rows


def _load_map(path: str) -> SimplicialMap:
    try:
        with open(path, "r", encoding="utf-8") as fp:
            return SimplicialMap.from_json(json.load(fp))
    except (OSError, ValueError, KeyError, TypeError) as exc:
        raise ConfigError(f"cannot read map file {path!r}: {exc}")


def _suite_simplicial(cfg: RunConfig):
    path = cfg.extras["map_path"]
    if cfg.action == "check":
        if path:
            m = _load_map(path)
            source = path
        else:
            rng = np.random.default_rng(cfg.seed)
            m = random_map(triangulated_strip(20), 5, rng)
            source = "random strip map"
        ok, wit = is_embedding(m)
        report = {"source": source, "embedding": ok,
                  "witness": None if wit is None else wit.to_json(),
                  "witness_verified": None if wit is None
                  else verify_witness(m, wit)}
        return report, ok, None
    # perturb
    m = _load_map(path) if path else crossing_pair(5)
    magnitude = float(cfg.extras["magnitude"])
    try:
        fixed = perturb_to_embedding(m, magnitude, cfg.seed)
    except RuntimeError as exc:  # m itself is tried first, so it fails
        return {"embedding_before": False, "error": str(exc)}, False, None
    drift = max(abs(a - b) for vtx in m.complex.vertices
                for a, b in zip(m.images[vtx], fixed.images[vtx]))
    # perturb_to_embedding returns m itself exactly when m embeds
    report = {"embedding_before": fixed is m, "embedding_after": True,
              "max_drift": drift, "magnitude": magnitude,
              "map": fixed.to_json()}
    return report, True, None


def _suite_codec(cfg: RunConfig):
    rng = np.random.default_rng(cfg.seed)
    if cfg.action == "toy":
        trials = int(cfg.extras["trials"])
        word_win = range(-15, 16)
        pairs, mks = [], []
        for _ in range(trials):
            slope = 0.2 + 0.6 * float(rng.random())
            u = sturmian_window(slope, float(rng.random()), word_win)
            v = sturmian_window(slope, float(rng.random()), word_win)
            _, sites = marker_cylinder(u, 3)
            pairs.append((u, v))
            mks.append(sites)
        rep = toy_verify(pairs, mks, delta=cfg.tol("delta"),
                         eps=cfg.tol("eps"))
        report = rep.to_json()
        csv_rows = [["kind", "pair", "value", "detail"]]
        for i, d, sup in rep.violations:
            csv_rows.append(["violation", i, d, sup])
        for i, d, dc in rep.chain_failures:
            csv_rows.append(["chain", i, d, dc])
        for i, dc in rep.eps_failures:
            csv_rows.append(["eps", i, dc, ""])
        return report, rep.passed, csv_rows
    lo, hi = cfg.extras["window"]
    window = range(lo, hi + 1)
    alpha = float(cfg.extras["alpha"])
    if cfg.action == "rotation":
        trials = int(cfg.extras["trials"])
        phases = rng.random(2 * trials)
        gap, pair = embedding_gap(alpha, window, phases,
                                  pairs=[(2 * i, 2 * i + 1)
                                         for i in range(trials)])
        sig = rotation_embed(Rotation(alpha, float(rng.random())), window)
        report = {"alpha": alpha, "pairs": trials, "min_gap": gap,
                  "closest_pair": [float(pair[0]), float(pair[1])],
                  "signal": sig.to_json()}
        csv_rows = [["n", "value"]] + [[n, sig[n]] for n in window]
        return report, gap > 0.0, csv_rows
    # marker
    leak_tol = cfg.tol("leak")
    shift_tol = cfg.tol("shift")
    r = Rotation(alpha, float(rng.random()))
    scheme = marker_function(r, int(cfg.extras["L"]))
    markers = orbit_markers(r, scheme.h, window,
                            L=int(cfg.extras["L"]), M=scheme.M)
    band = Band(2.0, 3.0)
    enc_win = range(max(lo, -40), min(hi, 40) + 1)
    sig = marker_encode(r, scheme.h, band, enc_win)
    bc = band_check(sig, band, probe_freqs=[band.lo - 0.7,
                                            band.hi + 0.7],
                    tol=leak_tol)
    s_next = marker_encode(r.shifted(1), scheme.h, band, enc_win)
    # advance the base window by one step so the coefficient sets of
    # g(Tx) over W and g(x) over W+1 correspond term by term
    s_base = marker_encode(r, scheme.h, band,
                           range(enc_win.start + 1, enc_win.stop + 1))
    ts = np.linspace(-8.0, 8.0, 201)
    shift_err = float(np.max(np.abs(s_next.eval(ts)
                                    - s_base.eval(ts + 1.0))))
    ok = bc.passed and not bc.window_short and shift_err < shift_tol
    report = {"alpha": alpha, "support": list(scheme.support),
              "plateau": list(scheme.plateau), "M": scheme.M,
              "min_gap": scheme.min_gap,
              "markers": markers.to_json(),
              "band": [band.lo, band.hi],
              "band_check_passed": bc.passed,
              "shift_error": shift_err,
              "tolerances": {"leak": leak_tol, "shift": shift_tol}}
    # one call, so the series' spectral sums are formed once
    ts = np.linspace(float(enc_win.start), float(enc_win.stop - 1), 257)
    csv_rows = [["t", "re", "im"]] + [
        [t, v.real, v.imag]
        for t, v in zip(ts.tolist(), sig.eval(ts).tolist())]
    return report, ok, csv_rows


def _suite_sampling(cfg: RunConfig):
    stress = sampling_injectivity_stress(
        halfwidth=float(cfg.extras["halfwidth"]),
        denominator=int(cfg.extras["denominator"]),
        trials=int(cfg.extras["trials"]), seed=cfg.seed)
    report = {"halfwidth": stress.halfwidth, "step": stress.step,
              "trials": stress.trials,
              "violations": list(stress.violations),
              "min_ratio": stress.min_ratio,
              "counterexample": stress.counterexample}
    return report, stress.passed, None


_SUITES = {
    "interp": _suite_interp,
    "tiling": _suite_tiling,
    "weights": _suite_weights,
    "simplicial": _suite_simplicial,
    "codec": _suite_codec,
    "sampling": _suite_sampling,
}


def _render_csv(rows) -> str:
    buf = io.StringIO()
    for row in rows:
        buf.write(",".join(str(c) for c in row))
        buf.write("\n")
    return buf.getvalue()


def run(cfg: RunConfig):
    """Dispatch one suite. Returns (artifact text, passed)."""
    report, passed, csv_rows = _SUITES[cfg.subcommand](cfg)
    if cfg.format == "csv":
        if csv_rows is None:
            raise ConfigError(
                f"suite {cfg.subcommand!r} has no CSV form; use json")
        return _render_csv(csv_rows), passed
    document = {"provenance": cfg.provenance(), "report": report,
                "passed": passed}
    # a NaN or an infinity never reaches a report: dumping raises instead
    return json.dumps(document, sort_keys=True, indent=2,
                      allow_nan=False) + "\n", passed


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        cfg = parse_config(argv)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        text, passed = run(cfg)
    # the library rejects out-of-range parameters with ValueError; failed
    # checks are reported through `passed`, never raised
    except (ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    out = cfg.output_path
    if not out and not passed:
        out = f"bandtile-{cfg.subcommand}-witness.{cfg.format}"
    if out:
        with open(out, "w", encoding="utf-8", newline="") as fp:
            fp.write(text)
        print(("report" if passed else "witness") + f" written to {out}")
    else:
        sys.stdout.write(text)
    return 0 if passed else 1


if __name__ == "__main__":
    sys.exit(main())
