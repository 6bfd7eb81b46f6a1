"""Span recorder for the benchmark's traced run.

Wraps the public functions of the package modules from outside: every
namespace that binds a traced function (the defining module, any module
that imported it by name, the package root) gets the wrapper, and traced
methods are replaced on their class. Spans record name, start, end,
parent span and unit id; they stay in memory until the run ends.

Work counts are read from arguments and results at the same boundaries.
Cheap counts (sizes, lengths) are taken when the span closes; the pair
count of an embedding check is deferred to the end of the run so that
its cost never lands inside a parent span.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict

import numpy as np

# module -> public functions and methods whose calls are timed
TRACED = {
    "bandlimited": ("BandSignal.eval", "band_check",
                    "sampling_injectivity_stress"),
    "interpolation": ("bump_transform", "weierstrass_product",
                      "cardinal_kernel", "saturate", "check_conditions",
                      "random_admissible_multiset", "agreeing_pair",
                      "truncation_radius", "locality_radius",
                      "decay_constant"),
    "tiling": ("random_marker_seq", "compute_tiles", "density_report",
               "Tiling.tile"),
    "weights": ("bases", "greedy_rounds", "finalize", "verify_conditions"),
    "simplicial": ("is_embedding", "verify_witness", "perturb_to_embedding"),
    "systems": ("marker_function", "orbit_markers", "marker_encode",
                "rotation_embed", "embedding_gap", "sturmian_window",
                "marker_cylinder", "toy_verify"),
    "cli": ("run",),
}

SPAN_NAMES = tuple(f"{mod}.{fn}" for mod, fns in TRACED.items() for fn in fns)

COUNTERS = (
    "bandlimited.eval.point_nodes",
    "interpolation.bump_transform.points",
    "interpolation.saturate.entries",
    "tiling.tiles",
    "tiling.dominated_tiles",
    "weights.donors",
    "weights.receivers",
    "weights.transfers",
    "weights.wild_points",
    "simplicial.pairs",
    "simplicial.pairs_bbox",
    "simplicial.witnesses",
    "systems.toy_pairs",
    "systems.rotation_phases",
    "cli.report_bytes",
)


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _embedding_pairs(m, result):
    """(pairs examined, pairs past the bounding-box test) for one call of
    is_embedding, replaying its pair order up to the witness if any."""
    maxs = m.complex.maximal_simplices()
    boxes = []
    for s in maxs:
        pts = np.array([m.images[v] for v in s])
        boxes.append((pts.min(axis=0), pts.max(axis=0)))
    stop = None
    if result[1] is not None:
        stop = (maxs.index(result[1].simplex_a), maxs.index(result[1].simplex_b))
    pairs = bbox = 0
    for i in range(len(maxs)):
        for j in range(i, len(maxs)):
            pairs += 1
            lo_i, hi_i = boxes[i]
            lo_j, hi_j = boxes[j]
            if not (np.any(hi_i < lo_j) or np.any(hi_j < lo_i)):
                bbox += 1
            if (i, j) == stop:
                return pairs, bbox
    return pairs, bbox


def _count_eval(c, args, kwargs, result):
    c["bandlimited.eval.point_nodes"] += (
        np.size(_arg(args, kwargs, 1, "t")) * len(args[0].nodes))


def _count_bump(c, args, kwargs, result):
    c["interpolation.bump_transform.points"] += np.size(_arg(args, kwargs, 1, "t"))


def _count_saturate(c, args, kwargs, result):
    c["interpolation.saturate.entries"] += len(result.entries)


def _count_tiles(c, args, kwargs, result):
    c["tiling.tiles"] += len(result.tiles)
    c["tiling.dominated_tiles"] += sum(1 for _, t in result.tiles if t is None)


def _count_bases(c, args, kwargs, result):
    c["weights.donors"] += len(result[0])
    c["weights.receivers"] += len(result[1])


def _count_greedy(c, args, kwargs, result):
    c["weights.transfers"] += len(result)


def _count_verify(c, args, kwargs, result):
    c["weights.wild_points"] += result.wild_points


def _count_toy(c, args, kwargs, result):
    c["systems.toy_pairs"] += result.pairs_checked


def _count_gap(c, args, kwargs, result):
    c["systems.rotation_phases"] += len(_arg(args, kwargs, 2, "phases"))


def _count_report(c, args, kwargs, result):
    c["cli.report_bytes"] += len(result[0].encode("utf-8"))


INLINE_COUNTS = {
    "bandlimited.BandSignal.eval": _count_eval,
    "interpolation.bump_transform": _count_bump,
    "interpolation.saturate": _count_saturate,
    "tiling.compute_tiles": _count_tiles,
    "weights.bases": _count_bases,
    "weights.greedy_rounds": _count_greedy,
    "weights.verify_conditions": _count_verify,
    "systems.toy_verify": _count_toy,
    "systems.embedding_gap": _count_gap,
    "cli.run": _count_report,
}


class Tracer:
    """Collects spans and counts while installed; see install()."""

    def __init__(self):
        self.spans = []  # (name, start, end, parent index, unit id)
        self.counts = defaultdict(int)
        self.unit = None
        self._stack = []
        self._deferred = []  # (map, result) of is_embedding calls
        self._patches = None

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack
        count = INLINE_COUNTS.get(name)
        defer = name == "simplicial.is_embedding"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.unit)
            if count is not None:
                count(self.counts, args, kwargs, result)
            elif defer:
                self._deferred.append((_arg(args, kwargs, 0, "m"), result))
            return result

        return traced

    def _plan(self):
        """Every (owner, attribute, original, wrapper) to patch."""
        plan = []
        namespaces = [mod for key, mod in sorted(sys.modules.items())
                      if key == "bandtile" or key.startswith("bandtile.")]
        for modname, names in TRACED.items():
            module = sys.modules[f"bandtile.{modname}"]
            for qual in names:
                span = f"{modname}.{qual}"
                if "." in qual:
                    cls_name, meth = qual.split(".")
                    cls = getattr(module, cls_name)
                    orig = cls.__dict__[meth]
                    plan.append((cls, meth, orig, self._wrap(span, orig)))
                    continue
                orig = getattr(module, qual)
                wrapper = self._wrap(span, orig)
                bound = [ns for ns in namespaces
                         if getattr(ns, qual, None) is orig]
                plan.extend((ns, qual, orig, wrapper) for ns in bound)
        return plan

    def install(self):
        if self._patches is None:
            self._patches = self._plan()
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def uninstall(self):
        for owner, attr, orig, _ in self._patches or ():
            setattr(owner, attr, orig)

    def finish_counts(self):
        """Resolve the deferred counts; call once, after the last span."""
        for m, result in self._deferred:
            pairs, bbox = _embedding_pairs(m, result)
            self.counts["simplicial.pairs"] += pairs
            self.counts["simplicial.pairs_bbox"] += bbox
            self.counts["simplicial.witnesses"] += result[1] is not None
        self._deferred.clear()

    def summary(self, skip_unit=None):
        """Per span name: call count and self time in seconds, over the
        spans whose unit id is not skip_unit. Self time is the span's
        duration minus the durations of its direct children; spans nest on
        one thread, so children never overlap."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        calls = dict.fromkeys(SPAN_NAMES, 0)
        self_s = dict.fromkeys(SPAN_NAMES, 0.0)
        for i, (name, start, end, _, unit) in enumerate(self.spans):
            if skip_unit is not None and unit == skip_unit:
                continue
            calls[name] += 1
            self_s[name] += (end - start) - child[i]
        return calls, self_s

    def write(self, path):
        """Spans as JSON lines: name, start, end, parent, unit."""
        with open(path, "w", encoding="utf-8") as fp:
            for name, start, end, parent, unit in self.spans:
                fp.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "unit": unit}))
                fp.write("\n")
