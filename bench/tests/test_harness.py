"""Self-test of the benchmark harness.

    python3 -m pytest bench/tests

A minimal pass of every workload, untraced and traced, must print every
metric BENCHMARK.json names, with its unit; the speed correction must
rescale unit times by the reference runs around them; a wrong recorded
verdict must show up as a failed unit; the trace wrappers must reach
every namespace that binds a traced function; and the benchmark must
refuse to run without the package sources.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402

run.import_package()

import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
NAMES = [w["name"] for w in SPEC["workloads"]]


def _result(capsys, argv):
    code = run.main(argv)
    lines = capsys.readouterr().out.strip().splitlines()
    return code, json.loads(lines[-1])


def _units(metrics):
    return {name: m["unit"] for name, m in metrics.items()}


def test_spec_lists_every_workload():
    assert sorted(NAMES) == sorted(workloads.WORKLOADS)


@pytest.mark.parametrize("name", NAMES)
def test_minimal_pass_emits_end_to_end_metrics(capsys, name):
    code, res = _result(capsys, ["--workload", name, "--seed", "5",
                                 "--seconds", "0", "--trace", "0"])
    assert code == 0
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] is True
    assert res["attempted"] >= 1 and res["failed"] == 0
    assert _units(res["metrics"]) == {m["name"]: m["unit"]
                                      for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in res["metrics"].values())


@pytest.mark.parametrize("name", NAMES)
def test_traced_pass_agrees_and_emits_per_layer_metrics(capsys, name):
    # correct covers both checks of the traced run: each unit's traced
    # output equals its untraced output, and every function listed for
    # the workload recorded calls
    code, res = _result(capsys, ["--workload", name, "--seed", "5",
                                 "--seconds", "0", "--trace", "1"])
    assert code == 0
    assert res["correct"] is True
    assert _units(res["metrics"]) == {m["name"]: m["unit"]
                                      for m in SPEC["per_layer"]}
    for span in workloads.WORKLOADS[name].traced:
        assert res["metrics"][f"{span}.calls"]["value"] > 0


def _flip_embed(wl, case):
    wl.expected["cases"][case]["full"] = not wl.expected["cases"][case]["full"]


def _flip_kernel(wl, case):
    wl.expected[case]["truncation"] *= 2


@pytest.mark.parametrize("name, flip", [("embed-check", _flip_embed),
                                        ("kernel-certify", _flip_kernel)])
def test_wrong_recorded_verdict_fails_the_unit(name, flip):
    wl = workloads.WORKLOADS[name](seed=5)
    wl.setup()
    flip(wl, str(wl.unit(0).params["case"]))
    times, _, _, failures = run.timed_pass(wl, 0.0)
    assert len(failures) / len(times) > 0
    assert "recorded" in failures[0][1][0]


def test_speed_correction_scales_by_the_reference():
    nominal = run.REF_NOMINAL_S
    # at nominal speed the times stand; a reference twice as slow on both
    # sides of a unit halves it; each unit uses its own two neighbours
    assert run.corrected([0.3, 0.5], [nominal] * 3) == [0.3, 0.5]
    assert run.corrected([0.4], [2 * nominal, 2 * nominal]) == [0.2]
    assert run.corrected([0.3, 0.3], [nominal, nominal, 3 * nominal]) == \
        [0.3, 0.15]


def test_wrappers_reach_every_binding_namespace():
    import bandtile
    from bandtile import bandlimited, cli, interpolation, simplicial, tiling
    originals = (interpolation.bump_transform, bandlimited.bump_transform,
                 cli.is_embedding, bandtile.is_embedding,
                 tiling.Tiling.tile, bandlimited.BandSignal.eval)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        patched = (interpolation.bump_transform, bandlimited.bump_transform,
                   cli.is_embedding, bandtile.is_embedding,
                   tiling.Tiling.tile, bandlimited.BandSignal.eval)
        assert all(f.__wrapped__ is g for f, g in zip(patched, originals))
        assert simplicial.is_embedding is cli.is_embedding
    finally:
        tracer.uninstall()
    assert (interpolation.bump_transform, bandlimited.bump_transform,
            cli.is_embedding, bandtile.is_embedding, tiling.Tiling.tile,
            bandlimited.BandSignal.eval) == originals


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "dynamics", "--seed",
         "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
