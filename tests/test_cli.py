import hashlib
import json

import pytest

from bandtile.cli import main


# care range 5 at a low cost ratio: every tile pays, and the wild points
# near each boundary are served by full weights
WILD = "<wild params file>"
WILD_PARAMS = {"cost_ratio": 0.05, "care_range": 5, "tax_threshold": 4,
               "L": 106, "M": 110, "reach": 200}


def run_to(tmp_path, name, args):
    out = tmp_path / name
    code = main(args + ["--out", str(out)])
    return code, out.read_bytes()


def test_sampling_suite_passes_and_repeats(tmp_path):
    code, first = run_to(tmp_path, "a.json", ["sampling", "--seed", "4"])
    assert code == 0
    code2, second = run_to(tmp_path, "b.json", ["sampling", "--seed", "4"])
    assert code2 == 0
    assert first == second


def test_report_shape_and_provenance(tmp_path):
    code, payload = run_to(tmp_path, "r.json",
                           ["interp", "oracle-sinc", "--seed", "9"])
    assert code == 0
    doc = json.loads(payload)
    assert doc["passed"] is True
    prov = doc["provenance"]
    assert prov["seed"] == 9
    assert prov["suite"] == "interp oracle-sinc"
    assert doc["report"]["max_error"] < 1e-6


@pytest.mark.parametrize("args", [
    ["interp", "eval", "--seed", "5"],
    ["tiling", "demo", "--seed", "2"],
    ["weights", "run", "--seed", "3"],
    ["simplicial", "check", "--seed", "7"],
    ["simplicial", "perturb", "--seed", "7"],
    ["codec", "rotation", "--seed", "2"],
    ["codec", "toy", "--seed", "6", "--trials", "40"],
])
def test_suites_green_and_deterministic(tmp_path, args):
    code, first = run_to(tmp_path, "a.out", args)
    assert code == 0, args
    _, second = run_to(tmp_path, "b.out", args)
    assert first == second


@pytest.mark.parametrize("args, digest", [
    (["codec", "rotation", "--seed", "2"],
     "e0329343c615ad44b56b37c1dcdba7adeb7a30671888fc5fb124484eedcae8ca"),
    (["codec", "rotation", "--seed", "2", "--format", "csv"],
     "184c3d12570c0da01fe1ab32aea9eb847c2b9b5bf99b6df71fc22253b5532fc5"),
    (["codec", "toy", "--seed", "6"],
     "51ab24c7b11ba5fc74e9d877bd24f9d0fc1e73266d0a882263416f7933837423"),
    (["codec", "toy", "--seed", "6", "--format", "csv"],
     "4486c56d5a8ddfbac4aa766ab0e1f2d37921efb57bce030eebdd56258dd17c30"),
    (["weights", "run", "--seed", "3"],
     "c6d6441d941f5624eb18e14ed43af2c2ce36858099ab720f88d4b712c5e5a57d"),
    (["tiling", "demo", "--seed", "2"],
     "f8c823057d1c9e14c5ceacc38cf87261b0907101a32a76ae57daa0b1509961bd"),
    (["weights", "run", "--seed", "3", "--format", "csv"],
     "339e13281f46961a6a6c4591f20773d0c6ead77d97aebc7c9776f82a613effb1"),
    (["weights", "run", "--seed", "3", "--format", "csv", "--params", WILD],
     "59dc3326e6f94dd7d158e3722b3298b86b546cd7bc524b96daa0e7674c1344a7"),
])
def test_dynamics_report_bytes_pinned(tmp_path, args, digest):
    # frozen report bytes of the dynamics suites: a change of signal, word,
    # boundary-distance or weight representation must not move a single
    # byte. The CSV runs list every transfer with its weight.
    if WILD in args:
        params = tmp_path / "wild.json"
        params.write_text(json.dumps(WILD_PARAMS))
        args = [str(params) if a == WILD else a for a in args]
    code, payload = run_to(tmp_path, "r.out", args)
    assert code == 0
    assert hashlib.sha256(payload).hexdigest() == digest


def test_csv_format(tmp_path):
    code, payload = run_to(tmp_path, "t.csv",
                           ["tiling", "demo", "--seed", "5",
                            "--format", "csv"])
    assert code == 0
    head = payload.decode().splitlines()[0]
    assert head.startswith("marker,") and "height" in head


def test_malformed_params_file_exits_2(tmp_path, capsys):
    bad = tmp_path / "params.json"
    bad.write_text("not json")
    code = main(["weights", "run", "--params", str(bad)])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_missing_params_key_exits_2(tmp_path, capsys):
    bad = tmp_path / "params.json"
    bad.write_text('{"cost_ratio": 1.0}')
    code = main(["weights", "run", "--params", str(bad)])
    assert code == 2


@pytest.mark.parametrize("fields", [
    {"care_range": 2.9, "reach": 200.5},
    {"reach": True},
])
def test_non_integer_params_field_exits_2(tmp_path, capsys, fields):
    bad = tmp_path / "params.json"
    bad.write_text(json.dumps({"cost_ratio": 1.0, "care_range": 2,
                               "tax_threshold": 4, "L": 106, "M": 110,
                               "reach": 200, **fields}))
    code = main(["weights", "run", "--params", str(bad)])
    assert code == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:")
    assert "must be an integer" in err[0]


def test_unknown_subcommand_exits_2():
    assert main(["no-such-suite"]) == 2


def test_failing_suite_writes_witness(tmp_path, monkeypatch):
    # an impossible tolerance forces a failure report
    monkeypatch.chdir(tmp_path)
    code = main(["interp", "oracle-sinc", "--seed", "9",
                 "--tol", "oracle=1e-30"])
    assert code == 1
    witness = tmp_path / "bandtile-interp-witness.json"
    assert witness.exists()
    doc = json.loads(witness.read_text())
    assert doc["passed"] is False


def test_tolerance_override_recorded(tmp_path):
    code, payload = run_to(tmp_path, "r.json",
                           ["interp", "oracle-sinc", "--seed", "9",
                            "--tol", "oracle=1e-3"])
    assert code == 0
    doc = json.loads(payload)
    assert doc["provenance"]["tolerances"] == {"oracle": 1e-3}


@pytest.mark.parametrize("args", [
    ["codec", "marker", "--alpha", "0.5"],
    ["codec", "marker", "--L", "0"],
    ["codec", "rotation", "--window", "5", "1"],
    ["tiling", "demo", "--L", "0"],
    ["tiling", "demo", "--window", "1", "1"],
    ["codec", "toy", "--trials", "0"],
    ["sampling", "--denominator", "0"],
    ["weights", "run", "--span", "-5"],
    # a tolerance name the suite never reads
    ["codec", "marker", "--tol.leek", "1e-30"],
    ["sampling", "--tol", "oracle=1e-3"],
    # no phase pair to compare: there is no gap to report
    ["codec", "rotation", "--trials", "0"],
])
def test_invalid_parameters_exit_2(tmp_path, monkeypatch, capsys, args):
    monkeypatch.chdir(tmp_path)
    assert main(args) == 2
    assert capsys.readouterr().err.startswith("error:")
    assert not list(tmp_path.iterdir())


def test_marker_codec_backward_orbit_markers(tmp_path):
    # this rotation's forward orbit misses the largest plateau return gap
    code, payload = run_to(tmp_path, "m.json",
                           ["codec", "marker", "--alpha",
                            "0.7182818284590451", "--L", "3",
                            "--seed", "24"])
    assert code == 0
    assert json.loads(payload)["report"]["M"] == 33
