import dataclasses
import hashlib
import json
from pathlib import Path

import pytest

import bandtile
from bandtile import cli, simplicial
from bandtile.cli import main, parse_config


# care range 5 at a low cost ratio: every tile pays, and the wild points
# near each boundary are served by full weights
WILD = "<wild params file>"
WILD_PARAMS = {"cost_ratio": 0.05, "care_range": 5, "tax_threshold": 4,
               "L": 106, "M": 110, "reach": 200}
# sampling at the Nyquist boundary: the counterexample tone is injected
NYQUIST = ["sampling", "--seed", "4", "--halfwidth", "1.0",
           "--denominator", "2", "--trials", "10"]


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


def test_provenance_version_is_the_package_version(tmp_path):
    # one version source, whatever bandtile distribution is installed
    tomllib = pytest.importorskip("tomllib")
    code, payload = run_to(tmp_path, "r.json", ["sampling", "--trials", "1"])
    assert code == 0
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with open(pyproject, "rb") as fp:
        declared = tomllib.load(fp)["project"]["version"]
    version = json.loads(payload)["provenance"]["version"]
    assert version == bandtile.__version__ == declared


def test_parse_config_repeats_through_the_shared_parser():
    """Nothing carries over from one parse to the next: not the --tol
    list, not a default, not an argv that argparse rejected."""
    with_tol = ["codec", "toy", "--seed", "3", "--tol", "delta=0.25",
                "--tol.eps", "0.5"]
    plain = ["codec", "toy", "--seed", "3"]
    want_tol, want_plain = parse_config(with_tol), parse_config(plain)
    assert want_tol.tolerances == {"delta": 0.25, "eps": 0.5}
    assert want_plain.tolerances == {}
    assert want_plain.extras["trials"] == 200
    # each rejected argv has appended a --tol before argparse stops
    for bad in (["codec", "toy", "--tol", "eps=0.1", "--trials", "x"],
                ["codec", "toy", "--tol", "eps=0.1", "--window", "1"]):
        with pytest.raises(SystemExit):
            parse_config(bad)
        assert parse_config(plain) == want_plain
        assert parse_config(with_tol) == want_tol
        assert parse_config(plain) == want_plain


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
    (["codec", "marker", "--seed", "1"],
     "62f6d8eee11848d7909fcda676a0eb3facf61a29901fc71641da91192f6698ae"),
    (["codec", "marker", "--seed", "1", "--format", "csv"],
     "400a4e7362f190610d5c3fb7cd624998206ffdc0715f0b80329e953bc66b1c98"),
    (["tiling", "demo", "--seed", "2", "--format", "csv"],
     "68387a3fad3943c49aeca17c38e4e3550854380fdfd46542525e825d79ce67d6"),
    (["interp", "eval", "--seed", "5"],
     "f06452abc53beef689bba11a5debf0757f72cb6907f101e3bcdc90a439a70bec"),
    (["sampling", "--seed", "4"],
     "82b65bb291dfb7ee729d7ba410de744ae1961e3b335bad6682958ab719be2419"),
    (NYQUIST,
     "2e5d9f6d3f52dd011e2c2f43760c4a2c799510fecebbb4ebce5eedcfe69131ee"),
    (["interp", "oracle-sinc", "--seed", "9"],
     "c8326b8e62c7ac16db20bfec19288d7d74cc397f54944af1b75217963d32c15b"),
    (["interp", "radii", "--seed", "3"],
     "fb27f56ae8a4b323c04ee266e6cd79ab1d72d33769c3ee80fc14c9fe4772d251"),
    (["simplicial", "check", "--seed", "7"],
     "1a964cef733c9926da7d2c8e88669d890f351d70231534d074d811cd175eb073"),
    (["simplicial", "perturb", "--seed", "7"],
     "52392935a4de9079df67d7157a2fc761c047b88b4896b2db926c469bbb370cde"),
])
def test_dynamics_report_bytes_pinned(tmp_path, args, digest):
    # frozen report bytes of the dynamics and marker-to-signal suites: a
    # change of signal, word, boundary-distance, weight, marker or sample
    # representation must not move a single byte. The weights CSV runs list
    # every transfer with its weight; the marker CSV run samples the encoded
    # signal; the Nyquist run fills the counterexample block, so its report
    # is a witness and exits 1.
    if WILD in args:
        params = tmp_path / "wild.json"
        params.write_text(json.dumps(WILD_PARAMS))
        args = [str(params) if a == WILD else a for a in args]
    code, payload = run_to(tmp_path, "r.out", args)
    assert code == (1 if args == NYQUIST else 0)
    assert hashlib.sha256(payload).hexdigest() == digest


EMBEDDED_PATH = {"vertices": [0, 1, 2],
                 "simplices": [[0], [1], [2], [0, 1], [1, 2]],
                 "images": [[0, 0, 0], [1, 0, 0], [1, 1, 0]]}


def test_perturb_without_room_reports_the_map_as_not_embedded(tmp_path):
    """Magnitude 0 leaves the crossing pair as it is: no perturbation
    embeds it, so the report says it did not embed before."""
    code, payload = run_to(tmp_path, "r.json", ["simplicial", "perturb",
                                                "--seed", "7",
                                                "--magnitude", "0"])
    assert code == 1
    assert json.loads(payload)["report"]["embedding_before"] is False
    assert hashlib.sha256(payload).hexdigest() == (
        "5092d983449f83e96b432d30d2a04b60b5be68a723cf2ccb614582884b63efb8")


def test_perturb_keeps_a_map_that_already_embeds(tmp_path, monkeypatch):
    """The map is decided once: perturb_to_embedding tries it first and
    returns it as it is, which is what embedding_before reports."""
    path = tmp_path / "map.json"
    path.write_text(json.dumps(EMBEDDED_PATH))
    calls = []
    real = simplicial.is_embedding

    def counted(m):
        calls.append(m)
        return real(m)

    monkeypatch.setattr(simplicial, "is_embedding", counted)
    monkeypatch.setattr(cli, "is_embedding", counted)
    code, payload = run_to(tmp_path, "r.json", ["simplicial", "perturb",
                                                "--seed", "7",
                                                "--map", str(path)])
    assert code == 0
    assert len(calls) == 1
    report = json.loads(payload)["report"]
    assert report["embedding_before"] is True
    assert report["max_drift"] == 0.0
    assert report["map"]["images"] == EMBEDDED_PATH["images"]
    assert hashlib.sha256(payload).hexdigest() == (
        "99fa0410c394177a4b752220d911b9ff07366cda4d176db5dae97d6e48265071")


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
    {"cost_ratio": True},
    {"cost_ratio": "1.0"},
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
    want = ("cost_ratio must be a finite number" if "cost_ratio" in fields
            else "must be an integer")
    assert want in err[0]


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
    # non-finite or negative numbers, each rejected where it is read
    ["sampling", "--halfwidth", "nan"],
    ["tiling", "demo", "--window", "-100", "inf"],
    ["weights", "run", "--span", "inf"],
    ["simplicial", "perturb", "--magnitude", "-1"],
    ["simplicial", "perturb", "--magnitude", "nan"],
    ["codec", "marker", "--tol", "leak=inf"],
    ["interp", "eval", "--tol", "node=inf"],
    ["codec", "toy", "--tol", "delta=inf"],
    ["codec", "marker", "--tol", "leak=nan"],
    # below reach + 3 M = 530 the receiver core is empty: nothing to check
    ["weights", "run", "--span", "500"],
    # no trial: nothing would be checked, the counterexample included
    ["sampling", "--trials", "0"],
    # a halfwidth so small that the nodes at 8/c overflow
    ["sampling", "--halfwidth", "1e-309"],
])
def test_invalid_parameters_exit_2(tmp_path, monkeypatch, capsys, args):
    monkeypatch.chdir(tmp_path)
    assert main(args) == 2
    assert capsys.readouterr().err.startswith("error:")
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("args", [
    ["codec", "rotation", "--L", "0"],
    ["codec", "marker", "--trials", "5"],
    ["codec", "toy", "--window", "-5", "5"],
    ["codec", "toy", "--alpha", "0.5"],
    ["codec", "toy", "--L", "3"],
    ["simplicial", "check", "--magnitude", "-5"],
    ["sampling", "--stress"],
])
def test_flag_the_suite_does_not_read_exits_2(tmp_path, monkeypatch, capsys,
                                              args):
    monkeypatch.chdir(tmp_path)
    assert main(args) == 2
    assert "unrecognized arguments" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


# map files that load only by dropping or coercing data: a surplus image,
# coordinates given as a string and a boolean, and vertex labels that are
# not an int, a str or a list (True == 1 == 1.0 would collide with ints)
MALFORMED_MAPS = {
    **{f"{kind} label": {"vertices": [label, 2],
                         "simplices": [[label], [2], [label, 2]],
                         "images": [[0, 0], [1, 0]]}
       for kind, label in (("bool", True), ("float", 1.5), ("null", None))},
    "surplus image": {"vertices": [0, 1, 2],
                      "simplices": [[0], [1], [2], [0, 1], [1, 2]],
                      "images": [[0, 0], [1, 0], [2, 0], [9, 9]]},
    "string and bool": {"vertices": [0, 1], "simplices": [[0], [1], [0, 1]],
                        "images": [["0.5", True], [1.0, 0.0]]},
}


@pytest.mark.parametrize("action", ["check", "perturb"])
@pytest.mark.parametrize("name", sorted(MALFORMED_MAPS))
def test_malformed_map_file_exits_2(tmp_path, monkeypatch, capsys, action,
                                    name):
    path = tmp_path / "map.json"
    path.write_text(json.dumps(MALFORMED_MAPS[name]))
    monkeypatch.chdir(tmp_path)
    assert main(["simplicial", action, "--map", str(path)]) == 2
    assert capsys.readouterr().err.startswith("error: cannot read map file")
    assert [p.name for p in tmp_path.iterdir()] == ["map.json"]


def test_marker_codec_backward_orbit_markers(tmp_path):
    # this rotation's forward orbit misses the largest plateau return gap
    code, payload = run_to(tmp_path, "m.json",
                           ["codec", "marker", "--alpha",
                            "0.7182818284590451", "--L", "3",
                            "--seed", "24"])
    assert code == 0
    assert json.loads(payload)["report"]["M"] == 33


def test_marker_codec_fails_on_a_short_window(tmp_path, monkeypatch):
    """A band check whose window is too short for its estimate fails the
    marker codec even when the leakage passes."""
    real = cli.band_check

    def short(*args, **kwargs):
        rep = real(*args, **kwargs)
        return dataclasses.replace(rep, passed=True, window_short=True)

    args = ["codec", "marker", "--seed", "1"]
    assert run_to(tmp_path, "ok.json", args)[0] == 0
    monkeypatch.setattr(cli, "band_check", short)
    code, payload = run_to(tmp_path, "short.json", args)
    assert code == 1
    doc = json.loads(payload)
    assert doc["passed"] is False
    assert doc["report"]["band_check_passed"] is True
