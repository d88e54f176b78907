"""CLI surface: exit codes, envelope schema, determinism, config handling."""

import hashlib
import importlib.util
import json
from pathlib import Path

import pytest
from jsonschema import validate

from cmtk import class_number_zeta, analyze_quadratic, fq_from_q, parse_poly, reaudit
from cmtk.cli import main
from cmtk.jsonio import load_schema


def _run(argv, capsys):
    code = main(argv)
    out, err = capsys.readouterr()
    return code, out, err


def _result(argv, capsys):
    code, out, err = _run(argv, capsys)
    assert code == 0, err
    obj = json.loads(out)
    validate(obj, load_schema())
    return obj["result"]


def test_exit_code_success(capsys):
    code, out, _ = _run(["cm-enumerate", "--q", "3", "--bound", "1"], capsys)
    assert code == 0
    obj = json.loads(out)
    assert obj["result"]["rows"] == []
    assert obj["result"]["total"] == "0"


def test_exit_code_usage(capsys):
    assert _run(["no-such-command"], capsys)[0] == 1
    assert _run(["classgroup", "--m", "T", "--bogus-flag", "1"], capsys)[0] == 1
    assert _run([], capsys)[0] == 1
    assert _run(["classgroup"], capsys)[0] == 1  # --m is required


def test_exit_code_domain(capsys):
    code, _, err = _run(["classgroup", "--q", "4", "--m", "T"], capsys)
    assert code == 2 and "odd" in err
    code, _, err = _run(["classgroup", "--q", "3", "--m", "T^2"], capsys)
    assert code == 2  # square radicand is rejected
    code, _, err = _run(
        ["certify", "--q", "3", "--bound", "2", "--point", "99"], capsys
    )
    assert code == 2 and "out of range" in err
    code, _, err = _run(["hecke", "--q", "3", "--level", "T", "--deg-y2", "3"], capsys)
    assert code == 2 and "--deg-y2 needs --deg-y" in err
    code, _, err = _run(["hecke", "--q", "3", "--level", "T", "--n-power", "5"], capsys)
    assert code == 2 and "--n-power needs --deg-y" in err


def test_exit_code_budget(capsys):
    # the default height grid is too small for the solver to stabilize
    code, _, err = _run(["minimal-B", "--q", "3", "--d", "1"], capsys)
    assert code == 3 and "budget" in err


def test_help_exits_zero(capsys):
    assert _run(["--help"], capsys)[0] == 0
    assert _run(["classgroup", "--help"], capsys)[0] == 0


def test_classgroup_matches_zeta_oracle(capsys):
    result = _result(
        ["classgroup", "--q", "3", "--m", "T^3+2*T+1", "--f", "1"], capsys
    )
    K = analyze_quadratic(fq_from_q(3), parse_poly(fq_from_q(3), "T^3+2*T+1"))
    assert result["h"] == str(class_number_zeta(K))
    assert result["genus"] == 1
    assert result["infinity_type"] == "ramified"


def test_classgroup_with_reps(capsys):
    result = _result(
        ["classgroup", "--q", "3", "--m", "T^3+2*T+1", "--with-reps"], capsys
    )
    assert result["path"] == "forms"
    assert len(result["representatives"]) == int(result["h"]) == 7


ORBIT_T = ["cm-orbit", "--q", "3", "--m", "T^3+2*T+1", "--f", "T", "--prime", "T+1"]


def test_orbit_length_equals_class_number(capsys):
    # conductor-T order of k(sqrt(T^3+2T+1)): h = 7 * (3 - chi(T)) = 14,
    # and the prime above T+1 generates Pic(R)
    result = _result(ORBIT_T, capsys)
    assert result["length"] == 14
    assert len(result["orbit"]) == 14
    assert result["orbit"][0] == result["start"]
    # a user start form in Pic(R) lies on the same single orbit
    result = _result(ORBIT_T + ["--a", "T+2", "--b", "1"], capsys)
    assert result["length"] == 14 and result["start"] == ["T+2", "1"]


def test_orbit_rejects_non_invertible_start(capsys):
    # (a, b) = (T, 0) has c = -(T^3+2*T+1) * T, so gcd(a, b, c) = T: not in Pic(R)
    code, _, err = _run(ORBIT_T + ["--a", "T", "--b", "0"], capsys)
    assert code == 2 and "not invertible" in err


@pytest.mark.parametrize(
    "form",
    [
        ["--a", "T", "--b", "1"],  # b^2 is not D mod a
        ["--a", "2*T", "--b", "0"],  # a is not monic
        ["--a", "T", "--b", "T"],  # deg b >= deg a
        ["--a", "T"],  # --b missing
    ],
    ids=["b2-not-D-mod-a", "a-not-monic", "deg-b-not-below-deg-a", "b-missing"],
)
def test_orbit_rejects_malformed_start(form, capsys):
    assert _run(ORBIT_T + form, capsys)[0] == 2


def test_enum_budget_bounds_orbit_and_covering(capsys):
    assert _run(ORBIT_T + ["--enum-budget", "14"], capsys)[0] == 0
    code, _, err = _run(ORBIT_T + ["--enum-budget", "13"], capsys)
    assert code == 3 and "budget" in err
    # |A/T^5| = 243: the convolution takes 243^2 = 59049 products
    hecke = ["hecke", "--q", "3", "--level", "T^5", "--covering"]
    assert _result(hecke, capsys)["covering"]["ring_size"] == "243"
    code, _, err = _run(hecke + ["--enum-budget", "59048"], capsys)
    assert code == 3 and "budget" in err
    # the per-command limits are gone
    assert _run(ORBIT_T + ["--max-steps", "5"], capsys)[0] == 1
    assert _run(hecke + ["--covering-budget", "81"], capsys)[0] == 1


def test_budget_flags_only_where_read(capsys):
    # a budget flag sits only on the subcommands that pass it on
    for argv in (
        ["factor", "--poly", "T", "--grid", "5"],
        ["classgroup", "--m", "T", "--prime-degree-budget", "3"],
        ["tree", "--op", "distance", "--vertices", "0,1", "--enum-budget", "5"],
        ["minimal-B", "--enum-budget", "5"],
        ["heegner", "--level", "T", "--allow-common"],
    ):
        assert _run(argv, capsys)[0] == 1, argv
    # and where it sits it must be positive
    for argv in (
        ["cm-enumerate", "--bound", "1", "--enum-budget", "0"],
        ["certify", "--bound", "4", "--point", "0", "--prime-degree-budget", "0"],
        ["minimal-B", "--grid", "0"],
        ["minimal-B", "--t-budget", "0"],
        ["minimal-B", "--t-budget", "-1"],
    ):
        code, _, err = _run(argv, capsys)
        assert code == 2 and "budgets must be positive" in err, argv


def test_enum_budget_reaches_heegner_lemma_sieve(capsys):
    lemma = ["heegner", "--q", "3", "--level", "T", "--mode", "lemma"]
    lemma += ["--max-degree", "5", "--count", "1000"]
    assert _result(lemma, capsys)["exhausted"] is True
    # the degree-5 sieve needs 5 * 3^5 = 1215 > 100: refused, not skipped
    code, _, err = _run(lemma + ["--enum-budget", "100"], capsys)
    assert code == 3 and "irreducible enumeration" in err


def test_enum_budget_bounds_heegner_direct_scan(capsys):
    # degrees <= 7 hold 3^8 - 3 = 6558 radicands; level T^2+T passes far fewer
    direct = ["heegner", "--q", "3", "--level", "T^2+T", "--count", "100000000"]
    code, _, err = _run(direct + ["--max-degree", "7", "--enum-budget", "1000"], capsys)
    assert code == 3 and "Heegner radicand scan needs work ~ 6558 > budget 1000" in err
    result = _result(direct + ["--max-degree", "7", "--enum-budget", "6558"], capsys)
    assert result["exhausted"] is True
    # 3^15 radicands: refused after 1000 of them, not scanned
    code, _, err = _run(direct + ["--max-degree", "14", "--enum-budget", "1000"], capsys)
    assert code == 3 and "Heegner radicand scan" in err


# sha256 of `certify --q 5 --d 30 --bound 5 --point 0 --enum-budget 100`:
# the refused prime sieve's message is copied into constants.reason
CERTIFY_REFUSED_DIGEST = "b98eb86b44ab7dba3bdc600718131e3fd6b699ac6eabdb9014b8e1fa4cb4fa15"


def test_certify_budget_reason_golden_digest(capsys):
    argv = ["certify", "--q", "5", "--d", "30", "--bound", "5", "--point", "0"]
    code, out, err = _run(argv + ["--enum-budget", "100"], capsys)
    assert code == 0, err
    reason = json.loads(out)["result"]["constants"]["reason"]
    assert reason == "irreducible enumeration needs work ~ 2500 > budget 100"
    assert hashlib.sha256(out.encode("ascii")).hexdigest() == CERTIFY_REFUSED_DIGEST


def test_every_subcommand_emits_valid_envelope(capsys):
    invocations = [
        ["factor", "--q", "3", "--poly", "2*T^4+2*T^2+1"],
        ["classgroup", "--q", "5", "--m", "T^3+T+1", "--f", "T"],
        ["cm-enumerate", "--q", "3", "--bound", "6"],
        ["cm-orbit", "--q", "3", "--m", "T", "--prime", "T+2", "--conjugate"],
        ["tree", "--op", "median", "--arity", "3", "--vertices", "0.1.0,0.0,1"],
        ["tree", "--op", "bigdegree", "--q", "3", "--poly", "T^2+T", "--mode", "norm"],
        ["hecke", "--q", "3", "--level", "T^2", "--deg-y", "2", "--covering"],
        ["split-count", "--q", "3", "--radicands", "T,T+1", "--t", "4"],
        ["certify", "--q", "3", "--d", "1", "--bound", "4", "--point", "0"],
        ["minimal-B", "--q", "3", "--d", "1", "--grid", str(3**70)],
        ["heegner", "--q", "3", "--level", "T", "--prime", "T+2", "--levels", "1"],
    ]
    schema = load_schema()
    for argv in invocations:
        code, out, err = _run(argv, capsys)
        assert code == 0, (argv, err)
        validate(json.loads(out), schema)


def test_certify_result_reaudits(capsys):
    result = _result(
        ["certify", "--q", "3", "--d", "1", "--bound", "4", "--point", "0"], capsys
    )
    assert result["verdict"] in ("certified", "inconclusive")
    reaudit(result)  # re-derives every recorded comparison


def test_minimal_B_anchor(capsys):
    result = _result(
        ["minimal-B", "--q", "3", "--d", "1", "--grid", str(3**70)], capsys
    )
    assert result["B"] == str(3**52)
    assert result["audit"]["boundary_level"] == 52


def test_heegner_tower_via_cli(capsys):
    result = _result(
        ["heegner", "--q", "3", "--level", "T", "--prime", "T+2", "--levels", "2"],
        capsys,
    )
    assert result["fields"][0]["m"] == "T+1"
    hs = [int(level["h"]) for level in result["tower"]]
    assert hs == [1, 4, 12]  # T+2 is inert in k(sqrt(T+1)): 1, 1*(3+1), 4*3


def test_byte_determinism(capsys):
    for argv in (
        ["cm-enumerate", "--q", "3", "--bound", "6"],
        ["hecke", "--q", "3", "--level", "T^2+1"],
        ["split-count", "--q", "5", "--radicands", "T,T+1", "--t", "2"],
    ):
        first = _run(argv, capsys)[1]
        second = _run(argv, capsys)[1]
        assert first == second
        assert first.endswith("\n")


# pinned catalogues: sha256 of the stdout of `cm-enumerate --q Q --bound B`
CATALOGUE_DIGESTS = {
    (3, 12): "58575024acef3d89050d2279d7b6ec0c4398d9ad554171f819c3f66984a86705",
    (9, 10): "dea9f182462b41b146260a333e9d8b26ec77917a8bfcd243fd0af31bc689c97f",
}


@pytest.mark.parametrize("q, bound", sorted(CATALOGUE_DIGESTS))
def test_catalogue_golden_digest(q, bound, capsys):
    code, out, err = _run(["cm-enumerate", "--q", str(q), "--bound", str(bound)], capsys)
    assert code == 0, err
    assert hashlib.sha256(out.encode("ascii")).hexdigest() == CATALOGUE_DIGESTS[(q, bound)]


def _artifacts():
    path = Path(__file__).resolve().parent.parent / "scripts" / "build_artifacts.py"
    spec = importlib.util.spec_from_file_location("build_artifacts", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return dict(module.ARTIFACTS)


# sha256 of every file scripts/build_artifacts.py writes
ARTIFACT_DIGESTS = {
    "catalogue_q3_B12.json": "58575024acef3d89050d2279d7b6ec0c4398d9ad554171f819c3f66984a86705",
    "certificate_point0.json": "85171af30e2959ca272cc48308c04dbdb853839a4be75410e170074e6fb1bace",
    "classgroup_q3_reps.json": "463c48e4645a8bf1f34540bfb980ee5c05b6ea4bb87bc452dd10e28251aa4bd8",
    "classgroup_q5_conductor.json": "2c367c20ae53b75f02ea6a4f84a826aee8824c56bfd2a8a35617893b481c82a2",
    "factor_q3.json": "c9fc3d116179fb38bb3e1c41df2eb13366a612e7c16960c7d398b1fd25402ee5",
    "hecke_T2_covering.json": "f6037f404faf4df3ffc2dd887e8eece26fbb1e13eaa72f7859dc0ed54035472f",
    "heegner_tower_T.json": "d5c8fa42c4419822c6ff386b00da40cb3a3c68b9f026e1fe3d31998e67926c03",
    "height_bound_q3.json": "1a002eecd86f775982117d043d1e4f3118c808acc53cd3d09dd89a5cafc292a9",
    "orbit_q3_conductor_T.json": "8e3d82107ce738b385e258e0c8a95da64be05982f512f2d7e3b32c352875e3f8",
    "split_audit_q3_t4.json": "25a09c1d712f8e12cdeb3b07fc8b1c5736f5c6ad874bc3e047952d6c03632016",
    "tree_median.json": "64217c42d0e223bc33b86b2dca05c27cdec35e2b8a7081768013514579c64c16",
}


def test_artifact_golden_digests(capsys):
    artifacts = _artifacts()
    assert sorted(artifacts) == sorted(ARTIFACT_DIGESTS)
    for name, argv in artifacts.items():
        code, out, err = _run(argv, capsys)
        assert code == 0, (name, err)
        assert hashlib.sha256(out.encode("ascii")).hexdigest() == ARTIFACT_DIGESTS[name], name


def test_config_file_and_override(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("q = 5\n# a comment\nf = T\n")
    result = _result(
        ["classgroup", "--config", str(cfg), "--m", "T^3+T+1"], capsys
    )
    assert result["q"] == 5 and result["f"] == "T" and result["h"] == "36"
    # explicit flags beat the file
    result = _result(
        ["classgroup", "--config", str(cfg), "--m", "T^3+T+1", "--f", "1"], capsys
    )
    assert result["f"] == "1" and result["h"] == "9"


def test_config_errors(tmp_path, capsys):
    code, _, err = _run(
        ["classgroup", "--config", str(tmp_path / "absent.cfg"), "--m", "T"], capsys
    )
    assert code == 1 and "cannot read config" in err
    bad = tmp_path / "bad.cfg"
    bad.write_text("just-a-word\n")
    code, _, err = _run(["classgroup", "--config", str(bad), "--m", "T"], capsys)
    assert code == 1 and "bad config line" in err


def test_table_format(capsys):
    code, out, _ = _run(
        ["classgroup", "--q", "3", "--m", "T^3+2*T+1", "--format", "table"], capsys
    )
    assert code == 0
    assert "h: 7" in out
    with pytest.raises(json.JSONDecodeError):
        json.loads(out)
