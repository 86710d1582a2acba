from __future__ import annotations

import json

import pytest

from etasphere.cli import emit_json, load_config, run


def run_capture(capsys, argv):
    code = run(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_stems_quadratically_closed_table(capsys):
    code, out, _ = run_capture(capsys, ["stems", "--field", "quadratically_closed", "--max", "8"])
    assert code == 0
    lines = dict(
        (int(line.split("|")[0].strip()), line.split("|")[1].strip())
        for line in out.splitlines()
        if "|" in line
    )
    assert lines[3] == "Z/2"
    assert lines[4] == "Z/2"
    assert lines[7] == "Z/2"
    assert lines[8] == "Z/2"
    assert lines[1] == "0"
    assert lines[0].startswith("W(")


def test_stems_degree_zero_only(capsys):
    code, out, _ = run_capture(capsys, ["stems", "--field", "real_closed", "--max", "0"])
    assert code == 0
    assert "W(real_closed)" in out


def test_operator_output(capsys):
    code, out, _ = run_capture(capsys, ["operator", "--word", "phi beta beta"])
    assert code == 0
    assert "80 beta" in out
    assert "81 beta^2 phi" in out


def test_json_round_trip_byte_identical(capsys):
    code, out, _ = run_capture(
        capsys, ["--format", "json", "operator", "--word", "phi beta"]
    )
    assert code == 0
    report = json.loads(out)
    assert emit_json(report) + "\n" == out
    assert report["all_passed"] is True
    assert report["results"]["terms"] == {"beta^0 phi^0": "8", "beta^1 phi^1": "9"}


def test_usage_errors_exit_2(capsys):
    code, _, err = run_capture(capsys, ["stems", "--field", "no_such_field"])
    assert code == 2
    code, _, _ = run_capture(capsys, [])
    assert code == 2
    code, _, _ = run_capture(capsys, ["operator", "--word", "gamma"])
    assert code == 2


def test_verify_single_module(capsys):
    code, out, _ = run_capture(capsys, ["verify", "--module", "abelian"])
    assert code == 0
    assert "[pass] abelian.smith_normal_form_random" in out


def test_hopf_subcommand(capsys):
    code, out, _ = run_capture(capsys, ["--format", "json", "hopf", "--imax", "6", "--jmax", "6"])
    assert code == 0
    report = json.loads(out)
    assert report["certificates"]["matches_binomials"]["pass"]
    assert report["results"]["table"]["1,1"] == 2


def test_divided_subcommand(capsys):
    code, out, _ = run_capture(
        capsys,
        ["--format", "json", "divided", "--nmax", "8", "--units", "3,5,7,9,11"],
    )
    assert code == 0
    report = json.loads(out)
    assert report["certificates"]["divided_power_identities"]["pass"]


def test_pages_subcommand_sphere(capsys):
    code, out, _ = run_capture(
        capsys, ["--format", "json", "pages", "--model", "sphere", "--smax", "4", "--fmax", "3"]
    )
    assert code == 0
    report = json.loads(out)
    assert report["certificates"]["collapse"]["pass"]
    # gr = k^M[h]: only stem-0 cells
    assert all(key.startswith("(0,") for key in report["results"]["e1_cells"])


def test_cobordism_subcommand(capsys):
    code, out, _ = run_capture(
        capsys, ["cobordism", "--theory", "MSL", "--field", "real_closed", "--max", "8"]
    )
    assert code == 0
    assert "^2" in out  # degree 8 rank two


def test_witt_brute_force_subcommand(capsys):
    code, out, _ = run_capture(
        capsys, ["--format", "json", "witt", "--field", "F5", "--brute-force", "5"]
    )
    assert code == 0
    report = json.loads(out)
    assert report["certificates"]["ring_isomorphic_to_catalog"]["pass"]


def test_kwhw_subcommand(capsys):
    code, out, _ = run_capture(
        capsys, ["--format", "json", "kwhw", "--field", "quadratically_closed", "--imax", "2"]
    )
    assert code == 0
    report = json.loads(out)
    assert report["certificates"]["lift_certificate_ok"]["pass"]


def test_load_config_bundled():
    fields, stems = load_config()
    assert "real_closed" in fields and "F7" in fields
    assert stems.max_degree == 20


def test_load_config_env_override(tmp_path, monkeypatch):
    stems_rows = [
        {"degree": 0, "free_rank": 1, "torsion": []},
        {"degree": 1, "free_rank": 0, "torsion": [2]},
    ]
    (tmp_path / "stable_stems.json").write_text(json.dumps(stems_rows))
    monkeypatch.setenv("ETASPHERE_DATA_DIR", str(tmp_path))
    fields, stems = load_config()
    assert stems.max_degree == 1


def test_bad_catalog_fails_validation(tmp_path, capsys):
    # non-divisible invariant factors violate the normal form
    entry = [{
        "name": "broken",
        "additive": {"free_rank": 0, "torsion": [2, 3]},
        "mult_table": [[[1, 0], [0, 1]], [[0, 1], [0, 1]]],
        "unit": [1, 0],
        "minus_one": [1, 0],
        "rank_mod2": [1, 0],
        "ideal_generators": [],
        "vcd2": 1,
    }]
    path = tmp_path / "catalog.json"
    path.write_text(json.dumps(entry))
    with pytest.raises(Exception):
        load_config(catalog_path=str(path))


def test_precondition_violations_exit_2(capsys):
    code, _, err = run_capture(capsys, ["stems", "--field", "real_closed", "--max", "25"])
    assert code == 2 and "beyond the stems table" in err
    code, _, _ = run_capture(capsys, ["divided", "--nmax", "64", "--imax", "4"])
    assert code == 2


def test_verify_flag_on_subcommand(capsys):
    code, out, _ = run_capture(capsys, ["--verify", "hopf", "--imax", "4", "--jmax", "4"])
    assert code == 0
    assert "[pass] kwcalc.normal_order_phi_beta_n" in out


def test_stems_chart_real_closed_degree_7(capsys):
    code, out, _ = run_capture(capsys, ["stems", "--field", "real_closed", "--max", "8"])
    assert code == 0
    row7 = next(line for line in out.splitlines() if line.strip().startswith("7 |"))
    assert "Z/16" in row7 and "Z/15" in row7


def test_pages_and_steenrod_usage_errors_exit_2(capsys):
    for argv in (
        ["pages", "--base", "nosuch"],
        ["steenrod", "--base", "nosuch", "--weight", "2"],
        ["pages", "--smax", "-1"],
        ["pages", "--fmax", "-1"],
    ):
        code, _, err = run_capture(capsys, argv)
        assert code == 2, argv
        assert "usage error" in err


@pytest.mark.parametrize("argv", [
    ["stems", "--field", "real_closed", "--max", "-1"],
    ["hopf", "--imax", "-3"],
    ["steenrod", "--weight", "-5"],
    ["cobordism", "--theory", "MSp", "--max", "-1"],
    ["hwhw", "--field", "real_closed", "--max", "-1"],
    ["cobordism", "--theory", "MSp", "--field", "nosuch"],
    ["divided", "--nmax", "-1"],
    ["kwhw", "--field", "real_closed", "--imax", "-1"],
    ["witt", "--brute-force", "4"],
])
def test_bad_bounds_and_fields_exit_2(capsys, argv):
    code, out, err = run_capture(capsys, argv)
    assert code == 2, argv
    assert "usage error" in err and not out
