from __future__ import annotations

import argparse
import builtins
import contextlib
import importlib
import io
import json
import sys
from importlib import resources
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from etasphere import cli, witt
from etasphere.cli import (
    VERIFY_MODULES,
    build_parser,
    emit_json,
    load_config,
    run,
    run_check,
    verify_checks,
)


def subcommands() -> dict:
    """Each subcommand's parser, by name."""
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return sub.choices


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


def test_cobordism_verify_carries_the_msl_witness(capsys):
    code, out, _ = run_capture(
        capsys, ["--format", "json", "cobordism", "--theory", "MSL", "--verify"]
    )
    assert code == 0
    assert json.loads(out)["certificates"]["kwcalc.msl_phi_iterates_reach_unit"] == {"pass": True}


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


def _bundled_catalog() -> list:
    return json.loads(resources.files("etasphere").joinpath("data/field_catalog.json").read_text())


@pytest.mark.parametrize("argv", [
    ["stems", "--max", "8"],
    ["hwhw", "--max", "3"],
    ["kwhw", "--imax", "2", "--modulus-bits", "6"],
])
def test_env_catalog_feeds_every_field_subcommand(tmp_path, monkeypatch, capsys, argv):
    # a field only the ETASPHERE_DATA_DIR catalog has
    entries = _bundled_catalog()
    mine = dict(next(e for e in entries if e["name"] == "real_closed"), name="myfield")
    (tmp_path / "field_catalog.json").write_text(json.dumps(entries + [mine]))
    monkeypatch.setenv("ETASPHERE_DATA_DIR", str(tmp_path))
    code, out, err = run_capture(capsys, ["--format", "json", *argv, "--field", "myfield"])
    assert code == 0, err
    assert json.loads(out)["all_passed"]
    code, want, _ = run_capture(capsys, ["--format", "json", *argv, "--field", "real_closed"])
    results = json.loads(out)["results"]
    assert json.dumps(results).replace("myfield", "real_closed") == json.dumps(
        json.loads(want)["results"])


@pytest.mark.parametrize("argv", [
    ["stems", "--max", "8"], ["hwhw", "--max", "3"], ["witt", "--field", "F3"],
])
def test_user_catalog_is_read_once_per_request(tmp_path, monkeypatch, capsys, argv):
    path = tmp_path / "catalog.json"
    path.write_text(json.dumps(_bundled_catalog()))
    opened, built = [], []
    real_open, real_from_json = builtins.open, witt.WittPresentation.from_json.__func__

    def counting_open(file, *args, **kwargs):
        if str(file) == str(path):
            opened.append(file)
        return real_open(file, *args, **kwargs)

    def counting_from_json(cls, obj):
        built.append(obj["name"])
        return real_from_json(cls, obj)

    monkeypatch.setattr(builtins, "open", counting_open)
    monkeypatch.setattr(witt.WittPresentation, "from_json", classmethod(counting_from_json))
    if "--field" not in argv:
        argv = argv + ["--field", "F5"]
    code, _, err = run_capture(capsys, ["--catalog", str(path), *argv])
    assert code == 0, err
    assert len(opened) == 1
    assert len(built) == 6


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
    ["witt", "--brute-force", "9"],
    ["witt", "--field", "F5", "--brute-force", "9"],
    ["witt", "--brute-force", "15"],
    ["divided", "--units", "abc"],
    ["operator", "--word", "1/2"],
    ["operator", "--word", "1/0"],
    ["--catalog", "nosuch", "witt"],
    ["pages", "--model", "kgl", "--smax", "6", "--fmax", "2", "--truncation", "6"],
    ["pages", "--truncation", "0"],
    ["kwhw", "--field", "real_closed", "--modulus-bits", "0"],
    ["witt", "--brute-force", "0"],
    ["witt", "--field", "F3", "--brute-force", "0"],
])
def test_bad_bounds_and_fields_exit_2(capsys, argv):
    code, out, err = run_capture(capsys, argv)
    assert code == 2, argv
    assert "usage error" in err and not out


def test_operator_unknown_token_message(capsys):
    code, out, err = run_capture(capsys, ["--format", "json", "operator", "--word", "phi gamma"])
    assert code == 2 and not out
    assert err == "usage error: bad operator token 'gamma'\n"


@pytest.mark.parametrize("before, after", [
    (["--format", "json"], ["stems", "--field", "real_closed", "--max", "20"]),
    (["--verify"], ["hopf", "--imax", "4", "--jmax", "4"]),
])
def test_output_flags_on_either_side_of_the_subcommand(capsys, before, after):
    # run twice in one process: the parser is built once and shared by every call
    reports = []
    for argv in (before + after, after + before) * 2:
        code, out, _ = run_capture(capsys, argv)
        assert code == 0, argv
        reports.append(out)
    if "--format" in before:
        reports = [{k: v for k, v in json.loads(r).items() if k != "timing_seconds"}
                   for r in reports]
    assert all(r == reports[0] for r in reports)
    assert build_parser() is build_parser()


def test_format_before_the_subcommand_is_kept(capsys):
    code, out, _ = run_capture(capsys, ["--format", "json", "--verify", "hopf", "--imax", "2"])
    assert code == 0
    report = json.loads(out)
    assert report["inputs"]["verify"] is True
    assert "kwcalc.normal_order_phi_beta_n" in report["certificates"]


# every subcommand but `verify`, with every long option it declares (--format
# included); `verify` and `--verify` run whole invariant suites, which take
# seconds each
FUZZ_FLAGS = {
    name: [flag for action in parser._actions for flag in action.option_strings
           if flag.startswith("--") and flag not in ("--help", "--verify")]
    for name, parser in subcommands().items() if name != "verify"
}
FUZZ_TOKENS = ["0", "1", "2", "3", "6", "-1", "real_closed", "nosuch", "abc", "1/0",
               "phi", "beta", "json"]


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_cli_fuzz_exit_codes(data):
    tokens = st.sampled_from(FUZZ_TOKENS)
    command = data.draw(st.sampled_from(sorted(FUZZ_FLAGS)))
    head = data.draw(st.dictionaries(
        st.sampled_from(["--format", "--catalog", "--stems-data"]), tokens, max_size=2))
    options = data.draw(st.dictionaries(
        st.sampled_from(FUZZ_FLAGS[command]), tokens, max_size=4))
    loose = data.draw(st.lists(tokens, max_size=1))
    argv = [w for item in head.items() for w in item] + [command]
    argv += [w for item in options.items() for w in item] + loose
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        code = run(argv)
    assert code in (0, 1, 2), argv


VERIFY_CERTIFICATES = {
    "abelian.smith_normal_form_random", "abelian.ker_coker_oracle",
    "graded.rewrite_confluence_random", "graded.delta_squared_zero",
    "kwcalc.normal_order_phi_beta_n", "kwcalc.operator_associativity",
    "kwcalc.hopf_constants_mod8", "kwcalc.eta_stems_valuations",
    "kwcalc.msp_phi_surjective", "kwcalc.msl_phi_iterates_reach_unit",
    "kwcalc.divided_power_two_unit_choices",
    "kwcalc.legendre_kummer_cross_check",
    "steenrod.coassoc_counit_real_closed", "steenrod.coassoc_counit_quadratically_closed",
    "steenrod.coassoc_counit_finite_field_3mod4", "steenrod.action_table_real_closed",
    "steenrod.action_table_quadratically_closed", "steenrod.action_table_finite_field_3mod4",
    "steenrod.conjugate_triangularity", "steenrod.antipode_axiom",
    "witt.catalog_validates", "witt.brute_force_matches_catalog",
    "witt.unit_predicate_matches_solver", "witt.n_epsilon_odd_is_unit_class",
}


def test_verify_certificate_names_are_pinned():
    # building the table runs no check
    table = verify_checks(None)
    names = {f"{module}.{name}" for module, checks in table.items() for name in checks}
    assert len(VERIFY_CERTIFICATES) == 24
    assert names == VERIFY_CERTIFICATES


def test_runner_fails_a_raising_check_and_an_empty_check():
    def raising():
        raise ArithmeticError("boom")

    assert run_check(raising) == ({"pass": False, "counterexample": "boom"}, None)
    assert run_check(lambda: (True, 0, None)) == (
        {"pass": False, "counterexample": "nothing checked"}, 0)
    assert run_check(lambda: (False, 3, [1, 2])) == (
        {"pass": False, "counterexample": [1, 2]}, 3)
    assert run_check(lambda: (True, 3, "unused")) == ({"pass": True}, 3)


def test_every_subcommand_but_verify_has_a_verify_module():
    modules = {name: p.get_default("verify_module") for name, p in subcommands().items()}
    assert modules.pop("verify") is None
    assert None not in modules.values()
    assert set(modules.values()) <= set(verify_checks(None))


# each subcommand but `verify` at its smallest bounds, with the module whose
# checks --verify adds to it
SMALLEST = {
    "stems": ("kwcalc", ["--field", "real_closed", "--max", "0"]),
    "witt": ("witt", ["--field", "F3"]),
    "steenrod": ("steenrod", ["--weight", "0"]),
    "pages": ("steenrod", ["--smax", "0", "--fmax", "0"]),
    "operator": ("kwcalc", ["--word", "phi"]),
    "hopf": ("kwcalc", ["--imax", "0", "--jmax", "0"]),
    "divided": ("kwcalc", ["--nmax", "0", "--imax", "0"]),
    "cobordism": ("kwcalc", ["--theory", "MSp", "--max", "0"]),
    "hwhw": ("kwcalc", ["--field", "real_closed", "--max", "0"]),
    "kwhw": ("kwcalc", ["--field", "real_closed", "--imax", "0"]),
}


def test_verify_flag_adds_exactly_the_subcommands_own_module(capsys, monkeypatch):
    monkeypatch.setattr(cli, "verify_checks", lambda rng: {
        module: {"trivial": lambda: (True, 1, None)} for module in VERIFY_MODULES})
    assert set(SMALLEST) == set(subcommands()) - {"verify"}
    for name, (module, rest) in SMALLEST.items():
        certificates = []
        for verify in ([], ["--verify"]):
            _, out, err = run_capture(capsys, ["--format", "json", *verify, name, *rest])
            assert not err, name
            certificates.append(set(json.loads(out)["certificates"]))
        assert certificates[1] - certificates[0] == {f"{module}.trivial"}, name
        assert certificates[0] <= certificates[1], name
    code, out, _ = run_capture(capsys, ["--format", "json", "--verify", "verify"])
    assert code == 0
    assert set(json.loads(out)["certificates"]) == {f"{m}.trivial" for m in VERIFY_MODULES}


def test_verify_runs_each_named_module_once_in_sorted_order(capsys, monkeypatch):
    draws = []

    def spy(rng):
        draws.append(rng.random())
        return True, 1, None

    monkeypatch.setattr(cli, "smith_normal_form_random", spy)
    for modules in (["graded", "abelian"], ["abelian", "graded"], ["abelian", "abelian"]):
        argv = ["--format", "json", "verify"] + [w for m in modules for w in ("--module", m)]
        code, out, _ = run_capture(capsys, argv)
        assert code == 0, modules
        report = json.loads(out)
        assert report["inputs"]["module"] == modules
        assert set(report["results"]) == set(modules)
    # abelian runs first in both orders, and once when it is named twice
    assert len(draws) == 3
    assert draws[0] == draws[1] == draws[2]


@pytest.mark.parametrize("argv, vacuous", [
    (["pages", "--smax", "6", "--fmax", "0"], ["f_positive_stems_mod_4", "collapse"]),
    (["divided", "--imax", "0", "--nmax", "1"], ["squares_normalized"]),
    (["pages", "--model", "kgl", "--smax", "8", "--fmax", "3"], []),
])
def test_a_certificate_that_checked_nothing_fails(capsys, argv, vacuous):
    code, out, _ = run_capture(capsys, ["--format", "json"] + argv)
    certificates = json.loads(out)["certificates"]
    assert code == (1 if vacuous else 0)
    for name, info in certificates.items():
        if name in vacuous:
            assert info == {"pass": False, "counterexample": "nothing checked"}
        else:
            assert info == {"pass": True}


def test_malformed_data_files_exit_2(tmp_path, capsys):
    bad_presentation = {
        "name": "no_unit", "additive": {"free_rank": 0, "torsion": [2]},
        "mult_table": [[[1]]], "unit": [1], "minus_one": [1], "rank_mod2": [0],
    }
    files = {
        "catalog_not_json": ("--catalog", "{not json"),
        "catalog_not_a_list": ("--catalog", "3"),
        "catalog_invalid_entry": ("--catalog", json.dumps([bad_presentation])),
        "stems_not_json": ("--stems-data", "[{"),
    }
    for name, (flag, text) in files.items():
        path = tmp_path / f"{name}.json"
        path.write_text(text)
        code, out, err = run_capture(capsys, [flag, str(path), "witt"])
        assert code == 2, name
        assert err.startswith("usage error: ") and not out, name


def test_every_benchmark_request_replays_its_recorded_outcome(monkeypatch):
    # every request the three benchmark workloads can send, replayed through
    # the benchmark client and judged by its own rule (oracles, then the
    # recorded outcome or the README contract), so a change in any output
    # shows here without running the benchmark
    bench = Path(__file__).resolve().parents[1] / "perfbench"
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(bench))
    client = importlib.import_module("client")
    workloads = importlib.import_module("workloads")
    expected = json.loads((bench / "expected.json").read_text())
    requests = [req for w in workloads.WORKLOADS for req in workloads.parameter_space(w)]
    assert len([req for req in requests if "kwhw" in req.get("argv", ())]) == 12
    problems = []
    for req in requests:
        run_request = client.run_cli if req["kind"] == "cli" else client.run_call
        _, outcome, result = run_request(cli, req)
        regression, defect = client.verdict(req, outcome, result, expected)
        if regression or defect:
            problems.append((workloads.request_key(req), regression or defect))
    assert problems == []
