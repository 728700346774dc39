"""Frontend behavior: documented invocations, config files, exit codes."""

import csv
import io
import json
import os
import shutil

import pytest

from child import ROOT, run_python
from tfrenorm.cli import main
from tfrenorm.constants import C_constants_with_errors
from tfrenorm.verify import FIXTURE_NAMES

PACKAGED = ROOT / "src" / "tfrenorm" / "fixtures"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


def test_expand_documented_invocation(capsys):
    doc = run_json(capsys, "expand", "--beta", "f0+f1", "--alpha", "0.55", "--d", "1")
    (entry,) = doc["entries"]
    assert entry["beta"] == "f0+f1"
    kinds = sorted(t["kind"] for t in entry["terms"])
    assert kinds == ["counter", "noise"]
    counter = next(t for t in entry["terms"] if t["kind"] == "counter")
    assert counter["c"] == [{"gamma": "f1", "weight": 1}]
    assert "display" in doc


def test_constants_documented_invocation(capsys):
    doc = run_json(capsys, "constants", "--alpha", "0.5", "--mollifier", "semigroup")
    assert doc["C1"] == pytest.approx(0.028625, rel=1e-4)
    assert set(doc) == {"alpha", "mollifier", "C1", "C2", "C3", "err1", "err2", "err3"}


def test_constants_anisotropic_prints_the_leading_form(capsys):
    doc = run_json(capsys, "constants", "--alpha", "0.55", "--mollifier", "anisotropic")
    lead = doc["leading_form"]
    assert lead["coefficient"] == pytest.approx(
        doc["C2"] / 4 + doc["C3"] - doc["C1"] / 2, rel=1e-14
    )
    assert lead["density_exponent"] == pytest.approx(-(2 * 0.55 + 3) / 4, rel=1e-15)
    code, out, _ = run(capsys, "constants", "--alpha", "0.55", "--mollifier", "anisotropic",
                       "--format", "csv")
    assert code == 0
    assert out.splitlines()[0] == "alpha,mollifier,C1,err1,C2,err2,C3,err3"


def test_enumerate_documented_invocation(capsys):
    doc = run_json(capsys, "enumerate", "--alpha", "0.55", "--d", "1", "--cutoff", "3")
    assert "e1+f0+f1+g(0,1)" in doc["indices"]
    assert doc["count"] == len(doc["indices"]) == 63
    # the library's ModelParams(0.6) decides the same: 0.6 is 3/5
    doc = run_json(capsys, "enumerate", "--alpha", "0.6", "--cutoff", "3")
    assert doc["alpha"] == 0.6 and doc["count"] == 43


def test_enumerate_csv_lists_homogeneity(capsys):
    code, out, err = run(
        capsys, "enumerate", "--alpha", "0.55", "--cutoff", "2", "--format", "csv"
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "index,homogeneity"
    assert len(lines) == 12  # header plus the eleven indices below cutoff 2


def test_homogeneity_report(capsys):
    doc = run_json(capsys, "homogeneity", "--beta", "2f1+g(0,1)", "--alpha", "0.55")
    assert doc["bracket"] == 1
    assert doc["homogeneity"] == pytest.approx(0.55 * 2 + 1)
    assert doc["populated"] and not doc["purely_polynomial"]


def test_deps_lists_both_dependency_kinds(capsys):
    doc = run_json(capsys, "deps", "--beta", "f0+f1", "--alpha", "0.55")
    assert doc["dependencies"] == ["f0"]
    assert doc["c_dependencies"] == ["f1"]


def test_alpha_and_cutoff_are_taken_exactly(capsys):
    """--alpha and --cutoff parse as fractions and print as floats: 11/20
    is 0.55, 17/5 is 3.4, and at alpha = 1/3 the ties at 7/3 fall below
    the cut for the float 1/3 only."""
    exact = run(capsys, "enumerate", "--alpha", "11/20", "--cutoff", "17/5")
    assert exact == run(capsys, "enumerate", "--alpha", "0.55", "--cutoff", "3.4")
    assert json.loads(exact[1])["cutoff"] == 3.4
    third = run_json(capsys, "enumerate", "--alpha", "1/3", "--cutoff", "7/3")
    float_third = run_json(capsys, "enumerate", "--alpha", repr(1 / 3), "--cutoff", "7/3")
    assert third["alpha"] == float_third["alpha"] == 1 / 3
    # |e6+7f0| = 7 alpha
    assert "e6+7f0" in float_third["indices"] and "e6+7f0" not in third["indices"]
    assert (third["count"], float_third["count"]) == (93, 184)
    # every subcommand shares the one exact --alpha; the numeric ones read its float
    for argv in (["constants"], ["counterterm", "--tau", "1e-3,1e-4"],
                 ["h-eval", "--tau", "1e-4", "--a", "0.5", "--a-prime", "0.1", "--b", "2.0",
                  "--b-prime", "0.25"],
                 ["simulate", "--task", "covariance", "--tau", "1e-14", "--sizes", "8,16",
                  "--samples", "4"]):
        exact = run(capsys, *argv, "--alpha", "11/20")
        assert exact[0] == 0 and exact == run(capsys, *argv, "--alpha", "0.55"), argv


@pytest.mark.parametrize("value", ["nan", "inf", "1/0", "1e400", "1" + "0" * 400 + "/3"])
def test_fraction_options_keep_the_finite_value_rule(capsys, value):
    for option in ("--alpha", "--cutoff"):
        argv = {"--alpha": "0.55", "--cutoff": "3", option: value}
        code, out, err = run(capsys, "enumerate", *[t for kv in argv.items() for t in kv])
        assert code == 2 and out == "" and "not a finite number" in err


def test_the_rational_alpha_override_is_gone(capsys, tmp_path):
    with pytest.raises(SystemExit) as stop:
        main(["kappa", "--alpha", "0.75", "--allow-rational-alpha"])
    assert stop.value.code == 2
    cfg = tmp_path / "run.cfg"
    cfg.write_text("alpha=0.75\nallow_rational_alpha=true\n")
    code, _, err = run(capsys, "kappa", "--config", str(cfg))
    assert code == 2 and "allow_rational_alpha" in err
    # 3/4 needs no override
    assert run_json(capsys, "kappa", "--alpha", "0.75")["alpha"] == 0.75


def test_kappa_midpoint(capsys):
    doc = run_json(capsys, "kappa", "--alpha", "0.55")
    assert doc["kappa"] == pytest.approx(1.95)


def test_gamma_entry_from_map_file(capsys, tmp_path):
    smap = {
        "alpha": 0.55,
        "d": 1,
        "lam": 0.4,
        "families": [{"n": [0, 0], "entries": [{"beta": "f0", "value": "3/2"}]}],
    }
    path = tmp_path / "map.json"
    path.write_text(json.dumps(smap))
    doc = run_json(
        capsys, "gamma-entry", "--map", str(path), "--beta", "f0+f1", "--gamma", "f0"
    )
    assert doc["value"] == "3/2"


def test_gamma_entry_bytes_of_an_int_valued_map(capsys, tmp_path):
    """JSON-int pi values give exact entries, printed as fraction strings;
    only the diagonal is the int 1."""
    smap = {
        "alpha": 0.55,
        "d": 1,
        "lam": 0.4,
        "families": [
            {"n": [0, 0], "entries": [{"beta": "f0", "value": 4}]},
            {"n": [0, 1], "entries": [{"beta": "f0+f1", "value": 2}]},
        ],
    }
    path = tmp_path / "map.json"
    path.write_text(json.dumps(smap))
    for beta, gamma, value in (("f0+f1", "f0", '"4"'), ("e2+2f0", "e0", '"16"'),
                               ("f0+f1", "g(0,1)", '"2"'), ("e0", "e0", "1")):
        code, out, err = run(
            capsys, "gamma-entry", "--map", str(path), "--beta", beta, "--gamma", gamma
        )
        assert code == 0, err
        assert out == (f'{{\n "beta": "{beta}",\n "gamma": "{gamma}",\n'
                       f' "value": {value}\n}}\n')


def test_kernel_check_small_grid(capsys):
    doc = run_json(
        capsys, "kernel-check", "--sizes", "128,512", "--boxes", "1e-4,4.0"
    )
    assert doc["semigroup"] < 1e-10
    assert doc["inversion_residual"] < 1e-10
    assert doc["scaling"] < 0.05
    assert all(row["spread"] < 0.2 for row in doc["moment_spread"])


def test_counterterm_csv_header_and_threads(capsys):
    code, out, _ = run(
        capsys, "counterterm", "--alpha", "0.55", "--tau", "1e-3,1e-4,1e-5",
        "--format", "csv",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "alpha,tau,m0,mollifier,c1,err1,c2,err2,c3,err3"
    assert [row.split(",")[1] for row in lines[1:]] == ["0.001", "0.0001", "1e-05"]


def test_counterterm_json_rows_have_documented_keys(capsys):
    doc = run_json(capsys, "counterterm", "--alpha", "0.55", "--tau", "1e-3")
    (row,) = doc["tables"]
    assert list(row) == [
        "alpha", "m0", "tau", "mollifier", "c1", "c2", "c3", "err1", "err2", "err3",
    ]


def test_h_eval_matches_constant_combination(capsys):
    doc = run_json(
        capsys, "h-eval", "--alpha", "0.55", "--tau", "1e-4",
        "--a", "0.5", "--a-prime", "-1.0", "--b", "2.0", "--b-prime", "0.25",
    )
    t = doc["constants"]
    expected = (
        t["c1"] * (-1.0) * 2.0 * 0.25 + t["c2"] * 0.25**2 + t["c3"] * 1.0 * 4.0
    )
    assert doc["h"] == pytest.approx(expected, rel=1e-12)


def test_simulate_covariance_csv(capsys):
    code, out, err = run(
        capsys, "simulate", "--task", "covariance", "--alpha", "0.55",
        "--tau", "1e-14", "--sizes", "16,64", "--samples", "16", "--seed", "2",
        "--format", "csv",
    )
    assert code == 0
    assert out.splitlines()[0] == "point,estimate,standard_error,oracle,z"


def test_simulate_scaling_reports_deterministic_slope(capsys):
    argv = ["simulate", "--task", "scaling", "--alpha", "0.55", "--tau", "1e-24",
            "--sizes", "4,512", "--window", "8e-3,8e-2"]
    doc = run_json(capsys, *argv)
    assert list(doc) == ["task", "deterministic_slope"]
    assert doc["deterministic_slope"] == pytest.approx(1.1, abs=0.05)
    code, out, err = run(capsys, *argv, "--format", "csv")
    assert code == 0, err
    header, row = csv.reader(io.StringIO(out.strip()))
    assert header == list(doc)
    assert row[0] == doc["task"] and float(row[1]) == doc["deterministic_slope"]


@pytest.mark.parametrize("argv", [
    ["enumerate", "--alpha", "0.55", "--cutoff", "2"],
    ["constants", "--alpha", "0.55"],
    ["counterterm", "--alpha", "0.55", "--tau", "1e-3,1e-4"],
    ["simulate", "--task", "covariance", "--alpha", "0.55", "--tau", "1e-14",
     "--sizes", "16,64", "--samples", "8"],
    ["simulate", "--task", "scaling", "--alpha", "0.55", "--tau", "1e-24",
     "--sizes", "4,512", "--window", "8e-3,8e-2"],
], ids=["enumerate", "constants", "counterterm", "simulate-covariance", "simulate-scaling"])
def test_every_csv_output_ends_in_one_newline(capsys, tmp_path, argv):
    """Every CSV line ends in a bare newline, and the output ends in exactly
    one, on stdout and in an --output file alike.  A CSV reader finds every
    row as wide as the header: a field holding a comma, such as g(0,1) in
    the enumerate case, is quoted."""
    argv = [*argv, "--format", "csv"]
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    path = tmp_path / "out.csv"
    assert main([*argv, "--output", str(path)]) == 0
    for text in (out, path.read_bytes().decode()):
        assert "\r" not in text and text.endswith("\n") and not text.endswith("\n\n")
        header, *rows = csv.reader(io.StringIO(text))
        assert rows and all(len(row) == len(header) for row in rows), rows


def test_config_file_supplies_defaults_and_flags_override(capsys, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("alpha=0.55\ncutoff=2\n# comment line\n")
    doc = run_json(capsys, "enumerate", "--config", str(cfg))
    assert doc["count"] == 11
    doc = run_json(capsys, "enumerate", "--config", str(cfg), "--cutoff", "3")
    assert doc["count"] == 63


def test_unknown_config_key_is_rejected(capsys, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("alpha=0.55\nbogus_key=1\n")
    code, _, err = run(capsys, "kappa", "--config", str(cfg))
    assert code == 2
    assert "bogus_key" in err


def test_missing_required_option_is_config_error(capsys):
    code, _, err = run(capsys, "enumerate", "--alpha", "0.55")
    assert code == 2


def test_invalid_parameter_is_config_error(capsys):
    code, _, err = run(capsys, "enumerate", "--alpha", "2.0", "--cutoff", "2")
    assert code == 2
    # the refusal names the time given, not the rescaled one
    code, _, err = run(capsys, "kernel-check", "--scaling-time", "-1")
    assert code == 2
    assert "kernel time must be >= 0, got -1.0" in err


H_EVAL = ["h-eval", "--alpha", "0.55", "--tau", "1e-4", "--a", "0.5",
          "--b", "2.0", "--b-prime", "0.25"]
SCALING = ["simulate", "--task", "scaling", "--alpha", "0.55", "--sizes", "8,64"]
MOMENT = ["simulate", "--task", "moment", "--alpha", "0.55", "--tau", "1e-14",
          "--sizes", "8,64", "--samples", "8"]
# structure maps that are not valid documents; "{tmp}" is the test's directory
BAD_MAPS = {
    "empty.json": {},
    "array.json": [],
    "alpha.json": {"alpha": "x", "d": 1, "families": []},
    "zero_den.json": {"alpha": 0.55, "d": 1, "families": [
        {"n": [0, 0], "entries": [{"beta": "f0", "value": "1/0"}]}]},
    "list_value.json": {"alpha": 0.55, "d": 1, "families": [
        {"n": [0, 0], "entries": [{"beta": "f0", "value": [1]}]}]},
}


def gamma_entry_argv(map_name):
    return ["gamma-entry", "--map", "{tmp}/" + map_name, "--beta", "f0+f1", "--gamma", "f0"]


@pytest.mark.parametrize("argv, want", [
    (["counterterm", "--alpha", "0.55", "--tau", "nan"], 2),
    (["counterterm", "--alpha", "0.55", "--tau", "inf"], 2),
    (["counterterm", "--alpha", "0.55", "--tau", "1e-3,-inf"], 2),
    (["counterterm", "--alpha", "0.55", "--tau", "1e-3", "--m0", "nan"], 2),
    (["enumerate", "--alpha", "0.55", "--cutoff", "nan"], 2),
    (["enumerate", "--alpha", "0.55", "--cutoff", "inf"], 2),
    (H_EVAL + ["--a-prime", "nan"], 2),
    (H_EVAL + ["--a-prime", "1e300"], 3),
    # scales that underflow inside the equal-time line integral
    (SCALING + ["--tau", "1e-200", "--mollifier", "anisotropic", "--eta", "4",
                "--window", "0.02,0.4"], 3),
    (SCALING + ["--tau", "1e-14", "--boxes", "1,1e300", "--window", "2e298,4e299"], 3),
    # unwritable output paths
    (["kappa", "--alpha", "0.55", "--output", "{tmp}/missing/out.json"], 2),
    (["constants", "--alpha", "0.55", "--output", "{tmp}/missing/out.json"], 2),
    (MOMENT + ["--dump", "{tmp}/missing/field"], 2),
    # a non-finite scale on the smallest grid is rejected before sampling
    (["simulate", "--task", "moment", "--alpha", "0.55", "--tau", "nan",
      "--sizes", "2,4", "--samples", "8"], 2),
    # malformed structure maps
    *[(gamma_entry_argv(name), 2) for name in BAD_MAPS],
    # tau^eta underflows to a zero time rate
    (["counterterm", "--alpha", "0.6", "--tau", "1e-3", "--mollifier", "anisotropic",
      "--eta", "1e6"], 2),
    (H_EVAL + ["--a-prime", "1.0", "--mollifier", "anisotropic", "--eta", "1e6"], 2),
    # a Monte Carlo check needs at least 4 samples, refused before any draw:
    # covariance here, scaling below, moment and bphz last, so no id moves
    (["simulate", "--task", "covariance", "--alpha", "0.55", "--tau", "1e-14",
      "--sizes", "8,16", "--samples", "3"], 2),
    # exp(-tau Q) underflows at every nonzero mode; the suite makes a
    # RuntimeWarning on the way an error
    (["simulate", "--task", "covariance", "--alpha", "0.75", "--tau", "1e300",
      "--sizes", "8,16", "--samples", "4"], 3),
    # a scaling fit draws nothing, so it refuses a sample count
    (SCALING + ["--tau", "1e-14", "--window", "0.02,0.4", "--samples", "3"], 2),
    # psi_t underflows at every nonzero mode, so the check would read the
    # integrand's mean (it once printed an overflow RuntimeWarning)
    *[(["simulate", "--task", "bphz", "--component", component, "--alpha", "0.75",
        "--tau", "1e-14", "--t-list", "1e300", "--sizes", "8,16", "--samples", "8"], 3)
      for component in ("f0", "f0f1")],
    # the line density of the f0 fit underflows at every nonzero k1, on a
    # window above the mollification scale: Q^(-1.12) underflows at Q = 1.7e296
    (SCALING + ["--alpha", "0.98", "--m0", "1.3e154", "--tau", "1e10",
                "--mollifier", "anisotropic", "--eta", "3", "--boxes", "1,200",
                "--window", "20,90"], 3),
    # at t = 0, 1 - psi_t is zero on the whole support: every f0+f1 draw
    # would read 0, a row that cannot fail
    (["simulate", "--task", "bphz", "--component", "f0f1", "--alpha", "0.75",
      "--tau", "1e-14", "--t-list", "0,1e-6", "--sizes", "8,16", "--samples", "8"], 3),
    # the sample floor of the moment and bphz checks
    *[(["simulate", "--task", task, "--alpha", "0.55", "--tau", "1e-14", "--sizes", "8,16",
        "--samples", "3"], 2) for task in ("moment", "bphz")],
])
def test_non_finite_input_or_result_exits_cleanly(capsys, tmp_path, argv, want):
    for name, doc in BAD_MAPS.items():
        (tmp_path / name).write_text(json.dumps(doc))
    argv = [arg.replace("{tmp}", str(tmp_path)) for arg in argv]
    code, out, err = run(capsys, *argv)
    assert code == want, err
    assert out == ""


@pytest.mark.parametrize("argv", [
    ["kernel-check", "--sizes", "128,512", "--boxes", "1e-4,4.0", "--m0", "1e160"],
    ["counterterm", "--alpha", "0.6", "--m0", "1e300", "--tau", "1e-3"],
    ["simulate", "--task", "covariance", "--alpha", "0.6", "--m0", "1e200",
     "--sizes", "8,16", "--tau", "1e-12", "--samples", "4"],
])
def test_m0_whose_square_overflows_is_a_config_error(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2, err
    assert out == "" and "m0" in err


@pytest.mark.parametrize("beta", ["2147483648e1", "2147483647f0+f0",
                                  "99999999999999999999999g(0,1)"])
def test_multiplicity_past_its_field_is_a_config_error(capsys, beta):
    code, out, err = run(capsys, "homogeneity", "--alpha", "0.55", "--beta", beta)
    assert code == 2, err
    assert out == "" and "exceeds 2147483647" in err


def test_simulate_scaling_needs_a_window(capsys):
    code, out, err = run(capsys, *SCALING, "--tau", "1e-14")
    assert code == 2
    assert "--window" in err
    assert out == ""


@pytest.mark.parametrize("window", ["0.01", "0.01,0.1,0.2"])
def test_simulate_scaling_window_has_two_values(capsys, window):
    code, out, err = run(capsys, "simulate", "--task", "scaling", "--alpha", "0.75",
                         "--tau", "1e-24", "--sizes", "8,64", "--window", window)
    assert code == 2, err
    assert out == "" and "window needs two values" in err


@pytest.mark.parametrize("argv", [
    ["counterterm", "--alpha", "0.75", "--tau", "10", "--eta", "400"],
    ["counterterm", "--alpha", "0.75", "--tau", "1e300", "--eta", "50"],
    ["h-eval", "--alpha", "0.75", "--tau", "1e300", "--eta", "50", "--a", "0.5",
     "--a-prime", "0.1", "--b", "2.0", "--b-prime", "0.25"],
    ["simulate", "--task", "covariance", "--alpha", "0.75", "--tau", "1e300", "--eta", "50",
     "--samples", "8", "--sizes", "4,8"],
], ids=["counterterm-10^400", "counterterm-1e300^50", "h-eval", "simulate"])
def test_anisotropic_rate_that_overflows_is_a_config_error(capsys, argv):
    # tau^eta is beyond the float range; mollifier_spec refuses it
    code, out, err = run(capsys, *argv, "--mollifier", "anisotropic")
    assert code == 2, err
    assert out == "" and "mollifier rates must be finite" in err


def test_simulate_scaling_window_below_the_mollification_scale(capsys):
    for tau, window in [
        # tau^(1/8) = 0.18: the field is smooth there, so the window would
        # fit the slope 2 of a smooth field
        ("1e-6", "0.01,0.1"),
        # refused before the line density, which underflows here
        ("1e300", "0.03,0.2"),
    ]:
        code, out, err = run(
            capsys, "simulate", "--task", "scaling", "--alpha", "0.75",
            "--tau", tau, "--window", window,
        )
        assert code == 2, err
        assert out == "" and "mollification scale" in err


def _reject_constant(token):
    raise ValueError(f"non-finite JSON constant {token}")


def test_simulate_covariance_on_the_smallest_grid(capsys):
    """Default lags beyond a 2-point time axis wrap around the torus."""
    code, out, err = run(
        capsys, "simulate", "--task", "covariance", "--alpha", "0.55",
        "--tau", "1e-14", "--sizes", "2,4", "--samples", "8",
    )
    assert code == 0, err
    doc = json.loads(out, parse_constant=_reject_constant)
    assert len(doc["estimates"]) == len(doc["points"]) == len(doc["oracles"])


def test_simulate_moment_point_without_spread(capsys):
    """The time separation 2 wraps to 0 on a 2-point axis: its pi_f0 is 0 in
    every sample and so is its oracle, a zero standard error and z-score."""
    code, out, err = run(
        capsys, "simulate", "--task", "moment", "--alpha", "0.55",
        "--tau", "1e-14", "--sizes", "2,4", "--samples", "8",
    )
    assert code == 0, err
    doc = json.loads(out, parse_constant=_reject_constant)
    at = doc["points"].index([2, 0])
    assert doc["estimates"][at] == doc["oracles"][at] == 0.0
    assert doc["standard_errors"][at] == doc["z_scores"][at] == 0.0


def test_simulate_moment_on_a_two_point_space_axis(capsys):
    """The separations take at least one step along every axis, however
    short.  On a 2-point space axis L^{-1} div meets only the zero and the
    Nyquist mode, where it vanishes, so pi_f0 and every moment are 0."""
    code, out, err = run(
        capsys, "simulate", "--task", "moment", "--sizes", "4,2", "--tau", "1e-12",
        "--alpha", "0.6", "--samples", "4",
    )
    assert code == 0, err
    doc = json.loads(out, parse_constant=_reject_constant)
    assert [0, 1] in doc["points"] and [1, 0] in doc["points"]
    assert doc["estimates"] == doc["oracles"] == [0.0] * len(doc["points"])

@pytest.mark.parametrize("task, option, says", [
    (["moment"], ["--x", "1,2"], "averages over every base point"),
    (["bphz", "--component", "f0f1"], ["--x", "1,2"], "averages over every base point"),
    # options a task does not read are refused, not ignored
    (["covariance"], ["--x", "1,2"], "--task covariance does not read --x"),
    (["scaling", "--window", "0.02,0.4"], ["--x", "1,2"], "--task scaling does not read --x"),
    (["covariance"], ["--dump", "{tmp}/f"], "--task covariance does not read --dump"),
    (["bphz"], ["--dump", "{tmp}/f"], "--task bphz does not read --dump"),
    (["scaling", "--window", "0.02,0.4"], ["--dump", "{tmp}/f"],
     "--task scaling does not read --dump"),
    (["covariance"], ["--window", "0.02,0.4"], "--task covariance does not read --window"),
    (["moment"], ["--window", "0.02,0.4"], "--task moment does not read --window"),
    (["bphz"], ["--window", "0.02,0.4"], "--task bphz does not read --window"),
    # so are those with a default, given a value, even the default
    (["covariance"], ["--component", "f0f1"], "--task covariance does not read --component"),
    (["moment"], ["--component", "f0"], "--task moment does not read --component"),
    (["covariance"], ["--t-list", "1e-3"], "--task covariance does not read --t-list"),
    (["moment"], ["--t-list", "1e-6,1e-5,1e-4"], "--task moment does not read --t-list"),
    (["scaling", "--window", "0.02,0.4"], ["--t-list", "1e-3"],
     "--task scaling does not read --t-list"),
    # scaling fits f0 and draws nothing
    (["scaling", "--window", "0.02,0.4"], ["--component", "f0"],
     "--task scaling does not read --component"),
    (["scaling", "--window", "0.02,0.4"], ["--samples", "8"],
     "--task scaling does not read --samples"),
    (["scaling", "--window", "0.02,0.4"], ["--seed", "1"],
     "--task scaling does not read --seed"),
], ids=["moment", "bphz_f0f1", "covariance_x", "scaling_x", "covariance_dump", "bphz_dump",
        "scaling_dump", "covariance_window", "moment_window", "bphz_window",
        "covariance_component", "moment_component", "covariance_t_list", "moment_t_list",
        "scaling_t_list", "scaling_component", "scaling_samples", "scaling_seed"])
def test_simulate_refuses_x_where_the_check_averages_over_base_points(capsys, tmp_path, task,
                                                                       option, says):
    option = [arg.replace("{tmp}", str(tmp_path)) for arg in option]
    code, out, err = run(capsys, "simulate", "--task", *task, "--alpha", "0.55",
                         "--tau", "1e-14", "--sizes", "8,64", *option)
    assert code == 2 and out == ""
    (line,) = err.splitlines()
    assert line.startswith("config error: ") and says in line
    assert list(tmp_path.iterdir()) == []


def test_simulate_refuses_an_unread_option_from_a_config_file(capsys, tmp_path):
    cfg = tmp_path / "simulate.cfg"
    cfg.write_text("component=f0f1\nt_list=1e-3\n")
    code, out, err = run(capsys, "simulate", "--task", "covariance", "--alpha", "0.55",
                         "--tau", "1e-14", "--sizes", "8,64", "--samples", "8",
                         "--config", str(cfg))
    assert code == 2 and out == ""
    assert err == "config error: --task covariance does not read --component\n"


@pytest.mark.parametrize("key", ["component=f0", "samples=8", "seed=1"])
def test_simulate_scaling_refuses_sample_options_from_a_config_file(capsys, tmp_path, key):
    cfg = tmp_path / "scaling.cfg"
    cfg.write_text(key + "\n")
    code, out, err = run(capsys, *SCALING, "--tau", "1e-14", "--window", "0.02,0.4",
                         "--config", str(cfg))
    assert code == 2 and out == ""
    assert err == f"config error: --task scaling does not read --{key.partition('=')[0]}\n"


def test_simulate_has_no_bootstrap_option(capsys, tmp_path):
    """The scaling task draws nothing, so nothing is resampled: bootstrap is
    an unknown option, as a flag and as a config key."""
    with pytest.raises(SystemExit) as stop:
        main([*SCALING, "--tau", "1e-14", "--window", "0.02,0.4", "--bootstrap", "5"])
    assert stop.value.code == 2
    cfg = tmp_path / "run.cfg"
    cfg.write_text("bootstrap=5\n")
    code, out, err = run(capsys, *SCALING, "--tau", "1e-14", "--window", "0.02,0.4",
                         "--config", str(cfg))
    assert code == 2 and out == "" and "bootstrap" in err


@pytest.mark.parametrize("task", [["covariance"], ["moment"], ["bphz"]],
                         ids=["covariance", "moment", "bphz"])
def test_huge_sample_count_is_a_prompt_config_error(task):
    # _sample_key keeps 64 bits of (i << 8) | comp, so draw 2^56 would repeat
    # draw 0; the count is refused before any draw, not after hours of them
    proc = run_python(["-m", "tfrenorm.cli", "simulate", "--task", *task, "--alpha", "0.55",
                       "--tau", "1e-14", "--sizes", "8,64", "--samples", str(2 ** 56 + 1)],
                      timeout=20)
    assert proc.returncode == 2, proc.stderr
    assert proc.stdout == "" and "at most 2^56" in proc.stderr


def test_simulate_bphz_f0_reads_at_x(capsys):
    argv = ["simulate", "--task", "bphz", "--component", "f0", "--alpha", "0.55",
            "--tau", "1e-14", "--sizes", "8,64", "--samples", "8"]
    at_origin = run_json(capsys, *argv)
    assert run_json(capsys, *argv, "--x", "0,0") == at_origin
    assert run_json(capsys, *argv, "--x", "3,17")["estimates"] != at_origin["estimates"]


def test_closed_stdout_pipe_exits_quietly():
    """A reader that closed stdout before the output was written ends the
    run with the documented status 141 and no traceback."""
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = run_python(["-m", "tfrenorm.cli", "kappa", "--alpha", "0.55"], timeout=60,
                          stdout=write_end)
    finally:
        os.close(write_end)
    assert "Traceback" not in proc.stderr
    assert proc.returncode == 141, proc.stderr


@pytest.mark.parametrize("argv", [
    ["kappa", "--alpha", "0.55", "--cutoff", "1e9"],
    ["enumerate", "--alpha", "0.55", "--cutoff", "1e5"],
    # few decorations, but a decoration search that must prune dead branches
    ["enumerate", "--alpha", "0.55", "--cutoff", "40", "--max-count", "1000"],
])
def test_huge_cutoff_is_a_prompt_resource_error(argv):
    proc = run_python(["-m", "tfrenorm.cli", *argv], timeout=20)
    assert proc.returncode == 3, proc.stderr
    assert "max_count" in proc.stderr


TINY = ["--alpha", "0.75", "--tau", "1e-14"]
MESH = "numeric error: the frequency mesh overflows when squared"


def _simulate(task, sizes, box, *extra):
    samples = [] if task[0] == "scaling" else ["--samples", "8"]  # scaling draws nothing
    return ["simulate", "--task", *task, *TINY, *samples, "--sizes", sizes,
            "--boxes", f"1,{box}", *extra]


@pytest.mark.parametrize("argv, code, line", [
    # the spatial frequencies j / 1e-300 overflow when squared
    pytest.param(_simulate(["covariance"], "4,8", "1e-300"), 3, MESH, id="covariance-1e-300"),
    pytest.param(_simulate(["bphz", "--component", "f0f1"], "4,8", "1e-300"), 3, MESH,
                 id="bphz_f0f1-1e-300"),
    # |2 pi k|^8 overflows: in symbol_L, symbol_LLstar, the mollifier or ik_power
    pytest.param(_simulate(["bphz", "--component", "f0f1"], "4,8", "1e-80"), 3, MESH,
                 id="bphz_f0f1-1e-80"),
    pytest.param(_simulate(["scaling"], "4,64", "1e-300", "--window", "2e-302,1e-301"), 3, MESH,
                 id="scaling-1e-300"),
    pytest.param(_simulate(["scaling"], "4,64", "1e-40", "--window", "2e-42,1e-41"), 3, MESH,
                 id="scaling-1e-40"),
    # the mesh before the window, though this window is reversed
    pytest.param(_simulate(["scaling"], "4,64", "1e-40", "--window", "0.2,0.1"), 3, MESH,
                 id="scaling-1e-40-reversed_window"),
    *[pytest.param(["kernel-check", "--sizes", "128,512", "--boxes", f"1e-4,{box}"], 3, MESH,
                   id=f"kernel_check-{box}") for box in ("1e-40", "1e-80", "1e-160", "1e-300")],
    # symbol_LLstar is finite at the Nyquist corner, where |2 pi k| = 2.5e38
    pytest.param(_simulate(["bphz", "--component", "f0f1"], "4,8", "1e-37"), 0, None,
                 id="bphz_f0f1-1e-37"),
    # psi_t fills the box, so moment ratios underflow to 0
    pytest.param(["kernel-check", "--sizes", "128,512", "--boxes", "1e-4,0.1"], 3,
                 "numeric error: moment ratio ((0, n1), theta) = ((0, 1), -1) is 0 at "
                 "t = 3.16228e-12 on boxes (0.0001, 0.1)", id="kernel_check-0.1"),
    # the ridge at k1 = 1e-68 is 2.5e-270, so k0_max / ridge overflows
    pytest.param(["simulate", "--task", "scaling", "--alpha", "0.75",
                  "--tau", "1e-30", "--mollifier", "anisotropic", "--eta", "3", "--sizes", "8,64",
                  "--boxes", "1,1e68", "--window", "2e66,2e67"], 3,
                 "numeric error: k0_max / ridge 1.02462e+45 / 2.4805e-270 at k1 = 1e-68 "
                 "overflows",
                 id="scaling_anisotropic-1e68"),
])
def test_tiny_boxes_are_one_line_numeric_error(argv, code, line):
    # kernel.check_mesh refuses the mesh before any other work, so no
    # RuntimeWarning reaches stderr: one line and exit 3, or exit 0 and none
    proc = run_python(["-m", "tfrenorm.cli", *argv], timeout=60)
    assert proc.returncode == code, proc.stderr
    if line is None:
        assert proc.stderr == ""
    else:
        (got,) = proc.stderr.splitlines()
        assert got.startswith(line), got


def test_cli_import_loads_no_numeric_layer():
    """The index-algebra subcommands start without numpy or scipy, and the
    numeric layers load no scipy either."""
    probe = ("import sys, tfrenorm.cli; "
             "print(sorted(m for m in sys.modules if m.split('.')[0] in ('numpy', 'scipy'))); "
             "import tfrenorm.constants, tfrenorm.kernel, tfrenorm.mc, tfrenorm.verify; "
             "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    proc = run_python(["-c", probe], timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["[]", "[]"]


COUNTERTERM_PROBE = """
import contextlib, io, sys
import tfrenorm.constants as con, tfrenorm.verify
from tfrenorm.cli import main
from tfrenorm.indices import ModelParams

def numeric():
    return sorted(m for m in sys.modules if m.split('.')[0] in ('numpy', 'scipy'))

print(numeric())
params = ModelParams(alpha=0.55, d=1)
for kind in ('semigroup', 'anisotropic'):
    cov = con.covariance_spec(0.55, 1.3)
    con.counterterm_table(cov, con.mollifier_spec(kind, 1e-4, eta=2.5, m0=1.3))
    con.C_constants_with_errors(0.55, kind)
    con.scaling_exponents(con.C1_INDEX, params, kind)
print(numeric())
for argv in (['constants', '--alpha', '0.55', '--mollifier', 'anisotropic'],
             ['counterterm', '--alpha', '0.55', '--tau', '1e-3,1e-4'],
             ['counterterm', '--alpha', '0.55', '--tau', '1e-3', '--mollifier', 'anisotropic'],
             ['h-eval', '--alpha', '0.55', '--tau', '1e-4', '--a', '0.5', '--a-prime', '0.1',
              '--b', '2.0', '--b-prime', '0.25'],
             ['fixtures-verify']):
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(argv)
    assert code == 0, argv
print(numeric())
"""


def test_counterterm_layer_loads_no_numpy():
    """The tables, the universal constants and their subcommands run
    without numpy: only the mesh layers kernel and mc load it."""
    proc = run_python(["-c", COUNTERTERM_PROBE], timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["[]", "[]", "[]"]


@pytest.mark.parametrize("command", ["constants", "counterterm", "h-eval"])
def test_constants_takes_no_tolerance(capsys, tmp_path, command):
    """No subcommand has a quadrature tolerance to tune: epsrel is an
    unknown option, as a flag and as a config key."""
    with pytest.raises(SystemExit) as stop:
        main([command, "--alpha", "0.6", "--epsrel", "1e-9"])
    assert stop.value.code == 2
    cfg = tmp_path / "run.cfg"
    cfg.write_text("alpha=0.6\nepsrel=1e-9\n")
    code, _, err = run(capsys, command, "--config", str(cfg))
    assert code == 2 and "epsrel" in err


def test_output_flag_writes_file(capsys, tmp_path):
    path = tmp_path / "out.json"
    code, out, err = run(
        capsys, "homogeneity", "--beta", "f0", "--alpha", "0.55",
        "--output", str(path),
    )
    assert code == 0 and out == ""
    assert json.loads(path.read_text())["beta"] == "f0"


def test_fixtures_verify_clean_and_perturbed(capsys, tmp_path):
    code, out, _ = run(capsys, "fixtures-verify")
    assert code == 0
    assert json.loads(out)["status"] == "ok"

    for name in FIXTURE_NAMES:
        shutil.copy(PACKAGED / name, tmp_path / name)
    doc = json.loads((tmp_path / "enumeration.json").read_text())
    doc["entries"][0]["count"] += 1
    (tmp_path / "enumeration.json").write_text(json.dumps(doc))
    code, _, err = run(capsys, "fixtures-verify", "--fixtures-dir", str(tmp_path))
    assert code == 4
    assert "enumeration" in err


def test_help_lists_every_subcommand():
    with pytest.raises(SystemExit) as stop:
        main(["--help"])
    assert stop.value.code == 0


def test_no_subcommand_exits_with_usage_error():
    with pytest.raises(SystemExit) as stop:
        main([])
    assert stop.value.code == 2
