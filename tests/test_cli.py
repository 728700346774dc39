"""Frontend behavior: documented invocations, config files, exit codes."""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from tfrenorm.cli import main
from tfrenorm.constants import C_constants_with_errors
from tfrenorm.verify import FIXTURE_NAMES

ROOT = Path(__file__).resolve().parents[1]
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


def test_enumerate_documented_invocation(capsys):
    doc = run_json(capsys, "enumerate", "--alpha", "0.55", "--d", "1", "--cutoff", "3")
    assert "e1+f0+f1+g(0,1)" in doc["indices"]
    assert doc["count"] == len(doc["indices"]) == 63


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
    doc = run_json(
        capsys, "simulate", "--task", "scaling", "--alpha", "0.55",
        "--tau", "1e-24", "--sizes", "4,512", "--window", "8e-3,8e-2",
        "--samples", "32", "--bootstrap", "32", "--seed", "1",
    )
    assert set(doc) >= {"exponent", "ci", "deterministic_slope"}
    assert doc["exponent"] == pytest.approx(doc["deterministic_slope"], abs=0.2)


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


H_EVAL = ["h-eval", "--alpha", "0.55", "--tau", "1e-4", "--a", "0.5",
          "--b", "2.0", "--b-prime", "0.25"]


@pytest.mark.parametrize("argv, want", [
    (["counterterm", "--alpha", "0.55", "--tau", "nan"], 2),
    (["counterterm", "--alpha", "0.55", "--tau", "inf"], 2),
    (["counterterm", "--alpha", "0.55", "--tau", "1e-3,-inf"], 2),
    (["counterterm", "--alpha", "0.55", "--tau", "1e-3", "--m0", "nan"], 2),
    (["enumerate", "--alpha", "0.55", "--cutoff", "nan"], 2),
    (["enumerate", "--alpha", "0.55", "--cutoff", "inf"], 2),
    (H_EVAL + ["--a-prime", "nan"], 2),
    (H_EVAL + ["--a-prime", "1e300"], 3),
])
def test_non_finite_input_or_result_exits_cleanly(capsys, argv, want):
    code, out, err = run(capsys, *argv)
    assert code == want, err
    assert out == ""


@pytest.mark.parametrize("argv", [
    ["kappa", "--alpha", "0.55", "--cutoff", "1e9"],
    ["enumerate", "--alpha", "0.55", "--cutoff", "1e5"],
    # few decorations, but a decoration search that must prune dead branches
    ["enumerate", "--alpha", "0.55", "--cutoff", "40", "--max-count", "1000"],
])
def test_huge_cutoff_is_a_prompt_resource_error(argv):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    proc = subprocess.run(
        [sys.executable, "-m", "tfrenorm.cli", *argv], cwd=ROOT, env=env,
        capture_output=True, text=True, timeout=20,
    )
    assert proc.returncode == 3, proc.stderr
    assert "max_count" in proc.stderr


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
