import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from slitport.cli import main
from slitport.scenario import REFERENCE_SCRIPT

SCENARIO = Path(__file__).resolve().parent.parent / "scenarios" / "paper.qprot"


def test_shipped_scenario_matches_embedded():
    assert SCENARIO.read_text(encoding="utf-8") == REFERENCE_SCRIPT


def test_run_reference(capsys, tmp_path):
    out = tmp_path / "report.json"
    code = main(["run", str(SCENARIO), "--cb", "0.6", "--cc", "0.8", "--json", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["final_fidelity"] >= 1 - 1e-8
    assert doc["inputs"]["cb"] == "0.59999999999999998"
    assert capsys.readouterr().out.count("checkpoint") >= 17


def test_run_missing_file(capsys):
    assert main(["run", "/nonexistent/file.qprot"]) == 2
    assert "no such script" in capsys.readouterr().err


def test_run_rejects_bad_truncation(capsys):
    assert main(["run", str(SCENARIO), "--truncation", "8"]) == 2
    assert "tail bound" in capsys.readouterr().err


def test_run_json_byte_stable(tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["run", str(SCENARIO), "--json", str(a)]) == 0
    assert main(["run", str(SCENARIO), "--json", str(b)]) == 0
    capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()


def test_sampled_runs_reproducible(capsys):
    assert main(["run", str(SCENARIO), "--sample", "--seed", "7"]) in (0, 1, 3)
    first = capsys.readouterr().out
    main(["run", str(SCENARIO), "--sample", "--seed", "7"])
    second = capsys.readouterr().out
    assert first == second


def test_check_subcommand(capsys, tmp_path):
    assert main(["check", str(SCENARIO)]) == 0
    assert capsys.readouterr().out == "ok: 69 commands, 6 screens, 2 cavities, 5 kernels\n"
    bad = tmp_path / "bad.qprot"
    bad.write_text("warp A1\ncavity C1 alpha\n")
    assert main(["check", str(bad)]) == 2
    err = capsys.readouterr().err
    assert "line 1" in err and "line 2" in err


def _final_fidelity(out: str) -> float:
    line = next(l for l in out.splitlines() if l.startswith("final fidelity"))
    return float(line.split()[-1])


def test_paper_subcommand(capsys):
    assert main(["paper"]) == 0
    out = capsys.readouterr().out
    assert sum(1 for line in out.splitlines() if line.startswith("checkpoint ")) == 17
    assert _final_fidelity(out) >= 1 - 1e-8


def test_paper_basis_input(capsys):
    assert main(["paper", "--cb", "1", "--cc", "0"]) == 0
    assert _final_fidelity(capsys.readouterr().out) >= 1 - 1e-8


def test_paper_gt_flag_accepts_pi_forms(capsys):
    assert main(["paper", "--gt", "pi/8"]) == 0
    capsys.readouterr()


def test_min_fidelity_threshold(capsys):
    # fidelity is 1, so an impossible threshold flips the exit code
    assert main(["paper", "--min-fidelity", "1.5"]) == 1
    capsys.readouterr()


def test_check_rejects_unnormalized_config(capsys, tmp_path):
    script = tmp_path / "unnormalized.qprot"
    script.write_text("config cb 1\nconfig cc 1\n")
    assert main(["check", str(script)]) == 2
    assert "|cb|^2" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["sweep", "--param", "gt", "--values", "0.3", "--min-fidelity", "2"],
    ["paper", "--min-fidelity", "nan"],
])
def test_min_fidelity_rejected_where_meaningless(capsys, argv):
    # sweep never reads a threshold, and a NaN threshold never trips
    with pytest.raises(SystemExit) as exit_:
        main(argv)
    assert exit_.value.code == 2
    capsys.readouterr()


def test_closed_stdout_is_a_clean_exit():
    # the error entries make a report larger than a pipe's buffer, so the
    # write is still pending when the reader goes away
    env = dict(os.environ, PYTHONPATH=str(SCENARIO.parent.parent / "src"))
    proc = subprocess.Popen(
        [sys.executable, "-m", "slitport.cli", "sweep", "--param", "cb",
         "--values=" + ",".join(["2"] * 1000)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    assert proc.stdout.readline() == b"{\n"
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 2
    assert "Traceback" not in err and "BrokenPipeError" not in err


def test_unnormalized_inputs_rejected(capsys):
    assert main(["paper", "--cb", "1", "--cc", "1"]) == 2
    assert "|cb|^2" in capsys.readouterr().err


def test_sweep_alpha(capsys):
    assert main(["sweep", "--param", "alpha", "--values", "1,2"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["param"] == "alpha"
    for entry in doc["runs"]:
        assert entry["error"] is None
        assert entry["final_fidelity"] >= 1 - 1e-6


def test_sweep_empty_values(capsys):
    assert main(["sweep", "--param", "alpha", "--values", " "]) == 2
    capsys.readouterr()


def test_sweep_bad_values(capsys):
    assert main(["sweep", "--param", "alpha", "--values", "1,zebra"]) == 2
    capsys.readouterr()


def test_sampled_detection_with_no_possible_outcome_exits_3(capsys, tmp_path):
    # a zero kernel leaves no flux on any detector label; sampling must fail
    # as the forced run does, not divide by a zero total weight
    script = tmp_path / "dead.qprot"
    script.write_text(SCENARIO.read_text().replace("kernel SC2 [1 0; 0 0]",
                                                   "kernel SC2 [0 0; 0 0]"))
    assert main(["run", str(script)]) == 3
    capsys.readouterr()
    assert main(["run", str(script), "--sample", "--seed", "1"]) == 3
    err = capsys.readouterr().err
    assert "every outcome on register A3_path has probability below 1e-14" in err
    assert "NaN" not in err


def test_sweep_gt_zero_records_error(capsys):
    assert main(["sweep", "--param", "gt", "--values", "0"]) == 3
    doc = json.loads(capsys.readouterr().out)
    assert doc["runs"][0]["error"] is not None
    assert doc["runs"][0]["final_fidelity"] is None


def test_sweep_cb_derives_cc(capsys):
    assert main(["sweep", "--param", "cb", "--values", "0.6"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["runs"][0]["final_fidelity"] >= 1 - 1e-8


def test_sweep_cb_out_of_range(capsys):
    assert main(["sweep", "--param", "cb", "--values", "1.5"]) == 2
    doc = json.loads(capsys.readouterr().out)
    assert "no matching cc" in doc["runs"][0]["error"]


@pytest.mark.parametrize("value", ["inf", "nan", "1e400"])
def test_paper_rejects_non_finite_alpha(capsys, value):
    with pytest.raises(SystemExit) as exit_:
        main(["paper", "--alpha", value])
    assert exit_.value.code == 2
    assert f"not a finite number: {value!r}" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["paper", "--sample", "--seed", "-1"],
    ["run", str(SCENARIO), "--sample", "--seed=-7"],
])
def test_negative_seed_is_rejected_at_parse_time(capsys, argv):
    with pytest.raises(SystemExit) as exit_:
        main(argv)
    assert exit_.value.code == 2
    assert "seed must be non-negative" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["paper", "--gt", "$alpha"],
    ["sweep", "--param", "cb", "--values", "0.5", "--gt", "$cb"],
    ["paper", "--truncation", "$truncation"],
])
def test_parameter_flags_reject_references(capsys, argv):
    with pytest.raises(SystemExit) as exit_:
        main(argv)
    assert exit_.value.code == 2
    assert "cannot reference" in capsys.readouterr().err


def test_script_rejects_non_finite_literal(capsys, tmp_path):
    script = tmp_path / "inf.qprot"
    script.write_text(SCENARIO.read_text().replace("config alpha 2", "config alpha inf"))
    assert main(["run", str(script)]) == 2
    assert "not a finite number: 'inf'" in capsys.readouterr().err


def test_sweep_rejects_non_finite_value(capsys):
    assert main(["sweep", "--param", "cb", "--values=0.5,nan"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "not a finite number: 'nan'" in captured.err


def test_paper_alpha_zero_is_a_validation_error(capsys):
    assert main(["paper", "--alpha", "0"]) == 2
    assert "odd cat |alpha> - |-alpha> vanishes" in capsys.readouterr().err


def test_sweep_alpha_zero_records_error(capsys):
    assert main(["sweep", "--param", "alpha", "--values=0,2"]) == 0
    zero, two = json.loads(capsys.readouterr().out)["runs"]
    assert "odd cat" in zero["error"] and zero["final_fidelity"] is None
    assert two["error"] is None and two["final_fidelity"] >= 1 - 1e-8


def test_vacuum_cavity_without_checkpoints_validates(capsys, tmp_path):
    script = tmp_path / "vacuum.qprot"
    script.write_text("config alpha 0\ncavity C1 alpha $alpha\natom A lambda3 state b\n")
    assert main(["check", str(script)]) == 0
    assert main(["run", str(script)]) == 0
    capsys.readouterr()


def test_flag_values_may_start_with_a_dash(capsys, tmp_path):
    out = tmp_path / "report.json"
    assert main(["paper", "--cb", "-0.6+0i", "--cc", "0.8", "--json", str(out)]) == 0
    assert json.loads(out.read_text())["inputs"]["cb"] == "-0.59999999999999998"
    capsys.readouterr()
    assert main(["sweep", "--param", "cb", "--values", "-0.3,0.5"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert [e["value"] for e in doc["runs"]] == [-0.3, 0.5]
    assert all(e["error"] is None for e in doc["runs"])


def test_sweep_cb_keeps_order_and_error_entries(capsys):
    assert main(["sweep", "--param", "cb", "--values=0.6,1.5,-1,0"]) == 0
    runs = json.loads(capsys.readouterr().out)["runs"]
    assert [e["value"] for e in runs] == [0.6, 1.5, -1, 0]
    assert "no matching cc" in runs[1]["error"] and runs[1]["final_fidelity"] is None
    for entry in (runs[0], runs[2], runs[3]):
        assert entry["error"] is None
        assert entry["final_fidelity"] >= 1 - 1e-8
        assert entry["cumulative_probability"] == pytest.approx(9.0352889675e-4, rel=1e-9)
