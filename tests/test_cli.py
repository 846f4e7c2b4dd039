import json
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
    assert "6 screens" in capsys.readouterr().out
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
