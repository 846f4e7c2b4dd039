import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import slitport
from slitport.cli import main
from slitport.scenario import REFERENCE_SCRIPT

ROOT = Path(__file__).resolve().parent.parent
SCENARIO = ROOT / "scenarios" / "paper.qprot"


def test_shipped_scenario_matches_embedded():
    assert SCENARIO.read_text(encoding="utf-8") == REFERENCE_SCRIPT


def test_top_level_exports_the_run_contract():
    # the README's "Library use" calls, and the types they return or raise
    assert sorted(slitport.__all__) == [
        "CHECKPOINTS", "ImpossibleOutcomeError", "ProtocolError", "REFERENCE_SCRIPT", "RunInputs",
        "RunReport", "ScriptError", "StepRecord", "parse", "resolve", "run_batch", "run_protocol",
        "serialize",
    ]
    assert all(hasattr(slitport, name) for name in slitport.__all__)
    section = (ROOT / "README.md").read_text(encoding="utf-8").split("## Library use", 1)[1]
    example = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    imported = re.search(r"^from slitport import (.*)$", example, re.M).group(1)
    assert {name.strip() for name in imported.split(",")} <= set(slitport.__all__)


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


@pytest.mark.parametrize("command", ["run", "check"])
def test_script_path_is_a_directory(capsys, tmp_path, command):
    assert main([command, str(tmp_path)]) == 2
    assert capsys.readouterr().err == (f"line 0: cannot read script file {tmp_path}: "
                                       "Is a directory\n")


def test_script_that_is_not_utf8(capsys, tmp_path):
    bad = tmp_path / "bad.qprot"
    bad.write_bytes(b"\xff config alpha 2\n")
    assert main(["check", str(bad)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"line 0: cannot read script file {bad}: 'utf-8' codec can't decode")
    assert err.count("\n") == 1


_JSON_COMMANDS = [["run", str(SCENARIO)], ["paper"], ["sweep", "--param", "gt", "--values", "0.3"],
                  ["sweep", "--param", "cb", "--values", "0.6,0.8"]]


@pytest.mark.parametrize("argv", _JSON_COMMANDS)
@pytest.mark.parametrize("target, reason", [("missing/report.json", "No such file or directory"),
                                            (".", "Is a directory")])
def test_unwritable_json_path_exits_2(capsys, tmp_path, argv, target, reason):
    path = tmp_path / target
    assert main(argv + ["--json", str(path)]) == 2
    assert capsys.readouterr().err == f"cannot write --json {path}: {reason}\n"


def test_check_reports_errors_in_line_order(capsys, tmp_path):
    bad = tmp_path / "bad.qprot"
    bad.write_text("cavity C1 alpha 2 truncation 8\natom A lambda3 state q\n")
    assert main(["check", str(bad)]) == 2
    assert capsys.readouterr().err == (
        "line 1: cavity C1: truncation 8 is below the tail bound 27 for amplitude reach 2\n"
        "line 2: atom A: unknown label 'q' (valid: a, b, c, input)\n"
    )


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


_PASS_CB = ("config cb 0.6+0.8i\nconfig cc 0\ncavity C1 alpha 1\ncavity C2 alpha 1\n"
            "screen S u v\nbind u C1\nbind v C2\natom A lambda3 state b\nsplit A S\n"
            "pass A S phi $cb\n")


@pytest.mark.parametrize("text, argv, err", [
    ("config cb 2\n", ["check"], "line 1: |cb|^2 + |cc|^2 must be 1 (off by 3.500e+00); "
                                 "the teleported state is a normalized path qubit\n"),
    (_PASS_CB, ["check"], "line 10: pass A: parameter $cb is not real\n"),
    ("cavity C1 alpha 1\natom P qubit2 state f\njcpass P C1 gt $alpha\n",
     ["run", "--alpha", "2+1i"], "line 3: jcpass P: parameter $alpha is not real\n"),
])
def test_parameter_errors_name_their_line(capsys, tmp_path, text, argv, err):
    path = tmp_path / "params.qprot"
    path.write_text(text)
    assert main(argv[:1] + [str(path)] + argv[1:]) == 2
    assert capsys.readouterr() == ("", err)


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


@pytest.mark.parametrize("param, value, flags", [
    ("alpha", "1.5", []), ("cb", "0.6", []), ("gt", "0.3", ["--sample", "--seed", "3"]),
    # a swept value takes the forms its flag takes
    ("gt", "pi/4", []), ("alpha", "2+1i", ["--truncation", "66"]),
])
def test_a_sweep_entry_equals_the_full_run(capsys, tmp_path, param, value, flags):
    # a sweep skips the checkpoint steps, which change no state and draw no
    # random number; cb values run batched, the others alone
    assert main(["sweep", "--param", param, "--values", value, *flags]) == 0
    entry = json.loads(capsys.readouterr().out)["runs"][0]
    out = tmp_path / "report.json"
    cc = ["--cc", "0.8"] if param == "cb" else []
    assert main(["paper", f"--{param}", value, *cc, *flags, "--json", str(out)]) == 0
    capsys.readouterr()
    report = json.loads(out.read_text())
    for key in ("final_fidelity", "cumulative_probability"):
        assert entry[key] == report[key]


@pytest.mark.parametrize("argv, resolves", [
    # cb and cc reach only the input amplitudes: every cb value shares one lowering
    (["--param", "cb", "--values=0.6,0.8,-0.3"], 1),
    (["--param", "alpha", "--values", "1,2"], 2),
])
def test_sweep_lowers_the_script_once_per_lowering_it_needs(capsys, monkeypatch, argv, resolves):
    calls = []
    resolve = slitport.script.resolve
    monkeypatch.setattr(slitport.script, "resolve", lambda *a: calls.append(a) or resolve(*a))
    assert main(["sweep", *argv]) == 0
    capsys.readouterr()
    assert len(calls) == resolves


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


_LITERAL_ONLY = "takes a literal value and cannot reference a parameter"
_PAPER_ERROR = "slitport paper: error: argument"


# a $name outside a script is refused with a message about its own source;
# a config line's refusal is pinned with the other malformed lines
@pytest.mark.parametrize("argv, message", [
    (["paper", "--gt", "$alpha"], f"{_PAPER_ERROR} --gt: gt {_LITERAL_ONLY}"),
    (["paper", "--truncation", "$truncation"],
     f"{_PAPER_ERROR} --truncation: truncation {_LITERAL_ONLY}"),
    (["sweep", "--param", "alpha", "--values", "$alpha"],
     f"could not parse --values '$alpha': alpha {_LITERAL_ONLY}"),
])
def test_parameter_reference_message(capsys, argv, message):
    try:
        code = main(argv)
    except SystemExit as exit_:  # argparse refuses a flag value
        code = exit_.code
    assert code == 2
    assert capsys.readouterr().err.splitlines()[-1] == message


# `slitport paper`'s report at the default inputs, at --cb 0.6 --cc 0.8i and
# Born-sampled at seeds 1 and 7, recorded from the dense engine: every step's
# record and the run's totals
REFERENCE_RUNS = json.loads((ROOT / "tests" / "reference_runs.json").read_text(encoding="utf-8"))
_RECORD = ("name", "kind", "outcome", "probability", "checkpoint_fidelity")


def _assert_matches(got, want, where):
    """Strings, nulls and lengths equal; reals within 1e-12 absolute."""
    if isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), where
        for index, (g, w) in enumerate(zip(got, want)):
            _assert_matches(g, w, f"{where}[{index}]")
    elif isinstance(want, (int, float)):
        assert isinstance(got, (int, float)) and abs(got - want) <= 1e-12, (where, got, want)
    else:
        assert got == want, (where, got, want)


@pytest.mark.parametrize("case", REFERENCE_RUNS,
                         ids=lambda case: " ".join(case["flags"]) or "defaults")
def test_reference_run_numbers_are_pinned(tmp_path, case):
    # an engine that reorders its arithmetic still passes: a BLAS build that
    # differs in the last bits stays within 1e-12
    out = tmp_path / "report.json"
    assert main(["paper", *case["flags"], "--json", str(out)]) == 0
    report = json.loads(out.read_text(encoding="utf-8"))
    _assert_matches([[step[key] for key in _RECORD] for step in report["steps"]],
                    case["steps"], "steps")
    for key in ("cumulative_probability", "final_fidelity", "truncation_tail_mass"):
        _assert_matches(report[key], case[key], key)


@pytest.mark.parametrize("flags", [["--cb", "1", "--cc", "0"], ["--cb", "0", "--cc", "1"]],
                         ids=" ".join)
def test_basis_inputs_score_every_checkpoint(tmp_path, flags):
    # half of the terms of each checkpoint after the input carry coefficient 0
    out = tmp_path / "report.json"
    assert main(["paper", *flags, "--json", str(out)]) == 0
    report = json.loads(out.read_text(encoding="utf-8"))
    scores = [step["checkpoint_fidelity"] for step in report["steps"]
              if step["kind"] == "checkpoint"]
    assert len(scores) == 17 and min(scores + [report["final_fidelity"]]) >= 1 - 1e-9
    # every value the reference runs pin alike at both of their inputs
    default, other = REFERENCE_RUNS[:2]
    records = [[step[key] for key in _RECORD] for step in report["steps"]]
    assert len(records) == len(default["steps"])
    for index, (record, want, also) in enumerate(zip(records, default["steps"], other["steps"])):
        for key, got, a, b in zip(_RECORD, record, want, also):
            if a == b or (isinstance(a, (int, float)) and abs(a - b) <= 1e-12):
                _assert_matches(got, a, f"steps[{index}].{key}")
    for key in ("cumulative_probability", "final_fidelity"):
        _assert_matches(report[key], default[key], key)


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


_OVERFLOW = "has a mean photon number beyond float range; no Fock cutoff can hold it"


def test_overflowing_amplitude_exits_2_at_the_cavity_line(capsys, tmp_path):
    script = tmp_path / "huge.qprot"
    script.write_text("cavity C1 alpha 1e200\n")
    for command in ("check", "run"):
        assert main([command, str(script)]) == 2
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", f"line 1: amplitude 1.000e+200 {_OVERFLOW}\n")
    # the reference script injects alpha into each cavity: the reach is 2 alpha;
    # the first checkpoint's closed form holds |alpha> itself
    assert main(["paper", "--alpha", "1e200"]) == 2
    lines = [n for n, text in enumerate(REFERENCE_SCRIPT.splitlines(), 1)
             if text.startswith("cavity")]
    first = REFERENCE_SCRIPT.splitlines().index("checkpoint A1_split") + 1
    assert capsys.readouterr().err == "".join(
        f"line {n}: amplitude 2.000e+200 {_OVERFLOW}\n" for n in lines) + (
        f"line {first}: checkpoint A1_split: amplitude 1.000e+200 {_OVERFLOW}\n")


def test_sweep_records_an_overflowing_alpha(capsys):
    assert main(["sweep", "--param", "alpha", "--values", "1e160,2"]) == 0
    huge, two = json.loads(capsys.readouterr().out)["runs"]
    assert huge["error"] == f"amplitude 2.000e+160 {_OVERFLOW}"
    assert huge["final_fidelity"] is None
    assert two["error"] is None and two["final_fidelity"] >= 1 - 1e-8


def test_sweep_values_parse_as_their_flags(capsys):
    assert main(["sweep", "--param", "gt", "--values", "pi/8, 0.3"]) == 0
    assert [e["value"] for e in json.loads(capsys.readouterr().out)["runs"]] == [math.pi / 8, 0.3]
    # cc is derived from a swept cb, which must therefore be real
    assert main(["sweep", "--param", "cb", "--values=0.6,0.6+0.1i"]) == 0
    real, non_real = json.loads(capsys.readouterr().out)["runs"]
    assert real["error"] is None
    assert non_real == {"value": "0.59999999999999998+0.10000000000000001i",
                        "final_fidelity": None, "cumulative_probability": None,
                        "error": "cb value 0.59999999999999998+0.10000000000000001i is not "
                                 "real; cc needs a real cb"}


def test_a_state_past_the_budget_is_refused_before_a_run(capsys, tmp_path):
    script = tmp_path / "wide.qprot"
    script.write_text(SCENARIO.read_text().replace("config truncation 64",
                                                   "config truncation 200000"))
    line = REFERENCE_SCRIPT.splitlines().index("cavity C2 alpha $alpha truncation $truncation") + 1
    refusal = f"line {line}: the state would hold 40000000000 amplitudes, above the budget of 67108864"
    assert main(["check", str(script)]) == 2
    assert capsys.readouterr() == ("", refusal + "\n")
    assert main(["paper", "--truncation", "200000"]) == 2
    assert capsys.readouterr() == ("", refusal + "\n")
    # alpha 1e3 sizes the cutoff to its tail bound, 4020101
    assert main(["sweep", "--param", "alpha", "--values", "1e3,2"]) == 0
    wide, two = json.loads(capsys.readouterr().out)["runs"]
    assert wide["error"] == (f"line {line}: the state would hold 16160408040001 amplitudes, "
                             "above the budget of 67108864")
    assert two["error"] is None
