"""Tests of the benchmark harness itself: inputs, self times, checks, patch clean-up."""

import json
import sys
import threading
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import layers  # noqa: E402
from run import Harness, tail  # noqa: E402
from spans import Span, Tracer, covered, self_times  # noqa: E402
from workloads import WORKLOADS, Paper, Sampled  # noqa: E402

from slitport import cli, oracle, protocol, script  # noqa: E402


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_same_inputs(name, tmp_path):
    def argvs(seed):
        w = WORKLOADS[name](seed, tmp_path)
        return [w.argv(i) for i in range(20)]

    assert argvs(7) == argvs(7)
    assert argvs(7) != argvs(8)


def test_paper_inputs_are_normalized(tmp_path):
    w = Paper(3, tmp_path)
    for i in range(10):
        w.argv(i)
        cb, cc = w.inputs[i]
        assert abs(abs(cb) ** 2 + abs(cc) ** 2 - 1.0) < 1e-12


def span(id, start, end, parent=None, thread=1, name="x"):
    return Span(id, name, start, end, parent, None, thread)


def test_self_time_nested():
    spans = [span(1, 0.0, 10.0), span(2, 1.0, 4.0, 1), span(3, 2.0, 3.0, 2), span(4, 5.0, 6.0, 1)]
    own = self_times(spans)
    assert own == pytest.approx({1: 6.0, 2: 2.0, 3: 1.0, 4: 1.0})
    assert sum(own.values()) == pytest.approx(10.0)


def test_self_time_two_threads_overlapping_children():
    # a root on thread 1 waits while two workers on threads 2 and 3 overlap
    spans = [span(1, 0.0, 10.0), span(2, 1.0, 6.0, 1, thread=2),
             span(3, 3.0, 8.0, 1, thread=3), span(4, 4.0, 5.0, 3, thread=3)]
    own = self_times(spans)
    assert own[1] == pytest.approx(3.0)  # 0-1 and 8-10 uncovered
    assert own[3] == pytest.approx(4.0)
    assert covered(0.0, 10.0, [(-5.0, 1.0), (9.0, 20.0)]) == pytest.approx(2.0)


def test_tracer_parents_pool_threads_to_the_open_root():
    tracer = Tracer()

    class Box:
        @staticmethod
        def leaf():
            return None

        @staticmethod
        def root():
            worker = threading.Thread(target=Box.leaf)
            worker.start()
            worker.join(timeout=10)
            Box.leaf()

    tracer.patch(Box, "leaf", "leaf")
    tracer.patch(Box, "root", "root")
    Box.root()
    tracer.restore()
    root = next(s for s in tracer.spans if s.name == "root")
    leaves = [s for s in tracer.spans if s.name == "leaf"]
    assert len(leaves) == 2
    assert {s.parent for s in leaves} == {root.id}
    assert len({s.thread for s in leaves}) == 2


def test_tail_percentile():
    assert tail([1.0, 2.0, 3.0, 4.0]) == (2.5, 50)
    values = [float(i) for i in range(1, 101)]
    value, pct = tail(values)
    assert pct == 90 and value == 90.0
    assert sum(v > value for v in values) >= 10


class FakeCli:
    """Stands in for slitport.cli: writes a given report and returns a given code."""

    def __init__(self, code, report):
        self.code, self.report = code, report

    def main(self, argv):
        if self.report is not None:
            Path(argv[argv.index("--json") + 1]).write_text(json.dumps(self.report))
        return self.code


def good_paper_report(cb, cc, fidelity=1.0):
    steps = [{"name": n, "kind": "checkpoint", "outcome": n, "probability": None,
              "checkpoint_fidelity": fidelity} for n in oracle.CHECKPOINTS]
    return {"steps": steps, "cumulative_probability": 9.0352889675124337e-4,
            "final_fidelity": fidelity, "truncation_tail_mass": 0.0,
            "inputs": {"cb": f"{cb.real!r}{cb.imag:+}i", "cc": f"{cc.real!r}{cc.imag:+}i"}}


@pytest.mark.parametrize("code,fidelity,failed", [(0, 1.0, 0), (0, 0.99, 1), (1, 1.0, 1)])
def test_bad_report_counts_as_failure(tmp_path, code, fidelity, failed):
    workload = Paper(1, tmp_path)
    workload.argv(0)
    report = good_paper_report(*workload.inputs[0], fidelity=fidelity)
    harness = Harness(workload, FakeCli(code, report), tmp_path)
    harness.op()
    assert harness.attempted == 1
    assert len(harness.failures) == failed


def test_missing_malformed_report_and_crash_count_as_failures(tmp_path):
    class Crashing:
        @staticmethod
        def main(argv):
            raise RuntimeError("boom")

    harness = Harness(Paper(1, tmp_path), FakeCli(0, None), tmp_path)
    harness.op()
    harness.cli = FakeCli(0, {"steps": None})
    harness.op()
    harness.cli = Crashing
    harness.op()
    assert harness.attempted == 3 and len(harness.failures) == 3


def _public_attributes():
    modules = (cli, oracle, protocol, script)
    snapshot = {(m.__name__, k): v for m in modules for k, v in vars(m).items()}
    snapshot[("RunReport", "to_json")] = vars(protocol.RunReport)["to_json"]
    return snapshot


def test_traced_run_restores_every_patched_name(tmp_path):
    before = _public_attributes()
    workload = Sampled(5, tmp_path)
    harness = Harness(workload, cli, tmp_path)
    with Tracer() as tracer:
        layers.install(tracer)
        patched = len(tracer._patched)
        assert cli.main is not before[("slitport.cli", "main")]
        harness.op()
    assert patched > 20 and not tracer.absent
    assert harness.failures == [] and tracer.spans
    assert _public_attributes() == before
    values = layers.summarize(tracer, [1.0], 1.0)
    assert values["fockspace.apply_op_calls"] == 12
    assert values["oracle.expected_state_calls"] == 0


def test_absent_name_is_recorded_not_raised():
    class Owner:
        pass

    tracer = Tracer()
    tracer.patch(Owner, "embed_controlled", "fockspace.embed_controlled")
    assert tracer.absent == ["Owner.embed_controlled"]
    tracer.restore()


def test_benchmark_json_matches_what_the_harness_prints():
    from run import END_TO_END

    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(layers.METRICS)
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
