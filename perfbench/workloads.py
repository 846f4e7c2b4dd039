"""The four workloads: inputs generated from a seed, and the check of every output.

Each workload is an endless, seeded sequence of CLI argument lists.  An
operation is one ``slitport`` invocation; ``check`` reads the report it
wrote and returns the list of broken expectations (empty when correct).
"""

from __future__ import annotations

import json
import math
import random
from pathlib import Path

FIDELITY_FLOOR = 1.0 - 1e-9
# README value of the chain's post-selection probability at alpha=2, T=64
REFERENCE_PROBABILITY = 9.0352889675e-4
PROBABILITY_RTOL = 1e-9
CHECKPOINT_COUNT = 17
SWEEP_SIZE = 8
SAMPLE_SEEDS = 16


def fmt_complex(z: complex) -> str:
    return f"{z.real:.17g}{z.imag:+.17g}i"


def parse_report_complex(text: str) -> complex:
    return complex(text.replace("i", "j"))


def _rel_close(a: float, b: float, rtol: float) -> bool:
    return abs(a - b) <= rtol * abs(b)


def random_inputs(rng: random.Random) -> tuple[complex, complex]:
    """A normalized complex pair (cb, cc), uniform on the unit 3-sphere."""
    cb, cc = (complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(2))
    norm = math.sqrt(abs(cb) ** 2 + abs(cc) ** 2)
    return cb / norm, cc / norm


class Workload:
    """Seeded operation sequence plus output checks for one workload."""

    name = ""
    runs_per_op = 1

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        self.rng = random.Random(f"{self.name}/{seed}")
        self.inputs: list = []

    def output(self, index: int) -> Path:
        return self.workdir / f"{self.name}-{index}.json"

    def argv(self, index: int) -> list[str]:
        """Arguments of operation ``index``; inputs are drawn in index order."""
        while len(self.inputs) <= index:
            self.inputs.append(self.draw())
        return self.build(self.inputs[index], str(self.output(index)))

    def draw(self):
        raise NotImplementedError

    def build(self, inputs, out: str) -> list[str]:
        raise NotImplementedError

    def check(self, index: int, code, text: str | None) -> list[str]:
        """Problems with operation ``index``, given its exit code and report text."""
        if code != 0:
            return [f"exit code {code}"]
        if text is None:
            return ["no report written"]
        try:
            return self.check_report(self.inputs[index], json.loads(text), text)
        except (ValueError, KeyError, TypeError) as exc:
            return [f"malformed report: {exc!r}"]

    def check_report(self, inputs, report: dict, text: str) -> list[str]:
        raise NotImplementedError


class Paper(Workload):
    """``slitport paper`` at alpha=2, T=64 with a random input pair per call."""

    name = "paper"
    flags: list[str] = []
    expected_probability: float | None = REFERENCE_PROBABILITY

    def draw(self):
        return random_inputs(self.rng)

    def build(self, inputs, out):
        cb, cc = inputs
        return ["paper", *self.flags, f"--cb={fmt_complex(cb)}", f"--cc={fmt_complex(cc)}",
                "--json", out]

    def check_report(self, inputs, report, text):
        problems = []
        fidelities = [s["checkpoint_fidelity"] for s in report["steps"]
                      if s["kind"] == "checkpoint"]
        if len(fidelities) != CHECKPOINT_COUNT:
            problems.append(f"{len(fidelities)} checkpoints, expected {CHECKPOINT_COUNT}")
        low = [f for f in fidelities if f is None or f < FIDELITY_FLOOR]
        if low:
            problems.append(f"checkpoint fidelity below floor: {low}")
        final = report["final_fidelity"]
        if final is None or final < FIDELITY_FLOOR:
            problems.append(f"final fidelity {final}")
        for key, want in zip(("cb", "cc"), inputs):
            if abs(parse_report_complex(report["inputs"][key]) - want) > 1e-15:
                problems.append(f"report input {key}={report['inputs'][key]} is not {want}")
        problems += self.check_probability(report["cumulative_probability"])
        return problems

    def check_probability(self, value: float) -> list[str]:
        # the chain's probability does not depend on the input pair
        if self.expected_probability is None:
            self.expected_probability = value
        if not _rel_close(value, self.expected_probability, PROBABILITY_RTOL):
            return [f"cumulative probability {value!r} != {self.expected_probability!r}"]
        return []


class Tailbound(Paper):
    """The same run at alpha=5 with T=201, the tail-bound cutoff for amplitude 10."""

    name = "tailbound"
    flags = ["--alpha", "5", "--truncation", "201"]
    expected_probability = None


class CbSweep(Paper):
    """``slitport sweep --param cb`` over a seeded list of values in [-1, 1]."""

    name = "cb_sweep"
    runs_per_op = SWEEP_SIZE

    def draw(self):
        return [self.rng.uniform(-1.0, 1.0) for _ in range(SWEEP_SIZE)]

    def build(self, inputs, out):
        # '=' keeps argparse from reading a leading '-' as an option
        return ["sweep", "--param", "cb", "--values=" + ",".join(repr(v) for v in inputs),
                "--json", out]

    def check_report(self, inputs, report, text):
        runs = report["runs"]
        if report["param"] != "cb" or [r["value"] for r in runs] != inputs:
            return [f"sweep values {[r['value'] for r in runs]} are not {inputs}"]
        problems = []
        for entry in runs:
            if entry["error"] is not None:
                problems.append(f"cb={entry['value']}: {entry['error']}")
                continue
            final = entry["final_fidelity"]
            if final is None or final < FIDELITY_FLOOR:
                problems.append(f"cb={entry['value']}: final fidelity {final}")
            problems += self.check_probability(entry["cumulative_probability"])
        return problems


def sampled_script(reference: str) -> str:
    """The reference scenario with its checkpoint lines removed."""
    lines = [line for line in reference.splitlines() if not line.startswith("checkpoint")]
    return "\n".join(lines) + "\n"


class Sampled(Workload):
    """``slitport run SCRIPT --sample --seed S``: Born-sampled, no oracle.

    Seeds cycle through a seeded pool, so every report after the first
    pass must repeat an earlier one byte for byte.
    """

    name = "sampled"

    def __init__(self, seed: int, workdir: Path):
        from slitport.scenario import REFERENCE_SCRIPT

        super().__init__(seed, workdir)
        self.seeds = [self.rng.randrange(2**31) for _ in range(SAMPLE_SEEDS)]
        self.script = workdir / "sampled.qprot"
        self.script.write_text(sampled_script(REFERENCE_SCRIPT), encoding="utf-8")
        self.reports: dict[int, str] = {}

    def draw(self):
        return self.seeds[len(self.inputs) % SAMPLE_SEEDS]

    def build(self, inputs, out):
        return ["run", str(self.script), "--sample", "--seed", str(inputs), "--json", out]

    def check_report(self, inputs, report, text):
        problems = []
        if any(s["kind"] == "checkpoint" for s in report["steps"]):
            problems.append("checkpoint step in a script without checkpoints")
        product = 1.0
        for step in report["steps"]:
            if step["probability"] is not None:
                product *= step["probability"]
        if not _rel_close(report["cumulative_probability"], product, 1e-12):
            problems.append(f"cumulative probability {report['cumulative_probability']!r} "
                            f"!= product of step probabilities {product!r}")
        first = self.reports.setdefault(inputs, text)
        if first != text:
            problems.append(f"seed {inputs}: report differs from an earlier run with that seed")
        return problems


WORKLOADS = {w.name: w for w in (Paper, Tailbound, CbSweep, Sampled)}
