"""Seeded mutations of the reference script: validation is the only gate.

A mutation deletes, duplicates or swaps lines, swaps one token for a
token from a pool (every token of the reference script, the ``$``
references, the angle forms and extreme numbers), or inserts a whole
line from a pool of extreme commands.  Under warnings as errors, every
mutant either fails ``resolve`` with a ``ScriptError`` or runs
post-selected to a report, where the only failure left is an impossible
outcome: ``check`` passing means ``run`` cannot exit 2.  The same
mutants, written to a file and given to the CLI, exit only with the
documented codes.  And on the mutants that resolve, the validator's mirror
of the live registers, which its budget and checkpoint checks read,
equals the runner's register list after every step.
"""

import contextlib
import io
import warnings

from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from slitport.cli import main
from slitport.fockspace import ImpossibleOutcomeError
from slitport.protocol import ProtocolError, _Runner, run_protocol
from slitport.scenario import REFERENCE_SCRIPT
from slitport.script import PARAM_NAMES, ScriptError, _Validator, parse, resolve, resolve_inputs

LINES = REFERENCE_SCRIPT.splitlines()
EXTREMES = ("0", "-1", "1e-300", "1e200", "1e308", "inf", "nan", "2+1i")
TOKENS = sorted({token for line in LINES for token in line.split("#", 1)[0].split()}
                | {f"${name}" for name in PARAM_NAMES}
                | {"pi", "pi/8", "pi/0", "0.5"} | set(EXTREMES))
EXTREME_LINES = (
    "config alpha 1e-300",
    "config alpha 0",
    "config gt 1e308",
    "kernel K [1e200]",
    "kernel SC2 [1e200 0; 0 0]",
    "cavity C3 alpha 1e200",
    "inject C1 1e308",
    "pass A1 SC1 phi 1e308",
    "jcpass A51 C1 gt 1e308",
    "atom A1_path qubit2 state f",
    "checkpoint A12_pre_SC3",
    "checkpoint POST_JC",
)


def mutate(lines: list[str], kind: str, i: int, j: int, token: str) -> list[str]:
    """One mutation; the indices wrap around the current line count."""
    lines = list(lines)
    if not lines:
        return [EXTREME_LINES[i % len(EXTREME_LINES)]]
    i, j = i % len(lines), j % len(lines)
    if kind == "delete":
        del lines[i]
    elif kind == "duplicate":
        lines.insert(j, lines[i])
    elif kind == "swap":
        lines[i], lines[j] = lines[j], lines[i]
    elif kind == "token":
        words = lines[i].split() or [token]
        words[j % len(words)] = token
        lines[i] = " ".join(words)
    else:  # insert
        lines.insert(j, EXTREME_LINES[i % len(EXTREME_LINES)])
    return lines


MUTATIONS = st.lists(
    st.tuples(st.sampled_from(("delete", "duplicate", "swap", "token", "insert")),
              st.integers(0, 200), st.integers(0, 200), st.sampled_from(TOKENS)),
    min_size=1, max_size=3,
)


def mutant(mutations) -> str:
    lines = LINES
    for mutation in mutations:
        lines = mutate(lines, *mutation)
    return "\n".join(lines) + "\n"


def _at(line: str) -> int:
    return LINES.index(line)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(MUTATIONS)
# one mutant of each class that once validated and then failed or warned
@example([("swap", _at("checkpoint A1_split"), _at("cavity C1 alpha $alpha truncation $truncation"),
           "0")])  # a checkpoint before its registers exist
@example([("swap", _at("checkpoint A12_pre_SC3"), _at("propagate A1 SC3"), "0")])  # relabelled
@example([("token", _at("config alpha 2"), 2, "1e-300")])  # the odd cat underflows
@example([("token", _at("config gt pi/8"), 2, "1e308")])  # gt·√n overflows
@example([("token", _at("pass A1 SC1 phi pi"), 4, "1e308")])  # phi·n overflows
@example([("insert", EXTREME_LINES.index("kernel K [1e200]"), 8, "0")])  # its norm overflows
@example([("insert", EXTREME_LINES.index("atom A1_path qubit2 state f"),
           _at("pass A1 SC1 phi pi"), "0")])  # an atom named like a live path register
def test_a_validated_mutant_runs_or_meets_an_impossible_outcome(mutations):
    text = mutant(mutations)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            run = resolve(parse(text))
        except ScriptError:
            return
        try:
            run_protocol(run.instructions, run.inputs)
        except ProtocolError as exc:
            assert isinstance(exc.cause, ImpossibleOutcomeError), (text, exc)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(MUTATIONS)
def test_the_cli_exits_with_a_documented_code(tmp_path_factory, mutations):
    # check exits 0 or 2; a post-selected run exits 0, 2 or 3 and raises
    # nothing; a run that exits 2 has a check that exits 2
    path = tmp_path_factory.getbasetemp() / "mutant.qprot"
    path.write_text(mutant(mutations), encoding="utf-8")
    codes = {}
    with warnings.catch_warnings(), contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        warnings.simplefilter("error")
        for command in ("check", "run"):
            codes[command] = main([command, str(path)])
    assert codes["check"] in (0, 2), codes
    assert codes["run"] in (0, 2, 3), codes
    assert codes["run"] != 2 or codes["check"] == 2, codes


class _MirroredValidator(_Validator):
    """Records the live registers each time a command is lowered to a step."""

    def __init__(self, *args):
        super().__init__(*args)
        self.mirrors = []

    def _budget(self, factor: int = 1) -> None:
        super()._budget(factor)
        if len(self.mirrors) < len(self.instructions):
            self.mirrors.append(tuple(self.live.values()))


# about three mutants in four fail to resolve, and only the rest count
@settings(max_examples=50, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.filter_too_much])
@given(MUTATIONS)
@example([])  # the reference script itself
def test_the_validator_mirrors_the_runner_registers(mutations):
    try:
        script = parse(mutant(mutations))
        validator = _MirroredValidator(script, resolve_inputs(script))
        run = validator.run()
    except ScriptError:
        assume(False)  # only mutants that resolve count towards the examples
    assert len(validator.mirrors) == len(run.instructions)
    runner = _Runner([run.inputs], sample=False, seed=None)
    for ins, live in zip(run.instructions, validator.mirrors):
        try:
            runner.execute(ins)
        except ImpossibleOutcomeError:
            return  # the only failure a resolved mutant may meet
        assert runner.state.registers == live, ins.text
