"""Command-line entry point.

    slitport run SCRIPT [flags]     execute a .qprot script
    slitport check SCRIPT           parse and validate only
    slitport paper [flags]          run the built-in reference scenario
    slitport sweep --param P --values a,b,c [flags]

Exit codes: 0 success, 2 input or validation error, 3 impossible
post-selection outcome.  Reports go to stdout as a table and, with
--json PATH, to a byte-stable JSON document.
"""

from __future__ import annotations

import argparse
import os
import sys
from collections import Counter
from functools import lru_cache
from pathlib import Path

from . import protocol, script
from .fockspace import ImpossibleOutcomeError
from .gates import tail_bound_dim
from .numformat import fmt_complex, fmt_real, parse_real
from .protocol import (ProtocolError, RunReport, _run_alone, canonical_json, run_batch,
                       run_protocol)
from .scenario import REFERENCE_SCRIPT
from .script import ScriptError

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_INPUT = 2
EXIT_IMPOSSIBLE = 3


def _flag(parse, *args):
    """An argparse type from a value parser: its ValueError exits 2 with the message."""
    def convert(text: str):
        try:
            return parse(*args, text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
    return convert


def _seed(text: str) -> int:
    try:
        seed = int(text)
    except ValueError:
        raise ValueError(f"not an integer: {text!r}") from None
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    return seed


def _add_run_flags(parser: argparse.ArgumentParser) -> None:
    # each parameter flag parses as a config line's value does
    parser.add_argument("--cb", type=_flag(script.parse_param, "cb"), default=None,
                        help="input amplitude on |b> (complex literal, e.g. 0.6 or 0.5-0.5i)")
    parser.add_argument("--cc", type=_flag(script.parse_param, "cc"), default=None,
                        help="input amplitude on |c>")
    parser.add_argument("--alpha", type=_flag(script.parse_param, "alpha"), default=None,
                        help="cavity coherent amplitude")
    parser.add_argument("--truncation", type=_flag(script.parse_param, "truncation"),
                        default=None, help="Fock cutoff dimension")
    parser.add_argument("--gt", type=_flag(script.parse_param, "gt"), default=None,
                        help="probe Rabi angle (number, pi, or pi/N)")
    parser.add_argument("--json", metavar="PATH", default=None, help="write the JSON report here")
    parser.add_argument("--sample", action="store_true",
                        help="draw detection outcomes from the Born rule instead of forcing them")
    parser.add_argument("--seed", type=_flag(_seed), default=None,
                        help="non-negative seed for --sample")


def _add_threshold_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--min-fidelity", type=_flag(parse_real), default=0.0,
                        help="exit nonzero when the final fidelity falls below this")


@lru_cache(maxsize=1)  # built by main's first call, then reused
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="slitport", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute a protocol script")
    p_run.add_argument("script", help="path to a .qprot file")
    _add_run_flags(p_run)
    _add_threshold_flag(p_run)

    p_check = sub.add_parser("check", help="parse and validate a script")
    p_check.add_argument("script", help="path to a .qprot file")

    p_paper = sub.add_parser("paper", help="run the built-in scenario with all checkpoints")
    _add_run_flags(p_paper)
    _add_threshold_flag(p_paper)

    p_sweep = sub.add_parser("sweep", help="run the built-in scenario over a parameter range")
    p_sweep.add_argument("--param", required=True, choices=("alpha", "gt", "cb"))
    p_sweep.add_argument("--values", required=True,
                         help="comma-separated values, each as its flag takes it, e.g. pi/8,1")
    _add_run_flags(p_sweep)
    return parser


def _overrides(args: argparse.Namespace) -> dict:
    return {k: getattr(args, k) for k in script.PARAM_NAMES if getattr(args, k, None) is not None}


def _load_script(path: str) -> script.ProtocolScript:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except FileNotFoundError:
        raise ScriptError([(0, f"no such script file: {path}")]) from None
    except (OSError, UnicodeDecodeError) as exc:
        reason = exc.strerror if isinstance(exc, OSError) else exc
        raise ScriptError([(0, f"cannot read script file {path}: {reason}")]) from None
    return script.parse(text)


def _emit(text: str) -> None:
    """Print to stdout; a reader that closed it early loses only the text."""
    try:
        print(text, flush=True)
    except BrokenPipeError:
        # later writes, and the flush at exit, go to the null device instead
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


def _print_report(report: RunReport) -> None:
    lines = [f"{'step':<42} {'kind':<16} {'outcome':<8} {'probability':>12} {'fidelity':>12}"]
    for step in report.steps:
        prob = fmt_real(step.probability)[:12] if step.probability is not None else ""
        fid = f"{step.checkpoint_fidelity:.10f}" if step.checkpoint_fidelity is not None else ""
        lines.append(f"{step.name:<42.42} {step.kind:<16} {step.outcome or '':<8} "
                     f"{prob:>12} {fid:>12}")
    final = "n/a" if report.final_fidelity is None else fmt_real(report.final_fidelity)
    lines += ["", f"cumulative probability  {fmt_real(report.cumulative_probability)}",
              f"final fidelity          {final}",
              f"truncation tail mass    {fmt_real(report.truncation_tail_mass)}"]
    _emit("\n".join(lines))


def _write_json(path: str | None, payload: str) -> None:
    if path:
        try:
            Path(path).write_text(payload + "\n", encoding="utf-8")
        except OSError as exc:
            raise ValueError(f"cannot write --json {path}: {exc.strerror}") from None


def _execute(parsed: script.ProtocolScript, args: argparse.Namespace) -> int:
    run = script.resolve(parsed, _overrides(args))
    try:
        report = run_protocol(run.instructions, run.inputs, sample=args.sample, seed=args.seed)
    except ProtocolError as exc:
        print(exc, file=sys.stderr)
        _write_json(args.json, exc.report.to_json())
        _print_report(exc.report)
        return (EXIT_IMPOSSIBLE if isinstance(exc.cause, ImpossibleOutcomeError)
                else EXIT_INPUT)
    _write_json(args.json, report.to_json())
    _print_report(report)
    if report.final_fidelity is not None and report.final_fidelity < args.min_fidelity:
        print(f"final fidelity below threshold {args.min_fidelity}", file=sys.stderr)
        return EXIT_FAIL
    return EXIT_OK


def cmd_run(args: argparse.Namespace) -> int:
    return _execute(_load_script(args.script), args)


def cmd_check(args: argparse.Namespace) -> int:
    parsed = _load_script(args.script)
    script.resolve(parsed)
    # a valid script declares each name once
    count = Counter(cmd.keyword for cmd in parsed.commands)
    _emit(f"ok: {len(parsed.commands)} commands, {count['screen']} screens, "
          f"{count['cavity']} cavities, {count['kernel']} kernels")
    return EXIT_OK


def cmd_paper(args: argparse.Namespace) -> int:
    return _execute(script.parse(REFERENCE_SCRIPT), args)


def _sweep_overrides(param: str, value: float | complex, args: argparse.Namespace) -> dict:
    overrides = _overrides(args)
    if param == "alpha":
        overrides["alpha"] = complex(value)
        if args.truncation is None:
            # injections double the reach; size the cutoff for the swept value
            overrides["truncation"] = max(
                protocol.RunInputs.truncation, tail_bound_dim(2 * abs(value))
            )
    elif param == "gt":
        overrides["gt"] = float(value)
    else:  # cb, keeping |cb|^2 + |cc|^2 = 1
        if value.imag:
            raise ValueError(f"cb value {fmt_complex(value)} is not real; cc needs a real cb")
        if abs(value) > 1.0:
            raise ValueError(f"cb value {value} has no matching cc with cc >= 0")
        overrides["cb"] = complex(value)
        overrides["cc"] = complex((1.0 - value * value) ** 0.5)
    return overrides


def _settle(entry: dict, outcome) -> None:
    """Fill a sweep entry from a RunReport or from the error that replaced it."""
    if isinstance(outcome, RunReport):
        entry["final_fidelity"] = outcome.final_fidelity
        entry["cumulative_probability"] = outcome.cumulative_probability
        return
    entry["error"] = str(outcome)
    if isinstance(outcome, ProtocolError):
        entry["impossible"] = isinstance(outcome.cause, ImpossibleOutcomeError)


def _sweep(values: list[float | complex], args: argparse.Namespace) -> list[dict]:
    entries = [{"value": v, "final_fidelity": None, "cumulative_probability": None,
                "error": None} for v in values]
    parsed = script.parse(REFERENCE_SCRIPT)
    runs = {}  # entry index -> (its instructions without checkpoints, its inputs)
    for index, value in enumerate(values):
        try:
            run = script.resolve(parsed, _sweep_overrides(args.param, value, args))
        except ValueError as exc:
            _settle(entries[index], exc)
            continue
        # an entry prints no checkpoint score, and a checkpoint changes no
        # state and draws no random number: the runs skip them
        steps = [ins for ins in run.instructions if not isinstance(ins, protocol.Checkpoint)]
        runs[index] = (steps, run.inputs)
    if args.param == "cb" and not args.sample and runs:
        first, _ = next(iter(runs.values()))
        outcomes = run_batch(first, [inputs for _, inputs in runs.values()])
    else:
        # gates depend on alpha and gt, and a sampled outcome on the input
        outcomes = [_run_alone(steps, inputs, sample=args.sample, seed=args.seed)
                    for steps, inputs in runs.values()]
    for index, outcome in zip(runs, outcomes):
        _settle(entries[index], outcome)
    return entries


def cmd_sweep(args: argparse.Namespace) -> int:
    try:
        values = [complex(script.parse_param(args.param, v.strip()))
                  for v in args.values.split(",") if v.strip()]
    except ValueError as exc:
        raise ValueError(f"could not parse --values {args.values!r}: {exc}") from None
    if not values:
        raise ValueError("--values is empty")
    entries = _sweep([v if v.imag else v.real for v in values], args)
    impossible = any(e.pop("impossible", False) for e in entries)
    document = {"param": args.param, "runs": entries}
    payload = canonical_json(document)
    _write_json(args.json, payload)
    _emit(payload)
    if any(e["error"] is None for e in entries):
        return EXIT_OK
    return EXIT_IMPOSSIBLE if impossible else EXIT_INPUT


# value flags whose value may start with '-'; argparse reads such a token as
# an option unless it looks like a plain negative number
_VALUE_FLAGS = ("--cb", "--cc", "--alpha", "--gt", "--values")


def _attach_dash_values(argv: list[str]) -> list[str]:
    """Rewrite ``FLAG -VALUE`` as ``FLAG=-VALUE`` for the value flags."""
    out: list[str] = []
    for token in argv:
        if out and out[-1] in _VALUE_FLAGS and token.startswith("-") \
                and not token.startswith("--"):
            out[-1] = f"{out[-1]}={token}"
        else:
            out.append(token)
    return out


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = build_parser().parse_args(_attach_dash_values(argv))
    handlers = {"run": cmd_run, "check": cmd_check, "paper": cmd_paper, "sweep": cmd_sweep}
    try:
        return handlers[args.command](args)
    except ValueError as exc:  # a ScriptError too: a bad script, flag value or path
        print(exc, file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
