"""Which package names the tracer wraps, and the per-layer metrics made from its spans.

Every name is patched where its caller looks it up: the runner's calls
into ``fockspace`` and ``gates`` through the ``protocol`` module, the
oracle's gate calls through ``oracle``, and the CLI's calls through
``cli`` and ``script``.  ``fockspace.*``, ``gates.*``, ``script.*``,
``oracle.*`` and ``cli.overhead_ms`` are self times; ``protocol.*`` step
metrics are inclusive times.  Times are milliseconds per protocol run.
"""

from __future__ import annotations

import statistics
import threading
from collections import defaultdict

from spans import Tracer, self_times

FOCKSPACE = ("apply_op", "embed_controlled", "extend", "project", "drop_register",
             "label_probabilities", "rebase_register", "fidelity", "reduced_fidelity", "reorder")
GATES_IN_PROTOCOL = ("coherent_amplitudes", "coherent_tail_mass", "dispersive_lambda",
                     "displacement", "jc_unitary")
GATES_IN_ORACLE = ("coherent_amplitudes", "cat_state")
STEPS = {"split": "split_at_screen", "cavity_pass": "conditional_cavity_pass",
         "propagate": "propagate", "inject": "inject_coherent", "jc_pass": "jc_pass"}

# spans whose own time is bookkeeping rather than a layer's work
CONTAINERS = ("protocol.run",)


def _count_matrix_bytes(tracer: Tracer, args, result) -> None:
    tracer.counters["apply_op_matrix_bytes"] += args[1].matrix.nbytes


def install(tracer: Tracer) -> None:
    """Patch the package's modules; ``tracer.restore()`` undoes it."""
    from slitport import cli, oracle, protocol, script

    for name in FOCKSPACE:
        observe = _count_matrix_bytes if name == "apply_op" else None
        tracer.patch(protocol, name, f"fockspace.{name}", observe=observe)
    for name in GATES_IN_PROTOCOL:
        tracer.patch(protocol, name, f"gates.{name}")
    for name in GATES_IN_ORACLE:
        tracer.patch(oracle, name, f"gates.{name}")
    for step in STEPS.values():
        tracer.patch(protocol, step, f"protocol.{step}")
    tracer.patch(protocol.RunReport, "to_json", "protocol.report_json")
    tracer.patch(oracle, "expected_state", "oracle.expected_state")
    tracer.patch(script, "parse", "script.parse")
    tracer.patch(script, "resolve", "script.resolve")
    tracer.patch(cli, "run_protocol", "protocol.run", new_run=True)
    tracer.patch(cli, "canonical_json", "protocol.report_json")
    tracer.patch(cli, "main", "cli.main")


# (metric, unit): the per-layer metrics in the order they are reported
METRICS = (
    [("script.parse_ms", "ms"), ("script.resolve_ms", "ms")]
    + [(f"protocol.{step}_ms", "ms") for step in STEPS]
    + [("protocol.run_ms", "ms"), ("protocol.report_json_ms", "ms")]
    + [(f"fockspace.{n}_ms", "ms") for n in FOCKSPACE[:7]]
    + [("fockspace.fidelity_ms", "ms"), ("fockspace.apply_op_calls", "count"),
       ("fockspace.peak_amplitudes", "count"), ("fockspace.apply_op_matrix_mb", "MB")]
    + [(f"gates.{n}_ms", "ms") for n in
       ("dispersive_lambda", "displacement", "jc_unitary", "coherent_amplitudes", "cat_state")]
    + [("oracle.expected_state_ms", "ms"), ("oracle.expected_state_calls", "count"),
       ("cli.overhead_ms", "ms"), ("cli.sweep_run_ms", "ms"), ("cli.sweep_concurrency", "ratio"),
       ("unattributed_ms", "ms"), ("trace_overhead", "ratio")]
)


def summarize(tracer: Tracer, op_seconds: list[float], trace_overhead: float) -> dict:
    """Per-layer metrics, per protocol run, from one traced phase.

    ``op_seconds`` are the harness's wall times of the traced operations;
    time outside the outermost span counts as unattributed, together with
    the runner's own bookkeeping.
    """
    spans = tracer.spans
    own = self_times(spans)
    self_s, incl_s, calls = defaultdict(float), defaultdict(float), defaultdict(int)
    for s in spans:
        self_s[s.name] += own[s.id]
        incl_s[s.name] += s.duration
        calls[s.name] += 1
    runs = max(calls["protocol.run"], 1)
    main_thread = threading.main_thread().ident
    pooled = [s.duration for s in spans if s.name == "protocol.run" and s.thread != main_thread]
    all_runs = [s.duration for s in spans if s.name == "protocol.run"]

    def ms(total: float) -> float:
        return 1e3 * total / runs

    return {
        "script.parse_ms": ms(self_s["script.parse"]),
        "script.resolve_ms": ms(self_s["script.resolve"]),
        **{f"protocol.{step}_ms": ms(incl_s[f"protocol.{fn}"]) for step, fn in STEPS.items()},
        "protocol.run_ms": ms(incl_s["protocol.run"]),
        "protocol.report_json_ms": ms(incl_s["protocol.report_json"]),
        **{f"fockspace.{n}_ms": ms(self_s[f"fockspace.{n}"]) for n in FOCKSPACE[:7]},
        "fockspace.fidelity_ms": ms(sum(self_s[f"fockspace.{n}"] for n in FOCKSPACE[7:])),
        "fockspace.apply_op_calls": calls["fockspace.apply_op"] / runs,
        "fockspace.peak_amplitudes": tracer.peak_amplitudes,
        "fockspace.apply_op_matrix_mb": tracer.counters["apply_op_matrix_bytes"] / runs / 2**20,
        **{f"gates.{n}_ms": ms(self_s[f"gates.{n}"]) for n in
           ("dispersive_lambda", "displacement", "jc_unitary", "coherent_amplitudes", "cat_state")},
        "oracle.expected_state_ms": ms(self_s["oracle.expected_state"]),
        "oracle.expected_state_calls": calls["oracle.expected_state"] / runs,
        "cli.overhead_ms": ms(self_s["cli.main"]),
        "cli.sweep_run_ms": 1e3 * statistics.fmean(pooled or all_runs or [0.0]),
        "cli.sweep_concurrency": sum(all_runs) / max(incl_s["cli.main"], 1e-12),
        "unattributed_ms": ms(sum(self_s[n] for n in CONTAINERS)
                              + max(sum(op_seconds) - incl_s["cli.main"], 0.0)),
        "trace_overhead": trace_overhead,
    }

