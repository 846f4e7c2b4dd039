"""The experiment layer: screens, cavity passes, detections, probe reads.

A run owns one CompositeState and walks a resolved instruction list:
atoms split across a two-slit screen, pick up a cavity-conditioned phase,
get detected (post-selected by default, Born-sampled on request),
propagate through configurable kernels, and finally two probe atoms read
the cavities out.  Every step leaves a record; the report carries the
cumulative post-selection probability and the fidelity of the teleported
path state.
"""

from __future__ import annotations

import cmath
import json
import math
from dataclasses import dataclass

import numpy as np

from . import oracle
from .fockspace import (
    IMPOSSIBLE_OUTCOME_THRESHOLD,
    CompositeState,
    ImpossibleOutcomeError,
    Register,
    RegisterError,
    TruncationError,
    apply_op,
    basis_column,
    drop_register,
    embed_controlled,
    extend,
    fidelity,  # noqa: F401  (perfbench patches it by this module's name)
    label_probabilities,
    product_fidelity,
    project,
    rebase_register,
    reduced_fidelity,
    reorder,  # noqa: F401  (perfbench patches it by this module's name)
)
from .gates import (
    coherent_amplitudes,
    coherent_tail_mass,
    dispersive_lambda,
    displacement,
    jc_unitary,
)
from .numformat import fmt_complex, fmt_real

INJECTION_TAIL_LIMIT = 1e-8

DEFAULT_ALPHA = 2.0
DEFAULT_TRUNCATION = 64
DEFAULT_GT = math.pi / 8


class ProtocolError(RuntimeError):
    """A step failed; carries the partial run report."""

    def __init__(self, message: str, report: "RunReport | None" = None,
                 cause: Exception | None = None):
        super().__init__(message)
        self.report = report
        self.cause = cause


# ---------------------------------------------------------------------------
# layout


@dataclass(frozen=True)
class ScreenSpec:
    name: str
    slits: tuple[str, str]


@dataclass(frozen=True)
class CavitySpec:
    name: str
    alpha: complex
    truncation: int


@dataclass(frozen=True, eq=False)
class KernelSpec:
    """A named propagation matrix; rows are target labels, columns sources."""

    name: str
    target_labels: tuple[str, ...]
    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        if m.ndim != 2 or m.shape[0] != len(self.target_labels):
            raise RegisterError(f"kernel {self.name}: matrix shape {m.shape} does not "
                                f"match {len(self.target_labels)} target labels")
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)


@dataclass(frozen=True, eq=False)
class PropagationKernel:
    """Amplitudes for free flight between screens: matrix[target][source].

    Columns may have norm below one; missing flux is simply never
    detected downstream.
    """

    source_labels: tuple[str, ...]
    target_labels: tuple[str, ...]
    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        if m.shape != (len(self.target_labels), len(self.source_labels)):
            raise RegisterError(
                f"kernel matrix shape {m.shape} does not map "
                f"{len(self.source_labels)} sources onto {len(self.target_labels)} targets"
            )
        norms = np.linalg.norm(m, axis=0)
        if np.any(norms > 1.0 + 1e-12):
            raise RegisterError(f"kernel column exceeds unit norm (max {norms.max():.12f})")
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)


@dataclass(frozen=True)
class ExperimentLayout:
    screens: tuple[ScreenSpec, ...]
    cavities: tuple[CavitySpec, ...]
    bindings: tuple[tuple[str, str], ...]  # slit label -> cavity name
    kernels: tuple[KernelSpec, ...]

    def screen(self, name: str) -> ScreenSpec:
        for s in self.screens:
            if s.name == name:
                return s
        raise RegisterError(f"no screen named {name!r}")

    def cavity(self, name: str) -> CavitySpec:
        for c in self.cavities:
            if c.name == name:
                return c
        raise RegisterError(f"no cavity named {name!r}")

    def kernel(self, name: str) -> KernelSpec:
        for k in self.kernels:
            if k.name == name:
                return k
        raise RegisterError(f"no kernel named {name!r}")

    def cavity_behind(self, slit: str) -> str:
        for label, cavity in self.bindings:
            if label == slit:
                return cavity
        raise RegisterError(f"slit {slit} has no cavity")


# ---------------------------------------------------------------------------
# instructions (produced by script.validate, or built directly in tests)


@dataclass(frozen=True)
class DeclareCavity:
    name: str
    alpha: complex
    truncation: int
    text: str = ""


@dataclass(frozen=True)
class DeclareAtom:
    name: str
    kind: str  # lambda3 | qubit2
    state: str  # basis label, or "input" for the (cb, -cc) preparation
    text: str = ""


@dataclass(frozen=True)
class Split:
    atom: str
    screen: str
    text: str = ""


@dataclass(frozen=True)
class CavityPass:
    atom: str
    screen: str
    phi: float
    text: str = ""


@dataclass(frozen=True)
class Detect:
    atom: str
    which: str  # internal | position
    label: str
    text: str = ""


@dataclass(frozen=True)
class Propagate:
    atom: str
    kernel: str
    text: str = ""


@dataclass(frozen=True)
class Inject:
    cavity: str
    beta: complex
    text: str = ""


@dataclass(frozen=True)
class JcPass:
    atom: str
    cavity: str
    gt: float
    text: str = ""


@dataclass(frozen=True)
class Checkpoint:
    name: str
    text: str = ""


# ---------------------------------------------------------------------------
# inputs and report


@dataclass(frozen=True)
class RunInputs:
    """Teleportation input amplitudes and field parameters."""

    cb: complex = 1.0 / math.sqrt(2.0)
    cc: complex = 1.0 / math.sqrt(2.0)
    alpha: complex = DEFAULT_ALPHA
    truncation: int = DEFAULT_TRUNCATION
    gt: float = DEFAULT_GT

    def __post_init__(self):
        for name in ("cb", "cc", "alpha", "gt"):
            value = getattr(self, name)
            if not cmath.isfinite(value):
                raise ValueError(f"{name} must be a finite number, got {value}")
        deviation = abs(abs(self.cb) ** 2 + abs(self.cc) ** 2 - 1.0)
        if deviation > 1e-9:
            raise ValueError(
                f"|cb|^2 + |cc|^2 must be 1 (off by {deviation:.3e}); "
                "the teleported state is a normalized path qubit"
            )
        if self.truncation < 2:
            raise ValueError("truncation must be at least 2")

    def to_dict(self) -> dict:
        return {
            "cb": complex(self.cb),
            "cc": complex(self.cc),
            "alpha": complex(self.alpha),
            "truncation": int(self.truncation),
            "gt": float(self.gt),
        }


@dataclass(frozen=True)
class StepRecord:
    name: str
    kind: str
    outcome: str | None = None
    probability: float | None = None
    checkpoint_fidelity: float | None = None

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "kind": self.kind,
            "outcome": self.outcome,
            "probability": self.probability,
            "checkpoint_fidelity": self.checkpoint_fidelity,
        }


@dataclass(frozen=True)
class RunReport:
    steps: tuple[StepRecord, ...]
    cumulative_probability: float
    final_fidelity: float | None
    truncation_tail_mass: float
    inputs: RunInputs

    def to_dict(self) -> dict:
        return {
            "steps": [s.to_dict() for s in self.steps],
            "cumulative_probability": self.cumulative_probability,
            "final_fidelity": self.final_fidelity,
            "truncation_tail_mass": self.truncation_tail_mass,
            "inputs": self.inputs.to_dict(),
        }

    def to_json(self) -> str:
        return canonical_json(self.to_dict())


def canonical_json(value, indent: int = 0) -> str:
    """Deterministic JSON: insertion-ordered keys, 17-significant-digit reals."""
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if isinstance(value, dict):
        if not value:
            return "{}"
        rows = [f'{inner}{json.dumps(str(k))}: {canonical_json(v, indent + 1)}'
                for k, v in value.items()]
        return "{\n" + ",\n".join(rows) + "\n" + pad + "}"
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        rows = [f"{inner}{canonical_json(v, indent + 1)}" for v in value]
        return "[\n" + ",\n".join(rows) + "\n" + pad + "]"
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return fmt_real(float(value))
    if isinstance(value, complex):
        return json.dumps(fmt_complex(value))
    if isinstance(value, str):
        return json.dumps(value)
    raise TypeError(f"cannot serialize {type(value)!r}")


# ---------------------------------------------------------------------------
# single-step operations


def path_name(atom: str) -> str:
    return f"{atom}_path"


def split_at_screen(state: CompositeState, atom: str, screen: ScreenSpec) -> CompositeState:
    """Send an atom through a two-slit screen: equal superposition of slits."""
    if len(screen.slits) != 2:
        raise RegisterError(f"screen {screen.name} must have exactly 2 slits")
    name = path_name(atom)
    if name in state.names:
        raise RegisterError(f"atom {atom} is already split")
    amp = np.full(2, 1.0 / math.sqrt(2.0), dtype=complex)
    return extend(state, Register.path(name, screen.slits), amp)


def conditional_cavity_pass(
    state: CompositeState,
    atom: str,
    screen: ScreenSpec,
    phi: float,
    layout: ExperimentLayout,
) -> CompositeState:
    """Dispersive pass behind a screen: each slit drives its own cavity.

    Applies the three-level gate on (atom internal, cavity mode),
    controlled on the atom's path being at the bound slit.  Unitary
    overall.
    """
    path = state.register(path_name(atom))
    if path.labels != screen.slits:
        raise RegisterError(
            f"atom {atom} path basis {path.labels} is not screen {screen.name}'s slits"
        )
    for slit in screen.slits:
        cavity = layout.cavity_behind(slit)
        mode = state.register(cavity)
        gate = dispersive_lambda(phi, mode.dim).on(atom, cavity)
        state = apply_op(state, embed_controlled(path, slit, gate))
    return state


def detect(state: CompositeState, register: str, label: str) -> tuple[CompositeState, float]:
    """Detect one register at a basis label and retire it.

    Returns the renormalized remaining state and the squared norm of the
    detected branch; a dead branch raises ImpossibleOutcomeError.
    """
    projected, probability = project(state, register, label)
    return drop_register(projected, register), probability


def propagate(state: CompositeState, atom: str, kernel: PropagationKernel) -> CompositeState:
    """Rebase an atom's path register through a propagation kernel.

    Sub-unitary kernels shed undetected flux; the state is renormalized
    only at the next detection.
    """
    name = path_name(atom)
    current = state.register(name)
    if current.labels != kernel.source_labels:
        raise RegisterError(
            f"atom {atom} path basis {current.labels} does not match kernel "
            f"sources {kernel.source_labels}"
        )
    target = Register.path(name, kernel.target_labels)
    return rebase_register(state, name, kernel.matrix, target)


def inject_coherent(state: CompositeState, cavity: str,
                    beta: complex) -> tuple[CompositeState, float]:
    """Displace a cavity mode by beta (coherent drive injection).

    Returns the displaced state and its weight at the Fock cutoff.
    """
    mode = state.register(cavity)
    out = apply_op(state, displacement(beta, mode.dim).on(cavity))
    top = float(label_probabilities(out, cavity)[-1])
    if top > INJECTION_TAIL_LIMIT:
        raise TruncationError(
            f"injection into {cavity} leaves {top:.3e} probability at the Fock cutoff; "
            "raise the truncation"
        )
    return out, top


def jc_pass(state: CompositeState, probe: str, cavity: str, gt: float) -> CompositeState:
    """Resonant probe-cavity interaction for a Rabi angle gt."""
    if state.register(probe).kind != "qubit2":
        raise RegisterError(f"jc pass needs a two-level probe, {probe} is not one")
    mode = state.register(cavity)
    return apply_op(state, jc_unitary(gt, mode.dim).on(probe, cavity))


# ---------------------------------------------------------------------------
# the runner


_KIND_BY_DETECT = {"lambda3": "detect_internal", "qubit2": "detect_probe"}

# A batched run prepares the input atom entangled with this spectator axis,
# |b> on label b and -|c> on label c, and keeps it first in the register
# list.  Every step is linear in (cb, cc), so an input's state is cb times
# column b plus cc times column c.  Its kind is none of path, atom or mode,
# and its name is no script identifier, so nothing else can address it.
_BASIS = Register("input basis", "basis", ("b", "c"))


class _Lane:
    """One input's share of a run: its records, probabilities and tail mass."""

    def __init__(self, inputs: RunInputs):
        self.inputs = inputs
        self.coeffs = np.array([inputs.cb, inputs.cc], dtype=complex)
        self.records: list[StepRecord] = []
        self.cumulative = 1.0
        self.tail_mass = 0.0
        # squared norm of this input's combination of the basis columns right
        # after the last detection; a column starts with norm 1/sqrt(2)
        self.weight = 0.5
        self.failed = False

    def report(self, final_fidelity: float | None = None) -> RunReport:
        return RunReport(
            steps=tuple(self.records),
            cumulative_probability=self.cumulative,
            final_fidelity=final_fidelity,
            truncation_tail_mass=self.tail_mass,
            inputs=self.inputs,
        )


class _Runner:
    """Walks one instruction list for one input, or for a batch of inputs.

    A batch (more than one lane) carries the _BASIS axis once the input atom
    is declared; each lane reads its probabilities off the Gram matrix of
    the basis columns and scores checkpoints on its own combination of them.
    """

    def __init__(self, layout: ExperimentLayout, inputs, sample: bool, seed: int | None):
        self.layout = layout
        self.lanes = [_Lane(item) for item in inputs]
        self.batched = len(self.lanes) > 1
        self.state = CompositeState((), np.ones(1, dtype=complex))
        self.rng = np.random.default_rng(seed) if sample else None

    def live(self) -> list[_Lane]:
        return [lane for lane in self.lanes if not lane.failed]

    def run(self, instructions) -> list[RunReport | None]:
        """One report per lane; in a batch, a lane that failed gives None."""
        for ins in instructions:
            try:
                self.execute(ins)
            except (ImpossibleOutcomeError, TruncationError, RegisterError, ValueError) as exc:
                if not self.batched:
                    raise ProtocolError(
                        f"step failed ({ins.text or type(ins).__name__}): {exc}",
                        report=self.lanes[0].report(),
                        cause=exc,
                    ) from exc
                # a shared step failed: every lane is rerun on its own
                for lane in self.lanes:
                    lane.failed = True
            if not self.live():
                break
        return [None if lane.failed else lane.report(self.final_fidelity(lane))
                for lane in self.lanes]

    def _has_basis(self) -> bool:
        return self.state.registers[:1] == (_BASIS,)

    def _view(self, lane: _Lane) -> CompositeState:
        """The state a single run of this lane's input would hold now."""
        if not self._has_basis():
            return self.state
        columns = self.state.amplitudes.reshape(2, -1)
        amps = (lane.coeffs @ columns) / math.sqrt(lane.weight)
        return CompositeState(self.state.registers[1:], amps)

    def _lane_weights(self, tensor: np.ndarray) -> list[float]:
        """c^H G c for each live lane, G the Gram matrix of tensor's basis columns."""
        columns = tensor.reshape(2, -1)
        gram = columns.conj() @ columns.T
        return [float(np.real(lane.coeffs.conj() @ gram @ lane.coeffs)) for lane in self.live()]

    def _record(self, step: StepRecord) -> None:
        for lane in self.live():
            lane.records.append(step)

    def final_fidelity(self, lane: _Lane) -> float | None:
        paths = [r for r in self.state.registers if r.kind == "path" and r.dim == 2]
        if len(paths) != 1:
            return None
        reg = paths[0]
        target = CompositeState((reg,), np.array([lane.inputs.cb, lane.inputs.cc]))
        return reduced_fidelity(self._view(lane), (reg.name,), target)

    def execute(self, ins) -> None:
        if isinstance(ins, DeclareCavity):
            vec = coherent_amplitudes(ins.alpha, ins.truncation)
            tail = coherent_tail_mass(ins.alpha, ins.truncation)
            for lane in self.live():
                lane.tail_mass = max(lane.tail_mass, tail)
            self.state = extend(self.state, Register.mode(ins.name, ins.truncation), vec)
            self._record(StepRecord(ins.text or f"cavity {ins.name}", "declare"))
        elif isinstance(ins, DeclareAtom):
            self._declare_atom(ins)
            self._record(StepRecord(ins.text or f"atom {ins.name}", "declare"))
        elif isinstance(ins, Split):
            self.state = split_at_screen(self.state, ins.atom, self.layout.screen(ins.screen))
            self._record(StepRecord(ins.text or f"split {ins.atom}", "split"))
        elif isinstance(ins, CavityPass):
            self.state = conditional_cavity_pass(
                self.state, ins.atom, self.layout.screen(ins.screen), ins.phi, self.layout
            )
            self._record(StepRecord(ins.text or f"pass {ins.atom}", "cavity_pass"))
        elif isinstance(ins, Detect):
            self._detect(ins)
        elif isinstance(ins, Propagate):
            spec = self.layout.kernel(ins.kernel)
            source = self.state.register(path_name(ins.atom)).labels
            kernel = PropagationKernel(source, spec.target_labels, spec.matrix)
            self.state = propagate(self.state, ins.atom, kernel)
            self._record(StepRecord(ins.text or f"propagate {ins.atom}", "propagate"))
        elif isinstance(ins, Inject):
            self._inject(ins)
        elif isinstance(ins, JcPass):
            self.state = jc_pass(self.state, ins.atom, ins.cavity, ins.gt)
            self._record(StepRecord(ins.text or f"jcpass {ins.atom}", "jc_pass"))
        elif isinstance(ins, Checkpoint):
            self._checkpoint(ins)
        else:
            raise ValueError(f"unknown instruction {ins!r}")

    def _declare_atom(self, ins: DeclareAtom) -> None:
        if ins.kind == "lambda3":
            register = Register.lambda3(ins.name)
        elif ins.kind == "qubit2":
            register = Register.qubit2(ins.name)
        else:
            raise RegisterError(f"atom {ins.name}: unknown kind {ins.kind!r}")
        if ins.state != "input":
            self.state = extend(self.state, register, ins.state)
            return
        if ins.kind != "lambda3":
            raise RegisterError(f"atom {ins.name}: 'input' preparation needs a lambda3 atom")
        if not self.batched:
            inputs = self.lanes[0].inputs
            self.state = extend(self.state, register,
                                np.array([0.0, inputs.cb, -inputs.cc], dtype=complex))
            return
        # a second input atom would make the state quadratic in (cb, cc); its
        # duplicate _BASIS register fails the step and every lane reruns alone
        halves = [np.kron(self.state.amplitudes, basis_column(register, column))
                  for column in ([0.0, 1.0, 0.0], [0.0, 0.0, -1.0])]
        self.state = CompositeState((_BASIS,) + self.state.registers + (register,),
                                    np.concatenate(halves) / math.sqrt(2.0))

    def _detect(self, ins: Detect) -> None:
        register = ins.atom if ins.which == "internal" else path_name(ins.atom)
        reg = self.state.register(register)
        kind = "detect_position" if ins.which == "position" else _KIND_BY_DETECT.get(
            reg.kind, "detect_internal"
        )
        label = ins.label
        if self.rng is not None:
            weights = label_probabilities(self.state, register)
            label = reg.labels[self.rng.choice(reg.dim, p=weights / weights.sum())]
        self.state, probability = detect(self.state, register, label)
        lanes = self.live()
        probabilities = [probability] * len(lanes)
        if self._has_basis():
            # the branch's Gram matrix is probability times the new state's
            weights = self._lane_weights(self.state.amplitudes)
            probabilities = [probability * w / lane.weight for lane, w in zip(lanes, weights)]
            for lane, w in zip(lanes, weights):
                lane.weight = w
        for lane, p in zip(lanes, probabilities):
            if p < IMPOSSIBLE_OUTCOME_THRESHOLD:
                lane.failed = True
                continue
            lane.cumulative *= p
            lane.records.append(StepRecord(ins.text or f"detect {ins.atom}", kind,
                                           outcome=label, probability=p))

    def _inject(self, ins: Inject) -> None:
        self.state, top = inject_coherent(self.state, ins.cavity, ins.beta)
        lanes = self.live()
        tops = [top] * len(lanes)
        if self._has_basis():
            edge = np.take(self.state.tensor(), -1, axis=self.state.axis(ins.cavity))
            tops = [w / lane.weight for lane, w in zip(lanes, self._lane_weights(edge))]
        for lane, t in zip(lanes, tops):
            if t > INJECTION_TAIL_LIMIT:
                lane.failed = True
                continue
            lane.tail_mass = max(lane.tail_mass, t)
            lane.records.append(StepRecord(ins.text or f"inject {ins.cavity}", "inject"))

    def _checkpoint(self, ins: Checkpoint) -> None:
        for lane in self.live():
            inputs = lane.inputs
            registers, terms = oracle.checkpoint_terms(
                ins.name,
                cb=inputs.cb,
                cc=inputs.cc,
                alpha=inputs.alpha,
                truncation=inputs.truncation,
                gt=inputs.gt,
            )
            value = product_fidelity(self._view(lane), registers, terms)
            lane.records.append(StepRecord(ins.text or f"checkpoint {ins.name}", "checkpoint",
                                           outcome=ins.name, checkpoint_fidelity=value))


def run_protocol(
    layout: ExperimentLayout,
    instructions,
    inputs: RunInputs,
    *,
    sample: bool = False,
    seed: int | None = None,
) -> RunReport:
    """Execute a resolved instruction list and return the run report.

    Post-selection is the default: detections force the scripted outcome
    and track its probability.  With sample=True outcomes are drawn from
    the Born rule using the seeded generator instead.
    """
    return _Runner(layout, [inputs], sample, seed).run(list(instructions))[0]


def run_batch(layout: ExperimentLayout, instructions, inputs) -> list[RunReport | ProtocolError]:
    """Post-selected runs of one instruction list for several inputs in one pass.

    The inputs must share alpha, truncation and gt; only (cb, cc) differ.
    Entry i equals ``run_protocol(layout, instructions, inputs[i])`` to
    rounding, or is the ProtocolError that call raises: an input whose
    forced outcome is impossible, or whose injection overflows the cutoff,
    leaves the batch and is rerun alone, and the others carry on.
    """
    instructions = list(instructions)
    inputs = list(inputs)
    if len({(item.alpha, item.truncation, item.gt) for item in inputs}) > 1:
        raise ValueError("batched inputs must share alpha, truncation and gt")
    reports: list = [None] * len(inputs)
    if len(inputs) > 1:
        reports = _Runner(layout, inputs, False, None).run(instructions)
    return [report if report is not None else _run_alone(layout, instructions, item)
            for report, item in zip(reports, inputs)]


def _run_alone(layout: ExperimentLayout, instructions, inputs: RunInputs):
    try:
        return run_protocol(layout, instructions, inputs)
    except ProtocolError as exc:
        return exc
