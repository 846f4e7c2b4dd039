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
from dataclasses import asdict, dataclass

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
    collapse,
    drop_register,  # noqa: F401  (perfbench patches it by this module's name)
    embed_controlled,  # noqa: F401  (perfbench patches it by this module's name)
    extend,
    fidelity,  # noqa: F401  (perfbench patches it by this module's name)
    label_probabilities,
    product_fidelity,
    project,  # noqa: F401  (perfbench patches it by this module's name)
    rebase_register,
    reduced_fidelity,
    reorder,  # noqa: F401  (perfbench patches it by this module's name)
)
from .gates import (
    coherent_amplitudes,
    coherent_tail_mass,
    dispersive_blocks,
    dispersive_lambda,  # noqa: F401  (perfbench patches it by this module's name)
    displacement,
    jc_blocks,
    jc_unitary,  # noqa: F401  (perfbench patches it by this module's name)
)
from .numformat import fmt_complex, fmt_real

INJECTION_TAIL_LIMIT = 1e-8


class ProtocolError(RuntimeError):
    """A step failed; carries the partial run report."""

    def __init__(self, message: str, report: "RunReport | None" = None,
                 cause: Exception | None = None):
        super().__init__(message)
        self.report = report
        self.cause = cause


# ---------------------------------------------------------------------------
# instructions (produced by script.resolve, or built directly in tests)


@dataclass(frozen=True, eq=False)
class Kernel:
    """Amplitudes for free flight between screens: matrix[target][source].

    Columns may have norm below one; missing flux is simply never
    detected downstream.
    """

    target_labels: tuple[str, ...]
    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        if m.ndim != 2 or m.shape[0] != len(self.target_labels):
            raise RegisterError(f"kernel matrix shape {m.shape} does not match "
                                f"{len(self.target_labels)} target labels")
        norms = np.linalg.norm(m, axis=0)
        if np.any(norms > 1.0 + 1e-12):
            raise RegisterError(f"kernel column exceeds unit norm (max {norms.max():.12f})")
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)


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
    slits: tuple[str, str]
    text: str = ""


@dataclass(frozen=True)
class CavityPass:
    atom: str
    bindings: tuple[tuple[str, str], ...]  # (slit, cavity behind it), in slit order
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
    kernel: Kernel
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
    """Teleportation input amplitudes and field parameters.

    The one definition of the run parameters: their names, defaults and
    types.  Values are normalized to these types on construction.
    """

    cb: complex = 1.0 / math.sqrt(2.0)
    cc: complex = 1.0 / math.sqrt(2.0)
    alpha: complex = 2.0
    truncation: int = 64
    gt: float = math.pi / 8

    def __post_init__(self):
        for name, kind in (("cb", complex), ("cc", complex), ("alpha", complex), ("gt", float)):
            value = getattr(self, name)
            normalized = kind(value)
            if not cmath.isfinite(normalized):
                raise ValueError(f"{name} must be a finite number, got {value}")
            object.__setattr__(self, name, normalized)
        truncation = int(self.truncation)
        if truncation != self.truncation:
            raise ValueError(f"truncation must be an integer, got {self.truncation}")
        object.__setattr__(self, "truncation", truncation)
        deviation = abs(abs(self.cb) ** 2 + abs(self.cc) ** 2 - 1.0)
        if deviation > 1e-9:
            raise ValueError(
                f"|cb|^2 + |cc|^2 must be 1 (off by {deviation:.3e}); "
                "the teleported state is a normalized path qubit"
            )
        if self.truncation < 2:
            raise ValueError("truncation must be at least 2")

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class StepRecord:
    name: str
    kind: str
    outcome: str | None = None
    probability: float | None = None
    checkpoint_fidelity: float | None = None

    def to_dict(self) -> dict:
        return asdict(self)


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


def split_at_screen(state: CompositeState, atom: str,
                    slits: tuple[str, str]) -> CompositeState:
    """Send an atom through a two-slit screen: equal superposition of slits."""
    if len(slits) != 2:
        raise RegisterError(f"a screen must have exactly 2 slits, got {slits}")
    name = path_name(atom)
    if name in state.names:
        raise RegisterError(f"atom {atom} is already split")
    amp = np.full(2, 1.0 / math.sqrt(2.0), dtype=complex)
    return extend(state, Register.path(name, slits), amp)


def conditional_cavity_pass(
    state: CompositeState,
    atom: str,
    bindings: tuple[tuple[str, str], ...],
    phi: float,
) -> CompositeState:
    """Dispersive pass behind a screen: each slit drives its own cavity.

    ``bindings`` pairs each slit, in the path register's order, with the
    cavity behind it.  Applies the three-level gate on (atom internal,
    cavity mode), one 3x3 block per photon number, on the slice where the
    atom's path is at that slit.  Unitary overall.
    """
    path = state.register(path_name(atom))
    slits = tuple(slit for slit, _ in bindings)
    if path.labels != slits:
        raise RegisterError(f"atom {atom} path basis {path.labels} is not the slits {slits}")
    for slit, cavity in bindings:
        mode = state.register(cavity)
        gate = dispersive_blocks(phi, mode.dim).on(atom, cavity)
        state = apply_op(state, gate, (path.name, slit))
    return state


def detect(state: CompositeState, register: str, label: str) -> tuple[CompositeState, float]:
    """Detect one register at a basis label and retire it.

    Returns the renormalized remaining state and the squared norm of the
    detected branch; a dead branch raises ImpossibleOutcomeError.
    """
    return collapse(state, register, label)


def propagate(state: CompositeState, atom: str, kernel: Kernel) -> CompositeState:
    """Rebase an atom's path register through a propagation kernel.

    The kernel's columns run over the current path labels.  Sub-unitary
    kernels shed undetected flux; the state is renormalized only at the
    next detection.
    """
    name = path_name(atom)
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
    """Resonant probe-cavity interaction for a Rabi angle gt, in 2x2 blocks."""
    if state.register(probe).kind != "qubit2":
        raise RegisterError(f"jc pass needs a two-level probe, {probe} is not one")
    mode = state.register(cavity)
    return apply_op(state, jc_blocks(gt, mode.dim).on(probe, cavity))


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

    def __init__(self, inputs, sample: bool, seed: int | None):
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
            self.state = split_at_screen(self.state, ins.atom, ins.slits)
            self._record(StepRecord(ins.text or f"split {ins.atom}", "split"))
        elif isinstance(ins, CavityPass):
            self.state = conditional_cavity_pass(self.state, ins.atom, ins.bindings, ins.phi)
            self._record(StepRecord(ins.text or f"pass {ins.atom}", "cavity_pass"))
        elif isinstance(ins, Detect):
            self._detect(ins)
        elif isinstance(ins, Propagate):
            self.state = propagate(self.state, ins.atom, ins.kernel)
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
        halves = [extend(self.state, register, column).amplitudes
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
            total = weights.sum()
            if total < IMPOSSIBLE_OUTCOME_THRESHOLD:
                raise ImpossibleOutcomeError(
                    f"every outcome on register {register} has probability below "
                    f"{IMPOSSIBLE_OUTCOME_THRESHOLD:g} (total {total:.3e})"
                )
            label = reg.labels[self.rng.choice(reg.dim, p=weights / total)]
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
    if seed is not None and seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    return _Runner([inputs], sample, seed).run(list(instructions))[0]


def run_batch(instructions, inputs) -> list[RunReport | ProtocolError]:
    """Post-selected runs of one instruction list for several inputs in one pass.

    The inputs must share alpha, truncation and gt; only (cb, cc) differ.
    Entry i equals ``run_protocol(instructions, inputs[i])`` to
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
        reports = _Runner(inputs, False, None).run(instructions)
    return [report if report is not None else _run_alone(instructions, item)
            for report, item in zip(reports, inputs)]


def _run_alone(instructions, inputs: RunInputs):
    try:
        return run_protocol(instructions, inputs)
    except ProtocolError as exc:
        return exc
