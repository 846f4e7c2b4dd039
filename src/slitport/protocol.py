"""The experiment layer: screens, cavity passes, detections, probe reads.

A run owns one CompositeState and walks a resolved instruction list:
atoms split across a two-slit screen, pick up a cavity-conditioned phase,
get detected (post-selected by default, Born-sampled on request),
propagate through configurable kernels, and finally two probe atoms read
the cavities out.  Every step leaves a record; the report carries the
cumulative post-selection probability and the fidelity of the teleported
path state.  A step that fails raises, and the runner turns that into one
ProtocolError carrying the partial report.
"""

from __future__ import annotations

import cmath
import json
import math
from dataclasses import asdict, dataclass

import numpy as np

from . import oracle
from .fockspace import (
    ATOM_LEVELS,
    IMPOSSIBLE_OUTCOME_THRESHOLD,
    CompositeState,
    ImpossibleOutcomeError,
    Register,
    RegisterError,
    TruncationError,
    apply_op,
    collapse,
    compress,
    drop_register,  # noqa: F401  (perfbench patches it by this module's name)
    embed_controlled,  # noqa: F401  (perfbench patches it by this module's name)
    extend,
    fidelity,  # noqa: F401  (perfbench patches it by this module's name)
    label_branch,
    label_probabilities,  # noqa: F401  (perfbench patches it by this module's name)
    product_fidelity,
    project,  # noqa: F401  (perfbench patches it by this module's name)
    rebase_register,
    reduced_fidelity,
    reorder,  # noqa: F401  (perfbench patches it by this module's name)
)
from .gates import (
    TAIL_MASS_LIMIT,
    coherent_amplitudes,
    coherent_tail_mass,
    dispersive_blocks,
    dispersive_lambda,  # noqa: F401  (perfbench patches it by this module's name)
    displacement,
    jc_blocks,
    jc_unitary,  # noqa: F401  (perfbench patches it by this module's name)
)
from .numformat import fmt_complex, fmt_real


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
        with np.errstate(over="ignore"):  # hypot squares no entry; a norm past float range is inf
            norms = np.hypot.reduce(np.abs(m), axis=0)
        if np.any(norms > 1.0 + 1e-12):
            raise RegisterError(f"kernel column exceeds unit norm (max {norms.max():.12g})")
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)


@dataclass(frozen=True, kw_only=True)
class Instruction:
    """One resolved step; ``text`` is the script line it was lowered from, if any."""

    text: str = ""


@dataclass(frozen=True)
class DeclareCavity(Instruction):
    name: str
    alpha: complex
    truncation: int


@dataclass(frozen=True)
class DeclareAtom(Instruction):
    name: str
    kind: str  # a key of ATOM_LEVELS
    state: str  # basis label, or "input" for the (cb, -cc) preparation


@dataclass(frozen=True)
class Split(Instruction):
    atom: str
    slits: tuple[str, str]


@dataclass(frozen=True)
class CavityPass(Instruction):
    atom: str
    bindings: tuple[tuple[str, str], ...]  # (slit, cavity behind it), in slit order
    phi: float


@dataclass(frozen=True)
class Detect(Instruction):
    atom: str
    which: str  # internal | position
    label: str


@dataclass(frozen=True)
class Propagate(Instruction):
    atom: str
    kernel: Kernel


@dataclass(frozen=True)
class Inject(Instruction):
    cavity: str
    beta: complex


@dataclass(frozen=True)
class JcPass(Instruction):
    atom: str
    cavity: str
    gt: float


@dataclass(frozen=True)
class Checkpoint(Instruction):
    name: str


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
        # a product past float range is inf, where a power would raise OverflowError
        deviation = abs(abs(self.cb) * abs(self.cb) + abs(self.cc) * abs(self.cc) - 1.0)
        if deviation > 1e-9:
            raise ValueError(
                f"|cb|^2 + |cc|^2 must be 1 (off by {deviation:.3e}); "
                "the teleported state is a normalized path qubit"
            )
        if self.truncation < 2:
            raise ValueError("truncation must be at least 2")


@dataclass(frozen=True)
class StepRecord:
    name: str
    kind: str
    outcome: str | None = None
    probability: float | None = None
    checkpoint_fidelity: float | None = None


@dataclass(frozen=True)
class RunReport:
    steps: tuple[StepRecord, ...]
    cumulative_probability: float
    final_fidelity: float | None
    truncation_tail_mass: float
    inputs: RunInputs

    def to_json(self) -> str:
        return canonical_json(asdict(self))


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


def split_register(registers, atom: str, slits: tuple[str, str]) -> Register:
    """The path register an atom's split adds to ``registers``."""
    if len(slits) != 2:
        raise RegisterError(f"a screen must have exactly 2 slits, got {slits}")
    name = path_name(atom)
    for holder in registers:
        if holder.name == name:
            raise RegisterError(f"atom {atom} is already split" if holder.kind == "path" else
                                f"atom {atom} cannot split: its path register name {name!r} "
                                f"is taken by a {holder.kind} register")
    return Register.path(name, slits)


def split_at_screen(state: CompositeState, atom: str,
                    slits: tuple[str, str]) -> CompositeState:
    """Send an atom through a two-slit screen: equal superposition of slits."""
    amp = np.full(2, 1.0 / math.sqrt(2.0), dtype=complex)
    return extend(state, split_register(state.registers, atom, slits), amp)


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
    path = state.register(path_name(atom), "path")
    slits = tuple(slit for slit, _ in bindings)
    if path.labels != slits:
        raise RegisterError(f"atom {atom} path basis {path.labels} is not the slits {slits}")
    for slit, cavity in bindings:
        mode = state.register(cavity, "mode")
        gate = dispersive_blocks(phi, mode.dim)
        state = apply_op(state, gate, (atom, cavity), (path.name, slit))
    return state


def propagate(state: CompositeState, atom: str, kernel: Kernel) -> CompositeState:
    """Rebase an atom's path register through a propagation kernel.

    The kernel's columns run over the current path labels.  Sub-unitary
    kernels shed undetected flux; the state is renormalized only at the
    next detection.
    """
    name = state.register(path_name(atom), "path").name
    target = Register.path(name, kernel.target_labels)
    return rebase_register(state, name, kernel.matrix, target)


def inject_coherent(state: CompositeState, cavity: str,
                    beta: complex) -> tuple[CompositeState, float]:
    """Displace a cavity mode by beta (coherent drive injection).

    Returns the displaced state and its weight at the Fock cutoff.
    """
    mode = state.register(cavity, "mode")
    out = apply_op(state, displacement(beta, mode.dim), (cavity,))
    _, top = label_branch(out, cavity, mode.labels[-1])
    if top > TAIL_MASS_LIMIT:
        raise TruncationError(
            f"injection into {cavity} leaves {top:.3e} probability at the Fock cutoff; "
            "raise the truncation"
        )
    return out, top


def jc_pass(state: CompositeState, probe: str, cavity: str, gt: float) -> CompositeState:
    """Resonant probe-cavity interaction for a Rabi angle gt, in 2x2 blocks."""
    if state.register(probe).kind != "qubit2":
        raise RegisterError(f"jc pass needs a two-level probe, {probe} is not one")
    mode = state.register(cavity, "mode")
    return apply_op(state, jc_blocks(gt, mode.dim), (probe, cavity))


# ---------------------------------------------------------------------------
# the runner


# the record kind of each step whose record is its name and kind alone; every
# record is named by its script line, or by its type if built by hand
_PLAIN_KIND = {DeclareCavity: "declare", DeclareAtom: "declare", Split: "split",
               CavityPass: "cavity_pass", Propagate: "propagate", JcPass: "jc_pass"}
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
    A step that fails for any lane fails the whole run.
    """

    def __init__(self, inputs, sample: bool, seed: int | None):
        self.lanes = [_Lane(item) for item in inputs]
        self.batched = len(self.lanes) > 1
        self.state = CompositeState((), np.ones(1, dtype=complex))
        self.rng = np.random.default_rng(seed) if sample else None

    def run(self, instructions) -> list[RunReport]:
        """One report per lane; a failed step raises ProtocolError."""
        for ins in instructions:
            try:
                self.execute(ins)
            except (ImpossibleOutcomeError, ValueError) as exc:
                raise ProtocolError(
                    f"step failed ({getattr(ins, 'text', None) or type(ins).__name__}): {exc}",
                    report=self.lanes[0].report(),
                    cause=exc,
                ) from exc
        return [lane.report(self.final_fidelity(lane)) for lane in self.lanes]

    def _has_basis(self) -> bool:
        return self.state.registers[:1] == (_BASIS,)

    def _view(self, lane: _Lane) -> CompositeState:
        """The state a single run of this lane's input would hold now."""
        if not self._has_basis():
            return self.state
        columns = self.state.amplitudes.reshape(2, -1)
        amps = (lane.coeffs @ columns) / math.sqrt(lane.weight)
        return CompositeState(self.state.registers[1:], amps, self.state.bases[1:])

    def _lane_weights(self, tensor: np.ndarray) -> list[float]:
        """c^H G c for each lane, G the Gram matrix of tensor's basis columns."""
        columns = tensor.reshape(2, -1)
        gram = columns.conj() @ columns.T
        return [float(np.real(lane.coeffs.conj() @ gram @ lane.coeffs)) for lane in self.lanes]

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
            for lane in self.lanes:
                lane.tail_mass = max(lane.tail_mass, tail)
            self.state = compress(extend(self.state, Register.mode(ins.name, ins.truncation), vec),
                                  ins.name)
        elif isinstance(ins, DeclareAtom):
            self._declare_atom(ins)
        elif isinstance(ins, Split):
            self.state = split_at_screen(self.state, ins.atom, ins.slits)
        elif isinstance(ins, CavityPass):
            self.state = conditional_cavity_pass(self.state, ins.atom, ins.bindings, ins.phi)
        elif isinstance(ins, Detect):
            self._detect(ins)
        elif isinstance(ins, Propagate):
            self.state = propagate(self.state, ins.atom, ins.kernel)
        elif isinstance(ins, Inject):
            self._inject(ins)
        elif isinstance(ins, JcPass):
            self.state = jc_pass(self.state, ins.atom, ins.cavity, ins.gt)
        elif isinstance(ins, Checkpoint):
            self._checkpoint(ins)
        else:
            raise ValueError(f"unknown instruction {ins!r}")
        kind = _PLAIN_KIND.get(type(ins))
        if kind:
            for lane in self.lanes:
                lane.records.append(StepRecord(ins.text or type(ins).__name__, kind))

    def _declare_atom(self, ins: DeclareAtom) -> None:
        if ins.kind not in ATOM_LEVELS:
            raise RegisterError(f"atom {ins.name}: unknown kind {ins.kind!r}")
        register = Register(ins.name, ins.kind, ATOM_LEVELS[ins.kind])
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
        # duplicate _BASIS register fails the step
        halves = [extend(self.state, register, column).amplitudes
                  for column in ([0.0, 1.0, 0.0], [0.0, 0.0, -1.0])]
        self.state = CompositeState((_BASIS,) + self.state.registers + (register,),
                                    np.concatenate(halves) / math.sqrt(2.0),
                                    (None,) + self.state.bases + (None,))

    def _detect(self, ins: Detect) -> None:
        if ins.which == "position":
            reg, kind = self.state.register(path_name(ins.atom), "path"), "detect_position"
        else:
            reg = self.state.register(ins.atom)
            if reg.kind not in _KIND_BY_DETECT:
                raise RegisterError(f"register {reg.name} is {reg.kind}, not an atom")
            kind = _KIND_BY_DETECT[reg.kind]
        label = ins.label
        if self.rng is not None:
            # the squared norm each outcome's collapse would report
            weights = np.array([label_branch(self.state, reg.name, item)[1]
                                for item in reg.labels])
            total = weights.sum()
            if total < IMPOSSIBLE_OUTCOME_THRESHOLD:
                raise ImpossibleOutcomeError(
                    f"every outcome on register {reg.name} has probability below "
                    f"{IMPOSSIBLE_OUTCOME_THRESHOLD:g} (total {total:.3e})"
                )
            label = reg.labels[self.rng.choice(reg.dim, p=weights / total)]
        self.state, probability = collapse(self.state, reg.name, label)
        probabilities = [probability] * len(self.lanes)
        if self._has_basis():
            # the branch's Gram matrix is probability times the new state's
            weights = self._lane_weights(self.state.amplitudes)
            probabilities = [probability * w / lane.weight
                             for lane, w in zip(self.lanes, weights)]
            for lane, w in zip(self.lanes, weights):
                lane.weight = w
            if min(probabilities) < IMPOSSIBLE_OUTCOME_THRESHOLD:
                raise ImpossibleOutcomeError(f"outcome {label!r} is impossible for an input")
        for lane, p in zip(self.lanes, probabilities):
            lane.cumulative *= p
            lane.records.append(StepRecord(ins.text or type(ins).__name__, kind,
                                           outcome=label, probability=p))

    def _inject(self, ins: Inject) -> None:
        self.state, top = inject_coherent(self.state, ins.cavity, ins.beta)
        tops = [top] * len(self.lanes)
        if self._has_basis():
            top_label = self.state.register(ins.cavity).labels[-1]
            edge, _ = label_branch(self.state, ins.cavity, top_label)
            tops = [w / lane.weight for lane, w in zip(self.lanes, self._lane_weights(edge))]
            if max(tops) > TAIL_MASS_LIMIT:
                raise TruncationError(f"injection into {ins.cavity} overflows the cutoff "
                                      "for an input")
        for lane, t in zip(self.lanes, tops):
            lane.tail_mass = max(lane.tail_mass, t)
            lane.records.append(StepRecord(ins.text or type(ins).__name__, "inject"))

    def _checkpoint(self, ins: Checkpoint) -> None:
        for lane in self.lanes:
            registers, terms = oracle.checkpoint_terms(ins.name, **asdict(lane.inputs))
            value = product_fidelity(self._view(lane), registers, terms)
            lane.records.append(StepRecord(ins.text or type(ins).__name__, "checkpoint",
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
    Entry i equals ``run_protocol(instructions, inputs[i])`` to rounding.
    A batch is all or nothing: if a step fails for any input (say its
    forced outcome is impossible, or its injection overflows the cutoff),
    every input is rerun alone, and each entry is then exactly that call's
    report or the ProtocolError it raises.
    """
    instructions = list(instructions)
    inputs = list(inputs)
    if len({(item.alpha, item.truncation, item.gt) for item in inputs}) > 1:
        raise ValueError("batched inputs must share alpha, truncation and gt")
    if len(inputs) > 1:
        try:
            return _Runner(inputs, False, None).run(instructions)
        except ProtocolError:
            pass  # rerun every input alone
    return [_run_alone(instructions, item) for item in inputs]


def _run_alone(instructions, inputs: RunInputs, *, sample: bool = False,
               seed: int | None = None) -> RunReport | ProtocolError:
    """``run_protocol``'s report, or the ProtocolError it raises."""
    try:
        return run_protocol(instructions, inputs, sample=sample, seed=seed)
    except ProtocolError as exc:
        return exc
