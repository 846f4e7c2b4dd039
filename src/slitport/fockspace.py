"""Dense state vectors over a tensor product of named registers.

A register is one degree of freedom: a path qudit labelled by slit or
detector positions, a three-level atom (a, b, c), a two-level probe
(f, e), or a truncated field mode with Fock labels "0".."dim-1".

Amplitudes are stored flat in row-major register order, so the last
register varies fastest.  Every module in the package relies on this one
layout convention.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# "basis" indexes the inputs a batched run carries side by side
REGISTER_KINDS = ("path", "lambda3", "qubit2", "mode", "basis")
LAMBDA3_LABELS = ("a", "b", "c")
QUBIT2_LABELS = ("f", "e")

# Below this squared norm a measurement branch is considered dead: forcing
# the outcome anyway means the protocol post-selected an impossible event.
IMPOSSIBLE_OUTCOME_THRESHOLD = 1e-14

UNITARITY_TOLERANCE = 1e-12
VECTOR_NORM_TOLERANCE = 1e-9


class RegisterError(ValueError):
    """Register lookup, label, or dimension mismatch."""


class ImpossibleOutcomeError(RuntimeError):
    """A forced measurement outcome has probability below threshold."""


class TruncationError(ValueError):
    """A Fock-space cutoff is too small for the states it must hold."""


@dataclass(frozen=True)
class Register:
    """A named degree of freedom with an ordered basis."""

    name: str
    kind: str
    labels: tuple[str, ...]

    def __post_init__(self):
        if self.kind not in REGISTER_KINDS:
            raise RegisterError(f"unknown register kind {self.kind!r}")
        if len(self.labels) == 0:
            raise RegisterError(f"register {self.name}: empty label list")
        if len(set(self.labels)) != len(self.labels):
            raise RegisterError(f"register {self.name}: duplicate labels")
        if self.kind == "lambda3" and self.labels != LAMBDA3_LABELS:
            raise RegisterError(f"register {self.name}: lambda3 labels must be {LAMBDA3_LABELS}")
        if self.kind == "qubit2" and self.labels != QUBIT2_LABELS:
            raise RegisterError(f"register {self.name}: qubit2 labels must be {QUBIT2_LABELS}")
        if self.kind == "mode":
            expected = tuple(str(n) for n in range(len(self.labels)))
            if self.labels != expected:
                raise RegisterError(f"register {self.name}: mode labels must be 0..dim-1")

    @property
    def dim(self) -> int:
        return len(self.labels)

    def index(self, label: str) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise RegisterError(
                f"register {self.name}: unknown label {label!r} (valid: {', '.join(self.labels)})"
            ) from None

    @classmethod
    def path(cls, name: str, labels) -> "Register":
        return cls(name, "path", tuple(labels))

    @classmethod
    def lambda3(cls, name: str) -> "Register":
        return cls(name, "lambda3", LAMBDA3_LABELS)

    @classmethod
    def qubit2(cls, name: str) -> "Register":
        return cls(name, "qubit2", QUBIT2_LABELS)

    @classmethod
    def mode(cls, name: str, dim: int) -> "Register":
        if dim < 1:
            raise RegisterError(f"register {name}: mode dim must be positive")
        return cls(name, "mode", tuple(str(n) for n in range(dim)))


@dataclass(frozen=True, eq=False)
class CompositeState:
    """Normalized amplitude vector over an ordered register list.

    The amplitudes array is frozen on construction.  States are values:
    every operation returns a new instance.  A state is normally unit
    norm; only a sub-unitary propagation kernel may leave it short of
    that, and the next measurement restores it.
    """

    registers: tuple[Register, ...]
    amplitudes: np.ndarray

    def __post_init__(self):
        names = [r.name for r in self.registers]
        if len(set(names)) != len(names):
            raise RegisterError(f"duplicate register name in {names}")
        amps = np.asarray(self.amplitudes, dtype=complex).reshape(-1)
        if amps.size != self.dim:
            raise RegisterError(
                f"amplitude vector has length {amps.size}, register product is {self.dim}"
            )
        amps.setflags(write=False)
        object.__setattr__(self, "amplitudes", amps)

    @property
    def dim(self) -> int:
        return int(np.prod([r.dim for r in self.registers], dtype=object)) if self.registers else 1

    @property
    def shape(self) -> tuple[int, ...]:
        return tuple(r.dim for r in self.registers)

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(r.name for r in self.registers)

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    def axis(self, name: str) -> int:
        for i, r in enumerate(self.registers):
            if r.name == name:
                return i
        raise RegisterError(f"no register named {name!r} (have: {', '.join(self.names) or 'none'})")

    def register(self, name: str) -> Register:
        return self.registers[self.axis(name)]

    def tensor(self) -> np.ndarray:
        return self.amplitudes.reshape(self.shape)


@dataclass(frozen=True, eq=False)
class OperatorMatrix:
    """Dense complex matrix acting on an ordered subset of registers."""

    target_registers: tuple[str, ...]
    matrix: np.ndarray
    unitary: bool = False

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise RegisterError(f"operator matrix must be square, got shape {m.shape}")
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "target_registers", tuple(self.target_registers))
        if self.unitary:
            defect = unitarity_defect(m)
            if defect >= UNITARITY_TOLERANCE:
                raise RegisterError(f"matrix flagged unitary but max|U†U-I| = {defect:.3e}")

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def on(self, *names: str) -> "OperatorMatrix":
        """Rebind the same matrix to concrete register names."""
        if len(names) != len(self.target_registers):
            raise RegisterError(
                f"operator targets {len(self.target_registers)} registers, got {len(names)} names"
            )
        return _trusted_operator(names, self.matrix, self.unitary)


def _trusted_operator(targets, matrix: np.ndarray, unitary: bool) -> OperatorMatrix:
    """Build an OperatorMatrix whose unitarity is already established.

    Used for rebinding and for block embeddings of verified matrices,
    where repeating the O(n^3) construction check would dominate runtime.
    """
    op = OperatorMatrix.__new__(OperatorMatrix)
    m = np.asarray(matrix, dtype=complex)
    m.setflags(write=False)
    object.__setattr__(op, "target_registers", tuple(targets))
    object.__setattr__(op, "matrix", m)
    object.__setattr__(op, "unitary", unitary)
    return op


def unitarity_defect(matrix: np.ndarray) -> float:
    m = np.asarray(matrix)
    return float(np.max(np.abs(m.conj().T @ m - np.eye(m.shape[0]))))


def make_state(registers, assignment) -> CompositeState:
    """Build a product state from per-register labels or amplitude vectors.

    Each register must be assigned either one of its basis labels or a
    normalized complex vector of its dimension.
    """
    registers = tuple(registers)
    names = [r.name for r in registers]
    if len(set(names)) != len(names):
        raise RegisterError(f"duplicate register name in {names}")
    unknown = set(assignment) - set(names)
    if unknown:
        raise RegisterError(f"assignment names unknown registers: {sorted(unknown)}")
    missing = set(names) - set(assignment)
    if missing:
        raise RegisterError(f"missing assignment for registers: {sorted(missing)}")

    amps = np.ones(1, dtype=complex)
    for reg in registers:
        amps = np.kron(amps, _unit_column(reg, assignment[reg.name]))
    return CompositeState(registers, amps)


def basis_column(register: Register, value) -> np.ndarray:
    """A register's column for a basis label or an amplitude vector.

    Only the length is checked: closed-form targets may use unnormalized
    vectors on purpose.
    """
    if isinstance(value, str):
        column = np.zeros(register.dim, dtype=complex)
        column[register.index(value)] = 1.0
        return column
    column = np.asarray(value, dtype=complex).reshape(-1)
    if column.size != register.dim:
        raise RegisterError(
            f"register {register.name}: vector length {column.size} != dim {register.dim}"
        )
    return column


def _unit_column(register: Register, value) -> np.ndarray:
    """basis_column, additionally requiring a normalized vector."""
    column = basis_column(register, value)
    norm = np.linalg.norm(column)
    if abs(norm - 1.0) > VECTOR_NORM_TOLERANCE:
        raise RegisterError(
            f"register {register.name}: assignment vector is not normalized (norm {norm:.12f})"
        )
    return column


def apply_op(state: CompositeState, op: OperatorMatrix) -> CompositeState:
    """Contract an operator over its target registers, identity elsewhere."""
    axes = [state.axis(name) for name in op.target_registers]
    target_dim = int(np.prod([state.registers[a].dim for a in axes], dtype=object))
    if target_dim != op.dim:
        raise RegisterError(
            f"operator dim {op.dim} does not match target registers (product {target_dim})"
        )
    n = len(state.registers)
    rest = [i for i in range(n) if i not in axes]
    perm = axes + rest
    tens = state.tensor().transpose(perm).reshape(target_dim, -1)
    tens = op.matrix @ tens
    out_shape = [state.registers[i].dim for i in perm]
    inverse = np.argsort(perm)
    amps = tens.reshape(out_shape).transpose(inverse).reshape(-1)
    return CompositeState(state.registers, amps)


def label_probabilities(state: CompositeState, register: str) -> np.ndarray:
    """Squared-norm weight of each basis label of one register.

    For a unit-norm state these are the Born probabilities; after a
    sub-unitary kernel they sum to the surviving flux instead of 1.
    """
    axis = state.axis(register)
    tens = np.abs(state.tensor()) ** 2
    other = tuple(i for i in range(len(state.registers)) if i != axis)
    return tens.sum(axis=other) if other else tens


def project(state: CompositeState, register: str, label: str) -> tuple[CompositeState, float]:
    """Project one register onto a basis label and renormalize.

    Returns the collapsed state and the squared norm of the projected
    branch.  Raises ImpossibleOutcomeError when that weight is below
    1e-14, which signals post-selection of a dead branch.
    """
    axis = state.axis(register)
    idx = state.registers[axis].index(label)
    tens = state.tensor()
    branch = np.take(tens, idx, axis=axis)
    probability = float(np.sum(np.abs(branch) ** 2))
    if probability < IMPOSSIBLE_OUTCOME_THRESHOLD:
        raise ImpossibleOutcomeError(
            f"outcome {label!r} on register {register} has probability "
            f"{probability:.3e}, below {IMPOSSIBLE_OUTCOME_THRESHOLD:g}"
        )
    collapsed = np.zeros_like(tens)
    index = [slice(None)] * tens.ndim
    index[axis] = idx
    collapsed[tuple(index)] = branch / np.sqrt(probability)
    return CompositeState(state.registers, collapsed.reshape(-1)), probability


def drop_register(state: CompositeState, register: str) -> CompositeState:
    """Remove a register whose support is a single basis label.

    Valid right after a projection: the register then factors out as a
    pure basis ket and carries no further information.
    """
    axis = state.axis(register)
    tens = state.tensor()
    other = tuple(i for i in range(tens.ndim) if i != axis)
    weights = np.abs(tens).sum(axis=other) if other else np.abs(tens)
    support = np.nonzero(weights)[0]
    if support.size != 1:
        raise RegisterError(
            f"register {register} is not collapsed onto a single label "
            f"(support size {support.size})"
        )
    sliced = np.take(tens, int(support[0]), axis=axis)
    remaining = tuple(r for i, r in enumerate(state.registers) if i != axis)
    return CompositeState(remaining, sliced.reshape(-1))


def extend(state: CompositeState, register: Register, value) -> CompositeState:
    """Tensor a fresh register (label or normalized vector) onto the state."""
    # appended register varies fastest, so a plain kron keeps the layout
    vec = _unit_column(register, value)
    return CompositeState(state.registers + (register,), np.kron(state.amplitudes, vec))


def rebase_register(
    state: CompositeState, register: str, matrix: np.ndarray, new_register: Register
) -> CompositeState:
    """Replace one register's basis through a (possibly rectangular) map.

    matrix[t, s] is the amplitude for source label s to land on target
    label t.  The register keeps its position in the ordering.
    """
    axis = state.axis(register)
    old = state.registers[axis]
    m = np.asarray(matrix, dtype=complex)
    if m.ndim != 2 or m.shape != (new_register.dim, old.dim):
        raise RegisterError(
            f"rebase matrix shape {m.shape} does not map {old.name}({old.dim}) "
            f"onto {new_register.name}({new_register.dim})"
        )
    tens = np.moveaxis(state.tensor(), axis, 0)
    tens = np.tensordot(m, tens, axes=([1], [0]))
    tens = np.moveaxis(tens, 0, axis)
    registers = list(state.registers)
    registers[axis] = new_register
    return CompositeState(tuple(registers), tens.reshape(-1))


def reorder(state: CompositeState, names) -> CompositeState:
    """Permute registers into the given name order."""
    names = tuple(names)
    if sorted(names) != sorted(state.names):
        raise RegisterError(f"cannot reorder {state.names} as {names}")
    perm = [state.axis(n) for n in names]
    tens = state.tensor().transpose(perm)
    return CompositeState(tuple(state.registers[i] for i in perm), tens.reshape(-1))


def embed_controlled(
    control: Register, label: str, op: OperatorMatrix
) -> OperatorMatrix:
    """Lift an operator to (control ⊗ targets), active on one control label.

    Every other control label gets the identity, so the result is unitary
    whenever the inner operator is.
    """
    idx = control.index(label)
    d = op.dim
    blocks = np.zeros((control.dim * d, control.dim * d), dtype=complex)
    eye = np.eye(d, dtype=complex)
    for k in range(control.dim):
        blocks[k * d : (k + 1) * d, k * d : (k + 1) * d] = op.matrix if k == idx else eye
    # block-diagonal of unitaries: unitarity is structural, skip the n^3 check
    return _trusted_operator((control.name,) + op.target_registers, blocks, op.unitary)


def fidelity(a: CompositeState, b: CompositeState) -> float:
    """Squared overlap |<a|b>|², insensitive to global phase."""
    if a.registers != b.registers:
        raise RegisterError(
            f"fidelity needs identical register lists, got {a.names} vs {b.names}"
        )
    return min(1.0, float(abs(np.vdot(a.amplitudes, b.amplitudes)) ** 2))


def reduced_fidelity(state: CompositeState, subset, target: CompositeState) -> float:
    """Overlap <target|rho|target> of the reduced state on a register subset.

    Equals the probability of finding the subset in the target pure state,
    tracing everything else out.
    """
    subset = tuple(subset)
    if not subset:
        raise RegisterError("reduced_fidelity needs a nonempty register subset")
    if target.names != subset:
        raise RegisterError(f"target registers {target.names} do not match subset {subset}")
    for name in subset:
        if state.register(name).labels != target.register(name).labels:
            raise RegisterError(f"register {name}: basis labels differ between state and target")
    if abs(target.norm() - 1.0) > VECTOR_NORM_TOLERANCE:
        raise RegisterError("target state is not normalized")
    axes = [state.axis(n) for n in subset]
    rest = [i for i in range(len(state.registers)) if i not in axes]
    sub_dim = int(np.prod([state.registers[a].dim for a in axes], dtype=object))
    tens = state.tensor().transpose(axes + rest).reshape(sub_dim, -1)
    overlaps = target.amplitudes.conj() @ tens
    return min(1.0, float(np.sum(np.abs(overlaps) ** 2)))


def product_fidelity(state: CompositeState, registers, terms) -> float:
    """<t|rho|t> / <t|t> for a target t given as a sum of product terms.

    ``terms`` holds ``(coeff, {register name: label or vector})`` pairs
    over ``registers``, and rho is the state reduced to those registers.
    This is reduced_fidelity (fidelity, when every live register is
    named) against the normalized sum of the terms, but no vector of the
    state's size is built: a label indexes the state tensor, a vector is
    contracted with tensordot, and the target's norm comes from the Gram
    matrix of the terms' per-register inner products.
    """
    registers = tuple(registers)
    names = [r.name for r in registers]
    if not registers:
        raise RegisterError("product_fidelity needs a nonempty register list")
    if len(set(names)) != len(names):
        raise RegisterError(f"duplicate register name in {names}")
    missing = sorted(set(names) - set(state.names))
    if missing:
        raise RegisterError(f"target expects registers {missing} that are not live")
    axes = [state.axis(n) for n in names]
    for reg, axis in zip(registers, axes):
        if state.registers[axis].labels != reg.labels:
            raise RegisterError(f"register {reg.name}: basis labels differ between state and target")
    terms = [(complex(coeff), parts) for coeff, parts in terms if coeff != 0]
    for _, parts in terms:
        if set(parts) != set(names):
            raise RegisterError(f"term assigns {sorted(parts)}, target registers are {sorted(names)}")

    coeffs = np.array([coeff for coeff, _ in terms], dtype=complex)
    gram = np.ones((len(terms), len(terms)), dtype=complex)
    for reg in registers:
        columns = np.array([basis_column(reg, parts[reg.name]) for _, parts in terms])
        gram *= columns.conj() @ columns.T
    norm2 = float(np.real(coeffs.conj() @ gram @ coeffs))
    # below one rounding unit of the terms' own weight the sum has cancelled
    scale = float(np.real(np.abs(coeffs) ** 2 @ np.diag(gram)))
    if norm2 <= np.finfo(float).eps * scale:
        raise RegisterError("target state is the zero vector")

    tens = state.tensor()
    overlap = 0.0
    for coeff, parts in terms:
        index: list = [slice(None)] * tens.ndim
        vectors = []
        for reg, axis in zip(registers, axes):
            value = parts[reg.name]
            if isinstance(value, str):
                index[axis] = reg.index(value)
            else:
                vectors.append((axis, basis_column(reg, value)))
        part = tens[tuple(index)]
        # integer indices drop their axes; contracting from the last axis
        # back keeps the earlier positions valid
        for axis, column in sorted(vectors, key=lambda v: v[0], reverse=True):
            pos = axis - sum(isinstance(i, int) for i in index[:axis])
            part = np.tensordot(column.conj(), part, axes=([0], [pos]))
        overlap = overlap + coeff.conjugate() * part
    return min(1.0, float(np.sum(np.abs(overlap) ** 2)) / norm2)
