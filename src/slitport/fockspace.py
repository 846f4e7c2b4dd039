"""State vectors over a tensor product of named registers.

A register is one degree of freedom: a path qudit labelled by slit or
detector positions, an atom's internal levels (``ATOM_LEVELS``), or a
truncated field mode with Fock labels "0".."dim-1".

Amplitudes are stored flat in row-major register order, so the last
register varies fastest.  Every module in the package relies on this one
layout convention.  An axis may be held compressed (``compress``): its
amplitudes are then the coordinates of a few orthonormal columns in the
register's basis, and every read or gate on that register expands it first.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

# each atom kind's internal levels in basis order: the three-level atoms
# that cross the cavities, and the two-level probes that read them out
ATOM_LEVELS = {"lambda3": ("a", "b", "c"), "qubit2": ("f", "e")}
# "basis" indexes the inputs a batched run carries side by side
REGISTER_KINDS = ("path", *ATOM_LEVELS, "mode", "basis")

# Below this squared norm a measurement branch is considered dead: forcing
# the outcome anyway means the protocol post-selected an impossible event.
IMPOSSIBLE_OUTCOME_THRESHOLD = 1e-14

UNITARITY_TOLERANCE = 1e-12
# a compressed axis keeps the singular values above this fraction of its largest
COMPRESSION_CUTOFF = 1e-13
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
        if self.kind in ATOM_LEVELS and self.labels != ATOM_LEVELS[self.kind]:
            raise RegisterError(f"register {self.name}: {self.kind} labels must be "
                                f"{ATOM_LEVELS[self.kind]}")
        if self.kind == "mode" and self.labels != mode_labels(self.dim):
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
        return cls(name, "lambda3", ATOM_LEVELS["lambda3"])

    @classmethod
    def qubit2(cls, name: str) -> "Register":
        return cls(name, "qubit2", ATOM_LEVELS["qubit2"])

    @classmethod
    def mode(cls, name: str, dim: int) -> "Register":
        if dim < 1:
            raise RegisterError(f"register {name}: mode dim must be positive")
        return cls(name, "mode", mode_labels(dim))


@lru_cache(maxsize=16)
def mode_labels(dim: int) -> tuple[str, ...]:
    """A truncated mode's Fock labels "0".."dim-1", one shared tuple per dim."""
    return tuple(map(str, range(dim)))


@dataclass(frozen=True, eq=False)
class CompositeState:
    """Normalized amplitude vector over an ordered register list.

    The amplitudes array is frozen on construction.  States are values:
    every operation returns a new instance.  A state is normally unit
    norm; only a sub-unitary propagation kernel may leave it short of
    that, and the next measurement restores it.

    ``bases`` holds one entry per register: None for an axis in the
    register's own basis, or a read-only isometry Q (dim x k) for a
    compressed axis, whose k amplitudes are coordinates on Q's columns.
    ``amplitudes`` and ``tensor()`` are then the core; ``dense()`` is the
    same state with every axis in its register's basis.
    """

    registers: tuple[Register, ...]
    amplitudes: np.ndarray
    bases: tuple | None = None

    def __post_init__(self):
        names = [r.name for r in self.registers]
        if len(set(names)) != len(names):
            raise RegisterError(f"duplicate register name in {names}")
        bases = tuple(self.bases) if self.bases is not None else (None,) * len(self.registers)
        if len(bases) != len(self.registers):
            raise RegisterError(f"{len(bases)} bases for {len(self.registers)} registers")
        for reg, q in zip(self.registers, bases):
            if q is None:
                continue
            if q.ndim != 2 or q.shape[0] != reg.dim:
                raise RegisterError(f"register {reg.name}: basis shape {q.shape}, dim {reg.dim}")
            q.setflags(write=False)
        object.__setattr__(self, "bases", bases)
        amps = np.asarray(self.amplitudes, dtype=complex).reshape(-1)
        size = math.prod(self.shape)
        if amps.size != size:
            raise RegisterError(
                f"amplitude vector has length {amps.size}, register product is {size}"
            )
        amps.setflags(write=False)
        object.__setattr__(self, "amplitudes", amps)

    @property
    def dim(self) -> int:
        """The size of the state in its registers' own bases."""
        return int(np.prod([r.dim for r in self.registers], dtype=object)) if self.registers else 1

    @property
    def shape(self) -> tuple[int, ...]:
        """The shape of ``tensor()``: k on a compressed axis, the register's dim elsewhere."""
        return tuple(r.dim if q is None else q.shape[1]
                     for r, q in zip(self.registers, self.bases))

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

    def register(self, name: str, kind: str | None = None) -> Register:
        register = self.registers[self.axis(name)]
        if kind is not None and register.kind != kind:
            raise RegisterError(f"register {name} is {register.kind}, not {kind}")
        return register

    def tensor(self) -> np.ndarray:
        return self.amplitudes.reshape(self.shape)

    def dense(self) -> "CompositeState":
        return expand(self, [r.name for r, q in zip(self.registers, self.bases) if q is not None])


@dataclass(frozen=True, eq=False)
class OperatorMatrix:
    """Dense complex matrix; ``apply_op`` names the registers it acts on."""

    matrix: np.ndarray
    unitary: bool = False

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise RegisterError(f"operator matrix must be square, got shape {m.shape}")
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)
        if self.unitary:
            defect = unitarity_defect(m)
            if defect >= UNITARITY_TOLERANCE:
                raise RegisterError(f"matrix flagged unitary but max|U†U-I| = {defect:.3e}")

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


@dataclass(frozen=True, eq=False)
class BlockOperator:
    """Gate on (level register, mode) that conserves n + shifts[level].

    The gate only mixes levels at one excitation number k: level i with
    k - shifts[i] photons.  ``matrix[k]`` is that d x d block, and there
    are dim + max(shifts) of them.  Entries of a level whose photon number
    falls outside the mode's 0..dim-1 are never read, so near the cutoff
    only the block's rows and columns of the levels present act.
    """

    matrix: np.ndarray
    shifts: tuple[int, ...]

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        shifts = tuple(int(s) for s in self.shifts)
        if not shifts or m.ndim != 3 or m.shape[1:] != (len(shifts), len(shifts)):
            raise RegisterError(
                f"block stack must be (K, d, d) with d = {len(shifts)} shifts, got shape {m.shape}"
            )
        if min(shifts) < 0:
            raise RegisterError(f"block shifts must be non-negative, got {shifts}")
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "shifts", shifts)


def unitarity_defect(matrix: np.ndarray) -> float:
    m = np.asarray(matrix)
    return float(np.max(np.abs(m.conj().T @ m - np.eye(m.shape[0]))))


def make_state(registers, assignment) -> CompositeState:
    """Build a product state from per-register labels or amplitude vectors.

    Each register must be assigned either one of its basis labels or a
    normalized complex vector of its dimension, tensored on by ``extend``.
    """
    registers = tuple(registers)
    names = {r.name for r in registers}
    if set(assignment) != names:
        raise RegisterError(f"assignment names {sorted(assignment)}, registers are {sorted(names)}")
    state = CompositeState((), np.ones(1, dtype=complex))
    for reg in registers:
        state = extend(state, reg, assignment[reg.name])
    return state


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


def compress(state: CompositeState, register: str) -> CompositeState:
    """Hold one register's axis as an isometry Q and a core over Q's columns.

    The SVD of the state matricized on that axis gives Q = U_r and the
    core S_r V_r^H, keeping the r singular values above COMPRESSION_CUTOFF
    times the largest.
    """
    state = expand(state, [register])
    axis = state.axis(register)
    tens = np.moveaxis(state.tensor(), axis, 0)
    u, s, vh = np.linalg.svd(tens.reshape(tens.shape[0], -1), full_matrices=False)
    rank = max(1, int(np.count_nonzero(s > COMPRESSION_CUTOFF * s[0])))
    q = np.ascontiguousarray(u[:, :rank])
    core = np.moveaxis((s[:rank, None] * vh[:rank]).reshape((rank,) + tens.shape[1:]), 0, axis)
    bases = state.bases[:axis] + (q,) + state.bases[axis + 1:]
    return CompositeState(state.registers, core.reshape(-1), bases)


def expand(state: CompositeState, registers) -> CompositeState:
    """The state with the named registers' axes back in their own bases.

    Returns the state itself when none of them is compressed.
    """
    axes = [a for a in map(state.axis, registers) if state.bases[a] is not None]
    if not axes:
        return state
    tens, bases = state.tensor(), list(state.bases)
    for axis in axes:
        q, lead = bases[axis], math.prod(tens.shape[:axis])
        # Q times the core along the axis: one (dim x k)(k x rest) product per
        # index of the axes before it
        shape = tens.shape[:axis] + (q.shape[0],) + tens.shape[axis + 1:]
        tens = np.matmul(q, tens.reshape(lead, q.shape[1], -1)).reshape(shape)
        bases[axis] = None
    return CompositeState(state.registers, tens.reshape(-1), tuple(bases))


def apply_op(state: CompositeState, op: OperatorMatrix | BlockOperator, targets,
             control: tuple[str, str] | None = None) -> CompositeState:
    """Apply an operator on the named target registers, identity elsewhere.

    ``op`` is an OperatorMatrix over ``targets`` in row-major order, or a
    BlockOperator on (level, mode), applied block by block.  With
    ``control=(register name, label)`` it acts only on the slice where
    that register holds the label: the result of applying
    ``embed_controlled`` of the operator, without building it.  Compressed
    targets and control are expanded for the kernel and recompressed after.
    """
    if isinstance(op, BlockOperator) and len(targets) != 2:
        raise RegisterError(f"blocks target (level, mode), got {targets}")
    axes = [state.axis(name) for name in targets]
    if len(set(axes)) != len(axes):
        raise RegisterError(f"operator targets {targets} repeat a register")
    named = list(targets) + ([control[0]] if control else [])
    compressed = [name for name in named if state.bases[state.axis(name)] is not None]
    if compressed:
        out = apply_op(expand(state, compressed), op, targets, control)
        for name in compressed:
            out = compress(out, name)
        return out
    tens = state.tensor()
    if control is None:
        out = np.empty_like(tens)
        _contract(op, tens, out, axes)
    else:
        name, label = control
        c = state.axis(name)
        if c in axes:
            raise RegisterError(f"control register {name} is also a target")
        where = (slice(None),) * c + (state.registers[c].index(label),)
        out = tens.copy()
        _contract(op, tens[where], out[where], [a - (a > c) for a in axes])
    return CompositeState(state.registers, out.reshape(-1), state.bases)


def _contract(op, src: np.ndarray, dst: np.ndarray, axes: list[int]) -> None:
    """Write op applied over src's target axes into dst (same shape)."""
    if isinstance(op, BlockOperator):
        _contract_blocks(op, src, dst, *axes)
        return
    target_dim = int(np.prod([src.shape[a] for a in axes], dtype=object))
    if target_dim != op.dim:
        raise RegisterError(
            f"operator dim {op.dim} does not match target registers (product {target_dim})"
        )
    rest = [i for i in range(src.ndim) if i not in axes]
    perm = axes + rest
    tens = op.matrix @ src.transpose(perm).reshape(target_dim, -1)
    dst[...] = tens.reshape([src.shape[i] for i in perm]).transpose(np.argsort(perm))


def _contract_blocks(op: BlockOperator, src: np.ndarray, dst: np.ndarray,
                     level_axis: int, mode_axis: int) -> None:
    """dst[i, n] = sum_j matrix[n + s_i, i, j] src[j, n + s_i - s_j], s the shifts.

    Each (i, j) pair is one broadcast multiply over the photon numbers
    where both levels exist; pairs whose coefficients vanish are skipped.
    """
    count, d, _ = op.matrix.shape
    dim = src.shape[mode_axis]
    if src.shape[level_axis] != d or dim + max(op.shifts) != count:
        raise RegisterError(
            f"blocks {op.matrix.shape} with shifts {op.shifts} do not fit levels "
            f"({src.shape[level_axis]}) and mode ({dim})"
        )
    # one level picked: the mode axis loses a position if it came later
    m_axis = mode_axis - (mode_axis > level_axis)
    pick = (slice(None),) * level_axis
    before = (slice(None),) * m_axis
    shape = [1] * (src.ndim - 1)
    for i, si in enumerate(op.shifts):
        out = dst[pick + (i,)]
        shape[m_axis] = dim
        np.multiply(op.matrix[si:si + dim, i, i].reshape(shape), src[pick + (i,)], out=out)
        for j, sj in enumerate(op.shifts):
            lo, hi = max(0, sj - si), min(dim, dim + sj - si)
            coef = op.matrix[lo + si:hi + si, i, j]
            if j == i or not coef.any():
                continue
            shape[m_axis] = hi - lo
            source = src[pick + (j,)][before + (slice(lo + si - sj, hi + si - sj),)]
            out[before + (slice(lo, hi),)] += coef.reshape(shape) * source


def label_probabilities(state: CompositeState, register: str) -> np.ndarray:
    """Squared-norm weight of each basis label of one register.

    For a unit-norm state these are the Born probabilities; after a
    sub-unitary kernel they sum to the surviving flux instead of 1.  The
    tested reference for ``label_branch``'s squared norms, which a run reads.
    Other compressed axes need no expansion: their bases are isometries.
    """
    state = expand(state, [register])
    axis = state.axis(register)
    tens = np.abs(state.tensor()) ** 2
    other = tuple(i for i in range(len(state.registers)) if i != axis)
    return tens.sum(axis=other) if other else tens


def collapse(state: CompositeState, register: str, label: str) -> tuple[CompositeState, float]:
    """Detect one register at a basis label and retire it.

    Takes the label's slice, scales it to unit norm in place and returns
    it without that register, with the squared norm of the branch: one
    pass over the kept slice.  Raises ImpossibleOutcomeError when that
    weight is below 1e-14, which signals post-selection of a dead branch.
    """
    branch, probability = label_branch(state, register, label)
    if probability < IMPOSSIBLE_OUTCOME_THRESHOLD:
        raise ImpossibleOutcomeError(
            f"outcome {label!r} on register {register} has probability "
            f"{probability:.3e}, below {IMPOSSIBLE_OUTCOME_THRESHOLD:g}"
        )
    branch /= np.sqrt(probability)
    axis = state.axis(register)
    remaining = state.registers[:axis] + state.registers[axis + 1:]
    bases = state.bases[:axis] + state.bases[axis + 1:]
    return CompositeState(remaining, branch, bases), probability


def label_branch(state: CompositeState, register: str, label: str) -> tuple[np.ndarray, float]:
    """One label's slice of the state, as a fresh flat array, and its squared norm.

    The slice is a core over the state's other axes, with their bases.
    """
    state = expand(state, [register])
    axis = state.axis(register)
    index = state.registers[axis].index(label)
    branch = np.take(state.tensor(), index, axis=axis).reshape(-1)
    return branch, float(np.sum(np.abs(branch) ** 2))


def project(state: CompositeState, register: str, label: str) -> tuple[CompositeState, float]:
    """Project one register onto a basis label and renormalize, keeping it.

    The tested reference for ``collapse``: its branch embedded into zeros
    at the label, so that ``drop_register`` of the result is ``collapse``.
    """
    state = expand(state, [register])
    axis = state.axis(register)
    kept, probability = collapse(state, register, label)
    collapsed = np.zeros(state.shape, dtype=complex)
    index = (slice(None),) * axis + (state.registers[axis].index(label),)
    collapsed[index] = kept.tensor()
    return CompositeState(state.registers, collapsed.reshape(-1), state.bases), probability


def drop_register(state: CompositeState, register: str) -> CompositeState:
    """Remove a register whose support is a single basis label.

    The tested reference for ``collapse``, applied after ``project``: the
    register then factors out as a pure basis ket, found by scanning the
    whole state, and carries no further information.
    """
    state = expand(state, [register])
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
    remaining = state.registers[:axis] + state.registers[axis + 1:]
    bases = state.bases[:axis] + state.bases[axis + 1:]
    return CompositeState(remaining, sliced.reshape(-1), bases)


def extend(state: CompositeState, register: Register, value) -> CompositeState:
    """Tensor a fresh register (label or normalized vector) onto the state."""
    vec = basis_column(register, value)
    norm = np.linalg.norm(vec)
    if abs(norm - 1.0) > VECTOR_NORM_TOLERANCE:
        raise RegisterError(
            f"register {register.name}: assignment vector is not normalized (norm {norm:.12f})"
        )
    # the appended register varies fastest
    out = np.multiply.outer(state.amplitudes, vec).reshape(-1)
    return CompositeState(state.registers + (register,), out, state.bases + (None,))


def rebase_register(
    state: CompositeState, register: str, matrix: np.ndarray, new_register: Register
) -> CompositeState:
    """Replace one register's basis through a (possibly rectangular) map.

    matrix[t, s] is the amplitude for source label s to land on target
    label t.  The register keeps its position in the ordering.
    """
    state = expand(state, [register])
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
    return CompositeState(tuple(registers), tens.reshape(-1), state.bases)


def reorder(state: CompositeState, names) -> CompositeState:
    """Permute registers into the given name order."""
    names = tuple(names)
    if sorted(names) != sorted(state.names):
        raise RegisterError(f"cannot reorder {state.names} as {names}")
    perm = [state.axis(n) for n in names]
    tens = state.tensor().transpose(perm)
    return CompositeState(tuple(state.registers[i] for i in perm), tens.reshape(-1),
                          tuple(state.bases[i] for i in perm))


def embed_controlled(control: Register, label: str, op: OperatorMatrix) -> OperatorMatrix:
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
    return OperatorMatrix(blocks, op.unitary)


def fidelity(a: CompositeState, b: CompositeState) -> float:
    """Squared overlap |<a|b>|², insensitive to global phase."""
    if a.registers != b.registers:
        raise RegisterError(
            f"fidelity needs identical register lists, got {a.names} vs {b.names}"
        )
    a, b = a.dense(), b.dense()
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
    # a compressed axis traced out needs nothing: its basis is an isometry
    state = expand(state, subset)
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
    matrix of the terms' per-register inner products.  On a compressed
    axis with basis Q, a label or vector v contracts as Q^H v.
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
            value, q = parts[reg.name], state.bases[axis]
            if q is not None:
                vectors.append((axis, q.conj().T @ basis_column(reg, value)))
            elif isinstance(value, str):
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
