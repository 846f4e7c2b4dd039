import math
from functools import reduce

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slitport.fockspace import (
    IMPOSSIBLE_OUTCOME_THRESHOLD,
    BlockOperator,
    CompositeState,
    ImpossibleOutcomeError,
    OperatorMatrix,
    Register,
    RegisterError,
    apply_op,
    basis_column,
    collapse,
    drop_register,
    embed_controlled,
    extend,
    fidelity,
    label_probabilities,
    make_state,
    product_fidelity,
    project,
    rebase_register,
    reduced_fidelity,
    reorder,
)
from slitport.gates import dispersive_blocks, jc_blocks

RNG = np.random.default_rng(20240817)


def random_unitary(dim: int) -> np.ndarray:
    z = RNG.normal(size=(dim, dim)) + 1j * RNG.normal(size=(dim, dim))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def test_register_constructors():
    lam = Register.lambda3("A1")
    assert lam.dim == 3 and lam.labels == ("a", "b", "c")
    probe = Register.qubit2("A51")
    assert probe.labels == ("f", "e")
    mode = Register.mode("C1", 4)
    assert mode.labels == ("0", "1", "2", "3")
    path = Register.path("A1_path", ("sl1", "sl2"))
    assert path.index("sl2") == 1


def test_register_invariants():
    with pytest.raises(RegisterError):
        Register("A1", "lambda3", ("x", "y", "z"))
    with pytest.raises(RegisterError):
        Register("C1", "mode", ("1", "0"))
    with pytest.raises(RegisterError):
        Register.path("p", ("a", "a"))
    with pytest.raises(RegisterError):
        Register("A1", "spin", ("u", "d"))


def test_atom_register_label_messages():
    with pytest.raises(RegisterError) as err:
        Register("A1", "lambda3", ("a", "c", "b"))
    assert str(err.value) == "register A1: lambda3 labels must be ('a', 'b', 'c')"
    with pytest.raises(RegisterError) as err:
        Register("A51", "qubit2", ("e", "f"))
    assert str(err.value) == "register A51: qubit2 labels must be ('f', 'e')"


def test_make_state_basis_assignment():
    state = make_state([Register.lambda3("A1")], {"A1": "b"})
    assert np.allclose(state.amplitudes, [0, 1, 0])


def test_make_state_vacuum():
    state = make_state([Register.mode("C1", 4)], {"C1": (1, 0, 0, 0)})
    assert np.allclose(state.amplitudes, [1, 0, 0, 0])


def test_make_state_split_superposition():
    r = 1 / math.sqrt(2)
    state = make_state([Register.path("A1_path", ("z11", "z12"))], {"A1_path": (r, r)})
    assert abs(state.norm() - 1) < 1e-12
    assert np.allclose(state.amplitudes, [r, r])


def test_make_state_errors():
    regs = [Register.lambda3("A1")]
    with pytest.raises(RegisterError):
        make_state(regs, {"A1": "q"})
    with pytest.raises(RegisterError):
        make_state(regs, {"A1": (1.0, 1.0, 0.0)})  # unnormalized
    with pytest.raises(RegisterError):
        make_state([Register.lambda3("A1"), Register.lambda3("A1")], {"A1": "a"})
    with pytest.raises(RegisterError):
        make_state(regs, {})


def test_apply_identity():
    state = make_state([Register.mode("C1", 5)], {"C1": "2"})
    op = OperatorMatrix(np.eye(5), unitary=True)
    out = apply_op(state, op, ("C1",))
    assert np.allclose(out.amplitudes, state.amplitudes)


def test_apply_op_register_mismatch():
    regs = [Register.path("p", ("u", "v")), Register.lambda3("A1"), Register.mode("C1", 5)]
    state = make_state(regs, {"p": "u", "A1": "b", "C1": "0"})
    with pytest.raises(RegisterError):
        apply_op(state, OperatorMatrix(np.eye(5)), ("C2",))
    with pytest.raises(RegisterError):
        apply_op(state, OperatorMatrix(np.eye(4)), ("C1",))
    # two-level blocks on a three-level atom
    with pytest.raises(RegisterError, match="do not fit"):
        apply_op(state, jc_blocks(0.3, 5), ("A1", "C1"))
    # blocks for a 4-photon cutoff on a 5-photon mode
    with pytest.raises(RegisterError, match="do not fit"):
        apply_op(state, dispersive_blocks(0.3, 4), ("A1", "C1"))
    with pytest.raises(RegisterError, match="unknown label"):
        apply_op(state, dispersive_blocks(0.3, 5), ("A1", "C1"), ("p", "w"))
    with pytest.raises(RegisterError, match="also a target"):
        apply_op(state, dispersive_blocks(0.3, 5), ("A1", "C1"), ("A1", "b"))
    with pytest.raises(RegisterError, match="repeat a register"):
        apply_op(state, OperatorMatrix(np.eye(25)), ("C1", "C1"))
    with pytest.raises(RegisterError, match="must be"):
        BlockOperator(np.zeros((5, 3, 2)), (0, 0, 0))


def test_apply_op_non_adjacent_targets():
    # operator addressing (first, last) register with another in between
    regs = [Register.mode("C1", 3), Register.lambda3("A1"), Register.mode("C2", 2)]
    state = make_state(regs, {"C1": "1", "A1": "c", "C2": "0"})
    u = random_unitary(6)
    out = apply_op(state, OperatorMatrix(u, unitary=True), ("C1", "C2"))
    # independent contraction: out[i,a,l] = sum_{j,m} U[(i,l),(j,m)] T[j,a,m]
    dense = np.einsum("iljm,jam->ial", u.reshape(3, 2, 3, 2), state.tensor()).reshape(-1)
    assert np.max(np.abs(out.amplitudes - dense)) < 1e-12
    assert abs(out.norm() - 1) < 1e-12


def test_disjoint_ops_commute():
    regs = [Register.mode("C1", 4), Register.mode("C2", 3), Register.lambda3("A1")]
    vec1 = RNG.normal(size=4) + 1j * RNG.normal(size=4)
    vec2 = RNG.normal(size=3) + 1j * RNG.normal(size=3)
    state = make_state(regs, {
        "C1": vec1 / np.linalg.norm(vec1),
        "C2": vec2 / np.linalg.norm(vec2),
        "A1": "b",
    })
    u = OperatorMatrix(random_unitary(4), unitary=True)
    v = OperatorMatrix(random_unitary(3), unitary=True)
    one = apply_op(apply_op(state, u, ("C1",)), v, ("A1",))
    two = apply_op(apply_op(state, v, ("A1",)), u, ("C1",))
    assert np.max(np.abs(one.amplitudes - two.amplitudes)) < 1e-12


def test_norm_preserved_by_random_unitaries():
    state = make_state([Register.mode("C1", 8)], {"C1": "3"})
    for _ in range(20):
        state = apply_op(state, OperatorMatrix(random_unitary(8), unitary=True), ("C1",))
        assert abs(state.norm() - 1) < 1e-12


def test_unitary_flag_checked():
    with pytest.raises(RegisterError):
        OperatorMatrix(np.diag([1.0, 0.5]), unitary=True)


def test_project_eigenstate():
    state = make_state([Register.lambda3("A1")], {"A1": "b"})
    out, p = project(state, "A1", "b")
    assert p == pytest.approx(1.0, abs=1e-12)
    assert np.allclose(out.amplitudes, state.amplitudes)


def test_project_orthogonal_outcome():
    state = make_state([Register.lambda3("A1")], {"A1": "b"})
    with pytest.raises(ImpossibleOutcomeError):
        project(state, "A1", "c")


def test_projection_completeness():
    regs = [Register.lambda3("A1"), Register.mode("C1", 6)]
    vec = RNG.normal(size=18) + 1j * RNG.normal(size=18)
    state = CompositeState(tuple(regs), vec / np.linalg.norm(vec))
    total = 0.0
    for label in ("a", "b", "c"):
        _, p = project(state, "A1", label)
        total += p
    assert abs(total - 1.0) < 1e-12


def test_project_renormalizes():
    r = 1 / math.sqrt(2)
    state = make_state([Register.lambda3("A1")], {"A1": (r, r, 0)})
    out, p = project(state, "A1", "a")
    assert p == pytest.approx(0.5, abs=1e-12)
    assert abs(out.norm() - 1) < 1e-12


def test_drop_register_requires_collapse():
    r = 1 / math.sqrt(2)
    regs = [Register.lambda3("A1"), Register.mode("C1", 2)]
    entangled = np.zeros(6, dtype=complex)
    entangled[0] = r   # a,0
    entangled[3] = r   # b,1
    state = CompositeState(tuple(regs), entangled)
    with pytest.raises(RegisterError):
        drop_register(state, "A1")
    collapsed, _ = project(state, "A1", "a")
    smaller = drop_register(collapsed, "A1")
    assert smaller.names == ("C1",)
    assert np.allclose(smaller.amplitudes, [1, 0])


def test_fidelity_self_and_phase():
    vec = RNG.normal(size=12) + 1j * RNG.normal(size=12)
    regs = (Register.mode("C1", 12),)
    s = CompositeState(regs, vec / np.linalg.norm(vec))
    assert fidelity(s, s) == pytest.approx(1.0, abs=1e-12)
    rotated = CompositeState(regs, s.amplitudes * np.exp(0.7j))
    assert fidelity(s, rotated) == pytest.approx(1.0, abs=1e-12)


def test_fidelity_symmetry_exact():
    regs = (Register.mode("C1", 9),)
    v1 = RNG.normal(size=9) + 1j * RNG.normal(size=9)
    v2 = RNG.normal(size=9) + 1j * RNG.normal(size=9)
    a = CompositeState(regs, v1 / np.linalg.norm(v1))
    b = CompositeState(regs, v2 / np.linalg.norm(v2))
    assert abs(fidelity(a, b) - fidelity(b, a)) < 1e-15


def test_fidelity_register_mismatch():
    a = make_state([Register.lambda3("A1")], {"A1": "a"})
    b = make_state([Register.lambda3("A2")], {"A2": "a"})
    with pytest.raises(RegisterError):
        fidelity(a, b)


def test_reduced_fidelity_product_state():
    regs = [Register.path("p", ("u", "v")), Register.lambda3("A1")]
    state = make_state(regs, {"p": "u", "A1": "c"})
    target = make_state([regs[0]], {"p": "u"})
    assert reduced_fidelity(state, ("p",), target) == pytest.approx(1.0, abs=1e-12)


def test_reduced_fidelity_maximally_mixed():
    # path maximally entangled with the atom: reduced state is I/2
    regs = (Register.path("p", ("u", "v")), Register.lambda3("A1"))
    amps = np.zeros(6, dtype=complex)
    amps[0 * 3 + 0] = 1 / math.sqrt(2)   # u,a
    amps[1 * 3 + 1] = 1 / math.sqrt(2)   # v,b
    state = CompositeState(regs, amps)
    for vec in ((1, 0), (0, 1), (1 / math.sqrt(2), 1j / math.sqrt(2))):
        target = make_state([regs[0]], {"p": np.array(vec)})
        assert reduced_fidelity(state, ("p",), target) == pytest.approx(0.5, abs=1e-12)


def test_reduced_fidelity_errors():
    regs = [Register.path("p", ("u", "v")), Register.lambda3("A1")]
    state = make_state(regs, {"p": "u", "A1": "c"})
    bad_target = make_state([Register.path("p", ("x", "y"))], {"p": "x"})
    with pytest.raises(RegisterError):
        reduced_fidelity(state, ("p",), bad_target)
    with pytest.raises(RegisterError):
        reduced_fidelity(state, (), bad_target)


def test_basis_column_checks_length_only():
    reg = Register.lambda3("A1")
    assert np.array_equal(basis_column(reg, "c"), [0, 0, 1])
    assert np.array_equal(basis_column(reg, (2, 0, 0)), [2, 0, 0])  # unnormalized is kept
    with pytest.raises(RegisterError, match="vector length"):
        basis_column(reg, (1, 0))
    with pytest.raises(RegisterError):
        basis_column(reg, "q")


def test_product_fidelity_missing_register():
    state = make_state([Register.lambda3("A1")], {"A1": "a"})
    regs = (Register.lambda3("A1"), Register.lambda3("A2"))
    with pytest.raises(RegisterError, match=r"expects registers \['A2'\] that are not live"):
        product_fidelity(state, regs, [1.0], (np.eye(3)[:1], np.eye(3)[:1]))


def test_product_fidelity_labels_differ():
    regs = [Register.path("p", ("u", "v")), Register.lambda3("A1")]
    state = make_state(regs, {"p": "u", "A1": "c"})
    other = Register.path("p", ("x", "y"))
    with pytest.raises(RegisterError, match="labels differ"):
        product_fidelity(state, (other,), [1.0], (np.eye(2)[:1],))


def test_product_fidelity_factor_shapes_must_fit():
    regs = (Register.path("p", ("u", "v")), Register.lambda3("A1"))
    state = make_state(regs, {"p": "u", "A1": "c"})
    for coeffs, factors in (([1.0], (np.eye(2)[:1],)),  # a register without a factor
                            ([1.0], (np.eye(2)[:1], np.eye(2)[:1])),  # a row of the wrong length
                            ([1.0, 1.0], (np.eye(2), np.eye(3)[:1]))):  # a factor short of a row
        with pytest.raises(RegisterError, match="factor shapes"):
            product_fidelity(state, regs, coeffs, factors)


@pytest.mark.parametrize("terms", [
    ([], np.zeros((0, 3))),
    ([0.0], [[1, 0, 0]]),  # A1 at a, with coefficient 0
    ([0.5, -0.5], [[0, 1, 0], [0, 1, 0]]),  # A1 at b, cancelling
    ([1.0, -2.0], [[0.6, 0.8, 0.0], [0.3, 0.4, 0.0]]),  # cancelling vectors
    ([3.0, -1.0], [[0.1, 0.2, 0.0], [0.3, 0.6, 0.0]]),  # cancelling but for rounding
])
def test_product_fidelity_zero_target(terms):
    coeffs, factor = terms
    state = make_state([Register.lambda3("A1")], {"A1": "a"})
    with pytest.raises(RegisterError, match="zero vector"):
        product_fidelity(state, state.registers, coeffs, (np.array(factor, dtype=complex),))


def test_reorder_preserves_physics():
    regs = [Register.mode("C1", 3), Register.lambda3("A1"), Register.path("p", ("u", "v"))]
    vec = RNG.normal(size=18) + 1j * RNG.normal(size=18)
    state = CompositeState(tuple(regs), vec / np.linalg.norm(vec))
    swapped = reorder(state, ("p", "C1", "A1"))
    assert swapped.names == ("p", "C1", "A1")
    back = reorder(swapped, ("C1", "A1", "p"))
    assert np.allclose(back.amplitudes, state.amplitudes)
    _, p_orig = project(state, "A1", "b")
    _, p_swap = project(swapped, "A1", "b")
    assert p_orig == pytest.approx(p_swap, abs=1e-14)


# --- collapse and extend against their two-pass and kron references ---


@st.composite
def _registers(draw, min_size: int, max_size: int) -> tuple[Register, ...]:
    kinds = draw(st.lists(st.sampled_from(["path", "lambda3", "qubit2", "mode"]),
                          min_size=min_size, max_size=max_size))
    registers = []
    for i, kind in enumerate(kinds):
        name = f"R{i}"
        if kind == "path":
            registers.append(Register.path(name, ("u", "v", "w")[:draw(st.integers(2, 3))]))
        elif kind == "mode":
            registers.append(Register.mode(name, draw(st.integers(2, 6))))
        else:
            registers.append(getattr(Register, kind)(name))
    return tuple(registers)


def _random_state(registers, seed: int, norm: float) -> CompositeState:
    rng = np.random.default_rng(seed)
    size = int(np.prod([r.dim for r in registers]))
    vec = rng.normal(size=size) + 1j * rng.normal(size=size)
    return CompositeState(registers, norm * vec / np.linalg.norm(vec))


def _two_pass_detection(state: CompositeState, register: str, label: str):
    """Detection as a zeroed full-size projection, then drop_register."""
    axis = state.axis(register)
    tens = state.tensor()
    index = (slice(None),) * axis + (state.registers[axis].index(label),)
    probability = float(np.sum(np.abs(tens[index]) ** 2))
    projected = np.zeros_like(tens)
    projected[index] = tens[index] / np.sqrt(probability)
    return drop_register(CompositeState(state.registers, projected), register), probability


@settings(max_examples=80, deadline=None)
@given(
    registers=_registers(2, 5),
    seed=st.integers(0, 2**32 - 1),
    norm=st.sampled_from([1.0, 0.8, 0.3]),
    pick=st.integers(0, 4),
    label_pick=st.integers(0, 5),
    dead=st.sampled_from([None, 0.0, 1e-8]),
)
def test_collapse_is_project_then_drop_register(registers, seed, norm, pick, label_pick, dead):
    reg = registers[pick % len(registers)]
    label = reg.labels[label_pick % reg.dim]
    state = _random_state(registers, seed, norm)
    if dead is not None:
        # scale the label's slice below the threshold: a dead branch
        tens = state.tensor().copy()
        tens[(slice(None),) * state.axis(reg.name) + (reg.index(label),)] *= dead
        state = CompositeState(registers, tens)
        with pytest.raises(ImpossibleOutcomeError) as fused:
            collapse(state, reg.name, label)
        with pytest.raises(ImpossibleOutcomeError) as reference:
            project(state, reg.name, label)
        assert str(fused.value) == str(reference.value)
        assert f"below {IMPOSSIBLE_OUTCOME_THRESHOLD:g}" in str(fused.value)
        return
    kept, probability = collapse(state, reg.name, label)
    projected, p_project = project(state, reg.name, label)
    dropped = drop_register(projected, reg.name)
    two_pass, p_two_pass = _two_pass_detection(state, reg.name, label)
    assert kept.registers == dropped.registers == two_pass.registers
    assert kept.registers == tuple(r for r in registers if r is not reg)
    assert np.array_equal(kept.amplitudes, dropped.amplitudes)
    assert np.array_equal(kept.amplitudes, two_pass.amplitudes)
    assert probability == p_project == p_two_pass


@settings(max_examples=80, deadline=None)
@given(
    registers=_registers(0, 4),
    new=_registers(1, 1),
    seed=st.integers(0, 2**32 - 1),
    zeros=st.sets(st.integers(0, 5), max_size=3),
    label_pick=st.one_of(st.none(), st.integers(0, 5)),
)
def test_extend_is_kron(registers, new, seed, zeros, label_pick):
    state = _random_state(registers, seed, 1.0)
    register = Register(f"R{len(registers)}", new[0].kind, new[0].labels)
    if label_pick is None:
        vec = _random_state(new, seed + 1, 1.0).amplitudes.copy()
        vec[[z % register.dim for z in zeros]] = 0
        if not vec.any():
            vec[-1] = 1.0
        value = vec = vec / np.linalg.norm(vec)
    else:
        value = register.labels[label_pick % register.dim]
        vec = basis_column(register, value)
    bigger = extend(state, register, value)
    expected = np.kron(state.amplitudes, vec)
    assert bigger.registers == registers + (register,)
    assert np.array_equal(bigger.amplitudes, expected)
    assert bigger.amplitudes.tobytes() == expected.tobytes()


@settings(max_examples=80, deadline=None)
@given(
    registers=_registers(1, 4),
    seed=st.integers(0, 2**32 - 1),
    terms=st.integers(1, 6),
    squeeze=st.sets(st.integers(0, 4), max_size=3),
    width=st.integers(1, 6),
)
def test_stacked_contraction_is_the_dense_overlap(registers, seed, terms, squeeze, width):
    rng = np.random.default_rng(seed)
    # an extra register, traced out, at a random place; the axes in squeeze
    # held on random isometries of random width k
    live = list(registers)
    live.insert(int(rng.integers(len(live) + 1)), Register.qubit2("extra"))
    bases = []
    for i, reg in enumerate(live):
        k = min(width + i % 2, reg.dim)
        z = rng.normal(size=(reg.dim, k)) + 1j * rng.normal(size=(reg.dim, k))
        bases.append(np.linalg.qr(z)[0] if i in squeeze else None)
    shape = [reg.dim if q is None else q.shape[1] for reg, q in zip(live, bases)]
    core = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    state = CompositeState(tuple(live), core / np.linalg.norm(core), bases)
    # the target over the registers in a random order: each row a basis
    # column or an unnormalized vector, some coefficients zero
    targets = [registers[i] for i in rng.permutation(len(registers))]
    coeffs = (rng.normal(size=terms) + 1j * rng.normal(size=terms)) * (rng.random(terms) > 0.3)
    factors = []
    for reg in targets:
        rows = rng.normal(size=(terms, reg.dim)) + 1j * rng.normal(size=(terms, reg.dim))
        for i in np.flatnonzero(rng.random(terms) < 0.5):
            rows[i] = basis_column(reg, reg.labels[rng.integers(reg.dim)])
        factors.append(rows)
    if not coeffs.any():
        with pytest.raises(RegisterError, match="zero vector"):
            product_fidelity(state, targets, coeffs, factors)
        return
    target = sum(c * reduce(np.kron, rows) for c, *rows in zip(coeffs, *factors))
    dense = reorder(state.dense(), [r.name for r in targets] + ["extra"])
    overlaps = target.conj() @ dense.amplitudes.reshape(target.size, -1)
    want = np.sum(np.abs(overlaps) ** 2) / np.vdot(target, target).real
    assert product_fidelity(state, targets, coeffs, factors) == pytest.approx(want, abs=1e-12)
    assert product_fidelity(state.dense(), targets, coeffs, factors) == pytest.approx(
        want, abs=1e-12)


def test_extend_appends_fastest_axis():
    state = make_state([Register.lambda3("A1")], {"A1": "a"})
    bigger = extend(state, Register.mode("C1", 2), "1")
    assert bigger.names == ("A1", "C1")
    assert np.allclose(bigger.amplitudes, [0, 1, 0, 0, 0, 0])


def test_rebase_register_rectangular():
    state = make_state([Register.path("p", ("u", "v")), Register.lambda3("A1")],
                       {"p": (0.6, 0.8), "A1": "a"})
    selector = np.array([[1.0, 0.0]])
    out = rebase_register(state, "p", selector, Register.path("p", ("w",)))
    assert out.register("p").labels == ("w",)
    assert out.norm() == pytest.approx(0.6, abs=1e-12)


def test_embed_controlled_identity_on_other_labels():
    control = Register.path("p", ("u", "v"))
    inner = OperatorMatrix(random_unitary(3), unitary=True)
    lifted = embed_controlled(control, "v", inner)
    assert lifted.unitary
    m = lifted.matrix
    assert np.allclose(m[:3, :3], np.eye(3))
    assert np.allclose(m[3:, 3:], inner.matrix)


def test_label_probabilities():
    r = 1 / math.sqrt(2)
    state = make_state([Register.path("p", ("u", "v"))], {"p": (r, r)})
    probs = label_probabilities(state, "p")
    assert np.allclose(probs, [0.5, 0.5])


def test_apply_nonunitary_projector_can_annihilate():
    from slitport.gates import cat_state, pi_projector

    n = 32
    state = make_state([Register.mode("C1", n)], {"C1": cat_state(1.5, -1, n)})
    out = apply_op(state, pi_projector(+1, n), ("C1",))
    assert out.norm() < 1e-12


def test_opposite_parity_states_orthogonal():
    from slitport.gates import cat_state

    n = 32
    even = make_state([Register.mode("C1", n)], {"C1": cat_state(1.5, +1, n)})
    odd = make_state([Register.mode("C1", n)], {"C1": cat_state(1.5, -1, n)})
    assert fidelity(even, odd) == 0.0


def outcome(call):
    """A call's value, or the type and message of the error it raises."""
    try:
        return call()
    except Exception as exc:
        return type(exc), str(exc)


_QUTRIT = make_state([Register.lambda3("A")], {"A": "b"})


# checks that no other test reaches: each call's value, or its exact error
@pytest.mark.parametrize("call, expected", [
    (lambda: Register.path("p", ()), (RegisterError, "register p: empty label list")),
    (lambda: Register.mode("M", 0), (RegisterError, "register M: mode dim must be positive")),
    (lambda: CompositeState((Register.lambda3("A"),), np.ones(2)),
     (RegisterError, "amplitude vector has length 2, register product is 3")),
    (lambda: OperatorMatrix(np.ones((2, 3))),
     (RegisterError, "operator matrix must be square, got shape (2, 3)")),
    (lambda: apply_op(_QUTRIT, dispersive_blocks(0.3, 4), ("C1",)),
     (RegisterError, "blocks target (level, mode), got ('C1',)")),
    (lambda: BlockOperator(np.zeros((2, 2, 2)), (0, -1)),
     (RegisterError, "block shifts must be non-negative, got (0, -1)")),
    (lambda: reorder(_QUTRIT, ("B",)), (RegisterError, "cannot reorder ('A',) as ('B',)")),
])
def test_rarely_reached_check(call, expected):
    assert outcome(call) == expected


def test_state_bases_are_checked():
    level = Register.lambda3("A")
    assert outcome(lambda: CompositeState((level,), np.ones(3), ())) == \
        (RegisterError, "0 bases for 1 registers")
    assert outcome(lambda: CompositeState((level,), np.ones(1), (np.ones((2, 1)),))) == \
        (RegisterError, "register A: basis shape (2, 1), dim 3")
