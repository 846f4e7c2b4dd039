import math
import tracemalloc
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_acceptance import _fuzzed_script
from test_fockspace import outcome

from slitport import fockspace, oracle, protocol
from slitport.fockspace import (
    ATOM_LEVELS,
    CompositeState,
    ImpossibleOutcomeError,
    Register,
    RegisterError,
    TruncationError,
    collapse,
    compress,
    extend,
    fidelity,
    make_state,
    rebase_register,
    reorder,
)
from slitport.gates import cat_state, coherent_amplitudes
from slitport.protocol import (
    CavityPass,
    Checkpoint,
    DeclareAtom,
    DeclareCavity,
    Detect,
    Inject,
    JcPass,
    Kernel,
    Propagate,
    ProtocolError,
    RunInputs,
    Split,
    _Runner,
    canonical_json,
    conditional_cavity_pass,
    inject_coherent,
    jc_pass,
    path_name,
    propagate,
    run_batch,
    run_protocol,
    split_at_screen,
)
from slitport.scenario import REFERENCE_SCRIPT
from slitport.script import ResolvedRun, parse, resolve

RNG = np.random.default_rng(4242)
R = 1 / math.sqrt(2)


def random_pair():
    z = RNG.normal(size=4)
    cb, cc = z[0] + 1j * z[1], z[2] + 1j * z[3]
    norm = math.sqrt(abs(cb) ** 2 + abs(cc) ** 2)
    return cb / norm, cc / norm


def reference_run(**overrides):
    return resolve(parse(REFERENCE_SCRIPT), overrides)


SLITS = ("sl1", "sl2")
BINDINGS = (("sl1", "C1"), ("sl2", "C2"))


def fresh_atom_state(truncation=32, alpha=2.0, internal="b"):
    regs = [Register.mode("C1", truncation), Register.mode("C2", truncation),
            Register.lambda3("A1")]
    coh = coherent_amplitudes(alpha, truncation)
    return make_state(regs, {"C1": coh, "C2": coh, "A1": internal})


# --- split ---


def test_split_equal_superposition():
    state = split_at_screen(fresh_atom_state(), "A1", SLITS)
    assert state.register("A1_path").labels == ("sl1", "sl2")
    tens = state.tensor()
    assert abs(state.norm() - 1) < 1e-12
    probs = np.sum(np.abs(tens) ** 2, axis=(0, 1, 2))
    assert np.allclose(probs, [0.5, 0.5])


def test_split_twice_rejected():
    state = split_at_screen(fresh_atom_state(), "A1", SLITS)
    with pytest.raises(RegisterError, match="atom A1 is already split"):
        split_at_screen(state, "A1", SLITS)


def test_split_names_the_register_that_holds_the_path_name():
    state = extend(fresh_atom_state(), Register("A1_path", "qubit2", ("f", "e")), "f")
    with pytest.raises(RegisterError) as err:
        split_at_screen(state, "A1", SLITS)
    assert str(err.value) == ("atom A1 cannot split: its path register name 'A1_path' is taken "
                              "by a qubit2 register")


def test_a_step_built_by_hand_is_named_by_its_type():
    # one instruction of each kind: a script line names its record, and an
    # instruction built without one is named by its type
    instructions = [
        DeclareCavity("C1", 1.0, 32), DeclareCavity("C2", 1.0, 32),
        DeclareAtom("A1", "lambda3", "b", text="atom A1 lambda3 state b"), Split("A1", SLITS),
        Checkpoint("A1_split"), CavityPass("A1", BINDINGS, math.pi),
        Propagate("A1", Kernel(("dp",), np.array([[R, R]]))), Detect("A1", "position", "dp"),
        Detect("A1", "internal", "b"), Inject("C1", 0.1), DeclareAtom("P", "qubit2", "f"),
        JcPass("P", "C2", 0.3),
    ]
    report = run_protocol(instructions, RunInputs(alpha=1.0, truncation=32))
    assert [(s.name, s.kind) for s in report.steps] == [
        ("DeclareCavity", "declare"), ("DeclareCavity", "declare"),
        ("atom A1 lambda3 state b", "declare"), ("Split", "split"),
        ("Checkpoint", "checkpoint"), ("CavityPass", "cavity_pass"),
        ("Propagate", "propagate"), ("Detect", "detect_position"),
        ("Detect", "detect_internal"), ("Inject", "inject"), ("DeclareAtom", "declare"),
        ("JcPass", "jc_pass"),
    ]


# --- conditional cavity pass ---


def test_pass_matches_oracle_checkpoint():
    state = split_at_screen(fresh_atom_state(truncation=64), "A1", SLITS)
    state = conditional_cavity_pass(state, "A1", BINDINGS, math.pi)
    expected = oracle.expected_state("A1_after_cavities", cb=R, cc=R, alpha=2.0,
                                     truncation=64, gt=math.pi / 8)
    assert fidelity(reorder(state, expected.names), expected) >= 1 - 1e-10


def test_pass_phi_zero_fixes_b_level():
    state = split_at_screen(fresh_atom_state(internal="b"), "A1", SLITS)
    out = conditional_cavity_pass(state, "A1", BINDINGS, 0.0)
    assert np.max(np.abs(out.amplitudes - state.amplitudes)) < 1e-12


def test_pass_preserves_norm():
    state = split_at_screen(fresh_atom_state(), "A1", SLITS)
    for phi in (0.4, 1.0, math.pi):
        out = conditional_cavity_pass(state, "A1", BINDINGS, phi)
        assert abs(out.norm() - 1) < 1e-12


def test_pass_requires_slit_basis():
    state = fresh_atom_state()
    with pytest.raises(RegisterError):
        conditional_cavity_pass(state, "A1", BINDINGS, math.pi)


# --- detections ---


def joint_c1_b2_probability(alpha: float) -> float:
    return (1 - math.exp(-4 * alpha**2)) / 8


def test_joint_detection_probability_quarter_wavelength():
    # run the first two atoms and compare the c1,b2 joint probability with
    # the closed-form value (1 - e^{-4 a^2})/8
    run = reference_run()
    head = [i for i in run.instructions if not isinstance(i, Checkpoint)][:10]
    assert isinstance(head[-2], Detect) and isinstance(head[-1], Detect)
    report_steps = run_protocol(head, run.inputs).steps
    probs = [s.probability for s in report_steps if s.probability is not None]
    joint = probs[0] * probs[1]
    assert joint == pytest.approx(joint_c1_b2_probability(2.0), abs=1e-12)
    assert joint == pytest.approx(1 / 8, abs=1e-6)


def test_b3_probability_is_half_for_any_input():
    for _ in range(5):
        cb, cc = random_pair()
        run = reference_run(cb=cb, cc=cc)
        report = run_protocol(run.instructions, run.inputs)
        b3 = [s for s in report.steps if s.name == "detect A3 internal b"]
        assert b3[0].probability == pytest.approx(0.5, abs=1e-10)


def test_detect_impossible_outcome():
    state = split_at_screen(fresh_atom_state(), "A1", SLITS)
    state = conditional_cavity_pass(state, "A1", BINDINGS, math.pi)
    # the pass never populates the upper level from |b>
    with pytest.raises(ImpossibleOutcomeError):
        collapse(state, "A1", "a")


def test_detect_drops_register():
    state = split_at_screen(fresh_atom_state(), "A1", SLITS)
    state = conditional_cavity_pass(state, "A1", BINDINGS, math.pi)
    out, p = collapse(state, "A1", "c")
    assert "A1" not in out.names
    assert 0 < p < 1
    assert abs(out.norm() - 1) < 1e-12


# --- propagation ---


def test_propagate_identity_kernel():
    state = split_at_screen(fresh_atom_state(), "A1", SLITS)
    kernel = Kernel(SLITS, np.eye(2))
    out = propagate(state, "A1", kernel)
    assert np.max(np.abs(out.amplitudes - state.amplitudes)) < 1e-12


def test_propagate_detector_row_sheds_other_branch():
    state = split_at_screen(fresh_atom_state(), "A1", SLITS)
    kernel = Kernel(("dp",), np.array([[1.0, 0.0]]))
    out = propagate(state, "A1", kernel)
    assert out.register("A1_path").labels == ("dp",)
    assert out.norm() ** 2 == pytest.approx(0.5, abs=1e-12)
    collapsed, p = collapse(out, "A1_path", "dp")
    assert p == pytest.approx(0.5, abs=1e-12)
    assert abs(collapsed.norm() - 1) < 1e-12


def test_propagate_far_field_keeps_relative_weights():
    # two orthogonal companions tagged by slit: equal-entry kernel must
    # preserve their weight ratio at the detector
    cb, cc = 0.6, 0.8
    regs = [Register.path("A1_path", ("sl1", "sl2")), Register.lambda3("B")]
    state = make_state([Register.path("A1_path", ("sl1", "sl2"))], {"A1_path": (cb, cc)})
    state = rebase_register(state, "A1_path", np.full((1, 2), R), Register.path("A1_path", ("dp",)))
    assert state.norm() ** 2 == pytest.approx(abs(R * (cb + cc)) ** 2, abs=1e-12)
    assert regs[1].kind == "lambda3"


def test_propagate_basis_mismatch():
    state = split_at_screen(fresh_atom_state(), "A1", SLITS)
    # three columns against the two-label path register
    kernel = Kernel(("dp",), np.array([[1.0, 0.0, 0.0]]))
    with pytest.raises(RegisterError):
        propagate(state, "A1", kernel)


def test_kernel_column_norm_checked():
    with pytest.raises(RegisterError):
        Kernel(("t",), np.array([[1.2, 0.0]]))


# --- injection ---


def test_inject_maps_cats_to_displaced_pairs():
    n = 64
    for sign in (+1, -1):
        state = make_state([Register.mode("C1", n)], {"C1": cat_state(2.0, sign, n)})
        out, _ = inject_coherent(state, "C1", 2.0)
        big = coherent_amplitudes(4.0, n)
        vac = np.zeros(n, dtype=complex)
        vac[0] = 1
        target_vec = big + sign * vac
        target = make_state([Register.mode("C1", n)],
                            {"C1": target_vec / np.linalg.norm(target_vec)})
        assert fidelity(out, target) >= 1 - 1e-8


def test_inject_zero_is_identity():
    n = 32
    state = make_state([Register.mode("C1", n)], {"C1": cat_state(1.5, +1, n)})
    out, top = inject_coherent(state, "C1", 0.0)
    assert np.max(np.abs(out.amplitudes - state.amplitudes)) < 1e-12
    assert top == abs(out.amplitudes[-1]) ** 2


@pytest.mark.parametrize("params", [{}, {"alpha": 5, "truncation": 201}])
def test_inject_cutoff_weight_matches_the_label_probabilities(params):
    # on the runner's compressed state, the top Fock label's weight read by
    # its slice is the last of the register's label weights
    run = reference_run(**params)
    runner = _Runner([run.inputs], sample=False, seed=None)
    injections = 0
    for ins in run.instructions:
        if isinstance(ins, Inject):
            assert runner.state.bases[runner.state.axis(ins.cavity)] is not None
            out, top = inject_coherent(runner.state, ins.cavity, ins.beta)
            want = fockspace.label_probabilities(out, ins.cavity)[-1]
            assert top == pytest.approx(want, rel=1e-12, abs=0), ins.text
            injections += 1
        runner.execute(ins)
    assert injections == 2


def test_inject_truncation_guard():
    from slitport.fockspace import TruncationError

    n = 24
    state = make_state([Register.mode("C1", n)], {"C1": coherent_amplitudes(2.0, n)})
    with pytest.raises(TruncationError):
        inject_coherent(state, "C1", 3.0)


# --- probe pass ---


def test_jc_pass_vacuum_is_stationary():
    n = 16
    vac = np.zeros(n)
    vac[0] = 1
    state = make_state([Register.qubit2("A51"), Register.mode("C1", n)],
                       {"A51": "f", "C1": vac})
    out = jc_pass(state, "A51", "C1", 0.77)
    assert np.max(np.abs(out.amplitudes - state.amplitudes)) < 1e-12


def test_jc_pass_excites_probe():
    n = 64
    state = make_state([Register.qubit2("A51"), Register.mode("C1", n)],
                       {"A51": "f", "C1": coherent_amplitudes(4.0, n)})
    out = jc_pass(state, "A51", "C1", math.pi / 8)
    _, p = collapse(out, "A51", "e")
    assert p >= 0.9


def test_jc_pass_zero_angle():
    n = 16
    state = make_state([Register.qubit2("A51"), Register.mode("C1", n)],
                       {"A51": "f", "C1": coherent_amplitudes(1.0, n)})
    out = jc_pass(state, "A51", "C1", 0.0)
    assert np.max(np.abs(out.amplitudes - state.amplitudes)) < 1e-12


def test_jc_pass_needs_probe():
    n = 16
    state = make_state([Register.lambda3("A1"), Register.mode("C1", n)],
                       {"A1": "b", "C1": "0"})
    with pytest.raises(RegisterError):
        jc_pass(state, "A1", "C1", 0.3)


# an atom A1 next to a qubit2 atom that holds the name of A1's path register
_PATH_TAKEN = [DeclareAtom("A1", "lambda3", "b"), DeclareAtom("A1_path", "qubit2", "f")]


@pytest.mark.parametrize("instructions, message", [
    ([DeclareAtom("X", "bogus", "b")], "atom X: unknown kind 'bogus'"),
    ([DeclareAtom("P", "qubit2", "input")], "atom P: 'input' preparation needs a lambda3 atom"),
    ([DeclareCavity("C1", 1.0, 16), DeclareAtom("A", "lambda3", "b"), JcPass("A", "C1", 0.3)],
     "jc pass needs a two-level probe, A is not one"),
    # an atom's path register must be of kind path, whatever else holds its name
    (_PATH_TAKEN + [Detect("A1", "position", "f")], "register A1_path is qubit2, not path"),
    (_PATH_TAKEN + [Propagate("A1", Kernel(("d",), [[1, 0]]))],
     "register A1_path is qubit2, not path"),
    ([DeclareCavity("C1", 1.0, 16), DeclareCavity("C2", 1.0, 16)] + _PATH_TAKEN
     + [CavityPass("A1", (("f", "C1"), ("e", "C2")), math.pi)],
     "register A1_path is qubit2, not path"),
    # a cavity must be a mode register, and an internal detection an atom's
    ([DeclareCavity("C1", 1.0, 16), Detect("C1", "internal", "0")],
     "register C1 is mode, not an atom"),
    ([DeclareCavity("C1", 1.0, 16), DeclareAtom("A", "lambda3", "b"),
      DeclareAtom("P", "qubit2", "f"), Split("A", SLITS),
      CavityPass("A", (("sl1", "C1"), ("sl2", "P")), math.pi)],
     "register P is qubit2, not mode"),
    ([DeclareAtom("P", "qubit2", "f"), DeclareAtom("Q", "qubit2", "f"), JcPass("P", "Q", 0.3)],
     "register Q is qubit2, not mode"),
    ([DeclareAtom("P", "qubit2", "f"), Inject("P", 0.001)], "register P is qubit2, not mode"),
])
def test_runner_register_errors(instructions, message):
    with pytest.raises(ProtocolError) as err:
        run_protocol(instructions, RunInputs())
    assert isinstance(err.value.cause, RegisterError)
    assert str(err.value.cause) == message
    assert str(err.value) == f"step failed ({type(instructions[-1]).__name__}): {message}"


def test_cavity_pass_frees_its_input_state():
    # in units of the state's dense size: the runner holds the pass's input
    # until the pass returns, and a compressed pass expands only the mode it
    # touches, so the input and the pass's peak together stay below one dense copy
    run = reference_run()
    runner = _Runner([run.inputs], sample=False, seed=None)
    copies = []
    tracemalloc.start()
    try:
        for ins in run.instructions:
            held = runner.state.amplitudes.nbytes
            size = math.prod(r.dim for r in runner.state.registers) * 16
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            runner.execute(ins)
            if isinstance(ins, CavityPass):
                # the input, plus the pass's traced peak above the level it started at
                copies.append((held + tracemalloc.get_traced_memory()[1] - before) / size)
    finally:
        tracemalloc.stop()
    assert len(copies) == 4 and max(copies) <= 1.0, copies


# --- full runs ---


def test_basis_input_teleports_exactly():
    run = reference_run(cb=1.0, cc=0.0)
    report = run_protocol(run.instructions, run.inputs)
    assert report.final_fidelity >= 1 - 1e-8


def test_sign_flipped_input_teleports():
    run = reference_run(cb=R, cc=-R)
    report = run_protocol(run.instructions, run.inputs)
    assert report.final_fidelity >= 1 - 1e-8


def test_cumulative_probability_input_independent():
    baseline = None
    for _ in range(10):
        cb, cc = random_pair()
        run = reference_run(cb=cb, cc=cc)
        report = run_protocol(run.instructions, run.inputs)
        if baseline is None:
            baseline = report.cumulative_probability
        assert report.cumulative_probability == pytest.approx(baseline, abs=1e-10)


FIRST_PAIR_BLOCK = """\
atom A1 lambda3 state b
split A1 SC1
checkpoint A1_split
pass A1 SC1 phi pi
checkpoint A1_after_cavities

# second atom, then joint internal detections entangle the two paths
atom A2 lambda3 state b
split A2 SC1
pass A2 SC1 phi pi
"""


def _reordered_reference(pass_order: tuple[str, str]) -> str:
    block = (
        "atom A1 lambda3 state b\n"
        "atom A2 lambda3 state b\n"
        "split A1 SC1\n"
        "split A2 SC1\n"
        f"pass {pass_order[0]} SC1 phi pi\n"
        f"pass {pass_order[1]} SC1 phi pi\n"
    )
    assert FIRST_PAIR_BLOCK in REFERENCE_SCRIPT
    return REFERENCE_SCRIPT.replace(FIRST_PAIR_BLOCK, block)


def test_swapping_independent_passes_changes_nothing():
    # A1 and A2 address disjoint internal registers with mode-diagonal
    # factors, so with both atoms split the two passes commute
    fids = {}
    for order in (("A1", "A2"), ("A2", "A1")):
        run = resolve(parse(_reordered_reference(order)))
        report = run_protocol(run.instructions, run.inputs)
        fids[order] = [(s.outcome, s.checkpoint_fidelity)
                       for s in report.steps if s.kind == "checkpoint"]
    base, swapped = fids[("A1", "A2")], fids[("A2", "A1")]
    assert [name for name, _ in base] == [name for name, _ in swapped]
    assert len(base) == 15  # the two single-atom checkpoints were dropped
    for (_, a), (_, b) in zip(base, swapped):
        assert a == pytest.approx(b, abs=1e-12)


def test_probability_product_matches_unnormalized_evolution():
    # one dense pass with projections folded in as selector kernels,
    # never renormalizing: the final squared norm must equal the product
    # of the engine's step probabilities
    from slitport import protocol as P
    from slitport.fockspace import CompositeState, apply_op, extend
    from slitport.gates import displacement, jc_unitary

    cb, cc = random_pair()
    run = reference_run(cb=cb, cc=cc)
    report = run_protocol(run.instructions, run.inputs)

    state = CompositeState((), np.ones(1, dtype=complex))
    for ins in run.instructions:
        if isinstance(ins, P.DeclareCavity):
            state = extend(state, Register.mode(ins.name, ins.truncation),
                           coherent_amplitudes(ins.alpha, ins.truncation))
        elif isinstance(ins, P.DeclareAtom):
            if ins.state == "input":
                vec = np.array([0, cb, -cc], dtype=complex)
                state = extend(state, Register.lambda3(ins.name), vec)
            elif ins.kind == "lambda3":
                state = extend(state, Register.lambda3(ins.name), ins.state)
            else:
                state = extend(state, Register.qubit2(ins.name), ins.state)
        elif isinstance(ins, P.Split):
            state = split_at_screen(state, ins.atom, ins.slits)
        elif isinstance(ins, P.CavityPass):
            state = conditional_cavity_pass(state, ins.atom, ins.bindings, ins.phi)
        elif isinstance(ins, P.Detect):
            reg = ins.atom if ins.which == "internal" else P.path_name(ins.atom)
            current = state.register(reg)
            selector = np.zeros((1, current.dim))
            selector[0, current.index(ins.label)] = 1.0
            state = rebase_register(state, reg, selector,
                                    Register.path(reg, (ins.label + "_sel",)))
        elif isinstance(ins, P.Propagate):
            state = propagate(state, ins.atom, ins.kernel)
        elif isinstance(ins, P.Inject):
            mode = state.register(ins.cavity)
            state = apply_op(state, displacement(ins.beta, mode.dim), (ins.cavity,))
        elif isinstance(ins, P.JcPass):
            mode = state.register(ins.cavity)
            state = apply_op(state, jc_unitary(ins.gt, mode.dim), (ins.atom, ins.cavity))
    assert state.norm() ** 2 == pytest.approx(report.cumulative_probability, abs=1e-10)


def _dense_step(state, ins, inputs):
    """One instruction on an uncompressed state, through the runner's step functions."""
    if isinstance(ins, DeclareCavity):
        return extend(state, Register.mode(ins.name, ins.truncation),
                      coherent_amplitudes(ins.alpha, ins.truncation))
    if isinstance(ins, DeclareAtom):
        value = np.array([0, inputs.cb, -inputs.cc]) if ins.state == "input" else ins.state
        return extend(state, Register(ins.name, ins.kind, ATOM_LEVELS[ins.kind]), value)
    if isinstance(ins, Split):
        return split_at_screen(state, ins.atom, ins.slits)
    if isinstance(ins, CavityPass):
        return conditional_cavity_pass(state, ins.atom, ins.bindings, ins.phi)
    if isinstance(ins, Detect):
        register = ins.atom if ins.which == "internal" else path_name(ins.atom)
        return collapse(state, register, ins.label)[0]
    if isinstance(ins, Propagate):
        return propagate(state, ins.atom, ins.kernel)
    if isinstance(ins, Inject):
        return inject_coherent(state, ins.cavity, ins.beta)[0]
    if isinstance(ins, JcPass):
        return jc_pass(state, ins.atom, ins.cavity, ins.gt)
    return state


@pytest.mark.parametrize("params", [{}, {"cb": 0.6, "cc": 0.8j},
                                    {"alpha": 5, "truncation": 201}])
def test_compressed_state_matches_the_dense_engine_after_every_step(params, monkeypatch):
    dropped = []

    def recording(state, register):
        # the squared distance a truncated SVD moves the state is the weight it drops
        out = compress(state, register)
        dropped.append(np.linalg.norm(state.dense().amplitudes - out.dense().amplitudes) ** 2)
        return out

    monkeypatch.setattr(fockspace, "compress", recording)
    monkeypatch.setattr(protocol, "compress", recording)
    run = reference_run(**params)
    runner = _Runner([run.inputs], sample=False, seed=None)
    dense = CompositeState((), np.ones(1, dtype=complex))
    for ins in run.instructions:
        runner.execute(ins)
        dense = _dense_step(dense, ins, run.inputs)
        assert all(q is None for q in dense.bases)
        have = runner.state.dense()
        assert have.registers == dense.registers, ins.text
        assert np.max(np.abs(have.amplitudes - dense.amplitudes)) < 1e-12, ins.text
        modes = [q for r, q in zip(runner.state.registers, runner.state.bases) if r.kind == "mode"]
        assert all(q is not None and q.shape[1] <= 3 for q in modes), ins.text
    assert len(dropped) == 14 and sum(dropped) <= 1e-24, dropped
    _assert_batch_matches_single_runs(run, [run.inputs, RunInputs(**params | {"cb": R, "cc": -R})])


def test_probe_detection_probabilities_in_unit_interval():
    run = reference_run()
    report = run_protocol(run.instructions, run.inputs)
    for step in report.steps:
        if step.probability is not None:
            assert 0.0 <= step.probability <= 1.0


def test_impossible_branch_aborts_with_partial_report():
    run = reference_run(gt=0.0)
    with pytest.raises(ProtocolError) as err:
        run_protocol(run.instructions, run.inputs)
    assert isinstance(err.value.cause, ImpossibleOutcomeError)
    assert err.value.report is not None
    assert any(s.kind == "checkpoint" for s in err.value.report.steps)


def test_sampled_runs_are_seed_deterministic():
    run = reference_run()
    a = run_protocol(run.instructions, run.inputs, sample=True, seed=7)
    b = run_protocol(run.instructions, run.inputs, sample=True, seed=7)
    assert [s.outcome for s in a.steps] == [s.outcome for s in b.steps]
    assert a.cumulative_probability == b.cumulative_probability


def test_negative_seed_is_rejected():
    run = reference_run()
    with pytest.raises(ValueError, match=r"^seed must be non-negative, got -1$"):
        run_protocol(run.instructions, run.inputs, sample=True, seed=-1)


def test_report_json_schema_and_stability():
    run = reference_run()
    report = run_protocol(run.instructions, run.inputs)
    payload = report.to_json()
    assert payload == run_protocol(run.instructions, run.inputs).to_json()
    import json

    doc = json.loads(payload)
    assert set(doc) == {"steps", "cumulative_probability", "final_fidelity",
                        "truncation_tail_mass", "inputs"}
    assert set(doc["steps"][0]) == {"name", "kind", "outcome", "probability",
                                    "checkpoint_fidelity"}
    assert doc["inputs"]["truncation"] == 64
    assert doc["inputs"]["cb"] == "0.70710678118654746"


def test_inputs_must_be_normalized():
    with pytest.raises(ValueError):
        RunInputs(cb=1.0, cc=1.0)


@pytest.mark.parametrize("field,value", [
    ("cb", math.nan), ("cc", math.inf), ("alpha", complex(0.0, -math.inf)),
    ("alpha", complex(math.nan, 0.0)), ("gt", math.nan), ("gt", -math.inf),
])
def test_inputs_must_be_finite(field, value):
    # NaN amplitudes would pass the normalization check, which compares with >
    with pytest.raises(ValueError, match=f"{field} must be a finite number"):
        RunInputs(**{field: value})


def test_inputs_are_normalized_to_their_types():
    inputs = RunInputs(cb=1, cc=0, alpha=2, truncation=64.0, gt=1)
    assert [type(value) for value in asdict(inputs).values()] == \
        [complex, complex, complex, int, float]
    with pytest.raises(ValueError, match="truncation must be an integer, got 64.5"):
        RunInputs(truncation=64.5)


def test_canonical_json_rendering():
    text = canonical_json({"x": 0.5, "z": 1 + 2j, "n": None, "k": [1, True]})
    assert '"x": 0.5' in text
    assert '"z": "1+2i"' in text
    assert '"n": null' in text
    assert '"k"' in text and "true" in text


# --- batched runs ---


def _assert_batch_matches_single_runs(run, inputs):
    batched = run_batch(run.instructions, inputs)
    assert len(batched) == len(inputs)
    for got, item in zip(batched, inputs):
        try:
            want = run_protocol(run.instructions, item)
        except ProtocolError as exc:
            want = exc
        if isinstance(want, ProtocolError):
            assert isinstance(got, ProtocolError)
            assert str(got) == str(want)
            assert type(got.cause) is type(want.cause)
            assert got.report.to_json() == want.report.to_json()
            continue
        assert got.inputs == want.inputs
        assert [(s.name, s.kind, s.outcome) for s in got.steps] == \
            [(s.name, s.kind, s.outcome) for s in want.steps]
        for a, b in zip(got.steps, want.steps):
            for field in ("probability", "checkpoint_fidelity"):
                x, y = getattr(a, field), getattr(b, field)
                assert (x is None) == (y is None)
                if x is not None:
                    assert x == pytest.approx(y, rel=1e-12, abs=1e-12)
        if want.final_fidelity is None:
            assert got.final_fidelity is None
        else:
            assert got.final_fidelity == pytest.approx(want.final_fidelity, abs=1e-12)
        assert got.cumulative_probability == pytest.approx(want.cumulative_probability,
                                                           rel=1e-12)
        assert got.truncation_tail_mass == pytest.approx(want.truncation_tail_mass, rel=1e-12)


def _normalized_pairs(zs):
    pairs = []
    for z in zs:
        cb, cc = complex(z[0], z[1]), complex(z[2], z[3])
        norm = math.sqrt(abs(cb) ** 2 + abs(cc) ** 2)
        pairs.append((cb / norm, cc / norm))
    return pairs


_PAIRS = st.lists(
    st.tuples(*[st.floats(-1.0, 1.0)] * 4).filter(lambda z: sum(x * x for x in z) > 1e-2),
    min_size=2, max_size=3,
).map(_normalized_pairs)


@settings(max_examples=4, deadline=None)
@given(pairs=_PAIRS)
def test_batch_equals_single_runs_on_reference(pairs):
    run = reference_run()
    _assert_batch_matches_single_runs(
        run, [RunInputs(cb=cb, cc=cc) for cb, cc in pairs])


@settings(max_examples=5, deadline=None)
@given(pairs=_PAIRS, seed=st.integers(0, 2**32 - 1))
def test_batch_equals_single_runs_with_sub_unitary_kernel(pairs, seed):
    # the det kernel sheds input-dependent flux before the position detection
    run = resolve(parse(_fuzzed_script(np.random.default_rng(seed))))
    _assert_batch_matches_single_runs(
        run, [RunInputs(cb=cb, cc=cc) for cb, cc in pairs])


INPUT_AT_C = """cavity C1 alpha 2 truncation 32
cavity C2 alpha 2 truncation 32
screen S s1 s2
bind s1 C1
bind s2 C2
atom A lambda3 state input
split A S
detect A internal c
atom B lambda3 state b
split B S
pass B S phi pi
detect B internal c
"""


def test_batch_impossible_input_fails_alone():
    run = resolve(parse(INPUT_AT_C))
    inputs = [RunInputs(cb=1.0, cc=0.0), RunInputs(cb=0.6, cc=0.8)]
    _assert_batch_matches_single_runs(run, inputs)
    failed, passed = run_batch(run.instructions, inputs)
    assert isinstance(failed.cause, ImpossibleOutcomeError)
    assert "detect A internal c" in str(failed)
    detected = {s.name: s.probability for s in passed.steps if s.kind == "detect_internal"}
    assert detected["detect A internal c"] == pytest.approx(0.64, abs=1e-12)
    assert passed.cumulative_probability < 0.64
    # the batch fell back to single runs, so the survivor's report is exact
    assert passed.to_json() == run_protocol(run.instructions, inputs[1]).to_json()


def test_batch_injection_tail_is_per_input():
    # below the tail-bound cutoff (so built without the validator) the
    # injected weight at the cutoff depends on the input's cavity parity:
    # about 8.5e-9 and 9.3e-9 for the basis inputs, above 1e-8 for (0.6, 0.8)
    instructions = (
        DeclareCavity("C1", 1.0, 16), DeclareCavity("C2", 1.0, 16),
        DeclareAtom("A", "lambda3", "input"), Split("A", SLITS),
        CavityPass("A", BINDINGS, math.pi), Detect("A", "internal", "b"), Inject("C1", 0.47),
    )
    run = ResolvedRun(instructions, RunInputs())
    inputs = [RunInputs(cb=1.0, cc=0.0), RunInputs(cb=0.0, cc=1.0), RunInputs(cb=0.6, cc=0.8)]
    _assert_batch_matches_single_runs(run, inputs)
    first, second, third = run_batch(instructions, inputs)
    assert 5e-9 < first.truncation_tail_mass < second.truncation_tail_mass < 1e-8
    assert isinstance(third.cause, TruncationError)
    # the batch fell back to single runs, so each survivor's report is exact
    for report, item in ((first, inputs[0]), (second, inputs[1])):
        assert report.to_json() == run_protocol(instructions, item).to_json()


def test_batch_needs_shared_field_parameters():
    run = reference_run()
    with pytest.raises(ValueError, match="share alpha"):
        run_batch(run.instructions, [RunInputs(), RunInputs(gt=0.3)])


# branches the reference runs never reach: each call's value, or its exact error
@pytest.mark.parametrize("call, expected", [
    (lambda: split_at_screen(fresh_atom_state(), "A1", ("u", "v", "w")),
     (RegisterError, "a screen must have exactly 2 slits, got ('u', 'v', 'w')")),
    (lambda: conditional_cavity_pass(split_at_screen(fresh_atom_state(), "A1", SLITS), "A1",
                                     (("u", "C1"), ("v", "C2")), math.pi),
     (RegisterError, "atom A1 path basis ('sl1', 'sl2') is not the slits ('u', 'v')")),
    # a step that is no instruction, and has no text to name it by, fails cleanly
    (lambda: run_protocol(["warp"], RunInputs()),
     (ProtocolError, "step failed (str): unknown instruction 'warp'")),
    (lambda: Kernel(("u", "v"), [[1, 0]]),
     (RegisterError, "kernel matrix shape (1, 2) does not match 2 target labels")),
    (lambda: RunInputs(truncation=1), (ValueError, "truncation must be at least 2")),
    # |cc|^2 is past float range: the check fails rather than overflowing
    (lambda: RunInputs(cc=1e200), (ValueError, "|cb|^2 + |cc|^2 must be 1 (off by inf); "
                                               "the teleported state is a normalized path qubit")),
    (lambda: canonical_json({}), "{}"),
    (lambda: canonical_json([]), "[]"),
    (lambda: canonical_json(object()), (TypeError, "cannot serialize <class 'object'>")),
])
def test_rarely_reached_branch(call, expected):
    assert outcome(call) == expected
