import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_acceptance import _fuzzed_script

from slitport import oracle
from slitport.fockspace import (
    ImpossibleOutcomeError,
    Register,
    RegisterError,
    TruncationError,
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
    ExperimentLayout,
    Inject,
    PropagationKernel,
    ProtocolError,
    RunInputs,
    ScreenSpec,
    Split,
    canonical_json,
    conditional_cavity_pass,
    detect,
    inject_coherent,
    jc_pass,
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


def small_layout(truncation=32, alpha=2.0):
    screen = ScreenSpec("SC1", ("sl1", "sl2"))
    from slitport.protocol import CavitySpec

    return ExperimentLayout(
        screens=(screen,),
        cavities=(CavitySpec("C1", alpha, truncation), CavitySpec("C2", alpha, truncation)),
        bindings=(("sl1", "C1"), ("sl2", "C2")),
        kernels=(),
    ), screen


def fresh_atom_state(truncation=32, alpha=2.0, internal="b"):
    regs = [Register.mode("C1", truncation), Register.mode("C2", truncation),
            Register.lambda3("A1")]
    coh = coherent_amplitudes(alpha, truncation)
    return make_state(regs, {"C1": coh, "C2": coh, "A1": internal})


# --- split ---


def test_split_equal_superposition():
    _, screen = small_layout()
    state = split_at_screen(fresh_atom_state(), "A1", screen)
    assert state.register("A1_path").labels == ("sl1", "sl2")
    tens = state.tensor()
    assert abs(state.norm() - 1) < 1e-12
    probs = np.sum(np.abs(tens) ** 2, axis=(0, 1, 2))
    assert np.allclose(probs, [0.5, 0.5])


def test_split_twice_rejected():
    _, screen = small_layout()
    state = split_at_screen(fresh_atom_state(), "A1", screen)
    with pytest.raises(RegisterError):
        split_at_screen(state, "A1", screen)


# --- conditional cavity pass ---


def test_pass_matches_oracle_checkpoint():
    layout, screen = small_layout(truncation=64)
    state = split_at_screen(fresh_atom_state(truncation=64), "A1", screen)
    state = conditional_cavity_pass(state, "A1", screen, math.pi, layout)
    expected = oracle.expected_state("A1_after_cavities", cb=R, cc=R, alpha=2.0,
                                     truncation=64, gt=math.pi / 8)
    assert fidelity(reorder(state, expected.names), expected) >= 1 - 1e-10


def test_pass_phi_zero_fixes_b_level():
    layout, screen = small_layout()
    state = split_at_screen(fresh_atom_state(internal="b"), "A1", screen)
    out = conditional_cavity_pass(state, "A1", screen, 0.0, layout)
    assert np.max(np.abs(out.amplitudes - state.amplitudes)) < 1e-12


def test_pass_preserves_norm():
    layout, screen = small_layout()
    state = split_at_screen(fresh_atom_state(), "A1", screen)
    for phi in (0.4, 1.0, math.pi):
        out = conditional_cavity_pass(state, "A1", screen, phi, layout)
        assert abs(out.norm() - 1) < 1e-12


def test_pass_requires_slit_basis():
    layout, screen = small_layout()
    state = fresh_atom_state()
    with pytest.raises(RegisterError):
        conditional_cavity_pass(state, "A1", screen, math.pi, layout)


# --- detections ---


def joint_c1_b2_probability(alpha: float) -> float:
    return (1 - math.exp(-4 * alpha**2)) / 8


def test_joint_detection_probability_quarter_wavelength():
    # run the first two atoms and compare the c1,b2 joint probability with
    # the closed-form value (1 - e^{-4 a^2})/8
    run = reference_run()
    head = [i for i in run.instructions if not isinstance(i, Checkpoint)][:10]
    assert isinstance(head[-2], Detect) and isinstance(head[-1], Detect)
    report_steps = run_protocol(run.layout, head, run.inputs).steps
    probs = [s.probability for s in report_steps if s.probability is not None]
    joint = probs[0] * probs[1]
    assert joint == pytest.approx(joint_c1_b2_probability(2.0), abs=1e-12)
    assert joint == pytest.approx(1 / 8, abs=1e-6)


def test_b3_probability_is_half_for_any_input():
    for _ in range(5):
        cb, cc = random_pair()
        run = reference_run(cb=cb, cc=cc)
        report = run_protocol(run.layout, run.instructions, run.inputs)
        b3 = [s for s in report.steps if s.name == "detect A3 internal b"]
        assert b3[0].probability == pytest.approx(0.5, abs=1e-10)


def test_detect_impossible_outcome():
    layout, screen = small_layout()
    state = split_at_screen(fresh_atom_state(), "A1", screen)
    state = conditional_cavity_pass(state, "A1", screen, math.pi, layout)
    # the pass never populates the upper level from |b>
    with pytest.raises(ImpossibleOutcomeError):
        detect(state, "A1", "a")


def test_detect_drops_register():
    layout, screen = small_layout()
    state = split_at_screen(fresh_atom_state(), "A1", screen)
    state = conditional_cavity_pass(state, "A1", screen, math.pi, layout)
    out, p = detect(state, "A1", "c")
    assert "A1" not in out.names
    assert 0 < p < 1
    assert abs(out.norm() - 1) < 1e-12


# --- propagation ---


def test_propagate_identity_kernel():
    _, screen = small_layout()
    state = split_at_screen(fresh_atom_state(), "A1", screen)
    kernel = PropagationKernel(("sl1", "sl2"), ("sl1", "sl2"), np.eye(2))
    out = propagate(state, "A1", kernel)
    assert np.max(np.abs(out.amplitudes - state.amplitudes)) < 1e-12


def test_propagate_detector_row_sheds_other_branch():
    _, screen = small_layout()
    state = split_at_screen(fresh_atom_state(), "A1", screen)
    kernel = PropagationKernel(("sl1", "sl2"), ("dp",), np.array([[1.0, 0.0]]))
    out = propagate(state, "A1", kernel)
    assert out.register("A1_path").labels == ("dp",)
    assert out.norm() ** 2 == pytest.approx(0.5, abs=1e-12)
    collapsed, p = detect(out, "A1_path", "dp")
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
    _, screen = small_layout()
    state = split_at_screen(fresh_atom_state(), "A1", screen)
    kernel = PropagationKernel(("x", "y"), ("dp",), np.array([[1.0, 0.0]]))
    with pytest.raises(RegisterError):
        propagate(state, "A1", kernel)


def test_kernel_column_norm_checked():
    with pytest.raises(RegisterError):
        PropagationKernel(("a", "b"), ("t",), np.array([[1.2, 0.0]]))


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
    _, p = detect(out, "A51", "e")
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


# --- full runs ---


def test_basis_input_teleports_exactly():
    run = reference_run(cb=1.0, cc=0.0)
    report = run_protocol(run.layout, run.instructions, run.inputs)
    assert report.final_fidelity >= 1 - 1e-8


def test_sign_flipped_input_teleports():
    run = reference_run(cb=R, cc=-R)
    report = run_protocol(run.layout, run.instructions, run.inputs)
    assert report.final_fidelity >= 1 - 1e-8


def test_cumulative_probability_input_independent():
    baseline = None
    for _ in range(10):
        cb, cc = random_pair()
        run = reference_run(cb=cb, cc=cc)
        report = run_protocol(run.layout, run.instructions, run.inputs)
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
        report = run_protocol(run.layout, run.instructions, run.inputs)
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
    report = run_protocol(run.layout, run.instructions, run.inputs)

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
            state = split_at_screen(state, ins.atom, run.layout.screen(ins.screen))
        elif isinstance(ins, P.CavityPass):
            state = conditional_cavity_pass(state, ins.atom,
                                            run.layout.screen(ins.screen), ins.phi, run.layout)
        elif isinstance(ins, P.Detect):
            reg = ins.atom if ins.which == "internal" else P.path_name(ins.atom)
            current = state.register(reg)
            selector = np.zeros((1, current.dim))
            selector[0, current.index(ins.label)] = 1.0
            state = rebase_register(state, reg, selector,
                                    Register.path(reg, (ins.label + "_sel",)))
        elif isinstance(ins, P.Propagate):
            spec = run.layout.kernel(ins.kernel)
            source = state.register(P.path_name(ins.atom)).labels
            state = propagate(state, ins.atom,
                              PropagationKernel(source, spec.target_labels, spec.matrix))
        elif isinstance(ins, P.Inject):
            mode = state.register(ins.cavity)
            state = apply_op(state, displacement(ins.beta, mode.dim).on(ins.cavity))
        elif isinstance(ins, P.JcPass):
            mode = state.register(ins.cavity)
            state = apply_op(state, jc_unitary(ins.gt, mode.dim).on(ins.atom, ins.cavity))
    assert state.norm() ** 2 == pytest.approx(report.cumulative_probability, abs=1e-10)


def test_probe_detection_probabilities_in_unit_interval():
    run = reference_run()
    report = run_protocol(run.layout, run.instructions, run.inputs)
    for step in report.steps:
        if step.probability is not None:
            assert 0.0 <= step.probability <= 1.0


def test_impossible_branch_aborts_with_partial_report():
    run = reference_run(gt=0.0)
    with pytest.raises(ProtocolError) as err:
        run_protocol(run.layout, run.instructions, run.inputs)
    assert isinstance(err.value.cause, ImpossibleOutcomeError)
    assert err.value.report is not None
    assert any(s.kind == "checkpoint" for s in err.value.report.steps)


def test_sampled_runs_are_seed_deterministic():
    run = reference_run()
    a = run_protocol(run.layout, run.instructions, run.inputs, sample=True, seed=7)
    b = run_protocol(run.layout, run.instructions, run.inputs, sample=True, seed=7)
    assert [s.outcome for s in a.steps] == [s.outcome for s in b.steps]
    assert a.cumulative_probability == b.cumulative_probability


def test_report_json_schema_and_stability():
    run = reference_run()
    report = run_protocol(run.layout, run.instructions, run.inputs)
    payload = report.to_json()
    assert payload == run_protocol(run.layout, run.instructions, run.inputs).to_json()
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


def test_canonical_json_rendering():
    text = canonical_json({"x": 0.5, "z": 1 + 2j, "n": None, "k": [1, True]})
    assert '"x": 0.5' in text
    assert '"z": "1+2i"' in text
    assert '"n": null' in text
    assert '"k"' in text and "true" in text


# --- batched runs ---


def _assert_batch_matches_single_runs(run, inputs):
    batched = run_batch(run.layout, run.instructions, inputs)
    assert len(batched) == len(inputs)
    for got, item in zip(batched, inputs):
        try:
            want = run_protocol(run.layout, run.instructions, item)
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
        assert got.truncation_tail_mass == pytest.approx(want.truncation_tail_mass, rel=1e-9)


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
    failed, passed = run_batch(run.layout, run.instructions, inputs)
    assert isinstance(failed.cause, ImpossibleOutcomeError)
    assert "detect A internal c" in str(failed)
    detected = {s.name: s.probability for s in passed.steps if s.kind == "detect_internal"}
    assert detected["detect A internal c"] == pytest.approx(0.64, abs=1e-12)
    assert passed.cumulative_probability < 0.64


def test_batch_injection_tail_is_per_input():
    # below the tail-bound cutoff (so built without the validator) the
    # injected weight at the cutoff depends on the input's cavity parity:
    # about 8.5e-9 and 9.3e-9 for the basis inputs, above 1e-8 for (0.6, 0.8)
    layout, _ = small_layout(truncation=16, alpha=1.0)
    instructions = (
        DeclareCavity("C1", 1.0, 16), DeclareCavity("C2", 1.0, 16),
        DeclareAtom("A", "lambda3", "input"), Split("A", "SC1"),
        CavityPass("A", "SC1", math.pi), Detect("A", "internal", "b"), Inject("C1", 0.47),
    )
    run = ResolvedRun(layout, instructions, RunInputs())
    inputs = [RunInputs(cb=1.0, cc=0.0), RunInputs(cb=0.0, cc=1.0), RunInputs(cb=0.6, cc=0.8)]
    _assert_batch_matches_single_runs(run, inputs)
    first, second, third = run_batch(layout, instructions, inputs)
    assert 5e-9 < first.truncation_tail_mass < second.truncation_tail_mass < 1e-8
    assert isinstance(third.cause, TruncationError)


def test_batch_needs_shared_field_parameters():
    run = reference_run()
    with pytest.raises(ValueError, match="share alpha"):
        run_batch(run.layout, run.instructions, [RunInputs(), RunInputs(gt=0.3)])
