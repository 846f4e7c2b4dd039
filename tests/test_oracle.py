import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slitport import oracle, protocol
from slitport.fockspace import (
    CompositeState,
    Register,
    basis_column,
    fidelity,
    make_state,
    product_fidelity,
    reduced_fidelity,
    reorder,
)
from slitport.gates import cat_state, coherent_amplitudes, tail_bound_dim
from slitport.oracle import CHECKPOINTS, checkpoint_terms, expected_state, jc_excited_probability
from slitport.scenario import REFERENCE_SCRIPT
from slitport.script import parse, resolve

RNG = np.random.default_rng(91)

DEFAULTS = dict(cb=1 / math.sqrt(2), cc=1 / math.sqrt(2), alpha=2.0, truncation=64,
                gt=math.pi / 8)


def random_inputs():
    z = RNG.normal(size=4)
    pair = (z[0] + 1j * z[1], z[2] + 1j * z[3])
    norm = math.sqrt(abs(pair[0]) ** 2 + abs(pair[1]) ** 2)
    return DEFAULTS | {"cb": pair[0] / norm, "cc": pair[1] / norm}


def test_checkpoint_list_is_complete():
    assert len(CHECKPOINTS) == 17
    assert CHECKPOINTS[0] == "A1_split"
    assert CHECKPOINTS[-1] == "FINAL"


@pytest.mark.parametrize("name", CHECKPOINTS)
def test_expected_states_normalized(name):
    state = expected_state(name, **random_inputs())
    assert abs(state.norm() - 1) < 1e-12


def test_unknown_checkpoint():
    with pytest.raises(ValueError):
        expected_state("A9_imaginary", **DEFAULTS)


def test_first_checkpoint_is_plain_product():
    state = expected_state("A1_split", **DEFAULTS)
    coh = coherent_amplitudes(2.0, 64)
    r = 1 / math.sqrt(2)
    reference = make_state(
        [Register.mode("C1", 64), Register.mode("C2", 64), Register.lambda3("A1"),
         Register.path("A1_path", ("sl1", "sl2"))],
        {"C1": coh, "C2": coh, "A1": "b", "A1_path": (r, r)},
    )
    assert fidelity(state, reference) == pytest.approx(1.0, abs=1e-12)


def test_entangled_pair_cats_are_crossed():
    # after post-selection each cavity pair holds opposite parities
    state = expected_state("A12_post_c1b2", **DEFAULTS)
    even = cat_state(2.0, +1, 64)
    odd = cat_state(2.0, -1, 64)
    tens = state.tensor()  # (C1, C2, A1_path, A2_path)
    first = tens[:, :, 1, 0]   # A1 at sl2, A2 at sl1
    second = tens[:, :, 0, 1]  # A1 at sl1, A2 at sl2
    r = 1 / math.sqrt(2)
    assert np.max(np.abs(first - r * np.outer(even, odd))) < 1e-12
    assert np.max(np.abs(second - r * np.outer(odd, even))) < 1e-12


def test_teleport_targets_related_by_renaming():
    inputs = random_inputs()
    before = expected_state("TELEPST1", **inputs)
    after = expected_state("TELEPST2", **inputs)
    renamed = CompositeState(
        tuple(Register(r.name.replace("A2", "A4"), r.kind, r.labels) for r in before.registers),
        before.amplitudes,
    )
    assert fidelity(renamed, after) == pytest.approx(1.0, abs=1e-12)


def test_final_state_is_input_pair():
    inputs = random_inputs()
    state = expected_state("FINAL", **inputs)
    assert state.names == ("A4_path",)
    assert state.amplitudes[0] == pytest.approx(inputs["cb"], abs=1e-12)
    assert state.amplitudes[1] == pytest.approx(inputs["cc"], abs=1e-12)


def test_basis_input_passes_through():
    inputs = DEFAULTS | {"cb": 1.0, "cc": 0.0}
    state = expected_state("TELEPST2", **inputs)
    probs = np.abs(state.tensor()) ** 2
    assert probs.sum(axis=(0, 1))[0] == pytest.approx(1.0, abs=1e-12)


def test_jc_excited_probability_zero_angle():
    assert jc_excited_probability(16.0, 0.0, 64) == 0.0


def test_jc_excited_probability_vacuum():
    for gt in (0.3, 1.0, math.pi / 2):
        assert jc_excited_probability(0.0, gt, 16) == 0.0


def test_jc_excited_probability_reference_value():
    # frozen from the defining sum at mean 16, gt = pi/8, cutoff 64
    value = jc_excited_probability(16.0, math.pi / 8, 64)
    assert value == pytest.approx(0.9618802369699011, abs=1e-12)
    assert value >= 0.9


def test_jc_excited_probability_needs_room():
    from slitport.fockspace import TruncationError

    with pytest.raises(TruncationError):
        jc_excited_probability(16.0, 0.3, 8)


def _stage_states(params):
    """(checkpoint name, dense form, live engine state) at each checkpoint of the reference run."""
    run = resolve(parse(REFERENCE_SCRIPT), params)
    runner = protocol._Runner([run.inputs], sample=False, seed=None)
    for ins in run.instructions:
        if isinstance(ins, protocol.Checkpoint):
            yield ins.name, runner.state.dense(), runner.state
        else:
            runner.execute(ins)


def _dense_fidelity(state, expected):
    if set(state.names) == set(expected.names):
        return fidelity(reorder(state, expected.names), expected)
    return reduced_fidelity(state, expected.names, expected)


@settings(max_examples=5, deadline=None)
@given(
    z=st.tuples(*[st.floats(-1.0, 1.0)] * 4).filter(lambda z: sum(x * x for x in z) > 1e-2),
    alpha=st.floats(1.0, 3.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_contracted_checkpoint_fidelity_matches_dense(z, alpha, seed):
    norm = math.sqrt(sum(x * x for x in z))
    params = DEFAULTS | {
        "cb": complex(z[0], z[1]) / norm,
        "cc": complex(z[2], z[3]) / norm,
        "alpha": complex(alpha),
        "truncation": max(64, tail_bound_dim(2 * alpha)),
    }
    rng = np.random.default_rng(seed)
    seen = []
    for name, state, compressed in _stage_states(params):
        seen.append(name)
        terms = checkpoint_terms(name, **params)
        assert product_fidelity(compressed, *terms) == pytest.approx(
            product_fidelity(state, *terms), abs=1e-12)
        expected = expected_state(name, **params)
        noise = rng.normal(size=state.dim) + 1j * rng.normal(size=state.dim)
        off = state.amplitudes + noise / np.linalg.norm(noise)
        perturbed = CompositeState(state.registers, off / np.linalg.norm(off))
        # an extra live register entangled with the perturbed copy: the
        # checkpoint's registers are then in a mixed reduced state
        flag = Register.qubit2("extra")
        mixed = CompositeState(
            state.registers + (flag,),
            (np.kron(state.amplitudes, [1, 0]) + np.kron(perturbed.amplitudes, [0, 1]))
            / math.sqrt(2.0),
        )
        assert _dense_fidelity(perturbed, expected) < 0.9
        for candidate in (state, perturbed, mixed):
            contracted = product_fidelity(candidate, *terms)
            assert contracted == pytest.approx(_dense_fidelity(candidate, expected), abs=1e-12)
    assert seen == list(CHECKPOINTS)


def test_checkpoint_factor_cache_is_bounded():
    # each checkpoint's factors are kept with the cached parts of its parameters
    for alpha in np.linspace(1.0, 1.5, 40):
        for name in CHECKPOINTS:
            checkpoint_terms(name, **DEFAULTS | {"alpha": float(alpha), "truncation": 40})
        info = oracle._parts.cache_info()
        assert info.maxsize == 16 and info.currsize <= info.maxsize, info


def test_checkpoint_factors_are_built_once(monkeypatch):
    built = []
    monkeypatch.setattr(oracle, "basis_column", lambda *args: built.append(args) or
                        basis_column(*args))
    oracle._parts.cache_clear()
    for cb, cc in ((0.6, 0.8j), (1, 0), (0, 1j)):
        run = resolve(parse(REFERENCE_SCRIPT), {"cb": cb, "cc": cc})
        protocol.run_protocol(run.instructions, run.inputs)
        # one column per term and register, all built by the first resolve and run
        terms = [checkpoint_terms(name, **vars(run.inputs)) for name in CHECKPOINTS]
        first = sum(len(registers) * coeffs.size for registers, coeffs, _, _ in terms)
        assert len(built) == (first if (cb, cc) == (0.6, 0.8j) else 0)
        built.clear()


def test_checkpoint_terms_stack_the_closed_form():
    # the cached coefficient map and factors against the terms written out at one input
    params = DEFAULTS | {"cb": 0.6, "cc": 0.8j}
    parts = oracle._parts(params["alpha"], params["truncation"], params["gt"])
    for name in CHECKPOINTS:
        registers, coeffs, factors, gram = checkpoint_terms(name, **params)
        terms = oracle._terms(name, 0.6, 0.8j, parts)
        assert np.allclose(coeffs, [coeff for coeff, _ in terms], rtol=1e-15, atol=0)
        for reg, factor in zip(registers, factors):
            assert np.array_equal(factor, [basis_column(reg, term[reg.name]) for _, term in terms])
        assert np.array_equal(gram, math.prod(f.conj() @ f.T for f in factors))


def test_post_jc_closed_form_at_a_tiny_alpha():
    # 1 - <0|2 alpha> rounds to 0 here, while |2 alpha> - |0> keeps a norm near 2 alpha
    state = expected_state("POST_JC", **DEFAULTS | {"alpha": 1e-10})
    assert abs(state.norm() - 1) < 1e-12
