import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from slitport.fockspace import (
    CompositeState,
    Register,
    TruncationError,
    apply_op,
    basis_column,
    compress,
    embed_controlled,
    label_branch,
    label_probabilities,
    product_fidelity,
    unitarity_defect,
)
from slitport.gates import (
    cat_state,
    coherent_amplitudes,
    coherent_tail_mass,
    dispersive_blocks,
    dispersive_lambda,
    displacement,
    jc_blocks,
    jc_unitary,
    parity_phase,
    pi_projector,
    tail_bound_dim,
)

RNG = np.random.default_rng(7121)


# --- coherent states ---


def test_coherent_vacuum():
    assert np.allclose(coherent_amplitudes(0, 8), [1, 0, 0, 0, 0, 0, 0, 0])


def test_coherent_ground_amplitude():
    c = coherent_amplitudes(2, 64)
    assert c[0] == pytest.approx(math.exp(-2), abs=1e-12)


def test_coherent_poisson_mode():
    # integer-mean Poisson has a two-point mode: n=4 ties n=3 exactly
    weights = np.abs(coherent_amplitudes(2, 64)) ** 2
    assert weights[4] == pytest.approx(weights.max(), abs=0)
    assert weights[3] == pytest.approx(weights[4], rel=1e-12)
    assert weights[4] > weights[5]


def test_coherent_truncation_error():
    with pytest.raises(TruncationError):
        coherent_amplitudes(2, 8)
    assert coherent_tail_mass(2, 8) > 1e-8
    assert coherent_tail_mass(2, 64) < 1e-20


def test_tail_bound_dim():
    assert tail_bound_dim(2) == 27
    assert tail_bound_dim(4) == 58
    for amp in (0.5, 1.0, 2.5, 4.0):
        n = tail_bound_dim(amp)
        assert coherent_tail_mass(amp, n) < 1e-8


@pytest.mark.parametrize("amp", [1e200, -1e160j, complex(1e154, 1e154), math.inf])
def test_tail_bound_dim_rejects_an_overflowing_mean_photon_number(amp):
    with pytest.raises(TruncationError, match="beyond float range; no Fock cutoff can hold it"):
        tail_bound_dim(amp)


# --- cat states ---


def test_cat_parity_support():
    even = cat_state(2, +1, 64)
    odd = cat_state(2, -1, 64)
    assert np.max(np.abs(even[1::2])) == 0
    assert np.max(np.abs(odd[0::2])) == 0
    assert even[1] == 0


def test_cat_orthogonality():
    even = cat_state(1.3, +1, 64)
    odd = cat_state(1.3, -1, 64)
    assert abs(np.vdot(even, odd)) == 0


def test_cat_unnormalized_norm():
    # |a> + |-a> has squared norm 2(1 + e^{-2|a|^2})
    c = coherent_amplitudes(2, 64)
    parity = (-1.0) ** np.arange(64)
    unnorm = c + parity * c
    assert np.vdot(unnorm, unnorm).real == pytest.approx(2 * (1 + math.exp(-8)), abs=1e-9)


def test_cat_zero_state_error():
    with pytest.raises(ValueError):
        cat_state(0, -1, 16)
    with pytest.raises(ValueError):
        cat_state(1, 2, 16)
    # where the odd cat's norm underflows to zero
    with pytest.raises(ValueError, match="the odd cat .* vanishes at .* = 1e-163"):
        cat_state(1e-163, -1, 16)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.floats(-162, -150), st.sampled_from((1, -1, 1j, -1j)), st.sampled_from((+1, -1)))
def test_cat_has_unit_norm_down_to_where_the_odd_cat_vanishes(exponent, phase, sign):
    # below |alpha| ~ 1e-154 the odd cat's squares are subnormal; off the
    # axes, the real and imaginary squares can underflow at 1e-162 already
    vec = cat_state(10.0 ** exponent * phase, sign, 16)
    assert abs(np.linalg.norm(vec) - 1) < 1e-12


@pytest.mark.parametrize("alpha", [1e-150, 1e-3j, 2.0])
def test_cat_is_its_normalized_sum_above_the_subnormal_range(alpha):
    c = coherent_amplitudes(alpha, 32)
    vec = c - (-1.0) ** np.arange(32) * c
    assert np.array_equal(cat_state(alpha, -1, 32), vec / np.linalg.norm(vec))


# --- parity ---


def test_parity_involution():
    p = parity_phase(16).matrix
    assert np.allclose(p @ p, np.eye(16))


def test_parity_flips_coherent_sign():
    p = parity_phase(64).matrix
    flipped = p @ coherent_amplitudes(2, 64)
    assert np.max(np.abs(flipped - coherent_amplitudes(-2, 64))) < 1e-12


def test_parity_fixes_vacuum():
    p = parity_phase(8).matrix
    vac = np.zeros(8)
    vac[0] = 1
    assert np.allclose(p @ vac, vac)


# --- parity projectors ---


def test_projector_algebra():
    # (P+1)/2 is idempotent; (P-1)/2 has eigenvalues {0, -1}, so squaring
    # flips its sign rather than reproducing it
    n = 64
    plus = pi_projector(+1, n).matrix
    minus = pi_projector(-1, n).matrix
    assert np.max(np.abs(plus @ plus - plus)) < 1e-12
    assert np.max(np.abs(minus @ minus + minus)) < 1e-12
    assert np.max(np.abs(plus @ minus)) < 1e-12
    assert np.max(np.abs(plus + minus - parity_phase(n).matrix)) < 1e-12
    assert np.max(np.abs(plus - minus - np.eye(n))) < 1e-12


@pytest.mark.parametrize("alpha", [1.0, 2.0, 3.0])
def test_projector_cat_actions(alpha):
    n = 64
    even = cat_state(alpha, +1, n)
    odd = cat_state(alpha, -1, n)
    plus = pi_projector(+1, n).matrix
    minus = pi_projector(-1, n).matrix
    assert np.max(np.abs(plus @ even - even)) < 1e-12
    assert np.max(np.abs(minus @ odd - (-odd))) < 1e-12
    assert np.max(np.abs(plus @ odd)) < 1e-12
    assert np.max(np.abs(minus @ even)) < 1e-12


# --- dispersive three-level gate ---


def test_dispersive_pi_projector_assembly():
    n = 32
    u = dispersive_lambda(math.pi, n).matrix
    aa = np.zeros((3, 3)); aa[0, 0] = 1
    bb = np.zeros((3, 3)); bb[1, 1] = 1
    cc = np.zeros((3, 3)); cc[2, 2] = 1
    bc = np.zeros((3, 3)); bc[1, 2] = 1
    cb = np.zeros((3, 3)); cb[2, 1] = 1
    assembled = (
        -np.kron(aa, parity_phase(n).matrix)
        + np.kron(bb + cc, pi_projector(+1, n).matrix)
        + np.kron(bc + cb, pi_projector(-1, n).matrix)
    )
    assert np.max(np.abs(u - assembled)) < 1e-12


def test_dispersive_phi_zero():
    n = 8
    u = dispersive_lambda(0.0, n).matrix
    assert np.allclose(u[n:, n:], np.eye(2 * n))      # identity on the b/c block
    assert np.allclose(u[:n, :n], -np.eye(n))          # minus identity on a


def test_dispersive_unitary_random_phi():
    for phi in RNG.uniform(0, 2 * math.pi, size=100):
        assert unitarity_defect(dispersive_lambda(float(phi), 24).matrix) < 1e-12


def test_dispersive_writes_cats():
    # |b>|alpha> -> (|b>(|a>+|-a>) - |c>(|a>-|-a>))/2
    n = 64
    alpha = 2.0
    u = dispersive_lambda(math.pi, n).matrix
    coh = coherent_amplitudes(alpha, n)
    state = np.kron([0, 1, 0], coh)
    out = u @ state
    parity = (-1.0) ** np.arange(n)
    expected = (np.kron([0, 1, 0], coh + parity * coh) - np.kron([0, 0, 1], coh - parity * coh)) / 2
    assert np.max(np.abs(out - expected)) < 1e-12


# --- displacement ---


def test_displacement_zero_is_identity():
    assert np.max(np.abs(displacement(0, 16).matrix - np.eye(16))) < 1e-12


def test_displacement_on_vacuum():
    n = 64
    vac = np.zeros(n, dtype=complex)
    vac[0] = 1
    out = displacement(2.0, n).matrix @ vac
    overlap = abs(np.vdot(coherent_amplitudes(2.0, n), out)) ** 2
    assert overlap >= 1 - 1e-10


def test_displacement_maps_cats_to_displaced_pairs():
    n = 64
    alpha = 2.0
    for sign in (+1, -1):
        out = displacement(alpha, n).matrix @ cat_state(alpha, sign, n)
        big = coherent_amplitudes(2 * alpha, n)
        vac = np.zeros(n, dtype=complex)
        vac[0] = 1
        target = big + sign * vac
        target = target / np.linalg.norm(target)
        assert abs(np.vdot(target, out)) ** 2 >= 1 - 1e-8


def test_displacement_round_trip():
    n = 64
    for beta in (2.0, 1.5j, -0.7 + 1.1j):
        prod = displacement(beta, n).matrix @ displacement(-beta, n).matrix
        assert np.max(np.abs(prod - np.eye(n))) < 1e-8


# --- resonant probe gate ---


def test_jc_ground_vacuum_stationary():
    n = 16
    for gt in (0.1, 0.9, math.pi / 2):
        u = jc_unitary(gt, n).matrix
        state = np.zeros(2 * n)
        state[0] = 1  # |f, 0>
        assert np.max(np.abs(u @ state - state)) < 1e-12


def test_jc_pi_half_swap():
    n = 8
    u = jc_unitary(math.pi / 2, n).matrix
    state = np.zeros(2 * n, dtype=complex)
    state[1] = 1  # |f, 1>
    out = u @ state
    expected = np.zeros(2 * n, dtype=complex)
    expected[n + 0] = -1j  # -i |e, 0>
    assert np.max(np.abs(out - expected)) < 1e-12


def test_jc_unitary_random_angles():
    for gt in RNG.uniform(0, 2 * math.pi, size=100):
        assert unitarity_defect(jc_unitary(float(gt), 20).matrix) < 1e-12


def test_jc_excitation_conservation():
    n = 24
    gt = 0.37
    u = jc_unitary(gt, n).matrix
    number = np.kron(np.eye(2), np.diag(np.arange(n, dtype=float)))
    excited = np.zeros((2, 2)); excited[1, 1] = 1
    n_exc = number + np.kron(excited, np.eye(n))
    comm = u @ n_exc - n_exc @ u
    edge = 2 * n - 1  # |e, n-1> is held fixed by construction
    comm[edge, :] = 0
    comm[:, edge] = 0
    assert np.max(np.abs(comm)) < 1e-12


def test_jc_excited_probability_against_sum():
    # probe in |f>, field |2a| with mean photon number 16, gt chosen so
    # sqrt(<n>) gt = pi/2
    n = 64
    gt = math.pi / 8
    field = coherent_amplitudes(4.0, n)
    state = np.kron([1, 0], field)
    out = jc_unitary(gt, n).matrix @ state
    p_excited = float(np.sum(np.abs(out[n:]) ** 2))
    weights = np.abs(field) ** 2
    expected = float(np.sum(weights * np.sin(gt * np.sqrt(np.arange(n))) ** 2))
    assert p_excited == pytest.approx(expected, abs=1e-12)
    assert p_excited >= 0.9


@pytest.mark.parametrize("build", [dispersive_blocks, jc_blocks])
def test_block_gate_cache_is_bounded(build):
    for angle in np.linspace(0.1, 3.0, 40):
        build(float(angle), 16)
    info = build.cache_info()
    assert info.maxsize is not None and info.currsize <= info.maxsize, info


# --- photon-number blocks against the dense gates ---


def _spread_order(order) -> bool:
    # the mode never sits next to the atom or the probe it couples to
    at = {name: i for i, name in enumerate(order)}
    return abs(at["C"] - at["A"]) > 1 and abs(at["C"] - at["Q"]) > 1


@settings(max_examples=40, deadline=None)
@given(
    phi=st.floats(-2 * math.pi, 2 * math.pi),
    gt=st.floats(0.0, 3.0),
    dim=st.integers(2, 24),
    order=st.permutations(["P", "A", "Q", "C", "S"]).filter(_spread_order),
    label=st.sampled_from(["s1", "s2", "s3"]),
    seed=st.integers(0, 2**32 - 1),
)
def test_blocks_match_dense_gates(phi, gt, dim, order, label, seed):
    registers = {
        "P": Register.path("P", ("s1", "s2", "s3")),
        "A": Register.lambda3("A"),
        "Q": Register.qubit2("Q"),
        "C": Register.mode("C", dim),
        "S": Register.path("S", ("u", "v")),
    }
    regs = (Register("input basis", "basis", ("b", "c")),) + tuple(registers[n] for n in order)
    rng = np.random.default_rng(seed)
    shape = [r.dim for r in regs]
    tens = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    # weight on |e, dim-1>, the level the resonant gate holds fixed
    edge = [slice(None)] * len(regs)
    edge[1 + order.index("Q")] = 1
    edge[1 + order.index("C")] = dim - 1
    tens[tuple(edge)] += 3.0
    state = CompositeState(regs, tens / np.linalg.norm(tens))

    dense = embed_controlled(registers["P"], label, dispersive_lambda(phi, dim))
    want = apply_op(state, dense, ("P", "A", "C")).amplitudes
    have = apply_op(state, dispersive_blocks(phi, dim), ("A", "C"), ("P", label)).amplitudes
    assert np.max(np.abs(have - want)) < 1e-12

    want = apply_op(state, jc_unitary(gt, dim), ("Q", "C")).amplitudes
    have = apply_op(state, jc_blocks(gt, dim), ("Q", "C")).amplitudes
    assert np.max(np.abs(have - want)) < 1e-12

    dense = embed_controlled(registers["P"], label, jc_unitary(gt, dim))
    want = apply_op(state, dense, ("P", "Q", "C")).amplitudes
    have = apply_op(state, jc_blocks(gt, dim), ("Q", "C"), ("P", label)).amplitudes
    assert np.max(np.abs(have - want)) < 1e-12
    # a dense operator takes the control slice too
    have = apply_op(state, jc_unitary(gt, dim), ("Q", "C"), ("P", label)).amplitudes
    assert np.max(np.abs(have - want)) < 1e-12


# --- compressed modes against the dense state ---


def test_a_gate_that_annihilates_a_compressed_mode_leaves_the_zero_state():
    # the odd selector kills an even field: no column of its image of the
    # basis survives, so the recompression takes the plain SVD of zero
    dim = 16
    field = np.zeros(dim)
    field[[0, 2]] = math.sqrt(0.5)
    regs = (Register.mode("C", dim), Register.path("P", [f"p{i}" for i in range(8)]))
    state = CompositeState(regs, np.kron(field, np.full(8, math.sqrt(1 / 8))))
    out = apply_op(compress(state, "C"), pi_projector(-1, dim), ("C",))
    assert out.bases[0].shape == (dim, 1) and not out.dense().amplitudes.any()


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    phi=st.floats(-2 * math.pi, 2 * math.pi),
    gt=st.floats(0.0, 3.0),
    dim=st.integers(2, 24),
    order=st.permutations(["P", "A", "Q", "C", "S"]).filter(_spread_order),
    label=st.sampled_from(["s1", "s2", "s3"]),
    seed=st.integers(0, 2**32 - 1),
    rank=st.integers(1, 3),
    squeeze_path=st.booleans(),
)
# wide modes: each gate's frame of its image of the basis is narrower than T
@example(phi=2.0, gt=0.7, dim=24, order=["A", "P", "C", "S", "Q"], label="s2", seed=5, rank=1,
         squeeze_path=False)
@example(phi=-1.1, gt=1.3, dim=48, order=["C", "S", "A", "P", "Q"], label="s3", seed=9, rank=2,
         squeeze_path=False)
# an image wider than T: the reduced QR caps the frame at T columns
@example(phi=0.9, gt=1.7, dim=3, order=["Q", "S", "C", "P", "A"], label="s1", seed=11, rank=2,
         squeeze_path=False)
# a compressed control: the controlled gates expand and recompress both registers
@example(phi=2.6, gt=0.4, dim=12, order=["C", "P", "A", "S", "Q"], label="s3", seed=13, rank=2,
         squeeze_path=True)
def test_compressed_mode_matches_the_dense_state(phi, gt, dim, order, label, seed, rank,
                                                 squeeze_path):
    registers = {
        "P": Register.path("P", ("s1", "s2", "s3")),
        "A": Register.lambda3("A"),
        "Q": Register.qubit2("Q"),
        "C": Register.mode("C", dim),
        "S": Register.path("S", ("u", "v")),
    }
    regs = (Register("input basis", "basis", ("b", "c")),) + tuple(registers[n] for n in order)
    rng = np.random.default_rng(seed)
    # a mode entangled with the rest through `rank` field vectors at most
    axis = 1 + order.index("C")
    shape = [r.dim for r in regs]
    shape[axis] = rank
    core = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    fields = rng.normal(size=(dim, rank)) + 1j * rng.normal(size=(dim, rank))
    tens = np.moveaxis(np.tensordot(fields, core, axes=([1], [axis])), 0, axis)
    state = CompositeState(regs, tens / np.linalg.norm(tens))
    squeezed = compress(state, "C")
    assert squeezed.bases[axis].shape == (dim, min(rank, dim))
    if squeeze_path:
        squeezed = compress(squeezed, "P")

    def close(have, want):
        return np.max(np.abs(np.asarray(have) - np.asarray(want))) < 1e-12

    assert close(squeezed.dense().amplitudes, state.amplitudes)
    assert close(compress(squeezed, "C").dense().amplitudes, state.amplitudes)
    calls = [(dispersive_blocks(phi, dim), ("A", "C"), None),
             (dispersive_blocks(phi, dim), ("A", "C"), ("P", label)),
             (jc_blocks(gt, dim), ("Q", "C"), ("P", label)),
             (jc_unitary(gt, dim), ("Q", "C"), None),
             (displacement(0.3 - 0.2j, dim), ("C",), None),
             # not unitary: its image of the basis is no isometry
             (pi_projector(-1, dim), ("C",), None)]
    for op, targets, control in calls:
        have = apply_op(squeezed, op, targets, control)
        want = apply_op(state, op, targets, control)
        assert [q is None for q in have.bases] == [q is None for q in squeezed.bases]
        assert close(have.dense().amplitudes, want.amplitudes)
        # each recompressed basis is an isometry as wide as compress of the dense result
        for i, q in enumerate(have.bases):
            if q is not None:
                assert close(q.conj().T @ q, np.eye(q.shape[1]))
                assert q.shape[1] == compress(want, regs[i].name).bases[i].shape[1]

    for name in ("C", "P", "A"):
        assert close(label_probabilities(squeezed, name), label_probabilities(state, name))
    top = str(dim - 1)
    for fock in (top, str(rng.integers(dim))):
        branch, weight = label_branch(squeezed, "C", fock)
        want, want_weight = label_branch(state, "C", fock)
        kept = CompositeState(regs[:axis] + regs[axis + 1:], branch,
                              squeezed.bases[:axis] + squeezed.bases[axis + 1:])
        assert close(kept.dense().amplitudes, want) and abs(weight - want_weight) < 1e-12

    # two terms: (field vector, P at label, A at b) and (C at top, a P vector, A at c)
    targets = [registers[n] for n in ("C", "P", "A")]
    factors = (np.array([rng.normal(size=dim) + 1j * rng.normal(size=dim),
                         basis_column(registers["C"], top)]),
               np.array([basis_column(registers["P"], label), [0.6, 0, 0.8]]),
               np.array([basis_column(registers["A"], level) for level in "bc"]))
    assert abs(product_fidelity(squeezed, targets, [0.6, 0.8j], factors)
               - product_fidelity(state, targets, [0.6, 0.8j], factors)) < 1e-12
