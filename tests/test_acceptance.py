"""Acceptance suite: one test per exit criterion, printed as PASS/FAIL lines.

Run with ``pytest -s tests/test_acceptance.py`` to see the verdict table.

Criterion 3 is split in two.  The first half checks the selector algebra:
the even selector (parity+1)/2 is idempotent, the two selectors are
orthogonal and sum to parity, and each acts on even and odd cats with
eigenvalue +1, -1 or 0.  The second half checks odd-selector idempotence
in the form ``pi_projector`` documents: the signed selector (parity-1)/2
has eigenvalue -1, so it is not idempotent itself, but its square is the
odd projector, which is idempotent, equals minus the selector, sums with
the even projector to the identity, keeps odd cats and removes even ones.
"""

import math
import time

import numpy as np

from slitport.fockspace import Register, make_state
from slitport.gates import (
    cat_state,
    coherent_amplitudes,
    dispersive_lambda,
    displacement,
    jc_unitary,
    parity_phase,
    pi_projector,
)
from slitport.fockspace import unitarity_defect
from slitport.numformat import fmt_complex, fmt_real
from slitport.oracle import jc_excited_probability
from slitport.protocol import detect, inject_coherent, jc_pass, run_protocol
from slitport.scenario import REFERENCE_SCRIPT
from slitport.script import parse, parse_lenient, resolve, serialize

RNG = np.random.default_rng(20250810)
TRUNC = 64
ALPHA = 2.0


def _verdict(number: int, label: str, ok: bool, detail: str = "") -> bool:
    status = "PASS" if ok else "FAIL"
    suffix = f"  [{detail}]" if detail else ""
    print(f"{status}  criterion {number}: {label}{suffix}")
    return ok


def random_pair(rng):
    z = rng.normal(size=4)
    cb, cc = z[0] + 1j * z[1], z[2] + 1j * z[3]
    norm = math.sqrt(abs(cb) ** 2 + abs(cc) ** 2)
    return cb / norm, cc / norm


def run_reference(**overrides):
    run = resolve(parse(REFERENCE_SCRIPT), overrides)
    return run_protocol(run.layout, run.instructions, run.inputs)


def test_criterion_1_end_to_end_fidelity():
    rng = np.random.default_rng(1)
    started = time.monotonic()
    worst = 1.0
    for _ in range(20):
        cb, cc = random_pair(rng)
        report = run_reference(cb=cb, cc=cc)
        worst = min(worst, report.final_fidelity)
    elapsed = time.monotonic() - started
    ok = worst >= 1 - 1e-8 and elapsed < 10.0
    assert _verdict(1, "20 random inputs teleport at fidelity >= 1-1e-8",
                    ok, f"worst deficit {1 - worst:.1e}, {elapsed:.1f}s"), (worst, elapsed)


def test_criterion_2_checkpoint_equivalence():
    report = run_reference()
    fids = {s.outcome: s.checkpoint_fidelity for s in report.steps if s.kind == "checkpoint"}
    worst = min(fids.values())
    ok = len(fids) == 17 and worst >= 1 - 1e-9
    assert _verdict(2, "all 17 stage states match their closed forms",
                    ok, f"worst {1 - worst:.2e} below 1"), fids


def test_criterion_3_projector_algebra_consistent_part():
    ok = True
    plus = pi_projector(+1, TRUNC).matrix
    minus = pi_projector(-1, TRUNC).matrix
    ok &= np.max(np.abs(plus @ plus - plus)) < 1e-12
    ok &= np.max(np.abs(plus @ minus)) < 1e-12
    ok &= np.max(np.abs(plus + minus - parity_phase(TRUNC).matrix)) < 1e-12
    for alpha in (1.0, 2.0, 3.0):
        even = cat_state(alpha, +1, TRUNC)
        odd = cat_state(alpha, -1, TRUNC)
        ok &= np.max(np.abs(plus @ even - even)) < 1e-12
        ok &= np.max(np.abs(minus @ odd + odd)) < 1e-12
        ok &= np.max(np.abs(plus @ odd)) < 1e-12
        ok &= np.max(np.abs(minus @ even)) < 1e-12
    assert _verdict(3, "selector algebra and eigen-actions (consistent checks)", bool(ok))


def test_criterion_3_literal_odd_selector_idempotence_spec_defect():
    # The signed selector minus = (parity-1)/2 cannot itself be idempotent:
    # P^2 = P forces every eigenvalue into {0, 1}, and minus has eigenvalue
    # -1 on odd photon numbers.  Its square is the odd projector, which is
    # idempotent, equals -minus, completes the even projector to the
    # identity, keeps odd cats and annihilates even ones.
    minus = pi_projector(-1, TRUNC).matrix
    plus = pi_projector(+1, TRUNC).matrix
    odd = minus @ minus
    deviations = [
        np.max(np.abs(odd @ odd - odd)),
        np.max(np.abs(odd + minus)),
        np.max(np.abs(odd + plus - np.eye(TRUNC))),
    ]
    for alpha in (1.0, 2.0, 3.0):
        odd_cat = cat_state(alpha, -1, TRUNC)
        deviations.append(np.max(np.abs(odd @ odd_cat - odd_cat)))
        deviations.append(np.max(np.abs(odd @ cat_state(alpha, +1, TRUNC))))
    defect = float(max(deviations))
    assert _verdict(3, "odd selection (minus squared) is an idempotent projector equal to -minus",
                    defect < 1e-12, f"max deviation {defect:g}"), defect


def test_criterion_4_unitarity():
    ok = True
    for phi in RNG.uniform(0, 2 * math.pi, size=100):
        ok &= unitarity_defect(dispersive_lambda(float(phi), 32).matrix) < 1e-12
    for gt in RNG.uniform(0, 2 * math.pi, size=100):
        ok &= unitarity_defect(jc_unitary(float(gt), 32).matrix) < 1e-12
    for beta in (2.0, -1.3, 1.1j, 0.9 - 0.7j):
        product = displacement(beta, TRUNC).matrix @ displacement(-beta, TRUNC).matrix
        ok &= np.max(np.abs(product - np.eye(TRUNC))) < 1e-8
    assert _verdict(4, "gate unitarity and displacement round trips", bool(ok))


def test_criterion_5_input_independence():
    rng = np.random.default_rng(5)
    cumulative = []
    b3 = []
    for _ in range(10):
        cb, cc = random_pair(rng)
        report = run_reference(cb=cb, cc=cc)
        cumulative.append(report.cumulative_probability)
        b3.extend(s.probability for s in report.steps if s.name == "detect A3 internal b")
    spread = max(cumulative) - min(cumulative)
    b3_off = max(abs(p - 0.5) for p in b3)
    ok = spread < 1e-10 and b3_off < 1e-10
    assert _verdict(5, "post-selection probability independent of the input pair",
                    ok, f"spread {spread:.1e}, b3 off {b3_off:.1e}")


def test_criterion_6_probe_disentanglement():
    reference = jc_excited_probability(16.0, math.pi / 8, TRUNC)
    state = make_state(
        [Register.qubit2("A51"), Register.mode("C1", TRUNC)],
        {"A51": "f", "C1": coherent_amplitudes(2 * ALPHA, TRUNC)},
    )
    _, engine = detect(jc_pass(state, "A51", "C1", math.pi / 8), "A51", "e")
    ok = reference >= 0.9 and abs(engine - reference) < 1e-10
    assert _verdict(6, "probe excitation matches the photon-sum reference",
                    ok, f"P(e) = {reference:.6f}")


def test_criterion_7_injection_identity():
    worst = 1.0
    vac = np.zeros(TRUNC, dtype=complex)
    vac[0] = 1
    big = coherent_amplitudes(2 * ALPHA, TRUNC)
    for sign in (+1, -1):
        state = make_state([Register.mode("C1", TRUNC)], {"C1": cat_state(ALPHA, sign, TRUNC)})
        out, _ = inject_coherent(state, "C1", ALPHA)
        target = big + sign * vac
        target = target / np.linalg.norm(target)
        worst = min(worst, float(abs(np.vdot(target, out.amplitudes)) ** 2))
    ok = worst >= 1 - 1e-8
    assert _verdict(7, "injection maps parity records onto displaced pairs",
                    ok, f"worst {worst:.12f}")


def _fuzzed_script(rng) -> str:
    cb = rng.uniform(0.2, 0.8)
    phi_den = rng.integers(1, 7)
    z = complex(round(rng.normal(), 5), round(rng.normal(), 5))
    return "\n".join([
        f"config cb {fmt_real(cb)}",
        f"config cc {fmt_real(math.sqrt(1 - cb * cb))}",
        f"cavity C1 alpha {fmt_real(rng.uniform(0.4, 1.2))}",
        "cavity C2 alpha 1 truncation 40",
        "screen S sA sB",
        "bind sA C1",
        "bind sB C2",
        f"kernel det [{fmt_complex(z / (2 * abs(z)))} 0.5]",
        "atom A lambda3 state input",
        "split A S",
        f"pass A S phi pi/{phi_den}",
        "detect A internal b",
        "propagate A det",
        "detect A position det",
        f"inject C2 {fmt_real(rng.uniform(0, 0.6))}",
    ]) + "\n"


def test_criterion_8_parser_round_trip_and_recovery():
    ok = True
    scripts = [REFERENCE_SCRIPT] + [_fuzzed_script(np.random.default_rng(100 + k))
                                    for k in range(10)]
    for text in scripts:
        first = parse(text)
        second = parse(serialize(first))
        ok &= [(c.keyword, c.args) for c in first.commands] == \
            [(c.keyword, c.args) for c in second.commands]
    malformed = "\n".join([
        "cavity C1 alpha 2",
        "nonsense here",
        "screen S a b",
        "pass A1",
        "atom A1 lambda3 state b",
    ])
    _, errors = parse_lenient(malformed)
    ok &= [line for line, _ in errors] == [2, 4]
    parsed, _ = parse_lenient(malformed)
    ok &= [c.line for c in parsed.commands] == [1, 3, 5]
    assert _verdict(8, "serialize/parse round trips and line-tagged recovery", bool(ok))
