"""Closed-form reference states for every stage of the teleportation run.

Each checkpoint state is assembled directly from coherent/cat-state
formulas and hand-derived branch coefficients, never by running the
engine, so checkpoint comparisons are genuinely independent.

CHECKPOINT_REGISTERS names each checkpoint's registers as the built-in
reference scenario declares them: cavities C1/C2 behind slits sl1/sl2 of
the first screen, lambda atoms A1..A4, probe atoms A51/A52.
"""

from __future__ import annotations

import math
from functools import lru_cache, reduce

import numpy as np

from .fockspace import ATOM_LEVELS, CompositeState, Register, basis_column, mode_labels
from .gates import cat_state, coherent_amplitudes, rabi_angles

_CAVITIES = {"C1": "mode", "C2": "mode"}
# each checkpoint's registers and their kinds, in the engine's order at that
# stage; the checkpoints are in protocol order
CHECKPOINT_REGISTERS = {
    "A1_split": _CAVITIES | {"A1": "lambda3", "A1_path": "path"},
    "A1_after_cavities": _CAVITIES | {"A1": "lambda3", "A1_path": "path"},
    "A12_after_cavities": _CAVITIES | {"A1": "lambda3", "A1_path": "path",
                                       "A2": "lambda3", "A2_path": "path"},
    "A12_post_c1b2": _CAVITIES | {"A1_path": "path", "A2_path": "path"},
    "A123_after_cavities": _CAVITIES | {"A1_path": "path", "A2_path": "path",
                                        "A3": "lambda3", "A3_path": "path"},
    "A123_post_b3": _CAVITIES | {"A1_path": "path", "A2_path": "path", "A3_path": "path"},
    "A123_post_zeta31": _CAVITIES | {"A1_path": "path", "A2_path": "path"},
    "A12_pre_SC3": _CAVITIES | {"A1_path": "path", "A2_path": "path"},
    "A2_post_gamma1": _CAVITIES | {"A2_path": "path"},
    "TELEPST1": _CAVITIES | {"A2_path": "path"},
    "A24_after_cavities": _CAVITIES | {"A2_path": "path", "A4": "lambda3", "A4_path": "path"},
    "A24_post_rho1": _CAVITIES | {"A4": "lambda3", "A4_path": "path"},
    "A24_post_b4": _CAVITIES | {"A4_path": "path"},
    "TELEPST2": _CAVITIES | {"A4_path": "path"},
    "POST_INJECTION": _CAVITIES | {"A4_path": "path"},
    "POST_JC": _CAVITIES | {"A4_path": "path", "A51": "qubit2", "A52": "qubit2"},
    "FINAL": {"A4_path": "path"},
}
CHECKPOINTS = tuple(CHECKPOINT_REGISTERS)

SLITS = ("sl1", "sl2")


class _Parts:
    """Shared ingredients for one (alpha, truncation, gt) parameter set.

    Instances are cached and shared, so every array is read-only.
    """

    def __init__(self, alpha: complex, truncation: int, gt: float):
        self.coh = coherent_amplitudes(alpha, truncation)
        self.even = cat_state(alpha, +1, truncation)
        self.odd = cat_state(alpha, -1, truncation)
        # unnormalized even/odd superpositions have squared norm 2(1 +/- <a|-a>)
        overlap = math.exp(-2.0 * abs(alpha) ** 2)
        self.w_plus = math.sqrt(2.0 * (1.0 + overlap))
        self.w_minus = math.sqrt(2.0 * (1.0 - overlap))
        # injected field: |2a> +/- |0>, normalized
        big = coherent_amplitudes(2 * alpha, truncation)
        vac = np.zeros(truncation, dtype=complex)
        vac[0] = 1.0
        self.big = big
        self.disp_plus = (big + vac) / np.linalg.norm(big + vac)
        self.disp_minus = (big - vac) / np.linalg.norm(big - vac)
        # exact probe branches after the resonant pass over |2a>
        angles = rabi_angles(gt, truncation)
        self.chi_f = big * np.cos(angles)
        chi_e = np.zeros(truncation, dtype=complex)
        chi_e[:-1] = -1j * big[1:] * np.sin(angles[1:])
        self.chi_e = chi_e
        self.vac = vac
        for value in vars(self).values():
            if isinstance(value, np.ndarray):
                value.setflags(write=False)
        # name -> _factorize of a checkpoint, at its first use (threads racing store equal values)
        self.checkpoints = {}


_parts = lru_cache(maxsize=16)(_Parts)


@lru_cache(maxsize=64)
def checkpoint_registers(checkpoint: str, truncation: int) -> tuple[Register, ...]:
    """The registers a checkpoint's closed form covers, with their labels."""
    if checkpoint not in CHECKPOINT_REGISTERS:
        raise ValueError(f"unknown checkpoint {checkpoint!r}")
    labels = {"path": SLITS, "mode": mode_labels(truncation), **ATOM_LEVELS}
    return tuple(Register(name, kind, labels[kind])
                 for name, kind in CHECKPOINT_REGISTERS[checkpoint].items())


def expected_state(checkpoint: str, *, cb, cc, alpha, truncation: int, gt: float) -> CompositeState:
    """The reference-scenario state at one named checkpoint, normalized.

    This is the dense form of checkpoint_terms: each term's factor rows
    assembled with np.kron.
    """
    registers, coeffs, factors, _ = checkpoint_terms(checkpoint, cb=cb, cc=cc, alpha=alpha,
                                                     truncation=truncation, gt=gt)
    total = sum(coeff * reduce(np.kron, rows) for coeff, *rows in zip(coeffs, *factors))
    norm = np.linalg.norm(total)
    if norm == 0:
        raise ValueError("assembled state is the zero vector")
    return CompositeState(registers, total / norm)


def checkpoint_terms(checkpoint: str, *, cb, cc, alpha, truncation: int, gt: float):
    """The closed form at one checkpoint as ``(registers, coeffs, factors, gram)``.

    The state is the normalized sum over terms i of coeffs[i] times the
    tensor product of row i of each register's factor matrix (m x dim, in
    register order); gram is the elementwise product of the factors' Gram
    matrices, which gives the sum's norm.  Only the coefficients depend on
    (cb, cc), so the rest is built once per checkpoint and kept with the
    cached parts of its (alpha, truncation, gt).
    """
    parts = _parts(alpha, truncation, gt)
    if checkpoint not in parts.checkpoints:
        parts.checkpoints[checkpoint] = _factorize(checkpoint, truncation, parts)
    registers, affine, factors, gram = parts.checkpoints[checkpoint]
    return registers, np.array([1.0, cb, cc]) @ affine, factors, gram


def _factorize(checkpoint: str, truncation: int, p: _Parts) -> tuple:
    """A checkpoint's registers, coefficient map, factor matrices and Gram product.

    Every coefficient is affine in (cb, cc): row 0 of the map is its value
    at (0, 0), and rows 1 and 2 what a unit cb and a unit cc add.  The
    labels and vectors of the terms do not depend on them.
    """
    registers = checkpoint_registers(checkpoint, truncation)
    runs = [_terms(checkpoint, cb, cc, p) for cb, cc in ((0, 0), (1, 0), (0, 1))]
    affine = np.array([[coeff for coeff, _ in terms] for terms in runs], dtype=complex)
    affine[1:] -= affine[0]
    factors = tuple(np.array([basis_column(reg, parts[reg.name]) for _, parts in runs[0]])
                    for reg in registers)
    gram = math.prod(f.conj() @ f.T for f in factors)
    for array in (affine, gram, *factors):
        array.setflags(write=False)
    return registers, affine, factors, gram


def _terms(checkpoint: str, cb, cc, p: _Parts) -> list:
    coh, even, odd = p.coh, p.even, p.odd
    wp, wm = p.w_plus, p.w_minus
    r = 1.0 / math.sqrt(2.0)

    if checkpoint == "A1_split":
        return [
            (r, {"C1": coh, "C2": coh, "A1": "b", "A1_path": "sl1"}),
            (r, {"C1": coh, "C2": coh, "A1": "b", "A1_path": "sl2"}),
        ]

    if checkpoint == "A1_after_cavities":
        q = 1.0 / (2.0 * math.sqrt(2.0))
        return [
            (q * wp, {"C1": even, "C2": coh, "A1": "b", "A1_path": "sl1"}),
            (-q * wm, {"C1": odd, "C2": coh, "A1": "c", "A1_path": "sl1"}),
            (q * wp, {"C1": coh, "C2": even, "A1": "b", "A1_path": "sl2"}),
            (-q * wm, {"C1": coh, "C2": odd, "A1": "c", "A1_path": "sl2"}),
        ]

    if checkpoint == "A12_after_cavities":
        terms = [
            # both atoms through the first slit: second pass re-projects the cat
            (wp / 4, {"C1": even, "C2": coh, "A1": "b", "A1_path": "sl1", "A2": "b", "A2_path": "sl1"}),
            (wm / 4, {"C1": odd, "C2": coh, "A1": "c", "A1_path": "sl1", "A2": "c", "A2_path": "sl1"}),
            # both through the second slit
            (wp / 4, {"C1": coh, "C2": even, "A1": "b", "A1_path": "sl2", "A2": "b", "A2_path": "sl2"}),
            (wm / 4, {"C1": coh, "C2": odd, "A1": "c", "A1_path": "sl2", "A2": "c", "A2_path": "sl2"}),
        ]
        # opposite slits: each cavity holds one atom's parity record
        for a1_slit, a2_slit in (("sl2", "sl1"), ("sl1", "sl2")):
            # cavity seen by A1 / by A2
            c_a1 = "C2" if a1_slit == "sl2" else "C1"
            c_a2 = "C1" if a2_slit == "sl1" else "C2"
            for a1_state, cat1, w1, s1 in (("b", even, wp, 1.0), ("c", odd, wm, -1.0)):
                for a2_state, cat2, w2, s2 in (("b", even, wp, 1.0), ("c", odd, wm, -1.0)):
                    terms.append((
                        s1 * s2 * w1 * w2 / 8,
                        {c_a1: cat1, c_a2: cat2, "A1": a1_state, "A1_path": a1_slit,
                         "A2": a2_state, "A2_path": a2_slit},
                    ))
        return terms

    if checkpoint == "A12_post_c1b2":
        return [
            (r, {"C1": even, "C2": odd, "A1_path": "sl2", "A2_path": "sl1"}),
            (r, {"C1": odd, "C2": even, "A1_path": "sl1", "A2_path": "sl2"}),
        ]

    if checkpoint == "A123_after_cavities":
        half = 0.5
        # entangled pair branch shared by A12_post_c1b2, tagged E (C1 even) / O (C1 odd)
        branch_e = {"C1": even, "C2": odd, "A1_path": "sl2", "A2_path": "sl1"}
        branch_o = {"C1": odd, "C2": even, "A1_path": "sl1", "A2_path": "sl2"}
        return [
            (half * cb, branch_e | {"A3": "b", "A3_path": "sl1"}),
            (-half * cc, branch_e | {"A3": "c", "A3_path": "sl1"}),
            (-half * cb, branch_o | {"A3": "c", "A3_path": "sl1"}),
            (half * cc, branch_o | {"A3": "b", "A3_path": "sl1"}),
            (-half * cb, branch_e | {"A3": "c", "A3_path": "sl2"}),
            (half * cc, branch_e | {"A3": "b", "A3_path": "sl2"}),
            (half * cb, branch_o | {"A3": "b", "A3_path": "sl2"}),
            (-half * cc, branch_o | {"A3": "c", "A3_path": "sl2"}),
        ]

    if checkpoint == "A123_post_b3":
        branch_e = {"C1": even, "C2": odd, "A1_path": "sl2", "A2_path": "sl1"}
        branch_o = {"C1": odd, "C2": even, "A1_path": "sl1", "A2_path": "sl2"}
        return [
            (r * cb, branch_e | {"A3_path": "sl1"}),
            (r * cc, branch_o | {"A3_path": "sl1"}),
            (r * cc, branch_e | {"A3_path": "sl2"}),
            (r * cb, branch_o | {"A3_path": "sl2"}),
        ]

    if checkpoint in ("A123_post_zeta31", "A12_pre_SC3"):
        return [
            (cb, {"C1": even, "C2": odd, "A1_path": "sl2", "A2_path": "sl1"}),
            (cc, {"C1": odd, "C2": even, "A1_path": "sl1", "A2_path": "sl2"}),
        ]

    if checkpoint in ("A2_post_gamma1", "TELEPST1"):
        return [
            (cb, {"C1": even, "C2": odd, "A2_path": "sl1"}),
            (cc, {"C1": odd, "C2": even, "A2_path": "sl2"}),
        ]

    if checkpoint == "A24_after_cavities":
        return [
            (r * cb, {"C1": even, "C2": odd, "A2_path": "sl1", "A4": "b", "A4_path": "sl1"}),
            (-r * cc, {"C1": odd, "C2": even, "A2_path": "sl2", "A4": "c", "A4_path": "sl1"}),
            (-r * cb, {"C1": even, "C2": odd, "A2_path": "sl1", "A4": "c", "A4_path": "sl2"}),
            (r * cc, {"C1": odd, "C2": even, "A2_path": "sl2", "A4": "b", "A4_path": "sl2"}),
        ]

    if checkpoint == "A24_post_rho1":
        return [
            (r * cb, {"C1": even, "C2": odd, "A4": "b", "A4_path": "sl1"}),
            (-r * cc, {"C1": odd, "C2": even, "A4": "c", "A4_path": "sl1"}),
            (-r * cb, {"C1": even, "C2": odd, "A4": "c", "A4_path": "sl2"}),
            (r * cc, {"C1": odd, "C2": even, "A4": "b", "A4_path": "sl2"}),
        ]

    if checkpoint in ("A24_post_b4", "TELEPST2"):
        return [
            (cb, {"C1": even, "C2": odd, "A4_path": "sl1"}),
            (cc, {"C1": odd, "C2": even, "A4_path": "sl2"}),
        ]

    if checkpoint == "POST_INJECTION":
        return [
            (cb, {"C1": p.disp_plus, "C2": p.disp_minus, "A4_path": "sl1"}),
            (cc, {"C1": p.disp_minus, "C2": p.disp_plus, "A4_path": "sl2"}),
        ]

    if checkpoint == "POST_JC":
        overlap = float(np.real(p.big[0]))
        # each slit branch holds |2a> + |0> in one cavity and |2a> - |0> in the
        # other, so the product of their norms scales every term alike; it is 0
        # once |2a|^2 is below rounding, and then any common scale will do
        norms = math.sqrt(2.0 * (1.0 + overlap)) * math.sqrt(2.0 * (1.0 - overlap)) or 1.0
        f_plus = p.chi_f + p.vac
        f_minus = p.chi_f - p.vac
        terms = []
        for coeff, slit, c1_f, c2_f in ((cb, "sl1", f_plus, f_minus), (cc, "sl2", f_minus, f_plus)):
            for s1, vec1 in (("e", p.chi_e), ("f", c1_f)):
                for s2, vec2 in (("e", p.chi_e), ("f", c2_f)):
                    terms.append((
                        coeff / norms,
                        {"C1": vec1, "C2": vec2, "A4_path": slit, "A51": s1, "A52": s2},
                    ))
        return terms

    # FINAL: the teleported path state alone
    return [(cb, {"A4_path": "sl1"}), (cc, {"A4_path": "sl2"})]


def jc_excited_probability(mean_n: float, gt: float, truncation: int) -> float:
    """Excitation probability of a ground probe crossing a coherent field.

    Direct sum over the photon-number distribution with mean mean_n:
    sum_n |C_n|^2 sin^2(gt sqrt(n)).  Serves as the independent reference
    for the engine's probe detection probabilities.
    """
    if mean_n < 0:
        raise ValueError("mean photon number must be nonnegative")
    weights = np.abs(coherent_amplitudes(math.sqrt(mean_n), truncation)) ** 2
    return float(np.sum(weights * np.sin(gt * np.sqrt(np.arange(truncation))) ** 2))
