"""Field states and atom-field gate constructors on a truncated Fock space.

Everything here is a pure function of its parameters.  The dispersive
and resonant gates also come as BlockOperator stacks, one block per
excitation number: the runner applies those, and the dense matrices are
their reference.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .fockspace import BlockOperator, OperatorMatrix, TruncationError
from .numformat import fmt_complex

# Raw probability mass allowed above the Fock cutoff.
TAIL_MASS_LIMIT = 1e-8


def tail_bound_dim(amplitude: complex) -> int:
    """Smallest Fock dimension with tail mass below 1e-8 for |amplitude>.

    Poisson tail bound: mean + 10 standard deviations comfortably clears
    the 1e-8 mass limit for any coherent amplitude.  An amplitude whose
    mean photon number overflows a float raises TruncationError.
    """
    magnitude = abs(amplitude)
    if not math.isfinite(magnitude * magnitude):
        raise TruncationError(f"amplitude {magnitude:.3e} has a mean photon number beyond "
                              "float range; no Fock cutoff can hold it")
    nbar = magnitude ** 2
    return math.ceil(nbar + 10.0 * math.sqrt(nbar + 1.0))


def coherent_tail_mass(alpha: complex, truncation: int) -> float:
    """Probability mass of |alpha> above the cutoff, before renormalizing."""
    weights = np.abs(_coherent_raw(alpha, truncation)) ** 2
    return max(0.0, 1.0 - float(weights.sum()))


def _coherent_raw(alpha: complex, truncation: int) -> np.ndarray:
    if truncation < 1:
        raise TruncationError("truncation must be at least 1")
    tail_bound_dim(alpha)  # raises for an amplitude past float range
    c = np.zeros(truncation, dtype=complex)
    c[0] = math.exp(-0.5 * abs(alpha) ** 2)
    for n in range(1, truncation):
        c[n] = c[n - 1] * alpha / math.sqrt(n)
    return c


def coherent_amplitudes(alpha: complex, truncation: int) -> np.ndarray:
    """Fock amplitudes e^{-|a|²/2} aⁿ/√n!, renormalized over the cutoff."""
    c = _coherent_raw(alpha, truncation)
    tail = 1.0 - float(np.sum(np.abs(c) ** 2))
    if tail > TAIL_MASS_LIMIT:
        raise TruncationError(
            f"coherent amplitude {fmt_complex(alpha)}: tail mass {tail:.3e} above cutoff "
            f"{truncation} (need dimension >= {tail_bound_dim(alpha)})"
        )
    return c / np.linalg.norm(c)

def cat_state(alpha: complex, sign: int, truncation: int) -> np.ndarray:
    """Normalized even (+1) or odd (-1) superposition of |alpha> and |-alpha>.

    The even state has support only on even photon numbers, the odd state
    only on odd ones, so the two are exactly orthogonal.
    """
    if sign not in (+1, -1):
        raise ValueError("sign must be +1 or -1")
    c = coherent_amplitudes(alpha, truncation)
    parity = (-1.0) ** np.arange(truncation)
    vec = c + sign * parity * c
    # zero at alpha = 0, and wherever |alpha|^2 underflows
    norm = np.linalg.norm(vec)
    if norm == 0:
        raise ValueError(f"the odd cat |alpha> - |-alpha> vanishes at |alpha| = {abs(alpha):.3g}, "
                         "so the cavities cannot record a slit")
    if norm < 1e-150:  # its squares are subnormal, so the norm is inexact: rescale first
        vec = vec / np.abs(vec).max()
        norm = np.linalg.norm(vec)
    return vec / norm


def _phases(phi: float, truncation: int) -> np.ndarray:
    """The dispersive phase factor e^{i phi n} for each photon number n."""
    if not math.isfinite(phi * (truncation - 1)):
        raise ValueError(f"the dispersive phase phi·n overflows a float for phi = {phi:.3g} "
                         f"at n = {truncation - 1}")
    return np.exp(1j * phi * np.arange(truncation))


def rabi_angles(gt: float, truncation: int) -> np.ndarray:
    """The resonant pass's Rabi angle gt·√n for each photon number n."""
    if not math.isfinite(gt * math.sqrt(truncation - 1)):
        raise ValueError(f"the Rabi angle gt·√n overflows a float for gt = {gt:.3g} "
                         f"at n = {truncation - 1}")
    return gt * np.sqrt(np.arange(truncation))


@lru_cache(maxsize=None)
def parity_phase(truncation: int) -> OperatorMatrix:
    """Photon-parity operator, diagonal (-1)ⁿ in the Fock basis."""
    diag = (-1.0) ** np.arange(truncation)
    return OperatorMatrix(np.diag(diag.astype(complex)), unitary=True)


@lru_cache(maxsize=None)
def pi_projector(sign: int, truncation: int) -> OperatorMatrix:
    """Signed parity selectors (parity +/- 1)/2 on the Fock basis.

    The + form is the projector onto even photon number.  The - form
    selects odd photon number with eigenvalue -1 (its square is the odd
    projector, i.e. minus itself); that sign is what routes the b/c
    levels in the phi=pi dispersive gate.
    """
    if sign not in (+1, -1):
        raise ValueError("sign must be +1 or -1")
    p = parity_phase(truncation).matrix
    eye = np.eye(truncation, dtype=complex)
    return OperatorMatrix((p + sign * eye) / 2.0)


@lru_cache(maxsize=None)
def dispersive_lambda(phi: float, truncation: int) -> OperatorMatrix:
    """Dispersive pass of a three-level atom through a cavity.

    The two lower levels couple through the field's number operator:

        |a>  ->  -e^{i phi n} |a>
        |b>  ->  (e^{i phi n}+1)/2 |b>  +  (e^{i phi n}-1)/2 |c>
        |c>  ->  (e^{i phi n}-1)/2 |b>  +  (e^{i phi n}+1)/2 |c>

    with phi the accumulated phase per photon.  Unitary for every phi; at
    phi = pi the b/c blocks become the photon-parity projectors and the
    field is written into even/odd superpositions of +/-alpha.

    Targets (atom, mode) with the atom axis slow.
    """
    phase = _phases(phi, truncation)
    plus = np.diag((phase + 1.0) / 2.0)
    minus = np.diag((phase - 1.0) / 2.0)
    m = np.zeros((3 * truncation, 3 * truncation), dtype=complex)

    def block(row: int, col: int, op: np.ndarray) -> None:
        m[row * truncation : (row + 1) * truncation, col * truncation : (col + 1) * truncation] = op

    block(0, 0, -np.diag(phase))  # level a
    block(1, 1, plus)             # b -> b
    block(1, 2, minus)            # c -> b
    block(2, 1, minus)            # b -> c
    block(2, 2, plus)             # c -> c
    return OperatorMatrix(m, unitary=True)


@lru_cache(maxsize=None)
def dispersive_blocks(phi: float, truncation: int) -> BlockOperator:
    """dispersive_lambda as one 3x3 (a, b, c) block per photon number n."""
    phase = _phases(phi, truncation)
    m = np.zeros((truncation, 3, 3), dtype=complex)
    m[:, 0, 0] = -phase
    m[:, 1, 1] = m[:, 2, 2] = (phase + 1.0) / 2.0
    m[:, 1, 2] = m[:, 2, 1] = (phase - 1.0) / 2.0
    return BlockOperator(m, (0, 0, 0))


@lru_cache(maxsize=2)
def displacement(beta: complex, truncation: int) -> OperatorMatrix:
    """Displacement exp(beta a† - beta* a) on the truncated space.

    Computed from the spectral decomposition of the truncated generator,
    which keeps the matrix exactly unitary.  Accuracy near the cutoff is
    the caller's responsibility via tail_bound_dim.
    """
    a = np.diag(np.sqrt(np.arange(1, truncation, dtype=float)), k=1).astype(complex)
    generator = beta * a.conj().T - np.conj(beta) * a
    # generator is anti-Hermitian; diagonalize iG (Hermitian) and exponentiate
    evals, evecs = np.linalg.eigh(1j * generator)
    u = (evecs * np.exp(-1j * evals)) @ evecs.conj().T
    return OperatorMatrix(u, unitary=True)


@lru_cache(maxsize=None)
def jc_unitary(gt: float, truncation: int) -> OperatorMatrix:
    """Resonant two-level/single-mode interaction for a Rabi angle gt.

        |f, n>  ->  cos(gt√n)     |f, n>  -  i sin(gt√n)     |e, n-1>
        |e, n>  ->  cos(gt√(n+1)) |e, n>  -  i sin(gt√(n+1)) |f, n+1>

    |f, 0> is stationary.  The top level |e, truncation-1> has no partner
    inside the cutoff and is held fixed so the matrix stays unitary; states
    obeying the tail-bound rule have negligible weight there.

    Targets (probe, mode) with the probe axis slow.
    """
    if truncation < 2:
        raise TruncationError("jc_unitary needs truncation >= 2")
    n = truncation
    m = np.eye(2 * n, dtype=complex)  # |f, 0> and |e, n-1> stay put
    for k, theta in enumerate(rabi_angles(gt, n)[1:], start=1):
        f, e = k, n + k - 1  # |f, k> and its partner |e, k-1>
        m[f, f] = m[e, e] = math.cos(theta)
        m[e, f] = m[f, e] = -1j * math.sin(theta)
    return OperatorMatrix(m, unitary=True)


@lru_cache(maxsize=None)
def jc_blocks(gt: float, truncation: int) -> BlockOperator:
    """jc_unitary as 2x2 blocks pairing |f, k> with |e, k-1>, k = 0..truncation.

    The blocks at k = 0 (|f, 0> alone) and k = truncation (the frozen
    |e, truncation-1> alone) are the identity.
    """
    if truncation < 2:
        raise TruncationError("jc_blocks needs truncation >= 2")
    m = np.zeros((truncation + 1, 2, 2), dtype=complex)
    m[0] = m[truncation] = np.eye(2)
    for k, theta in enumerate(rabi_angles(gt, truncation)[1:], start=1):
        m[k] = [[math.cos(theta), -1j * math.sin(theta)],
                [-1j * math.sin(theta), math.cos(theta)]]
    return BlockOperator(m, (0, 1))
