"""Simulation of post-selected teleportation of slit-path qubits.

Atoms crossing a double slit pick up cavity-conditioned phases that
record their path in even/odd field superpositions; a chain of
post-selected detections then transfers an input path state onto a
fresh atom.  The package provides the tensor-product state engine, the
gate constructors, a line-oriented protocol script language, closed-form
reference states for every stage, and a CLI.
"""

from .fockspace import (
    BlockOperator,
    CompositeState,
    ImpossibleOutcomeError,
    OperatorMatrix,
    Register,
    RegisterError,
    TruncationError,
    apply_op,
    fidelity,
    make_state,
    project,
    reduced_fidelity,
)
from .gates import (
    cat_state,
    coherent_amplitudes,
    dispersive_blocks,
    dispersive_lambda,
    displacement,
    jc_blocks,
    jc_unitary,
    parity_phase,
    pi_projector,
    tail_bound_dim,
)
from .oracle import CHECKPOINTS, expected_state, jc_excited_probability
from .protocol import (
    Kernel,
    ProtocolError,
    RunInputs,
    RunReport,
    StepRecord,
    run_batch,
    run_protocol,
)
from .scenario import REFERENCE_SCRIPT
from .script import ProtocolScript, ScriptError, parse, resolve, serialize

__version__ = "0.1.0"

__all__ = [
    "BlockOperator",
    "CHECKPOINTS",
    "CompositeState",
    "ImpossibleOutcomeError",
    "Kernel",
    "OperatorMatrix",
    "ProtocolError",
    "ProtocolScript",
    "REFERENCE_SCRIPT",
    "Register",
    "RegisterError",
    "RunInputs",
    "RunReport",
    "ScriptError",
    "StepRecord",
    "TruncationError",
    "apply_op",
    "cat_state",
    "coherent_amplitudes",
    "dispersive_blocks",
    "dispersive_lambda",
    "displacement",
    "expected_state",
    "fidelity",
    "jc_blocks",
    "jc_excited_probability",
    "jc_unitary",
    "make_state",
    "parity_phase",
    "parse",
    "pi_projector",
    "project",
    "reduced_fidelity",
    "resolve",
    "run_batch",
    "run_protocol",
    "serialize",
    "tail_bound_dim",
]
