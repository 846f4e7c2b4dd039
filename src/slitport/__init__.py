"""Simulation of post-selected teleportation of slit-path qubits.

Atoms crossing a double slit pick up cavity-conditioned phases that
record their path in even/odd field superpositions; a chain of
post-selected detections then transfers an input path state onto a
fresh atom.  The package provides the tensor-product state engine, the
gate constructors, a line-oriented protocol script language, closed-form
reference states for every stage, and a CLI.

The top level exports the run contract: parse and resolve a script, run
it, and read the report.  The engine, gates and reference states are
imported from their modules (``slitport.fockspace``, ``slitport.gates``,
``slitport.oracle``, ``slitport.protocol``, ``slitport.script``).
"""

from .fockspace import ImpossibleOutcomeError
from .oracle import CHECKPOINTS
from .protocol import ProtocolError, RunInputs, RunReport, StepRecord, run_batch, run_protocol
from .scenario import REFERENCE_SCRIPT
from .script import ScriptError, parse, resolve, serialize

__version__ = "0.1.0"

__all__ = [
    "CHECKPOINTS",
    "ImpossibleOutcomeError",
    "ProtocolError",
    "REFERENCE_SCRIPT",
    "RunInputs",
    "RunReport",
    "ScriptError",
    "StepRecord",
    "parse",
    "resolve",
    "run_batch",
    "run_protocol",
    "serialize",
]
