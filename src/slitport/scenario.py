"""The built-in reference scenario, read from the packaged ``paper.qprot``.

Four three-level atoms cross a double slit with a cavity behind each
slit; post-selected detections teleport the third atom's input
amplitudes onto the fourth atom's path state, and two probe atoms
disentangle the cavities at the end.  ``scenarios/paper.qprot`` links to
the same file.

Parameters appear as $references, so command-line overrides and sweeps
apply to every declaration at once.
"""

from importlib.resources import files

REFERENCE_SCRIPT = files(__package__).joinpath("paper.qprot").read_text(encoding="utf-8")
