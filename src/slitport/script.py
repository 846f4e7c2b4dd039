"""Line-oriented protocol scripts: parse, validate, canonically serialize.

One command per line, ``#`` comments, whitespace-separated tokens.
``SYNTAX`` holds each keyword's usage line; the parser, the serializer and
the message for a malformed line all read it.

Angles admit exact symbolic forms (``pi``, ``pi/8``).  Number slots also
accept ``$name`` references to the run parameters (alpha, truncation, gt,
cb, cc) so one script serves sweeps and command-line overrides.  A kernel
whose id names a screen propagates onto that screen's slits; any other
kernel must have a single row and lands on a detector point named by the
kernel id itself.

The atom state label ``input`` prepares the lambda3 superposition
cb|b> - cc|c> carrying the amplitudes to be teleported.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, fields

from . import protocol
from .gates import tail_bound_dim
from .numformat import fmt_complex, fmt_real, parse_complex
from .oracle import CHECKPOINTS

# Each keyword's usage line.  A lower-case word is a literal, (a|b) a choice
# and a [...] tail optional.  NUM, INT, ANGLE and MATRIX are value slots; a
# MATRIX takes the rest of the line.  Any other upper-case word is an
# identifier.  A config line's value slot is its key's (see parse_param).
SYNTAX = {
    "config": "config key value",
    "cavity": "cavity ID alpha NUM [truncation INT]",
    "atom": "atom ID (lambda3|qubit2) state LABEL",
    "screen": "screen ID SLIT1 SLIT2",
    "bind": "bind SLIT CAVITY",
    "kernel": "kernel ID MATRIX",
    "split": "split ATOM SCREEN",
    "pass": "pass ATOM SCREEN phi ANGLE",
    "detect": "detect ATOM (internal|position) LABEL",
    "propagate": "propagate ATOM KERNEL",
    "inject": "inject CAVITY NUM",
    "jcpass": "jcpass ATOM CAVITY gt ANGLE",
    "checkpoint": "checkpoint NAME",
}
KEYWORDS = tuple(SYNTAX)
# each run parameter's value slot, from its type in RunInputs (a string there,
# since protocol postpones the evaluation of annotations)
_PARAM_SLOTS = {field.name: {"complex": "NUM", "int": "INT", "float": "ANGLE"}[field.type]
                for field in fields(protocol.RunInputs)}
PARAM_NAMES = tuple(_PARAM_SLOTS)
_IDENT_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*$")


class ScriptError(ValueError):
    """One or more script problems, each tagged with its line number."""

    def __init__(self, errors):
        self.errors = list(errors)
        super().__init__("\n".join(f"line {line}: {msg}" for line, msg in self.errors))


@dataclass(frozen=True)
class ParamRef:
    name: str

    def __str__(self) -> str:
        return f"${self.name}"


@dataclass(frozen=True)
class Angle:
    """An angle literal: plain number, 'pi', 'pi/N', or a $parameter."""

    kind: str  # value | pi | pifrac | param
    value: float | int | str = 0.0

    def resolve(self, params: dict) -> float:
        if self.kind == "value":
            return float(self.value)
        if self.kind == "pi":
            return math.pi
        if self.kind == "pifrac":
            return math.pi / int(self.value)
        return float(_resolve_number(ParamRef(str(self.value)), params).real)

    def __float__(self) -> float:
        """A literal angle's value; config lines and flags give no $parameter."""
        return self.resolve({})

    def __str__(self) -> str:
        if self.kind == "value":
            return fmt_real(float(self.value))
        if self.kind == "pi":
            return "pi"
        if self.kind == "pifrac":
            return f"pi/{int(self.value)}"
        return f"${self.value}"


@dataclass(frozen=True)
class Command:
    line: int
    keyword: str
    args: tuple


@dataclass(frozen=True)
class ProtocolScript:
    commands: tuple[Command, ...]


@dataclass(frozen=True)
class ResolvedRun:
    """A validated script lowered to engine structures."""

    instructions: tuple
    inputs: protocol.RunInputs


# ---------------------------------------------------------------------------
# parsing


def _parse_number(token: str):
    if token.startswith("$"):
        name = token[1:]
        if name not in PARAM_NAMES:
            raise ValueError(f"unknown parameter {token!r} (valid: {', '.join(PARAM_NAMES)})")
        return ParamRef(name)
    return parse_complex(token)


def _parse_int(token: str):
    if token.startswith("$"):
        return _parse_number(token)
    if not re.match(r"^[+-]?\d+$", token):
        raise ValueError(f"not an integer: {token!r}")
    return int(token)


def _parse_angle(token: str) -> Angle:
    if token == "pi":
        return Angle("pi")
    if token.startswith("pi/"):
        denom = token[3:]
        if not denom.isdigit() or int(denom) == 0:
            raise ValueError(f"bad angle {token!r}, expected pi/<positive int>")
        return Angle("pifrac", int(denom))
    if token.startswith("$"):
        ref = _parse_number(token)
        return Angle("param", ref.name)
    value = parse_complex(token)
    if value.imag != 0:
        raise ValueError(f"angle must be real, got {token!r}")
    return Angle("value", value.real)


def _parse_matrix(text: str) -> tuple:
    text = text.strip()
    if not text.startswith("[") or not text.endswith("]"):
        raise ValueError("matrix literal must be bracketed, like [1 0; 0 1]")
    rows = []
    width = None
    for row_text in text[1:-1].split(";"):
        entries = tuple(parse_complex(tok) for tok in row_text.split())
        if not entries:
            raise ValueError("matrix row is empty")
        if width is None:
            width = len(entries)
        elif len(entries) != width:
            raise ValueError("matrix rows have unequal lengths")
        rows.append(entries)
    return tuple(rows)


_SLOTS = {"NUM": _parse_number, "INT": _parse_int, "ANGLE": _parse_angle, "MATRIX": _parse_matrix}
# how a message names an identifier slot
_IDENT_ROLES = {"ID": "{keyword} id", "NAME": "{keyword} name", "SLIT": "slit label",
                "LABEL": "label"}


def _grammar(usage: str) -> tuple[list[str], list[str]]:
    """A usage line's words after the keyword: the required ones, then all."""
    head, _, tail = usage.partition("[")
    required = head.split()[1:]
    return required, required + tail.rstrip("]").split()


_GRAMMAR = {keyword: _grammar(usage) for keyword, usage in SYNTAX.items()}
_LITERALS = {word for _, words in _GRAMMAR.values() for word in words
             if word.isalpha() and word.islower()}


def parse_param(name: str, token: str):
    """Run parameter ``name``'s value as a config line or command-line flag gives it."""
    if name not in PARAM_NAMES:
        raise ValueError(f"unknown config key {name!r} (valid: {', '.join(PARAM_NAMES)})")
    if token.startswith("$"):
        raise ValueError("config values define parameters and cannot reference them")
    return _SLOTS[_PARAM_SLOTS[name]](token)


def _parse_slot(keyword: str, word: str, token: str):
    if word.startswith("("):
        choices = word[1:-1].split("|")
        if token not in choices:
            raise ValueError(f"expected {' or '.join(choices)}, got {token!r}")
        return token
    if word in _SLOTS:
        return _SLOTS[word](token)
    if not _IDENT_RE.match(token):
        role = _IDENT_ROLES.get(word.rstrip("0123456789"), word.lower() + " id")
        raise ValueError(f"bad {role.format(keyword=keyword)} {token!r}")
    return token


def _parse_args(keyword: str, tokens: list[str]) -> tuple:
    usage = SYNTAX[keyword]
    if keyword == "config":
        if len(tokens) != 2:
            raise ValueError(f"expected '{usage}'")
        return (tokens[0], parse_param(*tokens))
    required, words = _GRAMMAR[keyword]
    if words[-1] == "MATRIX" and len(tokens) > len(words):
        tokens = tokens[:len(words) - 1] + [" ".join(tokens[len(words) - 1:])]
    if len(tokens) not in (len(required), len(words)) or any(
            word in _LITERALS and word != token for word, token in zip(words, tokens)):
        raise ValueError(f"expected '{usage}'")
    args = [_parse_slot(keyword, word, token)
            for word, token in zip(words, tokens) if word not in _LITERALS]
    # an absent optional tail leaves its values None
    args += [None for word in words[len(tokens):] if word not in _LITERALS]
    if keyword == "screen" and args[1] == args[2]:
        raise ValueError("screen slits must have distinct labels")
    return tuple(args)


def parse_lenient(text: str) -> tuple[ProtocolScript, list[tuple[int, str]]]:
    """Parse every line, collecting (line, message) for each malformed one.

    A bad line never swallows the lines after it.
    """
    commands: list[Command] = []
    errors: list[tuple[int, str]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        tokens = raw.split("#", 1)[0].split()
        if not tokens:
            continue
        keyword = tokens[0]
        try:
            if keyword not in KEYWORDS:
                raise ValueError(f"unknown command {keyword!r}")
            commands.append(Command(lineno, keyword, _parse_args(keyword, tokens[1:])))
        except ValueError as exc:
            errors.append((lineno, str(exc)))
    return ProtocolScript(tuple(commands)), errors


def parse(text: str) -> ProtocolScript:
    """Parse script text; raises ScriptError listing every malformed line."""
    parsed, errors = parse_lenient(text)
    if errors:
        raise ScriptError(errors)
    return parsed


# ---------------------------------------------------------------------------
# serialization


def _render(value) -> str:
    if isinstance(value, tuple):  # a matrix
        return "[" + "; ".join(" ".join(map(fmt_complex, row)) for row in value) + "]"
    if isinstance(value, complex):
        return fmt_complex(value)
    return str(value)


def serialize_command(cmd: Command) -> str:
    if cmd.keyword == "config":
        return f"config {cmd.args[0]} {_render(cmd.args[1])}"
    required, words = _GRAMMAR[cmd.keyword]
    if cmd.args[-1] is None:  # no optional tail
        words = required
    args = iter(cmd.args)
    return " ".join([cmd.keyword] + [word if word in _LITERALS else _render(next(args))
                                     for word in words])


def serialize(script: ProtocolScript) -> str:
    """Canonical text: one command per line, 17-digit numbers, symbolic pi."""
    if not script.commands:
        return ""
    return "\n".join(serialize_command(c) for c in script.commands) + "\n"


# ---------------------------------------------------------------------------
# validation and lowering


def _resolve_number(value, params: dict) -> complex:
    if isinstance(value, ParamRef):
        return complex(params[value.name])
    return complex(value)


def _resolve_int(value, params: dict, what: str) -> int:
    if not isinstance(value, ParamRef):
        return int(value)
    resolved = _resolve_number(value, params)
    if resolved.imag != 0 or not resolved.real.is_integer():
        raise ValueError(f"{what}: parameter ${value.name} is not an integer")
    return int(resolved.real)


def resolve_inputs(script: ProtocolScript, overrides: dict | None = None) -> protocol.RunInputs:
    """Effective run parameters: defaults, then config lines, then overrides."""
    values = dict(cmd.args for cmd in script.commands if cmd.keyword == "config")
    for key, value in (overrides or {}).items():
        if value is None:
            continue
        if key not in PARAM_NAMES:
            raise ValueError(f"unknown parameter {key!r}")
        values[key] = value
    return protocol.RunInputs(**values)


class _Validator:
    def __init__(self, script: ProtocolScript, inputs: protocol.RunInputs):
        self.script = script
        self.inputs = inputs
        self.params = inputs.to_dict()
        self.errors: list[tuple[int, str]] = []
        self.cavities: dict[str, protocol.DeclareCavity] = {}
        self.cavity_line: dict[str, int] = {}
        self.screens: dict[str, tuple[str, str]] = {}  # screen -> its slits
        self.bindings: dict[str, str] = {}  # slit -> cavity
        self.kernels: dict[str, protocol.Kernel] = {}
        self.atom_kind: dict[str, str] = {}
        self.internal_live: dict[str, bool] = {}
        self.path_basis: dict[str, tuple[str, ...] | None] = {}
        self.slit_owner: dict[str, str] = {}
        self.injections: dict[str, float] = {}
        self.seen_config: set[str] = set()
        self.instructions: list = []

    def fail(self, line: int, msg: str) -> None:
        self.errors.append((line, msg))

    def run(self) -> ResolvedRun:
        for cmd in self.script.commands:
            handler = getattr(self, f"_cmd_{cmd.keyword}")
            try:
                handler(cmd)
            except (ValueError, KeyError) as exc:
                self.fail(cmd.line, str(exc))
        self._check_truncations()
        if self.errors:
            raise ScriptError(self.errors)
        return ResolvedRun(tuple(self.instructions), self.inputs)

    def _fresh(self, line: int, name: str) -> bool:
        for table, kind in ((self.cavities, "cavity"), (self.screens, "screen"),
                            (self.atom_kind, "atom")):
            if name in table:
                self.fail(line, f"{name!r} is already declared as a {kind}")
                return False
        return True

    def _cmd_config(self, cmd: Command) -> None:
        key = cmd.args[0]
        if key in self.seen_config:
            self.fail(cmd.line, f"config {key} given twice")
        self.seen_config.add(key)

    def _cmd_cavity(self, cmd: Command) -> None:
        name, alpha_arg, trunc_arg = cmd.args
        if not self._fresh(cmd.line, name):
            return
        alpha = _resolve_number(alpha_arg, self.params)
        trunc = (self.inputs.truncation if trunc_arg is None
                 else _resolve_int(trunc_arg, self.params, f"cavity {name}"))
        if trunc < 2:
            self.fail(cmd.line, f"cavity {name}: truncation must be at least 2")
            return
        self.cavities[name] = protocol.DeclareCavity(name, alpha, trunc,
                                                     text=serialize_command(cmd))
        self.cavity_line[name] = cmd.line
        self.injections[name] = 0.0
        self.instructions.append(self.cavities[name])

    def _cmd_atom(self, cmd: Command) -> None:
        name, kind, state = cmd.args
        if not self._fresh(cmd.line, name):
            return
        valid = ("a", "b", "c", "input") if kind == "lambda3" else ("f", "e")
        if state not in valid:
            self.fail(cmd.line, f"atom {name}: unknown label {state!r} "
                                f"(valid: {', '.join(valid)})")
            return
        self.atom_kind[name] = kind
        self.internal_live[name] = True
        self.path_basis[name] = None
        self.instructions.append(protocol.DeclareAtom(name, kind, state,
                                                      text=serialize_command(cmd)))

    def _cmd_screen(self, cmd: Command) -> None:
        name, s1, s2 = cmd.args
        if not self._fresh(cmd.line, name):
            return
        for slit in (s1, s2):
            if slit in self.slit_owner:
                self.fail(cmd.line, f"slit label {slit!r} is already used by screen "
                                    f"{self.slit_owner[slit]}")
                return
        self.screens[name] = (s1, s2)
        self.slit_owner[s1] = name
        self.slit_owner[s2] = name

    def _cmd_bind(self, cmd: Command) -> None:
        slit, cavity = cmd.args
        if slit not in self.slit_owner:
            self.fail(cmd.line, f"slit {slit!r} is not declared by any screen")
            return
        if cavity not in self.cavities:
            self.fail(cmd.line, f"cavity {cavity!r} is not declared")
            return
        if slit in self.bindings:
            self.fail(cmd.line, f"slit {slit} is already bound to {self.bindings[slit]}")
            return
        self.bindings[slit] = cavity

    def _cmd_kernel(self, cmd: Command) -> None:
        name, rows = cmd.args
        if name in self.kernels:
            self.fail(cmd.line, f"kernel {name!r} is already declared")
            return
        if name in self.screens:
            targets = self.screens[name]
            if len(rows) != len(targets):
                self.fail(cmd.line, f"kernel {name}: screen {name} has {len(targets)} slits "
                                    f"but the matrix has {len(rows)} rows")
                return
        else:
            if len(rows) != 1:
                self.fail(cmd.line, f"kernel {name}: no screen named {name}, so the matrix "
                                    "must have a single detector row")
                return
            targets = (name,)
        self.kernels[name] = protocol.Kernel(targets, rows)

    def _atom_ready(self, line: int, atom: str) -> bool:
        if atom not in self.atom_kind:
            self.fail(line, f"atom {atom!r} is not declared")
            return False
        return True

    def _cmd_split(self, cmd: Command) -> None:
        atom, screen = cmd.args
        if not self._atom_ready(cmd.line, atom):
            return
        if screen not in self.screens:
            self.fail(cmd.line, f"screen {screen!r} is not declared")
            return
        if self.path_basis.get(atom) is not None:
            self.fail(cmd.line, f"atom {atom} is already split")
            return
        self.path_basis[atom] = self.screens[screen]
        self.instructions.append(protocol.Split(atom, self.screens[screen],
                                                text=serialize_command(cmd)))

    def _cmd_pass(self, cmd: Command) -> None:
        atom, screen, phi = cmd.args
        if not self._atom_ready(cmd.line, atom):
            return
        if self.atom_kind[atom] != "lambda3":
            self.fail(cmd.line, f"atom {atom} must be lambda3 to pass through cavities")
            return
        if not self.internal_live.get(atom):
            self.fail(cmd.line, f"atom {atom}: internal state was already detected")
            return
        if screen not in self.screens:
            self.fail(cmd.line, f"screen {screen!r} is not declared")
            return
        slits = self.screens[screen]
        if self.path_basis.get(atom) != slits:
            self.fail(cmd.line, f"atom {atom} is not at screen {screen}'s slits")
            return
        for slit in slits:
            if slit not in self.bindings:
                self.fail(cmd.line, f"slit {slit} has no cavity")
                return
        bindings = tuple((slit, self.bindings[slit]) for slit in slits)
        if bindings[0][1] == bindings[1][1]:
            self.fail(cmd.line, f"screen {screen}: both slits bind the same cavity")
            return
        self.instructions.append(
            protocol.CavityPass(atom, bindings, phi.resolve(self.params),
                                text=serialize_command(cmd))
        )

    def _cmd_detect(self, cmd: Command) -> None:
        atom, which, label = cmd.args
        if not self._atom_ready(cmd.line, atom):
            return
        if which == "internal":
            if not self.internal_live.get(atom):
                self.fail(cmd.line, f"atom {atom}: internal state was already detected")
                return
            valid = ("a", "b", "c") if self.atom_kind[atom] == "lambda3" else ("f", "e")
            if label not in valid:
                self.fail(cmd.line, f"unknown label {label!r} (valid: {', '.join(valid)})")
                return
            self.internal_live[atom] = False
        else:
            basis = self.path_basis.get(atom)
            if basis is None:
                self.fail(cmd.line, f"atom {atom} has no path register to detect")
                return
            if label not in basis:
                self.fail(cmd.line, f"label {label!r} is not in {atom}'s current basis "
                                    f"({', '.join(basis)})")
                return
            self.path_basis[atom] = None
        self.instructions.append(protocol.Detect(atom, which, label, text=serialize_command(cmd)))

    def _cmd_propagate(self, cmd: Command) -> None:
        atom, kernel = cmd.args
        if not self._atom_ready(cmd.line, atom):
            return
        if kernel not in self.kernels:
            self.fail(cmd.line, f"kernel {kernel!r} is not declared")
            return
        basis = self.path_basis.get(atom)
        if basis is None:
            self.fail(cmd.line, f"atom {atom} has no path register to propagate")
            return
        spec = self.kernels[kernel]
        if spec.matrix.shape[1] != len(basis):
            self.fail(cmd.line, f"kernel {kernel} has {spec.matrix.shape[1]} columns but "
                                f"{atom}'s basis has {len(basis)} labels")
            return
        self.path_basis[atom] = spec.target_labels
        self.instructions.append(protocol.Propagate(atom, spec, text=serialize_command(cmd)))

    def _cmd_inject(self, cmd: Command) -> None:
        cavity, beta_arg = cmd.args
        if cavity not in self.cavities:
            self.fail(cmd.line, f"cavity {cavity!r} is not declared")
            return
        beta = _resolve_number(beta_arg, self.params)
        self.injections[cavity] += abs(beta)
        self.instructions.append(protocol.Inject(cavity, beta, text=serialize_command(cmd)))

    def _cmd_jcpass(self, cmd: Command) -> None:
        atom, cavity, gt = cmd.args
        if not self._atom_ready(cmd.line, atom):
            return
        if self.atom_kind[atom] != "qubit2":
            self.fail(cmd.line, f"atom {atom} must be qubit2 for a resonant pass")
            return
        if not self.internal_live.get(atom):
            self.fail(cmd.line, f"atom {atom}: internal state was already detected")
            return
        if cavity not in self.cavities:
            self.fail(cmd.line, f"cavity {cavity!r} is not declared")
            return
        self.instructions.append(
            protocol.JcPass(atom, cavity, gt.resolve(self.params), text=serialize_command(cmd))
        )

    def _cmd_checkpoint(self, cmd: Command) -> None:
        name = cmd.args[0]
        if name not in CHECKPOINTS:
            self.fail(cmd.line, f"unknown checkpoint {name!r}")
            return
        first = not any(isinstance(i, protocol.Checkpoint) for i in self.instructions)
        self.instructions.append(protocol.Checkpoint(name, text=serialize_command(cmd)))
        if self.inputs.alpha == 0 and first:
            self.fail(cmd.line, f"checkpoint {name}: alpha is 0, so the odd cat "
                                "|alpha> - |-alpha> vanishes and the cavities cannot record "
                                "a slit; checkpoints need a nonzero alpha")

    def _check_truncations(self) -> None:
        for name, spec in self.cavities.items():
            reach = abs(spec.alpha) + self.injections[name]
            needed = tail_bound_dim(reach)
            if spec.truncation < needed:
                self.fail(self.cavity_line[name],
                          f"cavity {name}: truncation {spec.truncation} is below the tail "
                          f"bound {needed} for amplitude reach {fmt_real(reach)}")


def resolve(script: ProtocolScript, overrides: dict | None = None) -> ResolvedRun:
    """Validate and lower a parsed script against effective run parameters."""
    inputs = resolve_inputs(script, overrides)
    return _Validator(script, inputs).run()
