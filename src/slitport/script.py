"""Line-oriented protocol scripts: parse, validate, canonically serialize.

One command per line, ``#`` comments, whitespace-separated tokens.
``SYNTAX`` holds each keyword's usage line; the parser, the serializer and
the message for a malformed line all read it.

Angles admit exact symbolic forms (``pi``, ``pi/8``).  NUM, INT and ANGLE
slots also accept ``$name`` references to the run parameters (alpha,
truncation, gt, cb, cc) so one script serves sweeps and command-line
overrides; an INT slot needs an integral one, an ANGLE slot a real one.
A kernel whose id names a screen propagates onto that screen's slits; any
other kernel must have a single row and lands on a detector point named by
the kernel id itself.

The atom state label ``input`` prepares the lambda3 superposition
cb|b> - cc|c> carrying the amplitudes to be teleported.

Validation reports every bad command at once, one error per command, in
line order: each check raises ValueError, and the validator records the
first one a command raises at that command's line.  Validation stops at a
command that would grow the state past AMPLITUDE_BUDGET amplitudes.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, fields, replace
from functools import lru_cache

from . import protocol
from .fockspace import ATOM_LEVELS, Register
from .gates import dispersive_blocks, jc_blocks, tail_bound_dim
from .numformat import fmt_complex, fmt_real, parse_complex
from .oracle import checkpoint_registers, checkpoint_terms

# Each keyword's usage line.  A lower-case word is a literal, (a|b) a choice
# and a [...] tail optional.  NUM, INT, ANGLE and MATRIX are value slots; a
# MATRIX takes the rest of the line.  Any other upper-case word is an
# identifier.  A config line's value slot is its key's (see parse_param).
SYNTAX = {
    "config": "config key value",
    "cavity": "cavity ID alpha NUM [truncation INT]",
    "atom": f"atom ID ({'|'.join(ATOM_LEVELS)}) state LABEL",
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
# the value slots a $parameter may fill, and the type each resolves to
_SLOT_TYPES = {"NUM": complex, "INT": int, "ANGLE": float}
# each run parameter's value slot, from its type in RunInputs (a string there,
# since protocol postpones the evaluation of annotations)
_PARAM_SLOTS = {field.name: slot for field in fields(protocol.RunInputs)
                for slot, kind in _SLOT_TYPES.items() if field.type == kind.__name__}
PARAM_NAMES = tuple(_PARAM_SLOTS)
_IDENT_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*$")
AMPLITUDE_BUDGET = 2 ** 26  # 1 GiB per complex128 buffer; the reference script admits T <= 1365


class ScriptError(ValueError):
    """One or more script problems, each tagged with its line number."""

    def __init__(self, errors):
        self.errors = list(errors)
        super().__init__("\n".join(f"line {line}: {msg}" for line, msg in self.errors))


class _OverBudget(ValueError):
    """A command would grow the state past AMPLITUDE_BUDGET."""


@dataclass(frozen=True)
class ParamRef:
    name: str

    def __str__(self) -> str:
        return f"${self.name}"


@dataclass(frozen=True)
class Angle:
    """An angle literal: its canonical text ('pi', 'pi/N' or a number) and value."""

    text: str
    value: float

    def __float__(self) -> float:
        return self.value

    def __str__(self) -> str:
        return self.text


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


def _parse_int(token: str) -> int:
    if not re.match(r"^[+-]?\d+$", token):
        raise ValueError(f"not an integer: {token!r}")
    return int(token)


def _parse_angle(token: str) -> Angle:
    if token == "pi":
        return Angle("pi", math.pi)
    if token.startswith("pi/"):
        denom = token[3:]
        if not denom.isdigit() or int(denom) == 0:
            raise ValueError(f"bad angle {token!r}, expected pi/<positive int>")
        return Angle(f"pi/{int(denom)}", math.pi / int(denom))
    value = parse_complex(token)
    if value.imag != 0:
        raise ValueError(f"angle must be real, got {token!r}")
    return Angle(fmt_real(value.real), value.real)


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


_SLOTS = {"NUM": parse_complex, "INT": _parse_int, "ANGLE": _parse_angle, "MATRIX": _parse_matrix}
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
        raise ValueError(f"{name} takes a literal value and cannot reference a parameter")
    return _SLOTS[_PARAM_SLOTS[name]](token)


def _parse_slot(keyword: str, word: str, token: str):
    if word.startswith("("):
        choices = word[1:-1].split("|")
        if token not in choices:
            raise ValueError(f"expected {' or '.join(choices)}, got {token!r}")
        return token
    if token.startswith("$") and word in _SLOT_TYPES:
        if token[1:] not in PARAM_NAMES:
            raise ValueError(f"unknown parameter {token!r} (valid: {', '.join(PARAM_NAMES)})")
        return ParamRef(token[1:])
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
        if tokens[0] in PARAM_NAMES and tokens[1].startswith("$"):
            raise ValueError("config values define parameters and cannot reference them")
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


@lru_cache(maxsize=16)
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


def _resolve(value, inputs: protocol.RunInputs, what: str, kind: str):
    """A NUM, INT or ANGLE slot's value; a $parameter is read off the inputs."""
    if not isinstance(value, ParamRef):
        return _SLOT_TYPES[kind](value)
    number = complex(getattr(inputs, value.name))
    if kind == "INT" and not (number.imag == 0 and number.real.is_integer()):
        raise ValueError(f"{what}: parameter {value} is not an integer")
    if kind == "ANGLE" and number.imag != 0:
        raise ValueError(f"{what}: parameter {value} is not real")
    return _SLOT_TYPES[kind](number if kind == "NUM" else number.real)


def resolve_inputs(script: ProtocolScript, overrides: dict | None = None) -> protocol.RunInputs:
    """Effective run parameters: defaults, then config lines, then overrides."""
    flags = {key: value for key, value in (overrides or {}).items() if value is not None}
    for key in flags:
        if key not in PARAM_NAMES:
            raise ValueError(f"unknown parameter {key!r}")
    configs = {cmd.args[0]: cmd for cmd in script.commands
               if cmd.keyword == "config" and cmd.args[0] not in flags}
    try:
        return protocol.RunInputs(**{key: cmd.args[1] for key, cmd in configs.items()}, **flags)
    except ValueError as exc:
        # a check's message names the parameters it reads; report it at the
        # latest config line that set one of them and no flag overrode
        lines = [cmd.line for key, cmd in configs.items() if key in re.findall(r"\w+", str(exc))]
        if not lines:
            raise
        raise ScriptError([(max(lines), str(exc))]) from None


class _Validator:
    """Checks each command against the declarations and live registers before it."""

    def __init__(self, script: ProtocolScript, inputs: protocol.RunInputs):
        self.script = script
        self.inputs = inputs
        self.cavities: dict[str, protocol.DeclareCavity] = {}
        self.cavity_line: dict[str, int] = {}
        self.screens: dict[str, tuple[str, str]] = {}  # screen -> its slits
        self.bindings: dict[str, str] = {}  # slit -> cavity
        self.kernels: dict[str, protocol.Kernel] = {}
        self.atom_kind: dict[str, str] = {}
        # the runner's register list at this point of the script, by name
        self.live: dict[str, Register] = {}
        self.slit_owner: dict[str, str] = {}
        self.seen_config: set[str] = set()
        self.terms_built = False  # the first checkpoint's cached parts
        self.instructions: list[protocol.Instruction] = []

    def _checks(self):
        """(line, check, argument): each command, then each cavity's tail bound."""
        for cmd in self.script.commands:
            yield cmd.line, getattr(self, f"_cmd_{cmd.keyword}"), cmd
        # the tail bound needs every injection into the cavity
        for name, line in self.cavity_line.items():
            yield line, self._tail_bound, name

    def run(self) -> ResolvedRun:
        errors: list[tuple[int, str]] = []
        for line, check, arg in self._checks():
            try:
                ins = check(arg)
                if ins is not None:  # a command lowered to a step, named by its line
                    self.instructions.append(replace(ins, text=serialize_command(arg)))
                self._budget()
            except ValueError as exc:
                errors.append((line, str(exc)))
                if isinstance(exc, _OverBudget):
                    break  # later checks would build gates and references of that size
        if errors:
            # the tail bounds are checked last; report in line order
            raise ScriptError(sorted(errors, key=lambda error: error[0]))
        return ResolvedRun(tuple(self.instructions), self.inputs)

    def _budget(self, factor: int = 1) -> None:
        """Refuse a state of the live registers, times a register about to join."""
        size = math.prod(r.dim for r in self.live.values()) * factor
        if size > AMPLITUDE_BUDGET:
            count = fmt_real(size) if size < 1e300 else "over 1e300"
            raise _OverBudget(f"the state would hold {count} amplitudes, "
                              f"above the budget of {AMPLITUDE_BUDGET}")

    def _fresh(self, name: str) -> None:
        for table, kind in ((self.cavities, "a cavity"), (self.screens, "a screen"),
                            (self.atom_kind, "an atom"), (self.live, "a live register")):
            if name in table:
                raise ValueError(f"{name!r} is already declared as {kind}")

    def _declared(self, table: dict, what: str, name: str):
        """A declared name's entry in its table: a cavity, screen, atom or kernel."""
        if name not in table:
            raise ValueError(f"{what} {name!r} is not declared")
        return table[name]

    def _path(self, atom: str, message: str, labels: tuple | None = None) -> Register:
        """The live path-kind register named path_name(atom), with ``labels`` if given."""
        path = self.live.get(protocol.path_name(atom))
        if path is None or path.kind != "path" or labels not in (None, path.labels):
            raise ValueError(message)
        return path

    def _live(self, atom: str) -> None:
        if atom not in self.live:
            raise ValueError(f"atom {atom}: internal state was already detected")

    def _cmd_config(self, cmd: Command) -> None:
        key = cmd.args[0]
        if key in self.seen_config:
            raise ValueError(f"config {key} given twice")
        self.seen_config.add(key)

    def _cmd_cavity(self, cmd: Command) -> protocol.DeclareCavity:
        name, alpha_arg, trunc_arg = cmd.args
        self._fresh(name)
        alpha = _resolve(alpha_arg, self.inputs, f"cavity {name}", "NUM")
        trunc = (self.inputs.truncation if trunc_arg is None
                 else _resolve(trunc_arg, self.inputs, f"cavity {name}", "INT"))
        if trunc < 2:
            raise ValueError(f"cavity {name}: truncation must be at least 2")
        self._budget(trunc)
        spec = self.cavities[name] = protocol.DeclareCavity(name, alpha, trunc)
        self.live[name] = Register.mode(name, trunc)
        self.cavity_line[name] = cmd.line
        return spec

    def _cmd_atom(self, cmd: Command) -> protocol.DeclareAtom:
        name, kind, state = cmd.args
        self._fresh(name)
        valid = ATOM_LEVELS[kind] + (("input",) if kind == "lambda3" else ())
        if state not in valid:
            raise ValueError(f"atom {name}: unknown label {state!r} (valid: {', '.join(valid)})")
        self.atom_kind[name] = kind
        self.live[name] = Register(name, kind, ATOM_LEVELS[kind])
        return protocol.DeclareAtom(name, kind, state)

    def _cmd_screen(self, cmd: Command) -> None:
        name, s1, s2 = cmd.args
        self._fresh(name)
        for slit in (s1, s2):
            if slit in self.slit_owner:
                raise ValueError(f"slit label {slit!r} is already used by screen "
                                 f"{self.slit_owner[slit]}")
        self.screens[name] = (s1, s2)
        self.slit_owner[s1] = self.slit_owner[s2] = name

    def _cmd_bind(self, cmd: Command) -> None:
        slit, cavity = cmd.args
        if slit not in self.slit_owner:
            raise ValueError(f"slit {slit!r} is not declared by any screen")
        self._declared(self.cavities, "cavity", cavity)
        if slit in self.bindings:
            raise ValueError(f"slit {slit} is already bound to {self.bindings[slit]}")
        self.bindings[slit] = cavity

    def _cmd_kernel(self, cmd: Command) -> None:
        name, rows = cmd.args
        if name in self.kernels:
            raise ValueError(f"kernel {name!r} is already declared")
        if name not in self.screens and len(rows) != 1:
            raise ValueError(f"kernel {name}: no screen named {name}, so the matrix must "
                             "have a single detector row")
        targets = self.screens.get(name, (name,))
        if len(rows) != len(targets):
            raise ValueError(f"kernel {name}: screen {name} has {len(targets)} slits but the "
                             f"matrix has {len(rows)} rows")
        self.kernels[name] = protocol.Kernel(targets, rows)

    def _cmd_split(self, cmd: Command) -> protocol.Split:
        atom, screen = cmd.args
        self._declared(self.atom_kind, "atom", atom)
        slits = self._declared(self.screens, "screen", screen)
        path = protocol.split_register(self.live.values(), atom, slits)
        self.live[path.name] = path
        return protocol.Split(atom, path.labels)

    def _cmd_pass(self, cmd: Command) -> protocol.CavityPass:
        atom, screen, phi = cmd.args
        if self._declared(self.atom_kind, "atom", atom) != "lambda3":
            raise ValueError(f"atom {atom} must be lambda3 to pass through cavities")
        self._live(atom)
        slits = self._declared(self.screens, "screen", screen)
        self._path(atom, f"atom {atom} is not at screen {screen}'s slits", slits)
        for slit in slits:
            if slit not in self.bindings:
                raise ValueError(f"slit {slit} has no cavity")
        bindings = tuple((slit, self.bindings[slit]) for slit in slits)
        if bindings[0][1] == bindings[1][1]:
            raise ValueError(f"screen {screen}: both slits bind the same cavity")
        phi = _resolve(phi, self.inputs, f"pass {atom}", "ANGLE")
        for _, cavity in bindings:
            dispersive_blocks(phi, self.cavities[cavity].truncation)  # cached for the run
        return protocol.CavityPass(atom, bindings, phi)

    def _cmd_detect(self, cmd: Command) -> protocol.Detect:
        atom, which, label = cmd.args
        kind = self._declared(self.atom_kind, "atom", atom)
        if which == "internal":
            self._live(atom)
            valid = ATOM_LEVELS[kind]
            if label not in valid:
                raise ValueError(f"unknown label {label!r} (valid: {', '.join(valid)})")
            del self.live[atom]
        else:
            path = self._path(atom, f"atom {atom} has no path register to detect")
            if label not in path.labels:
                raise ValueError(f"label {label!r} is not in {atom}'s current basis "
                                 f"({', '.join(path.labels)})")
            del self.live[path.name]
        return protocol.Detect(atom, which, label)

    def _cmd_propagate(self, cmd: Command) -> protocol.Propagate:
        atom, kernel = cmd.args
        self._declared(self.atom_kind, "atom", atom)
        spec = self._declared(self.kernels, "kernel", kernel)
        path = self._path(atom, f"atom {atom} has no path register to propagate")
        if spec.matrix.shape[1] != path.dim:
            raise ValueError(f"kernel {kernel} has {spec.matrix.shape[1]} columns but "
                             f"{atom}'s basis has {path.dim} labels")
        self.live[path.name] = Register.path(path.name, spec.target_labels)
        return protocol.Propagate(atom, spec)

    def _cmd_inject(self, cmd: Command) -> protocol.Inject:
        cavity, beta_arg = cmd.args
        truncation = self._declared(self.cavities, "cavity", cavity).truncation
        if truncation ** 2 > AMPLITUDE_BUDGET:  # the run builds a T x T displacement
            raise ValueError(f"inject {cavity}: the displacement would hold {truncation ** 2} "
                             f"amplitudes, above the budget of {AMPLITUDE_BUDGET}")
        return protocol.Inject(cavity, _resolve(beta_arg, self.inputs, f"inject {cavity}", "NUM"))

    def _cmd_jcpass(self, cmd: Command) -> protocol.JcPass:
        atom, cavity, gt = cmd.args
        if self._declared(self.atom_kind, "atom", atom) != "qubit2":
            raise ValueError(f"atom {atom} must be qubit2 for a resonant pass")
        self._live(atom)
        truncation = self._declared(self.cavities, "cavity", cavity).truncation
        gt = _resolve(gt, self.inputs, f"jcpass {atom}", "ANGLE")
        jc_blocks(gt, truncation)  # cached for the run
        return protocol.JcPass(atom, cavity, gt)

    def _cmd_checkpoint(self, cmd: Command) -> protocol.Checkpoint:
        """Check a checkpoint by building it, as the run will."""
        name = cmd.args[0]
        registers = checkpoint_registers(name, self.inputs.truncation)
        missing = [r.name for r in registers if r.name not in self.live]
        if missing:
            raise ValueError(f"checkpoint {name}: registers {', '.join(missing)} are not live")
        changed = [f"{r.name} is {_describe(self.live[r.name])}, not {_describe(r)}"
                   for r in registers if self.live[r.name] != r]
        if changed:
            raise ValueError(f"checkpoint {name}: register {'; '.join(changed)}")
        if not self.terms_built:  # every later checkpoint shares the parts this one builds
            self.terms_built = True
            try:
                checkpoint_terms(name, **vars(self.inputs))
            except ValueError as exc:
                raise ValueError(f"checkpoint {name}: {exc}") from None
        return protocol.Checkpoint(name)

    def _tail_bound(self, name: str) -> None:
        spec = self.cavities[name]
        reach = abs(spec.alpha) + sum(abs(ins.beta) for ins in self.instructions  # in run order
                                      if isinstance(ins, protocol.Inject) and ins.cavity == name)
        needed = tail_bound_dim(reach)
        if spec.truncation < needed:
            raise ValueError(f"cavity {name}: truncation {spec.truncation} is below the tail "
                             f"bound {fmt_real(needed)} for amplitude reach {fmt_real(reach)}")


def _describe(register: Register) -> str:
    labels = f"{register.dim} levels" if register.kind == "mode" else ", ".join(register.labels)
    return f"{register.kind} ({labels})"


@lru_cache(maxsize=16)
def _lowering(script: ProtocolScript, inputs: protocol.RunInputs) -> tuple:
    return _Validator(script, inputs).run().instructions


def resolve(script: ProtocolScript, overrides: dict | None = None) -> ResolvedRun:
    """Validate and lower a parsed script, caching a lowering by the parameters it reads."""
    inputs = resolve_inputs(script, overrides)
    reads = any(isinstance(arg, ParamRef) and arg.name in ("cb", "cc")
                for cmd in script.commands for arg in cmd.args)
    key = inputs if reads else replace(inputs, cb=1.0, cc=0.0)
    return ResolvedRun(_lowering(script, key), inputs)
