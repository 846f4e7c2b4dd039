"""Line-oriented protocol scripts: parse, validate, canonically serialize.

One command per line, ``#`` comments, whitespace-separated tokens:

    config    key value                      # run-parameter default
    cavity    ID alpha NUM [truncation INT]  # field mode in a coherent state
    atom      ID (lambda3|qubit2) state LABEL
    screen    ID SLIT1 SLIT2
    bind      SLIT CAVITY
    kernel    ID [Z Z; Z Z]                  # propagation amplitudes, rows=targets
    split     ATOM SCREEN
    pass      ATOM SCREEN phi ANGLE
    detect    ATOM (internal|position) LABEL
    propagate ATOM KERNEL
    inject    CAVITY NUM
    jcpass    ATOM CAVITY gt ANGLE
    checkpoint NAME

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
from dataclasses import dataclass

from . import protocol
from .gates import tail_bound_dim
from .numformat import fmt_complex, fmt_real, parse_complex
from .oracle import CHECKPOINTS

PARAM_NAMES = ("cb", "cc", "alpha", "truncation", "gt")
KEYWORDS = (
    "config", "cavity", "atom", "screen", "bind", "kernel",
    "split", "pass", "detect", "propagate", "inject", "jcpass", "checkpoint",
)
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

    def render(self) -> str:
        return serialize_command(self)


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


def _parse_ident(token: str, what: str) -> str:
    if not _IDENT_RE.match(token):
        raise ValueError(f"bad {what} {token!r}")
    return token


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


def _split_line(raw: str) -> list[str]:
    return raw.split("#", 1)[0].split()


def parse_lenient(text: str) -> tuple[ProtocolScript, list[tuple[int, str]]]:
    """Parse every line, collecting (line, message) for each malformed one.

    A bad line never swallows the lines after it.
    """
    commands: list[Command] = []
    errors: list[tuple[int, str]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        tokens = _split_line(raw)
        if not tokens:
            continue
        keyword = tokens[0]
        try:
            if keyword not in KEYWORDS:
                raise ValueError(f"unknown command {keyword!r}")
            args = _parse_args(keyword, tokens[1:], raw)
            commands.append(Command(lineno, keyword, args))
        except ValueError as exc:
            errors.append((lineno, str(exc)))
    return ProtocolScript(tuple(commands)), errors


def parse(text: str) -> ProtocolScript:
    """Parse script text; raises ScriptError listing every malformed line."""
    parsed, errors = parse_lenient(text)
    if errors:
        raise ScriptError(errors)
    return parsed


def _expect(tokens: list[str], count: int, usage: str) -> None:
    if len(tokens) != count:
        raise ValueError(f"expected '{usage}'")


def _parse_args(keyword: str, tokens: list[str], raw: str) -> tuple:
    if keyword == "config":
        _expect(tokens, 2, "config key value")
        key = tokens[0]
        if key not in PARAM_NAMES:
            raise ValueError(f"unknown config key {key!r} (valid: {', '.join(PARAM_NAMES)})")
        if tokens[1].startswith("$"):
            raise ValueError("config values define parameters and cannot reference them")
        if key == "truncation":
            return (key, _parse_int(tokens[1]))
        if key == "gt":
            return (key, _parse_angle(tokens[1]))
        return (key, parse_complex(tokens[1]))
    if keyword == "cavity":
        if len(tokens) == 3 and tokens[1] == "alpha":
            return (_parse_ident(tokens[0], "cavity id"), _parse_number(tokens[2]), None)
        if len(tokens) == 5 and tokens[1] == "alpha" and tokens[3] == "truncation":
            return (_parse_ident(tokens[0], "cavity id"), _parse_number(tokens[2]),
                    _parse_int(tokens[4]))
        raise ValueError("expected 'cavity ID alpha NUM [truncation INT]'")
    if keyword == "atom":
        _expect(tokens, 4, "atom ID (lambda3|qubit2) state LABEL")
        if tokens[1] not in ("lambda3", "qubit2"):
            raise ValueError(f"atom kind must be lambda3 or qubit2, got {tokens[1]!r}")
        if tokens[2] != "state":
            raise ValueError("expected 'atom ID (lambda3|qubit2) state LABEL'")
        return (_parse_ident(tokens[0], "atom id"), tokens[1],
                _parse_ident(tokens[3], "state label"))
    if keyword == "screen":
        _expect(tokens, 3, "screen ID SLIT1 SLIT2")
        slits = (_parse_ident(tokens[1], "slit label"), _parse_ident(tokens[2], "slit label"))
        if slits[0] == slits[1]:
            raise ValueError("screen slits must have distinct labels")
        return (_parse_ident(tokens[0], "screen id"),) + slits
    if keyword == "bind":
        _expect(tokens, 2, "bind SLIT CAVITY")
        return (_parse_ident(tokens[0], "slit label"), _parse_ident(tokens[1], "cavity id"))
    if keyword == "kernel":
        if len(tokens) < 2:
            raise ValueError("expected 'kernel ID [..matrix..]'")
        name = _parse_ident(tokens[0], "kernel id")
        matrix_text = raw.split("#", 1)[0].split(None, 2)[2]
        return (name, _parse_matrix(matrix_text))
    if keyword == "split":
        _expect(tokens, 2, "split ATOM SCREEN")
        return (_parse_ident(tokens[0], "atom id"), _parse_ident(tokens[1], "screen id"))
    if keyword == "pass":
        _expect(tokens, 4, "pass ATOM SCREEN phi ANGLE")
        if tokens[2] != "phi":
            raise ValueError("expected 'pass ATOM SCREEN phi ANGLE'")
        return (_parse_ident(tokens[0], "atom id"), _parse_ident(tokens[1], "screen id"),
                _parse_angle(tokens[3]))
    if keyword == "detect":
        _expect(tokens, 3, "detect ATOM (internal|position) LABEL")
        if tokens[1] not in ("internal", "position"):
            raise ValueError("detect mode must be 'internal' or 'position'")
        return (_parse_ident(tokens[0], "atom id"), tokens[1],
                _parse_ident(tokens[2], "label"))
    if keyword == "propagate":
        _expect(tokens, 2, "propagate ATOM KERNEL")
        return (_parse_ident(tokens[0], "atom id"), _parse_ident(tokens[1], "kernel id"))
    if keyword == "inject":
        _expect(tokens, 2, "inject CAVITY NUM")
        return (_parse_ident(tokens[0], "cavity id"), _parse_number(tokens[1]))
    if keyword == "jcpass":
        _expect(tokens, 4, "jcpass ATOM CAVITY gt ANGLE")
        if tokens[2] != "gt":
            raise ValueError("expected 'jcpass ATOM CAVITY gt ANGLE'")
        return (_parse_ident(tokens[0], "atom id"), _parse_ident(tokens[1], "cavity id"),
                _parse_angle(tokens[3]))
    # checkpoint
    _expect(tokens, 1, "checkpoint NAME")
    return (_parse_ident(tokens[0], "checkpoint name"),)


# ---------------------------------------------------------------------------
# serialization


def _render_number(value) -> str:
    if isinstance(value, ParamRef):
        return str(value)
    return fmt_complex(value)


def serialize_command(cmd: Command) -> str:
    k, a = cmd.keyword, cmd.args
    if k == "config":
        value = a[1]
        if isinstance(value, Angle):
            return f"config {a[0]} {value}"
        if isinstance(value, int):
            return f"config {a[0]} {value}"
        return f"config {a[0]} {fmt_complex(value)}"
    if k == "cavity":
        base = f"cavity {a[0]} alpha {_render_number(a[1])}"
        if a[2] is None:
            return base
        trunc = a[2] if isinstance(a[2], ParamRef) else int(a[2])
        return f"{base} truncation {trunc}"
    if k == "atom":
        return f"atom {a[0]} {a[1]} state {a[2]}"
    if k == "screen":
        return f"screen {a[0]} {a[1]} {a[2]}"
    if k == "bind":
        return f"bind {a[0]} {a[1]}"
    if k == "kernel":
        rows = "; ".join(" ".join(fmt_complex(z) for z in row) for row in a[1])
        return f"kernel {a[0]} [{rows}]"
    if k == "split":
        return f"split {a[0]} {a[1]}"
    if k == "pass":
        return f"pass {a[0]} {a[1]} phi {a[2]}"
    if k == "detect":
        return f"detect {a[0]} {a[1]} {a[2]}"
    if k == "propagate":
        return f"propagate {a[0]} {a[1]}"
    if k == "inject":
        return f"inject {a[0]} {_render_number(a[1])}"
    if k == "jcpass":
        return f"jcpass {a[0]} {a[1]} gt {a[2]}"
    return f"checkpoint {a[0]}"


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
    if isinstance(value, ParamRef):
        resolved = params[value.name]
        if isinstance(resolved, complex):
            if resolved.imag != 0 or resolved.real != int(resolved.real):
                raise ValueError(f"{what}: parameter ${value.name} is not an integer")
            return int(resolved.real)
        return int(resolved)
    return int(value)


def resolve_inputs(script: ProtocolScript, overrides: dict | None = None) -> protocol.RunInputs:
    """Effective run parameters: defaults, then config lines, then overrides."""
    params = {
        "cb": complex(protocol.RunInputs.cb),
        "cc": complex(protocol.RunInputs.cc),
        "alpha": complex(protocol.DEFAULT_ALPHA),
        "truncation": protocol.DEFAULT_TRUNCATION,
        "gt": protocol.DEFAULT_GT,
    }
    for cmd in script.commands:
        if cmd.keyword != "config":
            continue
        key, value = cmd.args
        if key == "gt":
            params["gt"] = value.resolve(params)
        elif key == "truncation":
            params["truncation"] = int(value)
        else:
            params[key] = complex(value)
    for key, value in (overrides or {}).items():
        if value is None:
            continue
        if key not in PARAM_NAMES:
            raise ValueError(f"unknown parameter {key!r}")
        params[key] = value
    return protocol.RunInputs(
        cb=complex(params["cb"]),
        cc=complex(params["cc"]),
        alpha=complex(params["alpha"]),
        truncation=int(params["truncation"]),
        gt=float(params["gt"]),
    )


class _Validator:
    def __init__(self, script: ProtocolScript, inputs: protocol.RunInputs):
        self.script = script
        self.inputs = inputs
        self.params = {
            "cb": inputs.cb, "cc": inputs.cc, "alpha": inputs.alpha,
            "truncation": inputs.truncation, "gt": inputs.gt,
        }
        self.errors: list[tuple[int, str]] = []
        self.cavities: dict[str, protocol.DeclareCavity] = {}
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
        self.cavities[name] = protocol.DeclareCavity(name, alpha, trunc, text=cmd.render())
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
        self.instructions.append(protocol.DeclareAtom(name, kind, state, text=cmd.render()))

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
        self.instructions.append(protocol.Split(atom, self.screens[screen], text=cmd.render()))

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
            protocol.CavityPass(atom, bindings, phi.resolve(self.params), text=cmd.render())
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
        self.instructions.append(protocol.Detect(atom, which, label, text=cmd.render()))

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
        self.instructions.append(protocol.Propagate(atom, spec, text=cmd.render()))

    def _cmd_inject(self, cmd: Command) -> None:
        cavity, beta_arg = cmd.args
        if cavity not in self.cavities:
            self.fail(cmd.line, f"cavity {cavity!r} is not declared")
            return
        beta = _resolve_number(beta_arg, self.params)
        self.injections[cavity] += abs(beta)
        self.instructions.append(protocol.Inject(cavity, beta, text=cmd.render()))

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
            protocol.JcPass(atom, cavity, gt.resolve(self.params), text=cmd.render())
        )

    def _cmd_checkpoint(self, cmd: Command) -> None:
        name = cmd.args[0]
        if name not in CHECKPOINTS:
            self.fail(cmd.line, f"unknown checkpoint {name!r}")
            return
        first = not any(isinstance(i, protocol.Checkpoint) for i in self.instructions)
        self.instructions.append(protocol.Checkpoint(name, text=cmd.render()))
        if self.inputs.alpha == 0 and first:
            self.fail(cmd.line, f"checkpoint {name}: alpha is 0, so the odd cat "
                                "|alpha> - |-alpha> vanishes and the cavities cannot record "
                                "a slit; checkpoints need a nonzero alpha")

    def _check_truncations(self) -> None:
        for name, spec in self.cavities.items():
            reach = abs(spec.alpha) + self.injections[name]
            needed = tail_bound_dim(reach)
            if spec.truncation < needed:
                self.errors.append((0, f"cavity {name}: truncation {spec.truncation} is below "
                                       f"the tail bound {needed} for amplitude reach "
                                       f"{fmt_real(reach)}"))


def resolve(script: ProtocolScript, overrides: dict | None = None) -> ResolvedRun:
    """Validate and lower a parsed script against effective run parameters."""
    inputs = resolve_inputs(script, overrides)
    return _Validator(script, inputs).run()
