import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from slitport.numformat import fmt_complex, fmt_real, parse_complex
from slitport.protocol import CavityPass, DeclareCavity
from slitport.scenario import REFERENCE_SCRIPT
from slitport.script import (
    KEYWORDS,
    PARAM_NAMES,
    Angle,
    Command,
    ParamRef,
    ProtocolScript,
    ScriptError,
    parse,
    parse_lenient,
    resolve,
    serialize,
)

RNG = np.random.default_rng(55)


# --- number and angle literals ---


def test_parse_complex_forms():
    assert parse_complex("1.5") == 1.5
    assert parse_complex("-2i") == -2j
    assert parse_complex("0.5-0.5i") == 0.5 - 0.5j
    assert parse_complex("i") == 1j
    assert parse_complex("1e-3+2.5i") == 1e-3 + 2.5j
    with pytest.raises(ValueError):
        parse_complex("nope")


@given(st.complex_numbers(allow_nan=False, allow_infinity=False))
@example(1.5)
@example(-2j)
@example(0.5 - 0.5j)
@example(1j)
@example(0.0)
@example(-0.25 + 0j)
@example(3.25e-7 + 1e3j)
@example(complex(5e-324, -1e-300))
@example(complex(-1e300, 2.2250738585072014e-308))
@example(complex(-0.0, -0.0))
def test_fmt_complex_round_trip(z):
    # value equality: a zero part may come back with the other sign
    assert parse_complex(fmt_complex(z)) == z


def test_fmt_real_17_digits():
    assert fmt_real(1 / 3) == "0.33333333333333331"
    assert fmt_real(2.0) == "2"


# --- parsing ---


def test_parse_cavity_command():
    script = parse("cavity C1 alpha 2.0")
    cmd = script.commands[0]
    assert cmd.keyword == "cavity"
    assert cmd.args == ("C1", (2 + 0j), None)
    assert cmd.line == 1


def test_parse_symbolic_phi():
    cmd = parse("pass A1 SC1 phi pi").commands[0]
    assert cmd.args[2] == Angle("pi")
    assert cmd.args[2].resolve({}) == math.pi


def test_parse_pi_fraction_and_param():
    cmd = parse("jcpass A51 C1 gt pi/8").commands[0]
    assert cmd.args[2].resolve({}) == pytest.approx(math.pi / 8)
    cmd = parse("inject C1 $alpha").commands[0]
    assert cmd.args[1] == ParamRef("alpha")


def test_parse_kernel_matrix():
    cmd = parse("kernel K [1 0; 0.5-0.5i 0]").commands[0]
    assert cmd.args[1] == ((1 + 0j, 0j), (0.5 - 0.5j, 0j))


def test_parse_collects_all_errors_and_keeps_good_lines():
    text = "\n".join([
        "cavity C1 alpha 2.0",          # 1 ok
        "warp A1 somewhere",            # 2 bad keyword
        "screen SC1 sl1 sl2",           # 3 ok
        "cavity C2 alpha",              # 4 bad arity
        "atom A1 lambda3 state b",      # 5 ok
        "pass A1 SC1 theta pi",         # 6 bad keyword argument
        "jcpass A5 C1 gt pi/zero",      # 7 bad angle
    ])
    parsed, errors = parse_lenient(text)
    assert [line for line, _ in errors] == [2, 4, 6, 7]
    assert [c.line for c in parsed.commands] == [1, 3, 5]
    with pytest.raises(ScriptError) as err:
        parse(text)
    assert len(err.value.errors) == 4


# one malformed line of each form for every keyword, with its exact message
MALFORMED = [
    ("config cb", "expected 'config key value'"),
    ("config omega 5", "unknown config key 'omega' (valid: cb, cc, alpha, truncation, gt)"),
    ("config cb $cc", "config values define parameters and cannot reference them"),
    ("config cb x", "not a number: 'x'"),
    ("config truncation 1.5", "not an integer: '1.5'"),
    ("config gt pi/0", "bad angle 'pi/0', expected pi/<positive int>"),
    ("cavity C1 alpha", "expected 'cavity ID alpha NUM [truncation INT]'"),
    ("cavity C1 beta 2", "expected 'cavity ID alpha NUM [truncation INT]'"),
    ("cavity C1 alpha 2 trunc 48", "expected 'cavity ID alpha NUM [truncation INT]'"),
    ("cavity 1C alpha 2", "bad cavity id '1C'"),
    ("cavity C1 alpha x", "not a number: 'x'"),
    ("cavity C1 alpha 2 truncation 2.5", "not an integer: '2.5'"),
    ("cavity C1 alpha $beta", "unknown parameter '$beta' (valid: cb, cc, alpha, truncation, gt)"),
    ("atom A lambda3 state", "expected 'atom ID (lambda3|qubit2) state LABEL'"),
    ("atom A lambda4 state b", "expected lambda3 or qubit2, got 'lambda4'"),
    ("atom A lambda3 stat b", "expected 'atom ID (lambda3|qubit2) state LABEL'"),
    ("atom 1A lambda3 state b", "bad atom id '1A'"),
    ("atom A lambda3 state 1b", "bad label '1b'"),
    ("screen S s1", "expected 'screen ID SLIT1 SLIT2'"),
    ("screen 1S s1 s2", "bad screen id '1S'"),
    ("screen S s1 2s", "bad slit label '2s'"),
    ("screen S s1 s1", "screen slits must have distinct labels"),
    ("bind s1", "expected 'bind SLIT CAVITY'"),
    ("bind 1s C1", "bad slit label '1s'"),
    ("bind s1 1C", "bad cavity id '1C'"),
    ("kernel K", "expected 'kernel ID MATRIX'"),
    ("kernel 1K [1]", "bad kernel id '1K'"),
    ("kernel K 1 0", "matrix literal must be bracketed, like [1 0; 0 1]"),
    ("kernel K [1 0; 1]", "matrix rows have unequal lengths"),
    ("kernel K [1; ]", "matrix row is empty"),
    ("kernel K [x]", "not a number: 'x'"),
    ("split A", "expected 'split ATOM SCREEN'"),
    ("split 1A S", "bad atom id '1A'"),
    ("split A 1S", "bad screen id '1S'"),
    ("pass A S phi", "expected 'pass ATOM SCREEN phi ANGLE'"),
    ("pass A S theta pi", "expected 'pass ATOM SCREEN phi ANGLE'"),
    ("pass 1A S phi pi", "bad atom id '1A'"),
    ("pass A 1S phi pi", "bad screen id '1S'"),
    ("pass A S phi pi/x", "bad angle 'pi/x', expected pi/<positive int>"),
    ("pass A S phi 1i", "angle must be real, got '1i'"),
    ("pass A S phi $phi", "unknown parameter '$phi' (valid: cb, cc, alpha, truncation, gt)"),
    ("detect A internal", "expected 'detect ATOM (internal|position) LABEL'"),
    ("detect A spin b", "expected internal or position, got 'spin'"),
    ("detect 1A internal b", "bad atom id '1A'"),
    ("detect A position 1b", "bad label '1b'"),
    ("propagate A", "expected 'propagate ATOM KERNEL'"),
    ("propagate 1A K", "bad atom id '1A'"),
    ("propagate A 1K", "bad kernel id '1K'"),
    ("inject C1", "expected 'inject CAVITY NUM'"),
    ("inject 1C 2", "bad cavity id '1C'"),
    ("inject C1 x", "not a number: 'x'"),
    ("jcpass P C1 gt", "expected 'jcpass ATOM CAVITY gt ANGLE'"),
    ("jcpass P C1 phi pi", "expected 'jcpass ATOM CAVITY gt ANGLE'"),
    ("jcpass 1P C1 gt pi", "bad atom id '1P'"),
    ("jcpass P 1C gt pi", "bad cavity id '1C'"),
    ("jcpass P C1 gt pi/0", "bad angle 'pi/0', expected pi/<positive int>"),
    ("checkpoint", "expected 'checkpoint NAME'"),
    ("checkpoint 1X", "bad checkpoint name '1X'"),
    ("warp A1", "unknown command 'warp'"),
]


@pytest.mark.parametrize("line,message", MALFORMED)
def test_malformed_line_message(line, message):
    assert parse_lenient(line)[1] == [(1, message)]


def test_comments_and_blank_lines_ignored():
    script = parse("# nothing\n\n   \ncavity C1 alpha 1 # trailing\n")
    assert len(script.commands) == 1


def test_unknown_config_key():
    with pytest.raises(ScriptError):
        parse("config omega 5")


# --- serialization ---


def test_empty_script_serializes_empty():
    assert serialize(parse("")) == ""


def test_reference_round_trip():
    first = parse(REFERENCE_SCRIPT)
    text = serialize(first)
    second = parse(text)
    assert [(c.keyword, c.args) for c in first.commands] == \
        [(c.keyword, c.args) for c in second.commands]
    # canonical form is a fixed point
    assert serialize(second) == text


def test_pi_stays_symbolic():
    assert "phi pi" in serialize(parse("pass A1 SC1 phi pi"))
    assert "gt pi/8" in serialize(parse("jcpass A5 C1 gt pi/8"))
    assert "$alpha" in serialize(parse("inject C1 $alpha"))


def test_reference_script_is_canonical():
    # the shipped scenario's command lines are exactly its canonical text
    commands = [line for line in REFERENCE_SCRIPT.splitlines() if line.split("#")[0].strip()]
    assert serialize(parse(REFERENCE_SCRIPT)) == "".join(line + "\n" for line in commands)


def test_canonical_text_of_every_form():
    text = """\
config cb 0.60  # comment
config cc 0.8i
config alpha 1.50
config truncation 040
config gt pi
cavity C1 alpha $alpha
cavity C2   alpha 0.5-0.25i truncation $truncation
cavity C3 alpha 2 truncation 48
atom A lambda3 state input
atom P qubit2 state f
screen S s1 s2
bind s1 C1
bind s2 C2
kernel S [ 0.5 0.5i ;-0.5   5e-1]
kernel det [1 0]
split A S
pass A S phi pi/4
pass A S phi 0.250
pass A S phi $gt
detect A internal b
propagate A S
propagate A det
detect A position det
inject C1 $alpha
inject C2 -0.50i
jcpass P C1 gt $gt
jcpass P C2 gt pi/8
jcpass P C3 gt 1e-1
checkpoint FINAL
"""
    assert serialize(parse(text)) == """\
config cb 0.59999999999999998
config cc 0.80000000000000004i
config alpha 1.5
config truncation 40
config gt pi
cavity C1 alpha $alpha
cavity C2 alpha 0.5-0.25i truncation $truncation
cavity C3 alpha 2 truncation 48
atom A lambda3 state input
atom P qubit2 state f
screen S s1 s2
bind s1 C1
bind s2 C2
kernel S [0.5 0.5i; -0.5 0.5]
kernel det [1 0]
split A S
pass A S phi pi/4
pass A S phi 0.25
pass A S phi $gt
detect A internal b
propagate A S
propagate A det
detect A position det
inject C1 $alpha
inject C2 -0.5i
jcpass P C1 gt $gt
jcpass P C2 gt pi/8
jcpass P C3 gt 0.10000000000000001
checkpoint FINAL
"""


def test_numbers_canonicalized():
    out = serialize(parse("cavity C1 alpha 2.50000"))
    assert out == "cavity C1 alpha 2.5\n"


def _random_fuzzed_script(rng) -> str:
    def num():
        if rng.random() < 0.3:
            return fmt_complex(complex(round(rng.normal(), 6), round(rng.normal(), 6)))
        return fmt_real(abs(round(rng.normal() * 2, 8)))

    cb = rng.uniform(0.1, 0.9)
    lines = [
        f"config cb {fmt_real(cb)}",
        f"config cc {fmt_real(math.sqrt(1 - cb * cb))}",
        "config truncation 32",
        f"cavity C1 alpha {fmt_real(rng.uniform(0.5, 1.5))}",
        f"cavity C2 alpha {fmt_real(rng.uniform(0.5, 1.5))} truncation 48",
        "screen S sA sB",
        "bind sA C1",
        "bind sB C2",
        f"kernel S [{num()} {num()}; {num()} {num()}]",
        "kernel det [0.5 0.5]",
        "atom A lambda3 state b",
        "split A S",
        f"pass A S phi pi/{rng.integers(1, 9)}",
        "detect A internal b",
        "propagate A det",
        "detect A position det",
        f"inject C1 {num()}",
        "atom P qubit2 state f",
        f"jcpass P C1 gt {fmt_real(rng.uniform(0, 1))}",
        "detect P internal f",
    ]
    return "\n".join(lines) + "\n"


def test_fuzzed_scripts_round_trip():
    for _ in range(10):
        text = _random_fuzzed_script(RNG)
        first = parse(text)
        again = parse(serialize(first))
        assert first.commands == tuple(
            c.__class__(c.line, c.keyword, c.args) for c in first.commands
        )
        assert [(c.keyword, c.args) for c in first.commands] == \
            [(c.keyword, c.args) for c in again.commands]


_IDENT = st.from_regex(r"[A-Za-z_][A-Za-z0-9_]{0,7}", fullmatch=True)
_COMPLEX = st.complex_numbers(allow_nan=False, allow_infinity=False)
_PARAM = st.sampled_from(PARAM_NAMES)
_NUMBER = st.one_of(_COMPLEX, _PARAM.map(ParamRef))
_INT = st.integers(-10**6, 10**6)
_LITERAL_ANGLE = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(lambda x: Angle("value", x)),
    st.just(Angle("pi")),
    st.integers(1, 10**6).map(lambda n: Angle("pifrac", n)),
)
_ANGLE = st.one_of(_LITERAL_ANGLE, _PARAM.map(lambda name: Angle("param", name)))
_MATRIX = st.integers(1, 3).flatmap(lambda width: st.lists(
    st.lists(_COMPLEX, min_size=width, max_size=width).map(tuple), min_size=1, max_size=3,
).map(tuple))
_ARGS = {
    # config values define parameters, so they take no $references
    "config": st.one_of(st.tuples(st.sampled_from(("cb", "cc", "alpha")), _COMPLEX),
                        st.tuples(st.just("truncation"), _INT),
                        st.tuples(st.just("gt"), _LITERAL_ANGLE)),
    "cavity": st.tuples(_IDENT, _NUMBER, st.one_of(st.none(), _INT, _PARAM.map(ParamRef))),
    "atom": st.tuples(_IDENT, st.sampled_from(("lambda3", "qubit2")), _IDENT),
    "screen": st.tuples(_IDENT, st.lists(_IDENT, min_size=2, max_size=2, unique=True))
    .map(lambda a: (a[0], *a[1])),
    "bind": st.tuples(_IDENT, _IDENT),
    "kernel": st.tuples(_IDENT, _MATRIX),
    "split": st.tuples(_IDENT, _IDENT),
    "pass": st.tuples(_IDENT, _IDENT, _ANGLE),
    "detect": st.tuples(_IDENT, st.sampled_from(("internal", "position")), _IDENT),
    "propagate": st.tuples(_IDENT, _IDENT),
    "inject": st.tuples(_IDENT, _NUMBER),
    "jcpass": st.tuples(_IDENT, _IDENT, _ANGLE),
    "checkpoint": st.tuples(_IDENT),
}
assert set(_ARGS) == set(KEYWORDS)


def _command(keyword):
    return _ARGS[keyword].map(lambda args: (keyword, args))


# every keyword once, then a few more in random order
_SCRIPTS = st.tuples(
    st.tuples(*[_command(k) for k in KEYWORDS]),
    st.lists(st.sampled_from(KEYWORDS).flatmap(_command), max_size=8),
).map(lambda parts: ProtocolScript(tuple(
    Command(line, keyword, args)
    for line, (keyword, args) in enumerate(parts[0] + tuple(parts[1]), start=1)
)))


@given(_SCRIPTS)
def test_serialized_scripts_round_trip(script):
    text = serialize(script)
    again = parse(text)
    assert serialize(again) == text
    # values compare equal; a zero part may come back with the other sign
    assert [(c.keyword, c.args) for c in again.commands] == \
        [(c.keyword, c.args) for c in script.commands]


# --- validation ---


def _cavities(run):
    return {i.name: i for i in run.instructions if isinstance(i, DeclareCavity)}


def test_reference_layout_shape():
    instructions = resolve(parse(REFERENCE_SCRIPT)).instructions
    passes = [i for i in instructions if isinstance(i, CavityPass)]
    assert len(passes) == 4
    assert all(p.bindings == (("sl1", "C1"), ("sl2", "C2")) for p in passes)
    assert sum(isinstance(i, DeclareCavity) for i in instructions) == 2


def test_validate_is_deterministic():
    script = parse(REFERENCE_SCRIPT)
    a = resolve(script).instructions
    b = resolve(script).instructions
    assert [i.text for i in a] == [i.text for i in b]


def test_unbound_slit_reported():
    text = (
        "cavity C1 alpha 1\ncavity C2 alpha 1\nscreen S SL3 SL4\nbind SL4 C2\n"
        "atom A lambda3 state b\nsplit A S\npass A S phi pi\n"
    )
    with pytest.raises(ScriptError) as err:
        resolve(parse(text))
    assert any("slit SL3 has no cavity" in msg for _, msg in err.value.errors)


def test_kernel_column_norm_rejected():
    with pytest.raises(ScriptError) as err:
        resolve(parse("kernel K [1.2 0]"))
    assert any("kernel column exceeds unit norm" in msg for _, msg in err.value.errors)


def test_detect_label_must_exist():
    text = "atom A1 lambda3 state b\ndetect A1 internal q\n"
    with pytest.raises(ScriptError) as err:
        resolve(parse(text))
    assert any("unknown label 'q' (valid: a, b, c)" in msg for _, msg in err.value.errors)


def test_declaration_before_use():
    with pytest.raises(ScriptError) as err:
        resolve(parse("split A1 SC1\n"))
    assert err.value.errors[0][0] == 1


def test_duplicate_declarations_rejected():
    with pytest.raises(ScriptError):
        resolve(parse("cavity C1 alpha 1\ncavity C1 alpha 2\n"))
    with pytest.raises(ScriptError):
        resolve(parse("screen S a b\nscreen T a c\n"))


def test_split_twice_rejected_statically():
    text = ("cavity C1 alpha 1\ncavity C2 alpha 1\nscreen S u v\nbind u C1\nbind v C2\n"
            "atom A lambda3 state b\nsplit A S\nsplit A S\n")
    with pytest.raises(ScriptError) as err:
        resolve(parse(text))
    assert any("already split" in msg for _, msg in err.value.errors)


def test_checkpoint_names_validated():
    with pytest.raises(ScriptError) as err:
        resolve(parse("checkpoint NOT_A_STAGE"))
    assert any("unknown checkpoint" in msg for _, msg in err.value.errors)


def test_truncation_tail_bound_enforced():
    with pytest.raises(ScriptError) as err:
        resolve(parse("cavity C1 alpha 2 truncation 16\ninject C1 2\n"))
    assert any("tail bound" in msg for _, msg in err.value.errors)


def test_tail_bound_error_names_the_cavity_line():
    text = ("config alpha 2\n\ncavity C1 alpha 1\ncavity C2 alpha $alpha truncation 16\n"
            "inject C2 2\n")
    with pytest.raises(ScriptError) as err:
        resolve(parse(text))
    assert err.value.errors == [(4, "cavity C2: truncation 16 is below the tail bound 58 "
                                    "for amplitude reach 4")]
    assert str(err.value).startswith("line 4: cavity C2: truncation 16")


def test_overrides_feed_validation():
    script = parse(REFERENCE_SCRIPT)
    with pytest.raises(ScriptError):
        resolve(script, {"truncation": 8})
    run = resolve(script, {"alpha": 1.0, "truncation": 32})
    assert _cavities(run)["C1"].truncation == 32


def test_resolve_produces_runnable_instructions():
    run = resolve(parse(REFERENCE_SCRIPT))
    kinds = [type(i).__name__ for i in run.instructions]
    assert kinds.count("Checkpoint") == 17
    assert kinds.count("DeclareAtom") == 6
    assert run.inputs.truncation == 64
    assert run.inputs.gt == pytest.approx(math.pi / 8)


def test_probe_cannot_take_lambda_pass():
    text = ("cavity C1 alpha 1\ncavity C2 alpha 1\nscreen S u v\nbind u C1\nbind v C2\n"
            "atom P qubit2 state f\nsplit P S\npass P S phi pi\n")
    with pytest.raises(ScriptError) as err:
        resolve(parse(text))
    assert any("must be lambda3" in msg for _, msg in err.value.errors)


def test_input_label_reserved_for_lambda3():
    with pytest.raises(ScriptError) as err:
        resolve(parse("atom P qubit2 state input"))
    assert any("unknown label" in msg for _, msg in err.value.errors)


def test_config_accepts_complex_amplitudes():
    script = parse("config cb 0.5-0.5i\nconfig cc 0.70710678118654746\n")
    run = resolve(script)
    assert run.inputs.cb == 0.5 - 0.5j
    assert abs(abs(run.inputs.cb) ** 2 + abs(run.inputs.cc) ** 2 - 1) < 1e-9


def test_integer_slot_rejects_a_real_parameter():
    with pytest.raises(ScriptError) as err:
        resolve(parse("config gt 70.5\ncavity C1 alpha 1 truncation $gt\n"))
    assert err.value.errors == [(2, "cavity C1: parameter $gt is not an integer")]


def test_cavity_complex_alpha():
    run = resolve(parse("cavity C1 alpha 0.5+0.5i truncation 24"))
    assert _cavities(run)["C1"].alpha == 0.5 + 0.5j
