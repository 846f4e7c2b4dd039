import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from slitport.numformat import fmt_complex, fmt_real, parse_complex
from slitport.scenario import REFERENCE_SCRIPT
from slitport.script import (
    Angle,
    ParamRef,
    ScriptError,
    parse,
    parse_lenient,
    resolve,
    serialize,
    validate,
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


# --- validation ---


def test_reference_layout_shape():
    layout = validate(parse(REFERENCE_SCRIPT))
    assert len(layout.screens) == 6
    assert len(layout.cavities) == 2
    assert len(layout.kernels) == 5
    assert dict(layout.bindings) == {"sl1": "C1", "sl2": "C2"}


def test_validate_is_deterministic():
    script = parse(REFERENCE_SCRIPT)
    a = validate(script)
    b = validate(script)
    assert [s.name for s in a.screens] == [s.name for s in b.screens]
    assert [k.name for k in a.kernels] == [k.name for k in b.kernels]


def test_unbound_slit_reported():
    text = (
        "cavity C1 alpha 1\ncavity C2 alpha 1\nscreen S SL3 SL4\nbind SL4 C2\n"
        "atom A lambda3 state b\nsplit A S\npass A S phi pi\n"
    )
    with pytest.raises(ScriptError) as err:
        validate(parse(text))
    assert any("slit SL3 has no cavity" in msg for _, msg in err.value.errors)


def test_kernel_column_norm_rejected():
    with pytest.raises(ScriptError) as err:
        validate(parse("kernel K [1.2 0]"))
    assert any("kernel column exceeds unit norm" in msg for _, msg in err.value.errors)


def test_detect_label_must_exist():
    text = "atom A1 lambda3 state b\ndetect A1 internal q\n"
    with pytest.raises(ScriptError) as err:
        validate(parse(text))
    assert any("unknown label 'q' (valid: a, b, c)" in msg for _, msg in err.value.errors)


def test_declaration_before_use():
    with pytest.raises(ScriptError) as err:
        validate(parse("split A1 SC1\n"))
    assert err.value.errors[0][0] == 1


def test_duplicate_declarations_rejected():
    with pytest.raises(ScriptError):
        validate(parse("cavity C1 alpha 1\ncavity C1 alpha 2\n"))
    with pytest.raises(ScriptError):
        validate(parse("screen S a b\nscreen T a c\n"))


def test_split_twice_rejected_statically():
    text = ("cavity C1 alpha 1\ncavity C2 alpha 1\nscreen S u v\nbind u C1\nbind v C2\n"
            "atom A lambda3 state b\nsplit A S\nsplit A S\n")
    with pytest.raises(ScriptError) as err:
        validate(parse(text))
    assert any("already split" in msg for _, msg in err.value.errors)


def test_checkpoint_names_validated():
    with pytest.raises(ScriptError) as err:
        validate(parse("checkpoint NOT_A_STAGE"))
    assert any("unknown checkpoint" in msg for _, msg in err.value.errors)


def test_truncation_tail_bound_enforced():
    with pytest.raises(ScriptError) as err:
        validate(parse("cavity C1 alpha 2 truncation 16\ninject C1 2\n"))
    assert any("tail bound" in msg for _, msg in err.value.errors)


def test_overrides_feed_validation():
    script = parse(REFERENCE_SCRIPT)
    with pytest.raises(ScriptError):
        validate(script, {"truncation": 8})
    layout = validate(script, {"alpha": 1.0, "truncation": 32})
    assert layout.cavity("C1").truncation == 32


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
        validate(parse(text))
    assert any("must be lambda3" in msg for _, msg in err.value.errors)


def test_input_label_reserved_for_lambda3():
    with pytest.raises(ScriptError) as err:
        validate(parse("atom P qubit2 state input"))
    assert any("unknown label" in msg for _, msg in err.value.errors)


def test_config_accepts_complex_amplitudes():
    script = parse("config cb 0.5-0.5i\nconfig cc 0.70710678118654746\n")
    run = resolve(script)
    assert run.inputs.cb == 0.5 - 0.5j
    assert abs(abs(run.inputs.cb) ** 2 + abs(run.inputs.cc) ** 2 - 1) < 1e-9


def test_cavity_complex_alpha():
    layout = validate(parse("cavity C1 alpha 0.5+0.5i truncation 24"))
    assert layout.cavity("C1").alpha == 0.5 + 0.5j
