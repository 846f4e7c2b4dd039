"""Canonical rendering and parsing of numbers for scripts and reports.

Reals are rendered with 17 significant digits so output is byte-stable
and round-trips exactly.  Complex literals use the compact "re+imi" form
(e.g. ``0.5-0.5i``, ``2i``, ``1.25``).  Parsing rejects inf and nan.
"""

from __future__ import annotations

import math


def fmt_real(x: float) -> str:
    return format(float(x), ".17g")


def fmt_complex(z: complex) -> str:
    z = complex(z)
    if z.imag == 0:
        return fmt_real(z.real)
    imag = fmt_real(abs(z.imag)) + "i"
    sign = "+" if z.imag >= 0 else "-"
    if z.real == 0:
        return imag if sign == "+" else "-" + imag
    return f"{fmt_real(z.real)}{sign}{imag}"


def _parse_float(text: str, token: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise ValueError(f"not a number: {token!r}") from None
    if not math.isfinite(value):
        raise ValueError(f"not a finite number: {token!r}")
    return value


def parse_real(token: str) -> float:
    """Parse a finite real literal such as "0.5" or "-1e-3"."""
    return _parse_float(token.strip(), token)


def parse_complex(token: str) -> complex:
    """Parse "1.5", "-2i", "0.5-0.5i" and friends."""
    text = token.strip()
    if not text:
        raise ValueError(f"not a number: {token!r}")
    if not text.endswith("i"):
        return complex(_parse_float(text, token), 0.0)
    body = text[:-1]
    # the sign splitting real from imaginary is never first and never part
    # of an exponent
    split = -1
    for k in range(len(body) - 1, 0, -1):
        if body[k] in "+-" and body[k - 1] not in "eE":
            split = k
            break
    real_text, imag_text = (body[:split], body[split:]) if split > 0 else ("", body)
    real = _parse_float(real_text, token) if real_text else 0.0
    if imag_text in ("", "+"):
        imag = 1.0
    elif imag_text == "-":
        imag = -1.0
    else:
        imag = _parse_float(imag_text, token)
    return complex(real, imag)
