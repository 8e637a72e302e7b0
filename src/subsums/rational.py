"""Parsing and formatting of exact rationals.

All numeric values in JSON payloads, CLI flags and the interval text format
are rationals written as "p/q" or a bare integer. Floats are rejected so no
value ever silently loses exactness.
"""
from __future__ import annotations

from fractions import Fraction
from math import lcm


def as_fraction(value) -> Fraction:
    """Coerce an int, string or Fraction to Fraction. Floats are an error."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise TypeError("booleans are not rationals")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return parse_rational(value)
    raise TypeError(f"expected an exact rational, got {type(value).__name__}")


def parse_rational(text: str) -> Fraction:
    """Parse "p/q" or "p" with optional sign."""
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"not a rational: {text!r}") from exc


def over_common_denominator(values, den: int = 1) -> tuple:
    """(lcm of den and the denominators, numerators over it) of a
    sequence of Fractions."""
    den = lcm(den, *(v.denominator for v in values))
    return den, [v.numerator * (den // v.denominator) for v in values]


def format_rational(value: Fraction) -> str:
    """Render a Fraction as "p/q", or "p" when the denominator is 1."""
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"
