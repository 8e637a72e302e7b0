"""Parsing and formatting of exact rationals.

All numeric values in JSON payloads, CLI flags and the interval text format
are rationals written as "p/q" or a bare integer. Floats are rejected so no
value ever silently loses exactness.
"""
from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm


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


def sum_tree(pairs) -> list:
    """Levels of the balanced sum tree of (numerator, denominator) pairs.

    Each level adds neighbouring pairs of the one below on the lcm of their
    denominators, unreduced, and carries an odd last pair up. Node i of
    level k sums pairs i 2^k to (i + 1) 2^k - 1; levels[-1][0] sums all.
    """
    level = list(pairs) or [(0, 1)]
    levels = [level]
    while len(level) > 1:
        level = [
            (a * (d // g) + c * (b // g), b // g * d)
            for (a, b), (c, d) in zip(level[::2], level[1::2])
            for g in (gcd(b, d),)
        ] + level[len(level) // 2 * 2 :]
        levels.append(level)
    return levels


def format_rational(value: Fraction) -> str:
    """Render a Fraction as "p/q", or "p" when the denominator is 1."""
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"
