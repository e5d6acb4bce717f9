"""Exact arithmetic building blocks: rationals and square roots.

Rationals are plain ``fractions.Fraction`` values (always reduced, positive
denominator), so equality is structural and no float ever enters a bound.
They are read and written as "a/b" by ``parse_rational`` and
``format_rational``.  ``sqrt_bounds`` brackets a square root on the 2**-64
grid as an integer window (lo, hi, den), the shape every enclosure takes:
lo / den <= value <= hi / den with den > 0, not reduced.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt
from typing import Tuple


def parse_rational(text: str) -> Fraction:
    """Parse "a/b" or "a" into a Fraction.  Raises ValueError on junk."""
    text = text.strip()
    if "/" in text:
        num, den = text.split("/", 1)
        if int(den) == 0:
            raise ValueError(f"zero denominator in {text!r}")
        return Fraction(int(num), int(den))
    return Fraction(int(text), 1)


def format_rational(value: Fraction) -> str:
    """Serialize a Fraction as "num/den", denominator always explicit."""
    return f"{value.numerator}/{value.denominator}"


def sqrt_bounds(x: Fraction) -> Tuple[int, int, int]:
    """(lo, hi, den): lo / den <= sqrt(x) <= hi / den for x >= 0, den > 0,
    with lo == hi for perfect squares.

    Inexact case: floor/ceiling of sqrt(x) on the 2**-64 grid, so
    hi - lo == 1, den == 2**64 and hi*hi > x * den*den >= lo*lo.
    """
    x = x if type(x) is Fraction else Fraction(x)
    num, den = x.numerator, x.denominator
    if num < 0:
        raise ValueError("sqrt of a negative rational")
    num_root, den_root = isqrt(num), isqrt(den)
    if num_root * num_root == num and den_root * den_root == den:
        return num_root, num_root, den_root
    root = isqrt((num << 128) // den)
    return root, root + 1, 1 << 64
