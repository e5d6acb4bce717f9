"""Heuristic quadrature oracle for the recurrence integrals.

Composite Simpson over [0, r] in fixed-point integer arithmetic (values
scaled by 2**precision_bits).  ``subdivisions`` counts Simpson panels, two
subintervals each, so the grid has 2*subdivisions + 1 nodes; it must be even
so the half-resolution estimate reuses every other node.

The returned estimate is the Richardson extrapolation of the full- and
half-resolution Simpson sums (the plain full-grid sum is also computed; its
difference from the half-grid sum is the returned error estimate, which
shrinks ~16x per doubling on these smooth integrands).  The oracle is a
sanity instrument only: nothing rigorous may depend on it, and no certificate
path calls into this module.

Transcendental node values are generated incrementally (angle addition for
sin/cos, repeated multiplication for exp) from one high-precision step value,
so a full grid costs a few integer multiplications per node.  Repeated calls
share node arrays through a small module cache; results are pure functions of
``integrate``'s arguments.
"""

from __future__ import annotations

import threading
from enum import Enum
from fractions import Fraction
from typing import Dict, List, Tuple

from .enclosure import Func, enclose


class IntegrandFamily(Enum):
    SIN_KERNEL = "sin-kernel"   # (r x - x**2)**n / n! * sin x
    EXP_KERNEL = "exp-kernel"   # (r x - x**2)**n / n! * e**x
    COS_I = "cos-I"             # (s z**2 - z**4)**n / n! * sin(r - z)
    COS_J = "cos-J"             # z   * kernel * cos(r - z)
    COS_K = "cos-K"             # z**2 * kernel * sin(r - z)
    COS_L = "cos-L"             # z**3 * kernel * cos(r - z)


_cache_lock = threading.Lock()
_node_cache: Dict[tuple, dict] = {}
_power_cache: Dict[tuple, Tuple[int, List[int]]] = {}


def _fixed_value(value: Fraction, prec: int) -> int:
    return (value.numerator << prec) // value.denominator


def _step_values(r: Fraction, steps: int, prec: int) -> Tuple[int, int, int]:
    """Fixed-point sin, cos, exp of the node step h = r / steps."""
    h = r / steps
    width = Fraction(1, 1 << (prec + 8))
    sin_h = _fixed_value(enclose(Func.SIN, h, width).midpoint(), prec)
    cos_h = _fixed_value(enclose(Func.COS, h, width).midpoint(), prec)
    exp_h = _fixed_value(enclose(Func.EXP, h, width).midpoint(), prec)
    return sin_h, cos_h, exp_h


def _nodes(r: Fraction, panels: int, prec: int) -> dict:
    key = (r.numerator, r.denominator, panels, prec)
    with _cache_lock:
        entry = _node_cache.get(key)
        if entry is None:
            entry = {"built": False}
            _node_cache[key] = entry
    if not entry["built"]:
        steps = 2 * panels
        scale = 1 << prec
        a, b = r.numerator, r.denominator
        xs = [(j * a * scale) // (b * steps) for j in range(steps + 1)]
        sin_h, cos_h, exp_h = _step_values(r, steps, prec)
        sin_arr = [0] * (steps + 1)
        cos_arr = [0] * (steps + 1)
        exp_arr = [0] * (steps + 1)
        s_cur, c_cur, e_cur = 0, scale, scale
        cos_arr[0] = scale
        exp_arr[0] = scale
        for j in range(1, steps + 1):
            s_cur, c_cur = (
                (s_cur * cos_h + c_cur * sin_h) >> prec,
                (c_cur * cos_h - s_cur * sin_h) >> prec,
            )
            e_cur = (e_cur * exp_h) >> prec
            sin_arr[j] = s_cur
            cos_arr[j] = c_cur
            exp_arr[j] = e_cur
        r_fp = (a * scale) // b
        s_fp = (a * a * scale) // (b * b)
        z2 = [(x * x) >> prec for x in xs]
        z3 = [(x2 * x) >> prec for x2, x in zip(z2, xs)]
        kern2 = [(r_fp * x - x * x) >> prec for x in xs]
        kern4 = [(s_fp * x2 - x2 * x2) >> prec for x2 in z2]
        entry.update(
            xs=xs, sin=sin_arr, cos=cos_arr, exp=exp_arr,
            z2=z2, z3=z3, kern2=kern2, kern4=kern4, built=True,
        )
    return entry


def _kernel_power(r: Fraction, panels: int, prec: int, tag: str, n: int) -> List[int]:
    """Node values of kernel**n / n!, scaled; ladder cached for ascending n."""
    nodes = _nodes(r, panels, prec)
    kern = nodes["kern2" if tag == "quad" else "kern4"]
    key = (r.numerator, r.denominator, panels, prec, tag)
    with _cache_lock:
        cached = _power_cache.get(key)
    if cached is not None and cached[0] <= n:
        level, power = cached
    else:
        level, power = 0, [1 << prec] * len(kern)
    while level < n:
        level += 1
        divisor = level
        power = [((p * k) >> prec) // divisor for p, k in zip(power, kern)]
    with _cache_lock:
        _power_cache[key] = (level, power)
    return power


def _family_values(fam: IntegrandFamily, n: int, r: Fraction, panels: int, prec: int) -> List[int]:
    nodes = _nodes(r, panels, prec)
    if fam in (IntegrandFamily.SIN_KERNEL, IntegrandFamily.EXP_KERNEL):
        power = _kernel_power(r, panels, prec, "quad", n)
        trig = nodes["sin"] if fam is IntegrandFamily.SIN_KERNEL else nodes["exp"]
        return [(p * t) >> prec for p, t in zip(power, trig)]
    power = _kernel_power(r, panels, prec, "quart", n)
    reversed_sin = nodes["sin"][::-1]
    reversed_cos = nodes["cos"][::-1]
    if fam is IntegrandFamily.COS_I:
        return [(p * t) >> prec for p, t in zip(power, reversed_sin)]
    if fam is IntegrandFamily.COS_J:
        return [
            (((z * p) >> prec) * t) >> prec
            for z, p, t in zip(nodes["xs"], power, reversed_cos)
        ]
    if fam is IntegrandFamily.COS_K:
        return [
            (((z * p) >> prec) * t) >> prec
            for z, p, t in zip(nodes["z2"], power, reversed_sin)
        ]
    return [
        (((z * p) >> prec) * t) >> prec
        for z, p, t in zip(nodes["z3"], power, reversed_cos)
    ]


def _simpson_sum(values: List[int], step: Fraction, prec: int) -> Fraction:
    weighted = values[0] + values[-1] + 4 * sum(values[1::2]) + 2 * sum(values[2:-1:2])
    return Fraction(weighted, 1 << prec) * step / 3


def integrate(
    family: IntegrandFamily,
    n: int,
    r: Fraction,
    subdivisions: int = 1 << 14,
    precision_bits: int = 256,
) -> Tuple[Fraction, Fraction]:
    """Return (estimate, error_estimate) for the family integral over [0, r].

    estimate: Richardson-extrapolated composite Simpson value;
    error_estimate: |S(subdivisions) - S(subdivisions/2)| of the plain sums.
    """
    r = Fraction(r)
    if r <= 0:
        raise ValueError("quadrature requires r > 0")
    if n < 0:
        raise ValueError("index n must be nonnegative")
    if subdivisions < 2 or subdivisions % 2:
        raise ValueError("subdivisions must be even and at least 2")
    if precision_bits < 64:
        raise ValueError("precision below 64 bits is refused")
    values = _family_values(family, n, r, subdivisions, precision_bits)
    h = r / (2 * subdivisions)
    full = _simpson_sum(values, h, precision_bits)
    half = _simpson_sum(values[::2], 2 * h, precision_bits)
    error_estimate = abs(full - half)
    estimate = full + (full - half) / 15
    return estimate, error_estimate
