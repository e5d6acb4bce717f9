"""Each engine's own bound against the kernel tail bounds of the test-side
``reference.tail_bound``: for n = 0 .. 40, the bound an engine steps is the
claim's factor times the scaled reference bound on the integral whose
multiple the witness is.  Where an engine replaces a square root by its
upper bound on the 2**-64 grid (pi squared, tan ratio), its bound never
exceeds the reference at that upper bound, and equals it on perfect squares.
"""

from fractions import Fraction

import pytest

from irrcert import certificates
from irrcert.certificates import Claim, ClaimKind
from irrcert.exactnum import sqrt_bounds

from reference import TailKernel, tail_bound

F = Fraction
INDICES = range(41)


def _engine(claim):
    engine = certificates._KINDS[claim.kind].engine(claim)
    engine.build()
    return engine


def _bounds(decay):
    """The decay's value at n = 0, 1, ..., 40, stepped as a search steps it."""
    values = []
    for n in INDICES:
        if n:
            decay.step()
        values.append(F(decay.num, decay.den))
    return values


def _sin_reference(r, n):
    return tail_bound(TailKernel.SIN_KERNEL, r, n)


def _min_abs(record):
    return min(abs(record.lo), abs(record.hi))


@pytest.mark.parametrize("arg, value", [(F(1), F(1557, 1000)), (F(-22, 7), F(7, 1000)),
                                        (F(3, 5), F(2, 3)), (F(5, 2), F(-3, 4))])
def test_tan_bound_is_the_sin_kernel_bound_over_sin(arg, value):
    engine = _engine(Claim(ClaimKind.TAN, arg, value))
    r = 2 * abs(arg)
    (sin_record,) = engine.enclosures
    factor = value.denominator / _min_abs(sin_record)
    expected = [factor * r.denominator ** n * _sin_reference(r, n) for n in INDICES]
    assert _bounds(engine.bound) == expected


@pytest.mark.parametrize("value", [F(355, 113), F(22, 7), F(3), F(333, 106)])
def test_pi_bound_is_the_sin_kernel_bound(value):
    engine = _engine(Claim(ClaimKind.PI, None, value))
    expected = [value.denominator ** n * _sin_reference(value, n) for n in INDICES]
    assert _bounds(engine.bound) == expected


@pytest.mark.parametrize("arg, value", [(F(2), F(7)), (F(-1, 3), F(7, 10)),
                                        (F(3, 2), F(9, 2)), (F(-5), F(1, 148))])
def test_exp_bound_is_the_exp_kernel_bound_at_the_claimed_value(arg, value):
    # the exp kernel's reference is q * sin kernel * exp_upper_bound(r); under
    # the claim e**r = p/q stands in for exp_upper_bound(r), leaving p * sin kernel
    engine = _engine(Claim(ClaimKind.EXP, arg, value))
    r = abs(arg)
    if arg < 0:
        value = 1 / value
    expected = [value.numerator * r.denominator ** n * _sin_reference(r, n) for n in INDICES]
    assert _bounds(engine.bound) == expected


@pytest.mark.parametrize("s, value", [(F(4), F(-2, 5)), (F(49, 9), F(1, 3)), (F(2, 3), F(4, 5)),
                                      (F(-4), F(376, 100)), (F(-1, 2), F(6, 5))])
def test_cos_gate_times_each_weight_is_the_cos_system_bound(s, value):
    engine = _engine(Claim(ClaimKind.COS, s, value))
    gates = _bounds(engine.gate)
    b = s.denominator
    for k, weight in enumerate(engine.weights.values()):
        expected = [b ** (2 * n + 1) * tail_bound(TailKernel.COS_SYSTEM, s, n, k)
                    for n in INDICES]
        assert [gate * F(*weight) for gate in gates] == expected, k


@pytest.mark.parametrize("value, square", [(F(227, 23), False), (F(10), False),
                                           (F(49, 4), True), (F(961, 100), True), (F(9), True)])
def test_pi_squared_bound_is_at_most_the_sin_kernel_bound_at_the_root_bound(value, square):
    engine = _engine(Claim(ClaimKind.PI_SQUARED, None, value))
    root_hi = sqrt_bounds(value).hi
    reference = [value.denominator ** n * _sin_reference(root_hi, n) for n in INDICES]
    bounds = _bounds(engine.bound)
    assert all(bound <= ref for bound, ref in zip(bounds, reference))
    assert (bounds == reference) == square
    assert bounds[0] == reference[0]  # the root bound itself at n = 0


@pytest.mark.parametrize("s, value, square", [(F(1), F(1557, 1000), True),
                                              (F(9, 4), F(47, 5), True),
                                              (F(2, 3), F(6, 5), False),
                                              (F(1, 7), F(21, 20), False)])
def test_tan_ratio_bound_is_at_most_the_sin_kernel_bound_over_sinc(s, value, square):
    # the witness is q I_n / (2 s sinc(4s)) scaled by b**n, with I_n at r = 2t
    engine = _engine(Claim(ClaimKind.TAN_RATIO, s, value))
    sinc_record, _ = engine.enclosures
    r_hi = 2 * sqrt_bounds(s).hi
    factor = value.denominator / (2 * s * _min_abs(sinc_record))
    reference = [factor * s.denominator ** n * _sin_reference(r_hi, n) for n in INDICES]
    bounds = _bounds(engine.bound)
    assert all(bound <= ref for bound, ref in zip(bounds, reference))
    assert (bounds == reference) == square
