"""The oracle's rows against the one pass by parts that derived all six
families' rows before the sin and exp kernels' were read off their closed
form (``reference.coefficients_by_parts``)."""

import pytest

from irrcert.oracle import IntegrandFamily, coefficients

from reference import coefficients_by_parts

KERNELS = (IntegrandFamily.SIN_KERNEL, IntegrandFamily.EXP_KERNEL)


@pytest.mark.parametrize("family", list(IntegrandFamily))
def test_rows_equal_the_pass_by_parts(family):
    # the kernels' closed form also past the n <= 60 that the tracks check
    for n in [*range(61), *((100, 150, 200) if family in KERNELS else ())]:
        rows = coefficients(family, n)
        assert rows == coefficients_by_parts(family, n), n
        if family is IntegrandFamily.SIN_KERNEL:
            # u_n and v_n / r are polynomials in r**2
            u, _, v = rows
            assert not any(u[1::2]) and not any(v[0::2]), n
