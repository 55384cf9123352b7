"""Shared oracles for the test suite.

The quadrature oracle is an adaptive Simpson rule written here, independent
of the integration routines the package uses, so derived reference values
are cross-checked by a second method.
"""

import numpy as np
import pytest

from bendflow import GridFunction, UniformGrid
from bendflow.discretization import (
    _derivative_tables,
    _energy_gradient_raw,
    _energy_hessian_bands,
    _energy_raw,
)


def simpson_adaptive(f, a, b, tol=1e-12, max_depth=60):
    """Classic recursive adaptive Simpson quadrature."""

    def simpson(fa, fm, fb, a_, b_):
        return (b_ - a_) / 6.0 * (fa + 4.0 * fm + fb)

    def recurse(a_, b_, fa, fm, fb, whole, tol_, depth):
        m = 0.5 * (a_ + b_)
        lm, rm = 0.5 * (a_ + m), 0.5 * (m + b_)
        flm, frm = f(lm), f(rm)
        left = simpson(fa, flm, fm, a_, m)
        right = simpson(fm, frm, fb, m, b_)
        if depth >= max_depth or abs(left + right - whole) <= 15.0 * tol_:
            return left + right + (left + right - whole) / 15.0
        return (recurse(a_, m, fa, flm, fm, left, tol_ / 2.0, depth + 1)
                + recurse(m, b_, fm, frm, fb, right, tol_ / 2.0, depth + 1))

    fa, fb = f(a), f(b)
    m = 0.5 * (a + b)
    fm = f(m)
    whole = simpson(fa, fm, fb, a, b)
    return recurse(a, b, fa, fm, fb, whole, tol, 0)


def mirrored(grid: UniformGrid, fn) -> GridFunction:
    """Sample fn on the left half and mirror, for bitwise-symmetric data."""
    left = np.array([fn(x) for x in grid.nodes[: grid.n // 2 + 1]])
    return GridFunction.from_symmetric_half(grid, left)


def kernel_point(u, h):
    """(tables, grad E_h, powers) of the nodal values u, the kernels chained
    as a step chains them: the gradient reads the s^(-5/2) the energy
    formed, and powers = (s^(-5/2), s^(-7/2)) is what the Hessian reads."""
    tables = _derivative_tables(u, h)
    s25 = _energy_raw(*tables, h)[1]
    g, s35 = _energy_gradient_raw(*tables, s25, h)
    return tables, g, (s25, s35)


def hessian_bands(u, h):
    """The Hessian bands of E_h at the nodal values u, as a step builds them."""
    tables, _, powers = kernel_point(u, h)
    return _energy_hessian_bands(*tables, *powers, h)


@pytest.fixture(scope="session")
def grid200():
    return UniformGrid(200)


@pytest.fixture(scope="session")
def grid100():
    return UniformGrid(100)
