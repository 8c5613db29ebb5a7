"""Closed forms certified for every integer, not sampled on a grid.

A polynomial of degree at most D in each of its n variables that vanishes
on a product grid of D + 1 distinct values per variable is the zero
polynomial (interpolate one variable at a time).  Where two formulas are
polynomials of total degree <= D on one branch of their code, equality on
(D + 1)**n points x0 + sum(i_j * u_j), 0 <= i_j <= D, with the u_j the unit
vectors and every point inside the branch, proves them equal on the whole
branch, including the 2,000-digit inputs the CLI accepts.

The certificate takes one premise from reading the code, the degree bound,
and a hypothesis property locks it: the (D + 1)-th finite difference of
each side vanishes along random integer directions at points near 10**30.

Z(t, l): ``z_component_dimension`` and ``oracle.z_dim_via_parameter_count``
are polynomials of total degree 2 in (g, t, l, d), each with one branch on
every valid ``GonalParams``.  The oracle's other branch, a twist degree
e = d - 2m below 2g - 1, is never taken there: m = 2g - 2 - (l - 1)t and
d >= 6g - 5 give e >= 2g - 1 + 2(l - 1)t >= 2g - 1, as l >= 2 and t >= 3.
"""

from __future__ import annotations

from itertools import product
from math import comb

from hypothesis import given, settings
from hypothesis import strategies as st

from scrollhilb import GonalParams, z_component_dimension, z_dim_via_parameter_count

BIG = 10**30
DEGREE = 2


def _product_grid(base: tuple[int, ...]):
    """The points base + sum(i_j * e_j) with 0 <= i_j <= DEGREE."""
    for steps in product(range(DEGREE + 1), repeat=len(base)):
        yield tuple(b + i for b, i in zip(base, steps))


def test_z_dimension_identity_holds_for_every_integer():
    grid = [GonalParams(*point) for point in _product_grid((1000, 3, 2, 6100))]  # all valid
    assert [gp for gp in grid if z_component_dimension(gp) != z_dim_via_parameter_count(gp)] == []


def _finite_difference(f, point: tuple[int, ...], step: tuple[int, ...], order: int) -> int:
    """The ``order``-th forward difference of ``f`` along ``step`` at ``point``."""
    return sum((-1) ** (order - k) * comb(order, k) * f(*(x + k * s for x, s in zip(point, step)))
               for k in range(order + 1))


@st.composite
def z_line(draw) -> tuple[tuple[int, int, int, int], tuple[int, int, int, int]]:
    """A valid (g, t, l, d) near 10**30 and a step that keeps the next
    DEGREE + 1 points valid: t and l stay small, so the Ballico parameter
    and the very-ampleness margin stay of the size of g, and d stays at
    least 6g - 5."""
    step = draw(st.tuples(*[st.integers(-10, 10)] * 4))
    reach = (DEGREE + 1) * 10
    g = draw(st.integers(BIG, BIG + 10**6))
    t = draw(st.integers(3 + reach, 1000))
    l = draw(st.integers(2 + reach, 1000))
    d = draw(st.integers(6 * g - 5 + 7 * reach, 7 * g))
    return (g, t, l, d), step


@settings(derandomize=True, max_examples=200, deadline=None)
@given(line=z_line())
def test_both_z_dimensions_have_degree_at_most_two(line):
    point, step = line
    for f in (z_component_dimension, z_dim_via_parameter_count):
        assert _finite_difference(lambda *x: f(GonalParams(*x)), point, step, DEGREE + 1) == 0
