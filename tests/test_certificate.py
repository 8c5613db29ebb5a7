"""Closed forms certified for every integer, not sampled on a grid.

A polynomial of degree <= D in each of n variables that vanishes on a
product grid of D + 1 values per variable is zero (interpolate one variable
at a time).  Each row of ``CERTIFICATES`` holds integer ``terms``, the
``residuals`` an identity says are 0, the ``branch`` of the code, a base x0
and n independent integer directions u_j.  In the coordinates i_j of
x0 + sum(i_j * u_j), every term is on its branch a polynomial of degree
<= D = 2 in each i_j.  So a residual that is 0 at the (D + 1)**n grid points
0 <= i_j <= D, all inside the branch (asserted), is 0 at every lattice point
of the branch, the 2,000-digit CLI inputs included.  The directions are
affine, not only unit vectors.  The h1 = 3 row spans only g = 0 (mod 3), but
its terms are polynomials in (d, g, m), and one that vanishes on a full-rank
lattice is zero.  The threshold's two forms are polynomials on each parity
class of g, which is then the branch.  The degree bound is the one premise
read from the code, and a hypothesis property locks it: near 10**30, the
(D + 1)-th finite difference of every term along each direction vanishes.
README ("Install and test") lists the certified identities.

Branch lemma: the oracle is non-split only at h1 = 1 and h1 = 3.
Non-split means d <= 2m + g - 2, with d >= threshold and
m <= mbar = g // h1 - 1 + g - h1.  At h1 = 2, 2 * mbar + g - 2 <= 4g - 8,
below 4g - 3.  At h1 >= 4, 4 * (g // h1) <= g gives
2 * (2 * mbar + g - 2) <= 7g - 4h1 - 8, below 7g - 4h1 + 3 <=
7g - eps - 4h1 + 4 = 2 * threshold.  And non-split d <= 2m + g - 2 <= 5g - 6
< 6g - 5, as m <= 2g - 2.  A brute force over every cell with g <= 300
locks the lemma; up to g < 1,500 it finds h1 in {1, 3} alone as well.  The
Z(t, l) oracle's branch e < 2g - 1 is never taken: m = 2g - 2 - (l - 1)t
and d >= 6g - 5 give e >= 2g - 1 + 2(l - 1)t.
"""

from __future__ import annotations

from collections.abc import Callable
from itertools import product
from math import comb
from typing import NamedTuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scrollhilb import GonalParams, ProjectionParams, ScrollParams
from scrollhilb import components, gonal, oracle, projections, scroll, series

BIG = 10**30
DEGREE = 2


class Certificate(NamedTuple):
    terms: tuple[Callable[..., int], ...]
    residuals: Callable[..., tuple[int, ...]]
    branch: Callable[..., bool]
    base: tuple[int, ...]
    directions: tuple[tuple[int, ...], ...]
    far: tuple[int, ...]  # the base near 10**30 of the degree premise


def _all_equal(first: int, *rest: int) -> tuple[int, ...]:
    return tuple(first - value for value in rest)


def _split(d: int, g: int, h1: int, m: int) -> bool:
    """The oracle's t_ext = 0 branch: the twist d - 2m is non-special."""
    return d - 2 * m >= g - 1


def _non_split(d: int, g: int, h1: int, m: int) -> bool:
    """The oracle's t_ext >= 1 branch, with the bundle not forced to split."""
    return d - 2 * m <= g - 2 and d < 6 * g - 5


def _gonal(f: Callable[[GonalParams], int]) -> Callable[..., int]:
    return lambda g, t, l, d: f(GonalParams(g, t, l, d))


def _projection(f: Callable[[ProjectionParams], int]) -> Callable[..., int]:
    return lambda d, g, l, k, m: f(ProjectionParams(d, g, l, k, m))


def _unit(n: int, skip: int | None = None) -> tuple[tuple[int, ...], ...]:
    """The unit vectors of Z**n, but for the ``skip``-th coordinate."""
    return tuple(tuple(int(i == j) for i in range(n)) for j in range(n) if j != skip)


formula = components.component_dimension_formula
TRIPLE = (formula, lambda d, g, h1, m: scroll.h0_explicit(ScrollParams(d, g, h1), m),
          lambda d, g, h1, m: oracle.dim_via_parameter_count(ScrollParams(d, g, h1), m))
THRESHOLDS = (scroll.section_uniqueness_threshold, scroll.general_moduli_threshold)

CERTIFICATES = {
    # (d, g, h1, m); at h1 = 1 and h1 = 3 a polynomial in (d, g, m)
    "triple-split": Certificate(TRIPLE, _all_equal, _split, (4000, 1000, 5, 1100), _unit(4),
                                (4 * BIG, BIG, 1000, BIG)),
    "triple-non-split-h1-1": Certificate(TRIPLE, _all_equal, _non_split, (4000, 1000, 1, 1900),
                                         _unit(4, skip=2), (4 * BIG, BIG, 1, 19 * BIG // 10)),
    "triple-non-split-h1-3": Certificate(TRIPLE, _all_equal, _non_split, (3520, 1002, 3, 1320),
                                         ((1, 0, 0, 0), (11, 3, 0, 4), (0, 0, 0, 1)),
                                         (355 * BIG // 100, BIG, 3, 13 * BIG // 10)),
    # (g, t, l, d)
    "z-dimension": Certificate(
        (_gonal(gonal.z_component_dimension), _gonal(oracle.z_dim_via_parameter_count),
         _gonal(gonal.h_component_dimension_at_gonal_m), _gonal(gonal.z_vs_h_difference),
         _gonal(lambda gp: formula(gp.d, gp.g, gp.l, gp.m))),
        lambda z, counted, h, excess, f: (z - counted, z - h - excess, h - f),
        lambda g, t, l, d: d - 2 * GonalParams(g, t, l, d).m >= 2 * g - 1,
        (1000, 3, 2, 6100), _unit(4), (BIG, 3, 2, 6 * BIG + 1000)),
    # (d, g, l, k, m)
    "target-margin": Certificate(
        (_projection(projections.y_dim_lower_bound), lambda d, g, l, k, m: formula(d, g, k, m),
         _projection(projections.y_vs_target_difference), lambda d, g, l, k, m: k * (l - k)),
        lambda y, f, margin, kl: (y - f - margin - kl,),
        lambda *x: True, (4000, 1000, 5, 1, 1100), _unit(5), (4 * BIG, BIG, 1000, 100, BIG)),
    "non-special-margin": Certificate(
        (_projection(projections.y_dim_lower_bound),
         _projection(lambda pp: 7 * (pp.g - 1) + (pp.r + 1) ** 2),
         _projection(projections.y_vs_nonspecial_difference)),
        lambda y, nonspecial, margin: (y - nonspecial - margin,),
        lambda *x: True, (4000, 1000, 5, 0, 1100), _unit(5, skip=3), (4 * BIG, BIG, 1000, 0, BIG)),
    # (g, h1)
    "threshold-even-g": Certificate(THRESHOLDS, _all_equal, lambda g, h1: g % 2 == 0,
                                    (1000, 1), ((2, 0), (0, 1)), (BIG, 100)),
    "threshold-odd-g": Certificate(THRESHOLDS, _all_equal, lambda g, h1: g % 2 == 1,
                                   (1001, 1), ((2, 0), (0, 1)), (BIG + 1, 100)),
    # (g, r, m)
    "rho": Certificate(
        (series.brill_noether_rho, lambda g, r, m: series.rho_of_bundle(g, r + 1, g - m + r)),
        _all_equal, lambda *x: True, (1000, 10, 1000), _unit(3), (BIG, 100, BIG)),
}


def _point(base: tuple[int, ...], directions, coefficients) -> tuple[int, ...]:
    """base + sum(c_j * u_j)."""
    return tuple(b + sum(c * u[i] for c, u in zip(coefficients, directions))
                 for i, b in enumerate(base))


@pytest.mark.parametrize("cert", CERTIFICATES.values(), ids=CERTIFICATES)
def test_identity_holds_for_every_integer_of_its_branch(cert):
    grid = [_point(cert.base, cert.directions, steps)
            for steps in product(range(DEGREE + 1), repeat=len(cert.directions))]
    assert [x for x in grid if not cert.branch(*x)] == []
    assert [x for x in grid if any(cert.residuals(*(f(*x) for f in cert.terms)))] == []


@pytest.mark.parametrize("cert", CERTIFICATES.values(), ids=CERTIFICATES)
@settings(derandomize=True, max_examples=40, deadline=None)
@given(data=st.data())
def test_every_term_has_degree_at_most_two_along_each_direction(cert, data):
    # every point of the DEGREE + 2 point lines has coefficients in [0, 130]
    n = len(cert.directions)
    start = data.draw(st.lists(st.integers(0, 100), min_size=n, max_size=n))
    for j, step in enumerate(data.draw(st.tuples(*[st.integers(1, 10)] * n))):
        moved = [start[:j] + [start[j] + k * step] + start[j + 1:] for k in range(DEGREE + 2)]
        line = [_point(cert.far, cert.directions, coefficients) for coefficients in moved]
        assert all(cert.branch(*x) for x in line)
        for f in cert.terms:
            assert sum((-1) ** k * comb(DEGREE + 1, k) * f(*x) for k, x in enumerate(line)) == 0


def test_the_oracle_is_non_split_only_at_specialities_1_and_3():
    # at the least degree, the threshold, the twist d - 2m is smallest
    non_split = set()
    for g in range(3, 301):
        for h1 in range(1, g):
            if not series._has_general_moduli(g, h1):
                break
            d = scroll.min_degree_threshold(g, h1)
            for m in components.admissible_m_range(g, h1):
                if not _split(d, g, h1, m):
                    assert _non_split(d, g, h1, m) and _non_split(2 * m + g - 2, g, h1, m)
                    non_split.add(h1)
    assert non_split == {1, 3}
