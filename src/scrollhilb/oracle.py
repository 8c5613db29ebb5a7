"""Independent parameter-count re-derivations of every component dimension.

Each closed-form dimension elsewhere in the package has a counterpart here
that assembles the same number from the moduli-count recipe: parameters of
the base curve, of the section's series, of the complementary bundle, of the
extension choice, plus the projectivity group of the ambient space, minus
the stabilizer of the scroll.

The point of this module is independence: the Brill-Noether number, the
extension-space rank and the automorphism-group dimension are recomputed
from first principles inline (their own Riemann-Roch bookkeeping), not
imported from the modules whose formulas they cross-check.  It is exercised
by the test suite and by the CLI ``--verify`` flag, and is allowed to be
slower than the closed forms.
"""

from __future__ import annotations

from .gonal import GonalParams
from .scroll import ScrollParams, require_admissible


def dim_via_parameter_count(p: ScrollParams, m: int) -> int:
    """Dimension of the general-moduli component at section degree ``m``,
    as a sum of parameter counts:

        (3g - 3)                 moduli of the base curve
      + rho(g, h, m)             moduli of the section's series
      + g                        moduli of the complementary bundle
      + max(0, t - 1)            projectivized extension choices
      + ((R+1)^2 - 1)            projectivities of the ambient space
      - dim(stabilizer)          projectivities fixing the scroll
    """
    require_admissible(p, m)
    d, g, h1 = p

    # series: h-dimensional, degree m, speciality h1 = g - m + h
    h = m - g + h1
    rho = g - (h + 1) * (h - m + g)

    # extension space of the section's bundle by its complement: a general
    # twist of degree e = d - 2m, h1 = max(0, g - 1 - e) by Riemann-Roch
    e = d - 2 * m
    t_ext = g - 1 - e if e < g - 1 else 0
    ext_choices = t_ext - 1 if t_ext > 1 else 0

    # the bundle splits when the extension space vanishes or d >= 6g - 5;
    # the stabilizer then gains a one-parameter torus
    decomposable = d >= 6 * g - 5 or t_ext == 0
    stab = (e - g + 1 if e > g - 1 else 0) + (1 if decomposable else 0)

    ambient = d - 2 * g + 2 + h1  # global sections of the rank-two bundle
    pgl = ambient * ambient - 1

    return (3 * g - 3) + rho + g + ext_choices + pgl - stab


def z_dim_via_parameter_count(gp: GonalParams) -> int:
    """Dimension of the gonal component Z(t, l), as a sum of parameter
    counts:

        (2g + 2t - 5)            moduli of the gonal base curve
      + g                        moduli of the complementary bundle
      + ((R+1)^2 - 1)            projectivities of the ambient space
      - (h0(twist) + 1)          stabilizer of the (split) scroll

    The section's series is canonical minus (l-1) pencils, hence carries no
    extra parameters; the bundle always splits in the range d >= 6g - 5.
    """
    g, t, l, d = gp.g, gp.t, gp.l, gp.d

    gonal_moduli = 2 * g + 2 * t - 5

    m = 2 * g - 2 - (l - 1) * t
    e = d - 2 * m
    if e < 2 * g - 1:  # the twist is non-special, forcing the splitting
        raise RuntimeError(
            f"z_dim_via_parameter_count: twist degree {e} < 2g - 1 = {2 * g - 1}"
        )
    stab = (e - g + 1) + 1

    ambient = d - 2 * g + 2 + l
    pgl = ambient * ambient - 1

    return gonal_moduli + g + pgl - stab
