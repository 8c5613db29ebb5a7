"""Parameter-count oracle: bullet-sum examples and full agreement with the
closed forms."""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import scrollhilb
from grids import scroll_grid
from scrollhilb import (
    GonalParams,
    ScrollParams,
    admissible_m_range,
    component_dimension,
    component_dimension_formula,
    dim_via_parameter_count,
    h0_explicit,
    min_degree_threshold,
    z_component_dimension,
    z_dim_via_parameter_count,
)


def test_bullet_sum_examples():
    # 6 + 0 + 3 + 0 + 48 - 1
    assert dim_via_parameter_count(ScrollParams(10, 3, 1), 4) == 56
    # 21 + 0 + 8 + 0 + 288 - 5
    assert dim_via_parameter_count(ScrollParams(29, 8, 2), 9) == 312


def test_z_bullet_sum_examples():
    # 39 + 19 + 6240 - 45
    assert z_dim_via_parameter_count(GonalParams(19, 3, 5, 110)) == 6253
    # 45 + 22 + 8280 - 53
    assert z_dim_via_parameter_count(GonalParams(22, 3, 6, 127)) == 8294
    assert z_component_dimension(GonalParams(22, 3, 6, 127)) == 8294


def test_oracle_covers_both_extension_regimes():
    # vanishing extension space (decomposable bundle)
    p = ScrollParams(29, 8, 2)
    assert dim_via_parameter_count(p, 9) == component_dimension(p, 9)
    # one-dimensional extension space: no projectivization parameters, but
    # the stabilizer also loses its torus
    p = ScrollParams(14, 4, 1)
    assert p.d - 2 * 6 == 4 - 2  # twist degree g - 2
    assert dim_via_parameter_count(p, 6) == component_dimension(p, 6)


def test_oracle_agreement_on_grid():
    for p, m in scroll_grid(18):
        assert dim_via_parameter_count(p, m) == component_dimension(p, m)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(data=st.data(), g=st.integers(3, 10**6))
def test_three_dimension_forms_agree_at_large_genus(data, g):
    h1 = data.draw(st.integers(1, max(1, g // 4)))  # general moduli: g >= 4*h1, or (3, 1)
    ms = admissible_m_range(g, h1)
    m = data.draw(st.integers(ms[0], ms[-1]))
    d = min_degree_threshold(g, h1) + data.draw(st.integers(0, 8 * g))
    p = ScrollParams(d, g, h1)
    dim = component_dimension_formula(d, g, h1, m)
    assert h0_explicit(p, m) == dim
    assert dim_via_parameter_count(p, m) == dim


def test_z_oracle_rejects_a_special_twist():
    # below d = 6g - 5 the twist of degree d - 2m can be special; GonalParams
    # rejects such a degree, so the oracle sees it only from a stand-in
    gp = SimpleNamespace(g=19, t=3, l=5, d=60)
    with pytest.raises(RuntimeError, match="twist degree 12 < 2g - 1 = 37"):
        z_dim_via_parameter_count(gp)


def test_z_oracle_twist_check_fires_under_optimize():
    src = str(Path(scrollhilb.__file__).resolve().parents[1])
    code = (
        "from types import SimpleNamespace\n"
        "from scrollhilb import z_dim_via_parameter_count\n"
        "try:\n    z_dim_via_parameter_count(SimpleNamespace(g=19, t=3, l=5, d=60))\n"
        "except RuntimeError as exc:\n    print('raised', exc)\n"
    )
    out = subprocess.run(
        [sys.executable, "-O", "-c", code], env={"PYTHONPATH": src},
        capture_output=True, text=True, check=True,
    ).stdout
    assert out == "raised z_dim_via_parameter_count: twist degree 12 < 2g - 1 = 37\n"
