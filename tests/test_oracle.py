"""Parameter-count oracle: bullet-sum examples and the twist check.  Its
agreement with the closed forms is acceptance criteria 01 and 05 (g <= 40)
and, for every integer, ``test_certificate.py``."""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

import scrollhilb
from scrollhilb import (
    GonalParams,
    ScrollParams,
    component_dimension,
    dim_via_parameter_count,
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
