"""Acceptance suite: one test per criterion, exact integer tolerances.

Each test prints a single ``[acceptance] criterion N (<name>): PASS|FAIL``
line (visible with ``pytest -s``) before asserting, so a red criterion still
reports itself.  The canonical grid is 3 <= g <= 40 with every existence-
compatible speciality, every admissible section degree, and degrees
{threshold, threshold+1, threshold+7, 6g-5, 6g}.
"""

from __future__ import annotations

import subprocess
import sys
import time

from grids import degree_values, scroll_grid, speciality_values
from scrollhilb import (
    GonalParams,
    InvalidParameters,
    ProjectionParams,
    ScrollParams,
    admissible_m_range,
    brill_noether_rho,
    classify,
    component_dimension,
    component_dimension_h1_1,
    dim_via_parameter_count,
    divisor_case,
    general_moduli_threshold,
    h0_explicit,
    h_component_dimension_at_gonal_m,
    normal_bundle_cohomology,
    rem19608_family,
    section_uniqueness_threshold,
    singular_point_predicate,
    y_dim_lower_bound,
    z_component_dimension,
    z_dim_via_parameter_count,
    z_vs_h_difference,
)
from scrollhilb.cli import run as cli_run
from scrollhilb.gonal import enumerate_z_components


def _finish(number: int, name: str, failures: list, extra: str = ""):
    status = "PASS" if not failures else "FAIL"
    suffix = f" {extra}" if extra else ""
    print(f"[acceptance] criterion {number} ({name}): {status}{suffix}")
    assert not failures, f"criterion {number} ({name}): first violation: {failures[0]}"


def test_criterion_01_triple_formula_agreement():
    failures = []
    count = 0
    start = time.perf_counter()
    for p, m in scroll_grid():
        count += 1
        closed = component_dimension(p, m)
        explicit = h0_explicit(p, m)
        counted = dim_via_parameter_count(p, m)
        if not closed == explicit == counted:
            failures.append((p.d, p.g, p.h1, m, closed, explicit, counted))
    elapsed = time.perf_counter() - start
    if elapsed >= 5.0:
        failures.append(("runtime", elapsed))
    _finish(1, "triple-formula agreement", failures,
            extra=f"[{count} tuples in {elapsed:.2f}s]")


def test_criterion_02_speciality_one_specialization():
    failures = []
    for g in range(3, 41):
        for d in degree_values(g, 1):
            via_m = component_dimension(ScrollParams(d, g, 1), 2 * g - 2)
            s = d - 2 * g + 3
            direct = 7 * (g - 1) + s * s - s
            if not via_m == direct == component_dimension_h1_1(d, g):
                failures.append((d, g, via_m, direct))
    if component_dimension_h1_1(10, 3) != 56:
        failures.append(("worked instance", 10, 3))
    _finish(2, "h1=1 specialization", failures)


def test_criterion_03_monotonicity_and_equidimensionality():
    failures = []
    for g in range(3, 41):
        for h1 in speciality_values(g):
            mrange = admissible_m_range(g, h1)
            for d in degree_values(g, h1):
                p = ScrollParams(d, g, h1)
                dims = [component_dimension(p, m) for m in mrange]
                for lo, hi in zip(dims, dims[1:]):
                    if hi - lo != 2 - h1:
                        failures.append((d, g, h1, "step", hi - lo))
            if h1 == 2:
                for d in degree_values(g, 2):
                    report = classify(ScrollParams(d, g, 2), include_gonal=True)
                    if not report.equidimensional:
                        failures.append((d, g, 2, "not equidimensional"))
    _finish(3, "monotonicity / equidimensionality", failures)


def test_criterion_04_gonal_worked_example():
    failures = []
    gp = GonalParams(19, 3, 5, 110)
    dim_z = z_component_dimension(gp)
    dim_h = h_component_dimension_at_gonal_m(gp)
    diff = z_vs_h_difference(gp)
    if dim_z != 6253:
        failures.append(("dimZ", dim_z))
    if dim_h != 6232:
        failures.append(("dimH", dim_h))
    if diff != 21 or diff != dim_z - dim_h:
        failures.append(("difference", diff))
    if diff != (gp.l - 2) * (gp.g + 1 + gp.l - gp.t * (gp.l + 1)):
        failures.append(("difference-form", diff))
    for l in range(5, 13):
        fam = rem19608_family(l)
        lhs = fam.l * fam.t * (fam.t - 1)
        rhs = 2 * fam.g - (fam.t - 1) - fam.t * (fam.t - 1)
        if lhs != rhs:
            failures.append(("kk-equality", l, lhs, rhs))
    _finish(4, "gonal worked example", failures)


def test_criterion_05_oracle_independence():
    failures = []
    for p, m in scroll_grid():
        if dim_via_parameter_count(p, m) != component_dimension(p, m):
            failures.append((p.d, p.g, p.h1, m))
    for g in range(3, 41):
        for l in range(2, g):
            for d in (6 * g - 5, 6 * g):
                for gp in enumerate_z_components(d, g, l):
                    if z_dim_via_parameter_count(gp) != z_component_dimension(gp):
                        failures.append((d, g, l, gp.t))
    _finish(5, "oracle independence", failures)


def test_criterion_06_singularity_predicate_equivalence():
    failures = []
    checked = 0
    for g in range(3, 41):
        for h1 in speciality_values(g):
            for m in admissible_m_range(g, h1):
                if 2 * g - 3 - m < 0:
                    continue
                checked += 1
                direct = g * (h1 + 1) >= h1 * (m + h1 + 2)
                via_rho = brill_noether_rho(g, h1 - 1, 2 * g - 3 - m) >= 0
                if direct != via_rho or singular_point_predicate(g, h1, m) != direct:
                    failures.append((g, h1, m, direct, via_rho))
    if checked == 0:
        failures.append(("empty grid",))
    _finish(6, "singularity predicate equivalence", failures)


def test_criterion_07_threshold_consistency():
    failures = []
    for g in range(3, 201):
        for h1 in range(1, g):
            lhs = section_uniqueness_threshold(g, h1)  # 4g - 2h1 - floor((g-1)/2) + 1
            rhs = general_moduli_threshold(g, h1)  # (7g - eps)/2 - 2h1 + 2
            if lhs != rhs:
                failures.append((g, h1, lhs, rhs))
    _finish(7, "threshold consistency", failures)


def test_criterion_08_normal_bundle_bookkeeping():
    failures = []
    for p, m in scroll_grid():
        try:
            c = normal_bundle_cohomology(p, m)
        except InvalidParameters as exc:
            # only the non-canonical speciality-1 degrees are undefined at t=0
            if not (exc.code == "negative-h1" and p.h1 == 1 and m < 2 * p.g - 2):
                failures.append((p.d, p.g, p.h1, m, exc.code))
            continue
        chi = 7 * (p.g - 1) + (p.R + 1) * (p.R + 1 - p.h1)
        if c.h2 != 0 or c.h0 - c.h1n != chi or c.chi != chi:
            failures.append((p.d, p.g, p.h1, m, "chi bookkeeping"))
        if (c.h1n == 0) != (p.h1 == 1 and m == 2 * p.g - 2):
            failures.append((p.d, p.g, p.h1, m, "h1n vanishing", c.h1n))
    _finish(8, "normal-bundle bookkeeping", failures)


def test_criterion_09_divisor_case_tightness():
    failures = []
    for g in range(3, 41):
        for d in degree_values(g, 1):
            pp = ProjectionParams(d, g, 1, 0, 2 * g - 2)
            dims = divisor_case(d, g)
            r1 = d - 2 * g + 2
            want = 7 * (g - 1) + r1 * r1 - 1
            if not y_dim_lower_bound(pp) == dims.y_dim == want:
                failures.append((d, g, y_dim_lower_bound(pp), dims.y_dim, want))
    _finish(9, "divisor case tightness", failures)


def test_criterion_10_determinism():
    import io

    failures = []
    commands = [
        ["classify", "--d", "10", "--g", "3", "--h1", "1", "--format", "json"],
        ["classify", "--d", "55", "--g", "10", "--h1", "2", "--gonal", "--format", "csv"],
        ["scan", "--g", "3..14", "--h1", "1..3", "--d", "min", "--format", "csv"],
        ["scan", "--g", "8..12", "--h1", "2..2", "--d", "min", "--verify"],
        ["gonal", "--family-19608", "--l", "6", "--format", "csv"],
        ["project", "--d", "29", "--g", "8", "--l", "2", "--k", "1", "--m", "9"],
    ]
    for argv in commands:
        runs = []
        for _ in range(2):
            out, err = io.StringIO(), io.StringIO()
            code = cli_run(argv, out, err)
            runs.append((code, out.getvalue(), err.getvalue()))
        if runs[0] != runs[1] or runs[0][0] != 0:
            failures.append((argv, runs[0][0]))
    # one end-to-end double run through the installed entry point
    argv = [sys.executable, "-m", "scrollhilb.cli",
            "classify", "--d", "29", "--g", "8", "--h1", "2", "--format", "csv"]
    procs = [subprocess.run(argv, capture_output=True) for _ in range(2)]
    if procs[0].stdout != procs[1].stdout or procs[0].returncode != 0:
        failures.append(("subprocess", procs[0].returncode))
    _finish(10, "determinism", failures)
