"""Correctness gate of the benchmark.

Scans: every emitted dimension is recomputed through the program's
independent parameter-count oracle; rows must come in (g, h1, d, m) order
with a cell's gonal rows after its general-moduli rows; every cell that has
general moduli must emit exactly its admissible section degrees, and, under
``--gonal``, exactly its valid gonalities.  Cells without general moduli may
emit gonal rows (they are checked against the oracle only), so a fix that
starts reporting them is not rejected.

Library grid: closed form = ``h0_explicit`` = oracle for every scroll tuple,
the projected-family lower bound equals the parameter count written out
below, and the gonal closed form equals its oracle.

An operation is one scan cell or one library tuple; each check returns the
operations that failed.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

import workloads


def projected_parameter_count(d: int, g: int, l: int, k: int, m: int) -> int:
    """Dimension bound of the projected family Y(k, l), assembled from its
    parameter counts: base curve, complementary bundle, section series,
    extension choice, projection centres and ambient projectivities, minus
    the stabilizer."""
    r1 = d - 2 * g + 2 + k
    e = d - 2 * m
    h1_twist = max(0, g - 1 - e)
    h0_twist = max(0, e - g + 1)
    decomposable = h1_twist == 0
    ext_choice = 0 if decomposable else h1_twist - 1
    stabilizer = h0_twist + 1 if decomposable else h0_twist
    series = g - l * (m - g + l + 1)
    return (3 * g - 3) + g + series + ext_choice + r1 * (l - k) + (r1 * r1 - 1) - stabilizer


def _rows(path: Path, fmt: str):
    """Yield (kind, d, g, h1, m, t, l, dim) for every emitted row."""
    if fmt == "csv":
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            col = {name: i for i, name in enumerate(next(reader))}
            for rec in reader:
                t, l = rec[col["t"]], rec[col["l"]]
                yield (rec[col["kind"]], int(rec[col["d"]]), int(rec[col["g"]]),
                       int(rec[col["h1"]]), int(rec[col["m"]]), int(t) if t else None,
                       int(l) if l else None, int(rec[col["dim"]]))
    else:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
        for r in doc["rows"]:
            yield (r["kind"], r["d"], r["g"], r["h1"], r["m"], r["t"], r["l"], r["dim"])


def check_scan(path: Path, argv: list[str], scrollhilb) -> tuple[set, dict]:
    """Failed cells of one scan output, and what the output held."""
    fmt = argv[argv.index("--format") + 1]
    with_gonal = "--gonal" in argv
    cells = workloads.scan_cells(argv)
    index = {cell: i for i, cell in enumerate(cells)}
    general = {cell: [] for cell in cells}
    gonal = {cell: [] for cell in cells}
    failed: set = set()
    notes: list[str] = []
    oracle = scrollhilb.oracle
    stats = {"rows": 0, "gonal_rows": 0}
    prev = (-1,)
    params = None
    try:
        for kind, d, g, h1, m, t, l, dim in _rows(path, fmt):
            stats["rows"] += 1
            cell = (g, h1, d)
            if cell not in index:
                notes.append(f"row outside the grid: {cell}")
                return set(cells), stats | {"cells": len(cells), "notes": notes[:20]}
            if kind == "gonal":
                stats["gonal_rows"] += 1
                key = (index[cell], 1, t)
                gonal[cell].append(t)
            else:
                key = (index[cell], 0, m)
                general[cell].append(m)
            if key <= prev:
                failed.add(cell)
                notes.append(f"row out of order at {cell}")
            prev = key
            try:
                if kind == "gonal":
                    gp = scrollhilb.gonal.GonalParams(g=g, t=t, l=l, d=d)
                    want = oracle.z_dim_via_parameter_count(gp)
                    if l != h1:
                        want = None
                else:
                    if params is None or (params.d, params.g, params.h1) != (d, g, h1):
                        params = scrollhilb.scroll.ScrollParams(d, g, h1)
                    want = oracle.dim_via_parameter_count(params, m)
            except scrollhilb.errors.InvalidParameters as exc:
                want = f"rejected ({exc.code})"
            if want != dim:
                failed.add(cell)
                notes.append(f"dim {dim} at {cell} m={m} t={t}: oracle gives {want}")
    except (KeyError, ValueError, TypeError, IndexError, StopIteration) as exc:
        notes.append(f"unreadable {fmt} output: {exc!r}")
        return set(cells), stats | {"cells": len(cells), "notes": notes[:20]}
    for cell in cells:
        expect_m = workloads.general_rows_m(*cell)
        if general[cell] != expect_m:
            failed.add(cell)
            notes.append(f"general rows at {cell}: m {general[cell]}, expected {expect_m}")
        if not with_gonal and gonal[cell]:
            failed.add(cell)
            notes.append(f"gonal rows at {cell} without --gonal")
        elif with_gonal and expect_m:
            expect_t = workloads.gonal_rows_t(*cell)
            if gonal[cell] != expect_t:
                failed.add(cell)
                notes.append(f"gonal rows at {cell}: t {gonal[cell]}, expected {expect_t}")
    stats["cells"] = len(cells)
    stats["notes"] = notes[:20]
    return failed, stats


def check_library(scroll_tuples, gonal_tuples, out, scroll_rejected, gonal_rejected):
    """Operations, failed operations, oracle mismatches and the first few
    failures of one library pass.

    ``out`` holds the dimensions the pass computed, indexed like the tuples
    (projections: h1 consecutive slots per scroll tuple); the rejected
    lists give the indices of the tuples the program refused.  Each scroll
    tuple, each of its projections (one per k < h1) and each gonal tuple is
    one operation; a rejected scroll tuple fails with all its projections.
    """
    closed, explicit, counted, ys, z, zo = out
    ops = len(gonal_tuples)
    failed = len(scroll_rejected) + len(gonal_rejected)
    mismatches = 0
    notes = [f"scroll tuple rejected: (d, g, h1, m) = {scroll_tuples[i]}"
             for i in scroll_rejected[:5]]
    notes += [f"gonal tuple rejected: (g, t, l) = {gonal_tuples[i]}" for i in gonal_rejected[:5]]
    rejected = set(scroll_rejected)
    y = 0
    for i, (d, g, h1, m) in enumerate(scroll_tuples):
        ops += 1 + h1
        y += h1
        if i in rejected:
            failed += h1
            continue
        if not closed[i] == explicit[i] == counted[i]:
            failed += 1
            notes.append(f"closed {closed[i]}, h0_explicit {explicit[i]}, oracle "
                         f"{counted[i]} at (d, g, h1, m) = {(d, g, h1, m)}")
        mismatches += counted[i] != closed[i]
        for k in range(h1):
            want = projected_parameter_count(d, g, h1, k, m)
            if ys[y - h1 + k] != want:
                failed += 1
                notes.append(f"projection bound {ys[y - h1 + k]} != parameter count {want} "
                             f"at (d, g, l, k, m) = {(d, g, h1, k, m)}")
    rejected = set(gonal_rejected)
    for i, tup in enumerate(gonal_tuples):
        if i not in rejected and z[i] != zo[i]:
            failed += 1
            mismatches += 1
            notes.append(f"gonal dimension {z[i]} != oracle {zo[i]} at (g, t, l) = {tup}")
    return ops, failed, mismatches, notes[:20]
