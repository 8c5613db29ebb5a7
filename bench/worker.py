"""One measured run of a workload, in a process of its own.

Started by run.py, which reads the single JSON line this prints.  The
process imports the program from ``<root>/src``, makes the workload's inputs
from the seed, runs one warm-up pass and then passes until ``--seconds``
have gone by.  Untraced, a batch of cold CLI starts precedes each pass.
With ``--trace 1`` the untraced passes fill half that time and one traced
pass follows, which gives the per-layer metrics.  A scan writes its output to ``<out>/stdout.txt`` as
``scrollhilb scan > file`` would; this process keeps no copy of it, so its
peak RSS is the program's.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import io
import json
import os
import statistics
import subprocess
import sys
import time
from array import array
from pathlib import Path


def peak_rss_mb() -> float:
    """Peak RSS of this process's own address space.  Unlike ``ru_maxrss``,
    it leaves out the parent's RSS, which Linux carries across the exec."""
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError("VmHWM not found in /proc/self/status")


def sha256_file(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


SETUP_BATCH = 4


def setup_launches(root: Path, n: int) -> list[float]:
    """Wall times of ``n`` fresh interpreters that import the CLI and build
    its parser: the cold start every CLI call pays."""
    cmd = [sys.executable, "-c", "import scrollhilb.cli as c; c.build_parser()"]
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    times = []
    for _ in range(n):
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, cwd=root, env=env, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, timeout=60)
        times.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            raise RuntimeError(f"CLI import failed: {proc.stderr.decode(errors='replace')}")
    return times


def library_pass(scroll_tuples, gonal_tuples, lib, out):
    """The notebook path: direct calls into the library package ``lib``.

    Names are looked up on the package at each call, as a caller of the
    library does, so that traced runs see every call.  Dimensions go into
    the arrays of ``out``, allocated at full size before the pass so that
    the benchmark's copy does not move the peak RSS; the indices of the
    tuples the program rejected are returned.
    """
    closed, explicit, counted, ys, z, zo = out
    scroll_rejected, gonal_rejected = [], []
    y = 0
    for i, (d, g, h1, m) in enumerate(scroll_tuples):
        try:
            p = lib.make_scroll(d, g, h1)
            closed[i] = lib.component_dimension(p, m)
            explicit[i] = lib.h0_explicit(p, m)
            counted[i] = lib.dim_via_parameter_count(p, m)
            for k in range(h1):
                ys[y + k] = lib.y_dim_lower_bound(lib.make_projection_params(d, g, h1, k, m))
        except lib.InvalidParameters:
            scroll_rejected.append(i)
        y += h1
    for i, (g, t, l) in enumerate(gonal_tuples):
        try:
            gp = lib.make_gonal_params(g, t, l, 6 * g - 5)
            z[i] = lib.z_component_dimension(gp)
            zo[i] = lib.z_dim_via_parameter_count(gp)
        except lib.InvalidParameters:
            gonal_rejected.append(i)
    return scroll_rejected, gonal_rejected


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--root", type=Path, required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--out", type=Path, required=True)
    a = ap.parse_args()

    sys.path.insert(0, str(a.root / "src"))
    import check
    import spans
    import workloads
    import scrollhilb
    from scrollhilb import cli

    clock = time.perf_counter
    a.out.mkdir(parents=True, exist_ok=True)

    if a.workload == "library-grid":
        scroll_tuples, gonal_tuples = workloads.library_tuples(a.seed)
        sizes = {
            "scroll_tuples": len(scroll_tuples),
            "projection_tuples": sum(t[2] for t in scroll_tuples),
            "gonal_tuples": len(gonal_tuples),
        }
        lengths = [len(scroll_tuples)] * 3 + [sizes["projection_tuples"]] + [len(gonal_tuples)] * 2

        def one_pass(tracer):
            out = [array("q", bytes(8 * n)) for n in lengths]
            args = (scroll_tuples, gonal_tuples, scrollhilb, out)
            t0 = clock()
            rejected = (tracer.run_pass("bench.library", library_pass, *args) if tracer
                        else library_pass(*args))
            wall = clock() - t0
            ops, failed, mismatches, notes = check.check_library(
                scroll_tuples, gonal_tuples, out, *rejected)
            return wall, {"ops": ops, "failed": failed, "mismatches": mismatches,
                          "bytes": 0, "notes": notes}
    else:
        argv, params = workloads.scan_argv(a.workload, a.seed)
        sizes = {"cells": len(workloads.scan_cells(argv))} | params
        out_path = a.out / "stdout.txt"

        def one_pass(tracer):
            err = io.StringIO()
            with open(out_path, "w", encoding="utf-8", newline="") as fh:
                t0 = clock()
                rc = (tracer.run_pass("cli.run", cli.run, argv, fh, err) if tracer
                      else cli.run(argv, fh, err))
                fh.flush()
                wall = clock() - t0
            text = err.getvalue()
            return wall, {"rc": rc, "bytes": out_path.stat().st_size,
                          "sha256": sha256_file(out_path),
                          "mismatches": text.count("verify: mismatch"),
                          "stderr": text[:2000]}

    def measured(tracer=None):
        gc.collect()
        return one_pass(tracer)

    passes = [measured()[1]]  # warm-up
    walls, setup_times = [], []
    if not a.trace:
        setup_launches(a.root, 1)  # fills the bytecode cache
    t_start = clock()
    untraced_for = a.seconds / 2 if a.trace else a.seconds
    while not walls or clock() - t_start < untraced_for:
        if not a.trace:
            setup_times += setup_launches(a.root, SETUP_BATCH)
        wall, info = measured()
        walls.append(wall)
        passes.append(info)
    rss_mb = peak_rss_mb()

    layer, missing, traced_walls = None, [], []
    if a.trace:
        tracer = spans.Tracer()
        tracer.install()
        try:
            wall, info = measured(tracer)
        finally:
            tracer.uninstall()
        traced_walls.append(wall)
        passes.append(info)
        measured_outside = {"cli.bytes_out": info["bytes"], "oracle.mismatches": info["mismatches"]}
        layer = tracer.metrics(measured_outside, wall - statistics.median(walls))
        missing = tracer.missing
        tracer.write(a.out)

    print(json.dumps({
        "walls": walls,
        "setup_times": setup_times,
        "traced_walls": traced_walls,
        "rss_mb": rss_mb,
        "sizes": sizes,
        "passes": passes,
        "layer": layer,
        "missing": missing,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
