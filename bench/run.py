"""Benchmark of scrollhilb: seeded grid workloads, end to end and per layer.

    python3 bench/run.py --workload scan-gonal-verify --seed 1 --seconds 45 --trace 0
    python3 bench/run.py --workload all

Run from the root of a checkout.  Each workload is a closed loop in one
single-threaded process: a pass is one in-process call sequence into the
program (``scrollhilb.cli.run`` for the scans, the public library functions
for the grid), and the next pass starts when the previous one returns.
BENCHMARK.json lists scan-gonal-verify and library-grid, which between them
reach every layer.  scan-general (the CSV path) runs by hand and under
``--workload all``; it is left out of the list because with two workloads
each run fits a longer measurement into the same total time, which steadies
the figures on a host whose speed drifts.

With ``--trace 0`` the run reports the end-to-end metrics: ``setup_s``, the
median wall time of a fresh interpreter that imports ``scrollhilb.cli`` and
builds its parser (launched in batches between the passes, so that its
median and that of the passes sample the same stretch of time);
``wall_s``, the median time of one pass in a warmed process; and
``peak_rss_mb``, the peak RSS of that process.  With
``--trace 1`` it reports the per-layer metrics of one traced pass (see
spans.py).  Every output is checked (see check.py); the last line of
stdout is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``, and the exit code is 1 when any operation failed.  A record of
each run, with the generated input sizes and the output hashes, is written
to ``.bench_out/results/`` for compare.py; baseline.json holds the figures
of the commit that defined the benchmark.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import check
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
DEADLINE_S = 170.0
E2E_UNITS = {"wall_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}


def unit_of(metric: str) -> str:
    """Unit of a per-layer metric, from its name."""
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_us"):
        return "us"
    if metric.endswith(("_ratio", "_share")):
        return "ratio"
    if metric.endswith("bytes_out"):
        return "bytes"
    return "count"


def run_worker(workload: str, seed: int, seconds: float, trace: int, out: Path,
               deadline: float) -> dict:
    cmd = [sys.executable, str(BENCH / "worker.py"), "--root", str(ROOT),
           "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), "--out", str(out)]
    env = dict(os.environ, PYTHONHASHSEED="0")
    # own process group, so that a timeout also ends the worker's children
    with subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                          start_new_session=True) as proc:
        try:
            stdout, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            raise
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}")
    return json.loads(stdout.decode().strip().splitlines()[-1])


def gate(workload: str, seed: int, res: dict, out: Path) -> tuple[int, int, dict]:
    """Operations attempted and failed over every pass of the run."""
    passes = res["passes"]
    if workload == "library-grid":
        notes = next((p["notes"] for p in passes if p["notes"]), [])
        return (sum(p["ops"] for p in passes), sum(p["failed"] for p in passes),
                {"notes": notes})
    import scrollhilb

    argv, _ = workloads.scan_argv(workload, seed)
    failed_cells, stats = check.check_scan(out / "stdout.txt", argv, scrollhilb)
    cells = stats["cells"]
    checked = passes[-1]["sha256"]
    attempted = failed = 0
    for p in passes:
        attempted += cells
        if p["rc"] != 0 or p["sha256"] != checked:
            failed += cells
            stats["notes"].append(f"pass exit code {p['rc']}, stderr {p['stderr'][:200]!r}")
        else:
            failed += len(failed_cells)
    stats["sha256"] = checked
    stats["bytes"] = passes[-1]["bytes"]
    return attempted, failed, stats


def run_workload(workload: str, seed: int, seconds: float, trace: int, deadline: float) -> dict:
    out = ROOT / ".bench_out" / workload
    out.mkdir(parents=True, exist_ok=True)
    res = run_worker(workload, seed, seconds, trace, out, deadline)
    attempted, failed, stats = gate(workload, seed, res, out)
    if trace:
        metrics = {k: {"value": v, "unit": unit_of(k)} for k, v in res["layer"].items()}
    else:
        values = {"wall_s": statistics.median(res["walls"]), "peak_rss_mb": res["rss_mb"],
                  "setup_s": statistics.median(res["setup_times"])}
        metrics = {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in values.items()}
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    sizes = res["sizes"] | {k: stats[k] for k in ("rows", "gonal_rows", "bytes") if k in stats}
    record = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "python": platform.python_version(), "nproc": os.cpu_count(),
        "sizes": sizes, "sha256": stats.get("sha256"),
        "walls": res["walls"], "traced_walls": res["traced_walls"],
        "setup_launches": len(res["setup_times"]),
        "missing": res["missing"], "notes": stats["notes"], "result": result,
    }
    results = ROOT / ".bench_out" / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{workload}-seed{seed}-trace{trace}.json").write_text(json.dumps(record, indent=1))
    report(record)
    return record


def report(record: dict) -> None:
    result = record["result"]
    sizes = " ".join(f"{k}={v}" for k, v in record["sizes"].items())
    passes = f"passes={len(record['walls'])}+{len(record['traced_walls'])} traced"
    print(f"{record['workload']}  seed={record['seed']}  {sizes}  {passes}"
          + (f"  sha256={record['sha256'][:16]}" if record["sha256"] else ""))
    for name, m in result["metrics"].items():
        print(f"  {name:44s} {m['value']:>16.6g} {m['unit']}")
    rate = result["failed"] / result["attempted"]
    print(f"  {'fail_rate':44s} {rate:>16.6g} ratio  "
          f"({result['failed']} of {result['attempted']} operations)")
    for note in record["notes"]:
        print(f"  failure: {note}", file=sys.stderr)
    for name in record["missing"]:
        print(f"  missing: wrapped name {name} no longer exists; its metrics are left out",
              file=sys.stderr)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=workloads.WORKLOADS + ("all",), required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=45)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args()
    if not (ROOT / "src" / "scrollhilb" / "cli.py").is_file():
        print(f"program source not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    names = workloads.WORKLOADS if a.workload == "all" else (a.workload,)
    deadline = time.monotonic() + DEADLINE_S * len(names)
    records = [run_workload(w, a.seed, a.seconds, a.trace, deadline) for w in names]
    if len(records) == 1:
        result = records[0]["result"]
    else:
        result = {
            "correct": all(r["result"]["correct"] for r in records),
            "attempted": sum(r["result"]["attempted"] for r in records),
            "failed": sum(r["result"]["failed"] for r in records),
            "metrics": {f"{r['workload']}.{k}": v
                        for r in records for k, v in r["result"]["metrics"].items()},
        }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
