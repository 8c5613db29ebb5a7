"""Compare two sets of benchmark runs: a parent commit and a change.

    python3 bench/compare.py PARENT_RESULTS CHANGE_RESULTS

Each argument is a ``.bench_out/results`` directory written by run.py from
a checkout of that commit, with the same seeds and ``--seconds`` on both
sides.  One row per workload and metric gives each side's median and
quartiles, the pairs (same seed) the change won, and a verdict:

* ``better``: the change won at least nine tenths of the pairs (ties count
  for neither) and the medians differ by more than the parent's own spread,
  the distance between its quartiles;
* ``worse``: the change's median is worse than the parent's by more than
  the bound BENCHMARK.json fixes for the metric;
* ``unresolved``: the parent's spread, as a share of its median, is wider
  than the bound, so "no worse" cannot be told apart from noise, and not
  every change run reads better than every parent run;
* ``no-worse``: none of the above.

Per-layer metrics have no bound; their rows give the figures and the gain
rule only.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(directory: Path) -> tuple[dict, set]:
    """{(workload, metric): {seed: value}} over every run record, and the
    run lengths the records were made with."""
    out: dict = defaultdict(dict)
    seconds = set()
    for path in sorted(directory.glob("*.json")):
        rec = json.loads(path.read_text())
        seconds.add(rec["seconds"])
        for name, m in rec["result"]["metrics"].items():
            out[rec["workload"], name][rec["seed"]] = m["value"]
    return out, seconds


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def _fmt(values: dict) -> str:
    return "/".join(f"{x:.6g}" for x in quartiles(list(values.values())))


def verdict(parent: dict, change: dict, better: str, bound: float | None) -> tuple[str, str]:
    """Verdict and "won/pairs" for one workload and metric."""
    sign = 1 if better == "lower" else -1
    seeds = sorted(set(parent) & set(change))
    wins = sum(sign * (change[s] - parent[s]) < 0 for s in seeds)
    pv, cv = list(parent.values()), list(change.values())
    p_q1, p_med, p_q3 = quartiles(pv)
    c_med = statistics.median(cv)
    gain = (seeds and wins >= 0.9 * len(seeds)
            and sign * (c_med - p_med) < 0 and abs(c_med - p_med) > p_q3 - p_q1)
    won = f"{wins}/{len(seeds)}"
    if bound is None:
        return ("better" if gain else "-"), won
    worse_by = sign * (c_med - p_med) / p_med if p_med else 0.0
    all_better = all(sign * (c - p) < 0 for c in cv for p in pv)
    all_worse = all(sign * (c - p) > 0 for c in cv for p in pv)
    spread = (p_q3 - p_q1) / p_med if p_med else 0.0
    if spread > bound and not all_better and not (all_worse and worse_by > bound):
        return "unresolved", won
    if worse_by > bound:
        return "worse", won
    return ("better" if gain else "no-worse"), won


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    a = ap.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    metrics |= {m["name"]: m for m in spec["per_layer"]}
    (parent, p_secs), (change, c_secs) = load(a.parent), load(a.change)
    if len(p_secs | c_secs) > 1:
        print(f"warning: runs of different lengths: {sorted(p_secs | c_secs)} s", file=sys.stderr)

    header = (f"{'workload':18s} {'metric':40s} {'parent q1/median/q3':>32s} "
              f"{'change q1/median/q3':>32s} {'won':>6s}  verdict")
    print(header)
    worse = 0
    for workload, name in sorted(set(parent) & set(change)):
        m = metrics.get(name)
        if m is None:
            continue
        p, c = parent[workload, name], change[workload, name]
        v, won = verdict(p, c, m.get("better", "lower"), m.get("bound"))
        worse += v == "worse"
        print(f"{workload:18s} {name:40s} {_fmt(p):>32s} {_fmt(c):>32s} {won:>6s}  {v}")
    for key in sorted(set(parent) ^ set(change)):
        side = "parent" if key in parent else "change"
        print(f"{key[0]:18s} {key[1]:40s} only in {side} (missing on the other side)")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
