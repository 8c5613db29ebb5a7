"""The committed benchmark records: every ``BENCH_*.json`` at the root of the
repository holds what a claimed gain rests on (what changed, the machine,
the command, and one compare entry per workload and metric), in the keys
every such record shares.  Reads ``bench/`` and ``BENCHMARK.json`` only."""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
RECORDS = sorted(ROOT.glob("BENCH_*.json"))
VERDICTS = {"better", "no-worse", "worse", "unresolved"}  # bench/compare.py's


def _workloads() -> tuple[str, ...]:
    spec = importlib.util.spec_from_file_location("bench_workloads", ROOT / "bench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.WORKLOADS


WORKLOADS = _workloads()
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
UNITS = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]}


def _quartiles(value) -> bool:
    return (isinstance(value, list) and len(value) == 3
            and all(isinstance(x, (int, float)) for x in value) and value == sorted(value))


def malformed(doc: dict) -> list[str]:
    """What a benchmark record lacks: ``what`` and ``command`` as text, the
    ``machine`` mapping, and a nonempty ``runs_final.compare`` whose entries
    each name a workload of bench/workloads.py and a metric of
    BENCHMARK.json, with its unit, both sides' quartiles and a verdict; a
    ``fail_rate`` entry gives the two sides' rates instead."""
    faults = [f"{key} is not text" for key in ("what", "command")
              if not isinstance(doc.get(key), str)]
    if not isinstance(doc.get("machine"), dict):
        faults.append("machine is not a mapping")
    compare = doc.get("runs_final", {}).get("compare")
    if not (isinstance(compare, list) and compare):
        return faults + ["runs_final.compare is not a nonempty list"]
    for i, entry in enumerate(compare):
        where, metric = f"compare[{i}]", entry.get("metric")
        if entry.get("workload") not in WORKLOADS:
            faults.append(f"{where}: workload {entry.get('workload')!r} is not a workload")
        if metric == "fail_rate":
            faults += [f"{where}: fail_rate {side} is not a number" for side in ("parent", "change")
                       if not isinstance(entry.get(side), (int, float))]
            continue
        if metric not in UNITS:
            faults.append(f"{where}: metric {metric!r} is not in BENCHMARK.json")
        elif entry.get("unit") != UNITS[metric]:
            faults.append(f"{where}: unit {entry.get('unit')!r} is not {UNITS[metric]!r}")
        faults += [f"{where}: {key} is not three ascending numbers"
                   for key in ("parent_q1_median_q3", "change_q1_median_q3")
                   if not _quartiles(entry.get(key))]
        if entry.get("verdict") not in VERDICTS:
            faults.append(f"{where}: verdict {entry.get('verdict')!r} is not one of {sorted(VERDICTS)}")
    return faults


@pytest.mark.parametrize("path", RECORDS, ids=[p.name for p in RECORDS])
def test_each_benchmark_record_has_the_shared_keys(path):
    assert malformed(json.loads(path.read_text())) == []


def _drop(doc, *keys):
    *parents, last = keys
    for key in parents:
        doc = doc[key]
    del doc[last]


@pytest.mark.parametrize("keys", [
    ("what",), ("machine",), ("command",), ("runs_final", "compare"),
    ("runs_final", "compare", 0, "workload"), ("runs_final", "compare", 0, "metric"),
    ("runs_final", "compare", 0, "unit"), ("runs_final", "compare", 0, "parent_q1_median_q3"),
    ("runs_final", "compare", 0, "change_q1_median_q3"), ("runs_final", "compare", 0, "verdict"),
], ids=lambda keys: ".".join(map(str, keys)))
def test_a_record_without_a_shared_key_is_malformed(keys):
    doc = json.loads(RECORDS[-1].read_text())
    _drop(doc, *keys)
    assert malformed(doc)
