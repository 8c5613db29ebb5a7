"""Spans and counts recorded around the calls into each program module.

The tracer replaces module-level names with wrappers in the modules of the
package that bind them, so that each call a caller makes through such a name
opens a span (name, start, end, parent).  A traced run traces one pass: all
its spans share the pass's root span as their id.  Spans live in flat arrays
while the pass runs and are written out after it; self times, busy times and
the per-layer metrics are derived from them afterwards.  Interpreter garbage
collections are recorded through ``gc.callbacks`` as spans of their own,
parented to the span that was open when the collection started.
"""

from __future__ import annotations

import gc
import inspect
import json
import math
import sys
import time
from array import array
from collections import Counter
from pathlib import Path

# InvalidParameters codes a scan cell can be skipped with; any other code is
# counted under ``cli.skipped.other``.
SKIP_CODES = (
    "genus-too-small",
    "speciality-out-of-range",
    "degree-too-small",
    "ambient-too-small",
    "degree-below-threshold",
    "BN1-violated",
    "m-out-of-range",
    "not-a-section",
    "nonnegative-self-intersection",
    "m-not-below-canonical",
)

# Wrapped names and the span category each one opens; every binding of them
# is replaced, in the package namespace too.
EXPLICIT = {
    "cli._emit_csv": "cli.emit",
    "cli._emit_json": "cli.emit",
    "components.classify": "components.classify",
    "components.enumerate_z_components": "gonal.enumerate",
    "gonal.GonalParams": "gonal.params",
    "scroll.ScrollParams": "scroll.validate",
    "scroll.make_scroll": "scroll.validate",
    "projections.ProjectionParams": "projections",
}
# Modules whose every function is wrapped as well.
WHOLE_MODULES = {
    "scroll": "scroll.query",
    "series": "series",
    "oracle": "oracle",
    "projections": "projections",
}
ROOTS = {"cli.run": "cli", "bench.library": "bench"}

# Metrics and the wrapped names they are derived from; a metric whose name
# is missing from the program is reported as missing, never as zero.
NEEDS = {
    "cli.emit_s": ("cli._emit_csv", "cli._emit_json"),
    "cli.rows_out": ("cli._emit_csv", "cli._emit_json"),
    "cli.cells_": ("cli.ScrollParams", "components.classify"),
    "cli.skipped.": ("cli.ScrollParams", "components.classify"),
    "components.": ("components.classify",),
    "gonal.enumerate.": ("components.enumerate_z_components",),
    "gonal.candidates": ("components.enumerate_z_components", "gonal.GonalParams"),
    "gonal.survivors": ("components.enumerate_z_components",),
    "gonal.yield_ratio": ("components.enumerate_z_components", "gonal.GonalParams"),
    "gonal.params.": ("gonal.GonalParams",),
    "scroll.validate.": ("scroll.ScrollParams",),
    "scroll.query.": ("scroll",),
    "series.": ("series",),
    "oracle.": ("oracle",),
    "projections.": ("projections", "projections.ProjectionParams"),
}

PER_LAYER = (
    ["cli.self_s", "cli.emit_s", "cli.rows_out", "cli.bytes_out",
     "cli.cells_visited", "cli.cells_skipped"]
    + [f"cli.skipped.{code}" for code in SKIP_CODES] + ["cli.skipped.other"]
    + ["components.classify.calls", "components.classify.self_s",
       "components.classify.p50_us", "components.classify.p99_us",
       "components.records_out", "components.notes_out", "components.raise_share",
       "gonal.enumerate.calls", "gonal.enumerate.busy_s", "gonal.candidates",
       "gonal.survivors", "gonal.yield_ratio", "gonal.params.busy_s",
       "scroll.validate.calls", "scroll.validate.busy_s",
       "scroll.query.calls", "scroll.query.busy_s",
       "series.calls", "series.busy_s",
       "oracle.calls", "oracle.busy_s", "oracle.mismatches",
       "projections.calls", "projections.busy_s", "projections.rejects",
       "runtime.gc_s", "runtime.gc_collections", "trace.overhead_s"]
)


class Tracer:
    """Records the spans and boundary counts of one pass while installed."""

    def __init__(self):
        self.names: list[str] = []
        self.categories: list[str] = []
        self.codes: list[str] = [""]  # exception codes; 0 means no exception
        self.name = array("i")
        self.parent = array("i")
        self.code = array("h")
        self.start = array("d")
        self.end = array("d")
        self.gc_parent = array("i")
        self.gc_start = array("d")
        self.gc_end = array("d")
        self.stack = [-1]
        self.stack_cat = [-1]  # category id of each open span
        self.counts: Counter = Counter()
        self.missing: list[str] = []
        self._patches: list[tuple[dict, str, object]] = []
        self._cat_ids: dict[str, int] = {}
        self._gc_open = 0.0

    # -- recording -------------------------------------------------------

    def wrap(self, fn, name: str, category: str, count=None):
        """Return ``fn`` wrapped in a span; ``count(result, args)`` is
        called after a normal return to record boundary counts.  A call made
        while the innermost open span has the same category (a layer calling
        itself) opens no span: its time stays with that span."""
        self.names.append(name)
        self.categories.append(category)
        nid = len(self.names) - 1
        cid = self._cat_ids.setdefault(category, len(self._cat_ids))
        add_name, add_parent, add_code = self.name.append, self.parent.append, self.code.append
        add_start, add_end = self.start.append, self.end.append
        ends, codes, stack, stack_cat = self.end, self.code, self.stack, self.stack_cat
        push, pop, push_cat, pop_cat = stack.append, stack.pop, stack_cat.append, stack_cat.pop
        code_id = self._code_id
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            if stack_cat[-1] == cid:
                return fn(*args, **kwargs)
            i = len(ends)
            add_name(nid)
            add_parent(stack[-1])
            add_code(0)
            add_end(0.0)
            push(i)
            push_cat(cid)
            add_start(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                ends[i] = clock()
                pop()
                pop_cat()
                codes[i] = code_id(getattr(exc, "code", type(exc).__name__))
                raise
            ends[i] = clock()
            pop()
            pop_cat()
            if count is not None:
                count(result, args)
            return result

        return wrapper

    def _code_id(self, code: str) -> int:
        if code not in self.codes:
            self.codes.append(code)
        return self.codes.index(code)

    def _on_gc(self, phase, info):
        if phase == "start":
            self._gc_open = time.perf_counter()
        else:
            self.gc_end.append(time.perf_counter())
            self.gc_start.append(self._gc_open)
            self.gc_parent.append(self.stack[-1])

    # -- installation ----------------------------------------------------

    def install(self, package: str = "scrollhilb") -> None:
        modules = {
            name[len(package) + 1:]: mod
            for name, mod in sys.modules.items()
            if name.startswith(package + ".") and mod is not None
        }
        targets: dict[int, tuple[object, str, str]] = {}
        for short, category in EXPLICIT.items():
            mod_name, attr = short.split(".", 1)
            obj = getattr(modules.get(mod_name), attr, None)
            if obj is None:
                self.missing.append(short)
            else:
                targets[id(obj)] = (obj, short, category)
        if not hasattr(modules.get("cli"), "ScrollParams"):
            self.missing.append("cli.ScrollParams")
        for mod_name, category in WHOLE_MODULES.items():
            mod = modules.get(mod_name)
            if mod is None:
                self.missing.append(mod_name)
                continue
            for attr, obj in vars(mod).items():
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    targets.setdefault(id(obj), (obj, f"{mod_name}.{attr}", category))

        add = self.counts.update
        counters = {
            "components.classify": lambda r, a: add(
                {"components.records_out": len(r.components), "components.notes_out": len(r.notes)}),
            "components.enumerate_z_components": lambda r, a: add({"gonal.survivors": len(r)}),
            # _emit_csv(stdout, columns, rows); _emit_json(stdout, doc), where a
            # scan's doc is {"rows": [...]} and any other command's one record
            "cli._emit_csv": lambda r, a: add({"cli.rows_out": len(a[2])}),
            "cli._emit_json": lambda r, a: add(
                {"cli.rows_out": len(a[1]["rows"]) if "rows" in a[1] else 1}),
        }
        wrappers = {
            key: self.wrap(obj, short, category, counters.get(short))
            for key, (obj, short, category) in targets.items()
        }
        # every binding, wherever callers look it up, the package's included
        for namespace in [vars(m) for m in modules.values()] + [vars(sys.modules[package])]:
            for attr, obj in list(namespace.items()):
                wrapper = wrappers.get(id(obj))
                if wrapper is not None and targets[id(obj)][0] is obj:
                    self._patches.append((namespace, attr, obj))
                    namespace[attr] = wrapper
        gc.callbacks.append(self._on_gc)

    def uninstall(self) -> None:
        gc.callbacks.remove(self._on_gc)
        for namespace, attr, obj in reversed(self._patches):
            namespace[attr] = obj
        self._patches.clear()

    def run_pass(self, root: str, fn, *args):
        """Run the traced pass under a root span of category ROOTS[root]."""
        return self.wrap(fn, root, ROOTS[root])(*args)

    # -- output ----------------------------------------------------------

    def write(self, directory: Path) -> None:
        """Write the spans as flat binary arrays plus a JSON index."""
        directory.mkdir(parents=True, exist_ok=True)
        fields = [("name", self.name), ("parent", self.parent), ("code", self.code),
                  ("start", self.start), ("end", self.end), ("gc_parent", self.gc_parent),
                  ("gc_start", self.gc_start), ("gc_end", self.gc_end)]
        with open(directory / "trace.spans", "wb") as fh:
            for _, arr in fields:
                arr.tofile(fh)
        index = {
            "layout": [[f, arr.typecode, len(arr)] for f, arr in fields],
            "names": self.names,
            "categories": self.categories,
            "codes": self.codes,
            "counts": dict(self.counts),
            "missing": self.missing,
        }
        (directory / "trace.json").write_text(json.dumps(index))

    # -- derived metrics -------------------------------------------------

    def metrics(self, measured: dict, overhead_s: float) -> dict:
        """Per-layer metrics of the traced pass, in PER_LAYER order, leaving
        out every metric that depends on a missing wrapped name.

        ``measured`` holds what the benchmark measured outside the spans
        (``cli.bytes_out``, ``oracle.mismatches``).
        """
        n = len(self.end)
        cat_ids = sorted(set(self.categories))
        cat_of = self.categories
        bit_of = [1 << cat_ids.index(c) for c in cat_of]
        name, parent, code, start, end = self.name, self.parent, self.code, self.start, self.end
        child = array("d", [0.0]) * n
        anc = array("q", [0]) * n
        for i in range(n):
            p = parent[i]
            if p >= 0:
                anc[i] = anc[p] | bit_of[name[p]]
                child[p] += end[i] - start[i]
        gc_s, gc_n = 0.0, 0
        for p, s, e in zip(self.gc_parent, self.gc_start, self.gc_end):
            if p >= 0:  # a collection during the pass
                child[p] += e - s
                gc_s += e - s
                gc_n += 1

        a = Counter()
        classify_durs = []
        skip_key = ["cli.skipped." + (c if c in SKIP_CODES else "other") for c in self.codes]
        for i in range(n):
            nid = name[i]
            c = cat_of[nid]
            dur = end[i] - start[i]
            a[c + ":self"] += dur - child[i]
            if anc[i] & bit_of[nid]:
                continue  # nested inside a span of its own category
            a[c + ":calls"] += 1
            a[c + ":busy"] += dur
            raised = code[i]
            if raised:
                a[c + ":raised"] += 1
            p = parent[i]
            pcat = cat_of[name[p]] if p >= 0 else None
            if c == "components.classify":
                classify_durs.append(dur)
            elif c == "gonal.params" and pcat == "gonal.enumerate":
                a["gonal.candidates"] += 1
            if pcat == "cli" and c in ("scroll.validate", "components.classify"):
                if c == "scroll.validate":
                    a["cli.cells_visited"] += 1
                if raised:
                    a["cli.cells_skipped"] += 1
                    a[skip_key[raised]] += 1

        classify_durs.sort()
        calls = a["components.classify:calls"]
        cand = a["gonal.candidates"]
        values = {
            "cli.self_s": a["cli:self"],
            "cli.emit_s": a["cli.emit:busy"],
            "cli.rows_out": self.counts["cli.rows_out"],
            "cli.cells_visited": a["cli.cells_visited"],
            "cli.cells_skipped": a["cli.cells_skipped"],
            "components.classify.calls": calls,
            "components.classify.self_s": a["components.classify:self"],
            "components.classify.p50_us": _quantile(classify_durs, 0.50) * 1e6,
            "components.classify.p99_us": _quantile(classify_durs, 0.99) * 1e6,
            "components.records_out": self.counts["components.records_out"],
            "components.notes_out": self.counts["components.notes_out"],
            "components.raise_share": a["components.classify:raised"] / calls if calls else 0.0,
            "gonal.enumerate.calls": a["gonal.enumerate:calls"],
            "gonal.enumerate.busy_s": a["gonal.enumerate:busy"],
            "gonal.candidates": cand,
            "gonal.survivors": self.counts["gonal.survivors"],
            "gonal.yield_ratio": self.counts["gonal.survivors"] / cand if cand else 0.0,
            "gonal.params.busy_s": a["gonal.params:busy"],
            "scroll.validate.calls": a["scroll.validate:calls"],
            "scroll.validate.busy_s": a["scroll.validate:busy"],
            "scroll.query.calls": a["scroll.query:calls"],
            "scroll.query.busy_s": a["scroll.query:busy"],
            "series.calls": a["series:calls"],
            "series.busy_s": a["series:busy"],
            "oracle.calls": a["oracle:calls"],
            "oracle.busy_s": a["oracle:busy"],
            "projections.calls": a["projections:calls"],
            "projections.busy_s": a["projections:busy"],
            "projections.rejects": a["projections:raised"],
            "runtime.gc_s": gc_s,
            "runtime.gc_collections": gc_n,
            "trace.overhead_s": overhead_s,
        }
        for c in SKIP_CODES + ("other",):
            values["cli.skipped." + c] = a["cli.skipped." + c]
        values.update(measured)
        out = {}
        for metric in PER_LAYER:
            needs = [n for prefix, names in NEEDS.items() if metric.startswith(prefix)
                     for n in names]
            if not any(n in self.missing for n in needs):
                out[metric] = values[metric]
        return out


def _quantile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank quantile; 0.0 for no values."""
    if not sorted_values:
        return 0.0
    return sorted_values[max(1, math.ceil(len(sorted_values) * q)) - 1]
