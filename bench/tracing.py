"""In-memory span recorder for the traced benchmark run.

Spans are recorded from outside the package: every public function of
mublines is replaced, at every module attribute that holds it, by a wrapper
that opens a span.  Patching each attribute matters because modules import
each other's functions by name (`constructions.gram_analyze` is the same
object as `framecore.gram_analyze`); patching only the defining module would
miss the nested calls.

A span is (name, start, end, parent, job, hidden): `parent` is the index of
the enclosing span or -1, `job` the id of the benchmark job that caused it,
and `hidden` the time spent in aggregated children (see HOT).  Spans are
written out only when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import statistics
import time
from collections import Counter, defaultdict
from dataclasses import dataclass, field

#: functions called ~d^3 times per MUB build; they are summed per parent
#: instead of stored one span each, which would cost ~100 MB per census run
HOT = frozenset({"abelian.char_eval"})

#: module -> the public functions wrapped in the traced run
TARGETS = {
    "abelian": ("builtin_rds", "rds_verify", "characters", "char_eval",
                "rds_from_json", "rds_to_json"),
    "constructions": ("mubs_from_rds", "l_block", "c1_search",
                      "theorem46_predicate", "construction2_family",
                      "construction3_pair", "construction3_d4_extension",
                      "construction3_solve", "hoggar_tensor_orbit"),
    "framecore": ("gram_analyze", "verify_mubs", "lines_equal",
                  "apply_equivalence", "lineset_to_json", "lineset_from_json",
                  "dump_json", "special_bound_f", "mub_bound", "max_angle"),
    "weylheisenberg": ("wh_orbit", "fiducial_d4", "wh_generators",
                       "zauner_unitary", "normalizer_check"),
    "cli": ("main",),
}


@dataclass
class Recorder:
    spans: list = field(default_factory=list)
    counters: Counter = field(default_factory=Counter)
    hot: dict = field(default_factory=lambda: defaultdict(lambda: [0, 0.0]))
    job: int = -1
    active: bool = False
    _stack: list = field(default_factory=list)

    def span(self, name: str, func, args, kwargs):
        """Run func inside a span; the caller has checked `active`."""
        if name in HOT:
            start = time.perf_counter()
            try:
                return func(*args, **kwargs)
            finally:
                took = time.perf_counter() - start
                entry = self.hot[name]
                entry[0] += 1
                entry[1] += took
                if self._stack:
                    self._stack[-1][1] += took
        parent = self._stack[-1][0] if self._stack else -1
        top = not self._stack or self._stack[-1][2] == "cli.main"
        index = len(self.spans)
        self.spans.append(None)
        frame = [index, 0.0, name]
        self._stack.append(frame)
        start = time.perf_counter()
        try:
            result = func(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[index] = (name, start, end, parent, self.job, frame[1])
        self._count(name, args, result, top)
        return result

    def _count(self, name: str, args, result, top: bool) -> None:
        if top:  # entries built by the job itself, not by nested calls
            self.counters["scalars.entries"] += count_entries(result)
        if name in ("framecore.gram_exact", "framecore.gram_float"):
            m = len(args[0])
            self.counters[name + ".pairs"] += m * (m - 1) // 2
        elif name == "constructions.c1_search":
            self.counters["constructions.c1_search.hits"] += len(result)
        elif name in ("framecore.dump_json", "bench.json_load"):
            path = args[1] if name == "framecore.dump_json" else args[0]
            self.counters["framecore.json.bytes"] += os.path.getsize(path)

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for name, start, end, parent, job, hidden in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "job": job,
                                     "hidden": hidden}) + "\n")
            for name, (calls, total) in sorted(self.hot.items()):
                fh.write(json.dumps({"name": name, "aggregated": True,
                                     "calls": calls, "total": total}) + "\n")


def count_entries(result) -> int:
    """Scalar entries held by a returned line set or MUB family."""
    if hasattr(result, "vectors") and hasattr(result, "dim"):
        return len(result.vectors) * result.dim
    if hasattr(result, "bases"):
        return sum(count_entries(b) for b in result.bases)
    return 0


def self_times(spans) -> list[float]:
    """Duration of each span minus the part covered by its children.

    Spans of one process never overlap their siblings, so the covered part
    is the sum of the children's durations plus the aggregated (HOT) time.
    """
    own = [end - start - hidden for _, start, end, _, _, hidden in spans]
    for _, start, end, parent, _, _ in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def _wrapper(recorder: Recorder, name: str, func):
    @functools.wraps(func)
    def traced(*args, **kwargs):
        if not recorder.active:
            return func(*args, **kwargs)
        return recorder.span(span_name(name, args, kwargs), func, args, kwargs)

    return traced


def span_name(name: str, args, kwargs) -> str:
    """gram_analyze gets one span name per arithmetic path."""
    if name == "framecore.gram_analyze":
        lines = args[0] if args else kwargs["lines"]
        return "framecore.gram_exact" if lines.exact else "framecore.gram_float"
    return name


def install(recorder: Recorder, package) -> list:
    """Wrap every TARGETS function at every module attribute bound to it.

    Returns the undo list for `uninstall`.
    """
    modules = [package] + [
        importlib.import_module(f"{package.__name__}.{mod}")
        for mod in ("abelian", "constructions", "framecore", "scalars",
                    "weylheisenberg", "exprs", "cli")
    ]
    originals = {}
    for mod, names in TARGETS.items():
        home = importlib.import_module(f"{package.__name__}.{mod}")
        for fname in names:
            originals[id(getattr(home, fname))] = (f"{mod}.{fname}",
                                                   getattr(home, fname))
    undo = []
    for module in modules:
        for attr, value in list(vars(module).items()):
            hit = originals.get(id(value))
            if hit is not None and value is hit[1]:
                name, func = hit
                setattr(module, attr, _wrapper(recorder, name, func))
                undo.append((module, attr, func))
    return undo


def uninstall(undo) -> None:
    for module, attr, func in undo:
        setattr(module, attr, func)


# --- per-layer metrics -------------------------------------------------------

BUILD8 = ("constructions.construction2_family", "constructions.construction3_pair",
          "constructions.construction3_d4_extension",
          "constructions.hoggar_tensor_orbit")
JSON_SPANS = ("framecore.lineset_to_json", "framecore.lineset_from_json",
              "framecore.dump_json", "bench.json_load")

#: metric -> span names whose self time it sums
SELF_TIME_METRICS = {
    "abelian.builtin_rds.self_s": ("abelian.builtin_rds",),
    "abelian.rds_verify.self_s": ("abelian.rds_verify",),
    "abelian.characters.self_s": ("abelian.characters", "abelian.char_eval"),
    "constructions.mubs_from_rds.self_s": ("constructions.mubs_from_rds",),
    "constructions.l_block.self_s": ("constructions.l_block",),
    "constructions.c1_search.self_s": ("constructions.c1_search",),
    "constructions.theorem46_predicate.self_s": ("constructions.theorem46_predicate",),
    "constructions.build8.self_s": BUILD8,
    "framecore.gram_exact.self_s": ("framecore.gram_exact",),
    "framecore.gram_float.self_s": ("framecore.gram_float",),
    "framecore.verify_mubs.self_s": ("framecore.verify_mubs",),
    "framecore.lines_equal.self_s": ("framecore.lines_equal",),
    "framecore.apply_equivalence.self_s": ("framecore.apply_equivalence",),
    "framecore.json.self_s": JSON_SPANS,
    "weylheisenberg.wh_orbit.self_s": ("weylheisenberg.wh_orbit",),
    "cli.main.self_s": ("cli.main",),
}

#: metric -> span name whose calls it counts
CALL_METRICS = {
    "abelian.rds_verify.calls": "abelian.rds_verify",
    "constructions.l_block.calls": "constructions.l_block",
    "framecore.verify_mubs.calls": "framecore.verify_mubs",
}

#: metrics the recorder counts directly
COUNTER_METRICS = ("framecore.gram_exact.pairs", "framecore.gram_float.pairs",
                   "framecore.json.bytes", "scalars.entries")


def layer_metrics(recorder: Recorder) -> dict[str, float]:
    spans = recorder.spans
    own = self_times(spans)
    by_name = defaultdict(float)
    calls = Counter()
    for (name, *_), t in zip(spans, own):
        by_name[name] += t
        calls[name] += 1
    for name, (count, total) in recorder.hot.items():
        by_name[name] += total
        calls[name] += count

    out = {m: sum(by_name[n] for n in names) for m, names in SELF_TIME_METRICS.items()}
    out.update({m: float(calls[n]) for m, n in CALL_METRICS.items()})
    out.update({m: float(recorder.counters[m]) for m in COUNTER_METRICS})

    search = {i for i, s in enumerate(spans) if s[0] == "constructions.c1_search"}
    candidates = sum(1 for s in spans
                     if s[0] == "constructions.l_block" and s[3] in search)
    out["constructions.c1_search.candidates"] = float(candidates)
    hits = recorder.counters["constructions.c1_search.hits"]
    out["constructions.c1_search.hit_ratio"] = hits / candidates if candidates else 0.0
    return out


def stage_rows(recorder: Recorder, machine: dict, git_sha: str, params: dict) -> list[dict]:
    """One {stage, params, n, median_s, min_s, machine, git_sha} row per
    span name, over per-call durations (aggregated spans give a mean)."""
    durations = defaultdict(list)
    for name, start, end, *_ in recorder.spans:
        durations[name].append(end - start)
    rows = []
    for name, values in sorted(durations.items()):
        rows.append({"stage": name, "params": params, "n": len(values),
                     "median_s": statistics.median(values), "min_s": min(values),
                     "machine": machine, "git_sha": git_sha})
    for name, (count, total) in sorted(recorder.hot.items()):
        rows.append({"stage": name, "params": dict(params, aggregated=True),
                     "n": count, "median_s": total / count if count else 0.0,
                     "min_s": None, "machine": machine, "git_sha": git_sha})
    return rows

