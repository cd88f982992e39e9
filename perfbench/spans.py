"""Outside-in tracing: spans around the program's public functions.

``install`` rebinds every function listed in ``layers.json`` in each
``repro.*`` namespace that holds it (``report.py`` and ``missing.py`` import
several of them with ``from ... import``), so the program is traced without
editing it. Each span opens its own Spark job group, so the jobs a function
runs directly are told apart from those of the functions it calls. Spans stay
in memory; job counts are looked up from the status tracker when the run ends.
"""
from __future__ import annotations

import functools
import importlib
import json
import math
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

from measure import median, self_time

LAYERS_FILE = Path(__file__).with_name("layers.json")


def traced_functions() -> list[tuple[str, str, str]]:
    """``(span name, module, function)`` for every function ``layers.json`` lists."""
    return [
        (f"{entry['layer']}.{fn}", entry["module"], fn)
        for entry in json.loads(LAYERS_FILE.read_text())
        for fn in entry["functions"]
    ]


@dataclass
class Span:
    id: int
    parent: int | None
    name: str
    start: float
    end: float = math.nan
    jobs: list[int] = field(default_factory=list)

    @property
    def group(self) -> str:
        return f"perfbench-span-{self.id}"


class Tracer:
    """Records nested spans while ``enabled``; otherwise wrappers pass through.

    ``sc`` is the SparkContext whose job group each span sets; ``None`` skips
    job groups (used by the unit tests).
    """

    def __init__(self, sc=None, clock=time.perf_counter):
        self.sc = sc
        self.clock = clock
        self.spans: list[Span] = []
        self.stack: list[Span] = []
        self.enabled = False
        #: Seconds spent opening and closing spans (job-group calls included).
        self.overhead = 0.0

    def _set_group(self, span: Span | None) -> None:
        if self.sc is None:
            return
        if span is None:
            self.sc.setLocalProperty("spark.jobGroup.id", None)
            self.sc.setLocalProperty("spark.job.description", None)
        else:
            self.sc.setJobGroup(span.group, span.name)

    @contextmanager
    def span(self, name: str):
        t0 = self.clock()
        parent = self.stack[-1] if self.stack else None
        s = Span(len(self.spans), parent.id if parent else None, name, t0)
        self.spans.append(s)
        self.stack.append(s)
        self._set_group(s)
        s.start = self.clock()
        self.overhead += s.start - t0
        try:
            yield s
        finally:
            s.end = self.clock()
            self.stack.pop()
            self._set_group(parent)
            self.overhead += self.clock() - s.end

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            with self.span(name):
                return fn(*args, **kwargs)

        return traced

    def collect_jobs(self) -> None:
        """Fill each span's own job ids from the status tracker."""
        tracker = self.sc.statusTracker()
        for s in self.spans:
            s.jobs = sorted(tracker.getJobIdsForGroup(s.group))

    def self_times(self) -> dict[int, float]:
        children: dict[int, list[tuple[float, float]]] = {}
        for s in self.spans:
            if s.parent is not None:
                children.setdefault(s.parent, []).append((s.start, s.end))
        return {s.id: self_time(s.start, s.end, children.get(s.id, [])) for s in self.spans}

    def closure_error(self) -> float:
        """Largest gap between a root span's duration and its subtree's self times.

        Properly nested spans make this 0 up to rounding: the self times of
        the spans under a public call plus the call's unspanned remainder
        (its own self time) add up to the call's wall time.
        """
        selfs = self.self_times()
        root_of: dict[int, int] = {}
        for s in self.spans:  # parents are recorded before their children
            root_of[s.id] = s.id if s.parent is None else root_of[s.parent]
        totals: dict[int, float] = {}
        for s in self.spans:
            totals[root_of[s.id]] = totals.get(root_of[s.id], 0.0) + selfs[s.id]
        return max(
            (abs(totals[s.id] - (s.end - s.start)) for s in self.spans if s.parent is None),
            default=0.0,
        )


def install(tracer: Tracer, functions: list[tuple[str, str, str]]) -> None:
    """Rebind each listed function to a traced wrapper in every ``repro`` module."""
    for name, module, fn_name in functions:
        original = getattr(importlib.import_module(module), fn_name)
        wrapper = tracer.wrap(name, original)
        holders = [
            m for key, m in list(sys.modules.items())
            if m is not None and (key == "repro" or key.startswith("repro."))
        ]
        rebound = 0
        for m in holders:
            for attr, value in list(vars(m).items()):
                if value is original:
                    setattr(m, attr, wrapper)
                    rebound += 1
        if rebound == 0:
            raise RuntimeError(f"{module}.{fn_name} is bound nowhere")


def layer_metrics(
    tracer: Tracer, functions: list[tuple[str, str, str]], cycles: int
) -> dict[str, float]:
    """``<layer>.<function>.{self_s,calls,jobs}`` over the traced cycles.

    ``self_s`` is the median self time per call (0 when never called);
    ``calls`` and ``jobs`` are totals divided by the number of traced cycles.
    """
    selfs = tracer.self_times()
    out: dict[str, float] = {}
    for name, _module, _fn in functions:
        spans = [s for s in tracer.spans if s.name == name]
        out[f"{name}.self_s"] = median([selfs[s.id] for s in spans]) if spans else 0.0
        out[f"{name}.calls"] = len(spans) / cycles
        out[f"{name}.jobs"] = sum(len(s.jobs) for s in spans) / cycles
    return out


def spark_counts(sc, job_ids: list[int]) -> dict[str, int]:
    """Jobs, stages run, tasks completed and tasks failed for ``job_ids``."""
    tracker = sc.statusTracker()
    stages: set[int] = set()
    for j in job_ids:
        info = tracker.getJobInfo(j)
        if info is not None:
            stages.update(info.stageIds)
    ran = tasks = failed = 0
    for st in stages:
        info = tracker.getStageInfo(st)
        if info is None:
            continue
        if info.numCompletedTasks + info.numFailedTasks > 0:
            ran += 1
        tasks += info.numCompletedTasks
        failed += info.numFailedTasks
    return {"jobs": len(job_ids), "stages": ran, "tasks": tasks, "failed_tasks": failed}
