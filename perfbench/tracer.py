"""Per-layer timing of one ``repro`` run, taken from outside the program.

Usage::

    python perfbench/tracer.py OUT.json -- study --scale 0.02 --full --digests

Runs ``repro.cli.main`` on the arguments after ``--`` with each layer's
public entry points wrapped by timers installed from this file, so the
program under test carries no spans of its own.  stdout is the program's
stdout, untouched; the layer totals are written to ``OUT.json``.

A layer's *self* time is a wrapped call's duration minus the wrapped calls
made inside it.  Calls running in forked process-pool workers are timed by
the workers' inherited wrappers: each task's totals are appended to
``OUT.json.workers`` and merged into the ``workers`` block, kept apart from
the dispatching process's ``parent`` block (the parent's timeline is the
one the run's wall time is spent on).
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional

#: Environment variable holding the launcher's ``time.time()`` at spawn,
#: so interpreter start-up and imports count as ``bench.import_s``.
ENV_LAUNCH_T = "PERFBENCH_LAUNCH_T"


class Layers:
    """Self-time, inclusive-time and count totals per layer name."""

    def __init__(self) -> None:
        self.self_s: Dict[str, float] = defaultdict(float)
        self.incl_s: Dict[str, float] = defaultdict(float)
        self.counts: Dict[str, float] = defaultdict(float)
        self.stack: List[List[float]] = []

    def reset(self) -> None:
        self.self_s.clear()
        self.incl_s.clear()
        self.counts.clear()
        self.stack.clear()

    def as_dict(self) -> Dict[str, Dict[str, float]]:
        return {
            "self_s": dict(self.self_s),
            "incl_s": dict(self.incl_s),
            "counts": dict(self.counts),
        }

    def timed(
        self, name: str, fn: Callable, count: Optional[Callable] = None
    ) -> Callable:
        """``fn`` wrapped to charge its self time to ``name``.

        ``count(result, args, kwargs)`` returns ``{counter: increment}``
        and runs after the clock stops.
        """
        stack = self.stack
        self_s, incl_s, counts = self.self_s, self.incl_s, self.counts
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                self_s[name] += elapsed - frame[0]
                incl_s[name] += elapsed
                if stack:
                    stack[-1][0] += elapsed
            if count is not None:
                for counter, value in count(result, args, kwargs).items():
                    counts[counter] += value
            return result

        return wrapper


LAYERS = Layers()
_PARENT_PID: Optional[int] = None
_WORKER_LOG: Optional[str] = None
_IN_WORKER_TASK = False


def _patch_function(module, attr: str, wrapper: Callable) -> None:
    """Rebind ``module.attr`` and every ``from module import attr`` copy."""
    original = getattr(module, attr)
    for loaded in list(sys.modules.values()):
        if loaded is None or not getattr(loaded, "__name__", "").startswith("repro"):
            continue
        for name, value in list(vars(loaded).items()):
            if value is original:
                setattr(loaded, name, wrapper)


def _patch_cached_property(cls, attr: str, name: str, count=None) -> None:
    from functools import cached_property

    prop = cls.__dict__[attr]
    wrapped = cached_property(LAYERS.timed(name, prop.func, count))
    wrapped.__set_name__(cls, attr)
    setattr(cls, attr, wrapped)


def _patch_method(cls, attr: str, name: str, count=None) -> None:
    setattr(cls, attr, LAYERS.timed(name, cls.__dict__[attr], count))


def _store_get_count(result, args, kwargs) -> Dict[str, float]:
    store, key = args[0], args[1]
    default = args[2] if len(args) > 2 else kwargs.get("default")
    if result is default:
        return {"artifacts.gets": 1}
    return {
        "artifacts.gets": 1,
        "artifacts.hits": 1,
        "artifacts.get_bytes": os.path.getsize(store.object_path(key)),
    }


def _executor_map(original: Callable) -> Callable:
    """``ParallelExecutor.map`` with its fan-out stats recorded (parent only)."""
    timed = LAYERS.timed("exec.wait", original)

    @functools.wraps(original)
    def wrapper(self, *args, **kwargs):
        before = len(self.stats)
        result = timed(self, *args, **kwargs)
        if os.getpid() == _PARENT_PID and self.backend != "serial":
            for stats in self.stats[before:]:
                straggler = stats.straggler()
                LAYERS.counts["exec.task_s"] += stats.task_seconds
                LAYERS.counts["exec.straggler_s"] += straggler.seconds if straggler else 0.0
                LAYERS.counts["exec.dispatch_bytes"] += stats.dispatch_bytes
                LAYERS.counts["exec.result_bytes"] += stats.result_bytes
        return result

    return wrapper


def _worker_task(original: Callable) -> Callable:
    """``executor._timed_call`` that ships a forked worker's layer totals home."""

    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        global _IN_WORKER_TASK
        if os.getpid() == _PARENT_PID or _IN_WORKER_TASK:
            return original(*args, **kwargs)
        LAYERS.reset()  # totals and stack inherited from the parent at fork time
        _IN_WORKER_TASK = True
        try:
            return original(*args, **kwargs)
        finally:
            _IN_WORKER_TASK = False
            line = json.dumps(LAYERS.as_dict()) + "\n"
            fd = os.open(_WORKER_LOG, os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o644)
            try:
                os.write(fd, line.encode())
            finally:
                os.close(fd)

    return wrapper


def install() -> None:
    """Wrap every layer entry point the benchmark reports on."""
    global _PARENT_PID
    _PARENT_PID = os.getpid()

    import repro.cli  # noqa: F401  (loads the modules whose names get rebound)
    from repro.artifacts.store import ArtifactStore
    from repro.cdn.cluster import CdnSystem
    from repro.core import report as core_report
    from repro.core.pipeline import StudyPipeline
    from repro.exec import executor as executor_mod
    from repro.monitor import cluster as monitor_cluster
    from repro.monitor import detect as monitor_detect
    from repro.monitor import snapshot as monitor_snapshot
    from repro.sim import scenarios
    from repro.sim.engine import RequestProcessor
    from repro.stream.accumulators import EdgeCloudAccumulator
    from repro.trace.columnar import FlowTable
    from repro.trace.monitor import EdgeMonitor
    from repro.trace.records import Dataset
    from repro.workload.requests import RequestGenerator

    timed = LAYERS.timed

    # Request path.
    _patch_method(RequestGenerator, "generate", "workload.generate",
                  lambda r, a, k: {"workload.requests": len(r)})
    _patch_function(scenarios, "build_world", timed(
        "sim.build_world", scenarios.build_world,
        lambda r, a, k: {"sim.worlds": 1}))
    _patch_method(RequestProcessor, "process", "sim.process",
                  lambda r, a, k: {"sim.requests": 1})
    _patch_method(CdnSystem, "handle_request", "cdn.handle_request")
    _patch_method(EdgeMonitor, "observe_all", "trace.observe")
    _patch_method(EdgeMonitor, "finish", "trace.finish",
                  lambda r, a, k: {"trace.flows": len(r.records)})
    # Artifact store.
    _patch_method(ArtifactStore, "put", "artifacts.put",
                  lambda r, a, k: {"artifacts.put_bytes": r})
    _patch_method(ArtifactStore, "get", "artifacts.get", _store_get_count)
    # Geolocation.
    _patch_cached_property(StudyPipeline, "rtt_campaigns", "geoloc.rtt_campaigns")
    _patch_cached_property(StudyPipeline, "geolocator", "geoloc.calibrate")
    _patch_cached_property(StudyPipeline, "server_map", "geoloc.server_map",
                           lambda r, a, k: {"geoloc.servers": len(r.by_ip)})
    # Analysis and digests.
    for attr in ("summaries", "as_breakdowns", "focus_ips", "focus_records", "focus_tables"):
        _patch_cached_property(StudyPipeline, attr, "core.tables")
    _patch_cached_property(StudyPipeline, "sessions", "core.sessions",
                           lambda r, a, k: {"core.sessions": sum(map(len, r.values()))})
    _patch_cached_property(StudyPipeline, "preferred_reports", "core.preferred")
    _patch_function(core_report, "render_study_report", timed(
        "core.report", core_report.render_study_report))
    _patch_method(Dataset, "columnar", "trace.columnar")
    _patch_method(FlowTable, "columns", "trace.columnar")
    _patch_method(Dataset, "content_digest", "trace.digest")
    # Monitor.
    _patch_function(monitor_snapshot, "build_epoch_snapshot", timed(
        "monitor.snapshot", monitor_snapshot.build_epoch_snapshot))
    _patch_method(EdgeCloudAccumulator, "observe_window", "stream.accumulate")
    _patch_function(monitor_cluster, "cluster_snapshot", timed(
        "monitor.cluster", monitor_cluster.cluster_snapshot))
    for attr in ("consecutive_distances", "detect_alarms", "score_detection"):
        _patch_function(monitor_detect, attr, timed(
            "monitor.detect", getattr(monitor_detect, attr)))
    # Fan-out.
    executor_mod.ParallelExecutor.map = _executor_map(executor_mod.ParallelExecutor.map)
    executor_mod._timed_call = _worker_task(executor_mod._timed_call)


def _read_worker_log(path: str) -> Layers:
    merged = Layers()
    if not os.path.exists(path):
        return merged
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            task = json.loads(line)
            for block in ("self_s", "incl_s", "counts"):
                target = getattr(merged, block)
                for name, value in task[block].items():
                    target[name] += value
    return merged


def main(argv: List[str]) -> int:
    global _WORKER_LOG
    if len(argv) < 2 or argv[1] != "--":
        print("usage: tracer.py OUT.json -- REPRO_ARGS...", file=sys.stderr)
        return 2
    out_path, repro_args = argv[0], argv[2:]
    _WORKER_LOG = out_path + ".workers"
    install()
    from repro.cli import main as repro_main

    imported = time.time()
    launched = float(os.environ.get(ENV_LAUNCH_T, imported))
    start = time.perf_counter()
    code = repro_main(repro_args)
    main_s = time.perf_counter() - start
    sys.stdout.flush()
    with open(out_path, "w", encoding="utf-8") as handle:
        json.dump({
            "import_s": imported - launched,
            "main_s": main_s,
            "parent": LAYERS.as_dict(),
            "workers": _read_worker_log(_WORKER_LOG).as_dict(),
        }, handle)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
