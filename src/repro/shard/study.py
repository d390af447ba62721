"""The sharded study: simulate and analyze shards, merge byte-identically.

``repro study --sharded`` runs the same five-dataset study as the batch
and streamed paths, but scales out differently:

1. **Simulate** — one task per vantage point runs the disk-memoized
   ``sim/run_week`` stage (shared with every other entry point) and
   *publishes* the dataset's columns into a shared-memory segment
   (:mod:`repro.shard.shm`).  Only a slim summary — the world, the
   content digest, a table handle — travels back; the flow records, the
   dominant pickle term, never cross the pool boundary again.
2. **Partition** — the parent attaches each table (zero-copy) and cuts
   it into deterministic (vantage, time-window) shards
   (:mod:`repro.shard.partition`).
3. **Analyze** — one task per shard attaches the columns by name,
   slices its row range as numpy views, folds the window into the PR-6
   accumulators and computes a slim session partial.  Per-shard results
   are cached under the shard key, so a re-run at the same grain is all
   warm hits.
4. **Merge** — the parent combines per-shard outputs with the merge
   operators (:mod:`repro.shard.merge`) into the exact accumulator
   states the streamed path would have built, then hands them to the
   ordinary :class:`~repro.stream.study.StreamStudy` — so the report and
   digests are byte-identical to ``repro study`` by construction.

Every shared-memory segment is owned by one :class:`SegmentScope` whose
``finally`` unlinks it, so worker crashes and ``ExecutionError`` paths
cannot leak segments.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro import obs
from repro.core.sessions import DEFAULT_GAP_S
from repro.core.streaming import HotSpotDetector, LoadBalanceDetector
from repro.exec.executor import ParallelExecutor, default_executor
from repro.sim.driver import DEFAULT_SCALE, simulate_week
from repro.sim.scenarios import DATASET_NAMES, ScenarioWorld, _paper_scenarios
from repro.shard.merge import (
    merge_hourly,
    merge_session_sizes,
    merge_traffic,
    session_partial,
)
from repro.shard.partition import Shard, ShardKey, partition_table
from repro.shard.shm import SegmentScope, attach_table, publish_table, view_table
from repro.stream.accumulators import (
    HourlyShareAccumulator,
    SessionStatsAccumulator,
    TrafficAccumulator,
)
from repro.stream.events import StreamWindow
from repro.stream.study import StreamedDataset, StreamStudy, peak_rss_kb
from repro.trace.records import WEEK_S

#: Default shard grain: one shard per trace day.
DEFAULT_SHARD_WINDOW_S = 86400.0


class _FixedDigest:
    """A precomputed content digest wearing the streaming-digest API."""

    def __init__(self, hexdigest: str, records: int = 0):
        self._hex = hexdigest
        self.records = records

    def hexdigest(self) -> str:
        return self._hex


def _sim_shard_task(arg: Tuple) -> Dict[str, object]:
    """Simulate one vantage point's week and publish its columns.

    Returns a slim summary: the world (needed for the active
    measurements), the batch content digest, the flow count and the
    table handle — never the records themselves.
    """
    key, segment_name = arg
    spec, scale, seed, duration_s, policy_kind = key
    result = simulate_week(spec, scale, seed, duration_s, policy_kind)
    dataset = result.dataset
    handle = publish_table(dataset.records, name=segment_name)
    return {
        "name": dataset.name,
        "world": result.world,
        "digest": dataset.content_digest(),
        "flows": len(dataset),
        "handle": handle,
    }


def _analyze_shard_task(arg: Tuple) -> Tuple:
    """Analyze one shard: attach, slice, fold, return slim states.

    Cached in the artifact store under the shard key plus everything the
    shard's rows depend on, so resharding at the same grain is warm.
    """
    handle, shard, run_key, gap_s = arg
    from repro.artifacts.keys import stage_key
    from repro.artifacts.store import default_store

    store = default_store()
    cache_key = None
    if store is not None:
        cache_key = stage_key(
            "shard/analyze", {"run": run_key, "shard": shard.key, "gap_s": gap_s}
        )
        hit = store.get(cache_key, None, stage="shard/analyze")
        if hit is not None:
            return hit
    table = attach_table(handle)
    view = view_table(table, shard.lo, shard.hi)
    window = StreamWindow(
        index=shard.key.index, t_lo=shard.key.t_lo, t_hi=shard.key.t_hi, table=view
    )
    traffic = TrafficAccumulator()
    traffic.observe_window(window)
    hourly = HourlyShareAccumulator()
    hourly.observe_window(window)
    partial = session_partial(view, gap_s)
    result = (traffic, hourly, partial)
    if store is not None:
        store.put(cache_key, result, stage="shard/analyze")
    return result


def _merged_dataset(
    name: str,
    world: ScenarioWorld,
    digest_hex: str,
    shards: List[Shard],
    shard_results: List[Tuple],
    gap_s: float,
) -> StreamedDataset:
    """Combine one dataset's per-shard states into a StreamedDataset."""
    traffic = merge_traffic([r[0] for r in shard_results])
    hourly = merge_hourly([r[1] for r in shard_results])
    sizes = merge_session_sizes([r[2] for r in shard_results], gap_s)
    session_stats = SessionStatsAccumulator()
    for n in sizes:
        session_stats._counts[str(n) if n <= 9 else ">9"] += 1
        session_stats.sessions += 1
    return StreamedDataset(
        name=name,
        world=world,
        traffic=traffic,
        hourly=hourly,
        session_stats=session_stats,
        # The online spike/spread detectors are window-order constructs
        # of the streaming path; the sharded report does not use them.
        hot_spots=HotSpotDetector(),
        load_balance=LoadBalanceDetector(),
        digest=_FixedDigest(digest_hex, records=traffic.flows),
        windows=len(shards),
        late_records=0,
        sessions_closed=session_stats.sessions,
        peak_open_sessions=0,
        peak_window_records=max((len(s) for s in shards), default=0),
        rss_after_kb=peak_rss_kb(),
    )


def run_sharded_study(
    scale: float = DEFAULT_SCALE,
    seed: int = 7,
    duration_s: float = WEEK_S,
    shard_window_s: float = DEFAULT_SHARD_WINDOW_S,
    landmark_count: Optional[int] = None,
    gap_s: float = DEFAULT_GAP_S,
    executor: Optional[ParallelExecutor] = None,
) -> StreamStudy:
    """Run the five-dataset study sharded, returning a StreamStudy.

    The returned study renders (via
    :func:`repro.stream.study.render_stream_report`) and digests
    byte-identically to ``repro study`` at the same scale/seed, for any
    positive ``shard_window_s`` and any executor backend.

    Args:
        scale: Traffic volume scale (1.0 = paper scale).
        seed: Master seed.
        duration_s: Collection window.
        shard_window_s: Shard grain — seconds of trace per shard.
        landmark_count: CBG landmark budget (``None`` = full set).
        gap_s: Session gap T.
        executor: Fan-out strategy; ``None`` reads ``REPRO_EXECUTOR``.

    Raises:
        ValueError: For a non-positive shard window or gap.
    """
    if shard_window_s <= 0:
        raise ValueError(f"shard_window_s must be positive, got {shard_window_s}")
    executor = default_executor(executor)
    scenarios = _paper_scenarios()
    policy_kind = "preferred"
    run_key = {
        "scale": scale,
        "seed": seed,
        "duration_s": duration_s,
        "policy": policy_kind,
    }
    with SegmentScope() as scope:
        with obs.span("shard/simulate", datasets=len(DATASET_NAMES), scale=scale):
            sims = executor.map(
                _sim_shard_task,
                [
                    (
                        (scenarios[name], scale, seed, duration_s, policy_kind),
                        scope.name_for(f"sim-{name}"),
                    )
                    for name in DATASET_NAMES
                ],
                labels=[f"shard/sim/{name}" for name in DATASET_NAMES],
            )
        by_name = {sim["name"]: sim for sim in sims}
        shards_of: Dict[str, List[Shard]] = {}
        tasks: List[Tuple] = []
        labels: List[str] = []
        for name in DATASET_NAMES:
            sim = by_name[name]
            table = attach_table(sim["handle"])
            shards = partition_table(table, shard_window_s, name)
            shards_of[name] = shards
            for shard in shards:
                tasks.append((sim["handle"], shard, dict(run_key, dataset=name), gap_s))
                labels.append(f"shard/{shard.key.label}")
        with obs.span("shard/analyze", shards=len(tasks), window_s=shard_window_s):
            results = executor.map(_analyze_shard_task, tasks, labels=labels)
        streamed: Dict[str, StreamedDataset] = {}
        cursor = 0
        for name in DATASET_NAMES:
            shards = shards_of[name]
            shard_results = results[cursor:cursor + len(shards)]
            cursor += len(shards)
            sim = by_name[name]
            streamed[name] = _merged_dataset(
                name, sim["world"], sim["digest"], shards, shard_results, gap_s
            )
    return StreamStudy(streamed, landmark_count=landmark_count, executor=executor)
