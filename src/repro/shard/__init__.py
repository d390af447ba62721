"""Sharded, zero-copy scale-out (ROADMAP item 4).

The process backend used to pickle whole datasets and worlds across the
pool boundary; at scale 1.0+ that serialization is the dominant wall.
This package removes it in three composable layers:

* :mod:`repro.shard.shm` — shared-memory column transport: a
  :class:`~repro.trace.columnar.FlowTable`'s columns are published once
  into a named segment (``multiprocessing.shared_memory`` or a
  memory-mapped file) and process workers *attach* by name instead of
  unpickling records.  Serial/thread backends attach as a no-op view of
  the original table.
* :mod:`repro.shard.partition` — deterministic (vantage, time-window)
  shard keys over the globally time-sorted flow columns; each shard is a
  contiguous row range, so concatenating shards reproduces the batch
  record order and shard keys slot into the artifact cache.
* :mod:`repro.shard.merge` — first-class merge operators
  (:func:`~repro.shard.merge.merge_sessions` seam stitching, exact
  integer grouped sums, CDF/histogram merges, accumulator merges) that
  combine per-shard kernel outputs into byte-identical study results.

:mod:`repro.shard.study` wires the three into ``repro study --sharded``.
"""

from repro.shard.merge import (
    merge_cdf_samples,
    merge_grouped_sums,
    merge_histograms,
    merge_hourly,
    merge_session_sizes,
    merge_sessions,
    merge_traffic,
    session_partial,
)
from repro.shard.partition import Shard, ShardKey, partition_table
from repro.shard.shm import (
    ENV_SHM,
    SegmentScope,
    attach_table,
    live_segments,
    publish_table,
    shm_mode,
)
from repro.trace.columnar import records_from_columns

__all__ = [
    "ENV_SHM",
    "SegmentScope",
    "Shard",
    "ShardKey",
    "attach_table",
    "live_segments",
    "merge_cdf_samples",
    "merge_grouped_sums",
    "merge_histograms",
    "merge_hourly",
    "merge_session_sizes",
    "merge_sessions",
    "merge_traffic",
    "partition_table",
    "publish_table",
    "records_from_columns",
    "session_partial",
    "shm_mode",
]
