"""Adapters for external flow-log formats.

Real deployments do not produce our TSV schema; Tstat's
``log_tcp_complete`` is a wide whitespace-separated table whose column
layout varies by version, and other collectors (Bro/Zeek, custom probes)
differ again.  Rather than hard-code any one layout, the adapter takes a
:class:`ColumnMapping` from the caller — who knows their collector — and
turns each usable line into a :class:`~repro.trace.records.FlowRecord`.

Lines that cannot be parsed are counted, not fatal: a week-long log always
contains a few mangled lines, and an importer that dies on line 48 million
is useless.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import List, Optional, Union

from repro.net.ip import parse_ip
from repro.trace.records import FlowRecord

PathLike = Union[str, Path]


@dataclass(frozen=True)
class ColumnMapping:
    """Where each FlowRecord field lives in the external format.

    Attributes:
        src_ip: Column index (0-based) of the client address.
        dst_ip: Column of the server address.
        num_bytes: Column of the server-to-client byte count.
        t_start: Column of the flow start time.
        t_end: Column of the flow end time; ``None`` derives it from
            ``duration`` instead.
        duration: Column of the flow duration (used when ``t_end`` is
            ``None``).
        video_id: Column of the VideoID; ``None`` fills a placeholder
            (analyses needing sessions then degrade, and say so).
        resolution: Column of the resolution label; ``None`` fills "?".
        delimiter: Field separator; ``None`` = any whitespace.
        time_unit_s: Multiplier converting the log's time unit to seconds
            (Tstat logs milliseconds: 0.001).
        t_zero: Timestamp of the collection start in the log's own unit;
            subtracted so records use seconds-from-trace-start.  ``None``
            auto-detects the minimum start time on a first pass.
    """

    src_ip: int
    dst_ip: int
    num_bytes: int
    t_start: int
    t_end: Optional[int] = None
    duration: Optional[int] = None
    video_id: Optional[int] = None
    resolution: Optional[int] = None
    delimiter: Optional[str] = None
    time_unit_s: float = 1.0
    t_zero: Optional[float] = None

    def __post_init__(self) -> None:
        if self.t_end is None and self.duration is None:
            raise ValueError("mapping needs t_end or duration")
        if self.time_unit_s <= 0:
            raise ValueError("time_unit_s must be positive")


#: A reasonable mapping for Tstat 2.x ``log_tcp_complete`` core columns
#: (client side first):  c_ip=0, s_ip=14, s_bytes_uniq=21, first=28,
#: last=29 — times in ms since the epoch.  Verify against your build's
#: column reference before trusting it; layouts move between versions.
TSTAT_TCP_COMPLETE_EXAMPLE = ColumnMapping(
    src_ip=0,
    dst_ip=14,
    num_bytes=21,
    t_start=28,
    t_end=29,
    time_unit_s=0.001,
)


@dataclass
class ImportResult:
    """Outcome of importing an external log.

    Attributes:
        records: Successfully parsed flow records, time-sorted.
        parsed_lines: Lines converted.
        skipped_lines: Lines dropped (malformed, comments, too short).
    """

    records: List[FlowRecord]
    parsed_lines: int
    skipped_lines: int

    @property
    def skip_fraction(self) -> float:
        """Share of candidate lines dropped."""
        total = self.parsed_lines + self.skipped_lines
        return self.skipped_lines / total if total else 0.0


def _parse_line(
    fields: List[str], mapping: ColumnMapping, t_zero: float
) -> Optional[FlowRecord]:
    try:
        t_start = float(fields[mapping.t_start]) * mapping.time_unit_s - t_zero
        if mapping.t_end is not None:
            t_end = float(fields[mapping.t_end]) * mapping.time_unit_s - t_zero
        else:
            t_end = t_start + float(fields[mapping.duration]) * mapping.time_unit_s
        if t_end < t_start or t_start < 0:
            return None
        return FlowRecord(
            src_ip=parse_ip(fields[mapping.src_ip]),
            dst_ip=parse_ip(fields[mapping.dst_ip]),
            num_bytes=int(float(fields[mapping.num_bytes])),
            t_start=t_start,
            t_end=t_end,
            video_id=(
                fields[mapping.video_id] if mapping.video_id is not None else "-" * 11
            ),
            resolution=(
                fields[mapping.resolution] if mapping.resolution is not None else "?"
            ),
        )
    except (IndexError, ValueError, OverflowError):
        return None


def import_flow_log(path: PathLike, mapping: ColumnMapping) -> ImportResult:
    """Import an external flow log.

    Args:
        path: Log file path.
        mapping: Column layout of the external format.

    Returns:
        The :class:`ImportResult`; ``records`` are sorted by start time.
    """
    lines: List[List[str]] = []
    with open(path, "r", encoding="utf-8", errors="replace") as handle:
        for raw in handle:
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            lines.append(line.split(mapping.delimiter))

    t_zero = mapping.t_zero
    if t_zero is None:
        starts = []
        for fields in lines:
            try:
                starts.append(float(fields[mapping.t_start]) * mapping.time_unit_s)
            except (IndexError, ValueError):
                continue
        t_zero = min(starts) if starts else 0.0

    records: List[FlowRecord] = []
    skipped = 0
    for fields in lines:
        record = _parse_line(fields, mapping, t_zero)
        if record is None:
            skipped += 1
        else:
            records.append(record)
    records.sort(key=lambda r: (r.t_start, r.t_end))
    return ImportResult(records=records, parsed_lines=len(records), skipped_lines=skipped)
