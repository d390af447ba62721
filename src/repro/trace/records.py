"""Flow-log record schema and the dataset container.

A :class:`FlowRecord` carries exactly the observables the paper's Tstat logs
expose — nothing from the simulator's ground truth (which data center served,
why a redirect happened) leaks into it.  The analysis pipeline must re-infer
those the way the authors did.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterator, List, Sequence, Tuple

from repro.net.ip import IPv4Network, format_ip
from repro.net.topology import VantagePoint

if TYPE_CHECKING:
    from repro.trace.columnar import FlowTable

#: One simulated trace week, in seconds.
WEEK_S = 7 * 86400.0

#: Largest accepted timestamp magnitude, in seconds.  Doubles stop holding
#: every integer beyond it, and the columnar ``hour`` cast stays far inside
#: int64; it also rejects infinity.
_MAX_ABS_T_S = 2.0**53

#: Byte counts are stored as int64 in the columnar layout.
_MAX_BYTES = 2**63


@dataclass(frozen=True)
class FlowRecord:
    """One line of the flow-level log.

    Attributes:
        src_ip: Client address (integer IPv4) — the PoP-internal endpoint.
        dst_ip: Server address (integer IPv4).
        num_bytes: Bytes transferred server-to-client.
        t_start: Flow start time, seconds from trace start.
        t_end: Flow end time, seconds from trace start.
        video_id: The 11-character VideoID Tstat extracts from the HTTP
            request.
        resolution: Requested resolution label (``"360p"``).
    """

    src_ip: int
    dst_ip: int
    num_bytes: int
    t_start: float
    t_end: float
    video_id: str
    resolution: str

    def __post_init__(self) -> None:
        # Plain comparisons only: every simulated flow passes through here.
        # ``not (a <= b)`` is also true when either side is NaN.
        if not (self.t_start <= self.t_end):
            if self.t_start != self.t_start or self.t_end != self.t_end:
                raise ValueError("flow timestamp is NaN")
            raise ValueError("flow ends before it starts")
        if not (-_MAX_ABS_T_S < self.t_start and self.t_end < _MAX_ABS_T_S):
            raise ValueError("flow timestamp is infinite or out of range (|t| >= 2**53 s)")
        if self.num_bytes < 0:
            raise ValueError("negative byte count")
        if self.num_bytes >= _MAX_BYTES:
            raise ValueError("byte count does not fit in 64 bits")

    @property
    def duration_s(self) -> float:
        """Flow duration in seconds."""
        return self.t_end - self.t_start

    @property
    def hour(self) -> int:
        """Trace hour the flow started in (Figure 9/11/15 binning)."""
        return int(self.t_start // 3600.0)

    @property
    def src_str(self) -> str:
        """Dotted-quad client address."""
        return format_ip(self.src_ip)

    @property
    def dst_str(self) -> str:
        """Dotted-quad server address."""
        return format_ip(self.dst_ip)


@dataclass
class Dataset:
    """One vantage point's collected trace plus its public metadata.

    The metadata mirrors what the paper's authors knew about their own
    vantage points: where the probe PC sits (for active RTT measurements),
    the access technology, and the internal subnet plan (Figure 12 needs
    it).  It does *not* include anything about the CDN side.

    A dataset pickles as its flows' column arrays plus its
    :meth:`content_digest` once that has been computed, so a cached or
    shipped week costs a few buffer copies.

    Attributes:
        name: Dataset name (``"US-Campus"``...).
        vantage: The monitored vantage point.
        records: Flow records sorted by start time, as a
            :class:`~repro.trace.columnar.FlowTable` (any record sequence
            assigned here is wrapped in one).
        duration_s: Collection window length.
    """

    name: str
    vantage: VantagePoint
    records: "FlowTable"
    duration_s: float = WEEK_S

    def __setattr__(self, name: str, value) -> None:
        if name == "records":
            from repro.trace.columnar import FlowTable

            if not isinstance(value, FlowTable):
                value = FlowTable(value)
        object.__setattr__(self, name, value)

    def __post_init__(self) -> None:
        if self.duration_s <= 0:
            raise ValueError("duration must be positive")

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self) -> Iterator[FlowRecord]:
        return iter(self.records)

    @property
    def num_hours(self) -> int:
        """Number of whole hours in the collection window."""
        return int(self.duration_s // 3600.0)

    @property
    def total_bytes(self) -> int:
        """Total downloaded volume (Table I's ``Volume`` column)."""
        from repro.trace.columnar import use_numpy

        if use_numpy():
            return sum(self.records.columns().num_bytes.tolist())
        return sum(r.num_bytes for r in self.records)

    @property
    def server_ips(self) -> List[int]:
        """Distinct server addresses, sorted (Table I's ``#Servers``)."""
        from repro.trace.columnar import use_numpy

        if use_numpy():
            return self.records.dst_codes()[0].tolist()
        return sorted({r.dst_ip for r in self.records})

    @property
    def client_ips(self) -> List[int]:
        """Distinct client addresses, sorted (Table I's ``#Clients``)."""
        from repro.trace.columnar import use_numpy

        if use_numpy():
            import numpy as np

            return np.unique(self.records.columns().src_ip).tolist()
        return sorted({r.src_ip for r in self.records})

    def subnet_plan(self) -> Sequence[Tuple[str, IPv4Network]]:
        """The vantage point's internal subnets (name, network)."""
        return [(s.name, s.network) for s in self.vantage.subnets]

    def columnar(self) -> "FlowTable":
        """The dataset's flows as a :class:`~repro.trace.columnar.FlowTable`.

        The same object as :attr:`records`; kept as the kernels' entry
        point.
        """
        return self.records

    def content_digest(self) -> str:
        """SHA-256 over the canonical flow-log serialisation of the records.

        Two datasets digest equal iff their flow logs are byte-identical
        (the serialisation round-trips floats exactly); the cross-backend
        determinism tests compare parallel and serial runs with this.

        The digest lives on the flow table (see
        :meth:`~repro.trace.columnar.FlowTable.content_digest`), so it is
        computed once and carried; rebinding :attr:`records` and
        :meth:`filtered` start without one.
        """
        return self.records.content_digest()

    def summary_digest(self, gap_s: float = 10.0) -> str:
        """SHA-256 over the *derived* view: header plus per-session summaries.

        Complements :meth:`content_digest`: where that one certifies the raw
        flow log byte for byte, this one certifies what the analysis layer
        computes from it — session grouping included — so a cached artifact
        can be checked against a fresh run at the level the paper's tables
        are built on.  Two datasets with equal content digests always have
        equal summary digests; the reverse can miss flow-level differences
        that sessionisation absorbs.

        Args:
            gap_s: Session idle-gap threshold handed to
                :func:`repro.core.sessions.build_sessions`.
        """
        from repro.core.sessions import build_sessions

        digest = hashlib.sha256()
        header = (
            f"{self.name}|flows={len(self.records)}|bytes={self.total_bytes}"
            f"|servers={len(self.server_ips)}|clients={len(self.client_ips)}"
            f"|duration={self.duration_s!r}|gap={gap_s!r}"
        )
        digest.update(header.encode("ascii"))
        digest.update(b"\n")
        # The table is passed so the numpy kernels reuse its cached
        # session index; the python backend iterates the same records.
        for session in build_sessions(self.records, gap_s=gap_s):
            flows = session.flows
            line = (
                f"{session.client_ip}|{session.video_id}|{len(flows)}"
                f"|{sum(r.num_bytes for r in flows)}"
                f"|{flows[0].t_start!r}|{flows[-1].t_end!r}"
            )
            digest.update(line.encode("ascii"))
            digest.update(b"\n")
        return digest.hexdigest()

    def filtered(self, keep_dst: Sequence[int]) -> "Dataset":
        """A copy keeping only flows to the given server addresses.

        Section IV: "In the rest of this paper, we only focus on accesses to
        video servers located in the Google AS" (plus the in-ISP data center
        for EU2).  The analysis applies that focus with this method.
        """
        return Dataset(
            name=self.name,
            vantage=self.vantage,
            records=self.records.where_dst(keep_dst),
            duration_s=self.duration_s,
        )
