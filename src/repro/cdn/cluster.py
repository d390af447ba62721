"""The assembled CDN: request handling from DNS answer to flow events.

:class:`CdnSystem` ties the catalog, data centers, placement, DNS policy and
redirection engine together and turns one user video request into the group
of TCP flows an edge monitor would observe — exactly the observable unit the
paper's session analysis works on (Section VI-A: control flows carrying
signalling vs. video flows carrying content).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.cdn.catalog import Resolution, Video, VideoCatalog, shard_hostname, shard_of
from repro.cdn.datacenter import ContentServer, DataCenter, DataCenterDirectory
from repro.cdn.redirection import RedirectionEngine, ServeDecision
from repro.cdn.selection import SelectionPolicy
from repro.cdn.store import ContentPlacement
from repro.geo.coords import GeoPoint
from repro.net.dns import LocalResolver
from repro.net.latency import AccessTechnology, LatencyModel, Site

#: Flow kinds (ground truth; the trace schema does not carry them — the
#: analysis re-derives control vs. video from flow size, as the paper does).
KIND_CONTROL = "control"
KIND_VIDEO = "video"
KIND_ASSET = "asset"

#: Control-flow size range, bytes.  Below the paper's 1000-byte threshold.
_CONTROL_BYTES = (280, 950)

#: Smallest video flow emitted, bytes (an aborted playback still moves more
#: than a control exchange).
_MIN_VIDEO_BYTES = 20_000

#: Sustained client goodput by access technology, bits/s.
_GOODPUT_BPS: Dict[AccessTechnology, float] = {
    AccessTechnology.ADSL: 4.0e6,
    AccessTechnology.FTTH: 18.0e6,
    AccessTechnology.CAMPUS: 35.0e6,
    AccessTechnology.BACKBONE: 25.0e6,
    AccessTechnology.DATACENTER: 50.0e6,
}


@dataclass
class FlowEvent:
    """One observed TCP flow between a client and a content server.

    This is the pre-trace form; the monitor converts it into the flow-log
    record schema (:mod:`repro.trace.records`).

    Attributes:
        t_start: Flow start, seconds from trace start.
        t_end: Flow end, seconds from trace start.
        client_ip: Client address (integer IPv4).
        server_ip: Server address (integer IPv4).
        num_bytes: Bytes transferred server-to-client.
        video_id: The VideoID the Flash plugin requested.
        resolution: Resolution label (``"360p"``).
        kind: Ground-truth flow kind (control/video/asset).
    """

    t_start: float
    t_end: float
    client_ip: int
    server_ip: int
    num_bytes: int
    video_id: str
    resolution: str
    kind: str


@dataclass
class RequestOutcome:
    """Everything produced by one user video request.

    Attributes:
        events: Flow events in time order.
        decision: The redirection engine's hop chain (ground truth).
        dns_dc_id: Data center the DNS answer pointed at.
        served_dc_id: Data center that actually delivered the video.
    """

    events: List[FlowEvent]
    decision: ServeDecision
    dns_dc_id: str
    served_dc_id: str


class CdnSystem:
    """The simulated YouTube CDN.

    Args:
        catalog: Video catalog.
        directory: All data centers (Google, legacy, in-ISP, third-party).
        placement: Content residency tracker over the *Google-side* data
            centers (the ones DNS policies rank).
        policy: DNS-level selection policy.
        redirection: Application-layer redirection engine.
        latency: Shared delay model.
        num_shards: Content hostname shard count.
        legacy_dcs: Legacy YouTube-EU data centers serving small leftover
            assets (the AS 43515 rows of Table II).
        third_party_dcs: Other-AS server pools (CW/GBLX rows of Table II).
        legacy_probability: Chance a request also triggers a legacy asset
            flow.
        third_party_probability: Chance of a third-party asset flow.
        fragment_probability: Chance a video download is split over two
            back-to-back TCP connections (player reconnects, TCP resets) —
            the source of the paper's >2-flow sessions ("They account for
            5.18-10% of the total number of sessions", Section VI-C).
    """

    def __init__(
        self,
        catalog: VideoCatalog,
        directory: DataCenterDirectory,
        placement: ContentPlacement,
        policy: SelectionPolicy,
        redirection: RedirectionEngine,
        latency: LatencyModel,
        num_shards: int,
        legacy_dcs: Optional[Sequence[DataCenter]] = None,
        third_party_dcs: Optional[Sequence[DataCenter]] = None,
        legacy_probability: float = 0.0,
        third_party_probability: float = 0.0,
        fragment_probability: float = 0.07,
    ):
        self.catalog = catalog
        self.directory = directory
        self.placement = placement
        self.policy = policy
        self.redirection = redirection
        self.latency = latency
        self.num_shards = num_shards
        self._legacy_servers: List[ContentServer] = [
            s for dc in (legacy_dcs or []) for s in dc.servers
        ]
        self._legacy_dc_by_id = {dc.dc_id: dc for dc in (legacy_dcs or [])}
        self._third_party_servers: List[ContentServer] = [
            s for dc in (third_party_dcs or []) for s in dc.servers
        ]
        self._third_party_dc_by_id = {dc.dc_id: dc for dc in (third_party_dcs or [])}
        if not 0.0 <= legacy_probability < 1.0:
            raise ValueError("legacy_probability must be in [0, 1)")
        if not 0.0 <= third_party_probability < 1.0:
            raise ValueError("third_party_probability must be in [0, 1)")
        if not 0.0 <= fragment_probability < 1.0:
            raise ValueError("fragment_probability must be in [0, 1)")
        self._legacy_probability = legacy_probability
        self._third_party_probability = third_party_probability
        self._fragment_probability = fragment_probability
        self._floor_memo: Dict[Tuple[GeoPoint, AccessTechnology, float, str, str], float] = {}

    # ------------------------------------------------------------- plumbing

    def server_site(self, server: ContentServer) -> Site:
        """Network position of any known server (Google, legacy or other)."""
        dc = self.directory.dc_of_server(server.ip)
        if dc is None:
            dc = self._legacy_dc_by_id.get(server.dc_id) or self._third_party_dc_by_id.get(
                server.dc_id
            )
        if dc is None:
            raise KeyError(f"server {server.ip_str} belongs to no known data center")
        return dc.server_site(server)

    def floor_rtt_ms(self, client_site: Site, server: ContentServer) -> float:
        """Floor RTT between a client and a server, in ms (memoised).

        Equal, float for float, to ``latency.min_rtt_ms(client_site,
        server_site(server))``.  The floor reads only the client's
        position, access, extra delay and routing group plus the server's
        data center (every server of a data center shares one site), and
        all clients of a vantage point share those fields, so the memo
        holds about one entry per (vantage point, data center).
        """
        key = (
            client_site.point,
            client_site.access,
            client_site.extra_ms,
            client_site.routing_group,
            server.dc_id,
        )
        rtt_ms = self._floor_memo.get(key)
        if rtt_ms is None:
            rtt_ms = self.latency.min_rtt_ms(client_site, self.server_site(server))
            self._floor_memo[key] = rtt_ms
        return rtt_ms

    def _control_flow(
        self,
        t: float,
        client_ip: int,
        client_site: Site,
        server: ContentServer,
        video: Video,
        resolution: Resolution,
        rng: random.Random,
    ) -> FlowEvent:
        rtt_s = self.floor_rtt_ms(client_site, server) / 1000.0
        duration = 2.0 * rtt_s + rng.uniform(0.01, 0.08)
        return FlowEvent(
            t_start=t,
            t_end=t + duration,
            client_ip=client_ip,
            server_ip=server.ip,
            num_bytes=rng.randint(*_CONTROL_BYTES),
            video_id=video.video_id,
            resolution=resolution.label,
            kind=KIND_CONTROL,
        )

    def _video_flow(
        self,
        t: float,
        client_ip: int,
        client_site: Site,
        server: ContentServer,
        video: Video,
        resolution: Resolution,
        rng: random.Random,
        watch_fraction: Optional[float] = None,
    ) -> FlowEvent:
        if watch_fraction is None:
            # Many viewers watch to the end; the rest abandon part-way.
            watch_fraction = 1.0 if rng.random() < 0.40 else rng.uniform(0.05, 1.0)
        num_bytes = max(_MIN_VIDEO_BYTES, int(video.size_bytes(resolution) * watch_fraction))
        goodput = _GOODPUT_BPS[client_site.access] * rng.uniform(0.55, 1.1)
        duration = num_bytes * 8.0 / goodput + rng.uniform(0.1, 0.5)
        return FlowEvent(
            t_start=t,
            t_end=t + duration,
            client_ip=client_ip,
            server_ip=server.ip,
            num_bytes=num_bytes,
            video_id=video.video_id,
            resolution=resolution.label,
            kind=KIND_VIDEO,
        )

    def _fragment(self, flow: FlowEvent, rng: random.Random) -> List[FlowEvent]:
        """Split a video flow into two back-to-back connections.

        The player reconnects mid-download (same server): the trace shows
        two video flows whose gap is well under the session threshold.
        """
        split = rng.uniform(0.25, 0.75)
        duration = flow.t_end - flow.t_start
        first_end = flow.t_start + duration * split
        gap = rng.uniform(0.05, 0.4)
        first = FlowEvent(
            t_start=flow.t_start,
            t_end=first_end,
            client_ip=flow.client_ip,
            server_ip=flow.server_ip,
            num_bytes=int(flow.num_bytes * split),
            video_id=flow.video_id,
            resolution=flow.resolution,
            kind=flow.kind,
        )
        second = FlowEvent(
            t_start=first_end + gap,
            t_end=first_end + gap + duration * (1.0 - split),
            client_ip=flow.client_ip,
            server_ip=flow.server_ip,
            num_bytes=flow.num_bytes - first.num_bytes,
            video_id=flow.video_id,
            resolution=flow.resolution,
            kind=flow.kind,
        )
        return [first, second]

    def _asset_flow(
        self,
        t: float,
        client_ip: int,
        client_site: Site,
        pool: List[ContentServer],
        rng: random.Random,
    ) -> FlowEvent:
        server = pool[rng.randrange(len(pool))]
        # Small legacy videos / assets: log-normal around ~0.8 MB.
        num_bytes = int(min(6.0e6, max(3.0e4, rng.lognormvariate(math.log(8.0e5), 1.0))))
        goodput = _GOODPUT_BPS[client_site.access] * rng.uniform(0.55, 1.1)
        duration = num_bytes * 8.0 / goodput + rng.uniform(0.1, 0.4)
        video = self.catalog.by_rank(rng.randrange(len(self.catalog)))
        return FlowEvent(
            t_start=t,
            t_end=t + duration,
            client_ip=client_ip,
            server_ip=server.ip,
            num_bytes=num_bytes,
            video_id=video.video_id,
            resolution=Resolution.R240.label,
            kind=KIND_ASSET,
        )

    # --------------------------------------------------------------- request

    def handle_request(
        self,
        client_ip: int,
        client_site: Site,
        resolver: LocalResolver,
        video: Video,
        resolution: Resolution,
        t_s: float,
        rng: random.Random,
        watch_fraction: Optional[float] = None,
    ) -> RequestOutcome:
        """Serve one user video request end to end.

        Follows the paper's Section II sequence: the page hands the plugin a
        sharded content hostname, the client resolves it through its local
        resolver, contacts the answered server, and follows any
        application-layer redirects until a server delivers the video.

        Args:
            client_ip: Requesting client address.
            client_site: The client's network position.
            resolver: The client's local DNS resolver.
            video: Requested video.
            resolution: Requested resolution.
            t_s: Request time, seconds from trace start.
            rng: Workload RNG (owned by the caller/driver).
            watch_fraction: Override the sampled watch fraction (used by
                deterministic experiments).

        Returns:
            The :class:`RequestOutcome` with all flows the monitor will see.
        """
        shard = shard_of(video.video_id, self.num_shards)
        answer = resolver.query(shard_hostname(shard), t_s)
        first_server = self.directory.server_at(answer.ip)
        if first_server is None:
            raise LookupError(f"DNS answered an unknown server address: {answer.ip}")
        ranking = self.policy.ranking_for(resolver.resolver_id)
        decision = self.redirection.route(first_server, video, ranking, t_s, shard=shard)

        events: List[FlowEvent] = []
        cursor = t_s
        for hop in decision.hops[:-1]:
            flow = self._control_flow(cursor, client_ip, client_site, hop, video, resolution, rng)
            events.append(flow)
            cursor = flow.t_end + rng.uniform(0.05, 0.35)
        video_flow = self._video_flow(
            cursor,
            client_ip,
            client_site,
            decision.serving_server,
            video,
            resolution,
            rng,
            watch_fraction,
        )
        if (
            self._fragment_probability
            and video_flow.num_bytes >= 4 * _MIN_VIDEO_BYTES
            and rng.random() < self._fragment_probability
        ):
            events.extend(self._fragment(video_flow, rng))
        else:
            events.append(video_flow)

        if self._legacy_servers and rng.random() < self._legacy_probability:
            events.append(
                self._asset_flow(
                    t_s + rng.uniform(0.0, 2.0), client_ip, client_site, self._legacy_servers, rng
                )
            )
        if self._third_party_servers and rng.random() < self._third_party_probability:
            events.append(
                self._asset_flow(
                    t_s + rng.uniform(0.0, 2.0),
                    client_ip,
                    client_site,
                    self._third_party_servers,
                    rng,
                )
            )
        return RequestOutcome(
            events=events,
            decision=decision,
            dns_dc_id=first_server.dc_id,
            served_dc_id=decision.serving_server.dc_id,
        )
