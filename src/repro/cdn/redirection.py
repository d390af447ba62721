"""Application-layer redirection at the content servers.

The paper's second selection mechanism (Section VI): "the server initially
contacted can redirect the client to another server in a possibly different
data center".  The engine decides, per request, the chain of servers the
client actually touches, driven by two conditions the paper identifies:

* **content miss** — the landing data center does not hold the video
  (cold-tail content, Section VII-C "Availability of unpopular videos"):
  redirect to the nearest holder, then pull the video through into the
  landing data center so later requests are served locally;
* **server overload** — the landing server exceeded its hourly serve
  capacity (hot videos pinned to one shard server, Section VII-C
  "Alleviating hot-spots"): mostly shed to the *same shard's* server in the
  next data center of the client's ranking (that server already caches the
  shard's content), occasionally to a sibling in the same data center.
  This is why the paper sees hot-video overflow served from *non-preferred*
  data centers (Figure 16) rather than absorbed locally.

A small baseline probability of intra-data-center rebalancing produces the
"preferred, preferred" two-flow sessions visible in Figure 10(b).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.cdn.catalog import Video
from repro.cdn.datacenter import ContentServer, DataCenter, DataCenterDirectory
from repro.cdn.store import ContentPlacement
from repro.geo.coords import haversine_km

#: Safety bound on redirection chains.
MAX_HOPS = 4

#: Hop causes recorded on a decision (ground truth for tests/diagnostics —
#: the analysis pipeline never sees these).
CAUSE_DIRECT = "direct"
CAUSE_MISS = "miss"
CAUSE_OVERLOAD_INTRA = "overload-intra"
CAUSE_OVERLOAD_INTER = "overload-inter"
CAUSE_REBALANCE = "rebalance"


@dataclass
class ServeDecision:
    """The outcome of routing one request through the content servers.

    Attributes:
        hops: Servers contacted in order; every hop but the last answers
            with a redirect (a control flow), the last serves the video.
        causes: Why each redirect happened, one entry per redirect
            (``len(causes) == len(hops) - 1``).
    """

    hops: List[ContentServer]
    causes: List[str] = field(default_factory=list)

    @property
    def serving_server(self) -> ContentServer:
        """The server that delivers the video."""
        return self.hops[-1]

    @property
    def redirected(self) -> bool:
        """Whether any redirect occurred."""
        return len(self.hops) > 1


class RedirectionEngine:
    """Routes requests through content servers, tracking per-server load.

    Args:
        directory: All data centers.
        placement: Content residency tracker.
        rebalance_probability: Baseline chance that a non-overloaded server
            still bounces the client to a sibling in the same data center.
        intra_shed_fraction: Fraction of overload events shed to a sibling
            (which must re-fetch the shard's content) instead of to the
            shard server of the next-ranked data center.
        origin_fetch_probability: On a content miss, chance the redirect
            targets the video's canonical *origin* copy — wherever in the
            world it is — instead of the nearest cached holder.  The lookup
            only knows where the video certainly exists; this is why edge
            traces see servers on other continents (Table III) and why a
            cold video can arrive from the Netherlands (Figure 17).
        seed: RNG seed.
    """

    def __init__(
        self,
        directory: DataCenterDirectory,
        placement: ContentPlacement,
        rebalance_probability: float = 0.08,
        intra_shed_fraction: float = 0.25,
        origin_fetch_probability: float = 0.35,
        seed: int = 0,
    ):
        if not 0.0 <= rebalance_probability < 1.0:
            raise ValueError("rebalance_probability must be in [0, 1)")
        if not 0.0 <= intra_shed_fraction <= 1.0:
            raise ValueError("intra_shed_fraction must be in [0, 1]")
        if not 0.0 <= origin_fetch_probability <= 1.0:
            raise ValueError("origin_fetch_probability must be in [0, 1]")
        self._directory = directory
        self._placement = placement
        self._rebalance_probability = rebalance_probability
        self._intra_shed_fraction = intra_shed_fraction
        self._origin_fetch_probability = origin_fetch_probability
        self._rng = random.Random(seed)
        # server_ip -> [hour_index, serves_this_hour]
        self._load: Dict[int, List[float]] = {}
        # (from dc_id, holder dc_id) -> great-circle km, filled as
        # :meth:`_nearest_holder` touches pairs (at most #DC² entries).
        self._dist: Dict[Tuple[str, str], float] = {}
        self.miss_redirects = 0
        self.overload_redirects = 0
        self.rebalances = 0

    # ------------------------------------------------------------------ load

    def _serves_this_hour(self, server_ip: int, now_s: float) -> float:
        hour = int(now_s // 3600.0)
        entry = self._load.get(server_ip)
        if entry is None or entry[0] != hour:
            return 0.0
        return entry[1]

    def _record_serve(self, server_ip: int, now_s: float) -> None:
        hour = int(now_s // 3600.0)
        entry = self._load.get(server_ip)
        if entry is None or entry[0] != hour:
            self._load[server_ip] = [hour, 1.0]
        else:
            entry[1] += 1.0

    def _is_overloaded(self, server: ContentServer, dc: DataCenter, now_s: float) -> bool:
        cap = dc.server_capacity_per_hour
        if cap is None:
            return False
        return self._serves_this_hour(server.ip, now_s) >= cap

    def server_load(self, server_ip: int, now_s: float) -> float:
        """Current-hour serve count of a server (diagnostics)."""
        return self._serves_this_hour(server_ip, now_s)

    # ------------------------------------------------------------ candidates

    def _sibling_with_headroom(
        self, dc: DataCenter, exclude_ip: int, now_s: float
    ) -> Optional[ContentServer]:
        """A random same-data-center server below capacity, if any."""
        cap = dc.server_capacity_per_hour
        candidates = [s for s in dc.servers if s.ip != exclude_ip]
        if not candidates:
            return None
        # Sample a handful rather than scanning the fleet: overflow events
        # are rare and a random probe finds headroom quickly unless the
        # whole data center is hot.
        for _ in range(min(8, len(candidates))):
            pick = candidates[self._rng.randrange(len(candidates))]
            if cap is None or self._serves_this_hour(pick.ip, now_s) < cap:
                return pick
        return None

    def _any_sibling(self, dc: DataCenter, exclude_ip: int) -> Optional[ContentServer]:
        candidates = [s for s in dc.servers if s.ip != exclude_ip]
        if not candidates:
            return None
        return candidates[self._rng.randrange(len(candidates))]

    def _server_in_dc(self, dc: DataCenter, now_s: float) -> ContentServer:
        """A lightly loaded random server in a (different) data center."""
        cap = dc.server_capacity_per_hour
        for _ in range(min(8, dc.size)):
            pick = dc.servers[self._rng.randrange(dc.size)]
            if cap is None or self._serves_this_hour(pick.ip, now_s) < cap:
                return pick
        return dc.servers[self._rng.randrange(dc.size)]

    def _nearest_holder(
        self, from_dc: DataCenter, video: Video, allowed: Optional[frozenset] = None
    ) -> Optional[DataCenter]:
        """The geographically nearest data center holding the video.

        Args:
            from_dc: The data center the request landed on.
            video: The requested video.
            allowed: If given, only these data centers are candidates —
                the client's eligible set (an in-ISP data center serves
                only the host ISP's customers).
        """
        best: Optional[DataCenter] = None
        best_km = float("inf")
        from_id = from_dc.dc_id
        dist = self._dist
        for dc_id in self._placement.holders(video):
            if dc_id == from_id:
                continue
            if allowed is not None and dc_id not in allowed:
                continue
            dc = self._directory.get(dc_id)
            d = dist.get((from_id, dc_id))
            if d is None:
                d = dist[from_id, dc_id] = haversine_km(from_dc.city.point, dc.city.point)
            if d < best_km:
                best, best_km = dc, d
        return best

    def _next_ranked_dc(
        self, ranking: Sequence[str], current_dc_id: str, video: Video
    ) -> Optional[DataCenter]:
        """The next data center in the client's ranking that holds the video."""
        seen_current = False
        for dc_id in ranking:
            if dc_id == current_dc_id:
                seen_current = True
                continue
            if not seen_current:
                continue
            if self._placement.is_resident(dc_id, video):
                return self._directory.get(dc_id)
        # Fall back to any other ranked holder.
        for dc_id in ranking:
            if dc_id != current_dc_id and self._placement.is_resident(dc_id, video):
                return self._directory.get(dc_id)
        return None

    # ----------------------------------------------------------------- route

    def route(
        self,
        first_server: ContentServer,
        video: Video,
        ranking: Sequence[str],
        now_s: float,
        shard: Optional[int] = None,
    ) -> ServeDecision:
        """Route one request starting at the DNS-chosen server.

        Args:
            first_server: The server the client's DNS answer pointed at.
            video: The requested video.
            ranking: The client's data-center preference order (used to pick
                overflow targets the way the real system keeps them close).
            now_s: Request time, seconds from trace start.
            shard: The video's name shard; overload overflow goes to this
                shard's server in the next-ranked data center (it caches the
                same content).  ``None`` falls back to random servers.

        Returns:
            The :class:`ServeDecision` with the full hop chain.
        """
        decision = ServeDecision(hops=[first_server])
        server = first_server
        # Data centers this client may be redirected to: wherever its DNS
        # ranking can reach, plus wherever it already landed.
        allowed = frozenset(ranking) | {first_server.dc_id}
        for _ in range(MAX_HOPS - 1):
            dc = self._directory.get(server.dc_id)
            if not self._placement.is_resident(dc.dc_id, video):
                holder = None
                if self._rng.random() < self._origin_fetch_probability:
                    origins = [
                        o for o in self._placement.origins(video)
                        if o != dc.dc_id and o in allowed
                    ]
                    if origins:
                        holder = self._directory.get(
                            origins[self._rng.randrange(len(origins))]
                        )
                if holder is None:
                    holder = self._nearest_holder(dc, video, allowed)
                if holder is None:
                    break  # nobody else has it; serve from here regardless
                # The landing data center fetches the content as well, so
                # subsequent requests are served locally (pull-through).
                self._placement.pull_through(dc.dc_id, video)
                server = self._server_in_dc(holder, now_s)
                decision.hops.append(server)
                decision.causes.append(CAUSE_MISS)
                self.miss_redirects += 1
                continue
            if self._is_overloaded(server, dc, now_s):
                shed_local = self._rng.random() < self._intra_shed_fraction
                sibling = (
                    self._sibling_with_headroom(dc, server.ip, now_s) if shed_local else None
                )
                if sibling is not None:
                    server = sibling
                    decision.hops.append(server)
                    decision.causes.append(CAUSE_OVERLOAD_INTRA)
                else:
                    target = self._next_ranked_dc(ranking, dc.dc_id, video)
                    if target is None:
                        sibling = self._sibling_with_headroom(dc, server.ip, now_s)
                        if sibling is None:
                            break
                        server = sibling
                        decision.hops.append(server)
                        decision.causes.append(CAUSE_OVERLOAD_INTRA)
                        self.overload_redirects += 1
                        continue
                    if shard is not None:
                        server = target.server_by_index(shard % target.size)
                    else:
                        server = self._server_in_dc(target, now_s)
                    decision.hops.append(server)
                    decision.causes.append(CAUSE_OVERLOAD_INTER)
                self.overload_redirects += 1
                continue
            if (
                len(decision.hops) == 1
                and self._rebalance_probability
                and self._rng.random() < self._rebalance_probability
            ):
                sibling = self._any_sibling(dc, server.ip)
                if sibling is not None:
                    server = sibling
                    decision.hops.append(server)
                    decision.causes.append(CAUSE_REBALANCE)
                    self.rebalances += 1
                    continue
            break
        self._record_serve(decision.serving_server.ip, now_s)
        return decision
