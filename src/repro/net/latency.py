"""Distance-driven end-to-end delay model.

The model generates the RTTs that every measurement in the reproduction
consumes: the vantage-point ping campaigns (Figure 2), CBG's landmark probes
(Figure 3, Table III), the per-data-center RTT ranking that defines the
preferred data center (Figure 7), and the PlanetLab test-video experiment
(Figures 17, 18).

Structure of a minimum RTT between two sites::

    rtt_min = 2 * distance / C_FIBER * inflation     (propagation)
            + detour                                 (transit/peering detour)
            + last_mile(a) + last_mile(b)            (access links)
            + extra(a) + extra(b)                    (site egress, e.g. campus firewall)
            + PROCESSING_MS                          (endpoint turnaround)

``inflation`` models route circuitousness and ``detour`` models paths that
are hauled through distant peering points; both are deterministic functions
of the unordered *site-group* pair, so repeated probes of the same path see
the same floor — exactly the property delay-based geolocation relies on
(Percacci & Vespignani: delay grows linearly with distance, with
path-dependent scatter).  Grouping matters: all clients of one vantage point
share the group of their PoP, so they agree with the probe PC about which
data center is closest — the consistency the preferred-data-center analysis
(Section VI-B) depends on.

Detours only ever *add* latency, so CBG's distance constraints (upper
bounds) remain valid; they just widen.  The ``detour_overrides`` hook lets a
scenario pin specific paths — this is how the reproduction engineers the
US-Campus situation where the lowest-RTT data center is not a geographically
close one (Figure 8).
"""

from __future__ import annotations

import enum
import math
import random
import zlib
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.geo.coords import GeoPoint, haversine_km

#: One-way propagation speed in fibre, km per millisecond (~2/3 c).
C_FIBER_KM_PER_MS = 200.0

#: Fixed endpoint turnaround (kernel + NIC on both ends), ms.
PROCESSING_MS = 0.3

#: Route-inflation range applied to great-circle propagation.
_INFLATION_MIN = 1.3
_INFLATION_MAX = 2.3

#: Queueing-jitter scale range (ms); exponential noise above the floor.
_JITTER_MIN_MS = 0.3
_JITTER_MAX_MS = 3.0

#: Probability that a path takes a transit detour, and its magnitude (ms).
_DETOUR_PROBABILITY = 0.35
_DETOUR_MIN_MS = 2.0
_DETOUR_MAX_MS = 20.0


class AccessTechnology(enum.Enum):
    """Last-mile technology of a site; fixes its access-link latency."""

    DATACENTER = "datacenter"
    BACKBONE = "backbone"
    CAMPUS = "campus"
    FTTH = "ftth"
    ADSL = "adsl"

    @property
    def last_mile_ms(self) -> float:
        """One-way access latency contributed by this technology, ms."""
        return _LAST_MILE_MS[self]


_LAST_MILE_MS = {
    AccessTechnology.DATACENTER: 0.1,
    AccessTechnology.BACKBONE: 0.3,
    AccessTechnology.CAMPUS: 0.8,
    AccessTechnology.FTTH: 1.5,
    AccessTechnology.ADSL: 13.0,
}


@dataclass(frozen=True)
class Site:
    """A network endpoint with a physical location.

    Attributes:
        key: Stable identifier (IP string, landmark name, ...).
        point: Physical location.
        access: Last-mile technology.
        extra_ms: Additional fixed one-way latency at this site (e.g. a
            campus network's congested egress, an ISP PoP's backhaul).
        group: Routing-group identifier; sites sharing a group share paths.
            Defaults to ``key``.  All clients and the probe PC of one
            vantage point use the vantage's group; all servers of one data
            center use the data center's group.
    """

    key: str
    point: GeoPoint
    access: AccessTechnology
    extra_ms: float = 0.0
    group: Optional[str] = None

    @property
    def routing_group(self) -> str:
        """The effective routing group."""
        return self.group if self.group is not None else self.key


@dataclass(frozen=True)
class PathProfile:
    """Deterministic characteristics of the path between two site groups.

    Attributes:
        inflation: Multiplier over great-circle propagation delay.
        jitter_ms: Scale of the exponential queueing noise above the floor.
        detour_ms: Additive transit/peering detour.
    """

    inflation: float
    jitter_ms: float
    detour_ms: float


class LatencyModel:
    """Generates minimum and sampled RTTs between :class:`Site` pairs.

    Args:
        seed: World seed; all path properties derive from it.
        detour_overrides: Optional pinned detours keyed by unordered group
            pairs, e.g. ``{("vp:US-Campus", "dc-chicago"): 18.0}``.  Used by
            scenario builders to engineer specific RTT rankings.
    """

    def __init__(
        self,
        seed: int = 0,
        detour_overrides: Optional[Dict[Tuple[str, str], float]] = None,
    ):
        self._seed = seed
        self._overrides: Dict[Tuple[str, str], float] = {}
        for (a, b), value in (detour_overrides or {}).items():
            if value < 0:
                raise ValueError(f"negative detour for {(a, b)}: {value}")
            self._overrides[_pair_key(a, b)] = value

    def cache_fingerprint(self) -> Dict[str, object]:
        """Canonical identity for artifact-cache keys.

        Every RTT this model can produce is a deterministic function of
        the seed and the pinned detours (plus the caller's RNG, which
        campaign jobs key separately), so these two fields *are* the
        model as far as cached measurements are concerned.
        """
        return {
            "seed": self._seed,
            "detours": sorted(
                [a, b, value] for (a, b), value in self._overrides.items()
            ),
        }

    def path_profile(self, a: Site, b: Site) -> PathProfile:
        """Deterministic path profile for the unordered pair of groups."""
        pair = _pair_key(a.routing_group, b.routing_group)
        digest = zlib.crc32(f"{self._seed}|{pair[0]}|{pair[1]}".encode())
        u1 = (digest & 0xFFFF) / 0xFFFF
        u2 = ((digest >> 16) & 0xFFFF) / 0xFFFF
        inflation = _INFLATION_MIN + u1 * (_INFLATION_MAX - _INFLATION_MIN)
        jitter = _JITTER_MIN_MS + u2 * (_JITTER_MAX_MS - _JITTER_MIN_MS)
        override = self._overrides.get(pair)
        if override is not None:
            detour = override
        else:
            digest2 = zlib.crc32(f"detour|{self._seed}|{pair[0]}|{pair[1]}".encode())
            u3 = (digest2 & 0xFFFFFF) / 0xFFFFFF
            if u3 < _DETOUR_PROBABILITY:
                detour = _DETOUR_MIN_MS + (u3 / _DETOUR_PROBABILITY) * (
                    _DETOUR_MAX_MS - _DETOUR_MIN_MS
                )
            else:
                detour = 0.0
        return PathProfile(inflation=inflation, jitter_ms=jitter, detour_ms=detour)

    def min_rtt_ms(self, a: Site, b: Site) -> float:
        """The floor RTT between two sites (no queueing), in ms."""
        return _floor_ms(a, b, self.path_profile(a, b))

    def sample_rtt_ms(self, a: Site, b: Site, rng: random.Random) -> float:
        """One probe's RTT: the floor plus exponential queueing noise."""
        profile = self.path_profile(a, b)
        return _floor_ms(a, b, profile) + rng.expovariate(1.0 / profile.jitter_ms)

    def measure_min_rtt_ms(self, a: Site, b: Site, rng: random.Random, probes: int = 10) -> float:
        """Minimum over ``probes`` samples — what ``ping`` campaigns report.

        With ~10 probes the minimum sits within a fraction of the jitter
        scale above the true floor, mirroring real min-filtered pings.

        Equal, float for float and draw for draw, to the minimum of
        ``probes`` :meth:`sample_rtt_ms` calls; only the deterministic
        floor and noise rate are computed once instead of once per probe.
        """
        if probes < 1:
            raise ValueError("probes must be >= 1")
        profile = self.path_profile(a, b)
        floor = _floor_ms(a, b, profile)
        rate = 1.0 / profile.jitter_ms
        return min(floor + rng.expovariate(rate) for _ in range(probes))

    @staticmethod
    def ideal_rtt_ms(distance_km: float) -> float:
        """The physically minimal RTT for a given distance (no inflation).

        This is the speed-of-light-in-fibre bound CBG uses as the slope
        floor for its bestlines, and the sanity check the paper applies to
        Maxmind ("too small to be compatible with intercontinental
        propagation time constraints").
        """
        return 2.0 * distance_km / C_FIBER_KM_PER_MS

    @staticmethod
    def max_distance_km(rtt_ms: float) -> float:
        """Upper bound on distance implied by an RTT (inverse of the bound)."""
        return max(0.0, rtt_ms) * C_FIBER_KM_PER_MS / 2.0

    def floor_breakdown(self, a: Site, b: Site) -> Dict[str, float]:
        """Diagnostic decomposition of the floor RTT, for examples/docs."""
        profile = self.path_profile(a, b)
        distance = haversine_km(a.point, b.point)
        propagation = 2.0 * distance / C_FIBER_KM_PER_MS * profile.inflation
        return {
            "distance_km": distance,
            "inflation": profile.inflation,
            "propagation_ms": propagation,
            "detour_ms": profile.detour_ms,
            "access_ms": a.access.last_mile_ms + b.access.last_mile_ms,
            "extra_ms": a.extra_ms + b.extra_ms,
            "processing_ms": PROCESSING_MS,
            "floor_ms": _floor_ms(a, b, profile),
        }


def _pair_key(a: str, b: str) -> Tuple[str, str]:
    return (a, b) if a <= b else (b, a)


def _floor_ms(a: Site, b: Site, profile: PathProfile) -> float:
    """The floor RTT between two sites over their (already computed) path."""
    distance = haversine_km(a.point, b.point)
    propagation = 2.0 * distance / C_FIBER_KM_PER_MS * profile.inflation
    access = a.access.last_mile_ms + b.access.last_mile_ms + a.extra_ms + b.extra_ms
    return propagation + profile.detour_ms + access + PROCESSING_MS


def geographic_midpoint(a: GeoPoint, b: GeoPoint) -> GeoPoint:
    """Approximate midpoint of two points (for diagnostics and plots)."""
    # Average in 3-D Cartesian space, then project back to the sphere.
    def to_xyz(p: GeoPoint):
        lat = math.radians(p.lat)
        lon = math.radians(p.lon)
        return (
            math.cos(lat) * math.cos(lon),
            math.cos(lat) * math.sin(lon),
            math.sin(lat),
        )

    ax, ay, az = to_xyz(a)
    bx, by, bz = to_xyz(b)
    mx, my, mz = (ax + bx) / 2.0, (ay + by) / 2.0, (az + bz) / 2.0
    norm = math.sqrt(mx * mx + my * my + mz * mz)
    if norm == 0.0:
        return GeoPoint(0.0, 0.0)
    lat = math.degrees(math.asin(mz / norm))
    lon = math.degrees(math.atan2(my, mx))
    return GeoPoint(lat, lon)
