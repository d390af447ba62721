"""Constraint-Based Geolocation (CBG), from scratch.

Implements the algorithm of Gueye, Ziviani, Crovella and Fdida
("Constraint-based Geolocation of Internet Hosts", IEEE/ACM ToN 2006) that
the paper uses to locate YouTube servers (Section V):

1. **Self-calibration.**  Each landmark measures RTTs to all other
   landmarks, whose positions it knows.  From the (distance, RTT) cloud it
   fits its *bestline* — the line lying at or below every point, with slope
   no gentler than the speed-of-light-in-fibre bound.  The bestline converts
   a measured RTT into the loosest *over*-estimate of distance consistent
   with that landmark's observed paths.

2. **Multilateration.**  For a target, each landmark's measured RTT yields a
   constraint circle (centre = landmark, radius = bestline distance).  The
   target must lie in the intersection of all circles.

3. **Region estimation.**  The intersection is sampled on a sunflower grid
   laid over the tightest circle; the estimate is the spherical centroid of
   the feasible samples, and the *confidence radius* is the radius of the
   disc with the same area as the feasible region — the quantity whose CDF
   the paper reports in Figure 3.

Constraints only ever over-estimate distance (detours and queueing add
delay), so the true location is in the region; when noise makes the region
empty the solver relaxes all radii by 5 % and retries a few times, then
falls back to the tightest landmark's neighbourhood.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.faults import report as degradation
from repro.faults.plan import active_plan
from repro.geo.coords import EARTH_RADIUS_KM, GeoPoint, haversine_km, haversine_km_many
from repro.geo.landmarks import Landmark, LandmarkSet
from repro.geoloc.probing import RttProber
from repro.net.latency import AccessTechnology, C_FIBER_KM_PER_MS, Site

#: Minimum bestline slope: RTT grows at least at the fibre propagation rate.
MIN_SLOPE_MS_PER_KM = 2.0 / C_FIBER_KM_PER_MS

#: Never let a constraint radius collapse below this (absorbs the fixed
#: access/processing latency difference between calibration and target
#: paths).
MIN_RADIUS_KM = 30.0

#: Sunflower samples laid over the tightest constraint circle.
_REGION_SAMPLES = 512

#: Relaxation schedule when the intersection comes up empty.
_RELAX_FACTOR = 1.05
_RELAX_ROUNDS = 4


@dataclass(frozen=True)
class Bestline:
    """A landmark's calibrated RTT-to-distance conversion.

    Attributes:
        slope_ms_per_km: Bestline slope (≥ the fibre bound).
        intercept_ms: Bestline intercept (≥ 0).
    """

    slope_ms_per_km: float
    intercept_ms: float

    def distance_km(self, rtt_ms: float) -> float:
        """The constraint radius implied by a measured RTT."""
        raw = (rtt_ms - self.intercept_ms) / self.slope_ms_per_km
        return max(MIN_RADIUS_KM, raw)


def fit_bestline(distances_km: Sequence[float], rtts_ms: Sequence[float]) -> Bestline:
    """Fit the bestline under a (distance, RTT) point cloud.

    The bestline is the line below all points whose slope is at least the
    fibre bound, chosen (as in the CBG paper) to minimise the total vertical
    distance to the cloud.  Candidates are the edges of the cloud's lower
    convex hull, clamped to the slope bound.

    Raises:
        ValueError: With fewer than 2 calibration points.
    """
    if len(distances_km) != len(rtts_ms):
        raise ValueError("distances and rtts must align")
    if len(distances_km) < 2:
        raise ValueError("need at least 2 calibration points")
    pts = sorted(zip(distances_km, rtts_ms))
    xs = np.array([p[0] for p in pts])
    ys = np.array([p[1] for p in pts])

    hull = _lower_hull(pts)
    candidates: List[Tuple[float, float]] = []
    for (x1, y1), (x2, y2) in zip(hull, hull[1:]):
        if x2 <= x1:
            continue
        slope = (y2 - y1) / (x2 - x1)
        if slope < MIN_SLOPE_MS_PER_KM:
            continue
        intercept = y1 - slope * x1
        candidates.append((slope, max(0.0, intercept)))
    # Always include the slope-bound fallback: the steepest line at the
    # fibre slope that stays below every point.
    fallback_intercept = float(np.min(ys - MIN_SLOPE_MS_PER_KM * xs))
    candidates.append((MIN_SLOPE_MS_PER_KM, max(0.0, fallback_intercept)))

    best: Optional[Tuple[float, float, float]] = None  # (cost, slope, intercept)
    for slope, intercept in candidates:
        predicted = slope * xs + intercept
        if np.any(predicted > ys + 1e-9):
            # Clamping the intercept pushed the line above a point; lower it.
            intercept = float(np.min(ys - slope * xs))
            if intercept < 0.0:
                continue
            predicted = slope * xs + intercept
        cost = float(np.sum(ys - predicted))
        if best is None or cost < best[0]:
            best = (cost, slope, intercept)
    if best is None:
        # Every candidate required a negative intercept: fall back to the
        # fibre slope through the origin.
        return Bestline(slope_ms_per_km=MIN_SLOPE_MS_PER_KM, intercept_ms=0.0)
    return Bestline(slope_ms_per_km=best[1], intercept_ms=best[2])


def _lower_hull(points: Sequence[Tuple[float, float]]) -> List[Tuple[float, float]]:
    """Lower convex hull of points sorted by x (Andrew's monotone chain)."""
    hull: List[Tuple[float, float]] = []
    for p in points:
        while len(hull) >= 2:
            (x1, y1), (x2, y2) = hull[-2], hull[-1]
            if (x2 - x1) * (p[1] - y1) - (y2 - y1) * (p[0] - x1) <= 0:
                hull.pop()
            else:
                break
        hull.append(p)
    return hull


@dataclass
class CbgResult:
    """Outcome of geolocating one target.

    Attributes:
        estimate: Estimated position (centroid of the feasible region).
        confidence_radius_km: Radius of the disc with the feasible region's
            area (Figure 3's quantity).
        feasible: Whether a non-empty intersection was found without
            falling back.
        constraints_used: Number of landmark constraints applied.
    """

    estimate: GeoPoint
    confidence_radius_km: float
    feasible: bool
    constraints_used: int


class CbgGeolocator:
    """A calibrated CBG instance over a landmark set.

    Args:
        landmarks: The landmark population (positions known).
        prober: Measurement plumbing (shared delay model underneath).
    """

    def __init__(self, landmarks: LandmarkSet, prober: RttProber):
        if len(landmarks) < 4:
            raise ValueError("CBG needs at least 4 landmarks")
        self._landmarks = list(landmarks)
        self._sites = [
            Site(key=f"lm:{lm.name}", point=lm.point, access=AccessTechnology.CAMPUS)
            for lm in self._landmarks
        ]
        self._prober = prober
        self._bestlines: Dict[str, Bestline] = {}
        self._calibrate()

    @property
    def landmarks(self) -> List[Landmark]:
        """The landmark population."""
        return list(self._landmarks)

    def bestline(self, landmark_name: str) -> Bestline:
        """The calibrated bestline of one landmark.

        Raises:
            KeyError: For unknown landmark names.
        """
        return self._bestlines[landmark_name]

    def _calibrate(self) -> None:
        """Fit every landmark's bestline from inter-landmark RTTs."""
        pairs = list(zip(self._landmarks, self._sites))
        for lm, site in pairs:
            distances: List[float] = []
            rtts: List[float] = []
            for other, other_site in pairs:
                if other.name == lm.name:
                    continue
                distances.append(haversine_km(lm.point, other.point))
                rtts.append(self._prober.measure_ms(site, other_site))
            self._bestlines[lm.name] = fit_bestline(distances, rtts)

    # ------------------------------------------------------------- geolocate

    def measure_target(self, target: Site) -> Dict[str, float]:
        """Probe the target from every landmark.

        Under an active fault plan, individual landmark probes can be
        lost (the paper's PlanetLab campaigns tolerated exactly this);
        lost landmarks are simply absent from the returned mapping, and
        at least four survivors are always kept so multilateration stays
        possible.  Loss decisions are keyed on ``(target key, landmark
        name)`` — deterministic and order-independent.
        """
        plan = active_plan()
        rtts: Dict[str, float] = {}
        lost = 0
        may_drop = (
            len(self._landmarks) - 4 if plan is not None and plan.probe_loss else 0
        )
        for lm, site in zip(self._landmarks, self._sites):
            if may_drop > 0 and plan.decide(
                plan.probe_loss, "cbg/loss", target.key, lm.name
            ):
                lost += 1
                may_drop -= 1
                continue
            rtts[lm.name] = self._prober.measure_ms(site, target)
        if lost:
            degradation.record(
                "geoloc/cbg", degraded=1, probes_lost=lost
            )
        return rtts

    def geolocate(
        self,
        target_rtts: Mapping[str, float],
        expected_constraints: Optional[int] = None,
    ) -> CbgResult:
        """Locate a target from per-landmark RTT measurements.

        Args:
            target_rtts: Mapping landmark name → measured min RTT (ms);
                landmarks absent from the mapping contribute no constraint.
            expected_constraints: How many constraints a loss-free
                measurement would have produced.  When more than were
                actually available, the confidence radius is widened by
                ``sqrt(expected / used)`` — fewer landmarks mean a larger
                feasible region, exactly the behaviour the paper reports
                for sparse landmark sets.

        Returns:
            The :class:`CbgResult`.

        Raises:
            ValueError: If fewer than 3 constraints are available, or if
                a landmark's RTT is NaN, infinite or negative (a lost
                probe is an absent landmark, never a placeholder value).
        """
        centers: List[GeoPoint] = []
        radii: List[float] = []
        for lm in self._landmarks:
            rtt = target_rtts.get(lm.name)
            if rtt is None:
                continue
            if not (math.isfinite(rtt) and rtt >= 0.0):
                raise ValueError(
                    f"landmark {lm.name!r}: RTT must be finite and non-negative, got {rtt!r}"
                )
            radius = self._bestlines[lm.name].distance_km(rtt)
            centers.append(lm.point)
            radii.append(radius)
        if len(centers) < 3:
            raise ValueError("CBG needs at least 3 constraints")
        widen = 1.0
        if expected_constraints is not None and expected_constraints > len(centers):
            widen = math.sqrt(expected_constraints / len(centers))

        radii_arr = np.array(radii)
        for _ in range(_RELAX_ROUNDS):
            result = self._intersect(centers, radii_arr)
            if result is not None:
                estimate, confidence = result
                return CbgResult(
                    estimate=estimate,
                    confidence_radius_km=confidence * widen,
                    feasible=True,
                    constraints_used=len(centers),
                )
            radii_arr = radii_arr * _RELAX_FACTOR

        # Fallback: the tightest constraint's neighbourhood.
        tightest = int(np.argmin(radii_arr))
        return CbgResult(
            estimate=centers[tightest],
            confidence_radius_km=float(radii_arr[tightest]) * widen,
            feasible=False,
            constraints_used=len(centers),
        )

    def geolocate_target(self, target: Site) -> CbgResult:
        """Probe and locate a target in one step.

        Passes the landmark count as the expected constraint count, so a
        measurement degraded by probe loss yields a correspondingly wider
        confidence region (loss-free measurements are unaffected: the
        widening factor is exactly 1).
        """
        return self.geolocate(
            self.measure_target(target),
            expected_constraints=len(self._landmarks),
        )

    def _intersect(
        self, centers: Sequence[GeoPoint], radii: np.ndarray
    ) -> Optional[Tuple[GeoPoint, float]]:
        """Sample the intersection of the constraint discs.

        Returns:
            ``(centroid, confidence_radius_km)`` or ``None`` if the sampled
            intersection is empty.
        """
        tightest = int(np.argmin(radii))
        anchor = centers[tightest]
        anchor_radius = float(radii[tightest])
        lats, lons = _sunflower(anchor, anchor_radius, _REGION_SAMPLES)

        mask = np.ones(lats.shape[0], dtype=bool)
        for center, radius in zip(centers, radii):
            if not mask.any():
                return None
            distances = haversine_km_many(center, lats, lons)
            mask &= distances <= radius
        if not mask.any():
            return None
        feasible_lats = lats[mask]
        feasible_lons = lons[mask]
        centroid = _spherical_centroid(feasible_lats, feasible_lons)
        area_fraction = feasible_lats.shape[0] / lats.shape[0]
        confidence = anchor_radius * math.sqrt(area_fraction)
        return centroid, confidence


@functools.lru_cache(maxsize=None)
def _spiral(count: int) -> Tuple[Tuple[float, float, float], ...]:
    """Per-index ``(sqrt((i + 0.5) / count), sin(bearing), cos(bearing))``.

    The radius fraction and bearing of each sunflower point depend only on
    its index, so they are computed once per ``count``.
    """
    golden = math.pi * (3.0 - math.sqrt(5.0))
    table = []
    for i in range(count):
        theta = math.radians(math.degrees(golden * i) % 360.0)
        table.append((math.sqrt((i + 0.5) / count), math.sin(theta), math.cos(theta)))
    return tuple(table)


def _sunflower(center: GeoPoint, radius_km: float, count: int) -> Tuple[np.ndarray, np.ndarray]:
    """A sunflower-spiral sample of the disc around ``center``.

    Point ``i`` is ``destination_point(center, bearing_i, radius_km *
    fraction_i)``, with that function's formula inlined over the cached
    :func:`_spiral` table and the anchor's trigonometry hoisted out of the
    loop; every float is the one ``destination_point`` would produce.
    """
    lat1 = math.radians(center.lat)
    lon1 = math.radians(center.lon)
    sin_lat1 = math.sin(lat1)
    cos_lat1 = math.cos(lat1)
    lats = []
    lons = []
    for fraction, sin_theta, cos_theta in _spiral(count):
        delta = radius_km * fraction / EARTH_RADIUS_KM
        sin_delta = math.sin(delta)
        cos_delta = math.cos(delta)
        lat2 = math.asin(sin_lat1 * cos_delta + cos_lat1 * sin_delta * cos_theta)
        lon2 = lon1 + math.atan2(
            sin_theta * sin_delta * cos_lat1, cos_delta - sin_lat1 * math.sin(lat2)
        )
        lon2 = (lon2 + 3.0 * math.pi) % (2.0 * math.pi) - math.pi
        lats.append(math.degrees(lat2))
        lons.append(math.degrees(lon2))
    return np.array(lats), np.array(lons)


def _spherical_centroid(lats: np.ndarray, lons: np.ndarray) -> GeoPoint:
    """Centroid of points on the sphere (3-D mean projected back)."""
    lat_r = np.radians(lats)
    lon_r = np.radians(lons)
    x = np.cos(lat_r) * np.cos(lon_r)
    y = np.cos(lat_r) * np.sin(lon_r)
    z = np.sin(lat_r)
    mx, my, mz = float(np.mean(x)), float(np.mean(y)), float(np.mean(z))
    norm = math.sqrt(mx * mx + my * my + mz * mz)
    if norm == 0.0:
        return GeoPoint(0.0, 0.0)
    lat = math.degrees(math.asin(mz / norm))
    lon = math.degrees(math.atan2(my, mx))
    return GeoPoint(lat, lon)
