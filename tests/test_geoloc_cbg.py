"""Tests for the CBG implementation — calibration, constraints, regions."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geo.cities import default_atlas
from repro.geo.coords import GeoPoint, destination_point, haversine_km
from repro.geo.landmarks import generate_landmarks
from repro.geo.regions import Continent
from repro.geoloc.cbg import (
    Bestline,
    CbgGeolocator,
    MIN_RADIUS_KM,
    MIN_SLOPE_MS_PER_KM,
    _sunflower,
    fit_bestline,
)
from repro.geoloc.probing import RttProber
from repro.net.latency import AccessTechnology, LatencyModel, Site


class TestBestlineFit:
    def test_line_below_all_points(self):
        distances = [100.0, 500.0, 1000.0, 2000.0, 4000.0]
        rtts = [4.0, 12.0, 18.0, 35.0, 65.0]
        line = fit_bestline(distances, rtts)
        for d, r in zip(distances, rtts):
            assert line.slope_ms_per_km * d + line.intercept_ms <= r + 1e-6

    def test_slope_at_least_fibre_bound(self):
        distances = [100.0, 1000.0, 3000.0]
        rtts = [100.0, 100.5, 101.0]  # absurdly flat cloud
        line = fit_bestline(distances, rtts)
        assert line.slope_ms_per_km >= MIN_SLOPE_MS_PER_KM - 1e-12

    def test_intercept_non_negative(self):
        line = fit_bestline([10.0, 5000.0], [0.2, 30.0])
        assert line.intercept_ms >= 0.0

    def test_needs_two_points(self):
        with pytest.raises(ValueError):
            fit_bestline([1.0], [1.0])
        with pytest.raises(ValueError):
            fit_bestline([1.0, 2.0], [1.0])

    def test_distance_estimate_clamped(self):
        line = Bestline(slope_ms_per_km=0.01, intercept_ms=5.0)
        assert line.distance_km(1.0) == MIN_RADIUS_KM  # below intercept
        assert line.distance_km(25.0) == pytest.approx(2000.0)

    @given(
        st.lists(
            st.tuples(
                st.floats(min_value=10.0, max_value=8000.0),
                st.floats(min_value=1.2, max_value=3.0),
            ),
            min_size=3,
            max_size=30,
        )
    )
    @settings(max_examples=60)
    def test_property_below_cloud(self, cloud):
        distances = [d for d, _ in cloud]
        # RTT = inflation * ideal + noise-free fixed part: always >= bound.
        rtts = [LatencyModel.ideal_rtt_ms(d) * infl + 1.0 for d, infl in cloud]
        line = fit_bestline(distances, rtts)
        for d, r in zip(distances, rtts):
            assert line.slope_ms_per_km * d + line.intercept_ms <= r + 1e-6


@pytest.fixture(scope="module")
def geolocator():
    landmarks = generate_landmarks(seed=42).subsample(70, seed=1)
    latency = LatencyModel(seed=123)
    prober = RttProber(latency, probes=5, seed=99)
    return CbgGeolocator(landmarks, prober), latency


def dc_site(city_name):
    city = default_atlas().get(city_name)
    return Site(
        key=f"srv:{city_name}",
        point=city.point,
        access=AccessTechnology.DATACENTER,
        group=f"dc:{city_name}",
    )


class TestGeolocation:
    def test_accuracy_in_dense_regions(self, geolocator):
        cbg, _ = geolocator
        for city_name in ("Amsterdam", "Chicago", "Milan", "Dallas"):
            target = dc_site(city_name)
            result = cbg.geolocate_target(target)
            err = haversine_km(result.estimate, target.point)
            assert err < 250.0, f"{city_name}: {err:.0f} km"

    def test_feasible_regions_usually(self, geolocator):
        cbg, _ = geolocator
        feasible = 0
        cities = ("Amsterdam", "Chicago", "Milan", "Dallas", "Tokyo", "Madrid")
        for city_name in cities:
            if cbg.geolocate_target(dc_site(city_name)).feasible:
                feasible += 1
        assert feasible >= len(cities) - 1

    def test_confidence_radius_positive(self, geolocator):
        cbg, _ = geolocator
        result = cbg.geolocate_target(dc_site("Paris"))
        assert result.confidence_radius_km > 0.0

    def test_needs_three_constraints(self, geolocator):
        cbg, _ = geolocator
        rtts = {cbg.landmarks[0].name: 10.0, cbg.landmarks[1].name: 10.0}
        with pytest.raises(ValueError):
            cbg.geolocate(rtts)

    def test_constraints_used_counted(self, geolocator):
        cbg, _ = geolocator
        result = cbg.geolocate_target(dc_site("London"))
        assert result.constraints_used == len(cbg.landmarks)

    def test_bestlines_calibrated_per_landmark(self, geolocator):
        cbg, _ = geolocator
        for lm in cbg.landmarks[:5]:
            line = cbg.bestline(lm.name)
            assert line.slope_ms_per_km >= MIN_SLOPE_MS_PER_KM - 1e-12
            assert line.intercept_ms >= 0.0

    def test_deterministic(self):
        landmarks = generate_landmarks(seed=42).subsample(30, seed=1)
        latency = LatencyModel(seed=123)

        def run():
            prober = RttProber(latency, probes=4, seed=99)
            cbg = CbgGeolocator(landmarks, prober)
            return cbg.geolocate_target(dc_site("Milan"))

        a, b = run(), run()
        assert a.estimate == b.estimate
        assert a.confidence_radius_km == b.confidence_radius_km

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, -1.0])
    def test_rejects_non_finite_and_negative_rtts(self, geolocator, bad):
        # Regression: a NaN RTT used to clamp to MIN_RADIUS_KM, becoming the
        # tightest constraint and pinning a Paris target to an antipodal
        # landmark with a ~36 km "confidence radius".
        cbg, _ = geolocator
        rtts = cbg.measure_target(dc_site("Paris"))
        name = "planetlab-oc-001"
        assert name in rtts
        rtts[name] = bad
        with pytest.raises(ValueError, match=name):
            cbg.geolocate(rtts)

    def test_minimum_landmark_count(self):
        landmarks = generate_landmarks(
            mix={Continent.EUROPE: 3}, seed=1
        )
        latency = LatencyModel(seed=1)
        with pytest.raises(ValueError):
            CbgGeolocator(landmarks, RttProber(latency, probes=2, seed=0))

    def test_region_contains_truth_when_feasible(self, geolocator):
        cbg, _ = geolocator
        target = dc_site("Frankfurt")
        result = cbg.geolocate_target(target)
        if result.feasible:
            err = haversine_km(result.estimate, target.point)
            # The estimate is the region centroid; truth lies within the
            # region, so the error is bounded by a few region radii.
            assert err <= max(4.0 * result.confidence_radius_km, 300.0)


def _reference_sunflower(center, radius_km, count):
    """The per-point ``destination_point`` loop ``_sunflower`` must equal."""
    golden = math.pi * (3.0 - math.sqrt(5.0))
    lats = np.empty(count)
    lons = np.empty(count)
    for i in range(count):
        r = radius_km * math.sqrt((i + 0.5) / count)
        theta = math.degrees(golden * i) % 360.0
        p = destination_point(center, theta, r)
        lats[i] = p.lat
        lons[i] = p.lon
    return lats, lons


def _assert_matches_reference(anchor, radius_km, count):
    lats, lons = _sunflower(anchor, radius_km, count)
    ref_lats, ref_lons = _reference_sunflower(anchor, radius_km, count)
    assert np.array_equal(lats, ref_lats)
    assert np.array_equal(lons, ref_lons)


class TestSunflower:
    ANCHORS = [
        GeoPoint(89.9, 12.0),
        GeoPoint(-89.9, -77.0),
        GeoPoint(88.0, 179.9),
        GeoPoint(-3.0, 179.99),
        GeoPoint(51.0, -179.99),
        GeoPoint(-45.0, 180.0),
        GeoPoint(0.0, -180.0),
        GeoPoint(48.86, 2.35),
    ]

    @pytest.mark.parametrize("count", [1, 7, 512])
    @pytest.mark.parametrize("radius_km", [30.0, 250.0, 3000.0, 12500.0, 20000.0])
    @pytest.mark.parametrize("anchor", ANCHORS, ids=str)
    def test_bit_identical_to_destination_point(self, anchor, radius_km, count):
        _assert_matches_reference(anchor, radius_km, count)

    @given(
        lat=st.floats(min_value=-90.0, max_value=90.0),
        lon=st.floats(min_value=-180.0, max_value=180.0),
        radius_km=st.floats(min_value=30.0, max_value=20000.0),
        count=st.sampled_from([1, 7, 512]),
    )
    @settings(max_examples=100, deadline=None)
    def test_property_bit_identical(self, lat, lon, radius_km, count):
        _assert_matches_reference(GeoPoint(lat, lon), radius_km, count)
