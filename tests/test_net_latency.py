"""Tests for the delay model — the physical substrate every measurement uses."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geo.coords import GeoPoint, haversine_km
from repro.net.latency import (
    AccessTechnology,
    C_FIBER_KM_PER_MS,
    LatencyModel,
    PROCESSING_MS,
    Site,
)


def make_site(key, lat, lon, access=AccessTechnology.CAMPUS, extra=0.0, group=None):
    return Site(key=key, point=GeoPoint(lat, lon), access=access, extra_ms=extra, group=group)


#: Sites in routing groups gA/gB (where detours can be pinned) or in a
#: group of their own (group=None falls back to the key).
_sites = st.builds(
    make_site,
    key=st.sampled_from(["a", "b", "c"]),
    lat=st.floats(min_value=-90.0, max_value=90.0),
    lon=st.floats(min_value=-180.0, max_value=180.0),
    access=st.sampled_from(list(AccessTechnology)),
    extra=st.floats(min_value=0.0, max_value=20.0),
    group=st.sampled_from(["gA", "gB", None]),
)

TURIN = make_site("a", 45.07, 7.69)
MILAN = make_site("b", 45.46, 9.19)
TOKYO = make_site("c", 35.68, 139.65)


class TestFloor:
    def test_deterministic(self):
        model = LatencyModel(seed=1)
        assert model.min_rtt_ms(TURIN, MILAN) == model.min_rtt_ms(TURIN, MILAN)

    def test_symmetric(self):
        model = LatencyModel(seed=1)
        assert model.min_rtt_ms(TURIN, MILAN) == pytest.approx(
            model.min_rtt_ms(MILAN, TURIN)
        )

    def test_respects_physical_bound(self):
        model = LatencyModel(seed=2)
        distance = haversine_km(TURIN.point, TOKYO.point)
        assert model.min_rtt_ms(TURIN, TOKYO) >= LatencyModel.ideal_rtt_ms(distance)

    def test_grows_with_distance_scale(self):
        model = LatencyModel(seed=3)
        near = model.min_rtt_ms(TURIN, MILAN)
        far = model.min_rtt_ms(TURIN, TOKYO)
        assert far > near * 5

    def test_access_technology_matters(self):
        model = LatencyModel(seed=4)
        adsl = make_site("a", 45.07, 7.69, AccessTechnology.ADSL)
        ftth = make_site("a", 45.07, 7.69, AccessTechnology.FTTH)
        assert model.min_rtt_ms(adsl, MILAN) > model.min_rtt_ms(ftth, MILAN) + 5.0

    def test_extra_ms_adds(self):
        model = LatencyModel(seed=5)
        plain = make_site("a", 45.07, 7.69)
        egress = make_site("a", 45.07, 7.69, extra=10.0)
        assert model.min_rtt_ms(egress, MILAN) == pytest.approx(
            model.min_rtt_ms(plain, MILAN) + 10.0
        )

    def test_seed_changes_paths(self):
        a = LatencyModel(seed=1).min_rtt_ms(TURIN, TOKYO)
        b = LatencyModel(seed=2).min_rtt_ms(TURIN, TOKYO)
        assert a != b

    def test_breakdown_consistent(self):
        model = LatencyModel(seed=6)
        info = model.floor_breakdown(TURIN, MILAN)
        reconstructed = (
            info["propagation_ms"] + info["detour_ms"] + info["access_ms"]
            + info["extra_ms"] + info["processing_ms"]
        )
        assert info["floor_ms"] == pytest.approx(reconstructed)


class TestGroups:
    def test_same_group_shares_path(self):
        model = LatencyModel(seed=7)
        client1 = make_site("client:1", 45.07, 7.69, group="vp:X")
        client2 = make_site("client:2", 45.07, 7.69, group="vp:X")
        assert model.min_rtt_ms(client1, TOKYO) == model.min_rtt_ms(client2, TOKYO)

    def test_different_groups_may_differ(self):
        model = LatencyModel(seed=7)
        samples = set()
        for i in range(8):
            site = make_site(f"client:{i}", 45.07, 7.69, group=f"g{i}")
            samples.add(round(model.min_rtt_ms(site, TOKYO), 6))
        assert len(samples) > 1

    def test_detour_override(self):
        plain = LatencyModel(seed=8)
        pinned = LatencyModel(seed=8, detour_overrides={("gA", "gB"): 50.0})
        a = make_site("a", 45.0, 7.0, group="gA")
        b = make_site("b", 45.4, 9.2, group="gB")
        base = plain.floor_breakdown(a, b)
        forced = pinned.floor_breakdown(a, b)
        assert forced["detour_ms"] == 50.0
        assert forced["floor_ms"] == pytest.approx(
            base["floor_ms"] - base["detour_ms"] + 50.0
        )

    def test_detour_override_order_insensitive(self):
        pinned = LatencyModel(seed=8, detour_overrides={("gB", "gA"): 50.0})
        a = make_site("a", 45.0, 7.0, group="gA")
        b = make_site("b", 45.4, 9.2, group="gB")
        assert pinned.path_profile(a, b).detour_ms == 50.0

    def test_negative_detour_rejected(self):
        with pytest.raises(ValueError):
            LatencyModel(seed=0, detour_overrides={("a", "b"): -1.0})


class TestSampling:
    def test_samples_above_floor(self):
        model = LatencyModel(seed=9)
        rng = random.Random(0)
        floor = model.min_rtt_ms(TURIN, MILAN)
        for _ in range(100):
            assert model.sample_rtt_ms(TURIN, MILAN, rng) > floor

    def test_min_filter_converges(self):
        model = LatencyModel(seed=10)
        rng = random.Random(1)
        floor = model.min_rtt_ms(TURIN, MILAN)
        measured = model.measure_min_rtt_ms(TURIN, MILAN, rng, probes=30)
        jitter = model.path_profile(TURIN, MILAN).jitter_ms
        assert floor < measured < floor + jitter

    def test_probe_count_validated(self):
        model = LatencyModel(seed=11)
        with pytest.raises(ValueError):
            model.measure_min_rtt_ms(TURIN, MILAN, random.Random(0), probes=0)

    @given(
        seed=st.integers(min_value=0, max_value=2**31),
        rng_seed=st.integers(min_value=0, max_value=2**31),
        a=_sites,
        b=_sites,
        detour=st.none() | st.floats(min_value=0.0, max_value=40.0),
        probes=st.integers(min_value=1, max_value=12),
    )
    @settings(max_examples=200, deadline=None)
    def test_measurement_equals_min_of_samples(self, seed, rng_seed, a, b, detour, probes):
        """The hoisted floor changes no float and no RNG draw."""
        overrides = None if detour is None else {("gA", "gB"): detour}
        model = LatencyModel(seed=seed, detour_overrides=overrides)
        rng = random.Random(rng_seed)
        reference_rng = random.Random(rng_seed)
        measured = model.measure_min_rtt_ms(a, b, rng, probes)
        reference = min(model.sample_rtt_ms(a, b, reference_rng) for _ in range(probes))
        assert measured == reference
        assert rng.getstate() == reference_rng.getstate()

    @given(st.floats(min_value=0.0, max_value=500.0))
    @settings(max_examples=50)
    def test_distance_bound_inverse(self, rtt):
        d = LatencyModel.max_distance_km(rtt)
        assert LatencyModel.ideal_rtt_ms(d) == pytest.approx(rtt, abs=1e-9)
