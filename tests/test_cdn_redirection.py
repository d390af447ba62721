"""Tests for the application-layer redirection engine."""

import pytest

from repro.cdn.catalog import VideoCatalog, shard_of
from repro.cdn.datacenter import DataCenterDirectory, build_datacenter
from repro.cdn.redirection import (
    CAUSE_MISS,
    CAUSE_OVERLOAD_INTER,
    CAUSE_OVERLOAD_INTRA,
    CAUSE_REBALANCE,
    MAX_HOPS,
    RedirectionEngine,
)
from repro.cdn.store import ContentPlacement
from repro.geo.cities import default_atlas
from repro.geo.coords import haversine_km
from repro.net.asn import GOOGLE_ASN
from repro.net.ip import Ipv4Allocator, parse_network
from repro.sim.scenarios import PAPER_SCENARIOS, build_world

DC_CITIES = ["Milan", "Zurich", "Paris", "Chicago"]


@pytest.fixture
def world():
    atlas = default_atlas()
    alloc = Ipv4Allocator((parse_network("173.194.0.0/16"),))
    dcs = [
        build_datacenter(
            f"dc-{c.lower()}", atlas.get(c), 12, alloc, GOOGLE_ASN,
            server_capacity_per_hour=5.0,
        )
        for c in DC_CITIES
    ]
    directory = DataCenterDirectory(dcs)
    catalog = VideoCatalog(size=500, seed=2)
    placement = ContentPlacement(
        catalog, [dc.dc_id for dc in dcs],
        replicated_mass=0.7, regional_presence_prob=0.0,
    )
    return directory, catalog, placement


RANKING = ["dc-milan", "dc-zurich", "dc-paris", "dc-chicago"]


def make_engine(world, rebalance=0.0, origin_fetch=0.0, seed=1):
    directory, catalog, placement = world
    return RedirectionEngine(
        directory, placement,
        rebalance_probability=rebalance,
        origin_fetch_probability=origin_fetch,
        seed=seed,
    )


def tail_video(catalog, placement, resident_excluded):
    featured = {v.video_id for v in catalog.featured_videos}
    for rank in range(len(catalog) - 1, 0, -1):
        video = catalog.by_rank(rank)
        if video.video_id in featured:
            continue
        if not placement.is_resident(resident_excluded, video):
            return video
    raise AssertionError("no suitable tail video")


class TestDirectServe:
    def test_head_video_served_directly(self, world):
        directory, catalog, placement = world
        engine = make_engine(world)
        server = directory.get("dc-milan").servers[0]
        decision = engine.route(server, catalog.by_rank(0), RANKING, 0.0)
        assert decision.hops == [server]
        assert not decision.redirected
        assert decision.causes == []

    def test_serve_recorded_in_load(self, world):
        directory, catalog, placement = world
        engine = make_engine(world)
        server = directory.get("dc-milan").servers[0]
        engine.route(server, catalog.by_rank(0), RANKING, 10.0)
        assert engine.server_load(server.ip, 10.0) == 1.0
        # A new hour starts a fresh counter.
        assert engine.server_load(server.ip, 3700.0) == 0.0


class TestMiss:
    def test_miss_redirects_to_holder(self, world):
        directory, catalog, placement = world
        engine = make_engine(world)
        video = tail_video(catalog, placement, "dc-milan")
        server = directory.get("dc-milan").servers[0]
        decision = engine.route(server, video, RANKING, 0.0)
        assert decision.redirected
        assert decision.causes[0] == CAUSE_MISS
        holder_dc = decision.serving_server.dc_id
        assert holder_dc != "dc-milan"
        assert engine.miss_redirects == 1

    def test_miss_pulls_through(self, world):
        directory, catalog, placement = world
        engine = make_engine(world)
        video = tail_video(catalog, placement, "dc-milan")
        server = directory.get("dc-milan").servers[0]
        engine.route(server, video, RANKING, 0.0)
        # Second request is served locally.
        decision = engine.route(server, video, RANKING, 60.0)
        assert not decision.redirected

    def test_origin_fetch_goes_to_origin(self, world):
        directory, catalog, placement = world
        engine = make_engine(world, origin_fetch=1.0)
        video = tail_video(catalog, placement, "dc-milan")
        origins = set(placement.origins(video))
        server = directory.get("dc-milan").servers[0]
        decision = engine.route(server, video, RANKING, 0.0)
        assert decision.serving_server.dc_id in origins


class TestOverload:
    def test_overflow_to_next_dc_shard_server(self, world):
        directory, catalog, placement = world
        engine = make_engine(world)  # intra_shed_fraction default 0.25
        video = catalog.by_rank(0)
        shard = shard_of(video.video_id)
        milan = directory.get("dc-milan")
        server = milan.server_by_index(shard % milan.size)
        decisions = [engine.route(server, video, RANKING, 0.0, shard=shard) for _ in range(30)]
        overflowed = [d for d in decisions if d.redirected]
        assert overflowed, "capacity 5/h must trigger redirects"
        inter = [d for d in overflowed if d.causes[0] == CAUSE_OVERLOAD_INTER]
        assert inter, "most overflow crosses to another data center"
        zurich = directory.get("dc-zurich")
        expected = zurich.server_by_index(shard % zurich.size)
        assert any(d.hops[1].ip == expected.ip for d in inter)

    def test_intra_shed_fraction_one_stays_local(self, world):
        directory, catalog, placement = world
        _, _, placement = world
        engine = RedirectionEngine(
            directory, placement, rebalance_probability=0.0,
            intra_shed_fraction=1.0, origin_fetch_probability=0.0, seed=3,
        )
        video = catalog.by_rank(0)
        server = directory.get("dc-milan").servers[0]
        for _ in range(30):
            decision = engine.route(server, video, RANKING, 0.0)
            assert decision.serving_server.dc_id == "dc-milan"

    def test_chain_bounded(self, world):
        directory, catalog, placement = world
        engine = make_engine(world, rebalance=0.0)
        video = catalog.by_rank(1)
        server = directory.get("dc-milan").servers[0]
        for _ in range(500):
            decision = engine.route(server, video, RANKING, 0.0)
            assert len(decision.hops) <= MAX_HOPS


class TestRebalance:
    def test_rebalance_stays_in_dc(self, world):
        directory, catalog, placement = world
        engine = make_engine(world, rebalance=0.999, seed=4)
        video = catalog.by_rank(0)
        server = directory.get("dc-milan").servers[0]
        decision = engine.route(server, video, RANKING, 0.0)
        assert decision.causes == [CAUSE_REBALANCE]
        assert decision.serving_server.dc_id == "dc-milan"
        assert decision.serving_server.ip != server.ip

    def test_rebalance_counter(self, world):
        engine = make_engine(world, rebalance=0.999, seed=5)
        directory, catalog, _ = world
        server = directory.get("dc-milan").servers[0]
        engine.route(server, catalog.by_rank(0), RANKING, 0.0)
        assert engine.rebalances == 1


class TestValidation:
    def test_probability_bounds(self, world):
        directory, _, placement = world
        with pytest.raises(ValueError):
            RedirectionEngine(directory, placement, rebalance_probability=1.0)
        with pytest.raises(ValueError):
            RedirectionEngine(directory, placement, intra_shed_fraction=1.5)
        with pytest.raises(ValueError):
            RedirectionEngine(directory, placement, origin_fetch_probability=-0.1)


def plain_nearest_holder(directory, placement, from_dc, video, allowed=None):
    """Reference: the nearest holder by a fresh haversine scan."""
    best, best_km = None, float("inf")
    for dc_id in placement.holders(video):
        if dc_id == from_dc.dc_id or (allowed is not None and dc_id not in allowed):
            continue
        dc = directory.get(dc_id)
        d = haversine_km(from_dc.city.point, dc.city.point)
        if d < best_km:
            best, best_km = dc, d
    return best


class TestNearestHolderMemo:
    def test_memo_equals_plain_scan_on_a_paper_world(self):
        world = build_world(PAPER_SCENARIOS["EU1-ADSL"], scale=0.004, seed=7,
                            duration_s=86400.0)
        system = world.system
        engine, directory, placement = system.redirection, system.directory, system.placement
        catalog = system.catalog
        dc_ids = placement.holders(catalog.by_rank(0))  # head: every data center
        videos = [catalog.by_rank(rank) for rank in range(0, len(catalog), 97)]
        allowed = frozenset(dc_ids[::2])
        for from_dc in directory:
            for video in videos:
                for only in (None, allowed):
                    assert engine._nearest_holder(from_dc, video, only) is (
                        plain_nearest_holder(directory, placement, from_dc, video, only)
                    )
        # The head video touched every (from, holder) pair, and each memo
        # entry is that pair's great-circle distance.
        assert set(engine._dist) == {
            (from_dc.dc_id, dc_id) for from_dc in directory for dc_id in dc_ids
            if dc_id != from_dc.dc_id
        }
        for (from_id, dc_id), km in engine._dist.items():
            assert km == haversine_km(directory.get(from_id).city.point,
                                      directory.get(dc_id).city.point)
