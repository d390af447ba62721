"""Tests for the assembled CDN's request handling."""

import random
from dataclasses import replace

import pytest

from repro.cdn.catalog import Resolution
from repro.cdn.cluster import KIND_CONTROL, KIND_VIDEO
from repro.cdn.datacenter import ContentServer
from repro.core.flows import CONTROL_FLOW_THRESHOLD_BYTES
from repro.geo.coords import GeoPoint
from repro.net.ip import parse_ip
from repro.net.latency import AccessTechnology
from repro.sim.multistudy import build_shared_worlds
from repro.sim.scenarios import DATASET_NAMES, PAPER_SCENARIOS, build_world


@pytest.fixture
def request_env(tiny_world):
    world = tiny_world
    client = next(iter(world.population))
    site = world.vantage.client_site(client.ip)
    resolver = world.vantage.resolver_for(client.ip)
    return world, client, site, resolver


def handle(world, client, site, resolver, video, t=1000.0, rng_seed=0, **kw):
    rng = random.Random(rng_seed)
    return world.system.handle_request(
        client_ip=client.ip,
        client_site=site,
        resolver=resolver,
        video=video,
        resolution=Resolution.R360,
        t_s=t,
        rng=rng,
        **kw,
    )


class TestHandleRequest:
    def test_ends_with_video_flow(self, request_env):
        world, client, site, resolver = request_env
        video = world.system.catalog.by_rank(0)
        outcome = handle(world, client, site, resolver, video)
        main = [e for e in outcome.events if e.kind in (KIND_CONTROL, KIND_VIDEO)]
        assert main[-1].kind == KIND_VIDEO
        assert all(e.kind == KIND_CONTROL for e in main[:-1])

    def test_control_flows_below_threshold(self, request_env):
        world, client, site, resolver = request_env
        video = world.system.catalog.by_rank(0)
        for seed in range(20):
            outcome = handle(world, client, site, resolver, video, rng_seed=seed)
            for event in outcome.events:
                if event.kind == KIND_CONTROL:
                    assert event.num_bytes < CONTROL_FLOW_THRESHOLD_BYTES
                else:
                    assert event.num_bytes >= CONTROL_FLOW_THRESHOLD_BYTES

    def test_session_gap_below_one_second(self, request_env):
        world, client, site, resolver = request_env
        video = world.system.catalog.by_rank(0)
        for seed in range(30):
            outcome = handle(world, client, site, resolver, video, rng_seed=seed)
            main = [e for e in outcome.events if e.kind in (KIND_CONTROL, KIND_VIDEO)]
            for first, second in zip(main, main[1:]):
                assert second.t_start - first.t_end < 1.0
                assert second.t_start > first.t_start

    def test_video_id_propagates(self, request_env):
        world, client, site, resolver = request_env
        video = world.system.catalog.by_rank(3)
        outcome = handle(world, client, site, resolver, video)
        main = [e for e in outcome.events if e.kind in (KIND_CONTROL, KIND_VIDEO)]
        assert all(e.video_id == video.video_id for e in main)

    def test_watch_fraction_override(self, request_env):
        world, client, site, resolver = request_env
        video = world.system.catalog.by_rank(0)
        full = handle(world, client, site, resolver, video, watch_fraction=1.0)
        tiny = handle(world, client, site, resolver, video, watch_fraction=0.05)
        full_bytes = [e for e in full.events if e.kind == KIND_VIDEO][0].num_bytes
        tiny_bytes = [e for e in tiny.events if e.kind == KIND_VIDEO][0].num_bytes
        assert full_bytes > tiny_bytes

    def test_served_dc_matches_decision(self, request_env):
        world, client, site, resolver = request_env
        video = world.system.catalog.by_rank(0)
        outcome = handle(world, client, site, resolver, video)
        assert outcome.served_dc_id == outcome.decision.serving_server.dc_id
        assert outcome.dns_dc_id in world.google_dc_ids

    def test_dns_lands_on_preferred_mostly(self, request_env):
        world, client, site, resolver = request_env
        ranking = world.system.policy.ranking_for(resolver.resolver_id)
        video = world.system.catalog.by_rank(0)
        hits = 0
        for seed in range(40):
            outcome = handle(world, client, site, resolver, video, rng_seed=seed)
            if outcome.dns_dc_id == ranking[0]:
                hits += 1
        assert hits >= 30

    def test_flow_timestamps_positive_duration(self, request_env):
        world, client, site, resolver = request_env
        video = world.system.catalog.by_rank(1)
        outcome = handle(world, client, site, resolver, video)
        for event in outcome.events:
            assert event.t_end > event.t_start


class TestAssetFlows:
    def test_legacy_assets_appear(self, tiny_world):
        world = tiny_world
        client = next(iter(world.population))
        site = world.vantage.client_site(client.ip)
        resolver = world.vantage.resolver_for(client.ip)
        video = world.system.catalog.by_rank(0)
        rng = random.Random(0)
        asset_events = []
        for _ in range(300):
            outcome = world.system.handle_request(
                client_ip=client.ip, client_site=site, resolver=resolver,
                video=video, resolution=Resolution.R360, t_s=0.0, rng=rng,
            )
            asset_events.extend(e for e in outcome.events if e.kind == "asset")
        # legacy_probability + third_party_probability per request.
        assert len(asset_events) > 3
        # Asset servers are outside the ranked data centers.
        ranked_servers = {
            s.ip for dc_id in world.google_dc_ids
            for s in world.system.directory.get(dc_id).servers
        }
        assert all(e.server_ip not in ranked_servers for e in asset_events)



@pytest.fixture(scope="module")
def day_worlds():
    """One-day world per paper scenario (fresh, so their memos start empty)."""
    return {
        name: build_world(PAPER_SCENARIOS[name], scale=0.01, seed=7, duration_s=86400.0)
        for name in DATASET_NAMES
    }


def _floor_servers(system):
    """First and last server of every Google DC, plus every legacy and
    third-party server."""
    servers = [s for dc in system.directory for s in (dc.servers[0], dc.servers[-1])]
    return servers + system._legacy_servers + system._third_party_servers


def _assert_floor_memo_exact(world, clients):
    system = world.system
    for client in clients:
        site = world.vantage.client_site(client.ip)
        for server in _floor_servers(system):
            expected = world.latency.min_rtt_ms(site, system.server_site(server))
            assert system.floor_rtt_ms(site, server) == expected  # memo miss
            assert system.floor_rtt_ms(site, server) == expected  # memo hit


class TestFloorMemo:
    @pytest.mark.parametrize("name", DATASET_NAMES)
    def test_matches_latency_model(self, day_worlds, name):
        world = day_worlds[name]
        _assert_floor_memo_exact(world, list(world.population)[:3])
        # Every client of a vantage point shares one position: one entry
        # per data center however many clients ask.
        dcs = {server.dc_id for server in _floor_servers(world.system)}
        assert len(world.system._floor_memo) == len(dcs)

    def test_scenarios_cover_legacy_and_third_party(self, day_worlds):
        systems = [world.system for world in day_worlds.values()]
        assert any(system._legacy_servers for system in systems)
        assert any(system._third_party_servers for system in systems)

    def test_shared_system_keeps_vantages_apart(self):
        worlds = build_shared_worlds(scale=0.01, duration_s=86400.0)
        assert len({id(world.system) for world in worlds.values()}) == 1
        for world in worlds.values():
            _assert_floor_memo_exact(world, list(world.population)[:2])

    def test_every_key_field_counts(self, day_worlds):
        world = day_worlds["EU2"]
        base = world.vantage.client_site(next(iter(world.population)).ip)
        variants = [
            base,
            replace(base, group="elsewhere"),
            replace(base, extra_ms=base.extra_ms + 7.0),
            replace(base, access=AccessTechnology.FTTH),
            replace(base, point=GeoPoint(base.point.lat + 3.0, base.point.lon)),
        ]
        for site in variants:
            for server in _floor_servers(world.system):
                expected = world.latency.min_rtt_ms(site, world.system.server_site(server))
                assert world.system.floor_rtt_ms(site, server) == expected

    def test_unknown_server_still_raises(self, tiny_world):
        site = tiny_world.vantage.client_site(next(iter(tiny_world.population)).ip)
        stranger = ContentServer(ip=parse_ip("203.0.113.9"), dc_id="dc-nowhere", index=0)
        with pytest.raises(KeyError):
            tiny_world.system.floor_rtt_ms(site, stranger)
