"""Library performance benchmarks (not paper artifacts).

Times the throughput-critical paths a user sizes their runs by: world
construction (what each short epoch of ``repro monitor`` pays before its
first request), the request engine (requests/second through DNS +
redirection + trace collection) and the CBG solver (targets/second once
calibrated).
"""

import pytest

from repro.sim.engine import RequestProcessor
from repro.sim.scenarios import PAPER_SCENARIOS, build_world


@pytest.fixture(scope="module")
def engine_world():
    return build_world(PAPER_SCENARIOS["EU1-ADSL"], scale=0.02, seed=42)


def test_bench_world_build(benchmark, save_artifact):
    def build():
        return build_world(PAPER_SCENARIOS["EU1-ADSL"], scale=0.1, seed=42,
                           duration_s=86400.0)

    world = benchmark(build)
    mean_ms = benchmark.stats.stats.mean * 1000.0
    save_artifact(
        "perf_world_build",
        f"world build: {mean_ms:,.1f} ms for a one-day EU1-ADSL world at scale 0.1 "
        f"({len(world.system.catalog)} catalog videos)",
    )
    # Catalog videos are built on first touch, so building a world costs
    # far less than simulating its day.
    assert mean_ms < 2_000


def test_bench_engine_throughput(benchmark, engine_world, save_artifact):
    requests = engine_world.generator.generate(2 * 86400.0)[:2000]

    def run_batch():
        processor = RequestProcessor(engine_world)
        for request in requests:
            processor.process(request)
        return processor.result.requests

    count = benchmark(run_batch)
    assert count == len(requests)
    ops = count / benchmark.stats.stats.mean
    save_artifact(
        "perf_engine",
        f"engine throughput: {ops:,.0f} requests/s "
        f"({count} requests per round)",
    )
    # A full paper-scale week (~670k requests) should stay tractable.
    assert ops > 5_000


def test_bench_cbg_throughput(benchmark, pipe, save_artifact):
    geolocator = pipe.geolocator  # calibrated once outside timing
    server_map = pipe.server_map
    targets = []
    for cluster in server_map.clusters[:8]:
        site = pipe.site_of_ip(cluster.server_ips[0])
        if site is not None:
            targets.append(site)

    def locate_all():
        return [geolocator.geolocate_target(t) for t in targets]

    results = benchmark(locate_all)
    assert len(results) == len(targets)
    per_target = benchmark.stats.stats.mean / len(targets)
    save_artifact(
        "perf_cbg",
        f"CBG solve: {1.0 / per_target:,.1f} targets/s with "
        f"{len(geolocator.landmarks)} landmarks",
    )
    assert per_target < 0.5  # well under half a second per target
