"""Library performance benchmarks (not paper artifacts).

Times the throughput-critical paths a user sizes their runs by: world
construction (what each short epoch of ``repro monitor`` pays before its
first request), the request engine (requests/second through DNS +
redirection + trace collection, batch with its tallies and streamed
without them) and the CBG solver (targets/second once calibrated).
"""

import pytest

from repro.sim.engine import RequestProcessor, run_requests, stream_requests
from repro.sim.scenarios import PAPER_SCENARIOS, build_world
from repro.stream.events import FlowArrival


@pytest.fixture(scope="module")
def engine_world():
    return build_world(PAPER_SCENARIOS["EU1-ADSL"], scale=0.02, seed=42)


def _one_day_world():
    return build_world(PAPER_SCENARIOS["EU1-ADSL"], scale=0.1, seed=42,
                       duration_s=86400.0)


def test_bench_world_build(benchmark, save_artifact):
    world = benchmark(_one_day_world)
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
            processor.tally(request, processor.process(request))
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


def test_bench_stream_world(benchmark, save_artifact):
    def drain(world):
        requests = flows = 0
        for event in stream_requests(world):
            if isinstance(event, FlowArrival):
                flows += 1
            else:
                requests += 1
        return requests - 1, flows  # the last watermark closes the stream

    # Each round drains a freshly built world: serving mutates the CDN.
    requests, flows = benchmark.pedantic(
        drain, setup=lambda: ((_one_day_world(),), {}), rounds=3, iterations=1
    )
    batch = run_requests(_one_day_world())
    assert (requests, flows) == (batch.requests, len(batch.dataset))
    per_s = requests / benchmark.stats.stats.mean
    save_artifact(
        "perf_stream_world",
        f"streamed world: {per_s:,.0f} requests/s draining a one-day EU1-ADSL world "
        f"at scale 0.1 ({requests} requests, {flows} flows per round)",
    )


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
