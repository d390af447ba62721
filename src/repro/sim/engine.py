"""The simulation engine: push a request stream through the world.

Requests are processed in time order so that the stateful mechanisms —
DNS assignment budgets, per-server hourly loads, pull-through caching —
see the same causal order a real week would produce.
"""

from __future__ import annotations

import math
import random
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.cdn.cluster import RequestOutcome
from repro.exec.executor import ParallelExecutor, default_executor
from repro.net.dns import LocalResolver
from repro.net.latency import Site
from repro.sim.scenarios import ScenarioWorld
from repro.sim.seeding import derive_seed
from repro.trace.monitor import EdgeMonitor
from repro.trace.records import Dataset
from repro.workload.requests import Request


#: Cap on retained per-request performance samples (reservoir truncation).
_MAX_PERF_SAMPLES = 50_000

#: Default monitor classification-miss probability (shared by every
#: engine entry point and by the cache keys over them).
DEFAULT_MISS_PROBABILITY = 0.002

#: Ground-truth attribution labels, mirroring the blind pipeline's
#: three-way verdict (:func:`repro.core.nonpreferred.session_verdicts`).
TRUTH_PREFERRED = "preferred"
TRUTH_DNS = "dns"
TRUTH_REDIRECTION = "redirection"

#: All truth labels, in confusion-matrix display order.
TRUTH_LABELS: Tuple[str, ...] = (TRUTH_PREFERRED, TRUTH_DNS, TRUTH_REDIRECTION)


@dataclass
class GroundTruthLog:
    """Per-request ground truth the attribution scorer grades against.

    Parallel lists, one entry per processed request (compact to pickle —
    the log rides inside every cached :class:`SimulationResult`).  The
    ``anchor`` of a request is the policy's intended data center for the
    vantage point's reference resolver at that moment
    (:meth:`~repro.cdn.selection.SelectionPolicy.preferred_now`), i.e.
    the simulator-side counterpart of the blind pipeline's one inferred
    preferred data center per dataset.

    Attributes:
        client_ips: Requesting client address per request.
        video_ids: Requested video per request.
        t_s: Request time per request.
        anchor_dcs: The anchor (intended/preferred) data center.
        dns_dcs: Data center the DNS answer actually pointed at.
        served_dcs: Data center that finally served the video.
        labels: Attribution label: :data:`TRUTH_DNS` when the DNS answer
            itself left the anchor, :data:`TRUTH_REDIRECTION` when DNS
            agreed with the anchor but the redirect chain left it,
            :data:`TRUTH_PREFERRED` otherwise.
    """

    client_ips: List[int] = field(default_factory=list)
    video_ids: List[str] = field(default_factory=list)
    t_s: List[float] = field(default_factory=list)
    anchor_dcs: List[str] = field(default_factory=list)
    dns_dcs: List[str] = field(default_factory=list)
    served_dcs: List[str] = field(default_factory=list)
    labels: List[str] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.labels)

    def append(
        self,
        client_ip: int,
        video_id: str,
        t_s: float,
        anchor_dc: str,
        dns_dc: str,
        chain_dcs: Sequence[str],
    ) -> None:
        """Record one request's truth (label derived, no randomness)."""
        if dns_dc != anchor_dc:
            label = TRUTH_DNS
        elif any(dc_id != anchor_dc for dc_id in chain_dcs):
            label = TRUTH_REDIRECTION
        else:
            label = TRUTH_PREFERRED
        self.client_ips.append(client_ip)
        self.video_ids.append(video_id)
        self.t_s.append(t_s)
        self.anchor_dcs.append(anchor_dc)
        self.dns_dcs.append(dns_dc)
        self.served_dcs.append(chain_dcs[-1] if chain_dcs else dns_dc)
        self.labels.append(label)

    def label_counts(self) -> Counter:
        """Tally of the three truth labels."""
        return Counter(self.labels)


@dataclass
class SimulationResult:
    """A finished scenario run.

    Attributes:
        world: The world that was run (kept for active measurements — the
            probing and PlanetLab experiments need the physical world).
        dataset: The collected flow-level trace.
        requests: Number of requests processed.
        cause_counts: Ground-truth redirect-cause tally (tests only — the
            analysis pipeline never reads it).
        dns_dc_counts: Ground-truth DNS-assignment tally per data center.
        served_dc_counts: Ground-truth serve tally per data center.
        startup_delay_samples: Per-request video startup delays in seconds
            (time from the request until the video flow's first byte) — the
            user-performance metric what-if comparisons report.
        serving_rtt_samples: Floor RTT (ms) between each client and the
            server that delivered its video.
        truth: Per-request attribution ground truth
            (:class:`GroundTruthLog`) — read only by
            :mod:`repro.eval.attribution`; the blind analysis pipeline
            never sees it.
    """

    world: ScenarioWorld
    dataset: Dataset
    requests: int
    cause_counts: Counter = field(default_factory=Counter)
    dns_dc_counts: Counter = field(default_factory=Counter)
    served_dc_counts: Counter = field(default_factory=Counter)
    startup_delay_samples: List[float] = field(default_factory=list)
    serving_rtt_samples: List[float] = field(default_factory=list)
    truth: GroundTruthLog = field(default_factory=GroundTruthLog)


class RequestProcessor:
    """Per-vantage processing state: monitor, RNG, caches, result tallies.

    Serving and tallying are separate steps.  :meth:`process` serves one
    request and hands its flows to the monitor; it is the only step that
    consumes the serve and miss RNGs, so it alone fixes every emitted
    record.  :meth:`tally` then folds the outcome into :attr:`result`:
    counts, ground truth, causes and performance samples, none of which
    draws randomness.  The batch engines (:func:`run_requests` and
    :func:`repro.sim.multistudy.run_shared`) do both, because their
    :class:`SimulationResult` is cached and read by evaluation and what-if
    code.  :func:`stream_requests` only processes: it never returns a
    result, so tallying a streamed world would be work nobody reads.
    """

    def __init__(
        self,
        world: ScenarioWorld,
        miss_probability: float = DEFAULT_MISS_PROBABILITY,
        record_sink: Optional[Callable] = None,
    ):
        self.world = world
        self.monitor = EdgeMonitor(
            world.vantage,
            miss_probability=miss_probability,
            seed=derive_seed(world.seed, world.spec.name, "monitor"),
            sink=record_sink,
        )
        self._serve_rng = random.Random(
            derive_seed(world.seed, world.spec.name, "serve")
        )
        self._site_cache: Dict[int, Site] = {}
        self._resolver_cache: Dict[int, LocalResolver] = {}
        self.result = SimulationResult(world=world, dataset=None, requests=0)
        # Anchor resolver for ground-truth labels: the first non-divergent
        # subnet's resolver — the vantage point's canonical view, matching
        # the single preferred data center the blind pipeline infers per
        # dataset.  (Divergent subnets are exactly the ones whose answers
        # should read as DNS-caused deviations.)
        self._anchor_resolver: Optional[str] = None
        subnets = getattr(world.spec, "subnets", ())
        for subnet_spec in subnets:
            if not getattr(subnet_spec, "divergent_resolver", False):
                self._anchor_resolver = f"{world.spec.name}/{subnet_spec.name}"
                break
        if self._anchor_resolver is None and subnets:
            self._anchor_resolver = f"{world.spec.name}/{subnets[0].name}"

    def process(self, request: Request) -> RequestOutcome:
        """Serve one request and record its flows (no tallies)."""
        world = self.world
        client_ip = request.client.ip
        site = self._site_cache.get(client_ip)
        if site is None:
            site = world.vantage.client_site(client_ip)
            self._site_cache[client_ip] = site
        resolver = self._resolver_cache.get(client_ip)
        if resolver is None:
            resolver = world.vantage.resolver_for(client_ip)
            self._resolver_cache[client_ip] = resolver
        outcome = world.system.handle_request(
            client_ip=client_ip,
            client_site=site,
            resolver=resolver,
            video=request.video,
            resolution=request.resolution,
            t_s=request.t_s,
            rng=self._serve_rng,
        )
        self.monitor.observe_all(outcome.events)
        return outcome

    def tally(self, request: Request, outcome: RequestOutcome) -> None:
        """Fold a processed request's outcome into :attr:`result`."""
        world = self.world
        result = self.result
        client_ip = request.client.ip
        result.requests += 1
        result.dns_dc_counts[outcome.dns_dc_id] += 1
        result.served_dc_counts[outcome.served_dc_id] += 1
        # Ground truth: what the policy intended vs. what happened.  The
        # anchor lookup is a pure observation (preferred_now consumes no
        # randomness), so recording truth never perturbs the week.
        anchor_dc = None
        if self._anchor_resolver is not None:
            try:
                anchor_dc = world.system.policy.preferred_now(
                    self._anchor_resolver, request.t_s
                )
            except KeyError:
                anchor_dc = None
        if anchor_dc is None:
            # Hand-built worlds without a configured anchor resolver:
            # degrade to labelling relative to the DNS answer itself.
            anchor_dc = outcome.dns_dc_id
        result.truth.append(
            client_ip=client_ip,
            video_id=request.video.video_id,
            t_s=request.t_s,
            anchor_dc=anchor_dc,
            dns_dc=outcome.dns_dc_id,
            chain_dcs=[hop.dc_id for hop in outcome.decision.hops],
        )
        if outcome.decision.causes:
            for cause in outcome.decision.causes:
                result.cause_counts[cause] += 1
        else:
            result.cause_counts["direct"] += 1
        if len(result.startup_delay_samples) < _MAX_PERF_SAMPLES:
            serving = outcome.decision.serving_server
            rtt_ms = world.system.floor_rtt_ms(self._site_cache[client_ip], serving)
            video_flow = outcome.events[len(outcome.decision.hops) - 1]
            # Startup = redirect chain latency + one more RTT to first byte.
            startup = (video_flow.t_start - request.t_s) + 2.0 * rtt_ms / 1000.0
            result.startup_delay_samples.append(startup)
            result.serving_rtt_samples.append(rtt_ms)

    def finish(self) -> SimulationResult:
        """Close collection and return the populated result."""
        self.result.dataset = self.monitor.finish(
            self.world.spec.name, self.world.duration_s
        )
        return self.result


def run_requests(
    world: ScenarioWorld,
    requests: Optional[Sequence[Request]] = None,
    miss_probability: float = DEFAULT_MISS_PROBABILITY,
) -> SimulationResult:
    """Run a request stream through the world and collect the trace.

    Args:
        world: The built scenario world.
        requests: Request stream; generated from the world's generator when
            omitted.
        miss_probability: Monitor classification-miss probability.

    Returns:
        The :class:`SimulationResult` with the dataset and ground truth.
    """
    if requests is None:
        requests = world.generator.generate(world.duration_s)
    processor = RequestProcessor(world, miss_probability=miss_probability)
    for request in requests:
        processor.tally(request, processor.process(request))
    return processor.finish()


def stream_requests(
    world: ScenarioWorld,
    requests: Optional[Sequence[Request]] = None,
    miss_probability: float = DEFAULT_MISS_PROBABILITY,
) -> Iterator[object]:
    """Live-emit mode: the week as a time-ordered event stream.

    Yields :class:`~repro.stream.events.WatermarkAdvance` and
    :class:`~repro.stream.events.FlowArrival` events instead of collecting
    a :class:`~repro.trace.records.Dataset`.  Request processing is
    identical to :func:`run_requests` — same
    :meth:`RequestProcessor.process`, same miss/serve RNG consumption — so
    the emitted records are exactly the batch dataset's records, in
    monitor observation order.  Only the retention differs: flows are
    handed off as they are observed, keeping memory independent of the
    flow count, and nothing is tallied (no ground truth, no counts, no
    performance samples), since no :class:`SimulationResult` is returned.

    Watermark semantics: requests are processed in increasing ``t_s`` and
    every flow a request produces starts at or after its ``t_s``, so the
    current request time is a valid low watermark — no later arrival can
    start before it.  A final infinite watermark closes the stream.
    """
    from repro.stream.events import FlowArrival, WatermarkAdvance

    if requests is None:
        requests = world.generator.generate(world.duration_s)
    fresh: List = []
    processor = RequestProcessor(
        world, miss_probability=miss_probability, record_sink=fresh.append
    )
    seq = 0
    for request in requests:
        yield WatermarkAdvance(t_s=request.t_s)
        processor.process(request)
        for record in fresh:
            yield FlowArrival(record=record, seq=seq)
            seq += 1
        fresh.clear()
    yield WatermarkAdvance(t_s=math.inf)


#: Distinct miss sentinel (a cached stage value can legitimately be None).
_RUN_MISS = object()


def _run_world_task(args: Tuple[ScenarioWorld, float]) -> SimulationResult:
    """Process-safe unit of work: one vantage point's whole week."""
    world, miss_probability = args
    return run_requests(world, miss_probability=miss_probability)


def run_many(
    worlds: Sequence[ScenarioWorld],
    miss_probability: float = DEFAULT_MISS_PROBABILITY,
    executor: Optional[ParallelExecutor] = None,
) -> List[SimulationResult]:
    """Run several independent worlds, one per executor task.

    Each world owns all of its random state (its RNGs were derived from
    its own ``(seed, scenario)`` path at build time), so the backends are
    interchangeable: results are byte-identical in every mode and arrive
    in input order.

    Worlds built canonically by :func:`~repro.sim.scenarios.build_world`
    (``policy_kind`` set) resolve against the on-disk artifact store
    first, under the same ``"sim/run_week"`` keys
    :func:`repro.sim.driver.simulate_week` writes; only the missing weeks
    fan out.  A hand-modified world must clear ``world.policy_kind`` (set
    it to ``None``) to opt out — the cache cannot see mutations made
    after the build.  The idiomatic alternative is to express the change
    as a :class:`~repro.spec.model.Spec` delta and rebuild through
    :func:`repro.spec.model.apply_spec`: spec-built worlds always carry a
    canonical fingerprint, so the opt-out (and its cold-path cost) never
    applies to them — see :mod:`repro.artifacts.keys`.

    Args:
        worlds: Independent built worlds (must not share a ``system``;
            shared-world studies are causally serial — see
            :func:`repro.sim.multistudy.run_shared`).
        miss_probability: Monitor classification-miss probability.
        executor: Fan-out strategy; defaults to the environment's.

    Returns:
        One :class:`SimulationResult` per world, in input order.

    Raises:
        ValueError: If two worlds share a CDN system.
    """
    from repro.artifacts.store import default_store
    from repro.sim.driver import simulate_week

    worlds = list(worlds)
    systems = {id(world.system) for world in worlds}
    if len(systems) != len(worlds):
        raise ValueError(
            "run_many needs independent worlds; use run_shared for a shared CdnSystem"
        )

    store = default_store()
    results: List[Optional[SimulationResult]] = [None] * len(worlds)
    keys: List[Optional[str]] = [None] * len(worlds)
    pending: List[int] = []
    for i, world in enumerate(worlds):
        if store is not None and world.policy_kind is not None:
            keys[i] = simulate_week.cache_key(
                world.spec, world.scale, world.seed, world.duration_s,
                world.policy_kind, miss_probability,
            )
            hit = store.get(keys[i], _RUN_MISS, stage="sim/run_week")
            if hit is not _RUN_MISS:
                results[i] = hit
                continue
        pending.append(i)

    if pending:
        executor = default_executor(executor)
        fresh = executor.map(
            _run_world_task,
            [(worlds[i], miss_probability) for i in pending],
            labels=[worlds[i].spec.name for i in pending],
        )
        for i, result in zip(pending, fresh):
            results[i] = result
            if store is not None and keys[i] is not None:
                store.put(keys[i], result, stage="sim/run_week")
    return results
