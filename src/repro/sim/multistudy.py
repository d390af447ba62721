"""Shared-world studies: all five vantage points against one CDN.

The paper's datasets were collected *simultaneously*: five monitors
watching the same production CDN in the same week.  Per-scenario worlds
(:func:`repro.sim.scenarios.build_world`) are cheap and independent — the
right tool for most analyses — but a shared world lets the vantage points
*interact*: they draw from one catalog, warm the same pull-through caches,
and compete for the same server capacity.

:func:`build_shared_worlds` constructs one CDN plus a
:class:`~repro.sim.scenarios.ScenarioWorld` facade per dataset, and
:func:`run_shared` pushes the merged, time-ordered request stream through
it, producing per-dataset results that drop into
:class:`~repro.core.pipeline.StudyPipeline` unchanged.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro import obs
from repro.artifacts.memo import memoized_stage
from repro.artifacts.store import default_store
from repro.cdn.catalog import DEFAULT_NUM_SHARDS, VideoCatalog
from repro.exec.executor import ParallelExecutor, default_executor
from repro.cdn.cluster import CdnSystem
from repro.cdn.datacenter import DataCenter, DataCenterDirectory, build_datacenter
from repro.cdn.redirection import RedirectionEngine
from repro.cdn.selection import PolicyContext, make_policy
from repro.cdn.store import ContentPlacement
from repro.geo.cities import default_atlas
from repro.net.asn import AsRegistry, CW_ASN, GBLX_ASN, GOOGLE_ASN, YOUTUBE_EU_ASN
from repro.net.dns import AuthoritativeServer, LocalResolver
from repro.net.ip import Ipv4Allocator, parse_network
from repro.net.latency import LatencyModel, Site
from repro.net.topology import Subnet, VantagePoint
from repro.sim.engine import RequestProcessor, SimulationResult
from repro.sim.scenarios import (
    DATASET_NAMES,
    GOOGLE_DC_PLAN,
    LEGACY_DC_PLAN,
    THIRD_PARTY_DC_PLAN,
    ScenarioSpec,
    ScenarioWorld,
    _paper_scenarios,
    _slug,
)
from repro.sim.seeding import derive_seed
from repro.trace.records import WEEK_S
from repro.workload.clients import build_population
from repro.workload.interactions import InteractionModel
from repro.workload.requests import Request, RequestGenerator


def build_shared_worlds(
    scale: float = 0.02,
    seed: int = 7,
    duration_s: float = WEEK_S,
    names: Sequence[str] = DATASET_NAMES,
) -> Dict[str, ScenarioWorld]:
    """Build one CDN and a world facade per dataset.

    Args:
        scale: Traffic scale applied to every dataset.
        seed: Master seed (component sub-seeds match the per-scenario
            builder, so workloads are comparable across modes).
        duration_s: Simulation window.
        names: Datasets to include.

    Returns:
        Mapping dataset name → its :class:`ScenarioWorld`; all entries
        share the same ``system``, ``registry`` and ``latency``.

    Raises:
        KeyError: For unknown dataset names.
        ValueError: For a non-positive scale.
    """
    if scale <= 0:
        raise ValueError("scale must be positive")
    specs: List[ScenarioSpec] = []
    for name in names:
        spec = _paper_scenarios().get(name)
        if spec is None:
            raise KeyError(f"unknown dataset {name!r}")
        specs.append(spec)
    atlas = default_atlas()

    # ----------------------------------------------------------- registry
    registry = AsRegistry()
    registry.register_as(GOOGLE_ASN, "Google Inc.")
    registry.register_as(YOUTUBE_EU_ASN, "YouTube-EU")
    registry.register_as(CW_ASN, "Cable&Wireless")
    registry.register_as(GBLX_ASN, "Global Crossing")
    for spec in specs:
        # Two vantage points can share an AS (EU1-ADSL and EU1-FTTH are
        # PoPs of the same ISP); first registration names it.
        if not registry.has_as(spec.vantage_asn):
            registry.register_as(spec.vantage_asn, f"{spec.name} host network")

    google_alloc = Ipv4Allocator(
        (parse_network("173.194.0.0/15"), parse_network("74.125.0.0/16"))
    )
    legacy_alloc = Ipv4Allocator((parse_network("208.65.152.0/21"),))
    third_alloc = Ipv4Allocator((parse_network("195.50.0.0/20"),))
    isp_alloc = Ipv4Allocator((parse_network("81.200.0.0/18"),))

    # --------------------------------------------------------- data centers
    google_dcs = [
        build_datacenter(f"dc-{_slug(city)}", atlas.get(city), size, google_alloc, GOOGLE_ASN)
        for city, size in GOOGLE_DC_PLAN
    ]
    internal_dc: Optional[DataCenter] = None
    internal_owner: Optional[ScenarioSpec] = next(
        (spec for spec in specs if spec.internal_dc), None
    )
    if internal_owner is not None:
        internal_dc = build_datacenter(
            dc_id="dc-eu2-internal",
            city=atlas.get(internal_owner.vantage_city),
            num_servers=32,
            allocator=isp_alloc,
            asn=internal_owner.vantage_asn,
        )
    legacy_dcs = [
        build_datacenter(
            f"legacy-{_slug(city)}", atlas.get(city), size, legacy_alloc, YOUTUBE_EU_ASN
        )
        for city, size in LEGACY_DC_PLAN
    ]
    third_party_dcs = [
        build_datacenter(
            f"3p-{label}-{_slug(city)}",
            atlas.get(city),
            size,
            third_alloc,
            CW_ASN if label == "cw" else GBLX_ASN,
        )
        for city, label, size in THIRD_PARTY_DC_PLAN
    ]
    ranked_dcs: List[DataCenter] = list(google_dcs)
    if internal_dc is not None:
        ranked_dcs.append(internal_dc)
    directory = DataCenterDirectory(ranked_dcs + legacy_dcs + third_party_dcs)
    for dc in ranked_dcs + legacy_dcs + third_party_dcs:
        for network in dc.networks:
            registry.announce(network, dc.asn)

    # ------------------------------------------------------------ latencies
    detours: Dict[Tuple[str, str], float] = {}
    for spec in _paper_scenarios().values():
        spec_group = f"vp:{spec.name}"
        for dc_id, detour_ms in spec.detour_pins:
            detours[(spec_group, dc_id)] = detour_ms
        if spec.internal_dc:
            detours[(spec_group, "dc-eu2-internal")] = 0.0
    latency = LatencyModel(seed=derive_seed(seed, "latency"), detour_overrides=detours)

    # --------------------------------------- rankings, caps, and capacities
    rankings: Dict[str, Sequence[str]] = {}
    dns_caps: Dict[str, float] = {}
    preferred_demand: Dict[str, float] = {}
    spec_rankings: Dict[str, List[str]] = {}
    for spec in specs:
        probe = Site(
            key=f"vp:{spec.name}",
            point=atlas.get(spec.vantage_city).point,
            access=spec.access,
            extra_ms=spec.egress_ms,
            group=f"vp:{spec.name}",
        )

        def dc_rtt(dc: DataCenter) -> float:
            return latency.min_rtt_ms(probe, dc.server_site(dc.servers[0]))

        # Eligible data centers: every Google one, plus the in-ISP data
        # center for the ISP's own customers only.
        eligible = [
            dc for dc in ranked_dcs
            if dc is not internal_dc or spec.internal_dc
        ]
        ranked_ids = [dc.dc_id for dc in sorted(eligible, key=dc_rtt)]
        spec_rankings[spec.name] = ranked_ids
        mean_hourly = spec.requests_per_day * scale / 24.0
        preferred_demand[ranked_ids[0]] = preferred_demand.get(ranked_ids[0], 0.0) + mean_hourly
        for subnet_spec in spec.subnets:
            resolver_id = f"{spec.name}/{subnet_spec.name}"
            if subnet_spec.divergent_resolver:
                rankings[resolver_id] = [ranked_ids[1], ranked_ids[0]] + ranked_ids[2:]
            else:
                rankings[resolver_id] = list(ranked_ids)
        if spec.internal_dc and internal_dc is not None:
            dns_caps[internal_dc.dc_id] = max(
                2.0, spec.internal_dc_cap_of_mean * mean_hourly
            )

    # Per-server capacity: preferred data centers are sized against the
    # demand homed on them; everything else gets the median of those caps.
    caps: Dict[str, float] = {}
    for dc in ranked_dcs:
        demand = preferred_demand.get(dc.dc_id)
        if demand is not None:
            multiple = max(spec.server_capacity_multiple for spec in specs)
            caps[dc.dc_id] = multiple * demand / dc.size + 4.0
    default_cap = sorted(caps.values())[len(caps) // 2] if caps else 10.0
    for dc in ranked_dcs:
        dc.server_capacity_per_hour = caps.get(dc.dc_id, default_cap)

    # -------------------------------------------------- shared CDN system
    total_rpd = sum(spec.requests_per_day for spec in specs) * scale
    weeks = max(1.0, duration_s / WEEK_S)
    catalog = VideoCatalog(
        size=max(500, int(0.6 * total_rpd * 7 * weeks)),
        zipf_alpha=1.0,
        seed=derive_seed(seed, "shared", "catalog"),
        num_featured_days=max(1, int(duration_s // 86400.0)),
        featured_share=0.10,
    )
    placement = ContentPlacement(
        catalog=catalog,
        dc_ids=[dc.dc_id for dc in ranked_dcs],
        replicated_mass=0.75,
        regional_presence_prob=0.8,
    )
    redirection = RedirectionEngine(
        directory=directory,
        placement=placement,
        rebalance_probability=0.14,
        origin_fetch_probability=0.35,
        seed=derive_seed(seed, "shared", "redirection"),
    )
    # Through the registry, like build_world — byte-identical to the
    # direct PreferredDcPolicy construction it replaces.
    policy = make_policy(
        "preferred",
        PolicyContext(
            directory=directory,
            rankings=rankings,
            eligible=tuple(dc.dc_id for dc in ranked_dcs),
            dns_capacity_per_hour=dns_caps,
            spill_probability=max(spec.spill_probability for spec in specs),
            seed=derive_seed(seed, "shared", "policy"),
        ),
    )
    system = CdnSystem(
        catalog=catalog,
        directory=directory,
        placement=placement,
        policy=policy,
        redirection=redirection,
        latency=latency,
        num_shards=DEFAULT_NUM_SHARDS,
        legacy_dcs=legacy_dcs,
        third_party_dcs=third_party_dcs,
        legacy_probability=0.06,
        third_party_probability=0.008,
    )
    authoritative = AuthoritativeServer(mapper=policy)

    # --------------------------------------------------- per-dataset worlds
    worlds: Dict[str, ScenarioWorld] = {}
    for spec in specs:
        subnet_networks = list(parse_network(spec.client_block).subnets(18))
        subnets = [
            Subnet(
                name=subnet_spec.name,
                network=subnet_networks[i],
                resolver=LocalResolver(
                    resolver_id=f"{spec.name}/{subnet_spec.name}",
                    authoritative=authoritative,
                ),
                client_share=subnet_spec.client_share,
            )
            for i, subnet_spec in enumerate(spec.subnets)
        ]
        vantage = VantagePoint(
            name=spec.name,
            city=atlas.get(spec.vantage_city),
            access=spec.access,
            egress_ms=spec.egress_ms,
            subnets=subnets,
            asn=spec.vantage_asn,
        )
        population = build_population(
            vantage,
            max(40, int(spec.num_clients * scale)),
            seed=derive_seed(seed, spec.name, "clients"),
        )
        generator = RequestGenerator(
            population=population,
            catalog=catalog,
            profile=spec.diurnal_profile(),
            requests_per_day=spec.requests_per_day * scale,
            interactions=InteractionModel(),
            seed=derive_seed(seed, spec.name, "workload"),
        )
        worlds[spec.name] = ScenarioWorld(
            spec=spec,
            scale=scale,
            seed=seed,
            system=system,
            vantage=vantage,
            population=population,
            generator=generator,
            registry=registry,
            latency=latency,
            google_dc_ids=spec_rankings[spec.name],
            internal_dc_id=None if internal_dc is None else internal_dc.dc_id,
            duration_s=duration_s,
        )
    return worlds


def _generate_task(world: ScenarioWorld) -> List[Request]:
    """Process-safe unit of work: one vantage point's request stream.

    Generation only reads the world and draws from the generator's own
    RNG, so a pickled copy produces value-identical requests (floats
    round-trip pickling exactly) — the merged stream is byte-identical
    across backends.
    """
    return world.generator.generate(world.duration_s)


def run_shared(
    worlds: Dict[str, ScenarioWorld],
    executor: Optional[ParallelExecutor] = None,
) -> Dict[str, SimulationResult]:
    """Run the merged request stream through the shared CDN.

    Requests from every vantage point are interleaved in global time order,
    so DNS budgets, server loads and pull-through caches see the causal
    order a real shared week would produce.  That interleaved processing is
    inherently serial — the vantage points interact through shared state —
    but the per-vantage request *generation* is independent and fans out
    over the executor.

    Args:
        worlds: Per-dataset facades sharing one system.
        executor: Fan-out strategy for generation; ``None`` reads
            ``REPRO_EXECUTOR``.

    Returns:
        Per-dataset :class:`SimulationResult`, pipeline-compatible.

    Raises:
        ValueError: If the worlds do not share one system.
    """
    if not worlds:
        raise ValueError("no worlds to run")
    systems = {id(world.system) for world in worlds.values()}
    if len(systems) != 1:
        raise ValueError("run_shared needs worlds sharing one CdnSystem")

    executor = default_executor(executor)
    names = list(worlds)
    with obs.span("sim/shared_generate", datasets=len(names)):
        streams = executor.map(
            _generate_task,
            [worlds[name] for name in names],
            labels=[f"generate/{name}" for name in names],
        )
    with obs.span("sim/shared_process", datasets=len(names)):
        tagged: List[Tuple[float, str, Request]] = []
        for name, stream in zip(names, streams):
            for request in stream:
                tagged.append((request.t_s, name, request))
        tagged.sort(key=lambda item: item[0])

        processors = {name: RequestProcessor(world) for name, world in worlds.items()}
        for _, name, request in tagged:
            processor = processors[name]
            processor.tally(request, processor.process(request))
        return {name: processor.finish() for name, processor in processors.items()}


@memoized_stage("sim/shared_study", ignore=("executor",))
def run_shared_study(
    scale: float = 0.02,
    seed: int = 7,
    duration_s: float = WEEK_S,
    names: Sequence[str] = DATASET_NAMES,
    executor: Optional[ParallelExecutor] = None,
) -> Dict[str, SimulationResult]:
    """Build the shared world and run the whole study in one call.

    Disk-memoized as one ``"sim/shared_study"`` artifact: the shared world
    is causally coupled across vantage points, so the cacheable unit is
    the whole interleaved study, keyed by ``(scale, seed, duration_s,
    names)`` — never the individual facades.  The ``executor`` only
    shapes how generation fans out, not what comes back, so it stays out
    of the key.
    """
    return run_shared(build_shared_worlds(scale, seed, duration_s, names), executor=executor)


#: Distinct miss sentinel for store lookups.
_STUDY_MISS = object()


def _shared_study_task(config: Dict) -> Dict[str, SimulationResult]:
    """Process-safe unit of work: one complete shared study.

    The inner generation runs serially — the fan-out lives at the study
    level here, and nesting pools would oversubscribe the workers.
    """
    return run_shared_study(
        scale=config.get("scale", 0.02),
        seed=config.get("seed", 7),
        duration_s=config.get("duration_s", WEEK_S),
        names=config.get("names", DATASET_NAMES),
        executor=ParallelExecutor("serial"),
    )


def _shared_study_task_shm(arg: Tuple) -> Dict[str, Tuple]:
    """The zero-copy variant: publish each dataset's columns, return slims.

    Mirrors :func:`repro.sim.driver._scenario_task_shm` at the study
    level — one shared-memory segment per dataset, named by the parent's
    scope, so the flow records never ride the result pickle.
    """
    from dataclasses import replace

    from repro.shard.shm import publish_table

    config, segment_names = arg
    results = _shared_study_task(config)
    packed: Dict[str, Tuple] = {}
    for name, result in results.items():
        handle = publish_table(result.dataset.columnar(), name=segment_names[name])
        slim = replace(result, dataset=replace(result.dataset, records=[]))
        packed[name] = (slim, handle)
    return packed


def run_shared_studies(
    configs: Sequence[Dict],
    executor: Optional[ParallelExecutor] = None,
    transport: Optional[str] = None,
) -> List[Dict[str, SimulationResult]]:
    """Fan out several complete shared studies, one per executor task.

    This is the multi-scenario sweep surface: each config dict may set
    ``scale``, ``seed``, ``duration_s`` and ``names``, and each study
    builds its own CDN, so the studies are fully independent.  Results
    are byte-identical to running :func:`run_shared_study` serially per
    config.

    Args:
        configs: One kwargs-style dict per study.
        executor: Fan-out strategy; ``None`` reads ``REPRO_EXECUTOR``.
        transport: ``"shm"`` ships each dataset's columns through a
            shared-memory segment instead of pickling its records
            (:mod:`repro.shard.shm`); ``None`` uses plain pickling.
            Results are identical either way.

    Warm configs resolve from the artifact store in the parent (their
    ``"sim/shared_study"`` keys are pre-checked via
    ``run_shared_study.cache_key``); only the missing studies fan out, so
    an N-config sweep that shares M already-simulated configs pays for
    exactly N - M studies.

    Returns:
        Per-config result mappings, in input order.

    Raises:
        ValueError: With no configs, or an unknown transport name.
    """
    if not configs:
        raise ValueError("no study configs given")
    if transport not in (None, "shm"):
        raise ValueError(f"unknown transport {transport!r}; expected None or 'shm'")
    configs = list(configs)
    store = default_store()
    results: List[Optional[Dict[str, SimulationResult]]] = [None] * len(configs)
    pending: List[int] = []
    for i, config in enumerate(configs):
        if store is not None:
            hit = store.get(run_shared_study.cache_key(**config), _STUDY_MISS,
                            stage="sim/shared_study")
            if hit is not _STUDY_MISS:
                results[i] = hit
                continue
        pending.append(i)

    if pending:
        executor = default_executor(executor)
        labels = [
            "study/" + ",".join(f"{k}={configs[i][k]}" for k in sorted(configs[i])
                                if k != "names")
            for i in pending
        ]
        if transport == "shm":
            from repro.shard.shm import SegmentScope
            from repro.sim.driver import _rehydrate_shm

            with SegmentScope() as scope:
                packed = executor.map(
                    _shared_study_task_shm,
                    [
                        (
                            configs[i],
                            {
                                name: scope.name_for(f"study-{i}-{name}")
                                for name in configs[i].get("names", DATASET_NAMES)
                            },
                        )
                        for i in pending
                    ],
                    labels=labels,
                )
                fresh = [
                    {name: _rehydrate_shm(pair) for name, pair in study.items()}
                    for study in packed
                ]
        else:
            fresh = executor.map(
                _shared_study_task, [configs[i] for i in pending], labels=labels
            )
        for i, result in zip(pending, fresh):
            results[i] = result
    return results
