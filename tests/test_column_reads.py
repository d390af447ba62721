"""Column reads vs the record loops they replace (``REPRO_KERNELS`` parity).

Each analysis below has a record-at-a-time spec (the python backend) and a
column read (the numpy backend).  Hypothesis drives both over hostile
little traces -- clients outside every subnet, nested subnets, servers no
AS announces, flows past the last whole hour or before the first, byte
sums past 2**63, empty traces -- and the results must be equal, or both
calls must raise the same error.
"""

from __future__ import annotations

import contextlib
import os
import pickle

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.asmap import breakdown_by_as
from repro.core.peering import analyze_peering
from repro.core.preferred import DataCenterView, PreferredDcReport
from repro.core.subnets import subnet_shares
from repro.geo.cities import default_atlas
from repro.geoloc.clustering import DataCenterCluster, ServerMap
from repro.net.asn import GOOGLE_ASN, YOUTUBE_EU_ASN, AsRegistry
from repro.net.ip import IPv4Network
from repro.net.topology import Subnet, VantagePoint
from repro.trace.columnar import KERNELS_ENV, FlowTable, _Columns
from repro.trace.records import Dataset, FlowRecord

pytest.importorskip("numpy")

HOST_ASN = 64500
OTHER_ASN = 64501

#: Server addresses: 10.0.0.x is Google, 10.0.1.x YouTube-EU, 10.0.2.x the
#: host AS, 10.0.3.x another AS, 10.0.9.x announced by nobody.
SERVERS = [(10 << 24) | (block << 8) | host for block in (0, 1, 2, 3, 9) for host in (1, 2)]
#: Clients: inside the nested 192.168.0.0/16 > 192.168.1.0/24 plan, inside
#: the disjoint 172.16.0.0/24, and outside every subnet.
CLIENTS = [
    (192 << 24) | (168 << 16) | (1 << 8) | 5,
    (192 << 24) | (168 << 16) | (7 << 8) | 5,
    (172 << 24) | (16 << 16) | 9,
    (8 << 24) | 8,
]
PLANS = {
    "nested": [("inner", "192.168.1.0", 24), ("outer", "192.168.0.0", 16),
               ("side", "172.16.0.0", 24)],
    "shadowed": [("outer", "192.168.0.0", 16), ("inner", "192.168.1.0", 24)],
    "none": [],
}
DURATIONS = (3 * 3600.0, 3 * 3600.0 + 1800.0)


def _ip(text: str) -> int:
    a, b, c, d = (int(x) for x in text.split("."))
    return (a << 24) | (b << 16) | (c << 8) | d


def _registry() -> AsRegistry:
    registry = AsRegistry()
    for asn, name, block in (
        (GOOGLE_ASN, "Google", 0), (YOUTUBE_EU_ASN, "YouTube-EU", 1),
        (HOST_ASN, "Host ISP", 2), (OTHER_ASN, "Other", 3),
    ):
        registry.register_as(asn, name)
        registry.announce(IPv4Network((10 << 24) | (block << 8), 24), asn)
    return registry


def _vantage(plan: str) -> VantagePoint:
    entries = PLANS[plan]
    subnets = [
        Subnet(name, IPv4Network(_ip(net), plen), resolver=None,
               client_share=1.0 / len(entries))
        for name, net, plen in entries
    ]
    return VantagePoint(name="VP", city=default_atlas().get("Milan"), access=None,
                        egress_ms=0.0, subnets=subnets, asn=HOST_ASN)


def _server_map_and_report():
    atlas = default_atlas()
    clusters = [
        DataCenterCluster(cluster_id=cid, city=atlas.get(city), estimate=atlas.get(city).point,
                          confidence_radius_km=40.0, server_ips=ips)
        for cid, city, ips in (("pref", "Milan", SERVERS[0:3]), ("far", "Chicago", SERVERS[3:6]))
    ]
    by_ip = {ip: c for c in clusters for ip in c.server_ips}
    server_map = ServerMap(clusters=clusters, by_ip=by_ip, results_by_slash24={})
    views = [DataCenterView(cluster=c, num_bytes=1, num_flows=1, min_rtt_ms=10.0,
                            distance_km=1.0) for c in clusters]
    report = PreferredDcReport(dataset_name="VP", views=views, preferred_id="pref",
                               total_bytes=2)
    return server_map, report


flows = st.lists(
    st.builds(
        lambda src, dst, size, t0, dur, vid: FlowRecord(
            src_ip=src, dst_ip=dst, num_bytes=size, t_start=t0, t_end=t0 + dur,
            video_id=f"vid{vid:08d}", resolution="360p",
        ),
        st.sampled_from(CLIENTS),
        st.sampled_from(SERVERS),
        # 2**62 twice passes the int64 range: sums must not wrap.
        st.sampled_from([0, 500, 999, 1000, 70_000, 3_000_000, 2**62]),
        # Up to an hour past the longest window: the final partial hour and
        # beyond both land in the last bucket; starts before the trace land
        # in the first.
        st.floats(min_value=-5 * 3600.0, max_value=4 * 3600.0 + 1800.0),
        st.sampled_from([0.0, 0.5, 30.0]),
        st.integers(min_value=0, max_value=3),
    ),
    max_size=40,
)


@contextlib.contextmanager
def kernels(backend: str):
    saved = os.environ.get(KERNELS_ENV)
    os.environ[KERNELS_ENV] = backend
    try:
        yield
    finally:
        if saved is None:
            del os.environ[KERNELS_ENV]
        else:
            os.environ[KERNELS_ENV] = saved


def both(make_dataset, fn):
    """``fn`` over a fresh dataset under each backend: values or errors."""
    out = {}
    for backend in ("python", "numpy"):
        with kernels(backend):
            try:
                out[backend] = ("ok", fn(make_dataset()))
            except ValueError as error:
                out[backend] = (type(error).__name__, str(error))
    return out["python"], out["numpy"]


def dataset_factory(records, plan="nested", duration_s=DURATIONS[1], columns_first=False):
    def make():
        dataset = Dataset(name="VP", vantage=_vantage(plan), records=list(records),
                          duration_s=duration_s)
        if columns_first:
            dataset = pickle.loads(pickle.dumps(dataset, protocol=5))
        return dataset
    return make


PARITY = settings(max_examples=60, deadline=None,
                  suppress_health_check=[HealthCheck.too_slow])


@PARITY
@given(flows, st.booleans())
def test_dataset_totals(records, columns_first):
    make = dataset_factory(records, columns_first=columns_first)
    python, numpy = both(make, lambda d: (d.total_bytes, d.server_ips, d.client_ips))
    assert python == numpy
    assert python[0] == "ok"
    assert all(type(ip) is int for ip in numpy[1][1] + numpy[1][2])


@PARITY
@given(flows, st.booleans())
def test_breakdown_by_as(records, columns_first):
    registry = _registry()
    make = dataset_factory(records, columns_first=columns_first)
    python, numpy = both(make, lambda d: breakdown_by_as(d, registry))
    assert python == numpy
    if not records:
        assert python[0] == "ValueError"


@PARITY
@given(flows, st.sampled_from(DURATIONS), st.booleans())
def test_analyze_peering(records, duration_s, columns_first):
    registry = _registry()
    make = dataset_factory(records, duration_s=duration_s, columns_first=columns_first)
    python, numpy = both(make, lambda d: analyze_peering(d, registry))
    assert python == numpy
    if numpy[0] == "ok":
        report = numpy[1]
        assert all(type(v) is int for row in report.per_as for v in row.hourly_bytes)


def test_byte_sums_past_int64_do_not_wrap():
    registry = _registry()
    records = [FlowRecord(CLIENTS[0], SERVERS[0], 2**62 + i, float(i), float(i) + 1.0,
                          "vid00000000", "360p") for i in range(3)]
    make = dataset_factory(records)
    total = 3 * 2**62 + 3
    python, numpy = both(make, lambda d: (d.total_bytes, analyze_peering(d, registry)))
    assert python == numpy
    assert numpy[1][0] == numpy[1][1].total_bytes == total
    python, numpy = both(make, lambda d: breakdown_by_as(d, registry))
    assert python == numpy and numpy[1].byte_fractions["google"] == 1.0


def test_analyze_peering_unattributed_and_partial_hour():
    registry = _registry()
    unannounced = SERVERS[-1]
    records = [
        FlowRecord(CLIENTS[0], unannounced, 10, 3 * 3600.0 + 60.0, 3 * 3600.0 + 61.0,
                   "vid00000000", "360p"),
        FlowRecord(CLIENTS[0], SERVERS[0], 7, 0.0, 1.0, "vid00000000", "360p"),
    ]
    python, numpy = both(dataset_factory(records, duration_s=DURATIONS[1]),
                         lambda d: analyze_peering(d, registry))
    assert python == numpy
    rows = {row.asn: row for row in numpy[1].per_as}
    assert rows[0].name == "unattributed"
    assert rows[0].hourly_bytes == [0, 0, 10]  # hour 3 folds into the last bucket


def test_analyze_peering_folds_early_starts_into_the_first_hour():
    registry = _registry()
    records = [
        FlowRecord(CLIENTS[0], SERVERS[0], size, start, start + 1.0, "vid00000000", "360p")
        for size, start in ((5, -30.0), (7, -5 * 3600.0), (11, 1800.0))
    ]
    python, numpy = both(dataset_factory(records, duration_s=DURATIONS[0]),
                         lambda d: analyze_peering(d, registry))
    assert python == numpy
    assert numpy[1].per_as[0].hourly_bytes == [23, 0, 0]


@PARITY
@given(flows, st.sampled_from(sorted(PLANS)), st.booleans())
def test_subnet_shares(records, plan, columns_first):
    server_map, report = _server_map_and_report()
    make = dataset_factory(records, plan=plan, columns_first=columns_first)
    python, numpy = both(make, lambda d: subnet_shares(d, report, server_map))
    assert python == numpy


def test_subnet_shares_without_classifiable_flows_raise_alike():
    server_map, report = _server_map_and_report()
    control_only = [FlowRecord(CLIENTS[0], SERVERS[0], 500, 0.0, 1.0, "vid00000000", "360p")]
    for records in ([], control_only):
        python, numpy = both(dataset_factory(records),
                             lambda d: subnet_shares(d, report, server_map))
        assert python == numpy == ("ValueError", "no classifiable video flows")


def test_subnet_shares_first_declared_subnet_wins():
    server_map, report = _server_map_and_report()
    inner_client = CLIENTS[0]  # inside both 192.168.1.0/24 and 192.168.0.0/16
    records = [FlowRecord(inner_client, SERVERS[0], 70_000, 0.0, 1.0, "vid00000000", "360p")]
    for plan, winner in (("nested", "inner"), ("shadowed", "outer")):
        python, numpy = both(dataset_factory(records, plan=plan),
                             lambda d: subnet_shares(d, report, server_map))
        assert python == numpy
        shares = {s.subnet_name: s.all_share for s in numpy[1]}
        assert shares[winner] == 1.0


@PARITY
@given(flows, st.sets(st.sampled_from(SERVERS)), st.booleans())
def test_filtered(records, keep, columns_first):
    make = dataset_factory(records, columns_first=columns_first)
    python, numpy = both(make, lambda d: d.filtered(keep))
    assert list(python[1].records) == list(numpy[1].records)
    assert list(numpy[1].records) == [r for r in records if r.dst_ip in keep]
    # The masked columns equal a fresh build over the kept records.
    kept = numpy[1].records
    masked, fresh = kept.columns(), _Columns(list(kept))
    for name in _Columns.__slots__:
        assert getattr(masked, name).tolist() == getattr(fresh, name).tolist(), name


def test_where_dst_shares_existing_records():
    records = [FlowRecord(CLIENTS[0], SERVERS[i % 3], 70_000, float(i), float(i) + 1.0,
                          "vid00000000", "360p") for i in range(9)]
    table = FlowTable(records)
    with kernels("numpy"):
        kept = table.where_dst([SERVERS[1]])
    assert len(kept) == 3
    assert all(a is b for a, b in zip(kept.records, records[1::3]))
