"""Tests for the trace package: records, monitor, log I/O."""


import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cdn.cluster import FlowEvent
from repro.net.ip import parse_ip
from repro.sim.scenarios import PAPER_SCENARIOS, build_world
from repro.trace.logio import dumps, format_record, loads, parse_record, read_flow_log, write_flow_log
from repro.trace.monitor import EdgeMonitor
from repro.trace.records import Dataset, FlowRecord


def record(src="128.210.0.5", dst="173.194.0.10", nbytes=5000, t0=10.0, t1=20.0,
           vid="AAAAAAAAAAA", res="360p"):
    return FlowRecord(
        src_ip=parse_ip(src), dst_ip=parse_ip(dst), num_bytes=nbytes,
        t_start=t0, t_end=t1, video_id=vid, resolution=res,
    )


class TestFlowRecord:
    def test_properties(self):
        r = record()
        assert r.duration_s == 10.0
        assert r.hour == 0
        assert r.src_str == "128.210.0.5"
        assert r.dst_str == "173.194.0.10"

    def test_hour_binning(self):
        assert record(t0=3599.9, t1=3600.5).hour == 0
        assert record(t0=3600.0, t1=3700.0).hour == 1

    def test_validation(self):
        with pytest.raises(ValueError):
            record(t0=10.0, t1=5.0)
        with pytest.raises(ValueError):
            record(nbytes=-1)

    @pytest.mark.parametrize(
        "t0, t1, message",
        [
            (float("nan"), 5.0, "NaN"),
            (1.0, float("nan"), "NaN"),
            (float("nan"), float("nan"), "NaN"),
            (float("-inf"), 5.0, "infinite"),
            (1.0, float("inf"), "infinite"),
            (float("inf"), float("inf"), "infinite"),
            (1e300, 1e300, "out of range"),
            (-(2.0**53), 5.0, "out of range"),
            (1.0, 2.0**53, "out of range"),
        ],
    )
    def test_non_finite_timestamps_rejected(self, t0, t1, message):
        with pytest.raises(ValueError, match=message):
            record(t0=t0, t1=t1)

    def test_timestamps_just_inside_the_bound_are_accepted(self):
        bound = 2.0**53
        r = record(t0=-(bound - 1.0), t1=bound - 1.0)
        assert r.t_end == bound - 1.0

    def test_byte_count_must_fit_int64(self):
        assert record(nbytes=2**63 - 1).num_bytes == 2**63 - 1
        with pytest.raises(ValueError, match="64 bits"):
            record(nbytes=2**63)
        with pytest.raises(ValueError, match="64 bits"):
            record(nbytes=10**23)


class TestDataset:
    @pytest.fixture
    def vantage(self):
        return build_world(PAPER_SCENARIOS["EU1-Campus"], scale=0.01, seed=2).vantage

    def test_aggregates(self, vantage):
        records = [record(nbytes=100), record(dst="173.194.0.11", nbytes=200)]
        ds = Dataset(name="X", vantage=vantage, records=records)
        assert len(ds) == 2
        assert ds.total_bytes == 300
        assert len(ds.server_ips) == 2
        assert len(ds.client_ips) == 1

    def test_filtered(self, vantage):
        keep = parse_ip("173.194.0.10")
        records = [record(), record(dst="173.194.0.11")]
        ds = Dataset(name="X", vantage=vantage, records=records)
        filtered = ds.filtered([keep])
        assert len(filtered) == 1
        assert filtered.records[0].dst_ip == keep
        assert filtered.name == "X"

    def test_subnet_plan(self, vantage):
        ds = Dataset(name="X", vantage=vantage, records=[record()])
        plan = ds.subnet_plan()
        assert len(plan) == len(vantage.subnets)

    def test_duration_validated(self, vantage):
        with pytest.raises(ValueError):
            Dataset(name="X", vantage=vantage, records=[], duration_s=0.0)


class TestSummaryDigest:
    @pytest.fixture
    def vantage(self):
        return build_world(PAPER_SCENARIOS["EU1-Campus"], scale=0.01, seed=2).vantage

    def dataset(self, vantage, records=None, **kwargs):
        if records is None:
            records = [record(), record(vid="BBBBBBBBBBB", t0=100.0, t1=110.0)]
        return Dataset(name="X", vantage=vantage, records=records, **kwargs)

    def test_deterministic(self, vantage):
        ds = self.dataset(vantage)
        assert ds.summary_digest() == ds.summary_digest()
        assert len(ds.summary_digest()) == 64

    def test_differs_from_content_digest(self, vantage):
        ds = self.dataset(vantage)
        assert ds.summary_digest() != ds.content_digest()

    def test_equal_content_implies_equal_summary(self, vantage):
        a = self.dataset(vantage)
        b = self.dataset(vantage)
        assert a.content_digest() == b.content_digest()
        assert a.summary_digest() == b.summary_digest()

    def test_session_splitting_change_changes_digest(self, vantage):
        # Two flows of one video 20 s apart: one session at gap 30,
        # two sessions at gap 5.
        records = [record(t0=0.0, t1=10.0), record(t0=30.0, t1=40.0)]
        ds = self.dataset(vantage, records=records)
        assert ds.summary_digest(gap_s=30.0) != ds.summary_digest(gap_s=5.0)

    def test_flow_change_changes_digest(self, vantage):
        base = self.dataset(vantage)
        moved = self.dataset(
            vantage,
            records=[record(), record(vid="BBBBBBBBBBB", t0=101.0, t1=111.0)],
        )
        assert base.summary_digest() != moved.summary_digest()

    def test_header_fields_participate(self, vantage):
        week = self.dataset(vantage)
        day = self.dataset(vantage, duration_s=86400.0)
        assert week.summary_digest() != day.summary_digest()


class TestMonitor:
    @pytest.fixture
    def vantage(self):
        return build_world(PAPER_SCENARIOS["EU1-Campus"], scale=0.01, seed=2).vantage

    def make_event(self, i=0):
        return FlowEvent(
            t_start=float(i), t_end=float(i) + 1.0,
            client_ip=parse_ip("128.210.0.5"), server_ip=parse_ip("173.194.0.10"),
            num_bytes=1000, video_id="AAAAAAAAAAA", resolution="360p", kind="video",
        )

    def test_records_all_without_misses(self, vantage):
        monitor = EdgeMonitor(vantage, miss_probability=0.0)
        monitor.observe_all(self.make_event(i) for i in range(10))
        assert monitor.record_count == 10
        assert monitor.missed == 0

    def test_miss_probability(self, vantage):
        monitor = EdgeMonitor(vantage, miss_probability=0.5, seed=1)
        monitor.observe_all(self.make_event(i) for i in range(1000))
        assert 350 < monitor.record_count < 650
        assert monitor.missed + monitor.record_count == 1000

    def test_finish_sorts(self, vantage):
        monitor = EdgeMonitor(vantage, miss_probability=0.0)
        for i in (5, 1, 3):
            monitor.observe(self.make_event(i))
        ds = monitor.finish("X", 3600.0)
        starts = [r.t_start for r in ds.records]
        assert starts == sorted(starts)

    def test_validation(self, vantage):
        with pytest.raises(ValueError):
            EdgeMonitor(vantage, miss_probability=1.0)

    def _observed_ids(self, vantage, seed):
        monitor = EdgeMonitor(vantage, miss_probability=0.3, seed=seed)
        for i in range(200):
            event = self.make_event(i)
            event = FlowEvent(
                t_start=event.t_start, t_end=event.t_end,
                client_ip=event.client_ip, server_ip=event.server_ip,
                num_bytes=event.num_bytes, video_id=f"vid{i:08d}",
                resolution=event.resolution, kind=event.kind,
            )
            monitor.observe(event)
        return {r.video_id for r in monitor.finish("X", 3600.0).records}

    def test_same_seed_drops_the_same_flows(self, vantage):
        first = self._observed_ids(vantage, seed=17)
        second = self._observed_ids(vantage, seed=17)
        assert first == second
        assert 0 < len(first) < 200

    def test_different_seeds_drop_different_flows(self, vantage):
        assert self._observed_ids(vantage, seed=17) != \
            self._observed_ids(vantage, seed=18)

    def test_miss_counters_are_seed_deterministic(self, vantage):
        counts = []
        for _ in range(2):
            monitor = EdgeMonitor(vantage, miss_probability=0.3, seed=5)
            monitor.observe_all(self.make_event(i) for i in range(300))
            counts.append((monitor.observed, monitor.missed,
                           monitor.record_count))
        assert counts[0] == counts[1]
        assert counts[0][0] == 300
        assert counts[0][1] + counts[0][2] == 300


class TestLogIo:
    def test_roundtrip_string(self):
        records = [record(), record(dst="74.125.1.2", nbytes=999, vid="B_-123456Zz")]
        assert loads(dumps(records)) == records

    def test_roundtrip_file(self, tmp_path):
        records = [record(t0=1.5, t1=2.25)]
        path = tmp_path / "flows.tsv"
        count = write_flow_log(records, path)
        assert count == 1
        assert read_flow_log(path) == records

    def test_header_skipped(self):
        text = "# a comment\n\n" + format_record(record()) + "\n"
        assert len(loads(text)) == 1

    def test_malformed_line_raises(self):
        with pytest.raises(ValueError):
            parse_record("only\tthree\tfields")

    def test_error_names_the_line(self):
        bad = format_record(record()).replace("\t10.0\t", "\tnan\t")
        text = "# header\n" + format_record(record()) + "\n\n" + bad + "\n"
        with pytest.raises(ValueError, match=r"<string>: line 4: flow timestamp is NaN"):
            loads(text)

    def test_skip_reports_line_numbers(self, tmp_path):
        good = format_record(record())
        path = tmp_path / "flows.tsv"
        path.write_text(f"# header\n{good}\ngarbage\n{good}\nmore garbage\n")
        skipped = []
        assert len(read_flow_log(path, on_error="skip", on_skip=skipped.append)) == 2
        assert skipped == [3, 5]

    @given(
        st.integers(min_value=0, max_value=(1 << 32) - 1),
        st.integers(min_value=0, max_value=(1 << 32) - 1),
        st.integers(min_value=0, max_value=10 ** 9),
        st.floats(min_value=0.0, max_value=604800.0, allow_nan=False),
        st.floats(min_value=0.0, max_value=3600.0, allow_nan=False),
        st.text(alphabet="ABCdef012_-", min_size=11, max_size=11),
    )
    @settings(max_examples=100)
    def test_roundtrip_property(self, src, dst, nbytes, t0, dur, vid):
        r = FlowRecord(
            src_ip=src, dst_ip=dst, num_bytes=nbytes,
            t_start=t0, t_end=t0 + dur, video_id=vid, resolution="480p",
        )
        parsed = parse_record(format_record(r))
        assert parsed.src_ip == r.src_ip
        assert parsed.dst_ip == r.dst_ip
        assert parsed.num_bytes == r.num_bytes
        assert parsed.video_id == r.video_id
        assert parsed.t_start == pytest.approx(r.t_start, abs=1e-6)
        assert parsed.t_end == pytest.approx(r.t_end, abs=1e-6)
