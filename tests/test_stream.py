"""Tests for the streaming ingestion path (repro.stream).

The load-bearing property throughout is *byte parity*: the streamed path
must reproduce the batch path's records, sessions, aggregates, report
text and content digests exactly, at any window size, including under
within-watermark disorder.
"""

from __future__ import annotations

import hashlib
import io
import math
from collections import Counter

import pytest

from repro.cli import main
from repro.core.sessions import build_sessions, flows_per_session_histogram
from repro.core.streaming import HotSpotDetector, LoadBalanceDetector
from repro.core.summary import summarize
from repro.faults import report as degradation
from repro.faults.plan import FaultPlan, clear_current_plan, set_current_plan
from repro.sim.scenarios import DATASET_NAMES, PAPER_SCENARIOS, build_world
from repro.stream import (
    FlowArrival,
    StreamingDigest,
    TumblingWindower,
    WatermarkAdvance,
    WindowedSessionBuilder,
    inject_disorder,
    replay_flow_log,
    replay_records,
    simulated_stream,
)
from repro.stream.accumulators import (
    HourlyShareAccumulator,
    SessionStatsAccumulator,
    TrafficAccumulator,
)
from repro.stream.study import stream_dataset
from repro.trace.logio import format_record, write_flow_log
from repro.trace.records import FlowRecord


def rec(t_start, t_end, src=1, dst=100, num_bytes=5000, video="vidA"):
    return FlowRecord(src_ip=src, dst_ip=dst, num_bytes=num_bytes,
                      t_start=t_start, t_end=t_end, video_id=video,
                      resolution="360p")


def drain(windower, events):
    """Push events; return (sealed windows, concatenated records)."""
    windows = []
    for event in events:
        windows.extend(windower.push(event))
    windows.extend(windower.finish())
    return windows, [r for w in windows for r in w.records]


class TestTumblingWindower:
    def test_window_boundaries_are_half_open(self):
        w = TumblingWindower(10.0)
        events = [
            FlowArrival(rec(9.999, 11.0), seq=0),
            FlowArrival(rec(10.0, 12.0), seq=1),   # exactly at the edge
            WatermarkAdvance(t_s=10.0),            # seals [0, 10) only
        ]
        sealed = []
        for event in events:
            sealed.extend(w.push(event))
        assert [win.index for win in sealed] == [0]
        assert len(sealed[0]) == 1
        late = w.finish()
        assert [win.index for win in late] == [1]

    def test_records_sorted_by_t_start_t_end_seq(self):
        w = TumblingWindower(100.0)
        arrivals = [rec(5.0, 9.0), rec(1.0, 3.0), rec(5.0, 9.0), rec(5.0, 5.5)]
        events = [FlowArrival(r, seq=i) for i, r in enumerate(arrivals)]
        windows, ordered = drain(w, events)
        assert len(windows) == 1
        assert ordered == sorted(
            arrivals, key=lambda r: (r.t_start, r.t_end)
        )
        # Equal (t_start, t_end) records stay in seq order.
        assert ordered[2] is arrivals[0] and ordered[3] is arrivals[2]

    def test_late_arrivals_are_dropped_and_counted(self):
        w = TumblingWindower(10.0)
        w.push(FlowArrival(rec(5.0, 6.0), seq=0))
        w.advance(20.0)
        assert w.push(FlowArrival(rec(3.0, 4.0), seq=1)) == []
        assert w.late_records == 1
        # In-watermark arrivals still land.
        w.push(FlowArrival(rec(25.0, 26.0), seq=2))
        assert sum(len(win) for win in w.finish()) == 1

    def test_watermark_regression_raises(self):
        w = TumblingWindower(10.0)
        w.advance(50.0)
        with pytest.raises(ValueError):
            w.advance(49.0)

    def test_negative_times_are_windowed_not_dropped(self):
        w = TumblingWindower(10.0)
        assert w.sealed_boundary_s == -math.inf
        w.push(FlowArrival(rec(-25.0, -24.0), seq=0))
        windows, ordered = drain(w, [])
        assert [win.index for win in windows] == [-3]
        assert len(ordered) == 1

    def test_sealed_boundary_tracks_watermark_floor(self):
        w = TumblingWindower(10.0)
        w.advance(34.0)
        assert w.sealed_boundary_s == 30.0
        w.advance(math.inf)
        assert w.sealed_boundary_s == math.inf

    def test_rejects_nonpositive_window(self):
        with pytest.raises(ValueError):
            TumblingWindower(0.0)


class TestWindowedSessionBuilder:
    def stream_sessions(self, records, window_s, gap_s):
        w = TumblingWindower(window_s)
        b = WindowedSessionBuilder(gap_s)
        out = []
        for i, r in enumerate(sorted(records, key=lambda r: r.t_start)):
            for win in w.push(WatermarkAdvance(t_s=r.t_start)):
                out.extend(b.observe_window(win))
            out.extend(b.advance(w.sealed_boundary_s))
            w.push(FlowArrival(r, seq=i))
        for win in w.finish():
            out.extend(b.observe_window(win))
        out.extend(b.finish())
        return out

    def canon(self, sessions):
        return Counter(
            (s.client_ip, s.video_id, tuple(s.flows)) for s in sessions
        )

    def test_matches_batch_on_gap_breaks(self):
        records = [rec(0.0, 1.0), rec(1.5, 2.0), rec(10.0, 11.0),
                   rec(11.2, 12.0), rec(30.0, 31.0)]
        for window_s in (1.0, 5.0, 100.0):
            streamed = self.stream_sessions(records, window_s, gap_s=2.0)
            assert self.canon(streamed) == self.canon(
                build_sessions(records, gap_s=2.0)
            )

    def test_long_flow_holds_session_open_across_windows(self):
        # A flow spanning many windows: the horizon (t_end) keeps the
        # session open even after its start window sealed long ago.
        records = [rec(0.0, 50.0), rec(51.0, 52.0)]
        streamed = self.stream_sessions(records, window_s=5.0, gap_s=2.0)
        assert self.canon(streamed) == self.canon(
            build_sessions(records, gap_s=2.0)
        )
        assert len(streamed) == 1 and streamed[0].num_flows == 2

    def test_sessions_close_only_past_sealed_boundary(self):
        b = WindowedSessionBuilder(gap_s=2.0)
        w = TumblingWindower(10.0)
        w.push(FlowArrival(rec(5.0, 6.0), seq=0))
        for win in w.advance(10.0):
            b.observe_window(win)
        # horizon 6 + gap 2 = 8 <= boundary 10: closes.
        assert len(b.advance(w.sealed_boundary_s)) == 1
        assert b.open_sessions == 0

    def test_rejects_nonpositive_gap(self):
        with pytest.raises(ValueError):
            WindowedSessionBuilder(0.0)


class TestReplaySources:
    def test_replay_ends_with_infinite_watermark(self):
        events = list(replay_records([rec(1.0, 2.0)]))
        assert isinstance(events[-1], WatermarkAdvance)
        assert math.isinf(events[-1].t_s)
        assert sum(isinstance(e, FlowArrival) for e in events) == 1

    def test_watermark_lag_tolerates_local_disorder(self):
        records = [rec(0.0, 1.0), rec(3.0, 4.0), rec(2.0, 3.0), rec(9.0, 9.5)]
        w = TumblingWindower(5.0)
        _, ordered = drain(w, replay_records(records, watermark_lag_s=2.0))
        assert w.late_records == 0
        assert [r.t_start for r in ordered] == [0.0, 2.0, 3.0, 9.0]

    def test_no_lag_drops_out_of_order_records(self):
        records = [rec(5.0, 6.0), rec(1.0, 2.0)]
        w = TumblingWindower(1.0)
        _, ordered = drain(w, replay_records(records))
        assert w.late_records == 1
        assert [r.t_start for r in ordered] == [5.0]

    def test_negative_lag_rejected(self):
        with pytest.raises(ValueError):
            list(replay_records([], watermark_lag_s=-1.0))

    def test_flow_log_replay_equals_in_memory_replay(self, tmp_path):
        records = [rec(float(i), float(i) + 0.5, dst=100 + i % 3)
                   for i in range(20)]
        path = tmp_path / "flows.tsv"
        write_flow_log(records, path)
        from_file = [e.record for e in replay_flow_log(path)
                     if isinstance(e, FlowArrival)]
        assert from_file == records


class TestStreamingDigest:
    def test_matches_canonical_serialisation(self):
        records = [rec(3.0, 4.0), rec(1.0, 2.0), rec(1.0, 5.0)]
        w = TumblingWindower(10.0)
        digest = StreamingDigest()
        windows, ordered = drain(w, replay_records(records, watermark_lag_s=10.0))
        for win in windows:
            digest.update_window(win)
        expected = hashlib.sha256()
        for r in sorted(records, key=lambda r: (r.t_start, r.t_end)):
            expected.update(format_record(r).encode("ascii"))
            expected.update(b"\n")
        assert digest.hexdigest() == expected.hexdigest()
        assert digest.records == 3


@pytest.fixture(scope="module", params=DATASET_NAMES)
def streamed(request, study_results):
    """A paper dataset consumed as a stream from a fresh same-seed world,
    with its batch result."""
    from tests.conftest import TEST_SCALE, TEST_SEED

    world = build_world(PAPER_SCENARIOS[request.param], scale=TEST_SCALE,
                        seed=TEST_SEED)
    return stream_dataset(world, window_s=3600.0), study_results[request.param]


class TestSimulatedStreamParity:
    """Streaming serves without tallying; the records must not notice."""

    def test_digest_matches_batch_dataset(self, streamed):
        stream, batch = streamed
        assert stream.digest.hexdigest() == batch.dataset.content_digest()

    def test_summary_matches_batch(self, streamed):
        stream, batch = streamed
        assert stream.traffic.summary(stream.name) == summarize(batch.dataset)

    def test_server_ips_match_batch(self, streamed):
        stream, batch = streamed
        assert stream.traffic.server_ips() == batch.dataset.server_ips

    def test_session_histogram_matches_batch(self, streamed):
        stream, batch = streamed
        expected = flows_per_session_histogram(
            build_sessions(batch.dataset.records, gap_s=1.0)
        )
        assert stream.session_stats.histogram() == expected

    def test_memory_stays_windowed(self, streamed):
        stream, _ = streamed
        assert stream.windows > 100
        assert stream.late_records == 0
        assert stream.peak_window_records < stream.traffic.flows / 10

    def test_window_size_does_not_change_the_digest(self, streamed):
        from tests.conftest import TEST_SCALE, TEST_SEED

        stream, _ = streamed
        world = build_world(PAPER_SCENARIOS[stream.name], scale=TEST_SCALE,
                            seed=TEST_SEED)
        coarse = stream_dataset(world, window_s=86400.0)
        assert coarse.digest.hexdigest() == stream.digest.hexdigest()
        assert coarse.windows < stream.windows


class TestAccumulators:
    def windows_of(self, records, window_s=10.0):
        w = TumblingWindower(window_s)
        windows, _ = drain(
            w, replay_records(records, watermark_lag_s=1e9)
        )
        return windows

    def test_traffic_accumulator_totals(self):
        records = [rec(0.0, 1.0, src=1, dst=100, num_bytes=500),
                   rec(5.0, 6.0, src=2, dst=100, num_bytes=4000),
                   rec(25.0, 26.0, src=1, dst=101, num_bytes=7000)]
        acc = TrafficAccumulator()
        for win in self.windows_of(records):
            acc.observe_window(win)
        summary = acc.summary("X")
        assert summary.flows == 3
        assert summary.volume_bytes == 11500
        assert summary.num_servers == 2
        assert summary.num_clients == 2
        assert acc.server_ips() == [100, 101]

    def test_video_flow_threshold(self):
        # 1000-byte threshold separates control from video flows.
        records = [rec(0.0, 1.0, num_bytes=999), rec(1.0, 2.0, num_bytes=1000)]
        acc = TrafficAccumulator()
        for win in self.windows_of(records):
            acc.observe_window(win)
        stats = acc._servers[100]
        assert stats.num_flows == 2 and stats.video_flows == 1

    def test_hourly_accumulator_counts_video_flows_per_hour(self):
        records = [rec(10.0, 11.0), rec(3620.0, 3621.0),
                   rec(3630.0, 3631.0, num_bytes=10)]  # control flow
        acc = HourlyShareAccumulator()
        for win in self.windows_of(records, window_s=1800.0):
            acc.observe_window(win)
        assert acc._counts == {100: {0: 1, 1: 1}}

    def test_session_stats_histogram_parity(self):
        records = [rec(float(i), float(i) + 0.1) for i in range(5)]
        sessions = build_sessions(records, gap_s=0.5)
        acc = SessionStatsAccumulator()
        acc.add(sessions)
        assert acc.histogram() == flows_per_session_histogram(sessions)

    def test_empty_histogram_raises(self):
        with pytest.raises(ValueError):
            SessionStatsAccumulator().histogram()


class TestDetectors:
    def windows_of(self, records, window_s=10.0):
        w = TumblingWindower(window_s)
        windows, _ = drain(w, replay_records(records, watermark_lag_s=1e9))
        return windows

    def test_hot_spot_fires_on_spike_not_on_debut(self):
        records = []
        t = 0.0
        for window in range(4):
            for _ in range(2):          # steady baseline
                records.append(rec(t, t + 0.1, video="steady"))
                t += 1.0
            t = (window + 1) * 10.0
        for i in range(20):             # the spike, in window 4
            records.append(rec(40.0 + i * 0.1, 40.5 + i * 0.1, video="steady"))
        detector = HotSpotDetector(min_flows=10, spike_factor=3.0)
        events = []
        for win in self.windows_of(records):
            events.extend(detector.observe_window(win))
        assert [e.video_id for e in events] == ["steady"]
        assert events[0].window_index == 4
        assert events[0].flows == 20
        assert events[0].baseline == pytest.approx(2.0)

    def test_first_appearance_never_spikes(self):
        records = [rec(i * 0.1, i * 0.1 + 0.05, video="debut")
                   for i in range(50)]
        detector = HotSpotDetector(min_flows=10, spike_factor=3.0)
        events = []
        for win in self.windows_of(records, window_s=100.0):
            events.extend(detector.observe_window(win))
        assert events == []

    def test_load_balance_classifies_spread_windows(self):
        concentrated = [rec(1.0, 2.0, dst=100, num_bytes=9000),
                        rec(2.0, 3.0, dst=101, num_bytes=1000)]
        spread = [rec(11.0, 12.0, dst=100, num_bytes=3000),
                  rec(12.0, 13.0, dst=101, num_bytes=3500),
                  rec(13.0, 14.0, dst=102, num_bytes=3500)]
        detector = LoadBalanceDetector(spread_threshold=0.5)
        for win in self.windows_of(concentrated + spread):
            detector.observe_window(win)
        assert len(detector.samples) == 2
        assert detector.samples[0].top_share == pytest.approx(0.9)
        assert detector.samples[1].num_servers == 3
        assert detector.spread_windows == 1
        assert detector.spread_fraction == pytest.approx(0.5)


class TestDisorderInjection:
    @pytest.fixture(autouse=True)
    def clean_degradation(self):
        degradation.reset()
        yield
        clear_current_plan()
        degradation.reset()

    def plan(self, rate=0.4):
        return FaultPlan(seed=3, record_disorder=rate)

    def events(self, n=40):
        records = [rec(float(i), float(i) + 0.5, dst=100 + i % 4)
                   for i in range(n)]
        return records, list(replay_records(records))

    def test_preserves_every_record(self):
        records, events = self.events()
        out = list(inject_disorder(iter(events), self.plan(), "t"))
        arrivals = [e.record for e in out if isinstance(e, FlowArrival)]
        assert Counter(arrivals) == Counter(records)

    def test_actually_reorders(self):
        _, events = self.events()
        out = list(inject_disorder(iter(events), self.plan(), "t"))
        seqs = [e.seq for e in out if isinstance(e, FlowArrival)]
        assert seqs != sorted(seqs)

    def test_is_deterministic(self):
        _, events = self.events()
        first = list(inject_disorder(iter(events), self.plan(), "t"))
        _, events = self.events()
        second = list(inject_disorder(iter(events), self.plan(), "t"))
        assert first == second

    def test_watermarks_stay_monotone_and_safe(self):
        _, events = self.events()
        out = list(inject_disorder(iter(events), self.plan(), "t"))
        watermark = -math.inf
        pending = []
        for event in out:
            if isinstance(event, WatermarkAdvance):
                assert event.t_s >= watermark
                watermark = event.t_s
            else:
                assert event.record.t_start >= watermark or math.isinf(watermark)
        assert math.isinf(watermark)

    def test_windower_absorbs_injected_disorder(self):
        records, events = self.events()
        w = TumblingWindower(7.0)
        _, ordered = drain(w, inject_disorder(iter(events), self.plan(), "t"))
        assert w.late_records == 0
        assert ordered == sorted(records, key=lambda r: (r.t_start, r.t_end))

    def test_degradation_is_recorded(self):
        # record() only tallies while a plan is installed.
        set_current_plan(self.plan())
        _, events = self.events()
        list(inject_disorder(iter(events), self.plan(), "t"))
        report = degradation.collect()
        assert report.stages["stream/source"]["disordered"] > 0

    def test_active_plan_changes_no_bytes_end_to_end(self):
        world = build_world(PAPER_SCENARIOS["EU1-FTTH"], scale=0.004, seed=3,
                            duration_s=86400.0)
        baseline = stream_dataset(world, window_s=3600.0)
        set_current_plan(self.plan(rate=0.2))
        world = build_world(PAPER_SCENARIOS["EU1-FTTH"], scale=0.004, seed=3,
                            duration_s=86400.0)
        disordered = stream_dataset(world, window_s=3600.0)
        assert disordered.digest.hexdigest() == baseline.digest.hexdigest()
        assert disordered.late_records == 0
        assert (disordered.session_stats.histogram()
                == baseline.session_stats.histogram())


class TestCliStream:
    def run(self, *argv):
        out = io.StringIO()
        code = main(list(argv), out=out)
        return code, out.getvalue()

    def test_stream_study_is_byte_identical_at_two_window_sizes(self):
        base_args = ("study", "--scale", "0.004", "--landmarks", "40",
                     "--digests")
        code, batch = self.run(*base_args)
        assert code == 0
        for window in ("3600", "900"):
            code, streamed = self.run(*base_args, "--stream",
                                      "--window-s", window)
            assert code == 0
            assert streamed == batch

    def test_stream_rejects_full_and_validate(self):
        for flag in ("--full", "--validate", "--shared"):
            code, text = self.run("study", "--stream", flag,
                                  "--scale", "0.004", "--landmarks", "40")
            assert code == 2
            assert text == ""

    def test_sessions_stream_is_byte_identical(self, tmp_path, eu1_adsl):
        path = tmp_path / "flows.tsv"
        write_flow_log(eu1_adsl.dataset.records, path)
        args = ("sessions", "--flows", str(path), "--gaps", "1,10,60")
        code, batch = self.run(*args)
        assert code == 0
        code, streamed = self.run(*args, "--stream", "--window-s", "1800")
        assert code == 0
        assert streamed == batch

    def test_sessions_stream_empty_log(self, tmp_path):
        path = tmp_path / "empty.tsv"
        path.write_text("")
        code, text = self.run("sessions", "--flows", str(path), "--stream")
        assert code == 1
        assert "flow log is empty" in text
