"""Tests for external flow-log import."""

import pytest

from repro.trace.adapters import (
    ColumnMapping,
    TSTAT_TCP_COMPLETE_EXAMPLE,
    import_flow_log,
)


def write_log(tmp_path, lines, name="external.log"):
    path = tmp_path / name
    path.write_text("\n".join(lines) + "\n")
    return path


SIMPLE = ColumnMapping(
    src_ip=0, dst_ip=1, num_bytes=2, t_start=3, t_end=4, video_id=5, resolution=6
)


class TestImport:
    def test_basic_import(self, tmp_path):
        path = write_log(tmp_path, [
            "# a comment",
            "10.0.0.1 173.194.0.5 50000 100.0 110.0 AAAAAAAAAAA 360p",
            "10.0.0.2 173.194.0.6 900 105.0 105.2 BBBBBBBBBBB 240p",
        ])
        result = import_flow_log(path, SIMPLE)
        assert result.parsed_lines == 2
        assert result.skipped_lines == 0
        first = result.records[0]
        assert first.num_bytes == 50000
        assert first.t_start == pytest.approx(0.0)   # t_zero auto-detected
        assert first.t_end == pytest.approx(10.0)
        assert result.records[1].t_start == pytest.approx(5.0)

    def test_malformed_lines_counted_not_fatal(self, tmp_path):
        path = write_log(tmp_path, [
            "10.0.0.1 173.194.0.5 50000 100.0 110.0 AAAAAAAAAAA 360p",
            "totally broken line",
            "10.0.0.1 nonsense 50000 100.0 110.0 AAAAAAAAAAA 360p",
            "10.0.0.1 173.194.0.5 50000 110.0 100.0 AAAAAAAAAAA 360p",  # ends early
        ])
        result = import_flow_log(path, SIMPLE)
        assert result.parsed_lines == 1
        assert result.skipped_lines == 3
        assert result.skip_fraction == pytest.approx(0.75)

    def test_hostile_values_counted_not_fatal(self, tmp_path):
        path = write_log(tmp_path, [
            "10.0.0.1 173.194.0.5 50000 100.0 110.0 AAAAAAAAAAA 360p",
            "10.0.0.1 173.194.0.5 inf 100.0 110.0 AAAAAAAAAAA 360p",
            "10.0.0.1 173.194.0.5 1e30 100.0 110.0 AAAAAAAAAAA 360p",
            "10.0.0.1 173.194.0.5 50000 100.0 nan AAAAAAAAAAA 360p",
            "10.0.0.1 173.194.0.5 50000 100.0 inf AAAAAAAAAAA 360p",
        ])
        result = import_flow_log(path, SIMPLE)
        assert result.parsed_lines == 1
        assert result.skipped_lines == 4

    def test_duration_based_mapping(self, tmp_path):
        mapping = ColumnMapping(
            src_ip=0, dst_ip=1, num_bytes=2, t_start=3, duration=4
        )
        path = write_log(tmp_path, ["10.0.0.1 10.0.0.2 5000 50.0 2.5"])
        result = import_flow_log(path, mapping)
        record = result.records[0]
        assert record.t_end - record.t_start == pytest.approx(2.5)
        assert record.video_id == "-" * 11   # placeholder
        assert record.resolution == "?"

    def test_millisecond_times(self, tmp_path):
        mapping = ColumnMapping(
            src_ip=0, dst_ip=1, num_bytes=2, t_start=3, t_end=4,
            time_unit_s=0.001,
        )
        path = write_log(tmp_path, [
            "10.0.0.1 10.0.0.2 5000 1600000000000 1600000005000",
        ])
        record = import_flow_log(path, mapping).records[0]
        assert record.duration_s == pytest.approx(5.0)

    def test_explicit_t_zero(self, tmp_path):
        mapping = ColumnMapping(
            src_ip=0, dst_ip=1, num_bytes=2, t_start=3, t_end=4, t_zero=90.0
        )
        path = write_log(tmp_path, ["10.0.0.1 10.0.0.2 5000 100.0 101.0"])
        record = import_flow_log(path, mapping).records[0]
        assert record.t_start == pytest.approx(10.0)

    def test_custom_delimiter(self, tmp_path):
        mapping = ColumnMapping(
            src_ip=0, dst_ip=1, num_bytes=2, t_start=3, t_end=4, delimiter=","
        )
        path = write_log(tmp_path, ["10.0.0.1,10.0.0.2,5000,1.0,2.0"])
        assert import_flow_log(path, mapping).parsed_lines == 1

    def test_records_sorted(self, tmp_path):
        path = write_log(tmp_path, [
            "10.0.0.1 10.0.0.2 5000 200.0 201.0 AAAAAAAAAAA 360p",
            "10.0.0.1 10.0.0.2 5000 100.0 101.0 AAAAAAAAAAA 360p",
        ])
        result = import_flow_log(path, SIMPLE)
        starts = [r.t_start for r in result.records]
        assert starts == sorted(starts)

    def test_mapping_validation(self):
        with pytest.raises(ValueError):
            ColumnMapping(src_ip=0, dst_ip=1, num_bytes=2, t_start=3)
        with pytest.raises(ValueError):
            ColumnMapping(src_ip=0, dst_ip=1, num_bytes=2, t_start=3,
                          t_end=4, time_unit_s=0.0)

    def test_tstat_example_mapping_shape(self, tmp_path):
        # 30 columns of a synthetic tcp_complete-like line.
        fields = ["0"] * 30
        fields[0] = "151.52.1.10"
        fields[14] = "173.194.7.7"
        fields[21] = "123456"
        fields[28] = "1283553000000"   # ms
        fields[29] = "1283553008000"
        path = write_log(tmp_path, [" ".join(fields)])
        result = import_flow_log(path, TSTAT_TCP_COMPLETE_EXAMPLE)
        record = result.records[0]
        assert record.num_bytes == 123456
        assert record.duration_s == pytest.approx(8.0)

    def test_analyses_run_on_imported_records(self, tmp_path):
        from repro.core.flows import classify_flows

        path = write_log(tmp_path, [
            "10.0.0.1 173.194.0.5 500 1.0 1.1 AAAAAAAAAAA 360p",
            "10.0.0.1 173.194.0.5 5000000 1.3 9.0 AAAAAAAAAAA 360p",
        ])
        records = import_flow_log(path, SIMPLE).records
        classes = classify_flows(records)
        assert len(classes.control) == 1
        assert len(classes.video) == 1
