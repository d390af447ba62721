"""Tests for the command-line interface."""

import io
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import build_parser, main


def run_cli(*argv):
    out = io.StringIO()
    code = main(list(argv), out=out)
    return code, out.getvalue()


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])

    def test_simulate_requires_dataset(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["simulate", "--out", "x.tsv"])

    def test_dataset_choices_enforced(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["simulate", "--dataset", "Mars", "--out", "x.tsv"]
            )


class TestSimulateAndSessions:
    def test_roundtrip(self, tmp_path):
        log = tmp_path / "flows.tsv"
        code, text = run_cli(
            "simulate", "--dataset", "EU1-FTTH", "--scale", "0.003",
            "--seed", "9", "--out", str(log),
        )
        assert code == 0
        assert "wrote" in text
        assert log.exists()

        code, text = run_cli("sessions", "--flows", str(log), "--gaps", "1,300")
        assert code == 0
        assert "T=   1.0s" in text
        assert "T= 300.0s" in text

    def test_sessions_empty_log(self, tmp_path):
        log = tmp_path / "empty.tsv"
        log.write_text("#src\n")
        code, text = run_cli("sessions", "--flows", str(log))
        assert code == 1

    def test_simulate_proportional_policy(self, tmp_path):
        log = tmp_path / "old.tsv"
        code, _ = run_cli(
            "simulate", "--dataset", "EU1-FTTH", "--scale", "0.003",
            "--policy", "proportional", "--out", str(log),
        )
        assert code == 0


class TestAnonymize:
    def test_anonymize_roundtrip(self, tmp_path):
        log = tmp_path / "flows.tsv"
        code, _ = run_cli(
            "simulate", "--dataset", "EU1-FTTH", "--scale", "0.003",
            "--seed", "9", "--out", str(log),
        )
        assert code == 0
        out_log = tmp_path / "anon.tsv"
        code, text = run_cli(
            "anonymize", "--flows", str(log), "--out", str(out_log),
            "--key", "secret",
        )
        assert code == 0
        assert "anonymised" in text
        from repro.trace import read_flow_log

        original = read_flow_log(log)
        anonymised = read_flow_log(out_log)
        assert len(original) == len(anonymised)
        assert {r.src_ip for r in original} != {r.src_ip for r in anonymised}
        # Metrics untouched.
        assert [r.num_bytes for r in original] == [r.num_bytes for r in anonymised]


class TestComposite:
    def test_study_summary(self):
        code, text = run_cli("study", "--scale", "0.004", "--landmarks", "40")
        assert code == 0
        assert "TABLE I" in text and "TABLE III" in text
        assert "preferred=" in text

    def test_study_full_report(self):
        code, text = run_cli(
            "study", "--scale", "0.004", "--landmarks", "40", "--full"
        )
        assert code == 0
        assert "FULL REPORT" in text
        assert "Hot spots and cold content" in text

    def test_study_with_validation(self):
        code, text = run_cli(
            "study", "--scale", "0.004", "--landmarks", "40", "--validate"
        )
        assert code == 0
        assert "METHODOLOGY VALIDATION" in text

    def test_coldvideo(self):
        code, text = run_cli("coldvideo", "--nodes", "12", "--samples", "4",
                             "--seed", "5")
        assert code == 0
        assert "ratio>1.2" in text

    def test_sweep(self):
        code, text = run_cli(
            "sweep", "--dataset", "EU1-FTTH",
            "--parameter", "spill_probability",
            "--values", "0.0,0.1",
            "--metrics", "preferred_share",
            "--scale", "0.004",
        )
        assert code == 0
        lines = [l for l in text.splitlines() if l.strip()]
        assert len(lines) == 3  # header + two grid points
        first = float(lines[1].split()[-1])
        second = float(lines[2].split()[-1])
        assert first > second  # spill lowers the preferred share

    def test_sweep_bad_parameter(self):
        with pytest.raises(ValueError):
            run_cli(
                "sweep", "--dataset", "EU1-FTTH",
                "--parameter", "warp_factor", "--values", "1",
            )

    def test_whatif_named_variants(self):
        code, text = run_cli(
            "whatif", "--dataset", "EU1-FTTH", "--scale", "0.004",
            "--variants", "old-policy",
        )
        assert code == 0
        assert "baseline" in text
        assert "old-policy" in text


class TestGridCommand:
    def test_plan_lists_points_and_warmth(self):
        code, text = run_cli(
            "grid", "plan", "--base", "EU1-FTTH",
            "--axis", "policy=preferred,geographic",
            "--axis", "zipf_alpha=0.8,1.0",
            "--filter", "policy=geographic,zipf_alpha=1.0",
            "--scale", "0.004",
        )
        assert code == 0
        assert "points=3" in text
        assert "policy=geographic,zipf_alpha=1.0" not in text
        assert text.count("cold") == 4  # the header count + three points

    def test_plan_json_and_out_round_trip(self, tmp_path):
        import json

        grid_file = tmp_path / "grid.json"
        code, text = run_cli(
            "grid", "plan", "--base", "EU2",
            "--axis", "policy=preferred,proportional",
            "--out", str(grid_file), "--json",
        )
        assert code == 0
        document = json.loads(text)
        assert document["base"] == "EU2"
        assert [p["label"] for p in document["points"]] == [
            "policy=preferred", "policy=proportional",
        ]
        # The written grid file reloads into the identical plan.
        code, text = run_cli("grid", "plan", "--grid", str(grid_file), "--json")
        assert code == 0
        assert json.loads(text) == document

    def test_run_prints_metric_table(self):
        code, text = run_cli(
            "grid", "run", "--base", "EU1-FTTH",
            "--axis", "spill_probability=0.0,0.1",
            "--metrics", "preferred_share",
            "--scale", "0.004",
        )
        assert code == 0
        lines = [l for l in text.splitlines() if l.strip()]
        assert lines[0].split() == ["point", "preferred_share"]
        assert lines[-1].startswith("grid: 2 points")
        first = float(lines[1].split()[-1])
        second = float(lines[2].split()[-1])
        assert first > second  # spill lowers the preferred share

    def test_diff_reports_added_points(self, tmp_path):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        run_cli("grid", "plan", "--base", "EU1-FTTH",
                "--axis", "policy=preferred", "--out", str(a), "--scale", "0.004")
        run_cli("grid", "plan", "--base", "EU1-FTTH",
                "--axis", "policy=preferred,geographic", "--out", str(b),
                "--scale", "0.004")
        code, text = run_cli("grid", "diff", str(a), str(b))
        assert code == 0
        assert "added policy=geographic" in text
        assert "common 1 points" in text

    def test_unknown_base_exits_2(self, capsys):
        code, text = run_cli("grid", "plan", "--base", "Mars",
                             "--axis", "policy=preferred")
        assert code == 2
        assert "Mars" in capsys.readouterr().err

    def test_bad_axis_clause_exits_2(self, capsys):
        code, _ = run_cli("grid", "plan", "--axis", "policy")
        assert code == 2
        assert "NAME=V1,V2" in capsys.readouterr().err

    def test_grid_file_conflicts_with_inline_shape(self, tmp_path, capsys):
        grid_file = tmp_path / "grid.json"
        grid_file.write_text('{"base": "EU2", "axes": []}')
        code, _ = run_cli("grid", "plan", "--grid", str(grid_file),
                          "--axis", "policy=preferred")
        assert code == 2
        assert "--grid" in capsys.readouterr().err


class TestStudyStreamGating:
    @pytest.mark.parametrize("flags,expected", [
        (["--full"], "repro study --full"),
        (["--shared"], "repro study --shared"),
        (["--validate"], "repro study --validate"),
        (["--full", "--validate"], "repro study --full --validate"),
    ])
    def test_stream_rejects_batch_only_flags(self, flags, expected, capsys):
        code, text = run_cli("study", "--stream", "--scale", "0.004", *flags)
        assert code == 2
        assert text == ""  # the error goes to stderr, not the report stream
        error = capsys.readouterr().err
        for flag in flags:
            assert flag in error
        assert expected in error  # names the exact batch equivalent


_GOOD = "10.0.0.1\t10.1.0.1\t5000\t{t0}\t{t1}\tAAAAAAAAAAA\t360p\n"

#: Hostile logs: each is a valid log except for line 3.
_HOSTILE = {
    "nan_timestamp": "#h\n" + _GOOD.format(t0=1.0, t1=2.0)
    + _GOOD.format(t0="nan", t1=3.0) + _GOOD.format(t0=4.0, t1=5.0),
    "inf_timestamp": "#h\n" + _GOOD.format(t0=1.0, t1=2.0)
    + _GOOD.format(t0=3.0, t1="inf") + _GOOD.format(t0=4.0, t1=5.0),
    "garbage": "#h\n" + _GOOD.format(t0=1.0, t1=2.0)
    + "not a flow\n" + _GOOD.format(t0=4.0, t1=5.0),
    "huge_timestamp": "#h\n" + _GOOD.format(t0=1.0, t1=2.0)
    + _GOOD.format(t0=1e300, t1=1e300) + _GOOD.format(t0=4.0, t1=5.0),
    "huge_bytes": "#h\n" + _GOOD.format(t0=1.0, t1=2.0)
    + _GOOD.format(t0=3.0, t1=3.5).replace("\t5000\t", f"\t{10**23}\t")
    + _GOOD.format(t0=4.0, t1=5.0),
}


def _sessions_subprocess(log, kernels, *extra):
    env = dict(os.environ, REPRO_KERNELS=kernels, REPRO_CACHE="off")
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run(
        [sys.executable, "-m", "repro", "sessions", "--flows", str(log),
         "--gaps", "1,300", *extra],
        capture_output=True, text=True, env=env, timeout=120,
    )


class TestHostileFlowLogs:
    """A hostile value is a malformed line under both kernel backends."""

    @pytest.mark.parametrize("kernels", ["numpy", "python"])
    @pytest.mark.parametrize("case", sorted(_HOSTILE))
    def test_rejected_with_exit_2(self, tmp_path, case, kernels):
        log = tmp_path / f"{case}.tsv"
        log.write_text(_HOSTILE[case])
        proc = _sessions_subprocess(log, kernels)
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert "RuntimeWarning" not in proc.stderr
        assert f"{case}.tsv: line 3:" in proc.stderr
        assert proc.stdout == ""

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("stream", [False, True])
    @pytest.mark.parametrize("case", sorted(_HOSTILE))
    def test_skip_counts_the_line(self, tmp_path, case, stream):
        log = tmp_path / f"{case}.tsv"
        log.write_text(_HOSTILE[case])
        extra = ["--on-error", "skip"] + (["--stream"] if stream else [])
        code, text = run_cli("sessions", "--flows", str(log), "--gaps", "1,300", *extra)
        assert code == 0
        assert text.splitlines()[0] == "2 flows"

    def test_skip_reports_on_stderr(self, tmp_path, capsys):
        log = tmp_path / "nan.tsv"
        log.write_text(_HOSTILE["nan_timestamp"])
        code, _ = run_cli("sessions", "--flows", str(log), "--on-error", "skip")
        assert code == 0
        assert "skipped 1 malformed line(s)" in capsys.readouterr().err

    def test_backends_agree_once_skipped(self, tmp_path):
        log = tmp_path / "nan.tsv"
        log.write_text(_HOSTILE["nan_timestamp"])
        outputs = {
            kernels: _sessions_subprocess(log, kernels, "--on-error", "skip")
            for kernels in ("numpy", "python")
        }
        assert all(proc.returncode == 0 for proc in outputs.values())
        assert outputs["numpy"].stdout == outputs["python"].stdout
        assert "skipped 1 malformed line(s)" in outputs["numpy"].stderr
