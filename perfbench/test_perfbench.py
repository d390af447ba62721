"""Self-test of the benchmark: run with ``python3 -m pytest perfbench -q``.

Every workload runs once at a tiny scale through ``run.main`` and must emit
exactly the metrics ``BENCHMARK.json`` names, with their units.  The
output gate is anchored to the repository's behaviour contract (the golden
digest fixtures under ``tests/golden``, read and never written) and must
count a tampered reference, or a warm report that differs from the cold
one, as a failure rather than pass it.
"""

from __future__ import annotations

import json
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402

GOLDEN = run.ROOT / "tests" / "golden"
TINY = "0.004"


def _golden(name: str) -> dict:
    text = (GOLDEN / name).read_text(encoding="utf-8")
    return {"digests": run.parse_digests(text)}


STUDY_GOLDEN = _golden("study_scale_0.01.digests")
MONITOR_GOLDEN = {**_golden("monitor_0.01.digests"),
                  "alarms": [2, 4, 6], "precision": 1.0, "recall": 1.0}


#: Layers each workload must exercise, and layers it must bypass.
RUNS = {
    "study_cold": ["workload.generate_s", "sim.build_world_s", "sim.process_s",
                   "cdn.handle_request_s", "trace.observe_s", "trace.finish_s",
                   "artifacts.put_bytes", "geoloc.server_map_s", "geoloc.servers",
                   "core.sessions", "core.report_s", "trace.columnar_s", "trace.digest_s"],
    "study_warm": ["artifacts.get_bytes", "artifacts.hit_ratio", "geoloc.calibrate_s",
                   "geoloc.server_map_s", "core.tables_s", "core.sessions_s",
                   "core.report_s", "trace.columnar_s", "trace.digest_s"],
    "monitor_epochs": ["sim.build_world_s", "sim.requests_per_s", "monitor.snapshot_s",
                       "stream.accumulate_s", "monitor.cluster_s", "monitor.detect_s",
                       "exec.task_s", "exec.straggler_s", "exec.dispatch_bytes",
                       "exec.result_bytes"],
}
IDLE = {
    "study_cold": ["monitor.snapshot_s", "exec.task_s"],
    "study_warm": ["workload.requests", "sim.worlds", "cdn.handle_request_s",
                   "monitor.snapshot_s", "exec.task_s"],
    "monitor_epochs": ["geoloc.servers", "core.sessions", "core.report_s"],
}


def _shrink(monkeypatch, scale: str) -> None:
    """Every workload at ``scale``, with one set-up and one measured run."""
    monkeypatch.setattr(run, "WORKLOADS", {
        name: replace(workload, scale=scale, setups=1)
        for name, workload in run.WORKLOADS.items()
    })
    monkeypatch.setattr(run, "MIN_RUNS", 1)


def _pin(monkeypatch, tmp_path, scale: str, pins: dict) -> None:
    """Gate seed 7 at ``scale`` against ``pins`` (kind -> reference)."""
    path = tmp_path / "reference.json"
    path.write_text(json.dumps({
        f"{kind} scale={scale} seed=7": reference for kind, reference in pins.items()
    }), encoding="utf-8")
    monkeypatch.setattr(run, "REFERENCE_PATH", path)
    _shrink(monkeypatch, scale)


def _bench(capsys, *args: str):
    """``run.py`` in-process: its exit code, last JSON line, stdout and stderr."""
    code = run.main(list(args))
    out, err = capsys.readouterr()
    return code, json.loads(out.strip().splitlines()[-1]), out, err


def test_spec_workloads_are_the_harness_workloads():
    assert [w["name"] for w in run.SPEC["workloads"]] == list(run.WORKLOADS)
    setup = next(m for m in run.SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in run.SPEC["end_to_end"])


def test_child_env_drops_every_inherited_repro_setting(monkeypatch, tmp_path):
    for name in ("REPRO_EXECUTOR", "REPRO_KERNELS", "REPRO_FAULTS", "REPRO_TRACE_DIR",
                 "REPRO_STREAM_STATS", "REPRO_SHARD_STATS", "REPRO_CODE_VERSION"):
        monkeypatch.setenv(name, "x")
    env = run.child_env(tmp_path)
    assert sorted(k for k in env if k.startswith("REPRO_")) == [
        "REPRO_CACHE_DIR", "REPRO_TRACE"]
    assert env["REPRO_CACHE_DIR"] == str(tmp_path)
    assert env["REPRO_TRACE"] == "off"


@pytest.mark.parametrize("workload", list(run.WORKLOADS))
def test_each_workload_emits_every_metric_with_its_unit(workload, tmp_path, monkeypatch,
                                                        capsys):
    _shrink(monkeypatch, TINY)
    records = tmp_path / "records.jsonl"
    foreign_store = tmp_path / "foreign-store"
    monkeypatch.setenv("REPRO_EXECUTOR", "thread")
    monkeypatch.setenv("REPRO_KERNELS", "python")
    monkeypatch.setenv("REPRO_FAULTS", '{"probe_loss": 0.3}')
    monkeypatch.setenv("REPRO_CACHE_DIR", str(foreign_store))
    for trace, names in ((0, run.END_TO_END), (1, run.PER_LAYER)):
        # Seed 3 has no pinned reference: study_warm is held to a cold run.
        code, result, out, err = _bench(
            capsys, "--workload", workload, "--seed", "3", "--seconds", "0",
            "--trace", str(trace), "--out", str(records))
        assert code == 0, err
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True and result["failed"] == 0
        assert result["metrics"] == {
            name: {"value": result["metrics"][name]["value"], "unit": unit}
            for name, unit in names.items()
        }
        for line in out.splitlines()[:-1]:
            if line.strip().startswith("error_ratio"):
                assert "0 failed of" in line
    assert not foreign_store.exists()
    layers = {name: value["value"] for name, value in result["metrics"].items()}
    assert all(layers[name] > 0 for name in RUNS[workload]), layers
    assert all(layers[name] == 0 for name in IDLE[workload]), layers
    assert run.main(["--compare", str(records), str(records)]) == 0
    assert f"{workload:<15} wall_s" in capsys.readouterr().out


@pytest.mark.parametrize("workload", list(run.WORKLOADS))
def test_gate_reproduces_the_golden_digests(workload, tmp_path, monkeypatch):
    _pin(monkeypatch, tmp_path, "0.01", {"study": STUDY_GOLDEN, "monitor": MONITOR_GOLDEN})
    record = run.run_workload(workload, seed=7, seconds=0, trace=False)
    assert record["failures"] == []
    assert record["result"]["correct"] is True


def test_tampered_reference_fails_and_is_counted(tmp_path, monkeypatch, capsys):
    digests = dict(STUDY_GOLDEN["digests"])
    name = sorted(digests)[0]
    digests[name] = ("0" if digests[name][0] != "0" else "1") + digests[name][1:]
    _pin(monkeypatch, tmp_path, "0.01", {"study": {"digests": digests}})
    code, result, _, err = _bench(capsys, "--workload", "study_cold", "--seed", "7",
                                  "--seconds", "0", "--trace", "0")
    assert code == 1
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] >= 1
    assert name in err


def test_warm_report_that_differs_from_the_cold_report_fails(monkeypatch, capsys):
    _shrink(monkeypatch, TINY)
    cold_reference = run.Run.cold_reference

    def other_report(self):
        reference = cold_reference(self)
        return {**reference, "stdout_sha256": "0" * 64}

    monkeypatch.setattr(run.Run, "cold_reference", other_report)
    code, result, _, err = _bench(capsys, "--workload", "study_warm", "--seed", "3",
                                  "--seconds", "0", "--trace", "0")
    assert code == 1
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] >= 1
    assert "report bytes differ from the reference" in err


def test_refuses_to_run_without_the_program(tmp_path):
    bare = tmp_path / "bare"
    (bare / "perfbench").mkdir(parents=True)
    for path in BENCH_DIR.glob("*.py"):
        (bare / "perfbench" / path.name).write_bytes(path.read_bytes())
    (bare / "perfbench" / "reference.json").write_bytes(run.REFERENCE_PATH.read_bytes())
    (bare / "BENCHMARK.json").write_bytes(run.SPEC_PATH.read_bytes())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "study_cold", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
