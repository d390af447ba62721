"""The repro benchmark: closed-loop ``python -m repro`` runs with an output gate.

Usage (from the repository root)::

    python3 perfbench/run.py --workload study_cold --seed 7 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all            # every workload in turn
    python3 perfbench/run.py --compare A.jsonl B.jsonl # two --out record files

Workloads (closed loops of one: each run starts after the previous one
exited, in a fresh subprocess with its own private ``REPRO_CACHE_DIR``):

* ``study_cold``     -- ``repro study --full --digests`` from an empty store:
  simulator, trace assembly and artifact *writes*, then the analysis.
* ``study_warm``     -- the same command over a store that already holds the
  five ``sim/run_week`` weeks and no ``cli/study`` report: artifact *reads*,
  geolocation, analysis and digests; the simulator is bypassed.
* ``monitor_epochs`` -- ``repro monitor --epochs 8 --digests`` fanned out
  over two worker processes: eight one-day worlds through the streaming
  sink; the only workload where world building and fan-out weigh much.

Each run prints human-readable lines, then as its last line one JSON
object: ``correct``/``attempted``/``failed`` and the end-to-end metrics
(``--trace 0``) or the per-layer metrics of one extra traced run
(``--trace 1``, timed from outside the program by ``tracer.py``).  A run
whose output fails the gate is counted as failed and the command exits 1.
The gate holds each run to the pinned seed-7 outputs in ``reference.json``;
for any other seed, ``study_warm`` is held to the report of one
``study_cold`` run made before it measures.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import re
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
SPEC_PATH = ROOT / "BENCHMARK.json"
REFERENCE_PATH = BENCH_DIR / "reference.json"
#: Scratch space for stores and child output, inside the checkout.
WORK_ROOT = ROOT / ".perfbench_work"

#: Closed-loop runs per measurement, however long they take.
MIN_RUNS = 3
#: A child still running after this long is killed and counted as failed.
CHILD_TIMEOUT_S = 150.0

COMPILE_PACKAGE = """
import compileall, sys
compileall.compile_dir(sys.argv[1], quiet=1)
import repro.cli
"""

#: Fills a store with the study's five simulated weeks (``sim/run_week``)
#: and reports their digests plus where a ``cli/study`` report would live.
#: The key mirrors ``repro study --full`` at its defaults; the gate also
#: checks that the warm run *writes* that object, so a drifted key fails.
FILL_STORE = """
import json, sys
from repro.artifacts.keys import stage_key
from repro.artifacts.store import default_store
from repro.sim.driver import run_all
scale, seed = float(sys.argv[1]), int(sys.argv[2])
results = run_all(scale=scale, seed=seed)
store = default_store()
key = stage_key("cli/study", {
    "scale": scale, "seed": seed, "landmarks": 120, "policy": "preferred",
    "shared": False, "full": True, "validate": False,
})
print(json.dumps({
    "digests": {name: r.dataset.content_digest() for name, r in results.items()},
    "study_object": str(store.object_path(key).relative_to(store.root)),
}))
"""


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: a ``repro`` command and its starting store."""

    name: str
    kind: str  # "study" or "monitor": which output gate applies
    warm: bool  # start from a filled ``sim/run_week`` store
    scale: str
    setups: int  # set-ups per run; ``setup_s`` is their median

    def argv(self, scale: str, seed: int) -> List[str]:
        if self.kind == "study":
            args = ["study", "--scale", scale, "--full", "--digests"]
        else:
            args = ["monitor", "--epochs", "8", "--scale", scale, "--digests",
                    "--parallel", "process", "--workers", "2"]
        return args + ["--seed", str(seed)]


# Scales are cut down from the ROADMAP's 0.1 so that every workload fits
# several closed-loop runs into one measurement; the monitor keeps 0.1
# because its eight one-day worlds are already short.
WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("study_cold", "study", False, "0.02", setups=5),
        Workload("study_warm", "study", True, "0.02", setups=3),
        Workload("monitor_epochs", "monitor", False, "0.1", setups=5),
    )
}

SPEC = json.loads(SPEC_PATH.read_text(encoding="utf-8"))
#: End-to-end metrics: name -> unit.  ``error_ratio`` is printed but not
#: part of the JSON result, whose ``failed``/``attempted`` carry it.
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
#: Per-layer metrics of the traced run: name -> unit.
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}


class SetupError(RuntimeError):
    """The workload's starting state could not be prepared."""


# ------------------------------------------------------------------ children


def child_env(store: Path) -> Dict[str, str]:
    """The environment of every child: no inherited ``REPRO_*`` setting."""
    env = {
        key: value for key, value in os.environ.items()
        if not key.startswith("REPRO_") and key != "PYTHONPATH"
    }
    env.update(PYTHONPATH=str(SRC), REPRO_TRACE="off", REPRO_CACHE_DIR=str(store))
    return env


@dataclass
class Launch:
    """One finished child process tree."""

    returncode: int
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    stdout: str
    stderr: str


def launch(cmd: Sequence[str], env: Dict[str, str], cwd: Path) -> Launch:
    """Run ``cmd`` to completion and account for its whole process tree.

    ``os.wait4`` returns the child's resource usage including every
    descendant it waited for (its pool workers), like
    ``getrusage(RUSAGE_CHILDREN)`` taken around the child, but with a
    ``ru_maxrss`` of this child tree alone rather than a running maximum.
    """
    cwd.mkdir(parents=True, exist_ok=True)
    out_path, err_path = cwd / "stdout.txt", cwd / "stderr.txt"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            list(cmd), env=env, cwd=cwd, stdout=out, stderr=err,
            stdin=subprocess.DEVNULL, start_new_session=True,
        )
        timer = threading.Timer(CHILD_TIMEOUT_S, _kill_group, (proc.pid,))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall_s = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    _kill_group(proc.pid)  # nothing of the tree may outlive the run
    return Launch(
        returncode=proc.returncode,
        wall_s=wall_s,
        cpu_s=usage.ru_utime + usage.ru_stime,
        peak_rss_mb=usage.ru_maxrss / 1024.0,
        stdout=out_path.read_text(encoding="utf-8", errors="replace"),
        stderr=err_path.read_text(encoding="utf-8", errors="replace"),
    )


def _kill_group(pgid: int) -> None:
    try:
        os.killpg(pgid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass


# ---------------------------------------------------------------- output gate

_DIGEST = re.compile(r"^digest (\S+) ([0-9a-f]{64})$", re.MULTILINE)


def parse_digests(stdout: str) -> Dict[str, str]:
    return dict(_DIGEST.findall(stdout))


def count_flows(kind: str, stdout: str) -> int:
    """Flows the run simulated or analysed, read off its own report."""
    if kind == "study":
        # Table I rows: dataset, YouTube flows, volume, #servers, #clients.
        table = stdout.split("TABLE I ", 1)[1].split("\n\n", 1)[0]
        rows = re.findall(r"^\s*\S+\s+(\d+)\s+[\d.]+\s+\d+\s+\d+\s*$", table, re.MULTILINE)
    else:
        # Timeline rows: epoch, flows, clouds, ...
        rows = re.findall(r"^\s+\d+\s+(\d+)\s+\d+\s+[\d.]+\s", stdout, re.MULTILINE)
    return sum(int(flows) for flows in rows)


def gate(kind: str, stdout: str, reference: Optional[dict]) -> List[str]:
    """Why ``stdout`` fails the workload's reference (empty when it passes)."""
    errors = []
    digests = parse_digests(stdout)
    expected_count = 5 if kind == "study" else 8
    if len(digests) != expected_count:
        errors.append(f"{len(digests)} digest lines, expected {expected_count}")
    try:
        if count_flows(kind, stdout) <= 0:
            errors.append("no flows in the report")
    except IndexError:
        errors.append("no Table I in the report")
    if reference is None:
        return errors
    if digests != reference["digests"]:
        wrong = sorted(
            name for name in set(digests) | set(reference["digests"])
            if digests.get(name) != reference["digests"].get(name)
        )
        errors.append(f"digests differ from the reference: {', '.join(wrong)}")
    if "stdout_sha256" in reference:
        if hashlib.sha256(stdout.encode()).hexdigest() != reference["stdout_sha256"]:
            errors.append("report bytes differ from the reference")
    if "alarms" in reference:
        match = re.search(r"^alarms at epochs: (.*)$", stdout, re.MULTILINE)
        alarms = [int(e) for e in re.findall(r"\d+", match.group(1))] if match else None
        if alarms != reference["alarms"]:
            errors.append(f"alarms {alarms}, expected {reference['alarms']}")
        score = re.search(r"^precision (\S+)\s+recall (\S+)", stdout, re.MULTILINE)
        pr = (float(score.group(1)), float(score.group(2))) if score else None
        if pr != (reference["precision"], reference["recall"]):
            errors.append(f"precision/recall {pr}, expected "
                          f"{(reference['precision'], reference['recall'])}")
    return errors


def pinned_reference(kind: str, scale: str, seed: int) -> Optional[dict]:
    """The committed reference for this output, if one is pinned."""
    pinned = json.loads(REFERENCE_PATH.read_text(encoding="utf-8"))
    return pinned.get(f"{kind} scale={scale} seed={seed}")


# -------------------------------------------------------------------- running


def quartiles(values: Sequence[float]) -> Dict[str, float]:
    """Median, first and third quartile and count of ``values``."""
    values = list(values)
    if len(values) == 1:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


class Run:
    """One benchmark run of one workload in a private scratch directory."""

    def __init__(self, workload: Workload, seed: int, tmp: Path):
        self.workload = workload
        self.seed = seed
        self.scale = workload.scale
        self.reference = pinned_reference(workload.kind, self.scale, seed)
        self.tmp = tmp
        self.argv = workload.argv(self.scale, seed)
        self.template: Optional[Path] = None
        self.sim_digests: Optional[Dict[str, str]] = None
        self.study_object: Optional[str] = None
        self.first_stdout: Optional[str] = None
        self.failures: List[str] = []
        self.attempted = 0

    # -- set-up

    def setup(self, index: int) -> float:
        """Prepare a starting state; returns its duration in seconds."""
        where = self.tmp / f"setup{index}"
        store = where / "store"
        start = time.perf_counter()
        store.mkdir(parents=True)
        # Byte-compiling and paging in the package is set-up: otherwise the
        # first timed run pays it for the modules it imports lazily.
        result = launch([sys.executable, "-c", COMPILE_PACKAGE, str(SRC / "repro")],
                        child_env(store), where / "compile")
        if result.returncode == 0 and self.workload.warm:
            result = launch([sys.executable, "-c", FILL_STORE, self.scale, str(self.seed)],
                            child_env(store), where / "fill")
        elapsed = time.perf_counter() - start
        if result.returncode != 0:
            raise SetupError(f"set-up exited {result.returncode}: {result.stderr[-2000:]}")
        if self.workload.warm:
            filled = json.loads(result.stdout.strip().splitlines()[-1])
            if self.sim_digests is not None and filled["digests"] != self.sim_digests:
                raise SetupError("two set-ups simulated different weeks")
            self.sim_digests = filled["digests"]
            self.study_object = filled["study_object"]
            if (store / self.study_object).exists():
                raise SetupError("the warm store already holds a cli/study report")
            if self.template is not None:
                shutil.rmtree(self.template.parent)
            self.template = store
        return elapsed

    def cold_reference(self) -> dict:
        """The report of one cold run of the same command, from an empty store.

        A warm run without a pinned reference must print exactly what the
        cold study prints: same digests, same report bytes.
        """
        where = self.tmp / "cold"
        (where / "store").mkdir(parents=True)
        result = launch([sys.executable, "-m", "repro", *self.argv],
                        child_env(where / "store"), where)
        errors = gate(self.workload.kind, result.stdout, None)
        if result.returncode != 0 or errors:
            raise SetupError(f"cold reference run exited {result.returncode}, "
                             f"{'; '.join(errors)}: {result.stderr[-2000:]}")
        shutil.rmtree(where)
        return {
            "digests": parse_digests(result.stdout),
            "stdout_sha256": hashlib.sha256(result.stdout.encode()).hexdigest(),
        }

    def fresh_store(self, where: Path) -> Path:
        store = where / "store"
        if self.template is None:
            store.mkdir(parents=True)
        else:
            shutil.copytree(self.template, store)
        return store

    # -- runs

    def check(self, result: Launch, store: Path) -> List[str]:
        errors = []
        if result.returncode != 0:
            errors.append(f"exit code {result.returncode}")
        if "Traceback (most recent call last)" in result.stderr:
            errors.append("traceback on stderr")
        errors += gate(self.workload.kind, result.stdout, self.reference)
        if self.first_stdout is None:
            self.first_stdout = result.stdout
        elif result.stdout != self.first_stdout:
            errors.append("output differs from this run's first output")
        if self.sim_digests is not None:
            if parse_digests(result.stdout) != self.sim_digests:
                errors.append("warm digests differ from the freshly simulated weeks")
            if not (store / self.study_object).exists():
                errors.append("warm run wrote no cli/study report at the expected key")
        return errors

    def iterate(self, index: int, traced: Optional[Path] = None) -> Launch:
        where = self.tmp / f"run{index}"
        store = self.fresh_store(where)
        env = child_env(store)
        if traced is None:
            cmd = [sys.executable, "-m", "repro", *self.argv]
        else:
            cmd = [sys.executable, str(BENCH_DIR / "tracer.py"), str(traced), "--", *self.argv]
            env["PERFBENCH_LAUNCH_T"] = repr(time.time())
        result = launch(cmd, env, where)
        self.attempted += 1
        errors = self.check(result, store)
        if errors:
            self.failures.append(f"run {index}: " + "; ".join(errors))
            print(f"FAIL {self.workload.name} run {index}: {'; '.join(errors)}",
                  file=sys.stderr)
        shutil.rmtree(where)
        return result


def layer_metrics(trace: dict, traced_wall: float, untraced_wall: float) -> Dict[str, float]:
    """The per-layer metrics of one traced run (see ``tracer.py``)."""
    parent, workers = trace["parent"], trace["workers"]

    def total(block: str, name: str) -> float:
        return parent[block].get(name, 0.0) + workers[block].get(name, 0.0)

    metrics = {}
    for name in PER_LAYER:
        layer = name[:-2] if name.endswith("_s") else None
        if layer is not None and (layer in parent["self_s"] or layer in workers["self_s"]):
            metrics[name] = total("self_s", layer)
        else:
            metrics[name] = total("counts", name)
    process_s = total("incl_s", "sim.process")
    metrics["sim.requests_per_s"] = (
        total("counts", "sim.requests") / process_s if process_s else 0.0
    )
    gets = total("counts", "artifacts.gets")
    metrics["artifacts.hit_ratio"] = total("counts", "artifacts.hits") / gets if gets else 0.0
    metrics["bench.import_s"] = trace["import_s"]
    metrics["bench.unattributed_s"] = (
        traced_wall - trace["import_s"] - sum(parent["self_s"].values())
    )
    metrics["bench.trace_overhead_s"] = traced_wall - untraced_wall
    return metrics


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run one workload; returns the result object plus its raw samples.

    Raises:
        SetupError: When the starting state cannot be prepared.
    """
    workload = WORKLOADS[name]
    WORK_ROOT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK_ROOT, prefix=f"{name}-") as tmp:
        run = Run(workload, seed, Path(tmp))
        setups = [run.setup(i) for i in range(workload.setups)]
        if workload.warm and run.reference is None:
            run.reference = run.cold_reference()
        samples: Dict[str, List[float]] = {
            "wall_s": [], "flows_per_s": [], "cpu_s": [], "peak_rss_mb": [],
        }
        deadline = time.perf_counter() + seconds
        index = 0
        while True:
            result = run.iterate(index)
            index += 1
            if result.returncode == 0:
                try:
                    flows = count_flows(workload.kind, result.stdout)
                except IndexError:
                    flows = 0
                samples["wall_s"].append(result.wall_s)
                samples["flows_per_s"].append(flows / result.wall_s)
                samples["cpu_s"].append(result.cpu_s)
                samples["peak_rss_mb"].append(result.peak_rss_mb)
            if index >= MIN_RUNS and time.perf_counter() >= deadline:
                break
        samples["setup_s"] = setups
        if not samples["wall_s"]:
            raise SetupError("no run of the workload exited cleanly")
        summary = {metric: quartiles(values) for metric, values in samples.items()}
        if trace:
            trace_path = Path(tmp) / "trace.json"
            traced = run.iterate(index, traced=trace_path)
            layers = (
                layer_metrics(json.loads(trace_path.read_text()), traced.wall_s,
                              summary["wall_s"]["median"])
                if trace_path.exists() else {name: 0.0 for name in PER_LAYER}
            )
            metrics = {m: {"value": layers[m], "unit": PER_LAYER[m]} for m in PER_LAYER}
        else:
            metrics = {
                m: {"value": summary[m]["median"], "unit": END_TO_END[m]} for m in END_TO_END
            }
        failed = len(run.failures)
        return {
            "result": {
                "correct": failed == 0,
                "attempted": run.attempted,
                "failed": failed,
                "metrics": metrics,
            },
            "workload": name,
            "seed": seed,
            "scale": run.scale,
            "trace": int(trace),
            "summary": summary,
            "samples": samples,
            "failures": run.failures,
        }


def print_report(record: dict) -> None:
    """Human-readable lines: every metric with unit, median, quartiles and n."""
    result = record["result"]
    ratio = result["failed"] / result["attempted"]
    print(f"workload {record['workload']}  scale {record['scale']}  seed {record['seed']}  "
          f"trace {record['trace']}")
    for metric, unit in END_TO_END.items():
        q = record["summary"][metric]
        print(f"  {metric:<14} {q['median']:12.4f} {unit:<8} "
              f"q1 {q['q1']:.4f}  q3 {q['q3']:.4f}  n={q['n']}")
    print(f"  {'error_ratio':<14} {ratio:12.4f} {'ratio':<8} "
          f"{result['failed']} failed of {result['attempted']} attempted")
    if record["trace"]:
        for metric, value in result["metrics"].items():
            print(f"  {metric:<24} {value['value']:14.4f} {value['unit']}")
    for failure in record["failures"]:
        print(f"  FAILED {failure}")


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"], default="all")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measurement time per run (default: BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=None,
                        help="append each run's full record to this JSON-lines file")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"),
                        help="compare two --out record files and exit")
    args = parser.parse_args(argv)

    if args.compare:
        from compare import compare_files

        return compare_files(*args.compare)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro sources under {SRC}", file=sys.stderr)
        return 2
    seconds = SPEC["run_seconds"] if args.seconds is None else args.seconds
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]

    records = []
    try:
        for name in names:
            record = run_workload(name, args.seed, seconds, bool(args.trace))
            print_report(record)
            records.append(record)
            if args.out:
                with open(args.out, "a", encoding="utf-8") as handle:
                    handle.write(json.dumps(record) + "\n")
    except SetupError as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 1
    finally:
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass
    if len(records) == 1:
        print(json.dumps(records[0]["result"]))
    else:
        print(json.dumps({r["workload"]: r["result"] for r in records}))
    return 0 if all(r["result"]["correct"] for r in records) else 1


if __name__ == "__main__":
    sys.exit(main())
