"""Compare two benchmark record files (``run.py --out``) metric by metric.

Usage::

    python3 perfbench/run.py --compare parent.jsonl change.jsonl

One row per workload and end-to-end metric: each side's median, quartiles
and run count, and a verdict under ``BENCHMARK.json``'s bounds --

* ``improved``: the change beats the parent in at least nine tenths of the
  runs paired by seed, and the medians differ by more than the parent's
  own quartile spread;
* ``regressed``: the change's median is worse than the parent's by more
  than the bound, and the parent's spread is within the bound;
* ``unresolved``: the parent's spread is wider than the bound, unless
  every change run beats every parent run;
* ``no worse``: anything else.

The traced runs' per-layer medians and deltas follow, so a claimed saving
can be located.  Exits 1 when any metric regressed or any run failed.
"""

from __future__ import annotations

import json
import statistics
from collections import defaultdict
from pathlib import Path
from typing import Dict, List, Tuple

from run import SPEC, quartiles


def _load(path: str) -> Dict[Tuple[str, int], List[dict]]:
    """Records grouped by (workload, trace flag), in file order."""
    grouped: Dict[Tuple[str, int], List[dict]] = defaultdict(list)
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        if line.strip():
            record = json.loads(line)
            grouped[(record["workload"], record["trace"])].append(record)
    return grouped


def verdict(parent: List[float], change: List[float], pairs: List[Tuple[float, float]],
            better: str, bound: float) -> str:
    """The verdict for one metric; values are per-run medians."""
    sign = 1.0 if better == "lower" else -1.0
    q, c_med = quartiles(parent), statistics.median(change)
    p_med, spread = q["median"], q["q3"] - q["q1"]
    wins = sum(1 for p, c in pairs if sign * (p - c) > 0)
    if pairs and wins >= 0.9 * len(pairs) and sign * (p_med - c_med) > spread:
        return "improved"
    if spread > bound * abs(p_med):
        every_better = all(sign * (p - c) > 0 for p in parent for c in change)
        return "improved" if every_better else "unresolved"
    if sign * (c_med - p_med) > bound * abs(p_med):
        return "regressed"
    return "no worse"


def compare_files(path_a: str, path_b: str) -> int:
    side_a, side_b = _load(path_a), _load(path_b)
    status = 0
    print(f"{'workload':<15} {'metric':<12} {'A median':>11} {'A q1..q3':>21} {'nA':>3} "
          f"{'B median':>11} {'B q1..q3':>21} {'nB':>3}  verdict")
    workloads = sorted({w for w, _ in side_a} | {w for w, _ in side_b})
    for workload in workloads:
        runs_a, runs_b = side_a.get((workload, 0), []), side_b.get((workload, 0), [])
        if not runs_a or not runs_b:
            print(f"{workload:<15} (untraced runs missing on one side)")
            continue
        for runs in (runs_a, runs_b):
            if any(r["result"]["failed"] for r in runs):
                status = 1
        for metric in SPEC["end_to_end"]:
            name = metric["name"]
            values_a = [r["result"]["metrics"][name]["value"] for r in runs_a]
            values_b = [r["result"]["metrics"][name]["value"] for r in runs_b]
            by_seed_b = {r["seed"]: r["result"]["metrics"][name]["value"] for r in runs_b}
            pairs = [
                (r["result"]["metrics"][name]["value"], by_seed_b[r["seed"]])
                for r in runs_a if r["seed"] in by_seed_b
            ]
            outcome = verdict(values_a, values_b, pairs, metric["better"], metric["bound"])
            if outcome == "regressed":
                status = 1
            qa, qb = quartiles(values_a), quartiles(values_b)
            print(f"{workload:<15} {name:<12} "
                  f"{qa['median']:11.4f} {qa['q1']:10.4f}..{qa['q3']:<9.4f} {qa['n']:3d} "
                  f"{qb['median']:11.4f} {qb['q1']:10.4f}..{qb['q3']:<9.4f} {qb['n']:3d}  "
                  f"{outcome}")
        failed_a = sum(r["result"]["failed"] for r in runs_a)
        failed_b = sum(r["result"]["failed"] for r in runs_b)
        tried_a = sum(r["result"]["attempted"] for r in runs_a)
        tried_b = sum(r["result"]["attempted"] for r in runs_b)
        print(f"{workload:<15} {'error_ratio':<12} {failed_a}/{tried_a} vs {failed_b}/{tried_b}")

    print()
    print(f"{'workload':<15} {'per-layer metric':<24} {'A median':>14} {'B median':>14} "
          f"{'delta':>14} {'delta %':>8}")
    for workload in workloads:
        runs_a, runs_b = side_a.get((workload, 1), []), side_b.get((workload, 1), [])
        if not runs_a or not runs_b:
            continue
        for metric in SPEC["per_layer"]:
            name = metric["name"]
            med_a = statistics.median(r["result"]["metrics"][name]["value"] for r in runs_a)
            med_b = statistics.median(r["result"]["metrics"][name]["value"] for r in runs_b)
            if med_a == 0 and med_b == 0:
                continue
            pct = f"{100.0 * (med_b - med_a) / med_a:+7.1f}%" if med_a else "      -"
            print(f"{workload:<15} {name:<24} {med_a:14.4f} {med_b:14.4f} "
                  f"{med_b - med_a:+14.4f} {pct} {metric['unit']}")
    return status
