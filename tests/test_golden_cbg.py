"""Golden-digest regression test for CBG geolocation.

``tests/golden/cbg_0.01.digests`` pins what Constraint-Based
Geolocation computes over the paper study at ``--scale 0.01 --seed 7``
with a 60-landmark budget: one line per landmark bestline (the
self-calibration step) and one per geolocated /24 representative (its
estimate, confidence radius, feasibility and constraint count).  Each
line is the sha256 of the ``repr`` of those values, so any drift in the
delay model, the prober's RNG stream, calibration or the region sampler
shows up here, down to the last bit of a float.  The flow-log digests
never see geolocation, so without this file only the benchmark's pinned
report would notice.

Refresh the fixture deliberately with ``scripts/update_golden.sh`` (which
runs this module as a script) and call the change out in review.
"""

from __future__ import annotations

import hashlib
from pathlib import Path
from typing import List

import pytest

from repro.core.pipeline import StudyPipeline
from repro.net.ip import format_ip
from repro.sim.driver import run_all

GOLDEN = Path(__file__).parent / "golden" / "cbg_0.01.digests"

SCALE = 0.01
SEED = 7
LANDMARKS = 60


def _sha256(value: object) -> str:
    return hashlib.sha256(repr(value).encode("ascii")).hexdigest()


def cbg_digest_lines(pipeline: StudyPipeline) -> List[str]:
    """``digest <name> <sha256>`` lines: bestlines, then /24 results."""
    geolocator = pipeline.geolocator
    lines = [
        f"digest bestline/{lm.name} {_sha256(geolocator.bestline(lm.name))}"
        for lm in sorted(geolocator.landmarks, key=lambda lm: lm.name)
    ]
    results = pipeline.server_map.results_by_slash24
    for net24 in sorted(results):
        result = results[net24]
        fields = (
            result.estimate.lat,
            result.estimate.lon,
            result.confidence_radius_km,
            result.feasible,
            result.constraints_used,
        )
        lines.append(f"digest slash24/{format_ip(net24)} {_sha256(fields)}")
    return lines


def build_pipeline() -> StudyPipeline:
    return StudyPipeline(
        run_all(scale=SCALE, seed=SEED), landmark_count=LANDMARKS, seed=SEED
    )


def golden_lines():
    return [
        line.strip()
        for line in GOLDEN.read_text(encoding="ascii").splitlines()
        if line.strip()
    ]


@pytest.fixture(scope="module")
def current_lines():
    return cbg_digest_lines(build_pipeline())


def test_fixture_is_well_formed():
    lines = golden_lines()
    kinds = [line.split()[1].split("/")[0] for line in lines]
    assert kinds.count("bestline") == LANDMARKS
    assert kinds.count("slash24") > 0
    for line in lines:
        parts = line.split()
        assert len(parts) == 3 and parts[0] == "digest", line
        assert len(parts[2]) == 64 and int(parts[2], 16) >= 0, line


def test_digests_match_golden(current_lines):
    expected = dict(line.split()[1:] for line in golden_lines())
    current = dict(line.split()[1:] for line in current_lines)
    assert set(current) == set(expected)
    drifted = sorted(name for name in current if current[name] != expected[name])
    assert not drifted, (
        "CBG output drifted from tests/golden/cbg_0.01.digests "
        f"(run scripts/update_golden.sh if intentional): {drifted}"
    )


if __name__ == "__main__":
    print("\n".join(cbg_digest_lines(build_pipeline())))
