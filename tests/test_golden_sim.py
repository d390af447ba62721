"""Golden-digest regression test for the simulator's non-flow outputs.

``tests/golden/sim_0.01.digests`` pins what each simulated week reports
besides its flow log, at ``--scale 0.01 --seed 7``: the per-request
startup-delay and serving-RTT samples and the ground-truth tallies
(redirect causes, DNS-assigned and serving data centers).  One line per
dataset holds the sha256 of the ``repr`` of those values, so any drift
in the RTT floors behind the samples, or in which data center DNS or
redirection picked, shows up here down to the last bit of a float.  The
flow-log digests (``study_*.digests``) never see these outputs.

Refresh the fixture deliberately with ``scripts/update_golden.sh`` (which
runs this module as a script) and call the change out in review.
"""

from __future__ import annotations

import hashlib
from pathlib import Path
from typing import Dict, List

import pytest

from repro.sim.driver import run_all
from repro.sim.engine import SimulationResult

GOLDEN = Path(__file__).parent / "golden" / "sim_0.01.digests"

SCALE = 0.01
SEED = 7


def _sha256(value: object) -> str:
    return hashlib.sha256(repr(value).encode("ascii")).hexdigest()


def sim_digest_lines(results: Dict[str, SimulationResult]) -> List[str]:
    """``digest <dataset> <sha256>`` lines, one per dataset."""
    lines = []
    for name, result in results.items():
        fields = (
            result.requests,
            result.startup_delay_samples,
            result.serving_rtt_samples,
            sorted(result.cause_counts.items()),
            sorted(result.dns_dc_counts.items()),
            sorted(result.served_dc_counts.items()),
        )
        lines.append(f"digest {name} {_sha256(fields)}")
    return lines


def golden_lines() -> List[str]:
    return [
        line.strip()
        for line in GOLDEN.read_text(encoding="ascii").splitlines()
        if line.strip()
    ]


@pytest.fixture(scope="module")
def current_lines():
    return sim_digest_lines(run_all(scale=SCALE, seed=SEED))


def test_fixture_is_well_formed():
    lines = golden_lines()
    assert lines
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
        "simulator outputs drifted from tests/golden/sim_0.01.digests "
        f"(run scripts/update_golden.sh if intentional): {drifted}"
    )


if __name__ == "__main__":
    print("\n".join(sim_digest_lines(run_all(scale=SCALE, seed=SEED))))
