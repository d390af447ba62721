"""Bad numeric flag values stop at the CLI boundary.

Every value below is either accepted (exit 0) or rejected by argparse
(exit 2, a message naming the flag) -- never a traceback from deep inside
a run, and never a silently accepted NaN.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.argtypes import max_workers
from repro.cli import build_parser

#: (subcommand argv before the flag, flag).  The prefixes keep any run
#: that does start tiny.
FLAGS = [
    (["study", "--scale", "0.002", "--landmarks", "8"], "--scale"),
    (["monitor", "--epochs", "2", "--scale", "0.002"], "--epoch-s"),
    (["monitor", "--epochs", "2", "--scale", "0.002"], "--threshold"),
    (["study", "--scale", "0.002"], "--landmarks"),
    (["study", "--scale", "0.002", "--parallel", "process"], "--workers"),
]
VALUES = ["nan", "inf", "-inf", "0", "-1"]


def _repro(*argv: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, REPRO_CACHE="off")
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run(
        [sys.executable, "-m", "repro", *argv],
        capture_output=True, text=True, env=env, timeout=300,
    )


@pytest.mark.parametrize("value", VALUES)
@pytest.mark.parametrize("prefix,flag", FLAGS, ids=[flag for _, flag in FLAGS])
def test_flag_value_exits_cleanly(prefix, flag, value):
    # The flag comes last so its value, not the prefix's, is judged.
    # A value starting with "-" must be attached with "=".
    proc = _repro(*prefix, f"{flag}={value}")
    assert "Traceback" not in proc.stderr, proc.stderr
    assert proc.returncode in (0, 2), proc.stderr
    if proc.returncode == 2:
        assert f"argument {flag}" in proc.stderr, proc.stderr


@pytest.mark.parametrize("argv", [
    ["study", "--workers", str(max_workers() + 1)],
    ["study", "--workers", "1000000"],
    ["study", "--landmarks", "3"],
    ["monitor", "--threshold", "nan"],
    ["study", "--scale", "abc"],
])
def test_rejected_at_parse_time(argv, capsys):
    with pytest.raises(SystemExit) as exit_info:
        build_parser().parse_args(argv)
    assert exit_info.value.code == 2
    assert f"argument {argv[1]}" in capsys.readouterr().err


def test_bounds_themselves_are_accepted():
    args = build_parser().parse_args(
        ["study", "--workers", str(max_workers()), "--landmarks", "4", "--scale", "1e-3"]
    )
    assert (args.workers, args.landmarks, args.scale) == (max_workers(), 4, 1e-3)
    args = build_parser().parse_args(["monitor", "--epoch-s", "60", "--threshold", "0.5"])
    assert (args.epoch_s, args.threshold) == (60.0, 0.5)
