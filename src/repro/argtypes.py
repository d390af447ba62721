"""Typed ``argparse`` converters for the command line's numeric flags.

Each converter parses one flag value and raises :class:`ValueError` or
:class:`argparse.ArgumentTypeError` for anything outside the flag's
domain, so argparse rejects the value at parse time with exit status 2
and a message naming the flag -- before any world is built or any pool
started.
"""

from __future__ import annotations

import argparse
import math
import os


def finite_positive_float(text: str) -> float:
    """A finite float greater than zero (rejects ``nan`` and ``±inf``)."""
    value = float(text)
    if not math.isfinite(value) or value <= 0:
        raise argparse.ArgumentTypeError(f"must be finite and positive, got {text!r}")
    return value


def landmark_count(text: str) -> int:
    """At least four landmarks: CBG intersects constraint disks."""
    value = int(text)
    if value < 4:
        raise argparse.ArgumentTypeError(f"must be at least 4, got {value}")
    return value


def max_workers() -> int:
    """The largest accepted ``--workers``: four per CPU."""
    return 4 * (os.cpu_count() or 1)


def worker_count(text: str) -> int:
    """A worker bound in ``[1, max_workers()]``."""
    value = int(text)
    limit = max_workers()
    if not 1 <= value <= limit:
        raise argparse.ArgumentTypeError(
            f"must be between 1 and {limit} (4 per CPU), got {value}"
        )
    return value
