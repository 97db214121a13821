"""Benchmark harness configuration.

Every module regenerates one paper artifact (table or figure), times the
regeneration with pytest-benchmark, prints the rows the paper reports and
the paper-vs-measured comparison, and asserts the headline shape so a
regression is a failure, not just a slow run.

Run:  pytest benchmarks/ --benchmark-only -s
"""

import sys
from pathlib import Path

import pytest

# The artifacts stamp the measuring host with perfbench's fingerprint, so
# the repo root must be importable however pytest was launched.
sys.path.insert(0, str(Path(__file__).resolve().parent.parent))


@pytest.fixture(scope="session")
def seed() -> int:
    return 1
