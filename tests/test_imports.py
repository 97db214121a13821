"""Import-order regression tests.

Circular imports only bite for *some* entry points, so each public
subpackage is imported first in a fresh interpreter — the way an example
script or a downstream user would.
"""

import subprocess
import sys

import pytest

ENTRY_POINTS = (
    "repro",
    "repro.core",
    "repro.nn",
    "repro.nn.models",
    "repro.nn.graph",
    "repro.quant",
    "repro.prune",
    "repro.hw",
    "repro.dse",
    "repro.baselines",
    "repro.workloads",
    "repro.system",
    "repro.analysis",
    "repro.experiments",
    "repro.pipeline",
    "repro.deploy",
    "repro.runtime",
    "repro.serve",
    "repro.cli",
)


@pytest.mark.parametrize("module", ENTRY_POINTS)
def test_fresh_import(module):
    """Each subpackage imports cleanly as the first touch of the library."""
    result = subprocess.run(
        [sys.executable, "-c", f"import {module}"],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0, result.stderr


def _modules_after_cli_import(prefixes):
    """Sorted ``sys.modules`` names under ``prefixes`` after ``import repro.cli``."""
    result = subprocess.run(
        [
            sys.executable,
            "-c",
            "import sys, repro.cli; print(sorted(m for m in sys.modules "
            f"if m in {prefixes!r} or m.startswith(tuple(p + '.' for p in {prefixes!r}))))",
        ],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0, result.stderr
    return result.stdout.strip()


def test_cli_import_does_not_load_scipy():
    """The runtime needs only numpy: importing the CLI must not pull scipy."""
    assert _modules_after_cli_import(("scipy",)) == "[]"


def test_cli_import_does_not_load_process_pools():
    """No code path forks worker processes, so the CLI must not import them."""
    assert (
        _modules_after_cli_import(("multiprocessing", "concurrent.futures.process"))
        == "[]"
    )
