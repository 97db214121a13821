"""Helpers shared by the benchmark workloads: timing stats, digests and the
environment fingerprint stamped into every result.

Imported only by ``worker.py`` after it has pinned the BLAS thread count,
so importing numpy here is safe.
"""

from __future__ import annotations

import ctypes
import glob
import hashlib
import os
import platform
import resource
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Sequence

import numpy as np

ROOT = Path(__file__).resolve().parent.parent


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolation percentile (numpy's default method)."""
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def peak_rss_mb() -> float:
    """This process's resident-set high-water mark, in MiB (Linux KiB units)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def digest(*parts: object) -> str:
    """Stable short digest of arrays and plain values, for output checks."""
    h = hashlib.blake2b(digest_size=16)
    for part in parts:
        if isinstance(part, np.ndarray):
            h.update(str(part.dtype).encode())
            h.update(str(part.shape).encode())
            h.update(np.ascontiguousarray(part).tobytes())
        else:
            h.update(repr(part).encode())
        h.update(b"|")
    return h.hexdigest()


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _blas_build() -> Dict[str, object]:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError, AttributeError):
        return {"name": "unknown"}
    return {
        "name": blas.get("name"),
        "version": blas.get("version"),
        "config": blas.get("openblas configuration"),
    }


def _blas_threads() -> object:
    """Thread count the loaded OpenBLAS reports, or ``None`` if unreadable."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    symbols = (
        "scipy_openblas_get_num_threads64_",
        "openblas_get_num_threads64_",
        "openblas_get_num_threads",
    )
    for path in sorted(glob.glob(str(libs / "*openblas*"))):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in symbols:
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _git_sha() -> object:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
            check=False,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    sha = out.stdout.strip()
    return sha if out.returncode == 0 and sha else None


def _source_digest() -> str:
    """Digest of every Python file under ``src/``: identifies the code measured
    even where the checkout is not a git repository."""
    h = hashlib.sha256()
    src = ROOT / "src"
    for path in sorted(src.rglob("*.py")):
        h.update(str(path.relative_to(src)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def fingerprint() -> Dict[str, object]:
    """The machine and build a result was measured on."""
    affinity: List[int] = sorted(os.sched_getaffinity(0))
    return {
        "cpu": _cpu_model(),
        "nproc": len(affinity),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas_build(),
        "blas_threads": _blas_threads(),
        "blas_env": {
            name: os.environ.get(name)
            for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        },
        "git_sha": _git_sha(),
        "src_digest": _source_digest(),
        "platform": sys.platform,
    }
