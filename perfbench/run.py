"""The repository benchmark.

    python3 perfbench/run.py --workload {infer-steady,infer-mixed,design}
                             [--seed N] [--seconds S] [--trace 0|1]

Runs from the repository root. Starts ``worker.py`` in fresh processes,
one after another, each with BLAS pinned to one thread:
``SETUP_PROBES`` processes that only set up (``setup_s`` is the median
over them and the measured process), then the measured process, which
times ``--seconds`` of requests and checks every output.

Prints a human-readable summary (every metric under its workload-specific
name, such as ``images_per_s`` or ``design_queries_per_s``, with units and
sample counts, plus the environment fingerprint) and, as the last line,
one JSON object: ``{"correct", "attempted", "failed", "metrics"}``. With ``--trace 0`` the
metrics are the end-to-end ones, measured with telemetry off; with
``--trace 1`` they are the per-layer ones (see ``metrics.py``).
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

from metrics import DEFAULT_SEED, END_TO_END, PER_LAYER, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
#: Set-up-only processes per run, besides the measured one.
SETUP_PROBES = 4
#: Whole run, children included, must end within this many seconds.
BUDGET_S = 170.0
COVERAGE_FLOOR = 0.97


def _worker(args, deadline: float, setup_only: bool) -> dict:
    command = [
        sys.executable, str(WORKER),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
    ]
    if setup_only:
        command.append("--setup-only")
    env = dict(os.environ)
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[name] = "1"
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise RuntimeError("time budget exhausted before the worker started")
    # subprocess.run kills the child on timeout and waits for it to end.
    done = subprocess.run(
        command, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
        timeout=timeout, check=False,
    )
    if done.returncode != 0:
        raise RuntimeError(f"worker exited with code {done.returncode}")
    lines = done.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError("worker printed no result")
    return json.loads(lines[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no repro package under {ROOT / 'src'}", file=sys.stderr)
        return 2

    # SIGTERM becomes SystemExit, on which subprocess.run kills and reaps
    # the running worker before the exception propagates.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    deadline = time.monotonic() + BUDGET_S
    try:
        probes = [_worker(args, deadline, True) for _ in range(SETUP_PROBES)]
        measured = _worker(args, deadline, False)
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 1

    setups = sorted(probes + [measured], key=lambda r: r["setup_s"])
    median_setup = setups[len(setups) // 2]
    setup_s = median_setup["setup_s"]
    parts = median_setup["setup_parts"]
    coverage = sum(parts.values()) / setup_s

    attempted, failed = measured["attempted"], measured["failed"]
    if args.trace:
        values = dict.fromkeys(PER_LAYER, 0.0)
        values.update(parts)
        values["setup.coverage"] = coverage
        values.update(measured["per_layer"])
        unknown = set(values) - set(PER_LAYER)
        if unknown:
            print(f"error: unlisted per-layer metrics {sorted(unknown)}", file=sys.stderr)
            return 1
        catalog = PER_LAYER
    else:
        values = dict(measured["metrics"], setup_s=setup_s)
        catalog = END_TO_END

    requests = measured["samples"]["requests"]
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  "
          f"trace {args.trace}")
    print(f"  {'setup_s':<28} {setup_s:12.4f} s      "
          f"(median of {len(setups)} processes: "
          + ", ".join(f"{r['setup_s']:.3f}" for r in setups) + ")")
    if not args.trace:
        for alias, (name, unit) in measured["aliases"].items():
            print(f"  {alias:<28} {values[name]:12.4f} {unit:<6} (n={requests})")
        print(f"  {'peak_rss_mb':<28} {values['peak_rss_mb']:12.4f} MB     (1 process)")
        if requests < 200:
            print(f"  note: {requests} requests; p95 has fewer than 10 samples beyond it")
    else:
        for name, metric in PER_LAYER.items():
            moves = ", ".join(metric.moves)
            print(f"  {name:<28} {values[name]:14.6g} {metric.unit:<6} "
                  + (f"-> {moves}" if moves else ""))
    print(f"  attempted {attempted}  failed {failed}  samples {measured['samples']}")
    setup_ok = coverage >= COVERAGE_FLOOR
    print(f"  coverage: setup parts {coverage:.4f}"
          + ("" if setup_ok else "  BELOW FLOOR"))
    if "design.call_coverage" in measured["per_layer"]:
        calls = measured["per_layer"]["design.call_coverage"]
        print(f"  coverage: design calls {calls:.4f}"
              + ("" if calls >= COVERAGE_FLOOR else "  BELOW FLOOR"))
    print("  env " + json.dumps(measured["env"], sort_keys=True))

    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": values[name], "unit": catalog[name].unit} for name in catalog
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
