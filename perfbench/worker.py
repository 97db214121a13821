"""One measured benchmark process.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S --trace 0|1 [--setup-only]

Pins BLAS to one thread before numpy is imported, sets the workload up
(timing each part from process start), and unless ``--setup-only`` runs
the timed request stream. Prints one JSON object as its last line.
``run.py`` starts this script; it is not meant to be run by hand.
"""

import time

START = time.perf_counter()

import os  # noqa: E402

for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_name] = "1"

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from contextlib import contextmanager  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    module = importlib.import_module("design" if args.workload == "design" else "infer")
    import repro

    if not Path(repro.__file__).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit(f"repro imported from {repro.__file__}, not from {ROOT / 'src'}")
    parts = {"import_s": time.perf_counter() - START}

    @contextmanager
    def part(name):
        start = time.perf_counter()
        yield
        parts[name] = parts.get(name, 0.0) + time.perf_counter() - start

    if args.workload == "design":
        state = module.Design(part)
    else:
        state = module.Inference(args.workload, part)
    setup_s = time.perf_counter() - START
    result = {"setup_s": setup_s, "setup_parts": parts}
    if not args.setup_only:
        from common import fingerprint

        result.update(state.run(args.seed, args.seconds, bool(args.trace)))
        result["env"] = fingerprint()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
