#!/usr/bin/env python3
"""qcollide benchmark: seeded workloads run through the public API.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload feedback_sweep --seed 1 --seconds 20 --trace 0

One process runs one task at a time (a closed loop with one client) and BLAS
is pinned to one thread.  ``--trace 0`` prints the end-to-end metrics,
``--trace 1`` the per-layer split from a traced run.  Human-readable lines come
first; the last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  See README.md.
"""

import os

# before numpy is imported anywhere: the bundled OpenBLAS is multi-threaded
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("feedback_sweep", "fock_oracle")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    src = ROOT / "src"
    if not (src / "qcollide" / "__init__.py").is_file():
        print(f"error: no qcollide sources under {src}; run from a qcollide checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import harness

    tmp = ROOT / ".bench_tmp" / f"run-{os.getpid()}"
    tmp.mkdir(parents=True, exist_ok=True)
    try:
        result = harness.run(args.workload, args.seed, args.seconds, bool(args.trace), tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        with contextlib.suppress(OSError):  # left in place while another run uses it
            tmp.parent.rmdir()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
