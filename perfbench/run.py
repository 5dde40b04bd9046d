"""fgplate benchmark: one workload in one process, closed loop, one client.

    python3 perfbench/run.py --workload table-11 --seed 1 --seconds 20 --trace 0

Run it from the repository root. The last line of standard output is a JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``. The line before it records the environment, the generated op
list and the details behind each metric. See README.md in this directory.
"""
from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

WORKLOADS = ("table-11", "fine-mesh", "station-map")
BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _cap_blas_threads() -> None:
    """Cap BLAS threads at the usable CPU count; must run before numpy loads."""
    nproc = len(os.sched_getaffinity(0))
    for name in BLAS_THREAD_VARIABLES:
        try:
            requested = int(os.environ.get(name, nproc))
        except ValueError:
            requested = nproc
        os.environ[name] = str(min(max(requested, 1), nproc))


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    src = Path(__file__).resolve().parents[1] / "src"
    if not (src / "fgplate" / "__init__.py").is_file():
        print(f"fgplate sources not found under {src}", file=sys.stderr)
        return 2
    _cap_blas_threads()
    sys.path.insert(0, str(src))

    import bench

    if args.setup_probe:
        bench.probe(args.workload, args.seed)
        return 0
    return bench.main(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
