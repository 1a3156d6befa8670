"""The serving benchmark: one workload against ``PipelineServer``.

    python3 perfbench/run.py --workload parallel_closed --seed 1 \
        --seconds 35 --trace 0

Run from the repository root.  ``bench.py`` does the run: it builds the
pipeline from ``src/``,
renders a seeded corpus, computes the serial ``infer()`` reference for
every corpus image, then drives the workload's three load levels from
one client thread.  Every delivered result is checked against the
reference, and the server's ledger must balance.

With ``--trace 0`` the last line of stdout is a JSON object holding
the end-to-end metrics; with ``--trace 1`` the workload runs twice,
untraced then traced, and the object holds the per-layer metrics.  The
exit code is non-zero on any parity mismatch or ledger imbalance (the
JSON then says ``"correct": false``), and when the repository's
sources are missing (no JSON at all).  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import os
import sys

import spec

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=spec.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not __debug__:
        print("run without -O: the parity checks use assert",
              file=sys.stderr)
        return 2
    # One BLAS thread, set before NumPy loads (set-up probes inherit
    # it): the batcher is then the only compute thread, beside the one
    # client thread, on the 2-core host the workloads are sized for.
    for variable in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                     "MKL_NUM_THREADS"):
        os.environ[variable] = "1"
    sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]
    try:
        import bench
    except ImportError as error:
        print(f"cannot import the system under test: {error}",
              file=sys.stderr)
        return 2
    return bench.run(args)


if __name__ == "__main__":
    sys.exit(main())
