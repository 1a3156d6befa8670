"""Time one cold set-up in a fresh interpreter: from before
``import repro`` to the end of the first warm-up flush.

    python3 perfbench/setup_probe.py <workload>

Prints the seconds on its last line.  ``run.py`` runs it several times
per run and reports the median as ``setup_s``.
"""

import os
import sys
import time


def main() -> None:
    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(here)
    sys.path[:0] = [here, os.path.join(root, "src")]
    start = time.perf_counter()
    import spec
    import system

    server = system.set_up(spec.WORKLOADS[sys.argv[1]])
    elapsed = time.perf_counter() - start
    server.stop()
    print(repr(elapsed))


if __name__ == "__main__":
    main()
