#!/usr/bin/env python3
"""Pipeline benchmark of drillstab: calibrate, 1-DOF maps and FE maps.

Run from the root of a checkout of the repository:

    python3 perfbench/run.py --workload calibrate --seed 1 --seconds 35 --trace 0

Each workload runs the CLI stages in-process through ``drillstab.cli.main``
and times each stage from outside, in whole rounds until ``--seconds`` is
used up (at least one round; two with ``--trace 1``). Every stage output is
checked against the benchmark's own oracle. The last line of standard output
is one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``,
which holds the end-to-end metrics with ``--trace 0`` and the per-layer
metrics with ``--trace 1``. With ``--trace 1`` the spans are also written to
``.perfbench_out/`` in the checkout. Progress and errors go to standard error.
The exit code is 0 when every operation succeeded and every check held.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
TMP_ROOT = ROOT / ".perfbench_tmp"
OUT_ROOT = ROOT / ".perfbench_out"

# ABC worker threads: fixed, and never more than the CPUs this process may use
ABC_THREADS = 2

# the keys of workloads.WORKLOADS, which can only be imported once the BLAS
# environment is set
WORKLOAD_NAMES = ("calibrate", "maps_1dof", "maps_fem")


def log(msg: str) -> None:
    print(f"[perfbench] {msg}", file=sys.stderr, flush=True)


def parse_args(argv=None) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def _terminate(signum, frame):
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "drillstab" / "cli.py").is_file():
        log(f"no drillstab sources under {ROOT / 'src'}; run from a full checkout")
        return 2
    signal.signal(signal.SIGTERM, _terminate)
    # BLAS stays single-threaded: the only parallelism is the ABC pool
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    sys.path[:0] = [str(HERE), str(ROOT / "src")]

    t0 = time.perf_counter()
    import drillstab.cli  # noqa: F401  (numpy and scipy too; timed as set-up)
    import_s = time.perf_counter() - t0

    import runner
    threads = max(1, min(ABC_THREADS, len(os.sched_getaffinity(0))))
    TMP_ROOT.mkdir(exist_ok=True)
    try:
        result = runner.run(args.workload, args.seed, args.seconds, bool(args.trace),
                            threads, import_s, TMP_ROOT, OUT_ROOT, ROOT, log)
    finally:
        try:
            TMP_ROOT.rmdir()
        except OSError:
            pass        # another run still uses it
    print(json.dumps(result))
    return 0 if result["correct"] and result["failed"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
