"""Report-only size ladder: traced per-layer self time as a curve over N.

    python3 perfbench/ladder.py [--seed 0] [--seconds 2]

Not gated and not part of ``BENCHMARK.json``.  Each rung is a fresh traced
worker process at one size, so its peak RSS is its own:

* pure path (``ket-analyze``): N = 16, 18, 20, 22, 24;
* grid maximiser under the CLI oracle budget (``oracle-check``): N = 3..6;
* dense validation (``noise-sweep``): N = 7..10.

Prints one JSON line per rung with the mean self ms per command of every
layer the rung reached, the peak RSS, and the reference kernel's median time
(``reference.py``), against which to read the self times of runs made at
different times.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time

from run import spawn

RUNGS = (
    ("ket-analyze", (16, 18, 20, 22, 24)),  # N = 24 peaks near 0.6 GiB of RSS
    ("oracle-check", (3, 4, 5, 6)),
    ("noise-sweep", (7, 8, 9, 10)),
)


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=2.0,
                   help="traced time per rung; whole passes over the input pool always finish")
    args = p.parse_args(argv)
    for workload, sizes in RUNGS:
        for n in sizes:
            res = spawn(workload, args.seed, args.seconds, "trace",
                        time.monotonic() + 600.0, size={"n": n})
            layers = {
                k[: -len(".self_ms")]: round(v, 4)
                for k, v in res["layers"].items()
                if k.endswith(".self_ms") and v > 0
            }
            print(json.dumps({
                "workload": workload, "n": n, "traced_ops": len(res["traced_times"]),
                "attempted": res["attempted"], "failed": res["failed"], "self_ms": layers,
                "peak_rss_mib": round(res["peak_rss_kib"] / 1024.0, 1),
                "ref_ms": round(1e3 * statistics.median(res["refs"]), 2),
            }), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
