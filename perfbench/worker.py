"""One benchmark process: set up a workload, then time or trace its commands.

Spawned by ``run.py``, one fresh process per workload run, with one client:
each command starts only after the previous one returned (closed loop).
Commands go through ``rotbell.cli.main(argv)`` in-process with stdout and
stderr captured, and every output is checked after the command returns,
outside the timed region.

Modes:

* ``setup``   - import rotbell, generate the inputs, run one warm-up command,
  report the monotonic time at which that finished, and exit;
* ``measure`` - set up, then run the closed loop for ``--seconds`` untraced,
  timing the reference kernel (``reference.py``) just before each command;
* ``trace``   - set up, then run every command twice, untraced and then with
  the layer wrappers installed, in whole passes over the input pool.

The result is one JSON object on the last line of stdout.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import resource
import statistics
import sys
import tempfile
import time
import traceback
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench"

# Environment pinned in every worker process (run.py sets it, results record it).
# One BLAS thread: at two, OpenBLAS spin-waits and burns twice the CPU of the
# wall time on a 2-CPU machine.  The allocator keeps its defaults, as users
# run it, so page faults on freed and re-allocated arrays stay in the figures.
PINNED_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}

# getrusage fields recorded per command: minor page faults and voluntary and
# involuntary context switches.
RUSAGE_FIELDS = ("ru_minflt", "ru_nvcsw", "ru_nivcsw")

import reference  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def import_cli():
    """rotbell.cli from this checkout's src/, never from an installed copy."""
    src = (ROOT / "src").resolve()
    sys.path.insert(0, str(src))
    import rotbell.cli as cli

    if Path(cli.__file__).resolve().parent != src / "rotbell":
        raise SystemExit(f"rotbell imported from {cli.__file__}, not from {src}")
    return cli


class Runner:
    """Runs one workload's input pool through the CLI and tallies the outcomes."""

    def __init__(self, cli, workload, ops, workdir):
        self.cli = cli
        self.workload = workload
        self.ops = ops
        self.workdir = Path(workdir)
        self.attempted = 0
        self.failed = 0
        self.wrong = 0  # exit 0 but the output did not check: a wrong answer
        self.reasons = Counter()
        self.rusage = []  # per command: the RUSAGE_FIELDS counts
        for op in ops:
            for name, text in op.files.items():
                (self.workdir / name).write_text(text, encoding="utf-8")

    def call(self, op):
        """Run one command; returns (exit code, stdout, seconds)."""
        argv = [str(self.workdir / a) if a in op.files else a for a in op.argv]
        out = io.StringIO()
        with redirect_stdout(out), redirect_stderr(io.StringIO()):
            u0 = resource.getrusage(resource.RUSAGE_SELF)
            t0 = perf_counter()
            try:
                rc = self.cli.main(argv)
            except Exception:  # a crash is a failed op; the loop keeps going
                rc = traceback.format_exc().strip().splitlines()[-1]
            dt = perf_counter() - t0
            u1 = resource.getrusage(resource.RUSAGE_SELF)
        self.rusage.append([getattr(u1, f) - getattr(u0, f) for f in RUSAGE_FIELDS])
        return rc, out.getvalue(), dt

    def judge(self, op, rc, out):
        """Failure reason, or None when the command exited 0 and its output checks."""
        if rc != 0:
            return f"{op.label}: exit {rc}"
        try:
            reason = self.workload.check(op, out)
        except (KeyError, IndexError, TypeError, ValueError) as exc:
            reason = f"unparseable output ({exc!r})"
        return f"{op.label}: {reason}" if reason else None

    def step(self, op):
        """Run, time and check one command; returns its wall time in seconds."""
        rc, out, dt = self.call(op)
        reason = self.judge(op, rc, out)
        self.attempted += 1
        if reason:
            self.failed += 1
            self.wrong += rc == 0
            self.reasons[reason[:120]] += 1
        return dt

    def loop(self, seconds):
        """Closed loop cycling over the pool for ``seconds``.

        Returns the command times and, for each command, the time of the
        reference kernel run just before it.  The loop ends on a whole pass
        over the pool, so every command of the pool weighs the same in every
        run.
        """
        times, refs = [], []
        end = perf_counter() + seconds
        while perf_counter() < end or len(times) % len(self.ops):
            refs.append(reference.timed())
            times.append(self.step(self.ops[len(times) % len(self.ops)]))
        return times, refs

    def paired_loop(self, seconds, tracer):
        """Each command twice, untraced and traced, in whole passes over the pool.

        Pairing the two runs of one command keeps machine drift out of the
        tracing overhead, and alternating which run goes first keeps the
        second run's warm caches out of it; whole passes make the calls per
        command repeat exactly.  The reference kernel is timed before each
        pair, so the layer times can be read against the host's speed.
        """
        untraced, traced, refs = [], [], []
        end = perf_counter() + seconds
        while perf_counter() < end or len(traced) % len(self.ops):
            i = len(traced)
            op = self.ops[i % len(self.ops)]
            refs.append(reference.timed())
            if i % 2:
                untraced.append(self.step(op))
            tracer.op = i
            tracer.install()
            try:
                traced.append(self.step(op))
            finally:
                tracer.uninstall()
            if not i % 2:
                untraced.append(self.step(op))
        return untraced, traced, refs

    def tally(self):
        per_op = {f[3:]: statistics.median(column) for f, column in
                  zip(RUSAGE_FIELDS, zip(*self.rusage))}
        return {
            "rusage_p50": per_op,
            "attempted": self.attempted,
            "failed": self.failed,
            "wrong": self.wrong,
            "reasons": dict(self.reasons.most_common(5)),
        }


def environment():
    """Interpreter, numpy and BLAS versions and the pinned environment of this process."""
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "pinned_env": {k: os.environ.get(k) for k in PINNED_ENV},
    }


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--mode", required=True, choices=("setup", "measure", "trace"))
    p.add_argument("--size", type=json.loads, default={},
                   help='JSON object overriding the workload size, e.g. \'{"n": 24}\'')
    args = p.parse_args(argv)

    cli = import_cli()
    workload = WORKLOADS[args.workload]
    ops = workload.ops(args.seed, **args.size)
    WORK.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK, prefix=f"{args.workload}-") as tmp:
        runner = Runner(cli, workload, ops, tmp)
        runner.call(ops[0])  # warm-up: lazy imports, first-call caches, page faults
        reference.timed()
        runner.rusage.clear()
        result = {"setup_done": time.monotonic(),
                  "largest_array": workload.largest_array(cli, **workload.sizes(**args.size))}
        if args.mode == "measure":
            result["times"], result["refs"] = runner.loop(args.seconds)
            result["env"] = environment()
        elif args.mode == "trace":
            tracer = Tracer()
            untraced, traced, refs = runner.paired_loop(args.seconds, tracer)
            layers = tracer.summary(len(traced))
            result.update(untraced_times=untraced, traced_times=traced, refs=refs, layers=layers)
            tracer.write(WORK / f"spans-{args.workload}.jsonl")
        # the reference kernel's stream buffers were resident before any command ran
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        result["peak_rss_kib"] = peak - reference.RESIDENT_KIB
        result.update(runner.tally())
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
