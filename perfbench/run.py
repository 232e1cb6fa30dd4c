"""rotbell benchmark: closed-loop CLI workloads with end-to-end metrics and layer traces.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --workload all --seed <n> --seconds <s> --trace <0|1>

Run it from any directory; it benchmarks the ``src/rotbell`` package of the
checkout that holds this file.  Each workload runs in a fresh worker process
(``worker.py``) with one client and BLAS pinned to one thread (see
``worker.PINNED_ENV``).

``--trace 0`` reports the end-to-end metrics: median and 90th-percentile
command time and commands completed per unit of time, each measured against
the reference kernel timed just before every command (``reference.py``;
unit ``ref``), set-up time (median over several fresh processes), peak RSS
and the share of commands that succeeded.  The same figures in wall-clock
seconds go to the ``#`` line.  ``--trace 1`` reports per-layer self time,
calls and computed bytes per command from a traced run, plus the tracing
overhead and the reference kernel's time.  Lines starting with ``#`` describe
the run (machine, sample counts, failure reasons); the last line of stdout is
the result as one JSON object.  ``all`` runs every workload and prints one
table, then a JSON object keyed by workload.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from tracer import metric_names  # noqa: E402
from worker import PINNED_ENV  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_SAMPLES = 5  # fresh processes whose set-up is timed; setup_s is their median
DEADLINE_S = 170.0  # every run, set-up included, ends well within 180 s

END_TO_END = (
    ("op_ref_p50", "ref"),
    ("op_ref_p90", "ref"),
    ("ops_per_ref", "1/ref"),
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
    ("success_ratio", "ok/attempted"),
)


class BenchmarkError(RuntimeError):
    """The benchmark could not produce a result (no result line is printed)."""


def worker_env():
    env = dict(os.environ)
    env.update(PINNED_ENV)
    env["PYTHONDONTWRITEBYTECODE"] = "1"  # same import cost on every run of a checkout
    env.pop("PYTHONPATH", None)  # rotbell comes from this checkout's src/ only
    return env


def spawn(workload, seed, seconds, mode, deadline, size=None):
    """Run one worker process to completion; adds its set-up time to the result."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", repr(float(seconds)), "--mode", mode]
    if size:
        cmd += ["--size", json.dumps(size)]
    t0 = time.monotonic()
    try:
        proc = subprocess.run(cmd, env=worker_env(), stdout=subprocess.PIPE, text=True,
                              timeout=max(1.0, deadline - t0), check=False)
    except subprocess.TimeoutExpired as exc:  # run() has killed and reaped the worker
        raise BenchmarkError(f"{workload} {mode} worker ran past the deadline") from exc
    if proc.returncode != 0:
        raise BenchmarkError(f"{workload} {mode} worker exited {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["setup_s"] = result["setup_done"] - t0
    return result


def p90(times):
    return statistics.quantiles(times, n=10, method="inclusive")[-1] if len(times) > 1 else times[0]


def machine():
    """Machine facts recorded with every run (cache sizes as the kernel reports them)."""
    caches = {}
    for level in (2, 3):
        for index in Path("/sys/devices/system/cpu/cpu0/cache").glob("index*"):
            try:
                if (index / "level").read_text().strip() == str(level):
                    caches[f"L{level}"] = (index / "size").read_text().strip()
            except OSError:
                pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        **caches,
        "mem_total_gib": round(os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE") / 2**30, 2),
        "commit": git_commit(),
        "src_sha256": source_digest(),
    }


def git_commit():
    """HEAD commit when the checkout is a git work tree, else None."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref = (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return None


def source_digest():
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "rotbell").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def measure(name, seed, seconds, deadline):
    setups = [spawn(name, seed, 0, "setup", deadline)["setup_s"]
              for _ in range(SETUP_SAMPLES - 1)]
    res = spawn(name, seed, seconds, "measure", deadline)
    setups.append(res["setup_s"])
    times = res["times"]
    # each command's wall time over the reference kernel's just before it
    ratios = [t / r for t, r in zip(times, res["refs"])]
    values = {
        "op_ref_p50": statistics.median(ratios),
        "op_ref_p90": p90(ratios),
        "ops_per_ref": len(ratios) / sum(ratios),
        "setup_s": statistics.median(setups),
        "peak_rss_mib": res["peak_rss_kib"] / 1024.0,
        "success_ratio": (res["attempted"] - res["failed"]) / res["attempted"],
    }
    what, nbytes = res["largest_array"]
    info = {
        "workload": name, "size": WORKLOADS[name].size, "largest_array": what,
        "largest_array_bytes": nbytes, "rusage_p50": res["rusage_p50"],
        "wall": {"op_s_p50": statistics.median(times), "op_s_p90": p90(times),
                 "ops_per_s": len(times) / sum(times),
                 "ref_ms_p50": 1e3 * statistics.median(res["refs"])},
        "ops": len(times), "beyond_p90": sum(x > values["op_ref_p90"] for x in ratios),
        "setup_samples": len(setups), "env": {**res["env"], **machine()},
    }
    metrics = {k: {"value": values[k], "unit": unit} for k, unit in END_TO_END}
    return res, metrics, info


def trace(name, seed, seconds, deadline):
    res = spawn(name, seed, seconds, "trace", deadline)
    values = dict(res["layers"])
    values["trace.overhead_ms"] = 1e3 * (
        statistics.median(res["traced_times"]) - statistics.median(res["untraced_times"])
    )
    values["op.minflt"] = res["rusage_p50"]["minflt"]
    mean_traced_ms = 1e3 * statistics.fmean(res["traced_times"])
    values["trace.layers_pct"] = 100.0 * (1.0 - values["cli.main.self_ms"] / mean_traced_ms)
    values["host.ref_ms"] = 1e3 * statistics.median(res["refs"])
    info = {"workload": name, "untraced_ops": len(res["untraced_times"]),
            "traced_ops": len(res["traced_times"]), "rusage_p50": res["rusage_p50"]}
    metrics = {k: {"value": values[k], "unit": unit} for k, unit, _ in metric_names()}
    return res, metrics, info


def run_one(name, seed, seconds, traced):
    deadline = time.monotonic() + DEADLINE_S
    res, metrics, info = (trace if traced else measure)(name, seed, seconds, deadline)
    info["reasons"] = res["reasons"]
    result = {
        "correct": res["wrong"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": metrics,
    }
    return result, info


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = p.parse_args(argv)
    if not (ROOT / "src" / "rotbell" / "__init__.py").is_file():
        print(f"error: no rotbell package under {ROOT / 'src'}", file=sys.stderr)
        return 2

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    try:
        for name in names:
            result, info = run_one(name, args.seed, args.seconds, bool(args.trace))
            print("# " + json.dumps(info, sort_keys=True))
            results[name] = result
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.workload != "all":
        print(json.dumps(results[args.workload]))
        return 0
    print(f"# {'workload':<13} {'metric':<36} {'value':>14}  unit")
    for name, result in results.items():
        print(f"# {name:<13} {'correct / attempted / failed':<36} "
              f"{str(result['correct']):>14}  {result['attempted']} / {result['failed']}")
        for metric, m in result["metrics"].items():
            print(f"# {name:<13} {metric:<36} {m['value']:>14.6g}  {m['unit']}")
    print(json.dumps(results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
