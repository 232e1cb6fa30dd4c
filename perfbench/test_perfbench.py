"""Self-tests of the benchmark (not part of the package's test suite).

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import worker  # noqa: E402
from tracer import Tracer, metric_names  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

TINY = {
    "ket-analyze": {"n": 6},
    "oracle-check": {"n": 3},
    "noise-sweep": {"n": 3},
    "ksep-zoo": {"nmin": 2, "nmax": 3, "samples": 2},
}


@pytest.fixture(scope="module")
def cli():
    return worker.import_cli()


def _runner(cli, name, tmp_path, seed=0):
    workload = WORKLOADS[name]
    return worker.Runner(cli, workload, workload.ops(seed, **TINY[name]), tmp_path)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_smoke_tiny(name, cli, tmp_path):
    runner = _runner(cli, name, tmp_path)
    for op in runner.ops:
        runner.step(op)
    assert runner.attempted == len(runner.ops)
    assert runner.wrong == 0, runner.reasons
    # `analyze --oracle --format csv` exits 1 at the time of writing; nothing else may fail
    assert all("-csv: exit" in reason for reason in runner.reasons), runner.reasons


def test_loop_times_the_reference_before_each_command(cli, tmp_path):
    runner = _runner(cli, "ket-analyze", tmp_path)
    times, refs = runner.loop(1e-3)  # less than one command lasts
    assert len(times) == len(refs) == len(runner.ops)  # one whole pass
    assert all(r > 0 for r in refs)
    assert runner.attempted == len(runner.ops) and runner.failed == 0


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_same_inputs(name):
    def inputs(seed):
        return b"".join(op.serialized() for op in WORKLOADS[name].ops(seed))

    assert inputs(7) == inputs(7)
    assert inputs(7) != inputs(8)


def test_only_declared_sizes_can_be_set():
    with pytest.raises(ValueError, match="no size pool"):
        WORKLOADS["ket-analyze"].ops(0, n=6, pool=2)
    with pytest.raises(ValueError, match="no size n"):
        WORKLOADS["ksep-zoo"].ops(0, n=6)


def _alter_first_decimal(text, pattern):
    """Bump the first digit after the decimal point of the number captured by ``pattern``."""
    m = re.search(pattern, text, re.M)
    assert m, pattern
    number = m.group(1)
    dot = number.index(".")
    bumped = number[: dot + 1] + str((int(number[dot + 1]) + 1) % 10) + number[dot + 2 :]
    return text[: m.start(1)] + bumped + text[m.end(1) :]


@pytest.mark.parametrize(
    "name, label, pattern",
    [
        ("ket-analyze", "ghz_terms", r'"r": (\d+\.\d+)'),
        ("oracle-check", "pure-json", r'"r": (\d+\.\d+)'),
        ("oracle-check", "density-text", r"^r: (\d+\.\d+)"),
        ("noise-sweep", "ghz_terms", r"^1,(\d+\.\d+)"),
        ("ksep-zoo", None, r"^3,2,\d+\.\d+,(\d+\.\d+)"),
    ],
)
def test_checker_flags_one_altered_digit(name, label, pattern, cli, tmp_path):
    runner = _runner(cli, name, tmp_path)
    op = next(op for op in runner.ops if label in (None, op.label))
    rc, out, _ = runner.call(op)
    assert rc == 0 and runner.judge(op, rc, out) is None
    corrupted = _alter_first_decimal(out, pattern)
    assert corrupted != out
    runner.call = lambda _op: (0, corrupted, 0.0)
    runner.step(op)
    assert (runner.failed, runner.wrong) == (1, 1), runner.reasons


def test_tracer_accounts_and_restores(cli, tmp_path):
    runner = _runner(cli, "oracle-check", tmp_path)
    original = cli.cross_validate
    tracer = Tracer()
    tracer.install()
    try:
        assert cli.cross_validate is not original  # by-name import in rotbell.cli
        _rc, _out, dt = runner.call(runner.ops[0])
    finally:
        tracer.uninstall()
    assert cli.cross_validate is original
    layers = tracer.summary(1)
    root = [s for s in tracer.spans if s[3] == -1]
    assert [s[0] for s in root] == ["cli.main"]
    # self times add up to the root span, which lies inside the measured wall time
    self_ms = sum(v for k, v in layers.items() if k.endswith(".self_ms"))
    assert self_ms == pytest.approx(1e3 * (root[0][2] - root[0][1]), rel=1e-9)
    assert self_ms <= 1e3 * dt
    assert layers["oracle.maximize_grid.calls"] == 1
    assert layers["correlation.correlation_value_trace.calls"] == 100


def test_benchmark_json_matches_reported_metrics():
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in bench["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] == metric_names()


def _bench(cwd, workload, trace):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
           "--seconds", "1", "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
def test_command_prints_every_metric(trace):
    proc = _bench(HERE.parent, "ksep-zoo", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] >= 1 and result["failed"] == 0
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    names = [m["name"] for m in bench["per_layer" if trace else "end_to_end"]]
    assert list(result["metrics"]) == names


def test_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = _bench(tmp_path, "ket-analyze", 0)
    assert proc.returncode != 0
    assert not proc.stdout.strip()
