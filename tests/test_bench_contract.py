"""The names the benchmark harness in perfbench/ reaches into must keep resolving.

The harness wraps rotbell callables by (module, attribute) and sizes the
oracle workload's grid with the CLI's own oracle settings and fit rule.  Its
self-tests are not part of this suite, so a renamed name would otherwise
crash every benchmark run without failing a test here.  Likewise, every
workload's seed-0 command pool must pass that workload's own output checker,
so an output change that the benchmark would count as a failed command fails
here first.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

import rotbell.cli

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"_perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


WORKLOADS = _load("workloads").WORKLOADS


@pytest.mark.parametrize("mod, attr", [entry[:2] for entry in _load("tracer").TRACED])
def test_traced_names_resolve(mod, attr):
    target = getattr(importlib.import_module(f"rotbell.{mod}"), attr)
    if isinstance(target, type):
        assert "__post_init__" in vars(target)
    else:
        assert callable(target)


def test_oracle_grid_is_sized_by_the_cli_settings():
    assert WORKLOADS["oracle-check"].largest_array(rotbell.cli, n=4) == (
        "grid of E values (24^4)",
        16 * 24**4,
    )


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_seed_zero_pool_passes_the_workload_checker(name, tmp_path, capsys):
    workload = WORKLOADS[name]
    for op in workload.ops(0):
        for file_name, text in op.files.items():
            (tmp_path / file_name).write_text(text, encoding="utf-8")
        argv = [str(tmp_path / a) if a in op.files else a for a in op.argv]
        code = rotbell.cli.main(argv)
        out = capsys.readouterr().out
        assert code == 0, op.label
        assert workload.check(op, out) is None, op.label
