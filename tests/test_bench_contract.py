"""The names the benchmark harness in perfbench/ reaches into must keep resolving.

The harness wraps rotbell callables by (module, attribute) and sizes the
oracle workload's grid with the CLI's own oracle settings and fit rule.  Its
self-tests are not part of this suite, so a renamed name would otherwise
crash every benchmark run without failing a test here.
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


@pytest.mark.parametrize("mod, attr", [entry[:2] for entry in _load("tracer").TRACED])
def test_traced_names_resolve(mod, attr):
    target = getattr(importlib.import_module(f"rotbell.{mod}"), attr)
    if isinstance(target, type):
        assert "__post_init__" in vars(target)
    else:
        assert callable(target)


def test_oracle_grid_is_sized_by_the_cli_settings():
    workloads = _load("workloads").WORKLOADS
    assert workloads["oracle-check"].largest_array(rotbell.cli, n=4) == (
        "grid of E values (24^4)",
        16 * 24**4,
    )
