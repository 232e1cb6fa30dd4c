import importlib.util
import os
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BATTERY = ROOT / "tools" / "battery.py"
_spec = importlib.util.spec_from_file_location("_battery", BATTERY)
battery = importlib.util.module_from_spec(_spec)  # its case tables name the golden's entries
_spec.loader.exec_module(battery)
# every CLI command and library probe of tools/battery.py, pinned by one golden
GOLDEN = battery.parse((ROOT / "tests" / "golden" / "battery.txt").read_text())

ACCEPTANCE_LINES = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in sorted(set(ACCEPTANCE_LINES)):
            terminalreporter.write_line(line)


def child_env(**extra):
    """This process's environment, with the checkout's ``src`` first on PYTHONPATH."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return {**env, **extra}


@pytest.fixture(scope="session")
def battery_runs():
    # each run is a child, as when the battery is run by hand; the three runs go
    # side by side.  The golden-output tests read the host child's blocks, so
    # warnings are errors there, as under pytest's filter (the demos ran under
    # -W error), and BLAS runs two threads, not the battery's default one.
    # numpy only warns when it cannot disable a feature, so the baseline-SIMD
    # child makes that warning an error
    kernels = {"host": {"PYTHONWARNINGS": "error", "OPENBLAS_NUM_THREADS": "2"},
               "Prescott": {"OPENBLAS_CORETYPE": "Prescott"},
               "baseline SIMD": {"NPY_DISABLE_CPU_FEATURES": "X86_V3 X86_V4 AVX512_ICL AVX512_SPR",
                                 "PYTHONWARNINGS": "error::ImportWarning"}}
    # a thread per child drains its pipes, since each prints more than a pipe
    # holds; every child is reaped before the first comparison can fail
    with ThreadPoolExecutor(len(kernels)) as pool:
        runs = {name: pool.submit(subprocess.run, [sys.executable, str(BATTERY)],
                                  env=child_env(**env), capture_output=True, text=True,
                                  timeout=300)
                for name, env in kernels.items()}
    return {name: (r.result().stdout, r.result().stderr, r.result().returncode)
            for name, r in runs.items()}


@pytest.fixture(scope="session")
def pinned(battery_runs):
    """Check one entry's digest line and readable block from the host run against the golden."""
    host = battery.parse(battery_runs["host"][0])

    def check(*words):
        label = " ".join(words)
        assert host[label] == GOLDEN[label]
    return check
