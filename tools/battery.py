"""Byte-identity battery: a fixed list of CLI commands and library probes, the one golden.

Runs every command in this process through ``rotbell.cli.main`` from the
checkout's own ``src`` and prints, per command, a line with the exit code, the
sha256 of stdout, the sha256 of stderr and the command line.  Under that line
comes the command's block: its exact stdout, each line behind ``| ``, then its
exact stderr, each line behind ``! `` (an empty line is a bare ``|`` or
``!``), whenever the two together hold at most 16 KiB and end their last
lines.  Fourteen outputs are larger and pinned by their digests alone: the
json of ``analyze --details`` on the N = 12 and 16 kets and on
``haar-pure-n10.json``, the ``sweep`` of the 24-qubit ket in every format, the
10,001-step sweep, and the json of ``zoo --nmin 30 --nmax 32`` and of
``verify`` at both seeds.  Before the commands, each input file gets a line
of the same form, ``0 <sha256 of the text> <sha256 of ""> file <name>``, and
no block.

After the commands come the library probes, each with a line and block of
the same form under its label: ``grid <state> <points> <rounds> <budget>``
(the repr of ``maximize_grid``'s value and setting angles on a seeded pure or
mixed state, or its ``BudgetExceededError``), ``wire <state>`` (the compact
``json.dumps(state_to_json(s))`` and, for a pure state, ``render_ket(s)``),
``partitions n<n> k<k>`` (40 seeded ``sample_partition`` draws, one per row)
and ``demo <script>`` (the stdout of each script in ``demos/``, run in this
process).

Its output is committed as ``tests/golden/battery.txt``, and the test suite
runs the battery as three child processes and compares each with that golden:
on the host, with warnings as errors and two BLAS threads, where every line
and block must match, and under ``OPENBLAS_CORETYPE=Prescott`` and at numpy's
baseline SIMD, where exactly the entries ``tests/test_cli.py`` lists move (no
other, and each of them).  The golden-output tests read their entries' rows
from the host run.  To regenerate the golden, the one pin of the CLI's and
the library's output:

    python3 tools/battery.py > tests/golden/battery.txt

Regenerate it only for an intended change of output, in the same commit; its
diff shows each moved digit, and CHANGES.md lists the entries that moved.
It pins this host's Python 3.11 argparse text and OpenBLAS kernel.

The input files (seeded dense pure and density states, malformed and deeply
nested JSON) are written into a temporary working directory first, so json
reports echo the same relative paths on every run.  The pure state files are
``random_pure_state``'s own draws, whose norms are numpy sums.  The density
files hold the normals of ``random_density_matrix`` with the product G G^dag
summed by numpy (``_density``), because that function's product is BLAS's,
whose roundoff depends on the kernel.  So every input file is the same bytes
under any OpenBLAS kernel, as its file line pins.  BLAS runs one thread unless
``OPENBLAS_NUM_THREADS`` is set; set ``OPENBLAS_CORETYPE`` to compare under
another OpenBLAS kernel.  Importing this module runs no command and sets
nothing: the tests read its case tables, which name their entries.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import runpy
import sys
import tempfile
from functools import partial
from pathlib import Path

if __name__ == "__main__":
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")  # before numpy loads OpenBLAS
    os.environ["COLUMNS"] = "80"  # argparse wraps --help to the terminal width
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402

from rotbell.cli import main  # noqa: E402
from rotbell.oracle import BudgetExceededError, GridSearchConfig, maximize_grid  # noqa: E402
from rotbell.separability import sample_partition  # noqa: E402
from rotbell.states import (DensityMatrix, PureState, random_density_matrix,  # noqa: E402
                            random_pure_state, render_ket, state_to_json)

DEMOS = Path(__file__).resolve().parent.parent / "demos"

FORMATS = ("json", "csv", "text")
GHZ3 = "|000>+|111>"
COMPLEX = "(0.3+0.7i)*|0110> - (1.2-0.4i)*|1001> + 0.5*|0000>"

# the kets of analyze --ket --details, by name
GOLDEN_KETS = {
    "ghz-type": "(0.6+0.2i)*|0000> - 0.8*|1111>",
    "w": "|001> + |010> + |100>",
    "complement-closed": (
        "(0.3+0.7i)*|0110> - (1.2-0.4i)*|1001> + (0.5-0.1i)*|0011> + (-0.2+0.9i)*|1100>"
    ),
    "repeated": "|01> + 0.5*|10> + |01> - (0.25+1i)*|10>",
    "leading-sign": "-|000> + (0.5-0.5i)|111>",
    "signed-parts": "(1 - -2i)|00> + (-0.5 + +1.5i)*|11>",
    "scale-huge": "1e200|00>+1e200|11>",
    "scale-tiny": "1e-170|00>+1e-170|11>",
}


def large_kets(n):
    """GHZ-type, W-type and 4-pair complement-closed kets on n >= 5 qubits."""
    full = (1 << n) - 1
    lo = ["(0.3+0.7i)", "(0.5-0.1i)", "(-0.2+0.9i)", "(1.1+0.4i)"]
    hi = ["(-1.2+0.4i)", "(0.8+0.3i)", "(0.25-0.6i)", "(-0.7-0.9i)"]
    xs = [1, 6, 1 << (n - 3), (1 << (n - 2)) | 3]
    return {
        "ghz-type": f"(0.6+0.2i)*|{0:0{n}b}> + (-0.3+0.7i)*|{full:0{n}b}>",
        "w": " + ".join(f"({1 + j % 4}-0.{j % 7 + 1}i)*|{1 << j:0{n}b}>" for j in range(n)),
        "complement-closed": " + ".join(
            f"{a}*|{x:0{n}b}> + {b}*|{full ^ x:0{n}b}>" for a, b, x in zip(lo, hi, xs)
        ),
    }


# the kets of analyze --ket at N = 12 and 20, by name
LARGE_KETS = {f"{name}-n{n}": ket for n in (12, 20) for name, ket in large_kets(n).items()}


def _ket(n, terms):
    """A ket on n qubits with the given (coefficient, basis index) terms."""
    return " + ".join(f"{c}*|{x:0{n}b}>" for c, x in terms)


KET24 = _ket(24, [("(0.6+0.2i)", 0), ("(-0.3+0.7i)", (1 << 24) - 1), ("0.5", 5)])
KET40 = _ket(40, [("1", 0), ("1", (1 << 40) - 1)])
# its 1e-200 term's profile element underflows to 0 in the smallest steps of a sweep, the other not
UNDERFLOW = "(0.3+0.1i)*|000> + 1e-200*|111> + 0.5*|001> + (0+0.7i)*|110>"

# sweep, zoo and ghz commands, by name
GOLDEN_CASES = {
    "sweep-ghz3": ("sweep", "--ket", GHZ3, "--steps", "11"),
    "sweep-complex": ("sweep", "--ket", COMPLEX, "--vmin", "0.2", "--vmax", "0.9", "--steps", "8"),
    "sweep-density": ("sweep", "--input", "dens3.json", "--steps", "6"),
    "zoo": ("zoo", "--nmin", "2", "--nmax", "4", "--samples", "3", "--seed", "7"),
    "zoo-n6-7": ("zoo", "--nmin", "6", "--nmax", "7", "--samples", "5", "--seed", "11"),
    "zoo-n8-10": ("zoo", "--nmin", "8", "--nmax", "10", "--samples", "5", "--seed", "12"),
    **{f"ghz-n{n}": ("ghz", "--n", str(n)) for n in (6, 7, 20, 26)},
}
# the brute-force oracle routes, by name: verify's product fixtures and analyze/ghz --oracle
ORACLE_CASES = {
    "pure4-oracle": ("analyze", "--input", "pure4.json", "--oracle"),
    "mixed3-oracle": ("analyze", "--input", "dens3.json", "--oracle"),
    **{f"ghz{n}-oracle": ("ghz", "--n", str(n), "--oracle") for n in range(1, 6)},
    "verify-seed0": ("verify", "--seed", "0"),
}

# the sources of analyze --details at N = 6..16, by name
DETAILS_CASES = {
    **{f"{name}-n{n}": ("--ket", ket) for n in (12, 16) for name, ket in large_kets(n).items()},
    **{name: ("--input", f"{name}.json") for name in ("haar-pure-n10", "density-n6")},
}
# zoo's sampled maxima: every N = 1..10 row at two seeds, and the
# N = 6..7 pool of the ksep-zoo workload at three seeds
ZOO_CASES = {
    **{f"n1-10-seed{s}": ("--nmin", "1", "--nmax", "10", "--samples", "20", "--seed", str(s))
       for s in (0, 1)},
    **{f"n6-7-seed{s}": ("--nmin", "6", "--nmax", "7", "--samples", "5", "--seed", str(s))
       for s in (0, 1234567, 2**31 - 1)},
}


def _density(n, seed):
    """``random_density_matrix(n, np.random.default_rng(seed))``, its product summed by numpy."""
    d = 1 << n
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    m = (g[:, None, :] * g.conj()).sum(axis=-1)
    return DensityMatrix(n, m / np.trace(m))


# name -> text of each input file
FILES = {
    "pure4.json": json.dumps(state_to_json(random_pure_state(4, np.random.default_rng(11)))),
    "haar-pure-n10.json": json.dumps(
        state_to_json(random_pure_state(10, np.random.default_rng((43, 10))))),
    "dens3.json": json.dumps(state_to_json(_density(3, 5))),
    "density-n6.json": json.dumps(state_to_json(_density(6, (47, 6)))),
    "broken.json": '{"n": 2, "kind": "pure", "amplitudes": [[1, 0]',
    "deep.json": "[" * 5000 + "]" * 5000,
    "deep-objects.json": '{"a":' * 5000 + "1" + "}" * 5000,
    "unnormalised.json": '{"n": 1, "kind": "pure", "amplitudes": [[1, 0], [1, 0]]}',
}


# refusals: exit 1 and one error line, or a usage error
REFUSALS = [
    (["nosuch"], None),
    (["analyze"], None),
    (["analyze", "--ket", GHZ3, "--input", "pure4.json"], None),
    (["analyze", "--ket", "|012>"], None),
    (["analyze", "--ket", "0*|00>"], None),
    (["analyze", "--ket", "1.7e308|0>+1.7e308|1>", "--format", "json"], None),
    (["analyze", "--ket", "|" + "0" * 64 + ">"], None),
    (["analyze", "--ket", "|" + "0" * 40 + ">", "--oracle"], None),
    (["analyze", "--input", "missing.json"], None),
    (["analyze", "--input", "broken.json"], None),
    (["analyze", "--input", "unnormalised.json"], None),
    (["analyze", "--input", "deep.json"], None),
    (["analyze", "--input", "deep-objects.json"], None),
    (["analyze", "--input", "-"], FILES["deep.json"]),
    (["sweep", "--input", "deep.json"], None),
    (["sweep", "--input", "-"], FILES["deep-objects.json"]),
    (["sweep", "--ket", GHZ3, "--vmin", "0.8", "--vmax", "0.2"], None),
    (["sweep", "--ket", GHZ3, "--vmax", "1.5"], None),
    (["sweep", "--ket", GHZ3, "--steps", "1"], None),
    (["sweep", "--ket", GHZ3, "--steps", "10002"], None),
    (["ghz", "--n", "0"], None),
    (["ghz", "--n", "64"], None),
    (["ghz", "--n", "40", "--oracle"], None),
    (["zoo", "--nmin", "0"], None),
    (["zoo", "--nmin", "3", "--nmax", "2"], None),
    (["zoo", "--samples", "-1"], None),
    (["zoo", "--seed", "-1"], None),
    (["zoo", "--nmin", "27", "--nmax", "27", "--samples", "1"], None),
    (["verify", "--seed", "-1"], None),
    (["verify", "--format", "xml"], None),
]


def commands():
    """The fixed battery: (argv, stdin text or None)."""
    runs = [([], None), (["--help"], None)]
    runs += [([cmd, "--help"], None) for cmd in ("analyze", "ghz", "sweep", "zoo", "verify")]
    for fmt in FORMATS:
        f = ["--format", fmt]
        for ket in (GHZ3, COMPLEX, GOLDEN_KETS["w"], KET24, KET40, *LARGE_KETS.values()):
            runs.append((["analyze", "--ket", ket, *f], None))
        for ket in (COMPLEX, *GOLDEN_KETS.values()):
            runs.append((["analyze", "--ket", ket, "--details", *f], None))
        runs += [(["analyze", *src, "--details", *f], None) for src in DETAILS_CASES.values()]
        runs += [
            (["analyze", "--ket", GHZ3, "--oracle", *f], None),
            (["analyze", "--input", "-", *f], FILES["dens3.json"]),
            (["sweep", "--ket", KET24, "--steps", "1001", *f], None),
            (["sweep", "--input", "haar-pure-n10.json", "--steps", "101", *f], None),
            (["sweep", "--input", "-", "--steps", "5", *f], FILES["pure4.json"]),
            (["zoo", "--nmin", "1", "--nmax", "7", "--samples", "5", "--seed", "3", *f], None),
            (["zoo", "--nmin", "11", "--nmax", "13", "--samples", "3", *f], None),
            (["zoo", "--nmin", "30", "--nmax", "32", "--samples", "0", *f], None),
            (["verify", "--seed", "1", *f], None),
        ]
        runs += [([*argv, *f], None) for argv in ORACLE_CASES.values()]
        runs += [([*argv, *f], None) for argv in GOLDEN_CASES.values()]
        runs += [(["zoo", *argv, *f], None) for argv in ZOO_CASES.values()]
    runs += [(["analyze", "--input", name, "--details", "--format", "json"], None)
             for name in ("pure4.json", "dens3.json")]
    runs += [(["analyze", *src, "--oracle", "--details", "--format", "json"], None)
             for src in (("--ket", GHZ3), ("--input", "pure4.json"))]
    runs += [
        (["sweep", "--input", "haar-pure-n10.json", "--steps", "10001"], None),  # across chunks
        (["sweep", "--ket", UNDERFLOW, "--vmin", "0", "--vmax", "1e-123", "--steps", "5"], None),
    ]
    runs += REFUSALS
    return runs


# grid searches from the floor of 8 points per axis up to 64 points and 10^7
# evaluations, as (points_per_axis, refinement_rounds, max_evaluations), on
# seeded pure and mixed states of 1 to 5 qubits
GRID_CONFIGS = [(8, 0, 512), (13, 1, 100_000), (24, 3, 2_000_000), (32, 3, 4_000_000),
                (64, 3, 10_000_000)]
GRID_STATES = [f"{kind}{n}" for kind in ("pure", "mixed") for n in range(1, 6)]


def _grid(name, config):
    make, seed = {"pure": (random_pure_state, 31), "mixed": (random_density_matrix, 37)}[name[:-1]]
    n = int(name[-1])
    try:
        value, setting = maximize_grid(make(n, np.random.default_rng((seed, n))),
                                       GridSearchConfig(*config))
    except BudgetExceededError as exc:
        print(f"BudgetExceededError: {exc}")
    else:
        print("value", repr(value))
        print("setting", *map(repr, setting.tolist()))


# the wire format: the [re, im] pairs of state_to_json and the terms of render_ket
WIRE_STATES = {
    **{f"pure{n}": random_pure_state(n, np.random.default_rng((23, n))) for n in range(1, 5)},
    **{f"density{n}": random_density_matrix(n, np.random.default_rng((29, n)))
       for n in range(1, 4)},
    "signed-zeros": PureState(2, [complex(0.6, -0.0), complex(-0.0, 0.0),
                                  complex(-0.0, -0.0), complex(-0.0, -0.8)]),
}


def _wire(state):
    print(json.dumps(state_to_json(state)))
    if isinstance(state, PureState):
        print(render_ket(state))


def _partitions(n, k, draws=40):
    """The blocks of ``draws`` seeded sample_partition calls, one partition per row."""
    rng = np.random.default_rng((n, k))
    for _ in range(draws):
        print("|".join(",".join(map(str, b)) for b in sample_partition(n, k, rng).blocks))


def _demo(path):
    runpy.run_path(str(path), run_name="__main__")


def probes():
    """The library's pins after the commands: (label, call that prints them)."""
    return [
        *((f"grid {name} {' '.join(map(str, c))}", partial(_grid, name, c))
          for name in GRID_STATES for c in GRID_CONFIGS),
        *((f"wire {name}", partial(_wire, state)) for name, state in WIRE_STATES.items()),
        *((f"partitions n{n} k{k}", partial(_partitions, n, k))
          for n in range(1, 9) for k in range(1, n + 1)),
        *((f"demo {path.name}", partial(_demo, path)) for path in sorted(DEMOS.glob("*.py"))),
    ]


def _sha(text):
    return hashlib.sha256(text.encode()).hexdigest()


def label(argv, stdin):
    return " ".join(argv) + (" < stdin" if stdin is not None else "")


def run(call, stdin=None):
    """Exit code, stdout and stderr of one in-process call, such as ``main(argv)``.

    An exception that escapes the call (a traceback, in a real process) is
    reported in place of the exit code as ``raised:<type>``.
    """
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(stdin if stdin is not None else "")
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = call()
    except Exception as exc:
        code = f"raised:{type(exc).__name__}"
    finally:
        sys.stdin = saved
    return code, out.getvalue(), err.getvalue()


def _block(out, err):
    """The readable rows under a command, or none past 16 KiB or without a final newline."""
    if len((out + err).encode()) > 16 * 1024 or not all(s.endswith("\n") for s in (out, err) if s):
        return []
    return [mark + (" " + row if row else "")
            for mark, text in (("|", out), ("!", err)) for row in text.split("\n")[:-1]]


def _pin(name, call, stdin=None):
    """The battery's rows of one call: its digest line, then its block."""
    code, out, err = run(call, stdin)
    return [f"{code} {_sha(out)} {_sha(err)} {name}", *_block(out, err)]


def parse(text):
    """The rows of a battery output keyed by label, in its order: [line, *block rows]."""
    runs, rows = {}, None
    for row in text.splitlines():
        if row.startswith(("|", "!")):
            if rows is None:
                raise ValueError(f"block row with no command line above it: {row!r}")
            rows.append(row)
            continue
        name = row.split(" ", 3)[3]
        if name in runs:
            raise ValueError(f"command {name!r} is in the battery twice")
        runs[name] = rows = [row]
    return runs


def battery():
    with tempfile.TemporaryDirectory() as tmp:
        here = os.getcwd()
        os.chdir(tmp)
        try:
            for name, text in FILES.items():
                Path(name).write_text(text)
                print(f"0 {_sha(text)} {_sha('')} file {name}", flush=True)
            for argv, stdin in commands():
                print(*_pin(label(argv, stdin), lambda: main(argv), stdin), sep="\n", flush=True)
            for name, call in probes():  # a probe returns None where main returns its code
                print(*_pin(name, lambda: call() or 0), sep="\n", flush=True)
        finally:
            os.chdir(here)


if __name__ == "__main__":
    battery()
