"""Byte-identity battery: a fixed list of CLI commands, one digest line per command.

Runs every command in this process through ``rotbell.cli.main`` from the
checkout's own ``src`` and prints, per command, the exit code, the sha256 of
stdout, the sha256 of stderr and the command line.  Before the commands, each
input file gets a line of the same form, ``0 <sha256 of the text> <sha256 of
""> file <name>``.  Its output is committed as ``tests/golden/battery.txt``,
and ``tests/test_cli.py`` runs the battery as a child process against that
golden twice: on the host, where every line must match, and under
``OPENBLAS_CORETYPE=Prescott``, where only the lines the test lists may move
(no file line is among them); its ``--details`` and ``zoo`` digest tests
compare the ``line`` of their commands in the test process with the golden
too.  To regenerate the golden:

    python3 tools/battery.py > tests/golden/battery.txt

Regenerate it only for an intended change of output, in the same commit, and
list the commands whose lines moved in CHANGES.md.  Like the other goldens it
pins this host's Python 3.11 argparse text and OpenBLAS kernel.

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
nothing: the tests read its ket and case tables.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

if __name__ == "__main__":
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")  # before numpy loads OpenBLAS
    os.environ["COLUMNS"] = "80"  # argparse wraps --help to the terminal width
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402

from rotbell.cli import main  # noqa: E402
from rotbell.states import DensityMatrix, random_pure_state, state_to_json  # noqa: E402

FORMATS = ("json", "csv", "text")
GHZ3 = "|000>+|111>"
COMPLEX = "(0.3+0.7i)*|0110> - (1.2-0.4i)*|1001> + 0.5*|0000>"

# the kets of analyze --ket --details, pinned readably in tests/golden/analyze_ket.json
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


def _ket(n, terms):
    """A ket on n qubits with the given (coefficient, basis index) terms."""
    return " + ".join(f"{c}*|{x:0{n}b}>" for c, x in terms)


KET24 = _ket(24, [("(0.6+0.2i)", 0), ("(-0.3+0.7i)", (1 << 24) - 1), ("0.5", 5)])
KET40 = _ket(40, [("1", 0), ("1", (1 << 40) - 1)])
# its 1e-200 term's profile element underflows to 0 in the smallest steps of a sweep, the other not
UNDERFLOW = "(0.3+0.1i)*|000> + 1e-200*|111> + 0.5*|001> + (0+0.7i)*|110>"

# the sweep, zoo and ghz commands pinned readably in tests/golden/sweep_zoo.json
GOLDEN_CASES = {
    "sweep-ghz3": ("sweep", "--ket", GHZ3, "--steps", "11"),
    "sweep-complex": ("sweep", "--ket", COMPLEX, "--vmin", "0.2", "--vmax", "0.9", "--steps", "8"),
    "sweep-density": ("sweep", "--input", "dens3.json", "--steps", "6"),
    "zoo": ("zoo", "--nmin", "2", "--nmax", "4", "--samples", "3", "--seed", "7"),
    "zoo-n6-7": ("zoo", "--nmin", "6", "--nmax", "7", "--samples", "5", "--seed", "11"),
    "zoo-n8-10": ("zoo", "--nmin", "8", "--nmax", "10", "--samples", "5", "--seed", "12"),
    **{f"ghz-n{n}": ("ghz", "--n", str(n)) for n in (6, 7, 20, 26)},
}

# the sources of analyze --details whose json output tests/test_cli.py pins by digest
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


def commands():
    """The fixed battery: (argv, stdin text or None)."""
    runs = [([], None), (["--help"], None)]
    runs += [([cmd, "--help"], None) for cmd in ("analyze", "ghz", "sweep", "zoo", "verify")]
    for fmt in FORMATS:
        f = ["--format", fmt]
        for ket in (GHZ3, COMPLEX, GOLDEN_KETS["w"], KET24, KET40,
                    *large_kets(12).values(), *large_kets(20).values()):
            runs.append((["analyze", "--ket", ket, *f], None))
        for ket in (COMPLEX, *GOLDEN_KETS.values()):
            runs.append((["analyze", "--ket", ket, "--details", *f], None))
        runs += [(["analyze", *src, "--details", *f], None) for src in DETAILS_CASES.values()]
        runs += [
            (["analyze", "--ket", GHZ3, "--oracle", *f], None),
            (["analyze", "--input", "pure4.json", "--oracle", *f], None),
            (["analyze", "--input", "dens3.json", "--oracle", *f], None),
            (["analyze", "--input", "-", *f], FILES["dens3.json"]),
            (["ghz", "--n", "3", "--oracle", *f], None),
            (["sweep", "--ket", KET24, "--steps", "1001", *f], None),
            (["sweep", "--input", "haar-pure-n10.json", "--steps", "101", *f], None),
            (["sweep", "--input", "-", "--steps", "5", *f], FILES["pure4.json"]),
            (["zoo", "--nmin", "1", "--nmax", "7", "--samples", "5", "--seed", "3", *f], None),
            (["zoo", "--nmin", "11", "--nmax", "13", "--samples", "3", *f], None),
            (["zoo", "--nmin", "30", "--nmax", "32", "--samples", "0", *f], None),
            (["verify", "--seed", "0", *f], None),
            (["verify", "--seed", "1", *f], None),
        ]
        runs += [([*argv, *f], None) for argv in GOLDEN_CASES.values()]
        runs += [(["zoo", *argv, *f], None) for argv in ZOO_CASES.values()]
    runs += [
        (["sweep", "--input", "haar-pure-n10.json", "--steps", "10001"], None),  # across chunks
        (["sweep", "--ket", UNDERFLOW, "--vmin", "0", "--vmax", "1e-123", "--steps", "5"], None),
    ]
    runs += [  # refusals: exit 1 and one error line, or a usage error
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
    return runs


def _sha(text):
    return hashlib.sha256(text.encode()).hexdigest()


def run(argv, stdin):
    """Exit code, stdout and stderr of one in-process command.

    An exception that escapes ``main`` (a traceback, in a real process) is
    reported in place of the exit code as ``raised:<type>``.
    """
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(stdin if stdin is not None else "")
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    except Exception as exc:
        code = f"raised:{type(exc).__name__}"
    finally:
        sys.stdin = saved
    return code, out.getvalue(), err.getvalue()


def line(argv, stdin=None):
    """The battery's line of one command, run in this process and working directory."""
    code, out, err = run(argv, stdin)
    label = " ".join(argv) + (" < stdin" if stdin is not None else "")
    return f"{code} {_sha(out)} {_sha(err)} {label}"


def battery():
    with tempfile.TemporaryDirectory() as tmp:
        here = os.getcwd()
        os.chdir(tmp)
        try:
            for name, text in FILES.items():
                Path(name).write_text(text)
                print(f"0 {_sha(text)} {_sha('')} file {name}", flush=True)
            for argv, stdin in commands():
                print(line(argv, stdin), flush=True)
        finally:
            os.chdir(here)


if __name__ == "__main__":
    battery()
