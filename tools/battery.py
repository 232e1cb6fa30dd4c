"""Byte-identity battery: a fixed list of CLI commands, one digest line per command.

Runs every command in this process through ``rotbell.cli.main`` from the
checkout's own ``src`` and prints, per command, the exit code, the sha256 of
stdout, the sha256 of stderr and the command line:

    python3 tools/battery.py > after.txt

Run it on two checkouts and diff the outputs; an empty diff means every
command printed the same bytes and exited the same way.  The input files
(seeded dense pure and density states, malformed and deeply nested JSON) are
written into a temporary working directory first, so json reports echo the
same relative paths on every run.  BLAS runs one thread unless
``OPENBLAS_NUM_THREADS`` is set; set ``OPENBLAS_CORETYPE`` (for example to
``Prescott``) to compare under another OpenBLAS kernel.
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

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")  # before numpy loads OpenBLAS
os.environ["COLUMNS"] = "80"  # argparse wraps --help to the terminal width
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402

from rotbell.cli import main  # noqa: E402
from rotbell.states import random_density_matrix, random_pure_state, state_to_json  # noqa: E402

FORMATS = ("json", "csv", "text")
GHZ3 = "|000>+|111>"
COMPLEX = "(0.3+0.7i)*|0110> - (1.2-0.4i)*|1001> + 0.5*|0000>"
W3 = "|001> + |010> + |100>"


def _ket(n, terms):
    """A ket on n qubits with the given (coefficient, basis index) terms."""
    return " + ".join(f"{c}*|{x:0{n}b}>" for c, x in terms)


KET24 = _ket(24, [("(0.6+0.2i)", 0), ("(-0.3+0.7i)", (1 << 24) - 1), ("0.5", 5)])
KET40 = _ket(40, [("1", 0), ("1", (1 << 40) - 1)])
# its 1e-200 term's profile element underflows to 0 in the smallest steps of a sweep, the other not
UNDERFLOW = "(0.3+0.1i)*|000> + 1e-200*|111> + 0.5*|001> + (0+0.7i)*|110>"

# name -> text of each input file
FILES = {
    "pure4.json": json.dumps(state_to_json(random_pure_state(4, np.random.default_rng(11)))),
    "pure10.json": json.dumps(state_to_json(random_pure_state(10, np.random.default_rng(43)))),
    "dens3.json": json.dumps(state_to_json(random_density_matrix(3, np.random.default_rng(5)))),
    "dens6.json": json.dumps(state_to_json(random_density_matrix(6, np.random.default_rng(47)))),
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
        for ket in (GHZ3, COMPLEX, W3, KET24, KET40):
            runs.append((["analyze", "--ket", ket, *f], None))
        runs += [
            (["analyze", "--ket", COMPLEX, "--details", *f], None),
            (["analyze", "--ket", GHZ3, "--oracle", *f], None),
            (["analyze", "--input", "pure4.json", "--oracle", *f], None),
            (["analyze", "--input", "dens3.json", "--oracle", *f], None),
            (["analyze", "--input", "pure10.json", "--details", *f], None),
            (["analyze", "--input", "dens6.json", "--details", *f], None),
            (["analyze", "--input", "-", *f], FILES["dens3.json"]),
            (["ghz", "--n", "3", "--oracle", *f], None),
            (["ghz", "--n", "26", *f], None),
            (["sweep", "--ket", GHZ3, "--steps", "11", *f], None),
            (["sweep", "--ket", COMPLEX, "--vmin", "0.2", "--vmax", "0.9", "--steps", "8", *f],
             None),
            (["sweep", "--ket", KET24, "--steps", "1001", *f], None),
            (["sweep", "--input", "dens3.json", "--steps", "6", *f], None),
            (["sweep", "--input", "pure10.json", "--steps", "101", *f], None),
            (["sweep", "--input", "-", "--steps", "5", *f], FILES["pure4.json"]),
            (["zoo", "--nmin", "1", "--nmax", "7", "--samples", "5", "--seed", "3", *f], None),
            (["zoo", "--nmin", "11", "--nmax", "13", "--samples", "3", *f], None),
            (["zoo", "--nmin", "30", "--nmax", "32", "--samples", "0", *f], None),
            (["verify", "--seed", "0", *f], None),
            (["verify", "--seed", "1", *f], None),
        ]
    runs += [
        (["sweep", "--input", "pure10.json", "--steps", "10001"], None),  # across stack chunks
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


def battery():
    with tempfile.TemporaryDirectory() as tmp:
        here = os.getcwd()
        os.chdir(tmp)
        try:
            for name, text in FILES.items():
                Path(name).write_text(text)
            for argv, stdin in commands():
                code, out, err = run(argv, stdin)
                label = " ".join(argv) + (" < stdin" if stdin is not None else "")
                print(f"{code} {_sha(out)} {_sha(err)} {label}", flush=True)
        finally:
            os.chdir(here)


if __name__ == "__main__":
    battery()
