"""Workload definitions: seeded inputs, expected values and output checkers.

Every workload is a pool of CLI commands (``Op``) generated from a seed.  The
program only ever sees the generated argv and input files; the expected
values travel alongside in ``Op.expect`` and are computed here with plain
numpy from the generated terms, never through ``rotbell``.

A checker returns ``None`` when the output is right and a one-line reason
otherwise; it may raise KeyError, IndexError, TypeError or ValueError on
output it cannot parse.  The exit code is judged by the caller.
"""

from __future__ import annotations

import csv
import io
import json
import math
import re
from dataclasses import dataclass, field

import numpy as np

# Relative tolerance for printed values against the closed forms.  The CLI
# prints 12 significant digits, so a correct value is within 5e-12.
REL_TOL = 1e-9

# Tolerances of the identity checks in rotbell.oracle (trace equivalence,
# dual and quadrature norms, grid soundness), applied to the printed values
# where the output format does not print identity_ok itself.
TRACE_EQUIV_TOL = 1e-12
NORM_REL_TOL = 1e-9
SOUNDNESS_TOL = 1e-9

ORACLE_FORMATS = ("json", "text", "csv")

# Commands in each workload's input pool; the closed loop cycles through it.
KET_POOL = 6  # two of each ket family
ORACLE_POOL = 6  # pure and mixed alternate and formats rotate: every pairing once
SWEEP_POOL = 2  # one GHZ-type and one W-type ket
ZOO_POOL = 4
SWEEP_STEPS = 11  # noise levels per sweep, V = 0, 0.1, ..., 1
COMPLEMENT_PAIRS = 4  # bitstring/complement pairs in a complement-closed ket


@dataclass(frozen=True)
class Op:
    """One CLI command: argv, input files to write first, and expected values."""

    argv: tuple
    expect: dict
    files: dict = field(default_factory=dict)  # file name -> text, in the work dir
    label: str = ""

    def serialized(self):
        """Canonical bytes of everything the program sees, for determinism checks."""
        return json.dumps([list(self.argv), sorted(self.files.items())]).encode()


# ---------------------------------------------------------------------------
# sparse kets and their closed forms


def _complex(rng):
    z = rng.standard_normal(2)
    return complex(float(z[0]), float(z[1]))


def ghz_terms(rng, n):
    """a|0..0> + b|1..1> with random complex a, b."""
    return {0: _complex(rng), (1 << n) - 1: _complex(rng)}


def w_terms(rng, n):
    """Sum over single excitations with random phases; its profile is zero for n >= 3."""
    phases = rng.uniform(0.0, 2.0 * math.pi, size=n)
    return {1 << (n - 1 - j): complex(math.cos(p), math.sin(p)) for j, p in enumerate(phases)}


def complement_closed_terms(rng, n):
    """Random complex weights on a few bitstrings x and their complements ~x."""
    half = 1 << (n - 1)
    xs = rng.choice(half, size=min(COMPLEMENT_PAIRS, half), replace=False)
    terms = {}
    for x in xs:
        terms[int(x)] = _complex(rng)
        terms[int(x) ^ ((1 << n) - 1)] = _complex(rng)
    return terms


KET_FAMILIES = (ghz_terms, w_terms, complement_closed_terms)


def _num(x):
    return repr(float(x))


def render_ket(terms, n):
    """Ket expression in the CLI grammar; float repr keeps every coefficient exact."""
    parts = []
    for idx in sorted(terms):
        c = terms[idx]
        sign = "-" if c.imag < 0 else "+"
        parts.append(f"({_num(c.real)}{sign}{_num(abs(c.imag))}i)*|{idx:0{n}b}>")
    return " + ".join(parts)


def closed_forms(profile, n):
    """e_max, ||E||^2 and r of an antidiagonal profile (the paper's closed forms)."""
    moduli = np.abs(np.asarray(profile, dtype=complex))
    e_max = float(2.0 * moduli.sum())
    norm_squared = float(2.0 * (2.0 * math.pi) ** n * (moduli**2).sum())
    r = norm_squared / (4.0**n * e_max) if e_max > 0 else 0.0
    return {"e_max": e_max, "norm_squared": norm_squared, "r": r}


def ket_closed_forms(terms, n):
    """Closed forms of a sparse ket, from its terms alone.

    The profile entry of x (top bit 0) is c_x * conj(c_~x) / sum |c|^2.  For a
    GHZ-type ket this gives r = (pi/2)^n |a||b| / (|a|^2 + |b|^2).
    """
    norm2 = sum(abs(c) ** 2 for c in terms.values())
    full = (1 << n) - 1
    half = 1 << (n - 1)
    profile = [
        c * terms.get(x ^ full, 0j).conjugate() / norm2 for x, c in terms.items() if x < half
    ]
    return closed_forms(profile, n)


# ---------------------------------------------------------------------------
# numeric comparison and output parsing


def _close(got, want):
    return math.isclose(got, want, rel_tol=REL_TOL, abs_tol=0.0)


def _mismatch(name, got, want):
    return None if _close(got, want) else f"{name}: printed {got!r}, expected {want!r}"


def _first(reasons):
    return next((r for r in reasons if r), None)


# first column of every csv header the CLI prints (analyze, oracle, sweep, zoo)
_CSV_HEADER_FIRST = {"n_qubits", "fixture", "v", "n"}


def _csv_blocks(text):
    """Split CLI csv output into blocks of row dicts, one block per header row."""
    blocks = []
    for row in csv.reader(io.StringIO(text)):
        if row and row[0] in _CSV_HEADER_FIRST:
            blocks.append([row])
        elif blocks:
            blocks[-1].append(row)
    return [[dict(zip(b[0], row)) for row in b[1:]] for b in blocks]


# ---------------------------------------------------------------------------
# ket-analyze


def ket_analyze_ops(rng, n):
    ops = []
    for i in range(KET_POOL):
        family = KET_FAMILIES[i % len(KET_FAMILIES)]
        terms = family(rng, n)
        ops.append(Op(
            argv=("analyze", "--ket", render_ket(terms, n), "--format", "json"),
            expect={"n": n, **ket_closed_forms(terms, n)},
            label=family.__name__,
        ))
    return ops


def check_ket_analyze(op, out):
    report = json.loads(out)["report"]
    if report.get("n_qubits") != op.expect["n"]:
        return f"n_qubits {report.get('n_qubits')!r} != {op.expect['n']}"
    return _first(_mismatch(k, report[k], op.expect[k]) for k in ("e_max", "norm_squared", "r"))


# ---------------------------------------------------------------------------
# oracle-check


def _random_pure(rng, n):
    z = rng.standard_normal(1 << n) + 1j * rng.standard_normal(1 << n)
    return z / np.linalg.norm(z)


def _random_mixed(rng, n):
    d = 1 << n
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    m = g @ g.conj().T
    m = (m + m.conj().T) / 2.0  # exactly Hermitian entry by entry
    return m / np.trace(m).real


def _pairs(arr):
    return [[float(z.real), float(z.imag)] for z in arr]


def oracle_check_ops(rng, n):
    """Pure and mixed states alternate and formats rotate."""
    d = 1 << n
    ops = []
    for i in range(ORACLE_POOL):
        if i % 2 == 0:
            psi = _random_pure(rng, n)
            obj = {"n": n, "kind": "pure", "amplitudes": _pairs(psi)}
            profile = psi[: d // 2] * np.conj(psi[::-1][: d // 2])
        else:
            rho = _random_mixed(rng, n)
            obj = {"n": n, "kind": "density", "matrix": [_pairs(row) for row in rho]}
            profile = np.fliplr(rho).diagonal()[: d // 2]
        fmt = ORACLE_FORMATS[i % len(ORACLE_FORMATS)]
        name = f"state{i}.json"
        ops.append(Op(
            argv=("analyze", "--oracle", "--input", name, "--format", fmt),
            expect={"n": n, "format": fmt, "r": closed_forms(profile, n)["r"]},
            files={name: json.dumps(obj)},
            label=f"{obj['kind']}-{fmt}",
        ))
    return ops


_TEXT_R = re.compile(r"^r: (\S+)$", re.M)
_TEXT_ORACLE = re.compile(r"^oracle \S+: trace=(\S+) dual=(\S+) quad=(\S+) gap=(\S+) ", re.M)


def _identities_hold(trace, dual, quad, gap):
    return (
        trace <= TRACE_EQUIV_TOL and dual <= NORM_REL_TOL and quad <= NORM_REL_TOL
        and gap >= -SOUNDNESS_TOL
    )


def check_oracle_check(op, out):
    fmt = op.expect["format"]
    want = op.expect["r"]
    if fmt == "json":
        payload = json.loads(out)
        r, identity_ok = payload["report"]["r"], payload["oracle"]["identity_ok"]
        return _mismatch("r", r, want) or (None if identity_ok is True else "identity_ok is not true")
    if fmt == "text":
        m_r, m_o = _TEXT_R.search(out), _TEXT_ORACLE.search(out)
        if not m_r or not m_o:
            return "text output lacks the r line or the oracle line"
        if not _identities_hold(*(float(x) for x in m_o.groups())):
            return f"oracle identity check failed: {m_o.group(0).strip()}"
        return _mismatch("r", float(m_r.group(1)), want)
    blocks = _csv_blocks(out)
    if not blocks or not blocks[0]:
        return "csv output lacks the report rows"
    bad = _first(_mismatch("r", float(row["r"]), want) for row in blocks[0])
    if bad:
        return bad
    if len(blocks) < 2 or len(blocks[1]) != 1:
        return "csv output lacks the oracle row"
    return None if blocks[1][0].get("identity_ok") == "true" else "identity_ok is not true"


# ---------------------------------------------------------------------------
# noise-sweep


def noise_sweep_ops(rng, n):
    ops = []
    for i in range(SWEEP_POOL):
        family = (ghz_terms, w_terms)[i % 2]
        terms = family(rng, n)
        ops.append(Op(
            argv=("sweep", "--ket", render_ket(terms, n), "--steps", str(SWEEP_STEPS),
                  "--format", "csv"),
            expect={"steps": SWEEP_STEPS, "r": ket_closed_forms(terms, n)["r"]},
            label=family.__name__,
        ))
    return ops


def check_noise_sweep(op, out):
    blocks = _csv_blocks(out)
    steps = op.expect["steps"]
    if len(blocks) != 1 or len(blocks[0]) != steps:
        return f"expected one csv block of {steps} rows"
    for i, row in enumerate(blocks[0]):
        v = i / (steps - 1)
        bad = _mismatch("v", float(row["v"]), v) or _mismatch(
            f"r(V={v:g})", float(row["r"]), v * op.expect["r"]
        )
        if bad:
            return bad
    return None


# ---------------------------------------------------------------------------
# ksep-zoo


def ksep_zoo_ops(rng, nmin, nmax, samples):
    seeds = rng.integers(0, 2**31, size=ZOO_POOL)
    return [
        Op(
            argv=("zoo", "--nmin", str(nmin), "--nmax", str(nmax), "--samples", str(samples),
                  "--seed", str(int(s)), "--format", "csv"),
            expect={"nmin": nmin, "nmax": nmax},
            label=f"seed{int(s)}",
        )
        for s in seeds
    ]


def check_ksep_zoo(op, out):
    blocks = _csv_blocks(out)
    want = [(n, k) for n in range(op.expect["nmin"], op.expect["nmax"] + 1) for k in range(1, n + 1)]
    if len(blocks) != 1 or len(blocks[0]) != len(want):
        return f"expected one csv block of {len(want)} rows"
    for row, (n, k) in zip(blocks[0], want):
        if (int(row["n"]), int(row["k"])) != (n, k):
            return f"row (n, k) = ({row['n']}, {row['k']}), expected ({n}, {k})"
        if row["sampled_within_bound"] != "true":
            return f"n={n} k={k}: sampled_within_bound is {row['sampled_within_bound']!r}"
        bad = _mismatch(f"n={n} ghz_r", float(row["ghz_r"]), 0.5 * (math.pi / 2) ** n) or _mismatch(
            f"n={n} k={k} r_k_sep_max", float(row["r_k_sep_max"]), 2.0**-k * (math.pi / 2) ** n
        )
        if bad:
            return bad
    return None


# ---------------------------------------------------------------------------
# registry


@dataclass(frozen=True)
class Workload:
    name: str
    make: object  # (rng, **size) -> list[Op]
    check: object  # (op, stdout) -> reason or None
    size: dict  # default sizes passed to make; the only keys a caller may override
    largest_array: object  # (cli, **size) -> (description, bytes), computed from shapes

    def sizes(self, **size):
        """The default sizes with ``size`` applied; unknown keys are an error."""
        unknown = sorted(set(size) - set(self.size))
        if unknown:
            raise ValueError(f"{self.name} has no size {', '.join(unknown)}; "
                             f"it takes {', '.join(self.size)}")
        return {**self.size, **size}

    def ops(self, seed, **size):
        """The seeded input pool; the same seed gives byte-identical inputs."""
        index = list(WORKLOADS).index(self.name)
        rng = np.random.default_rng([int(seed), index])
        return self.make(rng, **self.sizes(**size))


def _oracle_grid(cli, n):
    """The CLI oracle's grid of complex E values, sized by the program's own fit rule."""
    from rotbell.oracle import _fit_points

    cfg = cli._ORACLE_CONFIG
    pts = _fit_points(cfg.points_per_axis, n, cfg.refinement_rounds, cfg.max_evaluations)
    return f"grid of E values ({pts}^{n})", 16 * pts**n


# Registry order is part of each workload's input seed (see Workload.ops).
# Each size keeps a command near 0.25 s on a 2-CPU host, so that a 25 s run
# holds about 100 commands and at least ten of them lie beyond p90.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("ket-analyze", ket_analyze_ops, check_ket_analyze, {"n": 22},
                 lambda cli, n: ("amplitude vector", 16 << n)),
        Workload("oracle-check", oracle_check_ops, check_oracle_check, {"n": 4}, _oracle_grid),
        Workload("noise-sweep", noise_sweep_ops, check_noise_sweep, {"n": 8},
                 lambda cli, n: ("density matrix", 16 << (2 * n))),
        Workload("ksep-zoo", ksep_zoo_ops, check_ksep_zoo, {"nmin": 6, "nmax": 7, "samples": 5},
                 lambda cli, nmax, **_: ("density matrix", 16 << (2 * nmax))),
    )
}
