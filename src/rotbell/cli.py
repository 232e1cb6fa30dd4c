"""Command-line front end: analyze states, sweep noise, tabulate thresholds, self-verify.

Exit codes: 0 success, 1 malformed input or configuration, 2 validation
failure (an oracle cross-check that should hold did not).  A usage error
prints the usage line and, under it, ``error: <what is wrong>``, and exits 1.
Output is deterministic: a fixed command line and seed produce
byte-identical output.  Numeric fields are printed with 12 significant digits.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from itertools import chain
from types import GeneratorType

import numpy as np

from .correlation import AntidiagonalProfile, antidiagonal_profile, correlation_tensor
from .oracle import BudgetExceededError, GridSearchConfig, cross_validate
from .states import (
    MAX_DENSE_QUBITS,
    MAX_PURE_QUBITS,
    MAX_TERM_QUBITS,
    _check_qubits,
    ghz_terms,
    make_ghz,
    parse_ket,
    parse_ket_info,
    random_density_matrix,
    random_pure_state,
    sample_product_terms,
    state_from_json,
    tensor_product,
)
from .witness import classify, k_sep_threshold

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_VALIDATION = 2

_ORACLE_CONFIG = GridSearchConfig()  # the grid budget of `verify` and `analyze --oracle`

# one output row per step; 1e-4 resolution in V is the finest a sweep offers
_MAX_SWEEP_STEPS = 10_001

# Longest state file read: 128 characters per [re, im] entry of the largest
# state the qubit caps allow.  In json.dumps(..., indent=2) an entry takes at
# most 84 (two 24-character float reprs with brackets, commas, newlines and
# the density nesting's indentation); the rest covers row brackets and the
# header of small states.
_MAX_INPUT_CHARS = max(1 << MAX_PURE_QUBITS, 1 << (2 * MAX_DENSE_QUBITS)) * 128


def _fmt(x):
    """12-significant-digit, locale-independent rendering."""
    if x is None:
        return ""
    if isinstance(x, str):
        return x
    if isinstance(x, (bool, np.bool_)):
        return "true" if x else "false"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return format(float(x), ".12g")


def _round_tree(obj):
    """``obj`` ready for json: its leaves take :func:`_fmt`'s ladder, numbers its 12 digits."""
    if isinstance(obj, float):  # the common leaf, tested first: --details has 2^N of them
        return float(_fmt(obj))
    if isinstance(obj, dict):
        return {k: _round_tree(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple, GeneratorType)):
        return [_round_tree(v) for v in obj]
    if obj is None or isinstance(obj, str):
        return obj
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    return float(_fmt(obj))


def _emit(fmt, payload, tables, lines):
    """Write a command's output; the only code here that writes to stdout.

    json prints ``payload``, csv prints each ``(header, rows)`` of ``tables``
    in turn, and text prints ``lines``.  Payload lists, rows and lines may be
    generators, so that only the chosen format is rendered.
    """
    if fmt == "json":
        text = json.dumps(_round_tree(payload), indent=2, sort_keys=True, allow_nan=False) + "\n"
    elif fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        for header, rows in tables:
            writer.writerow(header)
            writer.writerows(map(_fmt, row) for row in rows)
        text = buf.getvalue()
    else:
        text = "".join(line + "\n" for line in lines)
    sys.stdout.write(text)


def _table(columns, rows):
    """The json payload, csv tables and text lines of ``rows`` under ``columns``.

    ``columns`` are (csv name, text label, width).  Text cells are
    right-justified to their column's width and joined by one space; an empty
    cell prints ``-``.
    """
    names = [name for name, _, _ in columns]
    cells = chain([[label for _, label, _ in columns]],
                  ([_fmt(v) or "-" for v in row] for row in rows))
    lines = (" ".join(c.rjust(w) for c, (_, _, w) in zip(line, columns)) for line in cells)
    return {"rows": (dict(zip(names, row)) for row in rows)}, [(names, rows)], lines


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors; the exit-code contract reserves 2 for
    # validation failures, so remap usage problems to 1.
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_INPUT)


def _add_state_source(p):
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--ket", help="inline ket expression, e.g. \"|000>+|111>\"")
    src.add_argument("--input", help="path to a state JSON file, or - for stdin")


def _build_parser():
    """The argparse tree of every subcommand; built once, as ``_PARSER``.

    Each subcommand binds its ``cmd_*`` handler here, through ``set_defaults``,
    so the handlers are bound once per process: replacing a ``cmd_*`` later
    does not reach ``main``.
    """
    parser = _Parser(prog="rotbell", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("analyze", help="classify one state against the threshold ladder")
    _add_state_source(p)
    p.add_argument("--format", choices=("json", "csv", "text"), default="text")
    p.add_argument("--oracle", action="store_true", help="also run the brute-force cross-checks")
    p.add_argument(
        "--details",
        action="store_true",
        help="include the antidiagonal profile and correlation tensor (json format)",
    )
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("ghz", help="classify the n-qubit GHZ state")
    p.add_argument("--n", type=int, required=True, help="number of qubits")
    p.add_argument("--format", choices=("json", "csv", "text"), default="text")
    p.add_argument("--oracle", action="store_true")
    p.set_defaults(func=cmd_ghz)

    p = sub.add_parser("sweep", help="violation factor under white noise, over a visibility range")
    _add_state_source(p)
    p.add_argument("--vmin", type=float, default=0.0)
    p.add_argument("--vmax", type=float, default=1.0)
    p.add_argument("--steps", type=int, default=101)
    p.add_argument("--format", choices=("json", "csv", "text"), default="text")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("zoo", help="GHZ values, threshold ladder, and sampled k-separable maxima")
    p.add_argument("--nmin", type=int, default=2)
    p.add_argument("--nmax", type=int, default=6)
    p.add_argument("--samples", type=int, default=50, help="k-separable samples per (n, k); 0 disables")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--format", choices=("json", "csv", "text"), default="csv")
    p.set_defaults(func=cmd_zoo)

    p = sub.add_parser("verify", help="run the oracle battery over built-in fixtures")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--format", choices=("json", "csv", "text"), default="text")
    p.set_defaults(func=cmd_verify)

    return parser


# ---------------------------------------------------------------------------
# input handling


def _read_capped(fh):
    """All text of ``fh``, refused once it passes the cap; reads at most one character more."""
    chunks, left = [], _MAX_INPUT_CHARS + 1
    while left and (chunk := fh.read(min(left, 1 << 20))):  # one huge read() would allocate it
        chunks.append(chunk)
        left -= len(chunk)
    if not left:
        raise ValueError(f"input exceeds {_MAX_INPUT_CHARS} characters, "
                         "more than any state within the qubit caps needs")
    return "".join(chunks)


def _load_state(args):
    """The state named by --ket or --input, with its input metadata.

    A ket comes back as its named terms: everything but ``--details`` and the
    oracle runs on its sparse profile, so no 2^N vector is built for it.
    """
    if args.ket is not None:
        info = parse_ket_info(args.ket)
        meta = {
            "source": "ket",
            "normalization_applied": info.normalized,
            "input_norm": info.input_norm,
        }
        return info, meta
    if args.input == "-":
        text = _read_capped(sys.stdin)
        source = "stdin"
    else:
        with open(args.input, "r", encoding="utf-8") as fh:
            text = _read_capped(fh)
        source = args.input
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"input is not valid JSON: {exc}") from exc
    return state_from_json(obj), {"source": source}


# ---------------------------------------------------------------------------
# report rendering


_ANALYZE_CSV_HEADER = [
    "n_qubits", "e_max", "norm_squared", "r", "max_possible_r", "lhv_violated",
    "critical_visibility", "min_excluded_separability", "k", "r_k_max", "margin", "excluded",
]


def _verdict_line(report):
    if report.genuine_multipartite:
        return (
            f"genuine {report.n_qubits}-partite correlations certified "
            "(biseparability excluded)"
        )
    if report.min_excluded_separability is not None:
        return (
            f"k-separability excluded for k >= {report.min_excluded_separability}; "
            "biseparability not excluded"
        )
    return "nothing excluded"


def _report_lines(report, meta):
    if meta and meta.get("normalization_applied"):
        yield f"note: input renormalized (raw norm {_fmt(meta['input_norm'])})"
    for name in _ANALYZE_CSV_HEADER[:7]:  # only critical_visibility can be None
        yield f"{name}: {_fmt(getattr(report, name)) or 'n/a'}"
    if report.thresholds:
        yield "separability ladder (strict exclusion):"
        for t in report.thresholds:
            word = "EXCLUDED" if t.excluded else "not excluded"
            yield f"  k={t.k}: threshold {_fmt(t.r_k_max)}  margin {_fmt(t.margin)}  {word}"
    yield f"verdict: {_verdict_line(report)}"


def _report_csv_rows(report):
    scalars = [getattr(report, h) for h in _ANALYZE_CSV_HEADER[:8]]
    rung_fields = _ANALYZE_CSV_HEADER[8:]
    if not report.thresholds:
        return [scalars + [None] * len(rung_fields)]
    return [scalars + [getattr(t, h) for h in rung_fields] for t in report.thresholds]


def _report_state(state, args, gated, meta=None, details=None):
    """Classify, cross-check on request, print; ``gated``: is a gap below e_max a failure?"""
    report = classify(state)
    payload = {"report": report.to_dict()}
    if meta:
        payload["input"] = meta
    tables = [(_ANALYZE_CSV_HEADER, _report_csv_rows(report))]
    lines = _report_lines(report, meta)
    oracle_report = None
    if args.oracle:
        oracle_report = cross_validate(state, config=_ORACLE_CONFIG)
        payload["oracle"] = oracle_report.to_dict()
        tables.append(_oracle_table([("state", oracle_report, gated)]))
        lines = chain(lines, (
            f"oracle state: {_oracle_numbers(oracle_report)} "
            f"[{_attainment(oracle_report, gated)}] -> {_ok(oracle_report, gated)}",
        ))
    if details is not None:
        payload["correlation"] = details
    _emit(args.format, payload, tables, lines)
    if oracle_report is not None and not oracle_report.passes(gated):
        return EXIT_VALIDATION
    return EXIT_OK


def _ok(rep, gated):
    return "ok" if rep.passes(gated) else "FAIL"


def _attainment(rep, gated):
    return "attained" if rep.attainability_ok else ("NOT ATTAINED" if gated else "gap reported")


def _oracle_numbers(rep):
    return (f"trace={_fmt(rep.trace_max_abs_diff)} dual={_fmt(rep.dual_norm_rel_diff)} "
            f"quad={_fmt(rep.quadrature_rel_diff)} gap={_fmt(rep.grid_gap)}")


_ORACLE_CSV_HEADER = [
    "fixture", "n_qubits", "trace_max_abs_diff", "dual_norm_rel_diff",
    "quadrature_rel_diff", "e_max", "grid_value", "grid_gap",
    "identity_ok", "attainability_gated", "attainability_ok",
]


def _oracle_table(entries):
    rows = (
        [name, *(getattr(rep, h) for h in _ORACLE_CSV_HEADER[1:9]), gated, rep.attainability_ok]
        for name, rep, gated in entries
    )
    return _ORACLE_CSV_HEADER, rows


# ---------------------------------------------------------------------------
# commands


def cmd_analyze(args):
    state, meta = _load_state(args)
    details = None
    if args.details and args.format == "json":  # only the json report prints them
        prof = antidiagonal_profile(state)
        details = {
            "antidiagonal_profile": prof.to_json(),
            "correlation_tensor": correlation_tensor(prof).to_json(),
        }
    # arbitrary states: a generic N >= 3 state has a real gap, which is data
    return _report_state(state, args, gated=False, meta=meta, details=details)


def cmd_ghz(args):
    # a GHZ profile has one element, so its closed-form maximum is attained
    return _report_state(ghz_terms(args.n), args, gated=True)


_SWEEP_COLUMNS = (("v", "v", 15), ("r", "r", 15), ("lhv_violated", "lhv", 6),
                  ("min_excluded_separability", "min_excluded_k", 15))


def cmd_sweep(args):
    if not (0.0 <= args.vmin <= args.vmax <= 1.0):
        raise ValueError(f"need 0 <= vmin <= vmax <= 1, got vmin={args.vmin}, vmax={args.vmax}")
    if not 2 <= args.steps <= _MAX_SWEEP_STEPS:
        raise ValueError(f"need 2 <= steps <= {_MAX_SWEEP_STEPS}, got {args.steps}")
    state, _meta = _load_state(args)
    # white noise maps the antidiagonal to V * rho_ad + 0: each step rescales the profile
    prof = antidiagonal_profile(state)
    rows = []
    for v in np.linspace(args.vmin, args.vmax, args.steps):
        rep = classify(AntidiagonalProfile(prof.n_qubits, v * prof.values, prof.index))
        rows.append([float(v), rep.r, rep.lhv_violated, rep.min_excluded_separability])
    _emit(args.format, *_table(_SWEEP_COLUMNS, rows))
    return EXIT_OK


_ZOO_COLUMNS = (("n", "n", 3), ("k", "k", 2), ("ghz_r", "ghz_r", 15),
                ("r_k_sep_max", "r_k_sep_max", 15), ("ratio_to_next", "ratio", 6),
                ("sampled_max_r", "sampled_max_r", 15), ("sampled_within_bound", "within", 7))


def _sampled_k_separable_profile(n, k, seed):
    """Profile of a random 2-term k-separable mixture: the weighted sum of its terms' profiles."""
    terms = sample_product_terms(n, k, n_terms=2, rng_seed=seed)  # checks the cap first
    return AntidiagonalProfile(n, sum(w * antidiagonal_profile(t).values for w, t in terms))


def cmd_zoo(args):
    if not 1 <= args.nmin <= args.nmax:
        raise ValueError(f"need 1 <= nmin <= nmax, got nmin={args.nmin}, nmax={args.nmax}")
    if args.samples < 0:
        raise ValueError("--samples must be >= 0")
    if args.seed < 0:
        raise ValueError("--seed must be >= 0")
    # the largest N against its caps before any row: each sample holds 2^N amplitudes per term
    if args.samples > 0:
        _check_qubits(args.nmax, MAX_PURE_QUBITS, "pure-state")
    _check_qubits(args.nmax, MAX_TERM_QUBITS, "term")
    rows = []
    for n in range(args.nmin, args.nmax + 1):
        ghz_r = classify(ghz_terms(n)).r
        for k in range(1, n + 1):
            thr = k_sep_threshold(n, k)
            ratio = thr / k_sep_threshold(n, k + 1) if k < n else None
            sampled = within = None
            if args.samples > 0:
                sampled = max(
                    classify(_sampled_k_separable_profile(n, k, (args.seed, n, k, i))).r
                    for i in range(args.samples)
                )
                within = sampled <= thr + 1e-9
            rows.append([n, k, ghz_r, thr, ratio, sampled, within])
    _emit(args.format, *_table(_ZOO_COLUMNS, rows))
    return EXIT_OK


def _verify_fixtures(seed):
    """Battery: GHZ states, products, biseparable boundary states, 50 seeded randoms.

    Each entry is (name, state, gate_attainability).  Attainability is gated
    only where the closed-form maximum is provably attained: single-element
    profiles, products of blocks of at most two qubits, and any N <= 2 state.
    Generic entangled states with N >= 3 have a real gap, which is reported
    but cannot be an error.
    """
    fixtures = []
    for n in range(2, 6):
        fixtures.append((f"ghz_{n}", make_ghz(n), True))
    rng = np.random.default_rng((seed, 0xF17))
    for n in (2, 3, 4):
        fixtures.append((f"basis_{n}", parse_ket("|" + "0" * n + ">"), True))
    for n in (3, 4):
        blocks = [[q] for q in range(1, n + 1)]
        product = tensor_product([random_pure_state(1, rng) for _ in range(n)], blocks)
        fixtures.append((f"random_product_{n}", product, True))
    fixtures.append(("plusx_bell_23", parse_ket("|000>+|011>+|100>+|111>"), True))
    fixtures.append(("bell_13_plusx_2", tensor_product(
        [parse_ket("|00>+|11>"), parse_ket("|0>+|1>")], [[1, 3], [2]]), True))
    fixtures.append(("plusx2_bell_34", tensor_product(
        [parse_ket("|0>+|1>"), parse_ket("|0>+|1>"), parse_ket("|00>+|11>")],
        [[1], [2], [3, 4]]), True))
    sizes = [2, 3, 4, 5]
    for i in range(50):
        n = sizes[i % len(sizes)]
        sub = np.random.default_rng((seed, 0xA11CE, i))
        if i % 2 == 0:
            state = random_pure_state(n, sub)
            name = f"random_pure_{n}_{i:02d}"
        else:
            state = random_density_matrix(n, sub)
            name = f"random_mixed_{n}_{i:02d}"
        fixtures.append((name, state, n <= 2))
    return fixtures


def cmd_verify(args):
    if args.seed < 0:
        raise ValueError("--seed must be >= 0")
    entries = [
        (name, cross_validate(state, config=_ORACLE_CONFIG), gated)
        for name, state, gated in _verify_fixtures(args.seed)
    ]
    failures = sum(not rep.passes(gated) for _, rep, gated in entries)
    gated_attain = sum(gated for _, _, gated in entries)
    gated_attain_ok = sum(gated and rep.attainability_ok for _, rep, gated in entries)
    payload = {
        "fixtures": (
            {"name": name, "attainability_gated": gated, **rep.to_dict()}
            for name, rep, gated in entries
        ),
        "summary": {
            "fixtures": len(entries),
            "failures": failures,
            "attainability_gated": gated_attain,
            "attainability_gated_ok": gated_attain_ok,
        },
    }
    lines = chain(
        (f"[{_ok(rep, gated):>4}] {name:<22} n={rep.n_qubits} "
         f"{_oracle_numbers(rep)} ({_attainment(rep, gated)})" for name, rep, gated in entries),
        (f"summary: {len(entries)} fixtures, {len(entries) - failures} ok, "
         f"{failures} failed; attainability gated for {gated_attain} "
         f"({gated_attain_ok} attained)",),
    )
    _emit(args.format, payload, [_oracle_table(entries)], lines)
    return EXIT_OK if failures == 0 else EXIT_VALIDATION


_PARSER = _build_parser()  # parse_args returns a fresh Namespace on every call


def main(argv=None):
    try:
        args = _PARSER.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (BudgetExceededError, ValueError, TypeError, OSError, MemoryError) as exc:
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return EXIT_INPUT


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
