import csv
import io
import itertools
import json
import logging
import math
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import rotbell.cli as cli_mod
import rotbell.correlation as correlation_mod
import rotbell.oracle as oracle_mod
import rotbell.separability as separability_mod
import rotbell.witness as witness_mod
from rotbell.cli import main
from rotbell.oracle import cross_validate
from rotbell.states import (
    MAX_DENSE_QUBITS,
    MAX_PURE_QUBITS,
    MAX_TERM_QUBITS,
    DensityMatrix,
    PureState,
    as_density,
    parse_ket,
    parse_ket_info,
    random_density_matrix,
    random_pure_state,
    state_to_json,
)
from rotbell.witness import WitnessReport, k_sep_threshold

from conftest import GOLDEN, battery, child_env



def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# analyze


def test_analyze_ghz_ket_json(capsys):
    code, out, _ = run_cli(capsys, "analyze", "--ket", "|000>+|111>", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    rep = payload["report"]
    assert rep["r"] == pytest.approx(np.pi**3 / 16.0, rel=1e-11)
    assert rep["min_excluded_separability"] == 2
    assert rep["critical_visibility"] == pytest.approx(0.5160, abs=5e-5)
    assert payload["input"]["normalization_applied"] is True


def test_analyze_product_ket_nothing_excluded(capsys):
    code, out, _ = run_cli(capsys, "analyze", "--ket", "|00>", "--format", "json")
    assert code == 0
    rep = json.loads(out)["report"]
    assert rep["r"] == 0.0
    assert rep["min_excluded_separability"] is None
    assert rep["lhv_violated"] is False


def test_analyze_biseparable_density_file(tmp_path, capsys):
    rho = as_density(parse_ket("|000>+|011>+|100>+|111>"))
    path = tmp_path / "bisep.json"
    path.write_text(json.dumps(state_to_json(rho)))
    code, out, _ = run_cli(capsys, "analyze", "--input", str(path), "--format", "json")
    assert code == 0
    rep = json.loads(out)["report"]
    assert rep["r"] == pytest.approx(np.pi**3 / 32.0, rel=1e-11)
    k2 = [t for t in rep["thresholds"] if t["k"] == 2][0]
    assert k2["excluded"] is False


def test_analyze_stdin(capsys, monkeypatch):
    payload = json.dumps(state_to_json(parse_ket("|00>+|11>")))
    monkeypatch.setattr("sys.stdin", io.StringIO(payload))
    code, out, _ = run_cli(capsys, "analyze", "--input", "-", "--format", "json")
    assert code == 0
    assert json.loads(out)["report"]["r"] == pytest.approx(np.pi**2 / 8.0, rel=1e-11)


@pytest.mark.parametrize("source", ["stdin", "file"])
def test_oversize_input_exits_1_before_parsing(source, tmp_path, capsys, monkeypatch):
    payload = json.dumps(state_to_json(parse_ket("|00>+|11>")), indent=2)
    stream = io.StringIO(payload)
    monkeypatch.setattr("sys.stdin", stream)
    path = tmp_path / "state.json"
    path.write_text(payload)
    arg = "-" if source == "stdin" else str(path)
    monkeypatch.setattr(cli_mod, "_MAX_INPUT_CHARS", len(payload))
    assert run_cli(capsys, "analyze", "--input", arg)[0] == 0

    def no_parse(text):
        raise AssertionError("oversize input reached json.loads")

    cap = len(payload) - 1
    monkeypatch.setattr(cli_mod, "_MAX_INPUT_CHARS", cap)
    monkeypatch.setattr(cli_mod.json, "loads", no_parse)
    stream.seek(0)
    code, out, err = run_cli(capsys, "analyze", "--input", arg)
    assert code == 1 and out == ""
    assert f"input exceeds {cap} characters" in err
    if source == "stdin":
        assert stream.tell() == cap + 1  # reading stopped one character past the cap


@pytest.mark.parametrize("command", ["analyze", "sweep"])
@pytest.mark.parametrize("source", ["stdin", "file"])
@pytest.mark.parametrize("nesting", [("[", "]", 5000), ('{"a":', "}", 5000), ("[", "]", 900)],
                         ids=["arrays-5000", "objects-5000", "arrays-900"])
def test_deeply_nested_input_exits_1_with_one_error_line(nesting, source, command, tmp_path,
                                                         capsys, monkeypatch):
    # 5,000 levels (10 KB) run the json parser past the interpreter's recursion limit;
    # 900 levels parse or not by the caller's stack depth, and are refused either way
    open_, close, depth = nesting
    payload = open_ * depth + close * depth
    monkeypatch.setattr("sys.stdin", io.StringIO(payload))
    path = tmp_path / "deep.json"
    path.write_text(payload)
    code, out, err = run_cli(capsys, command, "--input", "-" if source == "stdin" else str(path))
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    if depth > 1000:
        assert err.startswith("error: input is not valid JSON: maximum recursion depth exceeded")


def test_input_cap_admits_indented_state_json_at_the_qubit_caps():
    # the cap allows the same characters per entry at any n; fill every
    # off-diagonal entry with the widest float reprs
    per_entry = cli_mod._MAX_INPUT_CHARS / max(2**MAX_PURE_QUBITS, 4**MAX_DENSE_QUBITS)
    wide = -1.2345678901234567e-100 * (1 + 1j)
    for n in (1, 2, 3):
        d = 1 << n
        amps = np.full(d, wide)
        amps[0] = 1.0
        mat = np.full((d, d), wide)
        mat[np.tril_indices(d)] = np.conj(wide)
        mat[np.diag_indices(d)] = 1.0 / d
        for state, entries in ((PureState(n, amps), d), (DensityMatrix(n, mat), d * d)):
            assert len(json.dumps(state_to_json(state), indent=2)) <= per_entry * entries


def test_analyze_text_wording_not_excluded(capsys):
    code, out, _ = run_cli(capsys, "analyze", "--ket", "|000>+|011>+|100>+|111>")
    assert code == 0
    assert "not excluded" in out
    assert "is k-separable" not in out
    assert "verdict:" in out


def test_analyze_details_arrays(capsys):
    code, out, _ = run_cli(
        capsys, "analyze", "--ket", "|00>+|11>", "--format", "json", "--details"
    )
    assert code == 0
    corr = json.loads(out)["correlation"]
    assert corr["antidiagonal_profile"] == [[0.5, 0.0], [0.0, 0.0]]
    assert corr["correlation_tensor"] == [1.0, -0.0, -0.0, -1.0]


def test_analyze_details_scatters_a_ket_profile_once(capsys, monkeypatch):
    calls = []
    real = correlation_mod._scatter
    monkeypatch.setattr(correlation_mod, "_scatter", lambda *a: calls.append(a) or real(*a))
    argv = ("analyze", "--ket", _ghz_ket(12), "--details", "--format", "json")
    assert run_cli(capsys, *argv)[0] == 0
    assert len(calls) == 1  # the profile pairs and the tensor read one dense vector


@pytest.mark.parametrize("fmt", ["text", "csv"])
def test_analyze_details_built_only_for_json(fmt, capsys, monkeypatch):
    argv = ("analyze", "--ket", "|000>+|111>", "--format", fmt)
    plain = run_cli(capsys, *argv)
    assert plain[0] == 0

    def refuse(state):
        raise AssertionError("correlation tensor built for a format that does not print it")

    monkeypatch.setattr(cli_mod, "correlation_tensor", refuse)
    assert run_cli(capsys, *argv, "--details") == plain


def test_analyze_csv_rows_read_the_report_only_when_csv_reads_them():
    class Unread:
        def __getattr__(self, name):
            raise AssertionError(f"report.{name} read before the csv writer asked for a row")

    rows = cli_mod._report_csv_rows(Unread())  # json and text never iterate it
    with pytest.raises(AssertionError, match="before the csv writer"):
        next(rows)


def test_analyze_with_oracle_ok(capsys):
    code, out, _ = run_cli(
        capsys, "analyze", "--ket", "|00>+|11>", "--format", "json", "--oracle"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["oracle"]["identity_ok"] is True


def test_analyze_bad_ket_exits_1(capsys):
    code, _, err = run_cli(capsys, "analyze", "--ket", "|01> + |0>")
    assert code == 1
    assert "inconsistent bitstring lengths" in err


def test_analyze_bad_json_exits_1(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    code, _, err = run_cli(capsys, "analyze", "--input", str(path))
    assert code == 1
    assert "error:" in err


def test_analyze_invalid_state_exits_1(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"n": 1, "kind": "pure", "amplitudes": [[1.0, 0.0], [1.0, 0.0]]}))
    code, _, err = run_cli(capsys, "analyze", "--input", str(path))
    assert code == 1
    assert "not normalized" in err


def test_analyze_density_file_with_nan_exits_1_with_nothing_on_stdout(tmp_path, capsys):
    path = tmp_path / "nan.json"  # json.loads reads the NaN literal, so the constructor refuses it
    path.write_text('{"n": 1, "kind": "density", "matrix": '
                    '[[[0.5, 0], [NaN, 0]], [[NaN, 0], [0.5, 0]]]}')
    assert run_cli(capsys, "analyze", "--input", str(path)) == (
        1, "", "error: matrix contains NaN or Inf\n")


@pytest.mark.parametrize("bad, word", [(math.nan, "nan"), (math.inf, "inf"), (-math.inf, "-inf")])
def test_non_finite_report_field_exits_1_with_nothing_on_stdout(bad, word, capsys, monkeypatch):
    real = WitnessReport.to_dict
    monkeypatch.setattr(WitnessReport, "to_dict", lambda self: {**real(self), "r": bad})
    code, out, err = run_cli(capsys, "analyze", "--ket", "|000>+|111>", "--format", "json")
    assert (code, out) == (1, "")
    assert err == f"error: Out of range float values are not JSON compliant: {word}\n"


def test_analyze_missing_file_exits_1(capsys):
    code, _, err = run_cli(capsys, "analyze", "--input", "/nonexistent/state.json")
    assert code == 1
    assert "error:" in err


_USAGE_ERRORS = {  # argv -> stderr, at 80 columns (argparse wraps usage to the terminal)
    ("zoo", "--seed", "abc"): (
        "usage: rotbell zoo [-h] [--nmin NMIN] [--nmax NMAX] [--samples SAMPLES]\n"
        "                   [--seed SEED] [--format {json,csv,text}]\n"
        "error: argument --seed: invalid int value: 'abc'\n"
    ),
    ("analyze", "--ket", "|0>", "--format", "yaml"): (
        "usage: rotbell analyze [-h] (--ket KET | --input INPUT)\n"
        "                       [--format {json,csv,text}] [--oracle] [--details]\n"
        "error: argument --format: invalid choice: 'yaml' (choose from 'json', 'csv', 'text')\n"
    ),
    ("frobnicate",): (
        "usage: rotbell [-h] {analyze,ghz,sweep,zoo,verify} ...\n"
        "error: argument command: invalid choice: 'frobnicate' "
        "(choose from 'analyze', 'ghz', 'sweep', 'zoo', 'verify')\n"
    ),
}


def test_usage_errors_exit_1(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    for _ in range(2):  # the second round parses with the parser the first one used
        for argv, err in _USAGE_ERRORS.items():
            assert run_cli(capsys, *argv) == (1, "", err)
        assert run_cli(capsys, "analyze")[0] == 1  # no input source
        assert run_cli(capsys, "analyze", "--ket", "|0>", "--input", "x")[0] == 1  # both sources


# Each command after the first could see what the one before it set: a
# default after an explicit value, a flag left off after it was given, and a
# valid command after a usage error and after -h.
_SEQUENCE = [
    ("sweep", "--ket", "|00>+|11>", "--steps", "5", "--format", "csv"),
    ("sweep", "--ket", "|00>+|11>", "--format", "csv"),  # default --steps 101
    ("analyze", "--ket", "|000>+|111>", "--oracle", "--format", "json"),
    ("zoo", "--seed", "abc"),
    ("analyze", "--ket", "|000>+|111>", "--format", "json"),
    ("-h",),
    ("analyze", "--ket", "|000>+|111>"),
    ("sweep", "-h"),
]


def test_calls_in_one_process_match_fresh_processes(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    procs = [subprocess.Popen([sys.executable, "-m", "rotbell.cli", *argv],
                              env=child_env(COLUMNS="80"), stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True)
             for argv in _SEQUENCE]
    fresh = []
    for p in procs:  # every child is reaped before the first comparison can fail
        out, err = p.communicate(timeout=120)
        fresh.append((p.returncode, out, err))
    for argv, want in zip(_SEQUENCE, fresh):
        assert run_cli(capsys, *argv) == want, argv


def test_main_builds_at_most_one_parser(capsys, monkeypatch):
    calls = []
    build = cli_mod._build_parser
    monkeypatch.setattr(cli_mod, "_build_parser", lambda: calls.append(None) or build())
    for argv in [*_SEQUENCE, ("ghz", "--n", "3"), ("zoo", "--nmax", "3")]:  # ten commands
        run_cli(capsys, *argv)
    assert len(calls) <= 1


def test_determinism_byte_identical(capsys):
    _, out1, _ = run_cli(capsys, "analyze", "--ket", "|000>+|111>", "--format", "json")
    _, out2, _ = run_cli(capsys, "analyze", "--ket", "|000>+|111>", "--format", "json")
    assert out1 == out2



def test_oracle_debug_record_leaves_stdout_alone(capsys, caplog):
    argv = ("analyze", "--ket", "|000>+|111>", "--oracle", "--format", "json")
    fresh = subprocess.run([sys.executable, "-m", "rotbell.cli", *argv], env=child_env(),
                           capture_output=True, text=True, timeout=120)
    assert (fresh.returncode, fresh.stderr) == (0, "")  # nothing on stderr by default
    with caplog.at_level(logging.DEBUG, logger="rotbell.oracle"):
        assert run_cli(capsys, *argv) == (0, fresh.stdout, "")
    assert [r.getMessage() for r in caplog.records] == [
        "maximize_grid: n=3 points_per_axis=24 rounds=4 grid_points=55296 evaluations=55392 "
        "columns_per_round=576 kept_columns=576,576,576,576"]  # GHZ: every |z| ties


def test_witness_debug_record_per_stack_leaves_stdout_alone(capsys, caplog):
    # the 1e-200 term's element underflows to 0 in the three smallest steps only
    sweep = ("sweep", "--ket", battery.UNDERFLOW, "--vmin", "0", "--vmax", "1e-123", "--steps", "5")
    zoo = ("zoo", "--nmin", "2", "--nmax", "2", "--samples", "3", "--format", "json")
    fresh = [subprocess.run([sys.executable, "-m", "rotbell.cli", *argv], env=child_env(),
                            capture_output=True, text=True, timeout=120) for argv in (sweep, zoo)]
    assert [(f.returncode, f.stderr) for f in fresh] == [(0, "")] * 2  # silent by default
    with caplog.at_level(logging.DEBUG, logger="rotbell.witness"):
        got = [run_cli(capsys, *argv) for argv in (sweep, zoo)]
    assert got == [(0, f.stdout, "") for f in fresh]
    assert [(r.name, r.levelno, r.getMessage()) for r in caplog.records] == [
        ("rotbell.witness", logging.DEBUG, msg) for msg in (
            "witness: n=3 rows=5 one_row=[0, 1, 2]",
            "witness: n=2 rows=1 one_row=[]",  # the GHZ column's classify
            "witness: n=2 rows=3 one_row=[]",  # k = 1: one chunk of three samples
            "witness: n=2 rows=3 one_row=[]",  # k = 2
        )]


# ---------------------------------------------------------------------------
# ghz


def test_ghz_command(capsys):
    code, out, _ = run_cli(capsys, "ghz", "--n", "4", "--format", "json")
    assert code == 0
    rep = json.loads(out)["report"]
    assert rep["r"] == pytest.approx(0.5 * (np.pi / 2) ** 4, rel=1e-11)


def test_ghz_rejects_bad_n(capsys):
    code, _, err = run_cli(capsys, "ghz", "--n", "0")
    assert code == 1 and "error:" in err


# ---------------------------------------------------------------------------
# sweep


def test_sweep_ghz3_flip_point(capsys):
    code, out, _ = run_cli(
        capsys, "sweep", "--ket", "|000>+|111>", "--steps", "101", "--format", "csv"
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "v,r,lhv_violated,min_excluded_separability"
    rows = [line.split(",") for line in lines[1:]]
    assert len(rows) == 101
    flips = [
        (float(a[0]), float(b[0]))
        for a, b in zip(rows, rows[1:])
        if a[2] == "false" and b[2] == "true"
    ]
    assert flips == [(0.51, 0.52)]
    v_crit = 16.0 / np.pi**3
    assert flips[0][0] < v_crit < flips[0][1]


def test_sweep_ghz4_flip_near_reciprocal(capsys):
    code, out, _ = run_cli(
        capsys, "sweep", "--ket", "|0000>+|1111>", "--steps", "101", "--format", "csv"
    )
    assert code == 0
    rows = [line.split(",") for line in out.strip().splitlines()[1:]]
    flips = [
        (float(a[0]), float(b[0]))
        for a, b in zip(rows, rows[1:])
        if a[2] == "false" and b[2] == "true"
    ]
    v_crit = 1.0 / (0.5 * (np.pi / 2) ** 4)
    assert len(flips) == 1
    assert flips[0][0] < v_crit <= flips[0][1] + 1e-12
    assert abs(flips[0][1] - v_crit) <= 0.01 + 1e-12


def test_sweep_maximally_mixed_all_zero(tmp_path, capsys):
    from rotbell.states import DensityMatrix

    path = tmp_path / "mixed.json"
    path.write_text(json.dumps(state_to_json(DensityMatrix.maximally_mixed(2))))
    code, out, _ = run_cli(
        capsys, "sweep", "--input", str(path), "--steps", "11", "--format", "csv"
    )
    assert code == 0
    for line in out.strip().splitlines()[1:]:
        assert line.split(",")[1] == "0"


def test_sweep_validates_range(capsys):
    code, _, err = run_cli(capsys, "sweep", "--ket", "|0>", "--vmin", "0.9", "--vmax", "0.1")
    assert code == 1 and "vmin" in err
    code, _, err = run_cli(capsys, "sweep", "--ket", "|0>", "--steps", "1")
    assert code == 1 and "steps" in err


# ---------------------------------------------------------------------------
# zoo


def test_zoo_table(capsys):
    code, out, _ = run_cli(
        capsys, "zoo", "--nmin", "2", "--nmax", "6", "--samples", "0", "--format", "csv"
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "n,k,ghz_r,r_k_sep_max,ratio_to_next,sampled_max_r,sampled_within_bound"
    rows = [line.split(",") for line in lines[1:]]
    ghz_by_n = {int(r[0]): float(r[2]) for r in rows}
    for n, expected in ((2, 1.2337), (3, 1.9379), (4, 3.0440), (5, 4.7815), (6, 7.5109)):
        assert ghz_by_n[n] == pytest.approx(expected, abs=1e-4)
    for r in rows:
        if r[4]:
            assert float(r[4]) == 2.0
        if int(r[1]) == int(r[0]):  # fully separable rung: threshold below 1
            assert float(r[3]) < 1.0


def test_zoo_sampling_stays_below_thresholds(capsys):
    code, out, _ = run_cli(
        capsys, "zoo", "--nmin", "2", "--nmax", "3", "--samples", "5", "--seed", "3",
        "--format", "csv",
    )
    assert code == 0
    for line in out.strip().splitlines()[1:]:
        parts = line.split(",")
        assert parts[6] == "true"
        assert float(parts[5]) <= float(parts[3]) + 1e-9


def test_zoo_deterministic(capsys):
    args = ("zoo", "--nmin", "2", "--nmax", "3", "--samples", "3", "--seed", "1",
            "--format", "csv")
    _, out1, _ = run_cli(capsys, *args)
    _, out2, _ = run_cli(capsys, *args)
    assert out1 == out2


# ---------------------------------------------------------------------------
# verify


def test_verify_fresh_build_exits_0_and_is_deterministic(capsys):
    code, out, _ = run_cli(capsys, "verify")
    assert code == 0
    assert "0 failed" in out
    assert "FAIL" not in out
    code2, out2, _ = run_cli(capsys, "verify")
    assert code2 == 0 and out2 == out


def test_verify_detects_sign_mutation(capsys, monkeypatch):
    original = oracle_mod.correlation_value

    def flipped(state, angles):
        # every phase phi_k negated: E evaluated at the negated angles
        return original(state, -np.asarray(angles, dtype=float))

    monkeypatch.setattr(oracle_mod, "correlation_value", flipped)
    code, out, _ = run_cli(capsys, "verify")
    assert code == 2
    assert "FAIL" in out


@pytest.fixture
def first_angle_flipped(monkeypatch):
    """The profile route reads qubit 1's angle with the wrong sign.

    Negating every angle, as test_verify_detects_sign_mutation does, leaves E
    unchanged on a real profile such as the GHZ state's; flipping qubit 1
    alone moves it for the GHZ state and for complex profiles alike.
    """
    original = oracle_mod.correlation_value

    def flipped(state, angles):
        angles = np.array(angles, dtype=float)
        angles[..., 0] *= -1.0
        return original(state, angles)

    monkeypatch.setattr(oracle_mod, "correlation_value", flipped)


@pytest.mark.parametrize("fmt", ["json", "csv", "text"])
@pytest.mark.parametrize(
    "argv", [("ghz", "--n", "3"), ("analyze", "--ket", "|000> + (0.5+0.5i)*|111>")],
    ids=["ghz", "analyze"],
)
def test_oracle_identity_failure_exits_2(argv, fmt, capsys, first_angle_flipped):
    code, out, err = run_cli(capsys, *argv, "--oracle", "--format", fmt)
    assert (code, err) == (2, "")
    if fmt == "json":
        assert json.loads(out)["oracle"]["identity_ok"] is False
    elif fmt == "csv":
        assert dict(zip(*list(csv.reader(io.StringIO(out)))[-2:]))["identity_ok"] == "false"
    else:
        assert out.endswith("-> FAIL\n")


# ---------------------------------------------------------------------------
# every subcommand in every output format


def _haar3_file(tmp_path):
    """Haar-random 3-qubit pure state whose grid maximum falls 0.056 short of e_max."""
    path = tmp_path / "haar3.json"
    path.write_text(json.dumps(state_to_json(random_pure_state(3, np.random.default_rng(0)))))
    return str(path)


_MATRIX = {
    "analyze": ("analyze", "--ket", "|000>+|111>"),
    "analyze-oracle": ("analyze", "--oracle", "--input", "{haar3}"),
    "ghz": ("ghz", "--n", "3"),
    "ghz-oracle": ("ghz", "--n", "3", "--oracle"),
    "sweep": ("sweep", "--ket", "|000>+|111>", "--steps", "5"),
    "zoo": ("zoo", "--nmin", "2", "--nmax", "3", "--samples", "2"),
    "verify": ("verify",),
}


_REAL_FIXTURES = cli_mod._verify_fixtures


def _short_battery(seed):
    # one gated and one ungated fixture keep the verify rows of the matrix fast
    fixtures = [f for f in _REAL_FIXTURES(seed) if f[0] in {"ghz_3", "random_mixed_3_01"}]
    assert [gated for _, _, gated in fixtures] == [True, False]
    return fixtures


def _refuse_non_json(name):
    raise AssertionError(f"{name} is not a JSON number")


@pytest.mark.parametrize("fmt", ["json", "csv", "text"])
@pytest.mark.parametrize("command", sorted(_MATRIX))
def test_every_command_in_every_format(command, fmt, tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli_mod, "_verify_fixtures", _short_battery)
    argv = [a.format(haar3=_haar3_file(tmp_path)) for a in _MATRIX[command]]
    code, out, err = run_cli(capsys, *argv, "--format", fmt)
    assert (code, err) == (0, "")
    assert out.endswith("\n")
    if fmt == "json":
        assert isinstance(json.loads(out, parse_constant=_refuse_non_json), dict)
    elif fmt == "csv":
        rows = list(csv.reader(io.StringIO(out)))
        assert len(rows) >= 2 and all(len(row) > 1 for row in rows)


def test_analyze_oracle_reports_gap_without_gating(tmp_path, capsys):
    path = _haar3_file(tmp_path)
    code, out, _ = run_cli(capsys, "analyze", "--oracle", "--input", path)
    assert code == 0
    assert "[gap reported] -> ok" in out
    code, out, _ = run_cli(capsys, "analyze", "--oracle", "--input", path, "--format", "csv")
    assert code == 0
    row = dict(zip(*list(csv.reader(io.StringIO(out)))[-2:]))
    assert (row["identity_ok"], row["attainability_gated"], row["attainability_ok"]) == (
        "true", "false", "false"
    )


@pytest.mark.parametrize("source", ["pure3", "mixed3", "pure4", "mixed4", "ket"])
def test_analyze_oracle_prints_the_library_report(source, tmp_path, capsys):
    # one grid budget: the CLI's oracle block is cross_validate's own report
    if source == "ket":
        ket = "(0.6+0.2i)*|0000> - 0.8*|1011> + 0.3*|0110> + |1111>"
        state, argv = parse_ket_info(ket), ("--ket", ket)
    else:
        n, pure = int(source[-1]), source.startswith("pure")
        rng = np.random.default_rng((41, n, pure))
        state = random_pure_state(n, rng) if pure else random_density_matrix(n, rng)
        path = tmp_path / "state.json"
        path.write_text(json.dumps(state_to_json(state)))
        argv = ("--input", str(path))
    code, out, _ = run_cli(capsys, "analyze", *argv, "--oracle", "--format", "json")
    assert code == 0
    library = cli_mod._json_text(cross_validate(state).to_dict())
    assert json.loads(out)["oracle"] == json.loads(library)


def test_ghz_oracle_gates_attainability(capsys):
    code, out, _ = run_cli(capsys, "ghz", "--n", "3", "--oracle", "--format", "csv")
    assert code == 0
    row = dict(zip(*list(csv.reader(io.StringIO(out)))[-2:]))
    assert (row["attainability_gated"], row["attainability_ok"]) == ("true", "true")


# ---------------------------------------------------------------------------
# resource caps are checked before anything is allocated

_ALLOCATION_LIMIT = 1 << 28  # elements; far above anything these commands legitimately need


def _guarded(fn, count):
    def wrapper(*args, **kwargs):
        size = count(*args, **kwargs)
        if size > _ALLOCATION_LIMIT:
            raise AssertionError(f"numpy.{fn.__name__} asked for {size} elements")
        return fn(*args, **kwargs)

    return wrapper


@pytest.fixture
def no_huge_arrays(monkeypatch):
    """Make numpy refuse oversized requests instead of trying to allocate them."""
    monkeypatch.setattr(np, "zeros", _guarded(
        np.zeros, lambda shape, *a, **k: math.prod(np.atleast_1d(shape).tolist())))
    monkeypatch.setattr(np, "eye", _guarded(
        np.eye, lambda rows, cols=None, *a, **k: rows * (cols or rows)))
    monkeypatch.setattr(np, "outer", _guarded(
        np.outer, lambda a, b, *x, **k: np.size(a) * np.size(b)))
    monkeypatch.setattr(np, "linspace", _guarded(
        np.linspace, lambda start, stop, num=50, *a, **k: int(num)))


def _ghz_ket(n):
    return f"|{'0' * n}>+|{'1' * n}>"


@pytest.mark.parametrize(
    "argv, message",
    [
        (("analyze", "--ket", "|" + "0" * 40 + ">", "--details", "--format", "json"),
         "pure-state cap"),
        (("analyze", "--ket", "|" + "0" * 40 + ">", "--oracle"), "n=40 > 6"),
        (("zoo", "--nmin", "40", "--nmax", "40", "--samples", "1"), "pure-state cap"),
        (("sweep", "--ket", "|0>+|1>", "--steps", str(10**12)), "steps"),
        (("ghz", "--n", "40", "--oracle"), "n=40 > 6"),
        (("ghz", "--n", "64"), "term cap"),
        (("analyze", "--ket", _ghz_ket(64)), "term cap"),
        (("sweep", "--ket", _ghz_ket(64)), "term cap"),
        (("zoo", "--nmin", "0"), "need 1 <= nmin <= nmax"),
        (("zoo", "--nmin", "3", "--nmax", "2"), "need 1 <= nmin <= nmax"),
        (("zoo", "--samples", "-1"), "samples must be >= 0"),
        (("zoo", "--seed", "-1", "--samples", "0"), "seed must be >= 0"),
        (("zoo", "--seed", "-1"), "seed must be >= 0"),
        (("verify", "--seed", "-1"), "seed must be >= 0"),
        (("analyze", "--ket", "1.7e308|0>+1.7e308|1>", "--format", "json"), "norm overflows"),
    ],
)
def test_oversized_requests_exit_1_before_allocating(argv, message, capsys, no_huge_arrays):
    code, out, err = run_cli(capsys, *argv)
    assert code == 1 and out == ""
    assert message in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (("18", "--nmax", "27", "--samples", "1"), "n_qubits=27 exceeds the pure-state cap of 26"),
        (("2", "--nmax", "64", "--samples", "1"), "n_qubits=64 exceeds the pure-state cap of 26"),
        (("60", "--nmax", "64", "--samples", "0"), "n_qubits=64 exceeds the term cap of 63"),
    ],
    ids=["pure-27", "pure-64", "term-64"],
)
def test_zoo_checks_its_largest_n_before_any_row(argv, message, capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("zoo computed a row before checking --nmax")

    monkeypatch.setattr(cli_mod, "_mixture_profiles", refuse)
    monkeypatch.setattr(separability_mod, "_product_terms", refuse)
    monkeypatch.setattr(cli_mod, "ghz_terms", refuse)
    assert run_cli(capsys, "zoo", "--nmin", *argv) == (1, "", f"error: {message}\n")


def test_sweep_pure_20_qubits_runs_on_the_profile(capsys, no_huge_arrays):
    ket = "|" + "0" * 20 + ">+|" + "1" * 20 + ">"
    code, out, _ = run_cli(capsys, "sweep", "--ket", ket, "--steps", "11", "--format", "csv")
    assert code == 0
    r = 0.5 * (np.pi / 2) ** 20
    rows = [line.split(",") for line in out.strip().splitlines()[1:]]
    assert len(rows) == 11
    for i, row in enumerate(rows):
        assert float(row[0]) == pytest.approx(i / 10, abs=1e-15)
        assert float(row[1]) == pytest.approx(float(row[0]) * r, rel=1e-11)


@pytest.fixture
def no_pure_state(monkeypatch):
    """Make every PureState construction fail loudly."""

    def refuse(self):
        raise AssertionError("PureState built")

    monkeypatch.setattr(PureState, "__post_init__", refuse)


@pytest.mark.parametrize("details", [(), ("--details",)])
@pytest.mark.parametrize("fmt", ["json", "csv", "text"])
def test_ket_commands_run_on_the_terms_without_a_pure_state(fmt, details, capsys, no_pure_state):
    ket = "(0.6+0.2i)*|0000> - 0.8*|1111> + |0110>"
    assert run_cli(capsys, "analyze", "--ket", ket, "--format", fmt, *details)[0] == 0
    assert run_cli(capsys, "sweep", "--ket", ket, "--steps", "5", "--format", fmt)[0] == 0
    assert run_cli(capsys, "ghz", "--n", "30", "--format", fmt)[0] == 0
    assert run_cli(capsys, "zoo", "--nmin", "30", "--nmax", "30", "--samples", "0")[0] == 0
    with pytest.raises(AssertionError, match="PureState built"):  # the oracle needs amplitudes
        main(["analyze", "--ket", ket, "--oracle", "--format", fmt])


_CHILD_ADDRESS_SPACE = 256 << 20  # bytes; a 2^26 amplitude vector alone is 1 GiB


def _run_in_small_address_space(*argv, program=("-m", "rotbell.cli")):
    """Run the CLI, or another ``program``, in a child capped at 256 MiB of address space."""
    resource = pytest.importorskip("resource")

    def limit_child():
        resource.setrlimit(resource.RLIMIT_AS, (_CHILD_ADDRESS_SPACE, _CHILD_ADDRESS_SPACE))

    # one BLAS thread: the limit measures the program, not the host's thread-pool reservations
    env = child_env(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    return subprocess.run([sys.executable, *program, *argv], env=env,
                          capture_output=True, text=True, timeout=120, preexec_fn=limit_child)


def _assert_ghz_rows(proc, n):
    """Exit 0, no stderr, and the GHZ closed forms: r = (1/2)(pi/2)^n, every rung k >= 2 excluded."""
    assert (proc.returncode, proc.stderr) == (0, "")
    rows = list(csv.DictReader(io.StringIO(proc.stdout)))
    assert float(rows[-1]["r"]) == pytest.approx(0.5 * (np.pi / 2) ** n, rel=1e-11)
    for row in rows:
        if "k" in row:  # analyze: one row per rung of the ladder
            assert float(row["r_k_max"]) == pytest.approx(k_sep_threshold(n, int(row["k"])),
                                                          rel=1e-11)
            assert row["excluded"] == "true"


@pytest.mark.parametrize("command", [("analyze",), ("sweep", "--steps", "11")])
def test_ket_commands_at_the_pure_cap_fit_a_small_address_space(command):
    n = MAX_PURE_QUBITS
    proc = _run_in_small_address_space(command[0], "--ket", _ghz_ket(n), *command[1:],
                                       "--format", "csv")
    _assert_ghz_rows(proc, n)


def test_ghz_at_the_pure_cap_fits_a_small_address_space():
    n = MAX_PURE_QUBITS
    _assert_ghz_rows(_run_in_small_address_space("ghz", "--n", str(n), "--format", "csv"), n)


@pytest.mark.parametrize("n", [40, 62, MAX_TERM_QUBITS])
@pytest.mark.parametrize("command", [("analyze",), ("sweep", "--steps", "11")])
def test_ket_commands_past_the_pure_cap_run_on_the_terms(command, n):
    proc = _run_in_small_address_space(command[0], "--ket", _ghz_ket(n), *command[1:],
                                       "--format", "csv")
    _assert_ghz_rows(proc, n)


@pytest.mark.parametrize(
    "argv",
    [
        ("ghz", "--n", str(MAX_PURE_QUBITS), "--oracle"),
        ("analyze", "--ket", _ghz_ket(MAX_PURE_QUBITS), "--oracle"),
        ("analyze", "--ket", _ghz_ket(MAX_PURE_QUBITS), "--details", "--format", "json"),
        ("ghz", "--n", str(MAX_TERM_QUBITS + 1)),
        ("analyze", "--ket", _ghz_ket(MAX_TERM_QUBITS + 1)),
        ("sweep", "--ket", _ghz_ket(MAX_TERM_QUBITS + 1)),
    ],
    ids=["ghz-oracle", "analyze-oracle", "analyze-details", "ghz-64", "analyze-64", "sweep-64"],
)
def test_refusals_in_a_small_address_space_take_one_line(argv):
    # the --details case passes every cap and runs out of memory: main reports that in one line
    proc = _run_in_small_address_space(*argv)
    assert (proc.returncode, proc.stdout) == (1, "")
    assert len(proc.stderr.splitlines()) == 1 and proc.stderr.startswith("error: ")


_OVER_CAP_BLOCKS = """
import numpy as np
from rotbell.states import random_density_matrix, random_pure_state, tensor_product
rng = np.random.default_rng(0)
for blocks in ([random_density_matrix(7, rng)] * 2, [random_pure_state(14, rng)] * 2):
    m = blocks[0].n_qubits
    try:
        tensor_product(blocks, [range(1, m + 1), range(m + 1, 2 * m + 1)])
    except ValueError as exc:
        print(exc)
"""


def test_tensor_product_refuses_an_over_cap_joint_before_allocating():
    # each joint needs 4 GiB: two 7-qubit matrices give 2^14 x 2^14, two 14-qubit states 2^28
    proc = _run_in_small_address_space(program=("-c", _OVER_CAP_BLOCKS))
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout.splitlines() == [
        f"n_qubits=14 exceeds the dense-matrix cap of {MAX_DENSE_QUBITS}",
        f"n_qubits=28 exceeds the pure-state cap of {MAX_PURE_QUBITS}",
    ]


def test_zoo_16_qubits_samples_profiles(capsys, no_huge_arrays):
    code, out, _ = run_cli(capsys, "zoo", "--nmin", "16", "--nmax", "16", "--samples", "1")
    assert code == 0
    rows = [line.split(",") for line in out.strip().splitlines()[1:]]
    assert len(rows) == 16 and all(row[6] == "true" for row in rows)


def test_zoo_20_qubits_peaks_no_higher_than_term_by_term_sampling(capsys):
    # the term-by-term sampler peaked at 60.1 MiB on this command; a stack holds
    # one sample at N = 20, and its amplitudes go before the sums are formed
    argv = ("zoo", "--nmin", "20", "--nmax", "20", "--samples", "3")
    run_cli(capsys, "zoo", "--nmin", "2", "--nmax", "2", "--samples", "1")  # set-up outside
    tracemalloc.start()
    try:
        code = main(list(argv))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert capsys.readouterr().out.count("\n") == 21
    assert peak <= 60.1 * 2**20


def test_sweep_stacks_stay_within_their_chunk_budget(tmp_path, monkeypatch, capsys):
    # 10,001 steps of a dense N = 10 profile are 20 chunks of up to 512 rows: the one-row
    # route peaked at 2.66 MiB on this command and one unchunked stack at 157 MiB
    monkeypatch.chdir(tmp_path)
    pure10 = random_pure_state(10, np.random.default_rng(43))
    Path("pure10.json").write_text(json.dumps(state_to_json(pure10)))
    argv = ("sweep", "--input", "pure10.json", "--steps", "10001", "--format", "csv")
    run_cli(capsys, *argv[:3], "--steps", "2")  # set-up outside
    tracemalloc.start()
    try:
        code = main(list(argv))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert capsys.readouterr().out.count("\n") == 10002
    assert peak <= 16 * 2**20


@pytest.mark.parametrize("argv, built, reported", [
    (("sweep", "--ket", "|000>+|111>", "--steps", "101"), [3], []),
    (("sweep", "--input", "dens3.json", "--steps", "101"), [3], []),
    (("zoo", "--nmin", "2", "--nmax", "4", "--samples", "5"), [2, 3, 4], [2, 3, 4]),  # GHZ column
    (("analyze", "--ket", "|000>+|111>", "--details", "--format", "json"), [3], [3]),
    (("analyze", "--input", "dens3.json", "--details", "--format", "json"), [3], [3]),
    (("analyze", "--ket", "|000>+|111>", "--oracle"), [3, 3], [3]),  # the report's, the oracle's
    (("ghz", "--n", "3", "--oracle"), [3, 3], [3]),
    (("analyze", "--input", "dens3.json", "--oracle"), [3, 3], [3]),
    (("analyze", "--ket", "|000>+|111>", "--details", "--oracle", "--format", "json"), [3, 3], [3]),
    (("verify",), [3, 3], []),  # _short_battery: the oracle's profile per fixture, no report
], ids=["sweep-ket", "sweep-density", "zoo", "analyze-ket-details", "analyze-density-details",
        "analyze-ket-oracle", "ghz-oracle", "analyze-density-oracle", "analyze-ket-details-oracle",
        "verify"])
def test_each_profile_is_checked_once_where_it_enters(argv, built, reported, tmp_path,
                                                       monkeypatch, capsys):
    # sweep's steps and zoo's samples are rows of checked values, not profile objects,
    # and they reach the witness as stacks, with no report per row; analyze and ghz
    # build one profile for the report and the details, and the oracle builds its own
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(cli_mod, "_verify_fixtures", _short_battery)
    Path("dens3.json").write_text(battery.FILES["dens3.json"])
    check = correlation_mod.AntidiagonalProfile.__post_init__
    report = witness_mod.WitnessReport
    checked, reports = [], []

    def counted(self):
        checked.append(self.n_qubits)
        check(self)

    def counted_report(**fields):
        reports.append(fields["n_qubits"])
        return report(**fields)

    monkeypatch.setattr(correlation_mod.AntidiagonalProfile, "__post_init__", counted)
    monkeypatch.setattr(witness_mod, "WitnessReport", counted_report)
    code, out, _ = run_cli(capsys, argv[0], "--format", "csv", *argv[1:])  # argv's own format wins
    assert code == 0 and out
    assert (checked, reports) == (built, reported)


def test_zoo_checks_each_stack_of_term_profiles_against_the_half_bound(capsys, monkeypatch):
    profile, check = correlation_mod._pure_profile, separability_mod._check_profile
    checked = []

    def counted(vals):
        checked.append(vals.shape)
        check(vals)

    monkeypatch.setattr(separability_mod, "_pure_profile", lambda amps: 100.0 * profile(amps))
    monkeypatch.setattr(separability_mod, "_check_profile", counted)
    code, out, err = run_cli(capsys, "zoo", "--nmin", "2", "--nmax", "2", "--samples", "2")
    assert (code, out) == (1, "")
    assert err.startswith("error: antidiagonal modulus ") and err.endswith(" exceeds the 1/2 bound\n")
    assert checked == [(2, 2, 2)]  # the stack of term profiles, before any mixture was formed


class _FirstStackOnly(Exception):
    pass


def test_zoo_stacks_stay_within_the_amplitude_budget(capsys, monkeypatch):
    # a million samples per row: the first stack is drawn, then the draw stops
    shapes = []

    def first_stack_only(amps):
        shapes.append(amps.shape)
        raise _FirstStackOnly

    monkeypatch.setattr(separability_mod, "_pure_profile", first_stack_only)
    with pytest.raises(_FirstStackOnly):
        main(["zoo", "--nmin", "10", "--nmax", "10", "--samples", str(10**6)])
    assert shapes == [(separability_mod._STACK_AMPLITUDES // (2 << 10), 2, 1 << 10)]


# ---------------------------------------------------------------------------
# every command and library probe of tools/battery.py pinned by
# tests/golden/battery.txt, its digest line and, up to 16 KiB, its readable
# block, on this host, under another OpenBLAS kernel and at numpy's baseline
# SIMD; the tests below it read their entries' rows from the host run

@pytest.mark.parametrize("text, message", [
    ("0 a b ghz --n 3\n| r: 1\n0 a c ghz --n 3\n", "command 'ghz --n 3' is in the battery twice"),
    ("| r: 1\n0 a b ghz --n 3\n", "block row with no command line above it: '| r: 1'"),
], ids=["repeated-command", "orphan-block"])
def test_battery_parser_refuses_a_malformed_golden(text, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        battery.parse(text)


def test_only_the_refusals_exit_nonzero_in_the_golden():
    # the bare command prints its usage and exits 1 like the refusals
    nonzero = {label for label, rows in GOLDEN.items() if not rows[0].startswith("0 ")}
    assert nonzero == {""} | {battery.label(*r) for r in battery.REFUSALS}


def _grids(moves):
    """Grid probe labels, from the points per axis of each state's configs that move."""
    configs = {c[0]: " ".join(map(str, c)) for c in battery.GRID_CONFIGS}
    return {f"grid {name} {configs[p]}" for name, points in moves.items() for p in points}


# OpenBLAS picks its kernels by CPU; forcing the oldest one on a child stands in
# for another host.  Every input file the battery writes must be the same bytes
# there (its file lines), and only what runs through BLAS products prints other
# digits: the oracle's grid searches (its CLI routes, the grid probes and demo
# 04), verify's product fixtures and the density wire states, which
# random_density_matrix builds by one.
_PRESCOTT_MAY_MOVE = {
    *(f"{command} --format {fmt}" for fmt in battery.FORMATS
      for command in ("analyze --input pure4.json --oracle", "analyze --input dens3.json --oracle",
                      "verify --seed 0", "verify --seed 1")),
    "analyze --input pure4.json --oracle --details --format json",
    *_grids({"pure2": (13, 32, 64), "pure4": (24,), "pure5": (13, 24, 32),
             "mixed1": (8, 13, 24, 32, 64), "mixed2": (8, 13, 24, 32, 64), "mixed3": (8, 24, 32),
             "mixed4": (13, 24, 32, 64), "mixed5": (13, 64)}),
    "wire density1", "wire density2", "wire density3", "demo 04_brute_force_checks.py",
}
# numpy at its baseline SIMD stands in for an older CPU.  Complex products and
# moduli round differently there, so the density files (built by complex
# products), the oracle's grid searches, the quadrature of GHZ5 and one stacked
# sweep move too.
_BASELINE_SIMD_MAY_MOVE = {
    *(f"{command} --format {fmt}" for fmt in battery.FORMATS
      for command in ("analyze --input dens3.json --oracle", "ghz --n 5 --oracle",
                      "verify --seed 0", "verify --seed 1")),
    "file dens3.json", "file density-n6.json",
    "sweep --input haar-pure-n10.json --steps 10001",
    *_grids({"pure2": (24, 32, 64), "pure4": (13, 24), "pure5": (32, 64), "mixed3": (8, 13, 24),
             "mixed5": (13, 24)}),
}


def _first_differences(want, got, count=3):
    """The first block rows where a run differs from its golden, else the lines, as - and +."""
    rows = [(w, g) for w, g in itertools.zip_longest(want[1:], got[1:], fillvalue="(none)")
            if w != g] or [(want[0], got[0])]
    return [f"  - {w}\n  + {g}" for w, g in rows[:count]]


def _assert_battery_golden(run, may_move=frozenset()):
    # exactly the entries on may_move move: a list entry that stopped moving fails too
    out, err, code = run
    assert (code, err) == (0, "")
    runs = battery.parse(out)
    assert list(runs) == list(GOLDEN)  # the same entries in the same order
    moved = [c for c, rows in GOLDEN.items() if runs[c] != rows]
    unlisted, stale = [c for c in moved if c not in may_move], sorted(may_move - set(moved))
    assert not unlisted, "moved:\n" + "\n".join(
        row for c in unlisted for row in [c, *_first_differences(GOLDEN[c], runs[c])])
    assert not stale, "listed as moving, but did not move:\n" + "\n".join(stale)


def test_battery_prints_its_golden(battery_runs):
    _assert_battery_golden(battery_runs["host"])


def test_battery_holds_under_another_blas_kernel(battery_runs):
    _assert_battery_golden(battery_runs["Prescott"], _PRESCOTT_MAY_MOVE)


def test_battery_holds_at_numpy_baseline_simd(battery_runs):
    out, err, code = battery_runs["baseline SIMD"]
    if code and "NPY_DISABLE_CPU_FEATURES" in err:  # this numpy cannot disable those features
        pytest.skip(err)
    _assert_battery_golden((out, err, code), _BASELINE_SIMD_MAY_MOVE)


@pytest.mark.parametrize("fmt", ["json", "csv", "text"])
@pytest.mark.parametrize("case", sorted(battery.GOLDEN_CASES))
def test_sweep_zoo_golden_output(case, fmt, pinned):
    pinned(*battery.GOLDEN_CASES[case], "--format", fmt)


@pytest.mark.parametrize("fmt", ["json", "csv", "text"])
@pytest.mark.parametrize("case", sorted(battery.GOLDEN_KETS))
def test_analyze_ket_golden_output(case, fmt, pinned):
    pinned("analyze", "--ket", battery.GOLDEN_KETS[case], "--details", "--format", fmt)


@pytest.mark.parametrize("fmt", ["json", "csv", "text"])
@pytest.mark.parametrize("case", sorted(battery.LARGE_KETS))
def test_analyze_large_ket_golden_output(case, fmt, pinned):
    pinned("analyze", "--ket", battery.LARGE_KETS[case], "--format", fmt)


@pytest.mark.parametrize("case", sorted(battery.DETAILS_CASES))
def test_analyze_details_digest(case, pinned):
    pinned("analyze", *battery.DETAILS_CASES[case], "--details", "--format", "json")


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("case", sorted(battery.ZOO_CASES))
def test_zoo_digest(case, fmt, pinned):
    pinned("zoo", *battery.ZOO_CASES[case], "--format", fmt)


@pytest.mark.parametrize("fmt", ["json", "csv", "text"])
@pytest.mark.parametrize("case", sorted(battery.ORACLE_CASES))
def test_oracle_golden_output(case, fmt, pinned):
    pinned(*battery.ORACLE_CASES[case], "--format", fmt)


@pytest.mark.parametrize("name", ["pure4", "dens3"])
def test_analyze_file_details_golden_output(name, pinned):
    pinned("analyze", "--input", f"{name}.json", "--details", "--format", "json")


@pytest.mark.parametrize("name", sorted(battery.WIRE_STATES))
def test_state_to_json_golden_output(name, pinned):
    pinned("wire", name)


@pytest.mark.parametrize("name", sorted(n for n in battery.WIRE_STATES
                                        if not n.startswith("density")))
def test_render_ket_golden_output(name, pinned):
    pinned("wire", name)
