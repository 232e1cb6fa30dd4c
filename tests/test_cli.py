import csv
import io
import json
import math
from pathlib import Path

import numpy as np
import pytest

import rotbell.cli as cli_mod
import rotbell.oracle as oracle_mod
from rotbell.cli import main
from rotbell.states import (
    MAX_DENSE_QUBITS,
    MAX_PURE_QUBITS,
    DensityMatrix,
    PureState,
    as_density,
    parse_ket,
    random_density_matrix,
    random_pure_state,
    state_to_json,
)

GOLDEN = Path(__file__).parent / "golden"


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


@pytest.mark.parametrize("fmt", ["text", "csv"])
def test_analyze_details_built_only_for_json(fmt, capsys, monkeypatch):
    argv = ("analyze", "--ket", "|000>+|111>", "--format", fmt)
    plain = run_cli(capsys, *argv)
    assert plain[0] == 0

    def refuse(state):
        raise AssertionError("correlation tensor built for a format that does not print it")

    monkeypatch.setattr(cli_mod, "correlation_tensor", refuse)
    assert run_cli(capsys, *argv, "--details") == plain


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


def test_analyze_missing_file_exits_1(capsys):
    code, _, err = run_cli(capsys, "analyze", "--input", "/nonexistent/state.json")
    assert code == 1
    assert "error:" in err


def test_usage_errors_exit_1(capsys):
    assert run_cli(capsys, "analyze")[0] == 1  # no input source
    assert run_cli(capsys, "frobnicate")[0] == 1  # unknown command
    assert run_cli(capsys, "analyze", "--ket", "|0>", "--input", "x")[0] == 1  # both sources


def test_determinism_byte_identical(capsys):
    _, out1, _ = run_cli(capsys, "analyze", "--ket", "|000>+|111>", "--format", "json")
    _, out2, _ = run_cli(capsys, "analyze", "--ket", "|000>+|111>", "--format", "json")
    assert out1 == out2


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


@pytest.mark.parametrize("fmt", ["json", "csv", "text"])
@pytest.mark.parametrize("command", sorted(_MATRIX))
def test_every_command_in_every_format(command, fmt, tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli_mod, "_verify_fixtures", _short_battery)
    argv = [a.format(haar3=_haar3_file(tmp_path)) for a in _MATRIX[command]]
    code, out, err = run_cli(capsys, *argv, "--format", fmt)
    assert (code, err) == (0, "")
    assert out.endswith("\n")
    if fmt == "json":
        assert isinstance(json.loads(out), dict)
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


@pytest.mark.parametrize(
    "argv, message",
    [
        (("ghz", "--n", "40"), "pure-state cap"),
        (("analyze", "--ket", "|" + "0" * 40 + ">"), "pure-state cap"),
        (("zoo", "--nmin", "40", "--nmax", "40", "--samples", "1"), "pure-state cap"),
        (("sweep", "--ket", "|0>+|1>", "--steps", str(10**12)), "steps"),
    ],
)
def test_oversized_requests_exit_1_before_allocating(argv, message, capsys, no_huge_arrays):
    code, out, err = run_cli(capsys, *argv)
    assert code == 1 and out == ""
    assert message in err


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


def test_zoo_16_qubits_samples_profiles(capsys, no_huge_arrays):
    code, out, _ = run_cli(capsys, "zoo", "--nmin", "16", "--nmax", "16", "--samples", "1")
    assert code == 0
    rows = [line.split(",") for line in out.strip().splitlines()[1:]]
    assert len(rows) == 16 and all(row[6] == "true" for row in rows)


# ---------------------------------------------------------------------------
# sweep and zoo output pinned byte for byte

_GOLDEN_CASES = {
    "sweep-ghz3": ("sweep", "--ket", "|000>+|111>", "--steps", "11"),
    "sweep-complex": (
        "sweep", "--ket", "(0.3+0.7i)*|0110> - (1.2-0.4i)*|1001> + 0.5*|0000>",
        "--vmin", "0.2", "--vmax", "0.9", "--steps", "8",
    ),
    "sweep-density": ("sweep", "--input", "{dens3}", "--steps", "6"),
    "zoo": ("zoo", "--nmin", "2", "--nmax", "4", "--samples", "3", "--seed", "7"),
}


@pytest.mark.parametrize("fmt", ["json", "csv", "text"])
@pytest.mark.parametrize("case", sorted(_GOLDEN_CASES))
def test_sweep_zoo_golden_output(case, fmt, tmp_path, capsys):
    dens3 = tmp_path / "dens3.json"
    dens3.write_text(json.dumps(state_to_json(random_density_matrix(3, np.random.default_rng(5)))))
    argv = [a.format(dens3=dens3) for a in _GOLDEN_CASES[case]]
    code, out, _ = run_cli(capsys, *argv, "--format", fmt)
    golden = json.loads((GOLDEN / "sweep_zoo.json").read_text())
    assert code == 0
    assert out == golden[f"{case} {fmt}"]


# ---------------------------------------------------------------------------
# analyze --ket output pinned byte for byte

_GOLDEN_KETS = {
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


@pytest.mark.parametrize("fmt", ["json", "csv", "text"])
@pytest.mark.parametrize("case", sorted(_GOLDEN_KETS))
def test_analyze_ket_golden_output(case, fmt, capsys):
    code, out, _ = run_cli(capsys, "analyze", "--ket", _GOLDEN_KETS[case], "--details", "--format", fmt)
    golden = json.loads((GOLDEN / "analyze_ket.json").read_text())
    assert code == 0
    assert out == golden[f"{case} {fmt}"]


# ---------------------------------------------------------------------------
# oracle paths pinned byte for byte: verify's product fixtures and every
# analyze/ghz --oracle route through the brute-force cross-checks

_GOLDEN_ORACLE_CASES = {
    "verify-seed0": ("verify", "--seed", "0"),
    **{f"ghz{n}-oracle": ("ghz", "--n", str(n), "--oracle") for n in range(1, 6)},
    "pure4-oracle": ("analyze", "--input", "pure4.json", "--oracle"),
    "mixed3-oracle": ("analyze", "--input", "dens3.json", "--oracle"),
}


@pytest.mark.parametrize("fmt", ["json", "csv", "text"])
@pytest.mark.parametrize("case", sorted(_GOLDEN_ORACLE_CASES))
def test_oracle_golden_output(case, fmt, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)  # json reports echo the relative input path
    files = {
        "pure4": random_pure_state(4, np.random.default_rng(11)),
        "dens3": random_density_matrix(3, np.random.default_rng(5)),
    }
    for name, state in files.items():
        Path(f"{name}.json").write_text(json.dumps(state_to_json(state)))
    code, out, _ = run_cli(capsys, *_GOLDEN_ORACLE_CASES[case], "--format", fmt)
    golden = json.loads((GOLDEN / "oracle.json").read_text())
    assert code == 0
    assert out == golden[f"{case} {fmt}"]
