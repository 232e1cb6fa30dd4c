import dataclasses
import logging
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rotbell.cli as cli_mod
import rotbell.correlation as correlation_mod
import rotbell.oracle as oracle_mod
from rotbell.correlation import (
    AntidiagonalProfile,
    _evaluate,
    antidiagonal_profile,
    correlation_value,
    e_max,
    norm_squared_antidiagonal,
    norm_squared_tensor,
    correlation_tensor,
    optimal_angles_two_qubit,
)
from rotbell.oracle import (
    BudgetExceededError,
    GridSearchConfig,
    cross_validate,
    maximize_grid,
    norm_squared_quadrature,
)
from rotbell.states import (
    DensityMatrix,
    ghz_terms,
    make_ghz,
    parse_ket,
    parse_ket_info,
    random_density_matrix,
    random_pure_state,
    tensor_product,
)
from rotbell.witness import classify

from conftest import battery


# ---------------------------------------------------------------------------
# grid maximization


def test_grid_finds_ghz3_maximum():
    value, setting = maximize_grid(make_ghz(3))
    assert 1.0 - 1e-6 <= value <= 1.0 + 1e-9
    # for GHZ the correlation is cos(a1+a2+a3), so the angles sum to ~0 mod 2pi
    total = np.mod(setting.sum(), 2 * np.pi)
    assert min(total, 2 * np.pi - total) < 1e-3


def test_grid_on_maximally_mixed():
    # E vanishes everywhere, as it does for the W ket: no later block or round
    # is strictly larger than the first C-order point of round 0, (0, 0, 0)
    for state in (DensityMatrix.maximally_mixed(3), parse_ket("|001>+|010>+|100>")):
        assert not antidiagonal_profile(state).values.any()
        value, setting = maximize_grid(state)
        assert repr(value) == "0.0"
        assert setting.tolist() == [0.0, 0.0, 0.0]


def test_grid_matches_two_qubit_closed_maximizer():
    rng = np.random.default_rng(0)
    for _ in range(10):
        state = random_pure_state(2, rng)
        prof = antidiagonal_profile(state)
        value, _ = maximize_grid(prof)
        em = e_max(prof)
        assert value == pytest.approx(em, abs=1e-6)
        at_optimum = correlation_value(prof, optimal_angles_two_qubit(prof))
        assert value == pytest.approx(at_optimum, abs=1e-6)


def test_grid_never_exceeds_e_max():
    rng = np.random.default_rng(1)
    for n in (1, 2, 3, 4):
        for _ in range(5):
            state = random_pure_state(n, rng)
            value, _ = maximize_grid(state)
            assert value <= e_max(state) + 1e-9


def test_grid_attains_for_product_states():
    # products of single-qubit blocks factor E into independent cosines, so the
    # closed-form maximum is attained for any N
    rng = np.random.default_rng(2)
    for n in (3, 4):
        part = [[q] for q in range(1, n + 1)]
        state = tensor_product([random_pure_state(1, rng) for _ in range(n)], part)
        value, _ = maximize_grid(state)
        assert value == pytest.approx(e_max(state), abs=1e-6)


def test_generic_entangled_state_has_strict_gap():
    # aligning all 2^(N-1) antidiagonal phases takes more freedom than N angles
    # provide, so for a generic entangled state the closed form is a strict
    # upper bound; the grid (which does converge to the true supremum basin)
    # must stop measurably short of it
    state = random_pure_state(3, np.random.default_rng(123))
    value, _ = maximize_grid(state, GridSearchConfig(points_per_axis=48))
    gap = e_max(state) - value
    assert gap > 1e-3


def test_grid_determinism():
    state = random_pure_state(3, np.random.default_rng(3))
    a = maximize_grid(state)
    b = maximize_grid(state)
    assert a.value == b.value
    assert np.array_equal(a.setting, b.setting)


def test_grid_budget_autofit_and_refusal():
    state = random_pure_state(4, np.random.default_rng(4))
    # default budget cannot afford 64^4 evaluations; the per-axis resolution is
    # reduced instead of erroring out
    value, _ = maximize_grid(state, GridSearchConfig(points_per_axis=64))
    assert value <= e_max(state) + 1e-9
    with pytest.raises(BudgetExceededError):
        maximize_grid(state, GridSearchConfig(max_evaluations=1000))


def test_grid_fits_exact_budgets_by_the_integer_root():
    # 512 ** (1/3) is 7.999... in floating point; 8^3 = 512 evaluations still fit
    cfg = GridSearchConfig(points_per_axis=8, refinement_rounds=0, max_evaluations=512)
    assert maximize_grid(make_ghz(3), cfg).value == pytest.approx(1.0, abs=1e-12)
    for n in range(3, 7):
        for p in range(8, 40):
            for rounds in (0, 1, 3):
                exact = (rounds + 1) * p**n
                assert oracle_mod._fit_points(p, n, rounds, exact) == p
                if p > 8:
                    assert oracle_mod._fit_points(p, n, rounds, exact - 1) == p - 1
                else:
                    with pytest.raises(BudgetExceededError):
                        oracle_mod._fit_points(p, n, rounds, exact - 1)
    assert oracle_mod._fit_points(24, 3, 3, 4 * 8**3) == 8  # the floor of 8 points per axis
    # a budget past the largest float takes the requested points without a float root
    huge = GridSearchConfig(max_evaluations=10**309)
    assert oracle_mod._fit_points(24, 3, 3, huge.max_evaluations) == 24
    assert maximize_grid(make_ghz(3), huge).value == pytest.approx(1.0, abs=1e-12)


def test_grid_config_validation():
    with pytest.raises(ValueError):
        GridSearchConfig(points_per_axis=4)
    with pytest.raises(ValueError):
        GridSearchConfig(max_evaluations=0)
    for bad in ({"points_per_axis": 10.5}, {"max_evaluations": 1e6},
                {"refinement_rounds": 1.5}, {"refinement_rounds": True}):
        with pytest.raises(ValueError, match="integer"):
            GridSearchConfig(**bad)
    assert GridSearchConfig(refinement_rounds=0, points_per_axis=np.int64(9)).refinement_rounds == 0


def test_library_and_cli_share_one_grid_budget():
    assert GridSearchConfig() == cli_mod._ORACLE_CONFIG == GridSearchConfig(24, 3, 2_000_000)


# value and setting of the grid search pinned bit for bit by the battery's grid
# probes, from the floor of 8 points per axis up to 64 points and 10^7
# evaluations; a refusal is pinned by its message
@pytest.mark.parametrize("config", battery.GRID_CONFIGS, ids=lambda c: "-".join(map(str, c)))
@pytest.mark.parametrize("name", battery.GRID_STATES)
def test_grid_golden_output(name, config, pinned):
    pinned("grid", name, *map(str, config))


def _materialised_grid(state, config):
    """maximize_grid's rounds, each with one argmax over its whole ``_evaluate`` grid."""
    prof = antidiagonal_profile(state)
    n = prof.n_qubits
    pts = oracle_mod._fit_points(config.points_per_axis, n, config.refinement_rounds,
                                 config.max_evaluations)
    best, setting, half_width = -np.inf, np.full(n, np.pi), np.pi
    for rnd in range(config.refinement_rounds + 1):
        axes = [np.linspace(c - half_width, c + half_width, pts, endpoint=rnd > 0) for c in setting]
        values = _evaluate(prof, [np.exp(1j * ax) for ax in axes])
        idx = np.unravel_index(np.argmax(values), values.shape)
        if values[idx] > best:
            best, setting = float(values[idx]), np.array([ax[i] for ax, i in zip(axes, idx)])
        half_width *= oracle_mod.REFINEMENT_SHRINK
    return best, np.mod(setting, 2.0 * np.pi)


@pytest.mark.parametrize("config", battery.GRID_CONFIGS, ids=lambda c: "-".join(map(str, c)))
@pytest.mark.parametrize("make", [random_pure_state, random_density_matrix])
def test_blocked_grid_matches_the_materialised_grid(make, config, monkeypatch):
    cfg = GridSearchConfig(*config)
    for n in range(1, 7):
        state = make(n, np.random.default_rng((43, n)))
        try:
            got = maximize_grid(state, cfg)
        except BudgetExceededError:
            with pytest.raises(BudgetExceededError):
                _materialised_grid(state, cfg)
            continue
        with monkeypatch.context() as m:  # one block per round: the whole grid at once
            m.setattr(correlation_mod, "_BLOCK_POINTS", 1 << 62)
            value, setting = _materialised_grid(state, cfg)
        assert repr(got.value) == repr(value), (n, config)
        assert got.setting.tobytes() == setting.tobytes(), (n, config)


def test_grid_tiles_need_not_divide_the_axis():
    # the default grid at N = 3 has 24 points per axis: rows of 24^2 = 576
    # columns, 7 rows to a tile of at most 4,096 values, so 7 + 7 + 7 + 3 rows;
    # a row of 5,000 columns (576 of them repeated, so ties cross the tiles)
    # goes in pieces of 4,096 and 904, and one of 4,097 in 4,096 and 1
    cfg = GridSearchConfig()
    assert oracle_mod._fit_points(cfg.points_per_axis, 3, cfg.refinement_rounds,
                                  cfg.max_evaluations) == 24
    prof = antidiagonal_profile(random_density_matrix(3, np.random.default_rng(44)))
    phases = [np.exp(1j * np.linspace(0.0, 2.0 * np.pi, 24, endpoint=False))[None]] * 2
    lead = phases[0][0]
    z = correlation_mod._columns(prof, phases)[0]
    cases = [(z, [(0, 0, 7, 576), (7, 0, 7, 576), (14, 0, 7, 576), (21, 0, 3, 576)])]
    for size in (5000, 4097):  # 4,097 ends each row in a tile of one value
        pieces = ((0, 4096), (4096, size - 4096))
        cases.append((np.resize(z, size), [(r, c, 1, w) for r in range(24) for c, w in pieces]))
    for cols, want in cases:
        grid = correlation_mod._e_values(lead[:, None], cols)
        tiles = list(correlation_mod._tiles(lead, cols))
        assert [(r, c) + values.shape for r, c, values in tiles] == want
        for r, c, values in tiles:
            assert values.tobytes() == grid[r:r + len(values), c:c + values.shape[1]].tobytes()
        top, row, col = oracle_mod._first_max(lead, cols)
        assert (row, col) == np.unravel_index(np.argmax(grid), grid.shape)
        assert repr(top) == repr(float(grid.max()))


@pytest.mark.parametrize("points", [1, 7, 4096, 1 << 62])
def test_tile_size_leaves_every_grid_output_unchanged(points, monkeypatch):
    # one tile size for all of them: patching it in correlation reaches the grid search too
    def outputs():
        out = []
        for n in range(1, 4):
            for make in (random_pure_state, random_density_matrix):
                prof = antidiagonal_profile(make(n, np.random.default_rng((50, n))))
                axes = [np.exp(1j * np.linspace(0.0, 2.0 * np.pi, 5 + j)) for j in range(n)]
                out += [_evaluate(prof, axes).tobytes(),
                        correlation_tensor(prof).components.tobytes(),
                        repr(norm_squared_quadrature(prof))]
                for config in ((8, 0, 512), (13, 1, 100_000)):
                    value, setting = maximize_grid(prof, GridSearchConfig(*config))
                    out += [repr(value), setting.tobytes()]
        return out

    want = outputs()
    monkeypatch.setattr(correlation_mod, "_BLOCK_POINTS", points)
    assert outputs() == want


@pytest.mark.parametrize("n", [4, 5, 6])
def test_grid_search_never_allocates_the_whole_grid(n):
    # the whole N = 4 grid at 24 points is 5.3 MB of complex values alone; the
    # maximally mixed state has E = 0 everywhere, so no column is pruned: the
    # scan of every column in tiles is the worst case
    for state in (random_density_matrix(n, np.random.default_rng((46, n))),
                  DensityMatrix.maximally_mixed(n)):
        maximize_grid(state)  # any one-time set-up happens outside the measurement
        tracemalloc.start()
        try:
            maximize_grid(state)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20


def test_grid_search_logs_one_debug_record_per_call(caplog):
    state = random_pure_state(5, np.random.default_rng(47))
    with caplog.at_level(logging.DEBUG, logger="rotbell.oracle"):
        maximize_grid(state)  # 24 points per axis fit the default budget as 13 at N = 5
        maximize_grid(make_ghz(3), GridSearchConfig(8, 0, 512))
        maximize_grid(make_ghz(1))
    # a round that keeps the probe column alone spends only the probe; the GHZ
    # profile has one nonzero element, so every column has the same |z| and
    # none is pruned: the probe column is spent on top of the grid, except at
    # N = 1, where it is the one column
    assert [(r.name, r.levelno, r.getMessage()) for r in caplog.records] == [
        ("rotbell.oracle", logging.DEBUG, "maximize_grid: n=5 points_per_axis=13 rounds=4 "
         "grid_points=1485172 evaluations=52 columns_per_round=28561 kept_columns=1,1,1,1"),
        ("rotbell.oracle", logging.DEBUG, "maximize_grid: n=3 points_per_axis=8 rounds=1 "
         "grid_points=512 evaluations=520 columns_per_round=64 kept_columns=64"),
        ("rotbell.oracle", logging.DEBUG, "maximize_grid: n=1 points_per_axis=24 rounds=4 "
         "grid_points=96 evaluations=96 columns_per_round=1 kept_columns=1,1,1,1"),
    ]


def _assert_matches_the_materialised_grid(state, config):
    got = maximize_grid(state, config)
    value, setting = _materialised_grid(state, config)
    assert repr(got.value) == repr(value)
    assert got.setting.tobytes() == setting.tobytes()


# in budget up to N = 6
_TIE_CONFIGS = [(8, 0, 8**6), (13, 1, 1_000_000), (24, 3, 2_000_000)]


@pytest.mark.parametrize("n", [3, 4])
@pytest.mark.parametrize("scale", [1e-310, 1e-318, 1e-321])
def test_column_bound_holds_on_subnormal_profiles(scale, n):
    # E and |z| are subnormal: from about 1e-312 down their rounding is far
    # coarser than 1e-12 relative, and only the absolute slack keeps the
    # winning column (without it, even the probe column can be dropped)
    for seed in range(4):
        for make in (random_pure_state, random_density_matrix):
            values = antidiagonal_profile(make(n, np.random.default_rng((48, n, seed)))).values
            tiny = AntidiagonalProfile(n, values * scale)
            assert 0.0 < np.abs(tiny.values).max() < np.finfo(float).tiny
            for config in _TIE_CONFIGS[:2]:
                _assert_matches_the_materialised_grid(tiny, GridSearchConfig(*config))


@pytest.mark.parametrize("config", _TIE_CONFIGS, ids=lambda c: "-".join(map(str, c)))
def test_column_bound_keeps_the_first_maximum_among_ties(config, caplog):
    cfg = GridSearchConfig(*config)
    tied = [make_ghz(n) for n in range(1, 7)]  # one element: every column has the top modulus
    tied += [make(1, np.random.default_rng(49)) for make in (random_pure_state, random_density_matrix)]
    for state in tied:
        _assert_matches_the_materialised_grid(state, cfg)
    for n in range(1, 7):  # E = 0 everywhere: every column survives
        with caplog.at_level(logging.DEBUG, logger="rotbell.oracle"):
            _assert_matches_the_materialised_grid(DensityMatrix.maximally_mixed(n), cfg)
        record = dict(field.split("=") for field in caplog.records[-1].getMessage().split()[1:])
        assert set(record["kept_columns"].split(",")) == {record["columns_per_round"]}


@st.composite
def dense_profiles(draw):
    n = draw(st.integers(1, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    half = 1 << (n - 1)
    moduli = rng.uniform(0.0, 0.5, half) * (rng.random(half) < draw(st.floats(0.1, 1.0)))
    return AntidiagonalProfile(n, moduli * np.exp(2j * np.pi * rng.random(half)))


@st.composite
def in_budget_configs(draw, n):
    points, rounds = draw(st.integers(8, 14)), draw(st.integers(0, 3))
    lowest = (rounds + 1) * oracle_mod.MIN_POINTS_PER_AXIS**n
    return GridSearchConfig(points, rounds, draw(st.integers(lowest, (rounds + 1) * points**n)))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.data(), dense_profiles())
def test_pruned_grid_matches_the_materialised_grid(data, prof):
    _assert_matches_the_materialised_grid(prof, data.draw(in_budget_configs(prof.n_qubits)))


# ---------------------------------------------------------------------------
# quadrature


def test_quadrature_ghz3():
    assert norm_squared_quadrature(make_ghz(3), 8) == pytest.approx(4 * np.pi**3, rel=1e-12)


def test_quadrature_maximally_mixed():
    assert norm_squared_quadrature(DensityMatrix.maximally_mixed(2)) == 0.0


def test_quadrature_matches_tensor_norm_4_qubits():
    state = random_pure_state(4, np.random.default_rng(5))
    quad = norm_squared_quadrature(state, 8)
    tens = norm_squared_tensor(correlation_tensor(state))
    assert quad == pytest.approx(tens, rel=1e-9)


def test_quadrature_matches_closed_form_all_small_n():
    rng = np.random.default_rng(6)
    for n in range(1, 6):
        for state in (make_ghz(n), random_pure_state(n, rng), random_density_matrix(n, rng)):
            quad = norm_squared_quadrature(state, 8)
            closed = norm_squared_antidiagonal(state)
            assert abs(quad - closed) <= 1e-9 * max(closed, 1e-12)


def test_quadrature_exactness_plateau():
    # trapezoid rule is already exact at 5 points per axis; more points change nothing
    rng = np.random.default_rng(7)
    for n in (1, 2, 3):
        state = random_density_matrix(n, rng)
        values = [norm_squared_quadrature(state, m) for m in range(5, 17)]
        assert max(values) - min(values) <= 1e-10 * max(max(values), 1.0)


def test_quadrature_input_checks():
    with pytest.raises(ValueError, match=">= 5"):
        norm_squared_quadrature(make_ghz(2), 4)
    with pytest.raises(ValueError, match="integer"):
        norm_squared_quadrature(make_ghz(2), 5.5)
    with pytest.raises(ValueError, match="budget"):
        norm_squared_quadrature(make_ghz(10), 16)


# ---------------------------------------------------------------------------
# cross-validation battery


def test_cross_validate_ghz_family():
    for n in range(2, 6):
        rep = cross_validate(make_ghz(n))
        assert rep.identity_ok
        assert rep.attainability_ok
        assert rep.passes(attainability_gated=True)


def test_cross_validate_random_mixed_states():
    rng = np.random.default_rng(8)
    for _ in range(10):
        rep = cross_validate(random_density_matrix(3, rng))
        # the four identity checks hold for every valid state
        assert rep.identity_ok
        assert rep.trace_max_abs_diff <= 1e-12
        assert rep.dual_norm_rel_diff <= 1e-9
        assert rep.quadrature_rel_diff <= 1e-9
        assert rep.grid_gap >= -1e-9


def test_cross_validate_reports_generic_gap():
    # generic entangled 3-qubit states do not attain the closed-form maximum;
    # that shows up as a flagged (not raised) attainability failure
    state = random_pure_state(3, np.random.default_rng(123))
    rep = cross_validate(state)
    assert rep.identity_ok
    assert rep.grid_gap > 1e-3
    assert not rep.attainability_ok
    assert not rep.passes(attainability_gated=True)


def test_cross_validate_rejects_large_n():
    with pytest.raises(ValueError, match="refused"):
        cross_validate(make_ghz(7))


def test_cross_validate_checks_a_ket_parse_as_its_dense_state():
    ket = parse_ket_info("(0.6+0.2i)*|000> - 0.8*|111> + |011>")
    assert cross_validate(ket).to_dict() == cross_validate(ket.state).to_dict()
    # the n <= 6 rule comes first: a 40-qubit ket is never densified
    with pytest.raises(ValueError, match="n=40 > 6"):
        cross_validate(ghz_terms(40))


def test_cross_validate_checks_the_ket_profile_the_report_reads():
    # the oracle checks the very numbers classify printed, and one sum rule
    # makes them the same bits on the ket's sparse and dense routes
    rng = np.random.default_rng(2024)
    config = GridSearchConfig(points_per_axis=8, refinement_rounds=0)
    for _ in range(40):
        n = int(rng.integers(3, 7))
        named = rng.choice(1 << n, size=int(rng.integers(2, (1 << n) + 1)), replace=False)
        info = parse_ket_info(" + ".join(
            f"({rng.normal():.6f}{rng.normal():+.6f}i)*|{i:0{n}b}>" for i in named))
        checked = cross_validate(info, config)
        assert checked.e_max == classify(info).e_max
        assert classify(info) == classify(info.state)
        assert checked.to_dict() == cross_validate(info.state, config).to_dict()


def test_cross_validate_refuses_a_profile():
    with pytest.raises(TypeError, match="needs a state"):
        cross_validate(antidiagonal_profile(make_ghz(3)))


def test_cross_validate_refuses_n7_before_any_check(monkeypatch):
    def never(state, angles):
        raise AssertionError("the trace check ran before the size refusal")

    monkeypatch.setattr(oracle_mod, "correlation_value_trace", never)
    with pytest.raises(ValueError, match="n=7 > 6"):
        cross_validate(random_pure_state(7, np.random.default_rng(0)))


def test_cross_validate_detects_sign_mutation(monkeypatch):
    # regression guard: a flipped sign in the antidiagonal evaluation path must
    # trip the trace-equivalence check
    original = oracle_mod.correlation_value

    def flipped(state, angles):
        # every phase phi_k negated: E evaluated at the negated angles
        return original(state, -np.asarray(angles, dtype=float))

    monkeypatch.setattr(oracle_mod, "correlation_value", flipped)
    rep = cross_validate(parse_ket("|00> + (0.5+0.5i)*|11>"))
    assert not rep.identity_ok
    assert rep.trace_max_abs_diff > 1e-12


def test_cross_validate_calls_each_route_once_per_state(monkeypatch):
    calls = Counter()
    for name in ("correlation_value", "correlation_value_trace"):
        def counted(state, angles, _original=getattr(oracle_mod, name), _name=name):
            calls[_name] += 1
            return _original(state, angles)

        monkeypatch.setattr(oracle_mod, name, counted)
    for state in (make_ghz(3), random_density_matrix(2, np.random.default_rng(4))):
        assert cross_validate(state).identity_ok
    assert calls == {"correlation_value": 2, "correlation_value_trace": 2}


def test_cross_validate_deterministic():
    state = random_density_matrix(2, np.random.default_rng(9))
    assert cross_validate(state).to_dict() == cross_validate(state).to_dict()


def test_report_dict_shape():
    d = cross_validate(make_ghz(2)).to_dict()
    assert {"trace_equivalence", "dual_norm", "quadrature_norm", "grid_soundness",
            "attainability"} == {c["name"] for c in d["checks"]}
    assert d["identity_ok"] is True


def _leaf_types(tree):
    """``tree`` with each leaf replaced by its type; dict keys stay in their order."""
    if isinstance(tree, dict):
        return [(k, _leaf_types(v)) for k, v in tree.items()]
    if isinstance(tree, (list, tuple)):
        return type(tree), [_leaf_types(v) for v in tree]
    return type(tree)


def _assert_is_asdict(report):
    got, want = report.to_dict(), dataclasses.asdict(report)
    want.update((k, v) for k, v in got.items() if k not in want)  # the oracle's two verdicts
    assert got == want
    assert repr(got) == repr(want)  # key order and every digit
    assert _leaf_types(got) == _leaf_types(want)


_SMALL_GRID = GridSearchConfig(points_per_axis=8, refinement_rounds=0)  # to_dict reads no grid


@pytest.mark.parametrize("n", range(1, 7))
@pytest.mark.parametrize("make", [random_pure_state, random_density_matrix])
def test_report_to_dict_is_a_shallow_asdict(make, n):
    for seed in range(3):
        state = make(n, np.random.default_rng((seed, n)))
        _assert_is_asdict(classify(state))
        _assert_is_asdict(cross_validate(state, config=_SMALL_GRID))


def test_report_to_dict_is_a_shallow_asdict_at_22_qubits():
    ket = parse_ket_info(f"(0.6+0.2i)*|{'0' * 22}> - 0.8*|{'1' * 22}> + |{'01' * 11}>")
    _assert_is_asdict(classify(ket))
