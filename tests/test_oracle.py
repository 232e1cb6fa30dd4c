import numpy as np
import pytest

import rotbell.oracle as oracle_mod
from rotbell.correlation import (
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
    make_ghz,
    parse_ket,
    random_density_matrix,
    random_pure_state,
    tensor_product,
)


# ---------------------------------------------------------------------------
# grid maximization


def test_grid_finds_ghz3_maximum():
    value, setting = maximize_grid(make_ghz(3))
    assert 1.0 - 1e-6 <= value <= 1.0 + 1e-9
    # for GHZ the correlation is cos(a1+a2+a3), so the angles sum to ~0 mod 2pi
    total = np.mod(setting.sum(), 2 * np.pi)
    assert min(total, 2 * np.pi - total) < 1e-3


def test_grid_on_maximally_mixed():
    value, _setting = maximize_grid(DensityMatrix.maximally_mixed(3))
    assert value == 0.0


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


def test_grid_config_validation():
    with pytest.raises(ValueError):
        GridSearchConfig(points_per_axis=4)
    with pytest.raises(ValueError):
        GridSearchConfig(refinement_shrink=1.5)
    with pytest.raises(ValueError):
        GridSearchConfig(max_evaluations=0)


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
    with pytest.raises(ValueError, match="budget"):
        norm_squared_quadrature(make_ghz(10), 16)


# ---------------------------------------------------------------------------
# cross-validation battery


def test_cross_validate_ghz_family():
    for n in range(2, 6):
        rep = cross_validate(make_ghz(n))
        assert rep.identity_ok
        assert rep.attainability_ok
        assert rep.all_ok


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
    assert not rep.all_ok


def test_cross_validate_rejects_large_n():
    with pytest.raises(ValueError, match="refused"):
        cross_validate(make_ghz(7))


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


def test_cross_validate_deterministic():
    state = random_density_matrix(2, np.random.default_rng(9))
    assert cross_validate(state).to_dict() == cross_validate(state).to_dict()


def test_report_dict_shape():
    d = cross_validate(make_ghz(2)).to_dict()
    assert {"trace_equivalence", "dual_norm", "quadrature_norm", "grid_soundness",
            "attainability"} == {c["name"] for c in d["checks"]}
    assert d["identity_ok"] is True
