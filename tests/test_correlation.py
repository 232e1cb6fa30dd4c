import numpy as np
import pytest

from rotbell.correlation import (
    AntidiagonalProfile,
    antidiagonal_profile,
    correlation_tensor,
    correlation_value,
    correlation_value_from_tensor,
    correlation_value_trace,
    e_max,
    norm_squared_antidiagonal,
    norm_squared_tensor,
    optimal_angles_two_qubit,
)
from rotbell.states import (
    DensityMatrix,
    PureState,
    as_density,
    make_ghz,
    parse_ket,
    random_density_matrix,
    random_pure_state,
)

INV_SQRT2 = 1.0 / np.sqrt(2.0)


def plus_x():
    return PureState(1, np.array([1.0, 1.0]) * INV_SQRT2)


def plusx_bell():
    return parse_ket("|000>+|011>+|100>+|111>")


def random_states(rng, n, pure=3, mixed=3):
    for _ in range(pure):
        yield random_pure_state(n, rng)
    for _ in range(mixed):
        yield random_density_matrix(n, rng)


# ---------------------------------------------------------------------------
# antidiagonal profile


def test_profile_ghz3():
    prof = antidiagonal_profile(make_ghz(3))
    # rho[000;111] = psi_000 * conj(psi_111) = 1/2, all others vanish
    assert prof.values[0] == pytest.approx(0.5, abs=1e-15)
    assert np.max(np.abs(prof.values[1:])) == 0.0


def test_profile_basis_state_vanishes():
    amps = np.zeros(8)
    amps[0] = 1.0
    prof = antidiagonal_profile(PureState(3, amps))
    assert np.max(np.abs(prof.values)) == 0.0


def test_profile_plusx_bell():
    prof = antidiagonal_profile(plusx_bell())
    assert prof.values[0b00] == pytest.approx(0.25, abs=1e-15)
    assert prof.values[0b11] == pytest.approx(0.25, abs=1e-15)
    assert prof.values[0b01] == 0.0 and prof.values[0b10] == 0.0


def test_profile_pure_matches_density():
    rng = np.random.default_rng(2)
    for n in range(1, 6):
        psi = random_pure_state(n, rng)
        pure_vals = antidiagonal_profile(psi).values
        dense_vals = antidiagonal_profile(as_density(psi)).values
        assert np.max(np.abs(pure_vals - dense_vals)) <= 1e-14


def test_profile_modulus_bound_for_valid_states():
    rng = np.random.default_rng(3)
    for n in range(1, 5):
        for state in random_states(rng, n, pure=10, mixed=10):
            prof = antidiagonal_profile(state)
            assert np.max(np.abs(prof.values)) <= 0.5 + 1e-12


def test_profile_rejects_modulus_above_half():
    with pytest.raises(ValueError, match="bound"):
        AntidiagonalProfile(2, np.array([0.6, 0.0]))


# ---------------------------------------------------------------------------
# correlation values


def test_ghz3_correlation_is_cosine_of_angle_sum():
    g = make_ghz(3)
    rng = np.random.default_rng(4)
    for _ in range(20):
        a = rng.uniform(0, 2 * np.pi, 3)
        assert correlation_value(g, a) == pytest.approx(np.cos(a.sum()), abs=1e-12)
    assert correlation_value(g, [0.0, 0.0, 0.0]) == pytest.approx(1.0, abs=1e-12)


def test_maximally_mixed_has_no_correlations():
    rho = DensityMatrix.maximally_mixed(3)
    a = np.random.default_rng(5).uniform(0, 2 * np.pi, 3)
    assert correlation_value(rho, a) == 0.0


def test_bell_state_corners():
    bell = parse_ket("|00>+|11>")
    assert correlation_value(bell, [0.0, 0.0]) == pytest.approx(1.0, abs=1e-12)
    assert correlation_value(bell, [0.0, np.pi / 2]) == pytest.approx(0.0, abs=1e-12)


def test_trace_oracle_single_qubit_plus_x():
    for alpha in np.linspace(0, 2 * np.pi, 17):
        assert correlation_value_trace(plus_x(), [alpha]) == pytest.approx(
            np.cos(alpha), abs=1e-12
        )


def test_trace_oracle_ghz2():
    assert correlation_value_trace(make_ghz(2), [np.pi / 4, -np.pi / 4]) == pytest.approx(
        1.0, abs=1e-12
    )


def test_correlation_matches_trace_everywhere():
    rng = np.random.default_rng(6)
    for n in range(1, 7):
        for state in random_states(rng, n, pure=2, mixed=2):
            for _ in range(25):
                a = rng.uniform(0, 2 * np.pi, n)
                fast = correlation_value(state, a)
                slow = correlation_value_trace(state, a)
                assert abs(fast - slow) <= 1e-12


def test_trace_oracle_refuses_above_dense_cap_before_building(monkeypatch):
    def no_kron(*args):
        raise AssertionError("np.kron called")

    monkeypatch.setattr(np, "kron", no_kron)
    with pytest.raises(ValueError, match="dense-matrix cap of 13"):
        correlation_value_trace(make_ghz(14), np.zeros(14))


def test_correlation_value_in_unit_interval():
    rng = np.random.default_rng(7)
    for n in (2, 4):
        for state in random_states(rng, n, pure=5, mixed=5):
            for _ in range(20):
                a = rng.uniform(0, 2 * np.pi, n)
                assert abs(correlation_value(state, a)) <= 1.0 + 1e-10


def test_angle_validation():
    with pytest.raises(ValueError, match="angles"):
        correlation_value(make_ghz(2), [0.0])
    with pytest.raises(ValueError, match="NaN"):
        correlation_value(make_ghz(2), [0.0, np.nan])


# ---------------------------------------------------------------------------
# correlation tensor


def test_tensor_ghz3_components():
    comp = correlation_tensor(make_ghz(3)).components
    # (i1 i2 i3) packed with x=0, y=1: xxx=0, xyy=3, yxy=5, yyx=6
    expected = np.zeros(8)
    expected[0b000] = 1.0
    expected[0b011] = expected[0b101] = expected[0b110] = -1.0
    assert np.allclose(comp, expected, atol=1e-12)


@pytest.mark.parametrize("n", range(2, 7))
def test_tensor_ghz_has_half_nonzero_pm1(n):
    comp = correlation_tensor(make_ghz(n)).components
    nonzero = np.abs(comp) > 1e-12
    assert nonzero.sum() == 2 ** (n - 1)
    assert np.allclose(np.abs(comp[nonzero]), 1.0, atol=1e-12)


def test_tensor_product_basis_state_is_zero():
    amps = np.zeros(16)
    amps[0] = 1.0
    assert np.max(np.abs(correlation_tensor(PureState(4, amps)).components)) == 0.0


def test_tensor_equals_corner_trace_values():
    # independent oracle: each component is the correlation at a corner setting
    rng = np.random.default_rng(8)
    for n in (1, 2, 3):
        for state in random_states(rng, n, pure=2, mixed=2):
            comp = correlation_tensor(state).components
            for t in range(2**n):
                corner = [
                    (np.pi / 2 if (t >> (n - 1 - j)) & 1 else 0.0) for j in range(n)
                ]
                assert comp[t] == pytest.approx(
                    correlation_value_trace(state, corner), abs=1e-12
                )


def test_tensor_reconstruction_matches_correlation():
    rng = np.random.default_rng(9)
    for n in (1, 2, 4):
        for state in random_states(rng, n, pure=2, mixed=2):
            tensor = correlation_tensor(state)
            for _ in range(10):
                a = rng.uniform(0, 2 * np.pi, n)
                assert correlation_value_from_tensor(tensor, a) == pytest.approx(
                    correlation_value(state, a), abs=1e-10
                )


# ---------------------------------------------------------------------------
# e_max and the two-qubit maximizer


def test_e_max_ghz_is_one():
    for n in range(1, 8):
        assert e_max(make_ghz(n)) == pytest.approx(1.0, abs=1e-14)


def test_e_max_plusx_bell_is_one():
    assert e_max(plusx_bell()) == pytest.approx(1.0, abs=1e-14)


def test_e_max_maximally_mixed_is_zero():
    assert e_max(DensityMatrix.maximally_mixed(2)) == 0.0


def test_optimal_angles_phi_plus():
    ang = optimal_angles_two_qubit(antidiagonal_profile(parse_ket("|00>+|11>")))
    assert np.allclose(ang, [0.0, 0.0])


def test_optimal_angles_quarter_phase():
    # rho[00;11] = (1/2) e^{i pi/2}: both angles are pi/4 in magnitude, and the
    # correct orientation is the one where E actually reaches e_max
    psi = PureState(2, np.array([1.0, 0.0, 0.0, -1.0j]) * INV_SQRT2)
    prof = antidiagonal_profile(psi)
    assert prof.values[0] == pytest.approx(0.5j, abs=1e-15)
    ang = optimal_angles_two_qubit(prof)
    assert np.allclose(np.abs(ang), [np.pi / 4, np.pi / 4])
    assert correlation_value(psi, ang) == pytest.approx(e_max(psi), abs=1e-10)
    # grid oracle: no planar setting does better
    grid = np.linspace(0, 2 * np.pi, 720, endpoint=False)
    best = max(correlation_value(prof, [a1, a2]) for a1 in grid[::12] for a2 in grid[::12])
    assert best <= e_max(psi) + 1e-9


def test_optimal_angles_reach_e_max_on_random_states():
    rng = np.random.default_rng(10)
    for _ in range(25):
        state = random_pure_state(2, rng) if rng.random() < 0.5 else random_density_matrix(2, rng)
        prof = antidiagonal_profile(state)
        if e_max(prof) < 1e-12:
            continue
        ang = optimal_angles_two_qubit(prof)
        assert correlation_value(prof, ang) == pytest.approx(e_max(prof), abs=1e-10)


def test_optimal_angles_errors():
    with pytest.raises(ValueError, match="2 qubits"):
        optimal_angles_two_qubit(antidiagonal_profile(make_ghz(3)))
    with pytest.raises(ValueError, match="vanish"):
        optimal_angles_two_qubit(antidiagonal_profile(DensityMatrix.maximally_mixed(2)))


# ---------------------------------------------------------------------------
# norms


def test_norm_ghz3():
    assert norm_squared_antidiagonal(make_ghz(3)) == pytest.approx(4 * np.pi**3, rel=1e-13)
    assert norm_squared_antidiagonal(make_ghz(3)) == pytest.approx(124.025, abs=5e-4)


def test_norm_bell():
    assert norm_squared_antidiagonal(parse_ket("|00>+|11>")) == pytest.approx(
        2 * np.pi**2, rel=1e-13
    )


def test_norm_maximally_mixed():
    assert norm_squared_antidiagonal(DensityMatrix.maximally_mixed(3)) == 0.0
    zero_tensor = correlation_tensor(DensityMatrix.maximally_mixed(3))
    assert norm_squared_tensor(zero_tensor) == 0.0


def test_norm_tensor_ghz3():
    ns = norm_squared_tensor(correlation_tensor(make_ghz(3)))
    assert ns == pytest.approx(4 * np.pi**3, rel=1e-13)
    assert ns == pytest.approx(norm_squared_antidiagonal(make_ghz(3)), rel=1e-13)


def test_dual_norm_identity_random_states():
    rng = np.random.default_rng(11)
    for n in range(1, 7):
        for state in random_states(rng, n, pure=3, mixed=3):
            a = norm_squared_antidiagonal(state)
            b = norm_squared_tensor(correlation_tensor(state))
            assert abs(a - b) <= 1e-9 * max(a, b, 1e-30)
