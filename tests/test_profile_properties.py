"""Property tests: the profile paths agree with the dense routes and the physics.

White noise only touches the diagonal, so the noisy antidiagonal is exactly
V times the clean one, and a mixture's profile is the weighted sum of its
terms' profiles.  The CLI relies on both facts bit for bit.  Every evaluation
of E runs through one contraction of the profile, which is checked here
against the dense operator trace; r depends only on the moduli of the
profile, so it cannot see qubit relabellings, local z-rotations or a global
phase; and the ket parser rejects bad text with ValueError alone.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rotbell.cli import _sampled_k_separable_profile
from rotbell.correlation import (
    AntidiagonalProfile,
    antidiagonal_profile,
    correlation_tensor,
    correlation_value,
    correlation_value_trace,
    e_max,
)
from rotbell.states import (
    DensityMatrix,
    PureState,
    add_white_noise,
    as_density,
    make_ghz,
    parse_ket_info,
    random_density_matrix,
    random_pure_state,
    sample_k_separable,
)
from rotbell.witness import classify

SETTINGS = settings(max_examples=60, deadline=None, derandomize=True)
seeds = st.integers(0, 2**32 - 1)


@st.composite
def density_matrices(draw):
    n = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(seeds))
    if draw(st.booleans()):
        return as_density(random_pure_state(n, rng))
    return random_density_matrix(n, rng, rank=draw(st.integers(1, 1 << n)))


@SETTINGS
@given(density_matrices(), st.floats(0.0, 1.0))
def test_white_noise_scales_the_profile_exactly(rho, v):
    prof = antidiagonal_profile(rho)
    noisy = add_white_noise(rho, v)
    assert np.array_equal(antidiagonal_profile(noisy).values, v * prof.values)
    scaled = classify(AntidiagonalProfile(rho.n_qubits, v * prof.values))
    assert scaled == classify(noisy)
    assert scaled.r == pytest.approx(v * classify(rho).r, rel=1e-12, abs=1e-12)


@SETTINGS
@given(st.data(), st.integers(1, 6), seeds)
def test_zoo_profile_is_the_dense_mixture_profile(data, n, seed):
    k = data.draw(st.integers(1, n))
    rng_seed = (seed, n, k, data.draw(st.integers(0, 50)))
    dense = antidiagonal_profile(sample_k_separable(n, k, n_terms=2, rng_seed=rng_seed))
    summed = _sampled_k_separable_profile(n, k, rng_seed)
    assert summed.values.tobytes() == dense.values.tobytes()


def test_antidiagonal_profile_is_idempotent():
    prof = antidiagonal_profile(random_pure_state(3, np.random.default_rng(1)))
    assert antidiagonal_profile(prof) is prof
    assert classify(prof) == classify(AntidiagonalProfile(3, prof.values))


@st.composite
def states(draw, nmax=5):
    """A random pure state (kept pure) or a random density matrix, N <= nmax."""
    n = draw(st.integers(1, nmax))
    rng = np.random.default_rng(draw(seeds))
    if draw(st.booleans()):
        return random_pure_state(n, rng)
    return random_density_matrix(n, rng, rank=draw(st.integers(1, 1 << n)))


@SETTINGS
@given(states(), seeds)
def test_profile_evaluation_matches_trace_and_stays_below_e_max(state, seed):
    bound = e_max(state)
    angles = np.random.default_rng(seed).uniform(0.0, 2.0 * np.pi, size=(5, state.n_qubits))
    for a in angles:
        value = correlation_value(state, a)
        assert abs(value - correlation_value_trace(state, a)) <= 1e-12
        assert value <= bound + 1e-12


@SETTINGS
@given(states(nmax=4))
def test_tensor_components_are_the_corner_traces(state):
    n = state.n_qubits
    comp = correlation_tensor(state).components
    for idx, value in enumerate(comp):
        corner = [np.pi / 2 * ((idx >> (n - 1 - j)) & 1) for j in range(n)]
        assert abs(value - correlation_value_trace(state, corner)) <= 1e-12


def _relabelled(state, perm, thetas, gamma):
    """The state with its qubits permuted, then z-rotated, then given a global phase."""
    n = state.n_qubits
    diag = np.ones(1, dtype=complex)
    for t in thetas:
        diag = np.kron(diag, [1.0, np.exp(1j * t)])
    if isinstance(state, PureState):
        amps = state.amplitudes.reshape((2,) * n).transpose(perm).reshape(-1)
        return PureState(n, np.exp(1j * gamma) * diag * amps)
    axes = list(perm) + [p + n for p in perm]
    mat = state.matrix.reshape((2,) * (2 * n)).transpose(axes).reshape(1 << n, 1 << n)
    return DensityMatrix(n, diag[:, None] * mat * diag.conj()[None, :])


@SETTINGS
@given(st.data(), states())
def test_r_is_invariant_under_relabelling_z_rotations_and_global_phase(data, state):
    n = state.n_qubits
    perm = data.draw(st.permutations(range(n)))
    angle = st.floats(0.0, 2.0 * np.pi)
    thetas = data.draw(st.lists(angle, min_size=n, max_size=n))
    moved = _relabelled(state, perm, thetas, data.draw(angle))
    before = np.sort(np.abs(antidiagonal_profile(state).values))
    after = np.sort(np.abs(antidiagonal_profile(moved).values))
    assert np.allclose(after, before, rtol=1e-12, atol=1e-15)
    assert classify(moved).r == pytest.approx(classify(state).r, rel=1e-12, abs=1e-15)


@SETTINGS
@given(st.one_of(st.text(max_size=20), st.text("|01>+-*() .5e9i", max_size=20)))
def test_ket_parser_raises_only_value_error(text):
    try:
        info = parse_ket_info(text)
    except ValueError:
        return
    assert isinstance(info.state, PureState)


@pytest.mark.filterwarnings("error")
@SETTINGS
@given(st.floats(1e-300, 1e300))
@example(1e200)
@example(1e-170)
def test_ket_scale_does_not_change_the_state(c):
    info = parse_ket_info(f"{c!r}*|00> + {c!r}*|11>")
    assert np.allclose(info.state.amplitudes, make_ghz(2).amplitudes, rtol=0, atol=1e-15)
    assert info.input_norm == pytest.approx(c * np.sqrt(2.0), rel=1e-15)
