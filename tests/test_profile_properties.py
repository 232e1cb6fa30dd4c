"""Property tests: the profile-only paths of `sweep` and `zoo` agree with the dense routes.

White noise only touches the diagonal, so the noisy antidiagonal is exactly
V times the clean one, and a mixture's profile is the weighted sum of its
terms' profiles.  The CLI relies on both facts bit for bit.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rotbell.cli import _sampled_k_separable_profile
from rotbell.correlation import AntidiagonalProfile, antidiagonal_profile
from rotbell.states import (
    add_white_noise,
    as_density,
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
