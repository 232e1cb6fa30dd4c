import time
from unittest import mock

import numpy as np
import pytest

from rotbell.states import (
    MAX_PURE_QUBITS,
    MAX_TERM_QUBITS,
    PSD_TOL,
    DensityMatrix,
    KetParse,
    PartitionSpec,
    PureState,
    add_white_noise,
    as_density,
    ghz_terms,
    make_ghz,
    mix,
    parse_ket,
    parse_ket_info,
    random_density_matrix,
    random_pure_state,
    render_ket,
    sample_k_separable,
    sample_product_terms,
    state_from_json,
    state_to_json,
    tensor_product,
)
from rotbell.correlation import antidiagonal_profile, correlation_tensor, correlation_value_trace
from rotbell.oracle import cross_validate
from rotbell.separability import sample_partition
from rotbell.witness import classify, k_sep_threshold


INV_SQRT2 = 1.0 / np.sqrt(2.0)


def antidiag_oracle(rho_matrix):
    """Reference antidiagonal extraction: read rho[i, D-1-i] for the top half."""
    d = rho_matrix.shape[0]
    return np.array([rho_matrix[i, d - 1 - i] for i in range(d // 2)])


# ---------------------------------------------------------------------------
# constructors and validation


def test_make_ghz_single_qubit():
    st = make_ghz(1)
    assert np.allclose(st.amplitudes, [INV_SQRT2, INV_SQRT2])


def test_make_ghz_three_qubits():
    st = make_ghz(3)
    expected = np.zeros(8)
    expected[0] = expected[7] = 0.7071067811865476
    assert np.allclose(st.amplitudes, expected, atol=1e-15)


def test_make_ghz_rejects_zero_qubits():
    with pytest.raises(ValueError):
        make_ghz(0)


def test_ghz_terms_are_capped_by_the_index_and_scatter_to_make_ghz():
    terms = ghz_terms(np.int64(MAX_TERM_QUBITS))
    assert terms.index.tolist() == [0, (1 << MAX_TERM_QUBITS) - 1]
    assert classify(terms).r == pytest.approx(0.5 * (np.pi / 2) ** MAX_TERM_QUBITS, rel=1e-12)
    assert make_ghz(3).amplitudes.tobytes() == ghz_terms(3).state.amplitudes.tobytes()
    with pytest.raises(ValueError, match="term cap of 63"):
        ghz_terms(MAX_TERM_QUBITS + 1)
    with pytest.raises(ValueError, match="pure-state cap"):
        make_ghz(MAX_PURE_QUBITS + 1)


def test_ghz3_pipeline_violation_factor():
    # closed form for the GHZ family: r = (1/2) (pi/2)^N
    rep = classify(make_ghz(3))
    assert rep.r == pytest.approx(np.pi**3 / 16.0, rel=1e-12)


def test_pure_state_rejects_bad_norm():
    with pytest.raises(ValueError, match="not normalized"):
        PureState(1, np.array([1.0, 1.0]))


def test_pure_state_rejects_nan():
    with pytest.raises(ValueError, match="NaN"):
        PureState(1, np.array([np.nan, 0.0]))


def test_pure_state_rejects_bad_length():
    with pytest.raises(ValueError, match="length"):
        PureState(2, np.array([1.0, 0.0]))


def test_pure_state_is_immutable():
    st = make_ghz(2)
    with pytest.raises(ValueError):
        st.amplitudes[0] = 1.0


def test_density_matrix_validation():
    ok = DensityMatrix(1, np.array([[0.5, 0.5], [0.5, 0.5]]))
    assert ok.n_qubits == 1
    with pytest.raises(ValueError, match="Hermitian"):
        DensityMatrix(1, np.array([[0.5, 0.5], [-0.5, 0.5]]))
    with pytest.raises(ValueError, match="trace"):
        DensityMatrix(1, np.array([[0.5, 0.0], [0.0, 0.6]]))
    with pytest.raises(ValueError, match="positive semidefinite"):
        DensityMatrix(1, np.array([[1.5, 0.0], [0.0, -0.5]]))
    with pytest.raises(ValueError, match=r"shape \(4, 4\), expected \(2, 2\)"):
        DensityMatrix(1, np.eye(4) / 4)


@pytest.mark.parametrize("n", [2, 6])
def test_density_matrix_psd_tolerance_boundary(n):
    def unit_trace_diagonal(lam_min):
        diag = np.zeros(1 << n)
        diag[0], diag[-1] = 1.0 - lam_min, lam_min
        return np.diag(diag)

    DensityMatrix(n, unit_trace_diagonal(-0.5 * PSD_TOL))
    with pytest.raises(ValueError, match="positive semidefinite"):
        DensityMatrix(n, unit_trace_diagonal(-2.0 * PSD_TOL))


def test_psd_tolerance_is_pinned():
    def diagonal(e):  # unit trace, smallest eigenvalue -e
        return np.diag([1.0 + e, -e])

    DensityMatrix(1, diagonal(0.5e-8))
    with pytest.raises(ValueError, match="positive semidefinite"):
        DensityMatrix(1, diagonal(1.5e-8))


def test_random_states_pass_validation():
    rng = np.random.default_rng(0)
    for n in range(1, 6):
        random_pure_state(n, rng)
        random_density_matrix(n, rng)
        random_density_matrix(n, rng, rank=2)


# ---------------------------------------------------------------------------
# tensor products


def test_tensor_product_basis_states():
    zero = PureState(1, np.array([1.0, 0.0]))
    one = PureState(1, np.array([0.0, 1.0]))
    st = tensor_product([zero, one], [[1], [2]])
    expected = np.zeros(4)
    expected[0b01] = 1.0
    assert np.allclose(st.amplitudes, expected)


def test_tensor_product_plusx_bell():
    plus = PureState(1, np.array([1.0, 1.0]) * INV_SQRT2)
    bell = PureState(2, np.array([1.0, 0.0, 0.0, 1.0]) * INV_SQRT2)
    st = tensor_product([plus, bell], [[1], [2, 3]])
    # direct Kronecker expansion by hand: amplitude 1/2 at 000, 011, 100, 111
    expected = np.zeros(8)
    expected[[0b000, 0b011, 0b100, 0b111]] = 0.5
    assert np.allclose(st.amplitudes, expected)


def test_tensor_product_non_contiguous_blocks():
    bell = PureState(2, np.array([1.0, 0.0, 0.0, 1.0]) * INV_SQRT2)
    zero = PureState(1, np.array([1.0, 0.0]))
    st = tensor_product([bell, zero], [[1, 3], [2]])
    # permutation oracle: build on contiguous blocks (bell on 1,2 and zero on 3),
    # then swap qubits 2 and 3 by axis transposition
    contiguous = np.kron(bell.amplitudes, zero.amplitudes)
    swapped = contiguous.reshape(2, 2, 2).transpose(0, 2, 1).reshape(-1)
    assert np.allclose(st.amplitudes, swapped)
    assert st.amplitudes[0b000] == pytest.approx(INV_SQRT2)
    assert st.amplitudes[0b101] == pytest.approx(INV_SQRT2)


def test_tensor_product_block_order_irrelevant():
    rng = np.random.default_rng(42)
    a = random_pure_state(2, rng)
    b = random_pure_state(1, rng)
    c = random_pure_state(2, rng)
    st1 = tensor_product([a, b, c], [[1, 4], [2], [3, 5]])
    st2 = tensor_product([b, c, a], [[2], [3, 5], [1, 4]])
    assert np.allclose(st1.amplitudes, st2.amplitudes, atol=1e-14)


def test_tensor_product_density_inputs():
    rng = np.random.default_rng(7)
    a = random_density_matrix(1, rng)
    b = random_pure_state(2, rng)
    st = tensor_product([a, b], [[2], [1, 3]])
    assert isinstance(st, DensityMatrix)
    # oracle: contiguous kron on (block1=qubit2, block2=qubits 1,3) then permute
    joint = np.kron(a.matrix, as_density(b).matrix)
    t = joint.reshape((2,) * 6)
    # contiguous qubit order is (2, 1, 3); target axes (1, 2, 3) pull (1, 0, 2)
    perm = (1, 0, 2)
    expected = t.transpose(perm + tuple(p + 3 for p in perm)).reshape(8, 8)
    assert np.allclose(st.matrix, expected, atol=1e-14)


def test_tensor_product_size_mismatch():
    zero = PureState(1, np.array([1.0, 0.0]))
    with pytest.raises(ValueError, match="qubits"):
        tensor_product([zero], [[1, 2]])
    with pytest.raises(ValueError, match="1 states for 2 blocks"):
        tensor_product([zero], [[1], [2]])


def test_tensor_product_overlapping_blocks():
    zero = PureState(1, np.array([1.0, 0.0]))
    with pytest.raises(ValueError, match="more than one block"):
        tensor_product([zero, zero], [[1], [1]])


# ---------------------------------------------------------------------------
# mixtures and noise


def test_mix_identity():
    rng = np.random.default_rng(3)
    rho = random_density_matrix(2, rng)
    assert np.allclose(mix([(1.0, rho)]).matrix, rho.matrix)


def test_mix_classical():
    zero = PureState(1, np.array([1.0, 0.0]))
    one = PureState(1, np.array([0.0, 1.0]))
    rho = mix([(0.5, zero), (0.5, one)])
    assert np.allclose(rho.matrix, np.diag([0.5, 0.5]))


def test_mix_of_biseparable_keeps_quarter_bound():
    plus = PureState(1, np.array([1.0, 1.0]) * INV_SQRT2)
    bell = PureState(2, np.array([1.0, 0.0, 0.0, 1.0]) * INV_SQRT2)
    left = tensor_product([plus, bell], [[1], [2, 3]])
    right = tensor_product([bell, plus], [[1, 2], [3]])
    rho = mix([(0.5, left), (0.5, right)])
    vals = antidiag_oracle(rho.matrix)
    assert np.abs(vals).max() <= 0.25 + 1e-12
    assert np.allclose(antidiagonal_profile(rho).values, vals)


def test_mix_rejects_bad_weights():
    rho = DensityMatrix.maximally_mixed(1)
    with pytest.raises(ValueError, match="negative"):
        mix([(-0.5, rho), (1.5, rho)])
    with pytest.raises(ValueError, match="sum"):
        mix([(0.7, rho)])
    with pytest.raises(ValueError, match="qubit counts"):
        mix([(0.5, rho), (0.5, DensityMatrix.maximally_mixed(2))])
    with pytest.raises(ValueError, match="at least one component"):
        mix([])


@pytest.mark.parametrize("weights", [[np.nan], [np.nan, 0.5], [0.5, np.nan], [0.5, 0.5, np.nan]])
def test_mix_refuses_nan_weights(weights):
    rho = DensityMatrix.maximally_mixed(1)
    with pytest.raises(ValueError, match="weight"):
        mix([(w, rho) for w in weights])


@pytest.mark.parametrize("seed", range(10))
def test_mix_and_white_noise_are_their_formulas_to_the_bit(seed):
    """mix adds w * matrix to zeros in component order; noise is v * M + ((1 - v) / d) * I."""
    rng = np.random.default_rng(seed)
    n = 1 + seed % 5
    d = 2**n
    states = [random_pure_state(n, rng), random_density_matrix(n, rng), random_pure_state(n, rng)]
    mats = [s.matrix if isinstance(s, DensityMatrix) else np.outer(s.amplitudes, s.amplitudes.conj())
            for s in states]
    weights = rng.dirichlet(np.ones(len(states))).tolist()
    expected = np.zeros((d, d), dtype=complex)
    for w, m in zip(weights, mats):
        expected += w * m
    assert np.array_equal(mix(list(zip(weights, states))).matrix, expected)
    v = float(rng.uniform())
    for st, m in zip(states, mats):
        assert np.array_equal(add_white_noise(st, v).matrix, v * m + ((1.0 - v) / d) * np.eye(d))


def _count_validations(cls=DensityMatrix):
    """Count validations of ``cls``; each one still runs its checks."""
    return mock.patch.object(cls, "__post_init__", autospec=True, side_effect=cls.__post_init__)


def test_mix_and_white_noise_validate_only_their_result():
    pures = [random_pure_state(3, np.random.default_rng(seed)) for seed in range(4)]
    with _count_validations() as validations:
        mix([(0.25, p) for p in pures])
    assert validations.call_count == 1
    with _count_validations() as validations:
        add_white_noise(pures[0], 0.5)
    assert validations.call_count == 1


@pytest.mark.parametrize(
    "weights, second, error",
    [
        ((0.5, np.nan), make_ghz(3), ValueError),
        ((1.5, -0.5), make_ghz(3), ValueError),
        ((0.5, 0.5), make_ghz(2), ValueError),
        ((0.5, 0.5), [1.0, 0.0], TypeError),
    ],
    ids=["nan-weight", "negative-weight", "qubit-count", "non-state"],
)
def test_mix_checks_its_input_before_it_builds_a_projector(weights, second, error):
    components = [(weights[0], make_ghz(3)), (weights[1], second)]
    with mock.patch.object(np, "outer", side_effect=AssertionError("built a projector")):
        with pytest.raises(error):
            mix(components)


def test_add_white_noise_extremes():
    rho = as_density(make_ghz(2))
    assert np.allclose(add_white_noise(rho, 1.0).matrix, rho.matrix)
    noisy = add_white_noise(rho, 0.0)
    assert np.allclose(noisy.matrix, np.eye(4) / 4.0)
    assert np.abs(antidiag_oracle(noisy.matrix)).max() == 0.0


def test_add_white_noise_rejects_bad_visibility():
    rho = DensityMatrix.maximally_mixed(1)
    for v in (-0.1, 1.1):
        with pytest.raises(ValueError, match="visibility"):
            add_white_noise(rho, v)


def test_ghz3_with_noise_pipeline():
    # antidiagonals are linear in V, so r(V) = V * r(1)
    rep = classify(add_white_noise(as_density(make_ghz(3)), 0.6))
    assert rep.r == pytest.approx(0.6 * np.pi**3 / 16.0, rel=1e-12)
    assert rep.r == pytest.approx(1.1627, abs=5e-5)


def test_white_noise_scales_antidiagonals_linearly():
    rng = np.random.default_rng(11)
    for _ in range(20):
        n = int(rng.integers(1, 5))
        rho = random_density_matrix(n, rng)
        v = float(rng.uniform())
        base = antidiagonal_profile(rho).values
        noisy = antidiagonal_profile(add_white_noise(rho, v)).values
        assert np.max(np.abs(noisy - v * base)) <= 1e-12


# ---------------------------------------------------------------------------
# k-separable sampling


def test_sample_k_separable_two_qubits():
    rho = sample_k_separable(2, 2, 3, rng_seed=5)
    assert classify(rho).r <= k_sep_threshold(2, 2) + 1e-9


def test_sample_k_separable_pure_product():
    rho = sample_k_separable(3, 3, 1, rng_seed=9)
    vals = antidiag_oracle(rho.matrix)
    assert np.abs(vals).max() <= 0.125 + 1e-12


def test_sample_k_separable_k1_runs():
    rho = sample_k_separable(3, 1, 2, rng_seed=1)
    assert rho.n_qubits == 3


def test_sample_k_separable_bound_property():
    for n in range(2, 6):
        for k in range(1, n + 1):
            for seed in range(10):
                rho = sample_k_separable(n, k, 2, rng_seed=(n, k, seed))
                vals = antidiag_oracle(rho.matrix)
                assert np.abs(vals).max() <= 0.5**k + 1e-12


def test_sample_k_separable_reproducible():
    a = sample_k_separable(3, 2, 4, rng_seed=123)
    b = sample_k_separable(3, 2, 4, rng_seed=123)
    c = sample_k_separable(3, 2, 4, rng_seed=124)
    assert np.array_equal(a.matrix, b.matrix)
    assert not np.array_equal(a.matrix, c.matrix)


def test_sample_k_separable_rejects_bad_k():
    with pytest.raises(ValueError):
        sample_k_separable(2, 3, 1, rng_seed=0)


def test_sample_product_terms_are_the_mixture():
    terms = sample_product_terms(4, 2, 3, rng_seed=42)
    assert len(terms) == 3
    assert sum(w for w, _ in terms) == pytest.approx(1.0, abs=1e-12)
    assert all(isinstance(t, PureState) and t.n_qubits == 4 for _, t in terms)
    dense = sum(w * np.outer(t.amplitudes, t.amplitudes.conj()) for w, t in terms)
    assert np.array_equal(sample_k_separable(4, 2, 3, rng_seed=42).matrix, dense)


def _product_terms_block_by_block(n, k, n_terms, seed):
    """The sampler's draws made through random_pure_state per block and tensor_product."""
    rng = np.random.default_rng(seed)
    terms = []
    for w in rng.dirichlet(np.ones(n_terms)):
        part = sample_partition(n, int(rng.integers(k, n + 1)), rng)
        blocks = [random_pure_state(len(b), rng) for b in part.blocks]
        terms.append((float(w), tensor_product(blocks, part)))
    return terms


def test_sample_product_terms_are_tensor_products_of_random_pure_states_to_the_bit():
    for n in range(1, 10):
        for k in range(1, n + 1):
            for n_terms in range(1, 5):
                for seed in [(n, k, n_terms), 0, 2**32 + 5]:
                    got = sample_product_terms(n, k, n_terms, rng_seed=seed)
                    want = _product_terms_block_by_block(n, k, n_terms, seed)
                    assert len(got) == len(want) == n_terms
                    for (w, term), (w0, term0) in zip(got, want):
                        assert np.float64(w).tobytes() == np.float64(w0).tobytes()
                        assert term.amplitudes.tobytes() == term0.amplitudes.tobytes()


@pytest.mark.parametrize("n, k, n_terms", [(1, 1, 1), (5, 2, 3), (9, 1, 4), (9, 9, 2)])
def test_sample_product_terms_validate_each_term_once(n, k, n_terms):
    with _count_validations(PureState) as validations:
        terms = sample_product_terms(n, k, n_terms, rng_seed=3)
    assert validations.call_count == len(terms) == n_terms


def test_sample_product_terms_checks_cap_first():
    with pytest.raises(ValueError, match="pure-state cap"):
        sample_product_terms(40, 1, 1, rng_seed=0)


def test_dense_constructors_check_cap_first():
    with pytest.raises(ValueError, match="dense-matrix cap"):
        DensityMatrix.maximally_mixed(40)
    with pytest.raises(ValueError, match="dense-matrix cap"):
        as_density(make_ghz(14))
    with pytest.raises(ValueError, match="dense-matrix cap"):
        mix([(1.0, make_ghz(14))])
    with pytest.raises(ValueError, match="dense-matrix cap"):
        add_white_noise(make_ghz(14), 0.5)


class _NoDraws:
    """A generator that refuses every draw, so nothing large is ever sampled."""

    def standard_normal(self, size=None):
        raise AssertionError(f"drew normals of size {size} before checking the arguments")


@pytest.mark.parametrize(
    "call, match",
    [
        (lambda rng: random_pure_state(27, rng), "pure-state cap"),
        (lambda rng: random_pure_state(True, rng), "qubit count"),
        (lambda rng: random_density_matrix(14, rng), "dense-matrix cap"),
        (lambda rng: random_density_matrix(2.0, rng), "qubit count"),
        (lambda rng: random_density_matrix(2, rng, rank=0), "rank"),
        (lambda rng: random_density_matrix(2, rng, rank=2.5), "rank"),
        (lambda rng: random_density_matrix(2, rng, rank=5), "rank"),
        (lambda rng: random_density_matrix(2, rng, rank=True), "rank"),
    ],
    ids=["pure-27", "pure-bool", "dense-14", "dense-float", "rank-0", "rank-2.5", "rank-5",
         "rank-bool"],
)
def test_samplers_check_arguments_before_drawing(call, match):
    with pytest.raises(ValueError, match=match):
        call(_NoDraws())


def test_sampler_rank_accepts_numpy_integers_with_the_same_stream():
    a = random_density_matrix(3, np.random.default_rng(0), rank=2)
    b = random_density_matrix(3, np.random.default_rng(0), rank=np.int64(2))
    assert np.array_equal(a.matrix, b.matrix)
    assert np.linalg.matrix_rank(a.matrix, tol=1e-10) == 2


# ---------------------------------------------------------------------------
# partitions


def test_partition_spec_validation():
    p = PartitionSpec([[2, 1], [3]])
    assert p.blocks == ((1, 2), (3,))
    assert p.k == 2 and p.n_qubits == 3
    with pytest.raises(ValueError, match="more than one block"):
        PartitionSpec([[1], [1, 2]])
    with pytest.raises(ValueError, match="cover"):
        PartitionSpec([[1], [3]])
    with pytest.raises(ValueError, match="empty"):
        PartitionSpec([[1], []])


def test_partition_spec_wire_format():
    p = PartitionSpec([[1], [2, 3]])
    assert p.to_lists() == [[1], [2, 3]]
    assert p.as_set() == frozenset({frozenset({1}), frozenset({2, 3})})


# ---------------------------------------------------------------------------
# ket expressions


def test_parse_ket_basis():
    st = parse_ket("|01>")
    expected = np.zeros(4)
    expected[0b01] = 1.0
    assert np.allclose(st.amplitudes, expected)


def test_parse_ket_ghz():
    st = parse_ket("|000> + |111>")
    assert np.allclose(st.amplitudes, make_ghz(3).amplitudes)


def test_parse_ket_complex_coefficient():
    st = parse_ket("(1+1i)*|0> + |1>")
    inv_sqrt3 = 1.0 / np.sqrt(3.0)
    assert st.amplitudes[0] == pytest.approx((1 + 1j) * inv_sqrt3, abs=1e-12)
    assert st.amplitudes[1] == pytest.approx(inv_sqrt3, abs=1e-12)
    assert abs(st.amplitudes[0]) == pytest.approx(0.5774 * np.sqrt(2.0), abs=1e-4)


def test_parse_ket_signs_and_whitespace():
    st = parse_ket("  |00>   -0.5 * |11> ")
    assert st.amplitudes[0].real > 0
    assert st.amplitudes[3].real < 0


def test_parse_ket_normalization_flag():
    info = parse_ket_info("2*|0>")
    assert info.normalized and info.input_norm == pytest.approx(2.0)
    assert np.allclose(info.state.amplitudes, [1.0, 0.0])
    assert not parse_ket_info("|0>").normalized


def test_parse_ket_keeps_the_named_terms_only():
    info = parse_ket_info("3*|110> + |001> - (0+4i)*|110>")
    assert info.n_qubits == 3
    assert info.index.tolist() == [1, 6] and info.index.dtype == np.int64
    assert np.allclose(info.amplitudes, np.array([1, 3 - 4j]) / np.sqrt(26.0), rtol=0, atol=1e-15)
    assert not (info.index.flags.writeable or info.amplitudes.flags.writeable)
    dense = np.zeros(8, dtype=complex)
    dense[info.index] = info.amplitudes
    assert info.state.amplitudes.tobytes() == dense.tobytes()
    assert info.state is info.state  # built once, on first use


@pytest.mark.parametrize(
    "index, amplitudes, match",
    [
        ([1, 0], [0.6, 0.8], "strictly increasing"),
        ([0, 0], [0.6, 0.8], "strictly increasing"),
        ([0, 8], [0.6, 0.8], "strictly increasing"),
        ([-1, 2], [0.6, 0.8], "strictly increasing"),
        ([0.0, 1.0], [0.6, 0.8], "integers"),
        ([[0, 1]], [0.6, 0.8], "integers"),
        ([0, 1], [0.6], "length"),
        ([0, 1], [0.6, np.nan], "NaN"),
        ([0, 1], [0.6, 0.6], "not normalized"),
        ([], [], "not normalized"),
    ],
)
def test_ket_parse_validates_its_terms(index, amplitudes, match):
    with pytest.raises(ValueError, match=match):
        KetParse(3, index, amplitudes, 1.0)


@pytest.mark.parametrize("input_norm", [np.nan, np.inf, -np.inf, -3.0, 0.0])
def test_ket_parse_refuses_an_input_norm_that_no_ket_has(input_norm):
    with pytest.raises(ValueError, match="input_norm must be finite and positive"):
        KetParse(1, [0], [1.0], input_norm)


def test_ket_parse_checks_the_cap_before_the_terms():
    with pytest.raises(ValueError, match="term cap"):
        KetParse(MAX_TERM_QUBITS + 1, [0], [1.0], 1.0)


def test_parse_ket_errors():
    with pytest.raises(ValueError, match="position"):
        parse_ket("|0> + @")
    with pytest.raises(ValueError, match="inconsistent bitstring lengths"):
        parse_ket("|0> + |00>")
    with pytest.raises(ValueError, match="zero vector"):
        parse_ket("|0> - |0>")
    with pytest.raises(ValueError, match="finite"):
        parse_ket("1e400|0> + |1>")
    with pytest.raises(ValueError, match="norm overflows"):
        parse_ket("1.7e308|0> + 1.7e308|1>")  # each sum is finite, their norm is not
    with pytest.raises(ValueError, match="empty"):
        parse_ket("   ")
    with pytest.raises(ValueError, match="dangling"):
        parse_ket("|0> +")
    for text in ("|0> + +|1>", "*|0>", "0.5 + |0>", "|0>|1>", "(1+2)|0>"):
        with pytest.raises(ValueError, match="position"):
            parse_ket(text)


@pytest.mark.parametrize("run", [" " * 50_000, "7" * 50_000], ids=["spaces", "digits"])
def test_parse_ket_fails_in_linear_time(run):
    # a parser whose adjacent quantifiers can split one run backtracks
    # quadratically on it: seconds for a run this long
    template = "-( 1.5e+2 - -2.5 i )*|01> + 0.5e-1 * |10>"
    for gap in range(len(template) + 1):
        text = template[:gap] + run + "@" + template[gap:]
        start = time.perf_counter()
        with pytest.raises(ValueError):
            parse_ket(text)
        assert time.perf_counter() - start < 1.0, f"run inserted at {gap}"


def test_render_parse_roundtrip_up_to_global_phase():
    rng = np.random.default_rng(17)
    for n in (1, 2, 4):
        st = random_pure_state(n, rng)
        back = parse_ket(render_ket(st))
        phase = np.vdot(back.amplitudes, st.amplitudes)
        phase /= abs(phase)
        assert np.max(np.abs(st.amplitudes - phase * back.amplitudes)) <= 1e-10


# ---------------------------------------------------------------------------
# JSON wire format


def test_render_ket_refuses_a_density_matrix():
    with pytest.raises(TypeError, match="expected PureState, got DensityMatrix"):
        render_ket(DensityMatrix.maximally_mixed(1))


def test_state_json_roundtrip_pure():
    st = make_ghz(2)
    back = state_from_json(state_to_json(st))
    assert isinstance(back, PureState)
    assert np.allclose(back.amplitudes, st.amplitudes)


def test_state_json_roundtrip_density():
    rho = random_density_matrix(2, np.random.default_rng(1))
    back = state_from_json(state_to_json(rho))
    assert isinstance(back, DensityMatrix)
    assert np.allclose(back.matrix, rho.matrix)


def test_state_json_rejects_garbage():
    with pytest.raises(ValueError):
        state_from_json({"n": 1, "kind": "qutrit"})
    with pytest.raises(ValueError):
        state_from_json({"n": 1, "kind": "pure"})
    with pytest.raises(ValueError):
        state_from_json([1, 2, 3])
    with pytest.raises(ValueError, match="unknown state kind"):
        state_from_json({"n": 1, "kind": ["pure"], "amplitudes": [[1.0, 0.0], [0.0, 0.0]]})
    for amps in ([[1.0, 0.0, 0.0], [0.0, 0.0, 0.0]], [1.0, 0.0], [[[1.0, 0.0]], [[0.0, 0.0]]],
                 [["1", "0"], ["0", "0"]], [[True, False], [False, False]], [[1.0, 0.0], [0.0]],
                 [[1.0, None], [0.0, 0.0]], [[1.0, {}], [0.0, 0.0]], [[10**30, 0], [0, 0]],
                 "10", None):
        with pytest.raises(ValueError, match=r"\[re, im\] pairs"):
            state_from_json({"n": 1, "kind": "pure", "amplitudes": amps})


def test_state_json_rejects_non_integer_n():
    amps = [[1.0, 0.0], [0.0, 0.0]]
    for n in (True, 1.0, "1", None):
        with pytest.raises(ValueError, match='integer "n"'):
            state_from_json({"n": n, "kind": "pure", "amplitudes": amps})


def test_state_json_rejects_unknown_keys():
    doc = state_to_json(make_ghz(1))
    with pytest.raises(ValueError, match="'comment'"):
        state_from_json({**doc, "comment": "ignored before"})
    with pytest.raises(ValueError, match="'matrix'"):
        state_from_json({**doc, "matrix": [[[1.0, 0.0]]]})


@pytest.mark.parametrize(
    "consumer",
    [
        antidiagonal_profile,
        lambda x: correlation_value_trace(x, [0.0]),
        as_density,
        state_to_json,
        lambda x: tensor_product([x], [[1]]),
        lambda x: mix([(1.0, x)]),
        lambda x: add_white_noise(x, 0.5),
        cross_validate,
    ],
    ids=["antidiagonal_profile", "correlation_value_trace", "as_density", "state_to_json",
         "tensor_product", "mix", "add_white_noise", "cross_validate"],
)
def test_state_consumers_refuse_a_non_state(consumer):
    with pytest.raises(TypeError, match="got list"):
        consumer([1.0, 0.0])


@pytest.mark.parametrize(
    "obj, text",
    [
        (make_ghz(3), "PureState(n_qubits=3)"),
        (DensityMatrix.maximally_mixed(2), "DensityMatrix(n_qubits=2)"),
        (antidiagonal_profile(ghz_terms(40)), "AntidiagonalProfile(n_qubits=40)"),
        (correlation_tensor(make_ghz(3)), "CorrelationTensor(n_qubits=3)"),
        (parse_ket_info("|000> + |011> - |111>"), "KetParse(n_qubits=3, terms=3)"),
        (PartitionSpec([[3, 1], [2]]), "PartitionSpec({1,3}{2})"),
    ],
    ids=["PureState", "DensityMatrix", "AntidiagonalProfile", "CorrelationTensor", "KetParse",
         "PartitionSpec"],
)
def test_reprs_name_the_size_and_not_the_arrays(obj, text):
    assert repr(obj) == text
