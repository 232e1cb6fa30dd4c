from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rotbell.separability as separability_mod
from rotbell.correlation import AntidiagonalProfile, antidiagonal_profile
from rotbell.oracle import GridSearchConfig, maximize_grid, norm_squared_quadrature
from rotbell.separability import (
    _mixture_profiles,
    enumerate_partitions,
    max_antidiagonal_bound,
    sample_partition,
    stirling_second,
    verify_antidiagonal_bound,
)
from rotbell.states import (
    PartitionSpec,
    PureState,
    _partition_blocks,
    make_ghz,
    mix,
    parse_ket_info,
    random_pure_state,
    sample_product_terms,
    tensor_product,
)
from rotbell.witness import k_sep_threshold, max_violation_bound, violation_factor

INV_SQRT2 = 1.0 / np.sqrt(2.0)


def stirling_oracle(n, k):
    """Inclusion-exclusion formula, independent of the recurrence."""
    from math import comb, factorial

    return sum((-1) ** j * comb(k, j) * (k - j) ** n for j in range(k + 1)) // factorial(k)


def test_stirling_known_values():
    table = {(3, 2): 3, (3, 3): 1, (4, 2): 7, (4, 3): 6, (5, 2): 15, (5, 3): 25, (8, 4): 1701,
             (2, 3): 0}
    for (n, k), value in table.items():
        assert stirling_second(n, k) == value
    for n in range(1, 9):
        for k in range(1, n + 1):
            assert stirling_second(n, k) == stirling_oracle(n, k)


def test_stirling_is_exact_at_any_n():
    assert stirling_second(1000, 2) == 2**999 - 1
    assert stirling_second(500, 250) == stirling_oracle(500, 250)
    part = sample_partition(1500, 3, np.random.default_rng(0))
    assert part.k == 3 and part.n_qubits == 1500


def test_enumerate_n3_kmin2():
    parts = [p.as_set() for p in enumerate_partitions(3, 2)]
    expected = [
        PartitionSpec([[1, 2], [3]]),
        PartitionSpec([[1, 3], [2]]),
        PartitionSpec([[1], [2, 3]]),
        PartitionSpec([[1], [2], [3]]),
    ]
    assert len(parts) == 4
    assert set(parts) == {p.as_set() for p in expected}


def test_enumerate_n4_kmin2_count():
    assert len(list(enumerate_partitions(4, 2))) == 14
    assert sum(stirling_second(4, j) for j in range(2, 5)) == 14


def test_enumerate_n2():
    parts = list(enumerate_partitions(2, 2))
    assert len(parts) == 1
    assert parts[0].as_set() == frozenset({frozenset({1}), frozenset({2})})


def test_enumerate_counts_match_stirling_sums():
    for n in range(1, 9):
        for k_min in range(1, n + 1):
            produced = list(enumerate_partitions(n, k_min))
            assert len(produced) == sum(stirling_second(n, j) for j in range(k_min, n + 1))
            assert len({p.as_set() for p in produced}) == len(produced)
            assert all(p.k >= k_min for p in produced)


def test_enumeration_order_is_canonical():
    first = [p.to_lists() for p in enumerate_partitions(3, 1)]
    # restricted-growth-string lexicographic order
    assert first == [
        [[1, 2, 3]],
        [[1, 2], [3]],
        [[1, 3], [2]],
        [[1], [2, 3]],
        [[1], [2], [3]],
    ]


def test_enumerate_refuses_large_n():
    with pytest.raises(ValueError, match="refused"):
        enumerate_partitions(9, 2)


def test_enumerate_rejects_bad_kmin():
    with pytest.raises(ValueError):
        enumerate_partitions(3, 0)
    with pytest.raises(ValueError):
        enumerate_partitions(3, 4)


@pytest.mark.parametrize("bad", [True, 2.7, np.float64(2.0), 0])
def test_one_count_rule_for_n_and_k(bad):
    rng = np.random.default_rng(0)
    refused = [
        lambda: max_violation_bound(bad),
        lambda: k_sep_threshold(bad, 1),
        lambda: k_sep_threshold(3, bad),
        lambda: enumerate_partitions(bad, 1),
        lambda: enumerate_partitions(3, bad),
        lambda: sample_partition(bad, 1, rng),
        lambda: sample_partition(3, bad, rng),
        lambda: sample_product_terms(bad, 1, 1, rng_seed=0),
        lambda: sample_product_terms(3, bad, 1, rng_seed=0),
        lambda: sample_product_terms(3, 1, bad, rng_seed=0),
        lambda: next(_mixture_profiles(bad, 1, 1, [])),  # on the first draw, before any seed
        lambda: next(_mixture_profiles(3, bad, 1, [])),
        lambda: next(_mixture_profiles(3, 1, bad, [])),
        lambda: max_antidiagonal_bound(bad),
    ]
    for call in refused:
        with pytest.raises(ValueError):
            call()


@pytest.mark.parametrize("spoil", [np.nan, 1e3], ids=["nan", "over-the-bound"])
def test_a_spoiled_mixture_chunk_is_refused_with_the_constructors_message(spoil, monkeypatch):
    # the terms pass their checks and only the weights spoil the mixture, which
    # no object checks any more: its chunk is refused as AntidiagonalProfile would
    draw = separability_mod._product_terms

    def spoiled(*args):
        return ((spoil * w, amps) for w, amps in draw(*args))

    monkeypatch.setattr(separability_mod, "_product_terms", spoiled)
    with pytest.raises(ValueError) as refused:
        next(_mixture_profiles(3, 1, 2, [0]))
    row = sum(spoil * w * antidiagonal_profile(t).values
              for w, t in sample_product_terms(3, 1, 2, rng_seed=0))
    with pytest.raises(ValueError) as constructed:
        AntidiagonalProfile(3, row)
    assert str(refused.value) == str(constructed.value)


def test_numpy_integer_counts_are_accepted():
    n, k = np.int64(3), np.int64(2)
    assert k_sep_threshold(n, k) == k_sep_threshold(3, 2)
    assert max_violation_bound(n) == max_violation_bound(3)
    assert len(list(enumerate_partitions(n, k))) == 4
    assert sample_partition(n, k, np.random.default_rng(0)).k == 2
    assert len(sample_product_terms(n, k, 2, rng_seed=0)) == 2
    assert max_antidiagonal_bound(k) == 0.25


@pytest.mark.parametrize("count", [np.int64, np.uint8, np.uint64])
def test_a_numpy_integer_count_is_used_as_a_python_int(count):
    assert stirling_second(count(40), count(5)) == 75740854251732106906082250
    assert stirling_second(count(9), count(4)) == stirling_second(9, 4)
    assert k_sep_threshold(count(3), count(2)) == k_sep_threshold(3, 2)
    assert violation_factor(1.0, 1.0, count(2)) == 0.0625
    assert (sample_partition(count(7), count(3), np.random.default_rng(5))
            == sample_partition(7, 3, np.random.default_rng(5)))
    ghz = make_ghz(2)
    found = maximize_grid(ghz, GridSearchConfig(refinement_rounds=count(255)))
    assert found.value == maximize_grid(ghz, GridSearchConfig(refinement_rounds=255)).value
    with pytest.raises(ValueError, match="point budget"):  # 8^30 must not wrap to 0
        norm_squared_quadrature(AntidiagonalProfile(30, [0.5], index=[0]), count(8))


@pytest.mark.parametrize("bad", [True, 2.7, np.float64(2.0)])
def test_one_count_rule_for_labels_stirling_and_violation_factor(bad):
    stirling_second(1, 1)  # a cached (1, 1) must not answer for (True, True)
    refused = [
        lambda: violation_factor(1.0, 1.0, bad),
        lambda: stirling_second(bad, 1),
        lambda: stirling_second(3, bad),
        lambda: stirling_second(bad, bad),
        lambda: PartitionSpec([[bad], [2]]),
        lambda: PartitionSpec([[1], [bad]]),
    ]
    for call in refused:
        with pytest.raises(ValueError):
            call()


def test_count_rule_bounds_and_numpy_integers_for_labels_stirling_and_violation_factor():
    for call in (
        lambda: violation_factor(1.0, 1.0, 0),
        lambda: stirling_second(-1, 0),
        lambda: stirling_second(0, -1),
        lambda: PartitionSpec([[0], [1]]),
    ):
        with pytest.raises(ValueError):
            call()
    assert stirling_second(0, 0) == 1 and stirling_second(2, 0) == 0
    assert stirling_second(np.int64(4), np.int64(2)) == 7
    assert violation_factor(1.0, 1.0, np.int64(1)) == violation_factor(1.0, 1.0, 1) == 0.25
    spec = PartitionSpec([[np.int64(2)], [np.int64(1), 3]])
    assert spec.blocks == ((2,), (1, 3)) and all(type(q) is int for b in spec.blocks for q in b)


def test_sample_partition_block_count_and_cover():
    rng = np.random.default_rng(0)
    for n in range(1, 10):
        for k in range(1, n + 1):
            p = sample_partition(n, k, rng)
            assert p.k == k
            assert p.n_qubits == n


@pytest.mark.parametrize("n, k", [(n, k) for n in range(1, 9) for k in range(1, n + 1)])
def test_partition_stream_golden(n, k, pinned):
    """The partition step of the term stream, pinned at its own layer for every (n, k <= n <= 8)."""
    pinned(f"partitions n{n} k{k}")


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.integers(1, 8), st.integers(0, 2**64 - 1))
def test_partition_blocks_are_the_stream_of_sample_partition(n, seed):
    """The unchecked draw gives sample_partition's blocks from the same draws of the generator."""
    for k in range(1, n + 1):
        rng, rng0 = np.random.default_rng(seed), np.random.default_rng(seed)
        for _ in range(3):
            want = [list(b) for b in sample_partition(n, k, rng0).blocks]
            assert _partition_blocks(n, k, rng) == want
        assert rng.bit_generator.state == rng0.bit_generator.state


@pytest.mark.parametrize("n, k", [(n, k) for n in range(1, 6) for k in range(1, n + 1)])
def test_sample_partition_uniform(n, k):
    """Given its block count, every partition is drawn, each as often within 5 standard errors."""
    want = {p.as_set() for p in enumerate_partitions(n, k) if p.k == k}
    assert len(want) == stirling_second(n, k)
    rng = np.random.default_rng((n, k))
    draws = 1000 * len(want)
    counts = Counter(sample_partition(n, k, rng).as_set() for _ in range(draws))
    assert set(counts) == want
    p = 1 / len(want)
    for c in counts.values():
        assert abs(c - draws * p) <= 5 * np.sqrt(draws * p * (1 - p))


def test_max_antidiagonal_bound_values():
    assert max_antidiagonal_bound(1) == 0.5
    assert max_antidiagonal_bound(2) == 0.25
    assert max_antidiagonal_bound(4) == 1.0 / 16.0
    with pytest.raises(ValueError):
        max_antidiagonal_bound(0)


def test_verify_bound_flags_false_claim():
    max_mod, ok = verify_antidiagonal_bound(make_ghz(3), PartitionSpec([[1], [2], [3]]))
    assert max_mod == pytest.approx(0.5, abs=1e-15)
    assert not ok



@pytest.mark.parametrize("ket", ["|000>+|111>", "|001>+|010>+|100>", "|111>"])
def test_verify_bound_reads_a_parsed_ket_like_its_state(ket):
    info = parse_ket_info(ket)
    for part in ([[1], [2], [3]], [[1, 2], [3]]):
        assert verify_antidiagonal_bound(info, part) == verify_antidiagonal_bound(info.state, part)


def test_verify_bound_plusx_product_is_tight():
    plus = PureState(1, np.array([1.0, 1.0]) * INV_SQRT2)
    state = tensor_product([plus, plus, plus], [[1], [2], [3]])
    max_mod, ok = verify_antidiagonal_bound(state, [[1], [2], [3]])
    assert max_mod == pytest.approx(0.125, abs=1e-15)
    assert ok


def test_verify_bound_sampled_bipartitions():
    rng = np.random.default_rng(2)
    part = PartitionSpec([[1], [2, 3]])
    for _ in range(500):
        state = tensor_product([random_pure_state(1, rng), random_pure_state(2, rng)], part)
        max_mod, ok = verify_antidiagonal_bound(state, part)
        assert ok and max_mod <= 0.25 + 1e-12


def test_verify_bound_many_random_products():
    rng = np.random.default_rng(3)
    trials = 10_000
    for _ in range(trials):
        n = int(rng.integers(2, 7))
        k = int(rng.integers(1, n + 1))
        part = sample_partition(n, k, rng)
        state = tensor_product([random_pure_state(len(b), rng) for b in part.blocks], part)
        _max_mod, ok = verify_antidiagonal_bound(state, part)
        assert ok


def test_mixing_preserves_bound():
    rng = np.random.default_rng(4)
    part = PartitionSpec([[1, 2], [3]])
    for _ in range(50):
        states = [
            tensor_product([random_pure_state(2, rng), random_pure_state(1, rng)], part)
            for _ in range(3)
        ]
        w = rng.dirichlet(np.ones(3))
        rho = mix(list(zip(w, states)))
        _max_mod, ok = verify_antidiagonal_bound(rho, part)
        assert ok


def test_verify_bound_dimension_mismatch():
    with pytest.raises(ValueError, match="qubits"):
        verify_antidiagonal_bound(make_ghz(3), PartitionSpec([[1], [2]]))
