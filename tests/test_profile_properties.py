"""Property tests: the profile paths agree with the dense routes and the physics.

White noise only touches the diagonal, so the noisy antidiagonal is exactly
V times the clean one, and a mixture's profile is the weighted sum of its
terms' profiles, also when ``zoo`` forms a row's term profiles as one
stack.  The CLI relies on both facts bit for bit, and on a parsed
ket's sparse profile, built from its named terms alone, being the profile of
its dense state.  A tensor product is, bit for bit, the index-by-index
product of its blocks in block order, and every sampled product term obeys
the (1/2)^k bound of its own partition.  Every evaluation
of E runs through one contraction of the profile, which is checked here
against the dense operator trace, and every pointwise route evaluates a
stack of settings exactly as it evaluates each row; r depends only on the
moduli of the profile, so it cannot see qubit relabellings, local
z-rotations or a global phase; and the ket parser rejects bad text with
ValueError alone and reads every text of its documented grammar as the
per-index sums of its coefficients, normalized.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import rotbell.cli as cli_mod
import rotbell.separability as separability_mod
import rotbell.states as states_mod
from rotbell.correlation import (
    AntidiagonalProfile,
    antidiagonal_profile,
    correlation_tensor,
    correlation_value,
    correlation_value_from_tensor,
    correlation_value_trace,
    e_max,
)
from rotbell.separability import _mixture_profiles, sample_partition, verify_antidiagonal_bound
from rotbell.states import (
    DensityMatrix,
    PartitionSpec,
    PureState,
    add_white_noise,
    as_density,
    make_ghz,
    parse_ket_info,
    random_density_matrix,
    random_pure_state,
    sample_k_separable,
    sample_product_terms,
    tensor_product,
)
from rotbell.witness import _witness, classify, k_sep_threshold, violation_factor

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


@st.composite
def checked_profiles(draw):
    """A dense (N <= 8) or sparse (N <= 63) profile with exact zeros, at times subnormal.

    A third kind is dense with N >= 5 and moduli within a factor of ten, with
    one to three exact zeros and some elements near 1e-310 or 1e-318, which a
    small V underflows alone.  Only on long rows of comparable moduli does the
    grouping of a pairwise sum show in its bits, so these are the rows on
    which the stacked sum rule's column mask and one-row fallback are seen.
    """
    rng = np.random.default_rng(draw(seeds))
    kind = draw(st.sampled_from(["dense", "sparse", "comparable"]))
    if kind == "sparse":
        n = draw(st.integers(1, 63))
        index = sorted(draw(st.sets(st.integers(0, (1 << (n - 1)) - 1), max_size=8)))
        size = len(index)
    else:
        n = draw(st.integers(5 if kind == "comparable" else 1, 8))
        index, size = None, 1 << (n - 1)
    if kind == "comparable":
        moduli = rng.uniform(0.05, 0.5, size)
        moduli[rng.choice(size, draw(st.integers(1, 3)), replace=False)] = 0.0
        small = rng.random(size) < draw(st.floats(0.05, 0.5))
        moduli[small] *= draw(st.sampled_from([1e-310, 1e-318]))
    else:
        moduli = rng.uniform(0.0, 0.5, size) * (rng.random(size) < draw(st.floats(0.0, 1.0)))
        moduli *= draw(st.sampled_from([1.0, 1e-300, 1e-310, 1e-318, 5e-324]))
        # some elements far smaller than the rest: a small V underflows them alone
        small = rng.random(size) < draw(st.floats(0.0, 0.5))
        moduli[small] *= draw(st.sampled_from([1e-200, 1e-310]))
    return AntidiagonalProfile(n, moduli * np.exp(2j * np.pi * rng.random(size)), index)


def _one_row(n, values):
    """E_max, ||E||^2, r, lhv_violated and min_excluded_separability by the one-row rules.

    The reference for the stacked witness, written out: the nonzero moduli
    summed as one 1-D array, ``violation_factor`` and the first rung exceeded.
    """
    mod = np.abs(values)
    mod = mod[mod != 0.0]
    em, ns = float(2.0 * mod.sum()), float(2.0 * (2.0 * np.pi) ** n * np.square(mod).sum())
    r = violation_factor(ns, em, n)
    return em, ns, r, r > 1.0, next((k for k in range(2, n + 1) if r > k_sep_threshold(n, k)), None)


def _row_bits(r, lhv, min_k):
    assert (type(r), type(lhv), type(min_k)) in {(float, bool, int), (float, bool, type(None))}
    return np.float64(r).tobytes(), lhv, min_k


def _mixed_steps():
    """A dense N = 8 profile: two exact zeros, and a third of its moduli near 1e-310."""
    rng = np.random.default_rng(8)
    moduli = rng.uniform(0.05, 0.5, 128) * np.where(rng.random(128) < 1 / 3, 1e-310, 1.0)
    moduli[[5, 77]] = 0.0
    return AntidiagonalProfile(8, moduli * np.exp(2j * np.pi * rng.random(128)))


@SETTINGS
@given(checked_profiles(),
       st.lists(st.one_of(st.sampled_from([0.0, 5e-324, 1.0, 1e-10, 1e-20]), st.floats(0.0, 1.0)),
                min_size=1, max_size=12),
       st.integers(1, 4))
@example(_mixed_steps(), [1.0, 1e-15, 0.0, 0.5, 5e-324, 1e-5, 0.25], 2)
def test_values_route_is_the_report_of_the_rescaled_profile_to_the_bit(prof, vs, per_chunk):
    """``sweep``'s stacked steps ``V * values`` of a checked profile give each row's report.

    The stacks mix full rows, rows of which only some values underflow to 0
    and all-zero rows, and a chunk holds ``per_chunk`` rows, so that chunk
    boundaries fall inside the sweep.
    """
    n, vs = prof.n_qubits, np.array(vs)  # steps of np.linspace, as sweep multiplies them
    with mock.patch.object(separability_mod, "_STACK_AMPLITUDES", per_chunk * prof.values.size):
        rows = list(cli_mod._sweep_rows(prof, vs))
    assert [np.float64(row[0]).tobytes() for row in rows] == [v.tobytes() for v in vs]
    for (_, *got), v in zip(rows, vs):
        rep = classify(AntidiagonalProfile(n, v * prof.values, prof.index))
        em, ns, *ref = _one_row(n, v * prof.values)
        want = _row_bits(rep.r, rep.lhv_violated, rep.min_excluded_separability)
        assert _row_bits(*got) == want == _row_bits(*ref)
        assert np.float64([rep.e_max, rep.norm_squared]).tobytes() == np.float64([em, ns]).tobytes()
        assert [t.excluded for t in rep.thresholds] == [rep.r > t.r_k_max for t in rep.thresholds]


@SETTINGS
@given(st.data(), st.integers(1, 6), seeds)
def test_zoo_profile_is_the_dense_mixture_profile(data, n, seed):
    k = data.draw(st.integers(1, n))
    rng_seed = (seed, n, k, data.draw(st.integers(0, 50)))
    dense = antidiagonal_profile(sample_k_separable(n, k, n_terms=2, rng_seed=rng_seed))
    [[summed]] = _mixture_profiles(n, k, 2, [rng_seed])
    assert summed.tobytes() == dense.values.tobytes()


@SETTINGS
@given(st.integers(1, 10), seeds, st.integers(1, 9), st.integers(1, 4), st.integers(1, 4))
def test_zoo_row_stacks_are_the_term_by_term_mixtures(n, seed, samples, per_stack, n_terms):
    """Every row drawn in stacks of ``per_stack`` samples gives each sample's term-by-term sum."""
    for k in range(1, n + 1):
        row = [(seed, n, k, i) for i in range(samples)]
        with mock.patch.object(separability_mod, "_STACK_AMPLITUDES", per_stack * n_terms << n):
            chunks = list(_mixture_profiles(n, k, n_terms, row))
        assert [len(c) for c in chunks[:-1]] == [per_stack] * (len(chunks) - 1)
        stacked = [values for chunk in chunks for values in chunk]
        rs = np.concatenate([_witness(n, chunk).r for chunk in chunks])
        assert len(stacked) == len(rs) == samples
        for values, r, rng_seed in zip(stacked, rs, row):
            terms = sample_product_terms(n, k, n_terms, rng_seed)
            want = sum(w * antidiagonal_profile(t).values for w, t in terms)  # 0 + w_1 P_1 + ...
            assert values.tobytes() == want.tobytes()
            r0 = classify(AntidiagonalProfile(n, want)).r
            assert r.tobytes() == np.float64(r0).tobytes()


@st.composite
def placed_blocks(draw, nmax=7):
    """Random block states on a random partition of {1..N}; its blocks are mostly non-contiguous.

    Either every block is pure, or each block is independently pure or mixed.
    """
    n = draw(st.integers(1, nmax))
    rng = np.random.default_rng(draw(seeds))
    part = sample_partition(n, draw(st.integers(1, n)), rng)
    mixed = draw(st.booleans())
    return [
        random_density_matrix(len(b), rng) if mixed and draw(st.booleans())
        else random_pure_state(len(b), rng)
        for b in part.blocks
    ], part


def _restricted(n, block):
    """x restricted to ``block`` for every x in [0, 2^n): its bits at the block's labels."""
    x = np.arange(1 << n)
    return sum(((x >> (n - q)) & 1) << (len(block) - 1 - j) for j, q in enumerate(block))


@SETTINGS
@given(placed_blocks())
@example(([random_density_matrix(2, np.random.default_rng(1)),
           random_pure_state(2, np.random.default_rng(2)),
           random_pure_state(1, np.random.default_rng(3))],
          PartitionSpec([[2, 5], [1, 4], [3]])))
# sizes the draws never reach: four interleaved pure blocks at N = 12, and a
# mixed N = 8 product whose density block is not contiguous
@example(([random_pure_state(m, np.random.default_rng(m)) for m in (3, 4, 2, 3)],
          PartitionSpec([[1, 5, 9], [2, 6, 10, 12], [3, 7], [4, 8, 11]])))
@example(([random_pure_state(2, np.random.default_rng(4)),
           random_density_matrix(3, np.random.default_rng(5)),
           random_pure_state(3, np.random.default_rng(6))],
          PartitionSpec([[1, 3], [2, 5, 7], [4, 6, 8]])))
def test_tensor_product_is_the_product_over_blocks_in_block_order(placed):
    """psi[x] = prod_b a_b[x_b] and rho[x, y] = prod_b m_b[x_b, y_b], multiplied in block order."""
    blocks, part = placed
    joint = tensor_product(blocks, part)
    pure = isinstance(joint, PureState)
    want = None
    for blk, block in zip(blocks, part.blocks):
        xb = _restricted(part.n_qubits, block)
        factor = blk.amplitudes[xb] if pure else as_density(blk).matrix[np.ix_(xb, xb)]
        want = factor if want is None else want * factor
    got = joint.amplitudes if pure else joint.matrix
    assert got.tobytes() == want.tobytes()


@SETTINGS
@given(st.data(), st.integers(1, 8), seeds)
def test_every_sampled_term_obeys_the_bound_of_its_own_partition(data, n, seed):
    """Each product term over k' >= k blocks has every antidiagonal modulus at most (1/2)^k'."""
    k = data.draw(st.integers(1, n))
    parts = []
    real = states_mod._partition_blocks

    def record(*args):
        blocks = real(*args)
        parts.append(PartitionSpec(blocks))  # a copy, checked, of the blocks the term is placed on
        return blocks

    with mock.patch.object(states_mod, "_partition_blocks", side_effect=record):
        terms = sample_product_terms(n, k, data.draw(st.integers(1, 4)), rng_seed=seed)
    assert len(parts) == len(terms)
    for (_, term), part in zip(terms, parts):
        assert part.k >= k
        assert verify_antidiagonal_bound(term, part)[1]


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
@given(states(), seeds, st.integers(1, 7))
def test_every_route_takes_a_stack_of_settings(state, seed, s):
    angles = np.random.default_rng(seed).uniform(0.0, 2.0 * np.pi, size=(s, state.n_qubits))
    tensor = correlation_tensor(state)
    stacks = []
    for route, target in ((correlation_value, state), (correlation_value_trace, state),
                          (correlation_value_from_tensor, tensor)):
        rows = [route(target, a) for a in angles]
        assert all(type(v) is float for v in rows)
        stacked = route(target, angles)
        assert stacked.shape == (s,) and stacked.dtype == float
        assert stacked.tobytes() == np.array(rows).tobytes()
        stacks.append(stacked)
    assert np.max(np.abs(stacks[1] - stacks[0])) <= 1e-12
    assert np.max(np.abs(stacks[2] - stacks[0])) <= 1e-12


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


_WS = st.sampled_from(["", "", " ", "  ", "\t", "\n "])
_PART_SIGN = st.sampled_from(["", "+", "-"])
_NUMBER = st.one_of(
    st.integers(0, 999).map(str),
    st.tuples(st.integers(0, 99), st.integers(0, 999)).map(lambda p: f"{p[0]}.{p[1]}"),
    st.integers(0, 99).map(lambda a: f"{a}."),
    st.integers(0, 999).map(lambda b: f".{b}"),
).flatmap(lambda m: st.sampled_from(["", "e2", "E-3", "e+1", "e0"]).map(lambda e: m + e))


@st.composite
def ket_expressions(draw):
    """Text of the documented ket grammar, with its coefficients summed per basis index."""
    n = draw(st.integers(1, 3))
    parts, sums = [], {}
    for t in range(draw(st.integers(1, 6))):
        sign = draw(st.sampled_from(["+", "-"] if t else ["", "+", "-"]))
        form = draw(st.sampled_from(["bare", "number", "complex"]))
        if form == "bare":
            text, coef = "", complex(1.0)
        elif form == "number":
            text = draw(_NUMBER)
            coef = complex(float(text))
        else:
            re_sign, im_part_sign = draw(_PART_SIGN), draw(_PART_SIGN)
            im_sign = draw(st.sampled_from("+-"))
            re, im = draw(_NUMBER), draw(_NUMBER)
            w = [draw(_WS) for _ in range(5)]
            text = f"({w[0]}{re_sign}{re}{w[1]}{im_sign}{w[2]}{im_part_sign}{im}{w[3]}i{w[4]})"
            im_value = float(im_part_sign + im)
            coef = complex(float(re_sign + re), -im_value if im_sign == "-" else im_value)
        if text and draw(st.booleans()):
            text += draw(_WS) + "*"
        idx = draw(st.integers(0, (1 << n) - 1))
        parts.append(f"{draw(_WS)}{sign}{draw(_WS)}{text}{draw(_WS)}|{idx:0{n}b}>{draw(_WS)}")
        sums[idx] = sums.get(idx, 0j) + (-1.0 if sign == "-" else 1.0) * coef
    amps = np.zeros(1 << n, dtype=complex)
    for idx, c in sums.items():
        amps[idx] = c
    return "".join(parts), amps


@SETTINGS
@given(ket_expressions())
def test_ket_grammar_reads_the_summed_normalized_coefficients(expr):
    text, amps = expr
    norm = np.linalg.norm(amps)
    assume(norm > 0)
    info = parse_ket_info(text)
    assert np.allclose(info.state.amplitudes, amps / norm, rtol=0, atol=1e-15)
    assert info.input_norm == pytest.approx(norm, rel=1e-15)


_COEF = st.floats(-2.0, 2.0, allow_nan=False).map(repr)


@st.composite
def sparse_kets(draw):
    """Ket text with 1..8 terms on 2..12 qubits: random, repeated, W-type or complement-closed."""
    n = draw(st.integers(2, 12))
    full = (1 << n) - 1
    support = draw(st.sampled_from(["random", "repeated", "w", "complement-closed"]))
    if support == "random":
        xs = draw(st.lists(st.integers(0, full), min_size=1, max_size=8))
    elif support == "repeated":
        once = draw(st.lists(st.integers(0, full), min_size=1, max_size=4))
        xs = once + draw(st.lists(st.sampled_from(once), min_size=1, max_size=4))
    elif support == "w":
        xs = [1 << j for j in draw(st.lists(st.integers(0, n - 1), min_size=1,
                                            max_size=min(n, 8), unique=True))]
    else:
        lo = draw(st.lists(st.integers(0, full >> 1), min_size=1, max_size=4, unique=True))
        xs = lo + [full ^ x for x in lo]
    return " + ".join(f"({draw(_COEF)}+{draw(_COEF)}i)*|{x:0{n}b}>".replace("+-", "-")
                      for x in xs)


@SETTINGS
@given(sparse_kets())
# complement-closed kets whose dense moduli a plain pairwise sum groups
# differently from their sparse ones: e_max, then ||E||^2, an ulp apart
@example("(-2.25+1.0i)*|010010> + (0.0+0.75i)*|001100> + (-1.5-0.25i)*|001011> + "
         "(1.75+1.75i)*|000011> + (-0.75+0.75i)*|101101> + (-2.0+1.5i)*|110011> + "
         "(-1.0-0.75i)*|110100> + (2.25+0.25i)*|111100>")
@example("(-1.25+0.5i)*|010101> + (-0.25+1.5i)*|001100> + (1.0+1.0i)*|001110> + "
         "(0.25-0.75i)*|101010> + (-1.0-0.25i)*|110011> + (0.25-0.75i)*|110001>")
def test_term_route_profile_and_report_match_the_dense_route(text):
    try:
        info = parse_ket_info(text)
    except ValueError as exc:  # the drawn coefficients cancelled
        assume("zero vector" not in str(exc))
        raise
    sparse, dense = antidiagonal_profile(info), antidiagonal_profile(info.state)
    assert sparse.index is not None and sparse.index.size <= info.index.size
    assert np.array_equal(sparse.full_values(), dense.values)
    fast, slow = classify(sparse), classify(dense)
    for name in ("e_max", "norm_squared", "r"):
        assert getattr(fast, name) == getattr(slow, name)
    assert [t.excluded for t in fast.thresholds] == [t.excluded for t in slow.thresholds]
    assert fast.min_excluded_separability == slow.min_excluded_separability
