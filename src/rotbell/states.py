"""N-qubit pure states and density matrices in the computational (sigma_z) basis.

Conventions used throughout the package:

* qubit 1 is the most significant bit of every basis index, so the basis
  state |k1 k2 ... kN> sits at index k1*2^(N-1) + k2*2^(N-2) + ... + kN;
* all state objects are immutable after construction and validated on
  construction, so they can be shared freely across threads;
* samplers are deterministic: ``random_pure_state`` and
  ``random_density_matrix`` draw from a numpy ``Generator`` they are given,
  and ``sample_product_terms`` and ``sample_k_separable`` seed their own
  from ``rng_seed``.  Every sampled product term is drawn here, by
  ``_term_draws``, whose partition step is ``_partition_blocks``, and built
  and placed by ``_product_terms``; ``zoo`` draws the same terms, in stacks,
  through ``separability._mixture_profiles``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from functools import cached_property, lru_cache, reduce
from itertools import accumulate, groupby

import numpy as np

__all__ = [
    "PureState",
    "DensityMatrix",
    "PartitionSpec",
    "make_ghz",
    "ghz_terms",
    "tensor_product",
    "mix",
    "add_white_noise",
    "sample_k_separable",
    "sample_product_terms",
    "random_pure_state",
    "random_density_matrix",
    "parse_ket",
    "parse_ket_info",
    "KetParse",
    "render_ket",
    "state_to_json",
    "state_from_json",
    "as_density",
]

# Desk-scale memory caps: a dense 2^13 x 2^13 complex matrix is 1 GiB worth
# of entries to validate, a 2^26 pure state is 1 GiB of amplitudes.
MAX_PURE_QUBITS = 26
MAX_DENSE_QUBITS = 13
MAX_TERM_QUBITS = 63  # named terms store their basis indices only, as int64

NORM_TOL = 1e-10
HERMITIAN_TOL = 1e-10
TRACE_TOL = 1e-10
PSD_TOL = 1e-8


def _dim(n):
    return 1 << int(n)  # a Python int, so 2^63 does not overflow a numpy count


def _is_count(x, least=1):
    """The one integer rule for counts: a Python or numpy integer >= least, never a bool.

    A count that passes is used as ``int(x)`` from then on, since numpy
    integers wrap in arithmetic (``-np.uint64(2)``, ``np.int64(8) ** 30``).
    """
    return isinstance(x, (int, np.integer)) and not isinstance(x, bool) and x >= least


def _check_qubits(n, cap, kind):
    if not _is_count(n):
        raise ValueError(f"invalid qubit count {n!r}: need a positive integer")
    if n > cap:
        raise ValueError(f"n_qubits={n} exceeds the {kind} cap of {cap}")


def _check_k(n, k, name="k"):
    """The one "need 1 <= k <= n" rule; both must be counts (see ``_is_count``).

    Returns ``(int(n), int(k))``.
    """
    if not (_is_count(n) and _is_count(k) and k <= n):
        raise ValueError(f"need 1 <= {name} <= n, got {name}={k}, n={n}")
    return int(n), int(k)


def _freeze_array(obj, field, dtype, shape, what):
    """The one construct-time array step of the state-like dataclasses; it checks no content.

    Replaces ``obj.<field>`` by an owned ``dtype`` copy of it (flattened when
    ``shape`` is one-dimensional), refuses any other shape, freezes the copy
    and stores ``n_qubits`` as a Python int.  Returns the frozen array for
    the type's content rule.
    """
    arr = np.array(getattr(obj, field), dtype=dtype)
    if len(shape) == 1:
        arr = arr.reshape(-1)
        if arr.size != shape[0]:
            raise ValueError(f"{what} has length {arr.size}, expected {shape[0]}")
    elif arr.shape != shape:
        raise ValueError(f"{what} has shape {arr.shape}, expected {shape}")
    arr.setflags(write=False)
    object.__setattr__(obj, field, arr)
    object.__setattr__(obj, "n_qubits", int(obj.n_qubits))
    return arr


def _check_finite(arr, what):
    """The one finiteness rule for arrays: refuse any NaN or Inf."""
    if arr.dtype.kind in "fc" and not np.isfinite(arr).all():  # integers are always finite
        raise ValueError(f"{what} contains NaN or Inf")


def _freeze_index(obj, bound, what):
    """Freeze ``obj.index`` as int64 positions, strictly increasing within [0, bound)."""
    idx = np.asarray(obj.index)
    if idx.ndim != 1 or (idx.size and idx.dtype.kind not in "iu"):
        raise ValueError(f"{what} must be a one-dimensional array of integers")
    idx = _freeze_array(obj, "index", np.int64, (idx.size,), what)
    if idx.size and not (idx[0] >= 0 and idx[-1] < bound and (idx[1:] > idx[:-1]).all()):
        raise ValueError(f"{what} must be strictly increasing within [0, {bound})")
    return idx


def _scatter(n, length, index, values):
    """The one densifier: ``values`` at ``index`` among ``length`` zeros, ``n`` capped first."""
    _check_qubits(n, MAX_PURE_QUBITS, "pure-state")
    full = np.zeros(length, dtype=complex)
    full[index] = values
    return full


def _check_amplitudes(amps):
    """The one amplitude rule, for a state or a stack: all finite, each row's vdot 1 +- NORM_TOL."""
    _check_finite(amps, "amplitude vector")
    for row in amps.reshape(-1, amps.shape[-1]) if amps.ndim > 1 else [amps]:
        nrm2 = float(np.vdot(row, row).real)
        if abs(nrm2 - 1.0) > NORM_TOL:
            raise ValueError(f"state is not normalized: sum |amplitude|^2 = {nrm2!r}")


@dataclass(frozen=True, eq=False)
class PureState:
    """State vector of ``n_qubits`` qubits, amplitudes indexed by bitstring."""

    n_qubits: int
    amplitudes: np.ndarray = field(repr=False)

    def __post_init__(self):
        _check_qubits(self.n_qubits, MAX_PURE_QUBITS, "pure-state")
        _check_amplitudes(_freeze_array(self, "amplitudes", complex, (self.dim,), "amplitude vector"))

    @property
    def dim(self):
        return _dim(self.n_qubits)


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """Dense 2^n x 2^n density operator, validated Hermitian, unit-trace, PSD."""

    n_qubits: int
    matrix: np.ndarray = field(repr=False)

    def __post_init__(self):
        _check_qubits(self.n_qubits, MAX_DENSE_QUBITS, "dense-matrix")
        d = _dim(self.n_qubits)
        mat = _freeze_array(self, "matrix", complex, (d, d), "matrix")
        _check_finite(mat, "matrix")
        if np.max(np.abs(mat - mat.conj().T)) > HERMITIAN_TOL:
            raise ValueError("matrix is not Hermitian within tolerance")
        tr = complex(np.trace(mat))
        if abs(tr - 1.0) > TRACE_TOL:
            raise ValueError(f"trace is {tr!r}, expected 1")
        try:  # a Cholesky factor of the shifted matrix exists iff lambda_min >= -PSD_TOL
            np.linalg.cholesky(mat + (PSD_TOL + 1e-14) * np.eye(d))
        except np.linalg.LinAlgError:
            raise ValueError(
                f"matrix is not positive semidefinite (eigenvalue below -{PSD_TOL})"
            ) from None

    @classmethod
    def maximally_mixed(cls, n):
        _check_qubits(n, MAX_DENSE_QUBITS, "dense-matrix")
        return cls(n, np.eye(_dim(n), dtype=complex) / _dim(n))

    @property
    def dim(self):
        return _dim(self.n_qubits)


def _require_state(state):
    """Return ``state`` if it is a PureState or DensityMatrix; raise TypeError otherwise."""
    if not isinstance(state, (PureState, DensityMatrix)):
        raise TypeError(f"expected PureState or DensityMatrix, got {type(state).__name__}")
    return state


def _dense_matrix(state):
    """The one rule for a state's dense matrix: its own, or a pure state's projector (capped)."""
    if isinstance(_require_state(state), DensityMatrix):
        return state.matrix
    _check_qubits(state.n_qubits, MAX_DENSE_QUBITS, "dense-matrix")
    return np.outer(state.amplitudes, state.amplitudes.conj())


def as_density(state):
    """Coerce a PureState to its projector (dense-matrix cap); pass a DensityMatrix through."""
    mat = _dense_matrix(state)
    return state if isinstance(state, DensityMatrix) else DensityMatrix(state.n_qubits, mat)


@dataclass(frozen=True, eq=True)
class PartitionSpec:
    """Partition of the qubit labels {1..N} into disjoint non-empty blocks."""

    blocks: tuple

    def __init__(self, blocks):
        blocks = [list(b) for b in blocks]
        bad = [q for b in blocks for q in b if not _is_count(q)]
        if bad:
            raise ValueError(f"qubit label {bad[0]!r} out of range: labels are integers from 1")
        canon = tuple(tuple(sorted(int(q) for q in b)) for b in blocks)
        if not canon:
            raise ValueError("a partition needs at least one block")
        seen = set()
        for b in canon:
            if not b:
                raise ValueError("empty block in partition")
            for q in b:
                if q in seen:
                    raise ValueError(f"qubit {q} appears in more than one block")
                seen.add(q)
        n = len(seen)
        if seen != set(range(1, n + 1)):
            raise ValueError(f"blocks must cover 1..{n} exactly, got labels {sorted(seen)}")
        object.__setattr__(self, "blocks", canon)

    @property
    def k(self):
        return len(self.blocks)

    @property
    def n_qubits(self):
        return sum(len(b) for b in self.blocks)

    def as_set(self):
        """Order-free view for partition-identity comparisons."""
        return frozenset(frozenset(b) for b in self.blocks)

    def to_lists(self):
        """Nested-list wire form, e.g. [[1], [2, 3]]."""
        return [list(b) for b in self.blocks]

    def __repr__(self):
        inner = "".join("{" + ",".join(map(str, b)) + "}" for b in self.blocks)
        return f"PartitionSpec({inner})"


# ---------------------------------------------------------------------------
# constructors


def ghz_terms(n):
    """(|0...0> + |1...1>)/sqrt(2) on n qubits as its two named terms (term cap)."""
    _check_qubits(n, MAX_TERM_QUBITS, "term")  # before 2^n is formed
    return KetParse(n, [0, _dim(n) - 1], [1.0 / np.sqrt(2.0)] * 2, 1.0)


def make_ghz(n):
    """(|0...0> + |1...1>)/sqrt(2) on n qubits: the dense state of :func:`ghz_terms`."""
    return ghz_terms(n).state


def _place(arrays, blocks, n, out=None):
    """The one qubit placement: the joint array of block arrays on the qubits of ``blocks``.

    ``arrays[i]`` (all complex amplitude vectors, or all complex matrices)
    lives on the qubits of ``blocks[i]``, block labels in increasing order
    mapping to its own qubits 1, 2, ...; ``n`` is the joint qubit count.  Each
    array is viewed with n axes, of size 2 on its own qubits and 1 on every
    other (a matrix repeats that shape for its column axes), so that its axes
    already sit at their qubits' joint positions.  The views are multiplied in
    block order by broadcasting, and the last product is written into ``out``
    (a fresh array when None).  So every entry is the product of one entry per
    block, multiplied in block order, and no second joint array is made.
    Nothing is checked here.
    """
    ndim = arrays[0].ndim
    views = [a.reshape([2 if q in b else 1 for q in range(1, n + 1)] * ndim)
             for a, b in zip(arrays, blocks)]
    if out is None:
        out = np.empty((_dim(n),) * ndim, dtype=complex)
    dst = out.reshape((2,) * ndim * n)
    if len(views) == 1:
        dst[...] = views[0]
    else:
        np.multiply(reduce(np.multiply, views[:-1]), views[-1], out=dst)
    return out


def tensor_product(states, assignment):
    """Joint state of block states placed on the qubits named by ``assignment``.

    ``states[i]`` lives on the qubits of ``assignment.blocks[i]`` (block labels
    in increasing order map to the block state's own qubits 1, 2, ...).  Blocks
    need not be contiguous: ``_place`` views each block's array on its own
    qubits' joint axes and multiplies the views by broadcasting, so every
    entry of the joint amplitudes, or of the joint matrix, is the product of
    one entry per block, multiplied in block order.  Returns a PureState when
    every input is pure, otherwise a DensityMatrix; the joint qubit count is
    checked against that type's cap before anything is allocated.
    """
    if not isinstance(assignment, PartitionSpec):
        assignment = PartitionSpec(assignment)
    states = list(states)
    if len(states) != assignment.k:
        raise ValueError(f"{len(states)} states for {assignment.k} blocks")
    for st, block in zip(states, assignment.blocks):
        if _require_state(st).n_qubits != len(block):
            raise ValueError(
                f"state on block {block} has {st.n_qubits} qubits, block has {len(block)}"
            )
    n = assignment.n_qubits
    if all(isinstance(st, PureState) for st in states):
        _check_qubits(n, MAX_PURE_QUBITS, "pure-state")
        return PureState(n, _place([st.amplitudes for st in states], assignment.blocks, n))
    _check_qubits(n, MAX_DENSE_QUBITS, "dense-matrix")
    return DensityMatrix(n, _place([_dense_matrix(st) for st in states], assignment.blocks, n))


def mix(components):
    """Convex combination sum_i w_i rho_i of same-size density matrices.

    Pure components enter as their projectors.  Weights must be nonnegative
    and sum to 1 within 1e-10.  All of it, and the dense-matrix cap, is checked
    before the sum is allocated; then the components are added one at a time.
    """
    components = [(float(w), _require_state(rho)) for w, rho in components]
    if not components:
        raise ValueError("mixture needs at least one component")
    n = components[0][1].n_qubits
    total = 0.0
    for w, rho in components:
        if not w >= 0:  # written so that NaN is refused too
            raise ValueError(f"negative or NaN mixture weight {w}")
        if rho.n_qubits != n:
            raise ValueError("mixture components act on different qubit counts")
        total += w
    if not abs(total - 1.0) <= 1e-10:
        raise ValueError(f"mixture weights sum to {total!r}, expected 1")
    _check_qubits(n, MAX_DENSE_QUBITS, "dense-matrix")
    acc = np.zeros((_dim(n), _dim(n)), dtype=complex)
    for w, rho in components:
        acc += w * _dense_matrix(rho)
    return DensityMatrix(n, acc)


def add_white_noise(rho0, visibility):
    """V * rho0 + (1 - V) * identity / 2^N for V in [0, 1]; a pure rho0 enters as its projector."""
    v = float(visibility)
    if not 0.0 <= v <= 1.0:
        raise ValueError(f"visibility {v} outside [0, 1]")
    mat = _dense_matrix(rho0)
    d = len(mat)
    return DensityMatrix(rho0.n_qubits, v * mat + ((1.0 - v) / d) * np.eye(d))


# ---------------------------------------------------------------------------
# sampling


def _haar_blocks(z, dims):
    """The one Haar rule: normalized amplitudes of blocks of ``dims`` entries, from their normals.

    ``z`` holds, block by block, the block's d real normals, then its d
    imaginary ones: the stream of one ``standard_normal`` call per block and
    part.  Returns one flat array of every block's amplitudes and the
    position of each block in it; blocks of one size sit side by side, in
    their order in ``dims``, the smallest size first.  Each block is
    ``z_re + 1j * z_im`` divided by ``sqrt(sum z_re^2 + sum z_im^2)``, each
    sum taken by numpy's ``sum`` over that block's own normals, so no BLAS
    kernel enters.  For all the blocks of one size, the sums are the row sums
    of one C-ordered (count, d) stack, which have the bits of one ``sum`` per
    block.  The norms are taken before the amplitudes exist, so one block
    peaks at its normals and its amplitudes.
    """
    order = sorted(range(len(dims)), key=dims.__getitem__)  # stable
    sizes = [dims[i] for i in order]
    at = list(accumulate(sizes, initial=0))
    starts = [0] * len(dims)
    for i, a in zip(order, at):
        starts[i] = a
    if len(dims) == 1:  # its halves are views of z: random_pure_state makes no index array
        re, im = z[:at[1]], z[at[1]:]
    else:
        z_at = list(accumulate(dims, initial=0))  # block i's normals start at 2 * z_at[i]
        counts = np.array(sizes)
        src = np.repeat(np.array([2 * z_at[i] - a for i, a in zip(order, at)]), counts)
        src += np.arange(at[-1])  # the position in z of every real normal
        re, im = z[src], z[src + np.repeat(counts, counts)]
    norms = []  # per size: its blocks' span [a, b) of the flat array, d, a column of norms
    a = 0
    for d, same in groupby(sizes):
        b = a + d * len(list(same))
        re_sq, im_sq = (np.square(x[a:b].reshape(-1, d)).sum(axis=1) for x in (re, im))
        norms.append((a, b, d, np.sqrt(re_sq + im_sq)[:, None]))
        a = b
    amps = 1j * im
    amps += re  # in place: the bits of z_re + 1j * z_im, without a third array
    for a, b, d, column in norms:
        blocks = amps[a:b].reshape(-1, d)
        blocks /= column
    return amps, starts


def random_pure_state(n, rng):
    """Haar-random pure state: i.i.d. standard complex Gaussian amplitudes, normalized.

    One ``standard_normal`` call draws the 2^n real parts, then the 2^n
    imaginary ones, and ``_haar_blocks`` normalizes them by numpy sums, so the
    bits do not depend on the BLAS kernel.  It peaks at about twice its
    amplitudes: the normals and the amplitudes, then the amplitudes and the
    state's copy.
    """
    _check_qubits(n, MAX_PURE_QUBITS, "pure-state")
    return PureState(n, _haar_blocks(rng.standard_normal(2 * _dim(n)), [_dim(n)])[0])


def random_density_matrix(n, rng, rank=None):
    """Random full-rank (or rank-limited) density matrix G G^dag / tr.

    The Gram product G G^dag is BLAS's (a zgemm), so its bits follow the
    OpenBLAS kernel; a numpy-summed product is many times slower.
    """
    _check_qubits(n, MAX_DENSE_QUBITS, "dense-matrix")
    d = _dim(n)
    r = d if rank is None else rank
    if not (_is_count(r) and r <= d):
        raise ValueError(f"need 1 <= rank <= {d}, got rank={rank!r}")
    g = rng.standard_normal((d, r)) + 1j * rng.standard_normal((d, r))
    m = g @ g.conj().T
    return DensityMatrix(n, m / np.trace(m))


def _check_sampler(n, k, n_terms):
    """The argument rule of the product-term samplers; returns ``(int(n), int(k))``."""
    n, k = _check_k(n, k)
    if not _is_count(n_terms):
        raise ValueError(f"n_terms must be >= 1, got {n_terms}")
    _check_qubits(n, MAX_PURE_QUBITS, "pure-state")
    return n, k


def _stirling_rows(n, k):
    """Rows [S(m, 0), ..., S(m, k)] for m = 0..n, one after another, in Python ints.

    Each row follows from the one before by S(m, j) = j S(m-1, j) + S(m-1, j-1),
    so any n needs O(k) memory and no recursion, and no count can wrap.
    """
    row = [1] + [0] * k
    yield row
    for _ in range(n):
        row = [0] + [j * row[j] + row[j - 1] for j in range(1, k + 1)]
        yield row


@lru_cache(maxsize=64)  # zoo and sample_product_terms use at most n (n, j) pairs at a time
def _new_block_odds(n, k):
    """``odds[m][j] = S(m-1, j-1) / S(m, j)``, the chance that element m opens a new block.

    Listed for m <= n and j <= k (0.0 where S(m, j) = 0); each ratio of the
    exact counts is rounded once.
    """
    rows = _stirling_rows(n, k)
    prev = next(rows)
    odds = [()]
    for row in rows:
        odds.append(tuple(prev[j - 1] / row[j] if row[j] else 0.0 for j in range(k + 1)))
        prev = row
    return tuple(odds)


def _partition_blocks(n, k, rng):
    """The one partition draw: the blocks of ``separability.sample_partition``, each sorted.

    ``n`` and ``k`` are counts already checked, so the sampler's terms skip
    ``_check_k`` and ``PartitionSpec``'s checks of a partition built correct.
    """
    odds = _new_block_odds(n, k)
    blocks = []
    # A deferred element m joins one of the j blocks that the construction for
    # {1..m-1} is about to create; those are exactly the blocks appended after
    # its defer point, so remember (element, offset, j).
    pending = []
    m, j = n, k
    while m > 0:
        if j == m:
            for e in range(m, 0, -1):
                blocks.append([e])
            break
        if j == 1:
            blocks.append(list(range(m, 0, -1)))
            break
        if rng.random() < odds[m][j]:
            blocks.append([m])
            m, j = m - 1, j - 1
        else:
            pending.append((m, len(blocks), j))
            m -= 1
    for e, offset, jj in pending:
        blocks[offset + int(rng.integers(0, jj))].append(e)
    return [sorted(b) for b in blocks]


# Terms of at most this many amplitudes are placed by one gather and one product
# each, larger ones by _place.  The gather's work grows with the block count and
# _place's does not.  Whole zoo-shaped terms (draws, _haar_blocks and placement;
# two terms per sample, every k), gather against _place, median per term: 93
# against 182 us at n = 8, 110 against 197 at n = 9, 139 against 214 at n = 10,
# 200 against 238 at n = 11, 317 against 277 at n = 12 (one BLAS thread, 2-CPU
# x86-64 host, numpy 2.4).  The cut stays at n = 10, where the table of
# _local_indices holds 2 MiB; at n = 11 it would hold 8 MiB, and take 14 ms to
# build, to save a sixth.
_GATHER_AMPLITUDES = 1 << 10


@lru_cache(maxsize=2)  # zoo and the samplers place the terms of one n at a time
def _local_indices(n):
    """(2^n, 2^n) table: entry [m, x] is the index of joint index x in the block of qubit mask m.

    The qubits of mask m are those of its set bits, qubit 1 the most
    significant; the block's index reads x's bits on them in that order.
    Built a top qubit at a time: outside the mask it changes no entry, and
    inside it puts x's bit on it above the mask's other bits.
    """
    dtype = np.min_scalar_type(_dim(n) - 1)
    table, weight = np.zeros((1, 1), dtype), np.ones(1, dtype=np.intp)  # 2^(qubits of mask)
    for _ in range(n):
        table = np.block([[table, table], [table, (table + weight[:, None]).astype(dtype)]])
        weight = np.concatenate([weight, 2 * weight])
    table.setflags(write=False)  # the cache hands the same table to every caller
    return table


def _term_draws(n, k, n_terms, seeds):
    """``(w, part, z)`` per term of every seed: every draw of the term stream, in its order.

    ``z`` holds the term's normals, one ``standard_normal`` call per term.
    """
    for seed in seeds:
        rng = np.random.default_rng(seed)
        for w in rng.dirichlet(np.ones(n_terms)):
            part = _partition_blocks(n, int(rng.integers(k, n + 1)), rng)
            yield float(w), part, rng.standard_normal(2 * sum(1 << len(b) for b in part))


def _product_terms(n, k, n_terms, seeds, rows):
    """The one route of sampled terms: ``(w, amplitudes)`` per term of every seed, not yet checked.

    The terms of ``seeds`` come seed by seed, each placed into the next entry
    of ``rows``, or into a fresh array where that is None.  Every entry is
    the product of one entry per block, multiplied in block order, as
    :func:`tensor_product` forms it.  Terms of at most ``_GATHER_AMPLITUDES``
    amplitudes are all drawn first, and ``_haar_blocks`` builds the blocks of
    all of them as one flat array.  Each term is then one gather of its
    blocks' entries, a (k, 2^n) stack, and one product over the blocks.
    Larger terms are drawn and placed one at a time: one ``_haar_blocks`` call
    builds a term's blocks and ``_place`` places them, so that no index array
    over the joint amplitudes is made.
    """
    draws = _term_draws(n, k, n_terms, seeds)
    rows = iter(rows)
    if _dim(n) > _GATHER_AMPLITUDES:
        for (w, part, z), row in zip(draws, rows):
            flat, starts = _haar_blocks(z, [1 << len(b) for b in part])
            blocks = [flat[a:a + (1 << len(b))] for a, b in zip(starts, part)]
            yield w, _place(blocks, part, n, row)
        return
    draws = list(draws)
    qubits = [b for _, part, _ in draws for b in part]
    flat, starts = _haar_blocks(np.concatenate([z for *_, z in draws]), [1 << len(b) for b in qubits])
    bit = [1 << n - q for q in range(n + 1)]  # qubit q's bit of a joint index
    masks = np.array([sum(map(bit.__getitem__, b)) for b in qubits])
    starts = np.array(starts)[:, None]
    local = _local_indices(n)
    a = 0
    for (w, part, _), row in zip(draws, rows):
        b = a + len(part)
        # The stack is C-contiguous and multiplied by reduce along axis 0: block by
        # block, in block order, as _place's broadcast product.  reduceat, or
        # an F-ordered stack, rounds differently.
        stack = flat[local[masks[a:b]] + starts[a:b]]
        yield w, np.multiply.reduce(stack, axis=0, out=row)
        a = b


def sample_product_terms(n, k, n_terms, rng_seed):
    """Weighted pure product terms ``[(w, PureState), ...]`` of a random k-separable mixture.

    Each of the ``n_terms`` terms uses an independently sampled partition of
    {1..n} with at least k blocks (the block count is uniform on {k..n}, the
    partition uniform among those with that many blocks) and Haar-random pure
    block states.  Weights are uniform on the simplex.  Deterministic for a
    fixed ``rng_seed``, which seeds one generator drawn in this order: the
    ``n_terms`` weights (``dirichlet``), then per term its block count
    (``integers``), its partition (``_partition_blocks``) and, block by block
    in ``part.blocks`` order, the block's real normals, then its imaginary
    ones, exactly as :func:`random_pure_state` draws them.  The stream is the
    same as one draw per block and part, but each term's normals come from
    one ``standard_normal`` call.  The terms are built by ``_product_terms``,
    their blocks by ``_haar_blocks``, the Haar rule of :func:`random_pure_state`:
    up to n = 10 all blocks of all terms by one call, each term placed by one
    gather of its blocks' entries and one product over them, and past that
    one call per term, placed by :func:`tensor_product`'s broadcast product
    of block views.  Either way each term is bit for bit the tensor product
    of ``random_pure_state`` blocks.  Only the joint term is validated, as
    one ``PureState``.  No 2^n x 2^n matrix is built.  ``zoo`` draws the same
    terms through ``separability._mixture_profiles`` and checks each row's
    terms as one stack.
    """
    n, k = _check_sampler(n, k, n_terms)
    terms = _product_terms(n, k, n_terms, [rng_seed], [None] * n_terms)
    return [(w, PureState(n, amps)) for w, amps in terms]


def sample_k_separable(n, k, n_terms, rng_seed):
    """Random k-separable density matrix: :func:`mix` of :func:`sample_product_terms`."""
    _check_qubits(n, MAX_DENSE_QUBITS, "dense-matrix")
    return mix(sample_product_terms(n, k, n_terms, rng_seed))


# ---------------------------------------------------------------------------
# ket expressions

# One term of a ket expression, [sign] [coef ['*']] |bits>, matched term by
# term.  No two adjacent quantifiers can split the same run of characters, so
# a failed match costs time linear in the length of the text.
_UNSIGNED = r"(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?"
_TERM = re.compile(
    r"\s*(?:(?P<sign>[+-])\s*)?(?:(?:(?P<num>{u})"
    r"|\(\s*(?P<re>[+-]?{u})\s*(?P<imsign>[+-])\s*(?P<im>[+-]?{u})\s*i\s*\))\s*(?:\*\s*)?)?"
    r"\|(?P<bits>[01]+)>".format(u=_UNSIGNED)
)


@dataclass(frozen=True, eq=False, repr=False)
class KetParse:
    """Parse result: the normalized named terms plus how far the raw norm was from 1.

    ``index`` lists the named basis indices in increasing order and
    ``amplitudes`` their normalized sums; every other amplitude is zero.
    Its amplitudes pass a PureState's rule, ``_check_amplitudes``, over the
    named terms only, under the term cap; ``input_norm`` must be finite and
    positive.  ``state`` places the terms into a dense PureState
    on first use, under the pure-state cap.
    """

    n_qubits: int
    index: np.ndarray
    amplitudes: np.ndarray
    input_norm: float

    def __post_init__(self):
        _check_qubits(self.n_qubits, MAX_TERM_QUBITS, "term")
        idx = _freeze_index(self, _dim(self.n_qubits), "ket index")
        _check_amplitudes(_freeze_array(self, "amplitudes", complex, (idx.size,), "amplitude vector"))
        if not (np.isfinite(self.input_norm) and self.input_norm > 0):
            raise ValueError(f"input_norm must be finite and positive, got {self.input_norm!r}")

    @property
    def normalized(self):
        """Whether normalization was applied: ``input_norm`` is off 1 by more than ``NORM_TOL``."""
        return abs(self.input_norm - 1.0) > NORM_TOL

    @cached_property
    def state(self):
        """The dense PureState of the named terms, built once."""
        n = self.n_qubits
        return PureState(n, _scatter(n, _dim(n), self.index, self.amplitudes))

    def __repr__(self):
        return f"KetParse(n_qubits={self.n_qubits}, terms={self.index.size})"


def parse_ket_info(expression):
    """Parse a ket expression, reporting whether normalization was applied.

    Grammar (whitespace may stand between tokens; a signed part, a number
    and a ket are single tokens)::

        expr   := [sign] term (sign term)*
        term   := [coef ["*"]] ket
        coef   := number | "(" part sign part "i" ")"
        part   := [sign]number
        number := (digits ["." [digits]] | "." digits) [("e"|"E") [sign] digits]
        ket    := "|" ("0"|"1")+ ">" , all kets of equal length
        sign   := "+" | "-"

    Only the first term may go without a sign.  Numbers are unsigned outside
    parentheses, where the term's sign gives the sign; inside them the real
    and imaginary parts may each carry their own.  The coefficients of a
    repeated basis state are summed in text order.  Normalization runs over
    the named terms only: their sums are scaled by a power of two, so that
    neither huge nor tiny coefficients overflow or underflow, and divided by
    their norm; no 2^N vector is built (see :class:`KetParse`).  ``input_norm``
    is the norm of the unscaled sums, and ``normalized`` is True when it
    deviated from 1 by more than 1e-10.
    """
    text = expression
    terms, pos = [], 0
    while (m := _TERM.match(text, pos)) and (not terms or m["sign"]):
        terms.append(m)
        pos = m.end()
    tail = text[pos:].strip()
    if not terms and tail in ("", "+", "-"):
        raise ValueError("ket syntax error: empty expression")
    if tail in ("+", "-"):
        raise ValueError(f"ket syntax error at position {len(text)}: dangling sign")
    if tail:
        at = text.index(tail[0], pos)
        want = "'+' or '-' between terms" if m else "a term [sign] [coefficient [*]] |bits>"
        raise ValueError(f"ket syntax error at position {at}: expected {want}, found {tail[:10]!r}")

    n = len(terms[0]["bits"])
    _check_qubits(n, MAX_TERM_QUBITS, "term")
    sums = {}  # basis index -> summed coefficient
    for m in terms:
        if len(m["bits"]) != n:
            raise ValueError(
                f"inconsistent bitstring lengths: |{m['bits']}> has {len(m['bits'])} bits, "
                f"expected {n}"
            )
        if m["num"] is not None:
            coef = complex(float(m["num"]))
        elif m["re"] is not None:
            im = float(m["im"])
            coef = complex(float(m["re"]), -im if m["imsign"] == "-" else im)
        else:
            coef = complex(1.0)
        idx = int(m["bits"], 2)
        sums[idx] = sums.get(idx, 0j) + (-1.0 if m["sign"] == "-" else 1.0) * coef
    named = sorted(sums)
    parts = np.array([sums[i] for i in named], dtype=complex).view(float)
    big = float(np.max(np.abs(parts)))
    if not np.isfinite(big):
        raise ValueError("ket amplitudes must be finite")
    if big == 0.0:
        raise ValueError("ket expression sums to the zero vector")
    # The power-of-two scaling is exact, so the amplitudes come out
    # bit-identical to plain sums / norm wherever that does not overflow.
    exp = int(np.frexp(big)[1])
    vals = np.ldexp(parts, -exp).view(complex)
    nrm = float(np.linalg.norm(vals))
    with np.errstate(over="ignore"):
        input_norm = float(np.ldexp(nrm, exp))
    if not np.isfinite(input_norm):
        raise ValueError("ket norm overflows float64, though each amplitude is finite")
    return KetParse(n, np.array(named, dtype=np.int64), vals / nrm, input_norm)


def parse_ket(expression):
    """Parse a ket expression into a normalized PureState."""
    return parse_ket_info(expression).state


def render_ket(state):
    """Ket expression for ``state``, one term per nonzero amplitude.

    The output round-trips through :func:`parse_ket` to the same state (up to
    renormalization noise below 1e-10 per amplitude).
    """
    if not isinstance(state, PureState):
        raise TypeError(f"expected PureState, got {type(state).__name__}")
    n = state.n_qubits
    return " + ".join(
        f"({float(a.real)!r}+{float(a.imag)!r}i)*|{idx:0{n}b}>".replace("+-", "-")
        for idx, a in enumerate(state.amplitudes) if a != 0
    )


# ---------------------------------------------------------------------------
# JSON wire format


def _to_pairs(arr):
    """The one [re, im] encoding of a complex array: a float64 view with a trailing pair axis."""
    arr = np.ascontiguousarray(arr, dtype=complex)
    return arr.view(np.float64).reshape(arr.shape + (2,))


def state_to_json(state):
    """Wire-format dict: pure states as [re, im] pairs, densities as nested rows."""
    _require_state(state)
    for kind, (payload, _, cls) in _JSON_KINDS.items():
        if isinstance(state, cls):
            pairs = _to_pairs(getattr(state, payload)).tolist()
            return {"n": state.n_qubits, "kind": kind, payload: pairs}


_JSON_KINDS = {"pure": ("amplitudes", 2, PureState), "density": ("matrix", 3, DensityMatrix)}


def state_from_json(obj):
    """Inverse of :func:`state_to_json`; validates all state invariants and rejects extra keys."""
    if not isinstance(obj, dict):
        raise ValueError("state JSON must be an object")
    n, kind = obj.get("n"), obj.get("kind")
    if isinstance(n, bool) or not isinstance(n, int):
        raise ValueError(f'state JSON needs an integer "n", got {n!r}')
    if not isinstance(kind, str) or kind not in _JSON_KINDS:
        raise ValueError(f'unknown state kind {kind!r}: expected "pure" or "density"')
    payload, ndim, cls = _JSON_KINDS[kind]
    unknown = sorted(set(obj) - {"n", "kind", payload})
    if unknown:
        raise ValueError(f"unknown state JSON field(s) {', '.join(map(repr, unknown))}")
    if payload not in obj:
        raise ValueError(f'{kind} state JSON needs a "{payload}" array')
    try:
        pairs = np.asarray(obj[payload])  # JSON numbers come out as int or float
    except ValueError:  # ragged nesting: refused below as an object array
        pairs = np.array(None)
    if pairs.dtype.kind not in "iuf" or pairs.ndim != ndim or pairs.shape[-1] != 2:
        raise ValueError(f"{payload} must be nested arrays of [re, im] pairs")
    return cls(n, pairs[..., 0] + 1j * pairs[..., 1])
