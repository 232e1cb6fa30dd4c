"""Planar correlation functions of N-qubit states.

Every observer j measures the dichotomic observable
``sigma(alpha_j) = cos(alpha_j) sigma_x + sin(alpha_j) sigma_y`` in its local
x-y plane.  The full correlation function

    E(alpha_1, ..., alpha_N) = <sigma(alpha_1) x ... x sigma(alpha_N)>

is completely determined by the 2^(N-1) antidiagonal density-matrix elements
``rho[0 k2..kN ; 1 1-k2..1-kN]``:

    E = 2 sum_k Re[ rho_ad(k) * exp(i phi_k) ],
    phi_k = alpha_1 + sum_{j>=2} (-1)^{k_j} alpha_j.

From that form follow the closed expressions for the maximum
``E_max = 2 sum |rho_ad|`` and the L2 norm over the angle hypercube
``||E||^2 = 2 (2 pi)^N sum |rho_ad|^2``.  The sign conventions here were fixed
against the direct operator trace (see ``correlation_value_trace``), which is
the reference implementation for all of them.

A profile is dense (all 2^(N-1) elements, under the pure-state cap of 26
qubits) or sparse (the elements at a strictly increasing int64 ``index``,
every other one zero, under the term cap of 63 qubits).  Profiles of a
PureState or a DensityMatrix are dense; the profile of a parsed ket
(``KetParse``) is sparse, with at most one element per named term, so
``analyze --ket`` never builds the 2^N amplitude vector.  The moduli sums
(``e_max``, the norm, ``classify``) follow one sum rule: they add the
nonzero moduli of the stored elements in index order, so the sparse and
the dense profile of one state give the same bits.  The consumers that
need positions (the evaluation of E, the tensor, ``to_json`` and the
two-qubit maximizer) read the full vector from the one scatter,
``AntidiagonalProfile.full_values``, which checks the pure-state cap
before it allocates and scatters a sparse profile once.

Every evaluation of E from the profile runs one contraction loop and one
expression: the profile is contracted qubit by qubit over qubits 2..N,
which gives z for every column (setting of qubits 2..N), and then
E = 2 Re(exp(i alpha_1) z).  The reconstruction from tensor components runs
the same loop with cos and sin in place of the phases.  A grid of E is laid
out in one tiling, C-order tiles of at most 4,096 values: the tensor and the
quadrature fill one array from it, and the grid search of the oracle module
scans it with a running argmax, so each value has the same bits on every
route.

Note on E_max: it is always an upper bound for E, and it is attained for
N <= 2, for GHZ-like profiles, and for products of blocks of at most two
qubits.  For N >= 3 a generic entangled state leaves a strict gap: reaching
the bound needs all 2^(N-1) phases phi_k aligned, which is an overdetermined
system in only N angles.  The oracle module measures that gap.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .states import MAX_DENSE_QUBITS, MAX_PURE_QUBITS, MAX_TERM_QUBITS, DensityMatrix, KetParse
from .states import PureState, _check_finite, _check_qubits, _freeze_array, _freeze_index
from .states import _require_state, _scatter, _to_pairs

__all__ = [
    "AntidiagonalProfile",
    "CorrelationTensor",
    "antidiagonal_profile",
    "correlation_value",
    "correlation_value_trace",
    "correlation_tensor",
    "correlation_value_from_tensor",
    "e_max",
    "optimal_angles_two_qubit",
    "norm_squared_antidiagonal",
    "norm_squared_tensor",
]

ANTIDIAG_BOUND_TOL = 1e-12
TENSOR_BOUND_TOL = 1e-10

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)


@dataclass(frozen=True, eq=False)
class AntidiagonalProfile:
    """The 2^(N-1) complex elements rho[0 k ; 1 ~k], indexed by k2..kN packed big-endian.

    This vector is the sufficient statistic for every planar-correlation
    quantity in this package.  For any valid density matrix each modulus is
    at most 1/2.  With ``index`` None the profile is dense and ``values``
    holds all 2^(N-1) elements; otherwise ``values[i]`` is the element at
    position ``index[i]`` (strictly increasing, within [0, 2^(N-1))) and
    every other element is zero.
    """

    n_qubits: int
    values: np.ndarray = field(repr=False)
    index: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self):
        if self.index is None:
            _check_qubits(self.n_qubits, MAX_PURE_QUBITS, "pure-state")
        else:  # a sparse profile stores int64 positions only
            _check_qubits(self.n_qubits, MAX_TERM_QUBITS, "term")
        half = 1 << (self.n_qubits - 1)
        size = half if self.index is None else _freeze_index(self, half, "profile index").size
        _check_profile(_freeze_array(self, "values", complex, (size,), "profile"))

    def full_values(self):
        """All 2^(N-1) elements: ``values`` itself when dense, else scattered into zeros.

        A sparse profile is scattered once, on the first call, into a frozen
        array that every later call returns.
        """
        return self.values if self.index is None else self._scattered

    @cached_property
    def _scattered(self):
        full = _scatter(self.n_qubits, 1 << (self.n_qubits - 1), self.index, self.values)
        full.setflags(write=False)
        return full

    def to_json(self):
        """[re, im] pairs of all elements in index order (k2..kN packed big-endian)."""
        return _to_pairs(self.full_values()).tolist()


def _check_profile(vals):
    """The one content rule for profile values, of one profile or a stack: finite, moduli <= 1/2."""
    _check_finite(vals, "profile")
    big = float(np.abs(vals).max(initial=0.0))
    if big > 0.5 + ANTIDIAG_BOUND_TOL:
        raise ValueError(f"antidiagonal modulus {big} exceeds the 1/2 bound")


def _pure_profile(psi):
    """``psi[0 k] * conj(psi[1 ~k])`` over the last axis: the one pure-state profile expression."""
    half = psi.shape[-1] // 2
    return psi[..., :half] * np.conj(psi[..., half:][..., ::-1])


@dataclass(frozen=True, eq=False)
class CorrelationTensor:
    """The 2^N correlation-tensor components, index (i1..iN) in {x,y}^N packed with x=0, y=1."""

    n_qubits: int
    components: np.ndarray = field(repr=False)

    def __post_init__(self):
        _check_qubits(self.n_qubits, MAX_PURE_QUBITS, "pure-state")
        comp = _freeze_array(self, "components", float, (1 << self.n_qubits,), "tensor")
        _check_finite(comp, "tensor")
        big = float(np.max(np.abs(comp)))
        if big > 1.0 + TENSOR_BOUND_TOL:
            raise ValueError(f"tensor component {big} exceeds the unit bound")

    def to_json(self):
        """Component list in index order ((i1..iN) packed big-endian, x=0, y=1)."""
        return self.components.tolist()


_BLOCK_POINTS = 4096  # values per tile of E: 64 KiB of complex temporaries


def _contract(vec, factors):
    """``vec`` (2^K values over K bits, packed big-endian) contracted bit by bit: (S, m_1 ... m_K).

    ``factors[j]`` has shape (S, 2, m_j), S broadcasting from 1: it maps bit
    j, leading bit first, to m_j settings in each of S stacks.  Each step
    turns the leading bit axis into a trailing setting axis, so the settings
    come out flat in C order.  The one contraction loop: the profile route
    (``_columns``) and the tensor route (``correlation_value_from_tensor``)
    both run it.
    """
    acc = vec[None]
    for f in factors:
        acc = acc.reshape(len(acc), 2, -1).swapaxes(1, 2) @ f
    return acc.reshape(len(acc), -1)


def _columns(prof, phases):
    """z, the profile contracted over qubits 2..N, on S grids: shape (S, m_2 ... m_N).

    ``phases[j]`` has shape (S, m_{j+2}) and lists exp(i alpha) for the
    settings of qubit j+2 in each of the S grids.  Bit 0 of a qubit carries
    +alpha_j and bit 1 carries -alpha_j.  One entry of z is a column of the
    grid (a setting of qubits 2..N), flat in C order: E on it is
    ``_e_values(exp(i alpha_1), z)`` for every alpha_1.
    """
    vec = prof.full_values()  # checks the pure-state cap before any grid array exists
    return _contract(vec, [np.stack([ph, np.conj(ph)], axis=1) for ph in phases])


def _e_values(lead, z):
    """E = 2 Re(exp(i alpha_1) z), broadcast over ``lead`` = exp(i alpha_1) and ``z``.

    The one expression for E: every evaluation from the profile, the grid
    search included, ends in it, so a value is the same complex multiply of
    the same two numbers whichever route reads it.  Since |exp(i alpha_1)| = 1 it never
    exceeds 2|z|, which is the column bound the grid search prunes with.
    """
    return 2.0 * (lead * z).real


def _tiles(lead, z):
    """E on qubit 1's ``lead`` x the columns ``z``, in C-order tiles ``(row, column, values)``.

    The one tiling of a grid of E: the (len(lead), len(z)) array is cut into
    tiles of at most ``_BLOCK_POINTS`` values, whole rows or pieces of one
    row when a row is larger, so the complex temporaries stay small.  A tile
    starts at ``(row, column)`` of the whole array.  ``z`` enters as a
    (1, width) row, not broadcast from 1-D: in a 1 x 1 tile both operands
    would then have stride 0, and numpy multiplies such operands in its
    scalar loop, whose rounding can differ from the vector loop that
    multiplies every larger tile.
    """
    width = min(len(z), _BLOCK_POINTS)
    rows = _BLOCK_POINTS // width
    for r in range(0, len(lead), rows):
        for c in range(0, len(z), width):
            yield r, c, _e_values(lead[r:r + rows, None], z[None, c:c + width])


def _evaluate(prof, phases):
    """2 Re sum_k rho_ad(k) exp(i phi_k) on one grid, as an (m_1, ..., m_N) array.

    ``phases[j]`` lists exp(i alpha) for the m_{j+1} settings of qubit j+1.
    The profile is contracted once (``_columns``), and the result is filled
    from ``_tiles``.
    """
    z = _columns(prof, [ph[None] for ph in phases[1:]])[0]
    out = np.empty((len(phases[0]), len(z)))
    for r, c, values in _tiles(phases[0], z):
        out[r:r + len(values), c:c + values.shape[1]] = values
    return out.reshape([len(ph) for ph in phases])


def _check_angles(angles, n, values_at):
    """The one angle rule, shared by every pointwise route to E.

    ``angles`` is one setting of shape (N,) or a stack of S >= 1 settings of
    shape (S, N), all finite.  ``values_at`` maps the (S, N) stack to S values;
    one setting gets a float back, a stack an (S,) float array.
    """
    a = np.asarray(angles, dtype=float)
    if a.ndim not in (1, 2) or a.shape[-1] != n or a.size == 0:
        raise ValueError(f"expected {n} angles or an (S, {n}) stack of them, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError("angles contain NaN or Inf")
    values = values_at(np.atleast_2d(a))
    return float(values[0]) if a.ndim == 1 else values


def antidiagonal_profile(state):
    """Extract the antidiagonal profile of a pure or mixed state or a parsed ket.

    For a pure state the element at k is ``psi[0 k] * conj(psi[1 ~k])``,
    computed in O(2^N) without ever materializing the density matrix.  A
    ``KetParse`` gives a sparse profile from its T named terms in
    O(T log T): each named x meets its complement ~x in the element at the
    one of them whose top bit is 0, with 0 for a partner that is not named,
    so each stored element is the dense route's product of the same two
    numbers.  A
    profile is returned unchanged, so every function below accepts one.
    """
    if isinstance(state, AntidiagonalProfile):
        return state
    if isinstance(state, KetParse):
        full = (1 << state.n_qubits) - 1
        amp = dict(zip(state.index.tolist(), state.amplitudes.tolist()))
        pos = sorted({min(x, full - x) for x in amp})
        lo = np.array([amp.get(k, 0j) for k in pos], dtype=complex)
        hi = np.array([amp.get(full - k, 0j) for k in pos], dtype=complex)
        return AntidiagonalProfile(state.n_qubits, lo * np.conj(hi), pos)
    if isinstance(state, PureState):
        return AntidiagonalProfile(state.n_qubits, _pure_profile(state.amplitudes))
    if isinstance(state, DensityMatrix):
        half = state.dim // 2
        vals = np.fliplr(state.matrix).diagonal()[:half]
        return AntidiagonalProfile(state.n_qubits, vals)
    raise TypeError(
        f"expected a state, a KetParse or an AntidiagonalProfile, got {type(state).__name__}"
    )


def correlation_value(state, angles):
    """E(alpha_1..alpha_N) from the antidiagonal profile, at one setting or a stack.

    ``state`` may be a PureState, DensityMatrix, or AntidiagonalProfile.
    ``angles`` of shape (N,) gives a float, an (S, N) stack an (S,) array.
    """
    prof = antidiagonal_profile(state)

    def values_at(a):
        phases = np.exp(1j * a.T)
        return _e_values(phases[0], _columns(prof, phases[1:, :, None])[:, 0])

    return _check_angles(angles, prof.n_qubits, values_at)


def correlation_value_trace(state, angles):
    """E(alpha_1..alpha_N) by direct trace against the dense product observable.

    Reference implementation: builds kron_j [cos(a_j) sigma_x + sin(a_j) sigma_y]
    explicitly, one batched Kronecker step per qubit for a stack of settings,
    so it is independent of the antidiagonal bookkeeping above and is used to
    cross-validate it.  Dense, hence limited to small N, and to stacks of S
    settings whose S 4^N operator entries fit one operator of the dense cap.
    """
    n = _require_state(state).n_qubits
    _check_qubits(n, MAX_DENSE_QUBITS, "dense-matrix")

    def values_at(a):
        s = len(a)
        if s << (2 * n) > 1 << (2 * MAX_DENSE_QUBITS):
            raise ValueError(f"{s} dense {n}-qubit operators exceed the entries "
                             f"of one {MAX_DENSE_QUBITS}-qubit operator")
        local = np.cos(a)[..., None, None] * SIGMA_X + np.sin(a)[..., None, None] * SIGMA_Y
        op = np.ones((s, 1, 1), dtype=complex)
        for j in range(n):
            op = np.einsum("sab,scd->sacbd", op, local[:, j]).reshape(s, 2 << j, 2 << j)
        if isinstance(state, PureState):
            psi = state.amplitudes
            return np.real(np.conj(psi) @ (op @ psi)[..., None]).reshape(s)
        return np.real(np.einsum("ij,sji->s", state.matrix, op))

    return _check_angles(angles, n, values_at)


def correlation_tensor(state):
    """All 2^N tensor components T(i1..iN) = E at the corner settings.

    Corner settings put alpha_j = 0 for i_j = x and alpha_j = pi/2 for
    i_j = y, i.e. the exact phases 1 and i.  All corners come out of one
    contraction of the antidiagonal profile, in O(N 2^N), already in
    (i1..iN) big-endian order.
    """
    prof = antidiagonal_profile(state)
    n = prof.n_qubits
    corners = [np.array([1.0, 1.0j])] * n
    return CorrelationTensor(n, _evaluate(prof, corners).reshape(-1))


def correlation_value_from_tensor(tensor, angles):
    """E(alpha) reconstructed from tensor components: sum_T T * prod_j f_{i_j}(alpha_j)
    with f_x = cos and f_y = sin, at one setting or an (S, N) stack."""

    def values_at(a):
        factors = np.stack([np.cos(a), np.sin(a)], axis=-1).swapaxes(0, 1)[..., None]
        return _contract(tensor.components, factors).reshape(len(a))

    return _check_angles(angles, tensor.n_qubits, values_at)


def _closed_forms(n, rows):
    """Each row's ``(E_max, ||E||^2) = (2 sum |rho_ad|, 2 (2 pi)^N sum |rho_ad|^2)``: the sum rule.

    ``rows`` is a C-ordered (R, m) stack of the stored values of N-qubit
    profiles, one profile a row; positions are never read.  Each row's sums
    run over its nonzero moduli in storage order, so a sparse profile and the
    dense profile of the same state, which store the same nonzero elements in
    index order, give the same bits.  The moduli are taken once into one
    C-ordered array, which is squared in place, and each row is summed along
    the last axis, contiguous in memory, by the same pairwise rule numpy uses
    on a 1-D array; in any other layout numpy may group the sums differently.
    Columns that are zero in every row are dropped once, which is every row's
    own mask when its zeros are exactly those columns; a row with a further
    exact zero (V = 0, or a ``V * x`` that underflows) is summed on its own as
    a one-row stack, because its mask changes the pairwise grouping.  Returns
    the lists of each row's E_max and ||E||^2, as Python floats, and of the
    rows summed on their own.  Nothing is checked here.
    """
    mod = np.abs(rows)
    single = []
    if np.count_nonzero(mod) < mod.size:  # drop the columns zero in every row, then find the rest
        mod = mod.compress(mod.any(axis=0), axis=1)  # a new C-ordered array
        if len(mod) > 1:  # a lone row has no zero left
            single = np.flatnonzero(~mod.all(axis=1)).tolist()
    em = [2.0 * x for x in mod.sum(axis=-1).tolist()]
    scale = 2.0 * (2.0 * np.pi) ** n
    ns = [scale * x for x in np.square(mod, out=mod).sum(axis=-1).tolist()]
    for i in single:
        [em[i]], [ns[i]], _ = _closed_forms(n, rows[i:i + 1])
    return em, ns, single


def e_max(state):
    """Closed-form maximum 2 sum |rho_ad| of the planar correlation function.

    Always an upper bound; attained for N <= 2 and for product-structured
    profiles (see the module docstring for the generic N >= 3 caveat).
    """
    prof = antidiagonal_profile(state)
    return _closed_forms(prof.n_qubits, prof.values[None])[0][0]


def optimal_angles_two_qubit(state):
    """Angles (alpha_1, alpha_2) at which a two-qubit E reaches e_max exactly.

    With Phi_0 = arg rho[00;11] and Phi_1 = arg rho[01;10] (the argument of a
    vanishing element is taken as 0), the maximizer is
    alpha_1 = -(Phi_0 + Phi_1)/2, alpha_2 = -(Phi_0 - Phi_1)/2: it aligns both
    phases phi_k = -Phi_k so both cosines hit +1 simultaneously.
    """
    prof = antidiagonal_profile(state)
    if prof.n_qubits != 2:
        raise ValueError(f"defined for exactly 2 qubits, got {prof.n_qubits}")
    v0, v1 = prof.full_values()
    if v0 == 0 and v1 == 0:
        raise ValueError("all antidiagonal elements vanish: no maximizer is distinguished")
    phi0 = float(np.angle(v0)) if v0 != 0 else 0.0
    phi1 = float(np.angle(v1)) if v1 != 0 else 0.0
    return np.array([-(phi0 + phi1) / 2.0, -(phi0 - phi1) / 2.0])


def norm_squared_antidiagonal(state):
    """||E||^2 = 2 (2 pi)^N sum |rho_ad|^2 over the [0, 2pi)^N angle hypercube."""
    prof = antidiagonal_profile(state)
    return _closed_forms(prof.n_qubits, prof.values[None])[1][0]


def norm_squared_tensor(tensor):
    """||E||^2 = pi^N sum T^2 from tensor components (same quantity, dual route)."""
    n = tensor.n_qubits
    return float(np.pi**n * np.sum(tensor.components**2))
