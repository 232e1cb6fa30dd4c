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

Note on E_max: it is always an upper bound for E, and it is attained for
N <= 2, for GHZ-like profiles, and for products of blocks of at most two
qubits.  For N >= 3 a generic entangled state leaves a strict gap: reaching
the bound needs all 2^(N-1) phases phi_k aligned, which is an overdetermined
system in only N angles.  The oracle module measures that gap.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .states import MAX_DENSE_QUBITS, DensityMatrix, PureState, _check_qubits, _frozen

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


@dataclass(frozen=True, eq=False, repr=False)
class AntidiagonalProfile:
    """The 2^(N-1) complex elements rho[0 k ; 1 ~k], indexed by k2..kN packed big-endian.

    This vector is the sufficient statistic for every planar-correlation
    quantity in this package.  For any valid density matrix each modulus is
    at most 1/2.
    """

    n_qubits: int
    values: np.ndarray

    def __post_init__(self):
        n = int(self.n_qubits)
        if n < 1:
            raise ValueError(f"invalid qubit count {n!r}")
        vals = np.asarray(self.values, dtype=complex).reshape(-1)
        if vals.size != 1 << (n - 1):
            raise ValueError(f"profile has length {vals.size}, expected 2^{n - 1}")
        if not np.all(np.isfinite(vals)):
            raise ValueError("profile contains NaN or Inf")
        big = float(np.max(np.abs(vals)))
        if big > 0.5 + ANTIDIAG_BOUND_TOL:
            raise ValueError(f"antidiagonal modulus {big} exceeds the 1/2 bound")
        object.__setattr__(self, "n_qubits", n)
        object.__setattr__(self, "values", _frozen(vals))

    def to_json(self):
        """[re, im] pairs in index order (k2..kN packed big-endian)."""
        return [[v.real, v.imag] for v in self.values]

    def __repr__(self):
        return f"AntidiagonalProfile(n_qubits={self.n_qubits})"


@dataclass(frozen=True, eq=False, repr=False)
class CorrelationTensor:
    """The 2^N correlation-tensor components, index (i1..iN) in {x,y}^N packed with x=0, y=1."""

    n_qubits: int
    components: np.ndarray

    def __post_init__(self):
        n = int(self.n_qubits)
        if n < 1:
            raise ValueError(f"invalid qubit count {n!r}")
        comp = np.asarray(self.components, dtype=float).reshape(-1)
        if comp.size != 1 << n:
            raise ValueError(f"tensor has length {comp.size}, expected 2^{n}")
        if not np.all(np.isfinite(comp)):
            raise ValueError("tensor contains NaN or Inf")
        big = float(np.max(np.abs(comp))) if comp.size else 0.0
        if big > 1.0 + TENSOR_BOUND_TOL:
            raise ValueError(f"tensor component {big} exceeds the unit bound")
        object.__setattr__(self, "n_qubits", n)
        object.__setattr__(self, "components", _frozen(comp))

    def to_json(self):
        """Component list in index order ((i1..iN) packed big-endian, x=0, y=1)."""
        return [float(c) for c in self.components]

    def __repr__(self):
        return f"CorrelationTensor(n_qubits={self.n_qubits})"


def _evaluate(prof, phases):
    """2 Re sum_k rho_ad(k) exp(i phi_k) on the grid spanned by per-qubit phases.

    ``phases[j]`` lists exp(i alpha) for the settings of qubit j+1; the result
    has shape (m_1, ..., m_N).  The profile is contracted one qubit at a time,
    k2 first, with [ph_j; conj(ph_j)]: bit 0 carries +alpha_j and bit 1
    carries -alpha_j.  Each step turns the leading bit axis into a trailing
    setting axis, so the grid axes come out in qubit order.  Qubit 1 always
    enters with +alpha_1.
    """
    acc = prof.values
    for ph in phases[1:]:
        acc = acc.reshape(2, -1).T @ np.stack([ph, np.conj(ph)])
    acc = acc.reshape([len(ph) for ph in phases[1:]])
    return 2.0 * np.multiply.outer(phases[0], acc).real


def _check_angles(angles, n):
    a = np.asarray(angles, dtype=float).reshape(-1)
    if a.size != n:
        raise ValueError(f"expected {n} angles, got {a.size}")
    if not np.all(np.isfinite(a)):
        raise ValueError("angles contain NaN or Inf")
    return a


def antidiagonal_profile(state):
    """Extract the antidiagonal profile of a pure or mixed state.

    For a pure state the element at k is ``psi[0 k] * conj(psi[1 ~k])``,
    computed in O(2^N) without ever materializing the density matrix.  A
    profile is returned unchanged, so every function below accepts one.
    """
    if isinstance(state, AntidiagonalProfile):
        return state
    if isinstance(state, PureState):
        psi = state.amplitudes
        half = state.dim // 2
        vals = psi[:half] * np.conj(psi[half:][::-1])
        return AntidiagonalProfile(state.n_qubits, vals)
    if isinstance(state, DensityMatrix):
        half = state.dim // 2
        vals = np.fliplr(state.matrix).diagonal()[:half]
        return AntidiagonalProfile(state.n_qubits, vals)
    raise TypeError(f"expected a state or an AntidiagonalProfile, got {type(state).__name__}")


def correlation_value(state, angles):
    """E(alpha_1..alpha_N) from the antidiagonal profile.

    ``state`` may be a PureState, DensityMatrix, or AntidiagonalProfile.
    """
    prof = antidiagonal_profile(state)
    a = _check_angles(angles, prof.n_qubits)
    return float(_evaluate(prof, np.exp(1j * a)[:, None]).item())


def correlation_value_trace(state, angles):
    """E(alpha_1..alpha_N) by direct trace against the dense product observable.

    Reference implementation: builds kron_j [cos(a_j) sigma_x + sin(a_j) sigma_y]
    explicitly, so it is independent of the antidiagonal bookkeeping above and
    is used to cross-validate it.  Dense, hence limited to small N.
    """
    if not isinstance(state, (PureState, DensityMatrix)):
        raise TypeError(f"expected PureState or DensityMatrix, got {type(state).__name__}")
    n = state.n_qubits
    _check_qubits(n, MAX_DENSE_QUBITS, "dense-matrix")
    a = _check_angles(angles, n)
    op = np.array([[1.0]], dtype=complex)
    for alpha in a:
        op = np.kron(op, np.cos(alpha) * SIGMA_X + np.sin(alpha) * SIGMA_Y)
    if isinstance(state, PureState):
        return float(np.real(np.vdot(state.amplitudes, op @ state.amplitudes)))
    return float(np.real(np.einsum("ij,ji->", state.matrix, op)))


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
    with f_x = cos and f_y = sin."""
    n = tensor.n_qubits
    a = _check_angles(angles, n)
    arr = tensor.components.reshape((2,) * n)
    for alpha in a:
        arr = np.tensordot(arr, np.array([np.cos(alpha), np.sin(alpha)]), axes=([0], [0]))
    return float(arr)


def e_max(state):
    """Closed-form maximum 2 sum |rho_ad| of the planar correlation function.

    Always an upper bound; attained for N <= 2 and for product-structured
    profiles (see the module docstring for the generic N >= 3 caveat).
    """
    prof = antidiagonal_profile(state)
    return float(2.0 * np.sum(np.abs(prof.values)))


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
    v0, v1 = prof.values
    if v0 == 0 and v1 == 0:
        raise ValueError("all antidiagonal elements vanish: no maximizer is distinguished")
    phi0 = float(np.angle(v0)) if v0 != 0 else 0.0
    phi1 = float(np.angle(v1)) if v1 != 0 else 0.0
    return np.array([-(phi0 + phi1) / 2.0, -(phi0 - phi1) / 2.0])


def norm_squared_antidiagonal(state):
    """||E||^2 = 2 (2 pi)^N sum |rho_ad|^2 over the [0, 2pi)^N angle hypercube."""
    prof = antidiagonal_profile(state)
    n = prof.n_qubits
    return float(2.0 * (2.0 * np.pi) ** n * np.sum(np.abs(prof.values) ** 2))


def norm_squared_tensor(tensor):
    """||E||^2 = pi^N sum T^2 from tensor components (same quantity, dual route)."""
    n = tensor.n_qubits
    return float(np.pi**n * np.sum(tensor.components**2))
