"""N-qubit pure states and density matrices in the computational (sigma_z) basis.

Conventions used throughout the package:

* qubit 1 is the most significant bit of every basis index, so the basis
  state |k1 k2 ... kN> sits at index k1*2^(N-1) + k2*2^(N-2) + ... + kN;
* all state objects are immutable after construction and validated on
  construction, so they can be shared freely across threads;
* samplers take an explicit integer seed and are deterministic.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import reduce

import numpy as np

__all__ = [
    "PureState",
    "DensityMatrix",
    "PartitionSpec",
    "State",
    "make_ghz",
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

NORM_TOL = 1e-10
HERMITIAN_TOL = 1e-10
TRACE_TOL = 1e-10
PSD_TOL = 1e-8


def _dim(n):
    return 1 << n


def _check_qubits(n, cap, kind):
    if isinstance(n, bool) or not isinstance(n, (int, np.integer)) or n < 1:
        raise ValueError(f"invalid qubit count {n!r}: need a positive integer")
    if n > cap:
        raise ValueError(f"n_qubits={n} exceeds the {kind} cap of {cap}")


def _frozen(arr):
    arr = np.array(arr)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False, repr=False)
class PureState:
    """State vector of ``n_qubits`` qubits, amplitudes indexed by bitstring."""

    n_qubits: int
    amplitudes: np.ndarray

    def __post_init__(self):
        n = self.n_qubits
        _check_qubits(n, MAX_PURE_QUBITS, "pure-state")
        amps = np.asarray(self.amplitudes, dtype=complex).reshape(-1)
        if amps.size != _dim(n):
            raise ValueError(f"amplitude vector has length {amps.size}, expected 2^{n} = {_dim(n)}")
        if not np.all(np.isfinite(amps)):
            raise ValueError("amplitudes contain NaN or Inf")
        nrm2 = float(np.sum(np.abs(amps) ** 2))
        if abs(nrm2 - 1.0) > NORM_TOL:
            raise ValueError(f"state is not normalized: sum |amplitude|^2 = {nrm2!r}")
        object.__setattr__(self, "n_qubits", int(n))
        object.__setattr__(self, "amplitudes", _frozen(amps))

    @classmethod
    def from_amplitudes(cls, amplitudes):
        """Build a state from a length-2^n vector, inferring n."""
        amps = np.asarray(amplitudes, dtype=complex).reshape(-1)
        n = int(amps.size).bit_length() - 1
        if _dim(n) != amps.size or n < 1:
            raise ValueError(f"amplitude vector length {amps.size} is not 2^n for n >= 1")
        return cls(n, amps)

    @property
    def dim(self):
        return _dim(self.n_qubits)

    def to_density(self):
        """Dense projector |psi><psi| (subject to the dense-matrix qubit cap)."""
        _check_qubits(self.n_qubits, MAX_DENSE_QUBITS, "dense-matrix")
        return DensityMatrix(self.n_qubits, np.outer(self.amplitudes, self.amplitudes.conj()))

    def __repr__(self):
        return f"PureState(n_qubits={self.n_qubits})"


@dataclass(frozen=True, eq=False, repr=False)
class DensityMatrix:
    """Dense 2^n x 2^n density operator, validated Hermitian, unit-trace, PSD."""

    n_qubits: int
    matrix: np.ndarray

    def __post_init__(self):
        n = self.n_qubits
        _check_qubits(n, MAX_DENSE_QUBITS, "dense-matrix")
        d = _dim(n)
        mat = np.asarray(self.matrix, dtype=complex)
        if mat.shape != (d, d):
            raise ValueError(f"matrix has shape {mat.shape}, expected ({d}, {d})")
        if not np.all(np.isfinite(mat)):
            raise ValueError("matrix contains NaN or Inf")
        if np.max(np.abs(mat - mat.conj().T)) > HERMITIAN_TOL:
            raise ValueError("matrix is not Hermitian within tolerance")
        tr = complex(np.trace(mat))
        if abs(tr - 1.0) > TRACE_TOL:
            raise ValueError(f"trace is {tr!r}, expected 1")
        if not _is_psd(mat):
            raise ValueError(f"matrix is not positive semidefinite (eigenvalue below -{PSD_TOL})")
        object.__setattr__(self, "n_qubits", int(n))
        object.__setattr__(self, "matrix", _frozen(mat))

    @classmethod
    def from_pure(cls, state):
        return state.to_density()

    @classmethod
    def maximally_mixed(cls, n):
        _check_qubits(n, MAX_DENSE_QUBITS, "dense-matrix")
        return cls(n, np.eye(_dim(n), dtype=complex) / _dim(n))

    @property
    def dim(self):
        return _dim(self.n_qubits)

    def __repr__(self):
        return f"DensityMatrix(n_qubits={self.n_qubits})"


State = PureState | DensityMatrix


def _is_psd(mat):
    # eigvalsh is affordable for the sizes we validate most; beyond that a
    # Cholesky factorization of the shifted matrix tests lambda_min >= -PSD_TOL.
    if mat.shape[0] <= 1024:
        return float(np.linalg.eigvalsh(mat)[0]) >= -PSD_TOL
    shifted = mat + (PSD_TOL + 1e-14) * np.eye(mat.shape[0])
    try:
        np.linalg.cholesky(shifted)
        return True
    except np.linalg.LinAlgError:
        return False


def as_density(state):
    """Coerce a PureState to its projector; pass a DensityMatrix through."""
    if isinstance(state, DensityMatrix):
        return state
    if isinstance(state, PureState):
        return state.to_density()
    raise TypeError(f"expected PureState or DensityMatrix, got {type(state).__name__}")


@dataclass(frozen=True, eq=True)
class PartitionSpec:
    """Partition of the qubit labels {1..N} into disjoint non-empty blocks."""

    blocks: tuple

    def __init__(self, blocks):
        canon = tuple(tuple(sorted(int(q) for q in b)) for b in blocks)
        if not canon:
            raise ValueError("a partition needs at least one block")
        seen = set()
        for b in canon:
            if not b:
                raise ValueError("empty block in partition")
            for q in b:
                if q < 1:
                    raise ValueError(f"qubit label {q} out of range: labels start at 1")
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

    @classmethod
    def from_lists(cls, lists):
        return cls(lists)

    def __repr__(self):
        inner = "".join("{" + ",".join(map(str, b)) + "}" for b in self.blocks)
        return f"PartitionSpec({inner})"


# ---------------------------------------------------------------------------
# constructors


def make_ghz(n):
    """(|0...0> + |1...1>)/sqrt(2) on n qubits."""
    _check_qubits(n, MAX_PURE_QUBITS, "pure-state")
    amps = np.zeros(_dim(n), dtype=complex)
    amps[0] = amps[-1] = 1.0 / np.sqrt(2.0)
    return PureState(int(n), amps)


def _permute_qubits_pure(amps, n, perm):
    # perm[p] = source axis whose qubit becomes global qubit p+1
    return amps.reshape((2,) * n).transpose(perm).reshape(-1)


def _permute_qubits_density(mat, n, perm):
    axes = list(perm) + [p + n for p in perm]
    return mat.reshape((2,) * (2 * n)).transpose(axes).reshape(_dim(n), _dim(n))


def tensor_product(states, assignment):
    """Joint state of block states placed on the qubits named by ``assignment``.

    ``states[i]`` lives on the qubits of ``assignment.blocks[i]`` (block labels
    in increasing order map to the block state's own qubits 1, 2, ...).  Blocks
    need not be contiguous; amplitudes are permuted so that the result is
    indexed in global qubit order.  Returns a PureState when every input is
    pure, otherwise a DensityMatrix.
    """
    if not isinstance(assignment, PartitionSpec):
        assignment = PartitionSpec(assignment)
    states = list(states)
    if len(states) != assignment.k:
        raise ValueError(f"{len(states)} states for {assignment.k} blocks")
    for st, block in zip(states, assignment.blocks):
        if not isinstance(st, (PureState, DensityMatrix)):
            raise TypeError(f"expected PureState or DensityMatrix, got {type(st).__name__}")
        if st.n_qubits != len(block):
            raise ValueError(
                f"state on block {block} has {st.n_qubits} qubits, block has {len(block)}"
            )
    n = assignment.n_qubits
    order = [q for block in assignment.blocks for q in block]
    perm = [order.index(p + 1) for p in range(n)]
    if all(isinstance(st, PureState) for st in states):
        joint = reduce(np.kron, [st.amplitudes for st in states])
        return PureState(n, _permute_qubits_pure(joint, n, perm))
    mats = [as_density(st).matrix for st in states]
    joint = reduce(np.kron, mats)
    return DensityMatrix(n, _permute_qubits_density(joint, n, perm))


def mix(components):
    """Convex combination sum_i w_i rho_i of same-size density matrices.

    Pure components are accepted and converted to projectors.  Weights must be
    nonnegative and sum to 1 within 1e-10.
    """
    components = [(float(w), as_density(st)) for w, st in components]
    if not components:
        raise ValueError("mixture needs at least one component")
    n = components[0][1].n_qubits
    total = 0.0
    for w, rho in components:
        if w < 0:
            raise ValueError(f"negative mixture weight {w}")
        if rho.n_qubits != n:
            raise ValueError("mixture components act on different qubit counts")
        total += w
    if abs(total - 1.0) > 1e-10:
        raise ValueError(f"mixture weights sum to {total!r}, expected 1")
    acc = np.zeros((_dim(n), _dim(n)), dtype=complex)
    for w, rho in components:
        acc += w * rho.matrix
    return DensityMatrix(n, acc)


def add_white_noise(rho0, visibility):
    """V * rho0 + (1 - V) * identity / 2^N for visibility V in [0, 1]."""
    v = float(visibility)
    if not 0.0 <= v <= 1.0:
        raise ValueError(f"visibility {v} outside [0, 1]")
    rho0 = as_density(rho0)
    d = rho0.dim
    noisy = v * rho0.matrix + ((1.0 - v) / d) * np.eye(d)
    return DensityMatrix(rho0.n_qubits, noisy)


# ---------------------------------------------------------------------------
# sampling


def random_pure_state(n, rng):
    """Haar-random pure state: i.i.d. standard complex Gaussian amplitudes, normalized."""
    z = rng.standard_normal(_dim(n)) + 1j * rng.standard_normal(_dim(n))
    return PureState(n, z / np.linalg.norm(z))


def random_density_matrix(n, rng, rank=None):
    """Random full-rank (or rank-limited) density matrix G G^dag / tr."""
    d = _dim(n)
    r = d if rank is None else int(rank)
    g = rng.standard_normal((d, r)) + 1j * rng.standard_normal((d, r))
    m = g @ g.conj().T
    return DensityMatrix(n, m / np.trace(m))


def sample_product_terms(n, k, n_terms, rng_seed):
    """Weighted pure product terms ``[(w, PureState), ...]`` of a random k-separable mixture.

    Each of the ``n_terms`` terms uses an independently sampled partition of
    {1..n} with at least k blocks (the block count is uniform on {k..n}, the
    partition uniform among those with that many blocks) and Haar-random pure
    block states.  Weights are uniform on the simplex.  Deterministic for a
    fixed ``rng_seed``; no 2^n x 2^n matrix is built.
    """
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= n, got k={k}, n={n}")
    if n_terms < 1:
        raise ValueError(f"n_terms must be >= 1, got {n_terms}")
    _check_qubits(n, MAX_PURE_QUBITS, "pure-state")
    from .separability import sample_partition  # deferred: separability imports this module

    rng = np.random.default_rng(rng_seed)
    terms = []
    for w in rng.dirichlet(np.ones(n_terms)):
        part = sample_partition(n, int(rng.integers(k, n + 1)), rng)
        factors = [random_pure_state(len(b), rng) for b in part.blocks]
        terms.append((float(w), tensor_product(factors, part)))
    return terms


def sample_k_separable(n, k, n_terms, rng_seed):
    """Random k-separable density matrix: the mixture of :func:`sample_product_terms`."""
    _check_qubits(n, MAX_DENSE_QUBITS, "dense-matrix")
    acc = np.zeros((_dim(n), _dim(n)), dtype=complex)
    for w, term in sample_product_terms(n, k, n_terms, rng_seed):
        acc += w * np.outer(term.amplitudes, term.amplitudes.conj())
    return DensityMatrix(n, acc)


# ---------------------------------------------------------------------------
# ket expressions

_NUMBER = r"[+-]?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?"
_TOKEN = re.compile(
    r"\s*(?:(?P<plus>\+)|(?P<minus>-)|(?P<star>\*)"
    r"|(?P<cnum>\(\s*(?P<re>%s)\s*(?P<imsign>[+-])\s*(?P<im>%s)\s*i\s*\))"
    r"|(?P<num>%s)|(?P<ket>\|[01]+>))" % (_NUMBER, _NUMBER, _NUMBER)
)


@dataclass(frozen=True)
class KetParse:
    """Parse result: the normalized state plus how far the raw norm was from 1."""

    state: PureState
    input_norm: float
    normalized: bool


def parse_ket_info(expression):
    """Parse a ket expression, reporting whether normalization was applied.

    Grammar (whitespace insignificant)::

        expr := term (("+"|"-") term)*
        term := coef? "|" bits ">"
        coef := number | "(" number ("+"|"-") number "i" ")" , optional "*"
        bits := ("0"|"1")+ , all terms equal length

    The amplitude vector is always renormalized; ``normalized`` is True when
    the raw norm deviated from 1 by more than 1e-10.
    """
    text = expression
    pos = 0
    terms = []  # (sign, coefficient, bits)
    sign = 1.0
    expect_term = True
    first = True

    def err(msg):
        raise ValueError(f"ket syntax error at position {pos}: {msg}")

    while True:
        m = _TOKEN.match(text, pos)
        if m is None:
            if pos >= len(text) or not text[pos:].strip():
                break
            err(f"unexpected character {text[pos:].lstrip()[0]!r}")
        tokpos = pos
        pos = m.end()
        if m.group("plus") or m.group("minus"):
            if expect_term and not first:
                pos = tokpos
                err("expected a term, found a sign")
            sign = -1.0 if m.group("minus") else 1.0
            expect_term = True
            first = False
            continue
        if not expect_term:
            pos = tokpos
            err("expected '+' or '-' between terms")
        coef = None
        if m.group("cnum"):
            im = float(m.group("im"))
            if m.group("imsign") == "-":
                im = -im
            coef = complex(float(m.group("re")), im)
        elif m.group("num"):
            coef = complex(float(m.group("num")))
        if coef is not None:
            m2 = _TOKEN.match(text, pos)
            if m2 is not None and m2.group("star"):
                pos = m2.end()
                m2 = _TOKEN.match(text, pos)
            if m2 is None or not m2.group("ket"):
                err("expected '|bits>' after coefficient")
            bits = m2.group("ket")[1:-1]
            pos = m2.end()
        elif m.group("ket"):
            bits = m.group("ket")[1:-1]
            coef = complex(1.0)
        elif m.group("star"):
            pos = tokpos
            err("unexpected '*'")
        else:  # pragma: no cover - the token regex is exhaustive
            err("unrecognized token")
        terms.append((sign, coef, bits))
        sign = 1.0
        expect_term = False
        first = False

    if not terms:
        raise ValueError("ket syntax error: empty expression")
    if expect_term:
        raise ValueError(f"ket syntax error at position {len(text)}: dangling sign")
    n = len(terms[0][2])
    _check_qubits(n, MAX_PURE_QUBITS, "pure-state")
    amps = np.zeros(_dim(n), dtype=complex)
    idx = []
    with np.errstate(over="ignore", invalid="ignore"):  # overflowed sums are refused below
        for s, coef, bits in terms:
            if len(bits) != n:
                raise ValueError(
                    f"inconsistent bitstring lengths: |{bits}> has {len(bits)} bits, expected {n}"
                )
            idx.append(int(bits, 2))
            amps[idx[-1]] += s * coef
    # Only the named basis states are nonzero.  Scale them by a power of two
    # before taking the norm so that neither huge nor tiny coefficients
    # overflow or underflow.  The scaling is exact, so the amplitudes come out
    # bit-identical to plain amps / norm wherever that works.
    parts = amps[idx].view(float)
    big = float(np.max(np.abs(parts)))
    if not np.isfinite(big):
        raise ValueError("ket amplitudes must be finite")
    if big == 0.0:
        raise ValueError("ket expression sums to the zero vector")
    exp = int(np.frexp(big)[1])
    amps[idx] = np.ldexp(parts, -exp).view(complex)
    nrm = float(np.linalg.norm(amps))
    with np.errstate(over="ignore"):
        input_norm = float(np.ldexp(nrm, exp))
    amps /= nrm
    state = PureState(n, amps)
    return KetParse(state=state, input_norm=input_norm, normalized=abs(input_norm - 1.0) > NORM_TOL)


def parse_ket(expression):
    """Parse a ket expression into a normalized PureState."""
    return parse_ket_info(expression).state


def render_ket(state, cutoff=0.0):
    """Ket expression for ``state``, one term per amplitude with |a| > cutoff.

    The output round-trips through :func:`parse_ket` to the same state (up to
    renormalization noise below 1e-10 per amplitude).
    """
    parts = []
    n = state.n_qubits
    for idx, a in enumerate(state.amplitudes):
        if abs(a) <= cutoff:
            continue
        bits = format(idx, f"0{n}b")
        parts.append(f"({float(a.real)!r}+{float(a.imag)!r}i)*|{bits}>".replace("+-", "-"))
    if not parts:
        raise ValueError("state has no amplitudes above the cutoff")
    return " + ".join(parts)


# ---------------------------------------------------------------------------
# JSON wire format


def state_to_json(state):
    """Wire-format dict: pure states as [re, im] pairs, densities as nested rows."""
    if isinstance(state, PureState):
        return {
            "n": state.n_qubits,
            "kind": "pure",
            "amplitudes": [[a.real, a.imag] for a in state.amplitudes],
        }
    if isinstance(state, DensityMatrix):
        return {
            "n": state.n_qubits,
            "kind": "density",
            "matrix": [[[e.real, e.imag] for e in row] for row in state.matrix],
        }
    raise TypeError(f"expected PureState or DensityMatrix, got {type(state).__name__}")


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
    pairs = np.asarray(obj[payload], dtype=float)
    if pairs.ndim != ndim or pairs.shape[-1] != 2:
        raise ValueError(f"{payload} must be nested arrays of [re, im] pairs")
    return cls(n, pairs[..., 0] + 1j * pairs[..., 1])
