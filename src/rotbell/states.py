"""N-qubit pure states and density matrices in the computational (sigma_z) basis.

Conventions used throughout the package:

* qubit 1 is the most significant bit of every basis index, so the basis
  state |k1 k2 ... kN> sits at index k1*2^(N-1) + k2*2^(N-2) + ... + kN;
* all state objects are immutable after construction and validated on
  construction, so they can be shared freely across threads;
* samplers are deterministic: ``random_pure_state`` and
  ``random_density_matrix`` draw from a numpy ``Generator`` they are given,
  and ``sample_product_terms`` and ``sample_k_separable`` seed their own
  from ``rng_seed``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from functools import cached_property, reduce

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
    """The one construct-time array rule of the state-like dataclasses.

    Replaces ``obj.<field>`` by an owned ``dtype`` copy of it (flattened when
    ``shape`` is one-dimensional), refuses any other shape and any NaN or Inf,
    freezes the copy and stores ``n_qubits`` as a Python int.  Returns the
    frozen array for the type's own checks.
    """
    arr = np.array(getattr(obj, field), dtype=dtype)
    if len(shape) == 1:
        arr = arr.reshape(-1)
        if arr.size != shape[0]:
            raise ValueError(f"{what} has length {arr.size}, expected {shape[0]}")
    elif arr.shape != shape:
        raise ValueError(f"{what} has shape {arr.shape}, expected {shape}")
    if arr.dtype.kind in "fc" and not np.isfinite(arr).all():  # integers are always finite
        raise ValueError(f"{what} contains NaN or Inf")
    arr.setflags(write=False)
    object.__setattr__(obj, field, arr)
    object.__setattr__(obj, "n_qubits", int(obj.n_qubits))
    return arr


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


def _check_unit_norm(amps):
    """The one normalization rule for amplitudes, dense or named."""
    nrm2 = float(np.vdot(amps, amps).real)
    if abs(nrm2 - 1.0) > NORM_TOL:
        raise ValueError(f"state is not normalized: sum |amplitude|^2 = {nrm2!r}")


@dataclass(frozen=True, eq=False)
class PureState:
    """State vector of ``n_qubits`` qubits, amplitudes indexed by bitstring."""

    n_qubits: int
    amplitudes: np.ndarray = field(repr=False)

    def __post_init__(self):
        _check_qubits(self.n_qubits, MAX_PURE_QUBITS, "pure-state")
        amps = _freeze_array(self, "amplitudes", complex, (_dim(self.n_qubits),), "amplitude vector")
        _check_unit_norm(amps)

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


def _place(arrays, blocks, n):
    """The one qubit placement: the joint array of block arrays on the qubits of ``blocks``.

    ``arrays[i]`` (all amplitude vectors, or all matrices) lives on the qubits
    of ``blocks[i]``, block labels in increasing order mapping to its own
    qubits 1, 2, ...; ``n`` is the joint qubit count.  Each array is viewed
    with one axis of size 2 per qubit (a matrix has its row axes, then its
    column axes); the blocks are chained by one outer product in block order,
    and one transpose sends every qubit's axes to its global position.  So
    every entry is the product of one entry per block, multiplied in block
    order.  Nothing is checked here.
    """
    ndim = arrays[0].ndim
    rows, cols, off = [0] * n, [0] * n, 0  # axes of global qubit q at index q-1
    for block in blocks:
        for j, q in enumerate(block):
            rows[q - 1], cols[q - 1] = off + j, off + len(block) + j
        off += ndim * len(block)
    factors = [a.reshape((2,) * ndim * len(b)) for a, b in zip(arrays, blocks)]
    joint = reduce(np.multiply.outer, factors)
    return joint.transpose(rows if ndim == 1 else rows + cols).reshape((_dim(n),) * ndim)


def tensor_product(states, assignment):
    """Joint state of block states placed on the qubits named by ``assignment``.

    ``states[i]`` lives on the qubits of ``assignment.blocks[i]`` (block labels
    in increasing order map to the block state's own qubits 1, 2, ...).  Blocks
    need not be contiguous.  Every entry of the joint amplitudes, or of the
    joint matrix, is the product of one entry per block, multiplied in block
    order.  Returns a PureState when every input is pure, otherwise a
    DensityMatrix; the joint qubit count is checked against that type's cap
    before anything is allocated.
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


def _haar_amplitudes(n, rng):
    """The one Haar draw: 2^n real normals, then 2^n imaginary ones, divided by their norm."""
    z = rng.standard_normal(_dim(n)) + 1j * rng.standard_normal(_dim(n))
    return z / np.linalg.norm(z)


def random_pure_state(n, rng):
    """Haar-random pure state: i.i.d. standard complex Gaussian amplitudes, normalized."""
    _check_qubits(n, MAX_PURE_QUBITS, "pure-state")
    return PureState(n, _haar_amplitudes(n, rng))


def random_density_matrix(n, rng, rank=None):
    """Random full-rank (or rank-limited) density matrix G G^dag / tr."""
    _check_qubits(n, MAX_DENSE_QUBITS, "dense-matrix")
    d = _dim(n)
    r = d if rank is None else rank
    if not (_is_count(r) and r <= d):
        raise ValueError(f"need 1 <= rank <= {d}, got rank={rank!r}")
    g = rng.standard_normal((d, r)) + 1j * rng.standard_normal((d, r))
    m = g @ g.conj().T
    return DensityMatrix(n, m / np.trace(m))


def sample_product_terms(n, k, n_terms, rng_seed):
    """Weighted pure product terms ``[(w, PureState), ...]`` of a random k-separable mixture.

    Each of the ``n_terms`` terms uses an independently sampled partition of
    {1..n} with at least k blocks (the block count is uniform on {k..n}, the
    partition uniform among those with that many blocks) and Haar-random pure
    block states.  Weights are uniform on the simplex.  Deterministic for a
    fixed ``rng_seed``, which seeds one generator drawn in this order: the
    ``n_terms`` weights (``dirichlet``), then per term its block count
    (``integers``), its partition (``sample_partition``) and, block by block
    in ``part.blocks`` order, the block's real normals, then its imaginary
    ones, exactly as :func:`random_pure_state` draws them.  Only the joint
    term is validated, as one ``PureState``; the blocks are placed by the
    same code as :func:`tensor_product`, so each term is bit for bit the
    tensor product of ``random_pure_state`` blocks.  No 2^n x 2^n matrix is
    built.
    """
    n, k = _check_k(n, k)
    if not _is_count(n_terms):
        raise ValueError(f"n_terms must be >= 1, got {n_terms}")
    _check_qubits(n, MAX_PURE_QUBITS, "pure-state")
    from .separability import sample_partition  # deferred: separability imports this module

    rng = np.random.default_rng(rng_seed)
    terms = []
    for w in rng.dirichlet(np.ones(n_terms)):
        part = sample_partition(n, int(rng.integers(k, n + 1)), rng)
        blocks = [_haar_amplitudes(len(b), rng) for b in part.blocks]
        terms.append((float(w), PureState(n, _place(blocks, part.blocks, n))))
    return terms


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
    Validated like a PureState (finite, unit norm within ``NORM_TOL``), but
    over the named terms only, under the term cap; ``input_norm`` must be
    finite and positive.  ``state`` places the terms into a dense PureState
    on first use, under the pure-state cap.
    """

    n_qubits: int
    index: np.ndarray
    amplitudes: np.ndarray
    input_norm: float

    def __post_init__(self):
        _check_qubits(self.n_qubits, MAX_TERM_QUBITS, "term")
        idx = _freeze_index(self, _dim(self.n_qubits), "ket index")
        _check_unit_norm(_freeze_array(self, "amplitudes", complex, (idx.size,), "amplitude vector"))
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
    """The one [re, im] encoding of a complex array: nested lists with a trailing pair axis."""
    return np.stack([arr.real, arr.imag], -1).tolist()


def state_to_json(state):
    """Wire-format dict: pure states as [re, im] pairs, densities as nested rows."""
    _require_state(state)
    for kind, (payload, _, cls) in _JSON_KINDS.items():
        if isinstance(state, cls):
            return {"n": state.n_qubits, "kind": kind, payload: _to_pairs(getattr(state, payload))}


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
