"""Set partitions of qubit labels and the antidiagonal bounds they imply.

A state that factorizes over a partition with k blocks has every antidiagonal
modulus bounded by (1/2)^k, and convex mixing preserves that bound.  These
bounds are what turn the violation factor into a k-separability witness.
Partitions are drawn by ``states._partition_blocks``, the partition step of
the term stream; ``zoo``'s mixture profiles are summed here, by ``_mixture_profiles``.
"""

from __future__ import annotations

from itertools import islice

import numpy as np

from .correlation import ANTIDIAG_BOUND_TOL, antidiagonal_profile
from .correlation import _check_profile, _pure_profile
from .states import PartitionSpec, _check_amplitudes, _check_k, _check_sampler, _dim, _is_count
from .states import _partition_blocks, _product_terms, _stirling_rows

__all__ = [
    "stirling_second",
    "enumerate_partitions",
    "sample_partition",
    "max_antidiagonal_bound",
    "verify_antidiagonal_bound",
]

# Bell(9) is already 21147 partitions and the count grows super-exponentially;
# exhaustive enumeration beyond n = 8 is refused in favor of sampling.
MAX_ENUMERATION_QUBITS = 8


def stirling_second(n, k):
    """Stirling number of the second kind S(n, k), exact integer."""
    if not (_is_count(n, 0) and _is_count(k, 0)):
        raise ValueError(f"n and k must be integers >= 0, got n={n!r}, k={k!r}")
    n, k = int(n), int(k)
    if k > n:
        return 0
    for row in _stirling_rows(n, k):
        pass
    return row[k]


def _rgs_strings(n, prefix=(0,)):
    # Restricted growth strings a[0..n-1] in lexicographic order: a[0] = 0 and
    # a[i] <= max(a[0..i-1]) + 1.  Recursion depth is n <= MAX_ENUMERATION_QUBITS.
    if len(prefix) == n:
        yield prefix
    else:
        for label in range(max(prefix) + 2):
            yield from _rgs_strings(n, prefix + (label,))


def _rgs_to_partition(a):
    blocks = {}
    for qubit, label in enumerate(a, start=1):
        blocks.setdefault(label, []).append(qubit)
    return PartitionSpec([blocks[label] for label in sorted(blocks)])


def enumerate_partitions(n, k_min):
    """All set partitions of {1..n} with at least k_min blocks, as a one-pass iterator.

    The arguments are checked on the call, before the first partition is
    drawn.  Iteration order is the lexicographic order of restricted growth
    strings, so it is canonical and reproducible.  The iterator yields
    sum_{j >= k_min} S(n, j) partitions (see :func:`stirling_second`).
    """
    n, k_min = _check_k(n, k_min, "k_min")
    if n > MAX_ENUMERATION_QUBITS:
        raise ValueError(
            f"exhaustive enumeration refused for n={n} > {MAX_ENUMERATION_QUBITS}; "
            "use sample_partition instead"
        )
    return (_rgs_to_partition(a) for a in _rgs_strings(n) if max(a) + 1 >= k_min)


def sample_partition(n, k, rng):
    """Uniformly random set partition of {1..n} with exactly k blocks.

    Drawn by ``states._partition_blocks``, the partition step of the term stream,
    from the Stirling recurrence S(n, k) = S(n-1, k-1) + k S(n-1, k): element n
    starts its own block with probability S(n-1, k-1)/S(n, k), otherwise it
    joins one of the k blocks of a uniform partition of {1..n-1}.
    """
    return PartitionSpec(_partition_blocks(*_check_k(n, k), rng))


# Amplitudes or profile values per stack of rows (4 MiB): from N = 17 on, a stack
# of two-term samples holds one sample.
_STACK_AMPLITUDES = 1 << 18


def _stacks(items, row_size):
    """``items``, read lazily, in lists of the rows of ``row_size`` numbers that fit one stack.

    The one stack budget of ``zoo``'s samples and ``sweep``'s steps; a list holds one row or more.
    """
    per = max(1, _STACK_AMPLITUDES // max(1, row_size))
    items = iter(items)
    while chunk := list(islice(items, per)):
        yield chunk


def _mixture_profiles(n, k, n_terms, seeds):
    """Chunks of profile rows of random k-separable mixtures: ``zoo``'s one sample route.

    Yields one (samples, 2^(n-1)) stack per chunk of ``_stacks(seeds, n_terms
    2^n)``, a row per seed in seed order.  The row for ``seed`` is ``0 + w_1
    P_1 + w_2 P_2 + ...``, the weighted sum of the profiles of the terms of
    ``sample_product_terms(n, k, n_terms, seed)``, bit for bit: the ``values``
    of the dense ``AntidiagonalProfile`` of that mixture, without the object.
    The arguments are checked before anything is drawn.  A chunk's terms come
    from one call of ``states._product_terms`` into one (samples, n_terms,
    2^n) stack, which passes ``states._check_amplitudes`` before its term
    profiles are taken.  The stack of term profiles and then the chunk's
    mixtures pass ``correlation._check_profile``, so each chunk may go to
    ``witness._witness`` as it is.  The amplitudes are dropped before the
    sums are formed.
    """
    n, k = _check_sampler(n, k, n_terms)
    for chunk in _stacks(seeds, n_terms << n):
        amps = np.empty((len(chunk), n_terms, _dim(n)), dtype=complex)
        terms = _product_terms(n, k, n_terms, chunk, amps.reshape(-1, _dim(n)))
        weights = np.fromiter((w for w, _ in terms), float).reshape(len(chunk), n_terms)
        _check_amplitudes(amps)
        terms = _pure_profile(amps)
        del amps  # or it lives on into the next chunk
        _check_profile(terms)
        mixed = sum(w[:, None] * p for w, p in zip(weights.T, terms.swapaxes(0, 1)))
        del terms
        _check_profile(mixed)
        yield mixed
        del mixed  # before the next chunk is drawn


def max_antidiagonal_bound(k):
    """Largest antidiagonal modulus a state factoring into k blocks can have: (1/2)^k."""
    if not _is_count(k):
        raise ValueError(f"k must be an integer >= 1, got {k!r}")
    return 0.5 ** int(k)


def verify_antidiagonal_bound(state, partition):
    """Check a claimed product structure against its antidiagonal bound.

    Returns ``(max_modulus, satisfied)`` where satisfied means the largest
    antidiagonal modulus does not exceed (1/2)^k for the partition's block
    count k (within 1e-12).  A False result refutes the claim that ``state``
    is a mixture of products over partitions at least as fine as ``partition``.
    """
    if not isinstance(partition, PartitionSpec):
        partition = PartitionSpec(partition)
    prof = antidiagonal_profile(state)
    if prof.n_qubits != partition.n_qubits:
        raise ValueError(
            f"state has {prof.n_qubits} qubits, partition covers {partition.n_qubits}"
        )
    max_modulus = float(np.abs(prof.values).max(initial=0.0))
    bound = max_antidiagonal_bound(partition.k)
    return max_modulus, max_modulus <= bound + ANTIDIAG_BOUND_TOL
