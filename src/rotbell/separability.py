"""Set partitions of qubit labels and the antidiagonal bounds they imply.

A state that factorizes over a partition with k blocks has every antidiagonal
modulus bounded by (1/2)^k, and convex mixing preserves that bound.  These
bounds are what turn the violation factor into a k-separability witness.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .correlation import ANTIDIAG_BOUND_TOL, antidiagonal_profile
from .states import PartitionSpec, _check_k, _is_count

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


@lru_cache(maxsize=None, typed=True)  # typed: True must not hit the cached (1, 1)
def stirling_second(n, k):
    """Stirling number of the second kind S(n, k), exact integer."""
    if not (_is_count(n, 0) and _is_count(k, 0)):
        raise ValueError(f"n and k must be integers >= 0, got n={n!r}, k={k!r}")
    if n == 0 and k == 0:
        return 1
    if n == 0 or k == 0 or k > n:
        return 0
    return k * stirling_second(n - 1, k) + stirling_second(n - 1, k - 1)


def _rgs_strings(n):
    # Restricted growth strings a[0..n-1] in lexicographic order:
    # a[0] = 0 and a[i] <= max(a[0..i-1]) + 1.
    a = [0] * n
    mx = [0] * n  # mx[i] = max(a[0..i]) maintained incrementally
    while True:
        yield a
        i = n - 1
        while i > 0 and a[i] == mx[i - 1] + 1:
            i -= 1
        if i == 0:
            return
        a[i] += 1
        mx[i] = max(mx[i - 1], a[i])
        for j in range(i + 1, n):
            a[j] = 0
            mx[j] = mx[j - 1]


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
    _check_k(n, k_min, "k_min")
    if n > MAX_ENUMERATION_QUBITS:
        raise ValueError(
            f"exhaustive enumeration refused for n={n} > {MAX_ENUMERATION_QUBITS}; "
            "use sample_partition instead"
        )
    return (_rgs_to_partition(a) for a in _rgs_strings(int(n)) if max(a) + 1 >= k_min)


def sample_partition(n, k, rng):
    """Uniformly random set partition of {1..n} with exactly k blocks.

    Sequential construction from the Stirling recurrence
    S(n, k) = S(n-1, k-1) + k S(n-1, k): element n starts its own block with
    probability S(n-1, k-1)/S(n, k), otherwise it joins one of the k blocks of
    a uniform partition of {1..n-1}.
    """
    _check_k(n, k)
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
        p_new = stirling_second(m - 1, j - 1) / stirling_second(m, j)
        if rng.random() < p_new:
            blocks.append([m])
            m, j = m - 1, j - 1
        else:
            pending.append((m, len(blocks), j))
            m -= 1
    for e, offset, jj in pending:
        blocks[offset + int(rng.integers(0, jj))].append(e)
    return PartitionSpec(blocks)


def max_antidiagonal_bound(k):
    """Largest antidiagonal modulus a state factoring into k blocks can have: (1/2)^k."""
    if not _is_count(k):
        raise ValueError(f"k must be an integer >= 1, got {k!r}")
    return 0.5**k


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
    max_modulus = float(np.max(np.abs(prof.values)))
    bound = max_antidiagonal_bound(partition.k)
    return max_modulus, max_modulus <= bound + ANTIDIAG_BOUND_TOL
