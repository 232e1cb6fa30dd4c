"""Violation factor r and the k-separability threshold ladder.

``r = ||E||^2 / (4^N E_max)`` compares the measured norm of the planar
correlation function with the largest value any local realistic model can
produce.  r > 1 rules out local realism; r above ``2^-k (pi/2)^N`` rules out
k-separability (in particular r above the k=2 threshold certifies genuine
N-partite correlations).  The witness is one-sided: a verdict below a
threshold excludes nothing, so reports say "not excluded", never
"is k-separable".
"""

from __future__ import annotations

import logging
import math
from bisect import bisect_left
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .correlation import _closed_forms, antidiagonal_profile
from .states import MAX_TERM_QUBITS, _check_k, _is_count

__all__ = [
    "ThresholdVerdict",
    "WitnessReport",
    "violation_factor",
    "k_sep_threshold",
    "max_violation_bound",
    "critical_visibility",
    "classify",
]

_log = logging.getLogger(__name__)


@dataclass(frozen=True)
class ThresholdVerdict:
    """One rung of the ladder: threshold for k-separable states and the verdict on it."""

    k: int
    r_k_max: float
    excluded: bool
    margin: float  # r - r_k_max, so callers can apply their own error bars


@dataclass(frozen=True)
class WitnessReport:
    """Everything the violation-factor analysis of one state produces."""

    n_qubits: int
    e_max: float
    norm_squared: float
    r: float
    lhv_violated: bool
    max_possible_r: float
    thresholds: tuple  # ThresholdVerdict for k = 2..N
    min_excluded_separability: int | None
    critical_visibility: float | None

    @property
    def genuine_multipartite(self):
        """True when even biseparability is excluded (k = 2 rung)."""
        return self.min_excluded_separability == 2

    def to_dict(self):
        """``dataclasses.asdict(self)`` without its deep copy: the fields, each rung a dict."""
        return {**vars(self), "thresholds": tuple(dict(vars(t)) for t in self.thresholds)}


def violation_factor(norm_squared, e_max_value, n):
    """r = 4^-N ||E||^2 / E_max, with r = 0 for the correlation-free case E_max = 0."""
    if not _is_count(n):
        raise ValueError(f"invalid qubit count {n!r}")
    ns = float(norm_squared)
    em = float(e_max_value)
    if not (0.0 <= ns < math.inf and 0.0 <= em < math.inf):  # written so that NaN is refused too
        raise ValueError(f"norm_squared and e_max must be finite and nonnegative, got {ns}, {em}")
    if em == 0.0:
        if ns > 0.0:
            raise ValueError("inconsistent inputs: e_max = 0 forces ||E||^2 = 0")
        return 0.0
    return float(4.0 ** -int(n) * ns / em)


def k_sep_threshold(n, k):
    """Largest violation factor any k-separable n-qubit state can reach: 2^-k (pi/2)^n."""
    n, k = _check_k(n, k)
    return float(2.0 ** (-k) * (np.pi / 2.0) ** n)


@lru_cache(maxsize=MAX_TERM_QUBITS)
def _ladder(n):
    """``k_sep_threshold(n, k)`` for k = 1..n, computed once per qubit count."""
    return tuple(k_sep_threshold(n, k) for k in range(1, n + 1))


def max_violation_bound(n):
    """Global maximum (1/2) (pi/2)^n of r, saturated by GHZ states: the ladder's k = 1 rung."""
    return k_sep_threshold(n, 1)


def critical_visibility(r):
    """Visibility above which white-noise-diluted correlations still violate: 1/r, or None
    when there is no violation to dilute (r <= 1)."""
    r = float(r)
    if not 0.0 <= r < math.inf:  # written so that NaN is refused too
        raise ValueError(f"violation factor must be finite and nonnegative, got {r}")
    return 1.0 / r if r > 1.0 else None


def classify(state):
    """Full witness analysis of a pure or mixed state, a parsed ket, or a profile.

    Threshold comparisons are strict and carry no floating-point tolerance;
    the per-rung margins are reported so callers can apply error bars.
    ``min_excluded_separability`` is the smallest k whose rung is exceeded,
    meaning the state cannot be k-separable for that or any larger k.  The
    state's profile is checked where it is built (see ``antidiagonal_profile``)
    and then read as the one-row stack of ``_witness``.
    """
    prof = antidiagonal_profile(state)
    n = prof.n_qubits
    [e_max], [norm_squared], [r], [lhv], [min_excluded] = _witness(n, prof.values[None])
    ladder = _ladder(n)
    first = min_excluded or n + 1  # the ladder halves at each rung: all from this one are exceeded
    return WitnessReport(
        n_qubits=n,
        e_max=e_max,
        norm_squared=norm_squared,
        r=r,
        lhv_violated=lhv,
        max_possible_r=ladder[0],
        thresholds=tuple(ThresholdVerdict(k=k, r_k_max=thr, excluded=k >= first, margin=r - thr)
                         for k, thr in enumerate(ladder[1:], start=2)),
        min_excluded_separability=min_excluded,
        critical_visibility=critical_visibility(r),
    )


class _Rows(NamedTuple):
    """The witness of each row of a stack: (R,) lists under ``WitnessReport``'s field names."""

    e_max: list
    norm_squared: list
    r: list
    lhv_violated: list
    min_excluded_separability: list


def _witness(n, rows):
    """The witness of each row of an (R, m) stack of n-qubit profile values, checking nothing.

    Only for values that are already known to pass the profile rule,
    ``correlation._check_profile``: ``classify``'s one row, ``sweep``'s rows
    ``V * values`` of a checked profile with 0 <= V <= 1, which keep it, and
    ``zoo``'s mixture rows, each chunk of which
    ``separability._mixture_profiles`` passes through it.
    Positions never enter (see ``correlation._closed_forms``), so the values
    of a sparse profile suffice.  The sums of all rows come from one call of
    the sum rule; then each row's r is ``violation_factor``'s, and its
    ``min_excluded_separability`` is the smallest k whose rung of ``_ladder``
    r strictly exceeds, or None.  Each call writes one debug record to the
    ``rotbell.witness`` logger: n, the row count and the rows summed on their
    own.
    """
    em, ns, single = _closed_forms(n, rows)
    _log.debug("witness: n=%d rows=%d one_row=%s", n, len(rows), single)
    r = [violation_factor(s, e, n) for e, s in zip(em, ns)]
    rungs = _ladder(n)[:0:-1]  # k = n down to 2, ascending: the ladder halves at each rung
    below = [bisect_left(rungs, x) for x in r]  # the rungs strictly below r, the last ones
    return _Rows(em, ns, r, [x > 1.0 for x in r], [n + 1 - b if b else None for b in below])
