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

from dataclasses import asdict, dataclass

import numpy as np

from .correlation import antidiagonal_profile, e_max, norm_squared_antidiagonal
from .states import _check_k, _is_count

__all__ = [
    "ThresholdVerdict",
    "WitnessReport",
    "violation_factor",
    "k_sep_threshold",
    "max_violation_bound",
    "critical_visibility",
    "classify",
]


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
        return asdict(self)


def violation_factor(norm_squared, e_max_value, n):
    """r = 4^-N ||E||^2 / E_max, with r = 0 for the correlation-free case E_max = 0."""
    if not _is_count(n):
        raise ValueError(f"invalid qubit count {n!r}")
    ns = float(norm_squared)
    em = float(e_max_value)
    if ns < 0 or em < 0:
        raise ValueError("norm_squared and e_max must be nonnegative")
    if em == 0.0:
        if ns > 0.0:
            raise ValueError("inconsistent inputs: e_max = 0 forces ||E||^2 = 0")
        return 0.0
    return float(4.0 ** (-n) * ns / em)


def k_sep_threshold(n, k):
    """Largest violation factor any k-separable n-qubit state can reach: 2^-k (pi/2)^n."""
    _check_k(n, k)
    return float(2.0 ** (-k) * (np.pi / 2.0) ** n)


def max_violation_bound(n):
    """Global maximum (1/2) (pi/2)^n of the violation factor, saturated by GHZ states."""
    if not _is_count(n):
        raise ValueError(f"invalid qubit count {n!r}")
    return float(0.5 * (np.pi / 2.0) ** n)


def critical_visibility(r):
    """Visibility above which white-noise-diluted correlations still violate: 1/r, or None
    when there is no violation to dilute (r <= 1)."""
    r = float(r)
    if r < 0:
        raise ValueError(f"violation factor must be nonnegative, got {r}")
    return 1.0 / r if r > 1.0 else None


def classify(state):
    """Full witness analysis of a pure or mixed state, or of its antidiagonal profile.

    Threshold comparisons are strict and carry no floating-point tolerance;
    the per-rung margins are reported so callers can apply error bars.
    ``min_excluded_separability`` is the smallest k whose rung is exceeded,
    meaning the state cannot be k-separable for that or any larger k.
    """
    prof = antidiagonal_profile(state)
    n = prof.n_qubits
    em = e_max(prof)
    ns = norm_squared_antidiagonal(prof)
    r = violation_factor(ns, em, n)
    rungs = []
    min_excluded = None
    for k in range(2, n + 1):
        thr = k_sep_threshold(n, k)
        excluded = r > thr
        if excluded and min_excluded is None:
            min_excluded = k
        rungs.append(ThresholdVerdict(k=k, r_k_max=thr, excluded=excluded, margin=r - thr))
    return WitnessReport(
        n_qubits=n,
        e_max=em,
        norm_squared=ns,
        r=r,
        lhv_violated=r > 1.0,
        max_possible_r=max_violation_bound(n),
        thresholds=tuple(rungs),
        min_excluded_separability=min_excluded,
        critical_visibility=critical_visibility(r),
    )
