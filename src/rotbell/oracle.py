"""Brute-force cross-checks for every closed form in the package.

Nothing here trusts the closed-form algebra: the grid maximizer evaluates the
correlation function directly over angle hypercubes, the quadrature integrates
E^2 numerically (the equally spaced periodic trapezoid rule is exact for this
integrand, a trigonometric polynomial of per-axis degree <= 2, once there are
at least 5 points per axis), and ``cross_validate`` bundles the comparisons.

The grid maximum can never exceed the closed-form e_max.  Whether it reaches
it is a property of the state: profiles with a single nonzero element,
two-qubit states, and products of blocks of at most two qubits attain the
bound; generic entangled states with N >= 3 do not, and the reported
``grid_gap`` then measures a real gap, not an optimizer failure.  For that
reason the gap check is reported separately from the four identity checks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .correlation import (
    AntidiagonalProfile,
    _evaluate,
    antidiagonal_profile,
    correlation_tensor,
    correlation_value,
    correlation_value_trace,
    e_max,
    norm_squared_antidiagonal,
    norm_squared_tensor,
)

__all__ = [
    "GridSearchConfig",
    "BudgetExceededError",
    "GridMax",
    "maximize_grid",
    "norm_squared_quadrature",
    "CheckResult",
    "ValidationReport",
    "cross_validate",
]

TRACE_EQUIV_TOL = 1e-12
NORM_REL_TOL = 1e-9
SOUNDNESS_TOL = 1e-9
ATTAINABILITY_TOL = 1e-5

MIN_POINTS_PER_AXIS = 8
_QUEUE_SETTINGS_SEED = 0x5EED


class BudgetExceededError(RuntimeError):
    """The requested grid would exceed the evaluation budget."""


@dataclass(frozen=True)
class GridSearchConfig:
    """Grid + refinement search over the angle hypercube.

    ``points_per_axis`` is a ceiling: the effective per-axis resolution is
    reduced until the total number of correlation evaluations over all rounds
    fits ``max_evaluations`` (refused below 8 points per axis).  Each
    refinement round re-grids a box around the incumbent shrunk by
    ``refinement_shrink``.
    """

    points_per_axis: int = 64
    refinement_rounds: int = 3
    refinement_shrink: float = 0.1
    max_evaluations: int = 10_000_000

    def __post_init__(self):
        if self.points_per_axis < MIN_POINTS_PER_AXIS:
            raise ValueError(f"points_per_axis must be >= {MIN_POINTS_PER_AXIS}")
        if self.refinement_rounds < 0:
            raise ValueError("refinement_rounds must be >= 0")
        if not 0.0 < self.refinement_shrink < 1.0:
            raise ValueError("refinement_shrink must lie in (0, 1)")
        if self.max_evaluations < 1:
            raise ValueError("max_evaluations must be positive")


class GridMax(NamedTuple):
    value: float
    setting: np.ndarray


def _values_on_axes(profile, axes):
    """E evaluated on the tensor-product grid of the given per-axis angle arrays."""
    return _evaluate(profile, [np.exp(1j * ax) for ax in axes])


def _fit_points(requested, n, rounds, budget):
    per_round = budget // (rounds + 1)
    pts = min(int(requested), int(per_round ** (1.0 / n))) if per_round >= 1 else 0
    while pts > MIN_POINTS_PER_AXIS and pts**n > per_round:
        pts -= 1
    if pts < MIN_POINTS_PER_AXIS or pts**n > per_round:
        raise BudgetExceededError(
            f"grid search over {n} angles needs at least {MIN_POINTS_PER_AXIS}^{n} "
            f"evaluations per round, exceeding the budget of {budget}"
        )
    return pts


def maximize_grid(state, config=None):
    """Best correlation value found by full-grid search plus local refinement.

    Returns ``GridMax(value, setting)``.  Deterministic: ties resolve to the
    lexicographically smallest grid setting, independent of evaluation order.
    The value can never exceed ``e_max(state)`` (up to roundoff); see the
    module docstring for when it reaches it.
    """
    cfg = config if config is not None else GridSearchConfig()
    prof = antidiagonal_profile(state)
    n = prof.n_qubits
    pts = _fit_points(cfg.points_per_axis, n, cfg.refinement_rounds, cfg.max_evaluations)

    axes = [np.linspace(0.0, 2.0 * np.pi, pts, endpoint=False)] * n
    values = _values_on_axes(prof, axes)
    flat = int(np.argmax(values))
    best = float(values.flat[flat])
    idx = np.unravel_index(flat, values.shape)
    setting = np.array([axes[j][idx[j]] for j in range(n)])

    half_width = np.pi
    for _ in range(cfg.refinement_rounds):
        half_width *= cfg.refinement_shrink
        axes = [np.linspace(c - half_width, c + half_width, pts) for c in setting]
        values = _values_on_axes(prof, axes)
        flat = int(np.argmax(values))
        cand = float(values.flat[flat])
        idx = np.unravel_index(flat, values.shape)
        cand_setting = np.array([axes[j][idx[j]] for j in range(n)])
        if cand > best:
            best, setting = cand, cand_setting
    return GridMax(best, np.mod(setting, 2.0 * np.pi))


def norm_squared_quadrature(state, points_per_axis=8):
    """||E||^2 by N-dimensional periodic trapezoid quadrature of E^2.

    Exact (up to roundoff) for any profile once ``points_per_axis`` >= 5,
    because E^2 only contains per-axis frequencies up to 2.
    """
    if points_per_axis < 5:
        raise ValueError("points_per_axis must be >= 5 for the rule to be exact")
    prof = antidiagonal_profile(state)
    n = prof.n_qubits
    if points_per_axis**n > 20_000_000:
        raise ValueError(f"quadrature needs {points_per_axis}^{n} points: over the point budget")
    axes = [np.linspace(0.0, 2.0 * np.pi, points_per_axis, endpoint=False)] * n
    values = _values_on_axes(prof, axes)
    return float(np.sum(values**2) * (2.0 * np.pi / points_per_axis) ** n)


@dataclass(frozen=True)
class CheckResult:
    name: str
    value: float
    tolerance: float
    passed: bool

    def to_dict(self):
        return {
            "name": self.name,
            "value": self.value,
            "tolerance": self.tolerance,
            "passed": self.passed,
        }


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of the cross-check battery for one state.

    ``identity_ok`` covers the checks that hold for every valid state:
    trace equivalence, the two norm routes, the quadrature route, and grid
    soundness (grid max never above e_max).  ``attainability`` reports whether
    the grid reached e_max within 1e-5; for generic entangled states with
    N >= 3 a larger gap is the mathematically expected outcome, so it is kept
    out of ``identity_ok``.
    """

    n_qubits: int
    trace_max_abs_diff: float
    dual_norm_rel_diff: float
    quadrature_rel_diff: float
    e_max: float
    grid_value: float
    grid_gap: float
    checks: tuple  # CheckResult, identity checks first

    @property
    def identity_ok(self):
        return all(c.passed for c in self.checks if c.name != "attainability")

    @property
    def attainability_ok(self):
        return next(c.passed for c in self.checks if c.name == "attainability")

    @property
    def all_ok(self):
        return all(c.passed for c in self.checks)

    def passes(self, attainability_gated):
        """The pass/fail rule: identities always, attainability only where gated."""
        return self.identity_ok and (self.attainability_ok or not attainability_gated)

    def to_dict(self):
        return {
            "n_qubits": self.n_qubits,
            "trace_max_abs_diff": self.trace_max_abs_diff,
            "dual_norm_rel_diff": self.dual_norm_rel_diff,
            "quadrature_rel_diff": self.quadrature_rel_diff,
            "e_max": self.e_max,
            "grid_value": self.grid_value,
            "grid_gap": self.grid_gap,
            "identity_ok": self.identity_ok,
            "attainability_ok": self.attainability_ok,
            "checks": [c.to_dict() for c in self.checks],
        }


def _rel_diff(a, b):
    scale = max(abs(a), abs(b))
    return abs(a - b) / scale if scale > 0 else 0.0


def cross_validate(state, config=None, n_settings=100, rng_seed=_QUEUE_SETTINGS_SEED):
    """Run every closed form against its brute-force counterpart.

    Checks, each flagged pass/fail in the report (failures are report
    content, never exceptions):

    * profile evaluation vs direct operator trace at ``n_settings`` random
      settings (tolerance 1e-12);
    * antidiagonal norm vs tensor norm (relative 1e-9);
    * antidiagonal norm vs trapezoid quadrature (relative 1e-9);
    * grid maximum at most e_max + 1e-9 (soundness);
    * grid maximum within 1e-5 of e_max (attainability; see class docstring).
    """
    if isinstance(state, AntidiagonalProfile):
        raise TypeError("cross_validate needs a state: the trace check requires it")
    n = state.n_qubits
    if n > 6:
        raise ValueError(f"cross-validation is dense and grid-heavy; n={n} > 6 refused")
    prof = antidiagonal_profile(state)
    rng = np.random.default_rng(rng_seed)
    settings = rng.uniform(0.0, 2.0 * np.pi, size=(int(n_settings), n))
    trace_dev = max(
        abs(correlation_value(prof, s) - correlation_value_trace(state, s)) for s in settings
    )
    ns_anti = norm_squared_antidiagonal(prof)
    ns_tens = norm_squared_tensor(correlation_tensor(prof))
    ns_quad = norm_squared_quadrature(prof)
    dual_rel = _rel_diff(ns_anti, ns_tens)
    quad_rel = _rel_diff(ns_anti, ns_quad)
    grid = maximize_grid(prof, config)
    em = e_max(prof)
    gap = em - grid.value
    checks = (
        CheckResult("trace_equivalence", trace_dev, TRACE_EQUIV_TOL, trace_dev <= TRACE_EQUIV_TOL),
        CheckResult("dual_norm", dual_rel, NORM_REL_TOL, dual_rel <= NORM_REL_TOL),
        CheckResult("quadrature_norm", quad_rel, NORM_REL_TOL, quad_rel <= NORM_REL_TOL),
        CheckResult("grid_soundness", gap, -SOUNDNESS_TOL, gap >= -SOUNDNESS_TOL),
        CheckResult("attainability", gap, ATTAINABILITY_TOL, gap <= ATTAINABILITY_TOL),
    )
    return ValidationReport(
        n_qubits=n,
        trace_max_abs_diff=float(trace_dev),
        dual_norm_rel_diff=float(dual_rel),
        quadrature_rel_diff=float(quad_rel),
        e_max=float(em),
        grid_value=float(grid.value),
        grid_gap=float(gap),
        checks=checks,
    )
