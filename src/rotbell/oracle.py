"""Brute-force cross-checks for every closed form in the package.

Nothing here trusts the closed-form algebra: the grid maximizer evaluates the
correlation function directly over angle hypercubes, skipping only points that
the bound E <= 2|z| of their column proves below a value the grid attains (see
``maximize_grid``), the quadrature integrates E^2 numerically (the equally
spaced periodic trapezoid rule is exact for this integrand, a trigonometric
polynomial of per-axis degree <= 2, once there are at least 5 points per
axis), and ``cross_validate`` bundles the comparisons.

The grid maximum can never exceed the closed-form e_max.  Whether it reaches
it is a property of the state: profiles with a single nonzero element,
two-qubit states, and products of blocks of at most two qubits attain the
bound; generic entangled states with N >= 3 do not, and the reported
``grid_gap`` then measures a real gap, not an optimizer failure.  For that
reason the gap check is reported separately from the four identity checks.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .correlation import (
    _columns,
    _e_values,
    _evaluate,
    _tiles,
    antidiagonal_profile,
    correlation_tensor,
    correlation_value,
    correlation_value_trace,
    e_max,
    norm_squared_antidiagonal,
    norm_squared_tensor,
)
from .states import DensityMatrix, KetParse, PureState, _is_count

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
REFINEMENT_SHRINK = 0.1
_TRACE_SETTINGS = 100
_TRACE_SETTINGS_SEED = 0x5EED
# slack of the column bound E <= 2|z|: relative for the rounding of the complex
# multiply (fused or not) and of |z|, with |exp(i alpha)| = 1 up to an ulp;
# absolute so that no column of a subnormal-scale profile is lost to underflow
_PRUNE_REL = 1e-12
_PRUNE_ABS = 1e-300

_log = logging.getLogger(__name__)


class BudgetExceededError(RuntimeError):
    """The requested grid would exceed the evaluation budget."""


@dataclass(frozen=True)
class GridSearchConfig:
    """Grid + refinement search over the angle hypercube.

    ``points_per_axis`` is a ceiling: the effective per-axis resolution is
    reduced until the total number of correlation evaluations over all rounds
    fits ``max_evaluations`` (refused below 8 points per axis).  Each
    refinement round re-grids a box around the incumbent shrunk by
    ``REFINEMENT_SHRINK``.  The defaults are the budget of ``cross_validate``
    and of the CLI's ``verify`` and ``analyze --oracle``: small enough to keep
    a 50-state battery interactive, large enough for refinement to converge.
    """

    points_per_axis: int = 24
    refinement_rounds: int = 3
    max_evaluations: int = 2_000_000

    def __post_init__(self):
        if not _is_count(self.points_per_axis, MIN_POINTS_PER_AXIS):
            raise ValueError(f"points_per_axis must be an integer >= {MIN_POINTS_PER_AXIS}")
        if not _is_count(self.refinement_rounds, 0):
            raise ValueError("refinement_rounds must be an integer >= 0")
        if not _is_count(self.max_evaluations):
            raise ValueError("max_evaluations must be a positive integer")
        for name in ("points_per_axis", "refinement_rounds", "max_evaluations"):
            object.__setattr__(self, name, int(getattr(self, name)))


class GridMax(NamedTuple):
    value: float
    setting: np.ndarray


def _fit_points(requested, n, rounds, budget):
    per_round = budget // (rounds + 1)
    if requested**n <= per_round:  # also every budget too large for a float root
        return requested
    root = round(per_round ** (1.0 / n))  # the integer n-th root, or one above it
    pts = root - (root**n > per_round)
    if pts < MIN_POINTS_PER_AXIS:
        raise BudgetExceededError(
            f"grid search over {n} angles needs at least {MIN_POINTS_PER_AXIS}^{n} "
            f"evaluations per round, exceeding the budget of {budget}"
        )
    return pts


def _first_max(lead, z):
    """First maximum in C order of ``_e_values`` over qubit 1's ``lead`` x the columns ``z``.

    Returns ``(value, row, column)``.  The (len(lead), len(z)) array is never
    allocated: it is scanned in the tiles of ``correlation._tiles``, and a
    later tile replaces the running maximum only when strictly larger, so the
    tie rule is that of one argmax over the whole array.
    """
    top, row, col = -np.inf, 0, 0
    for r, c, values in _tiles(lead, z):
        dr, dc = divmod(int(values.argmax()), values.shape[1])
        if values[dr, dc] > top:
            top, row, col = float(values[dr, dc]), r + dr, c + dc
    return top, row, col


def maximize_grid(state, config=None):
    """Best correlation value found by full-grid search plus local refinement.

    Returns ``GridMax(value, setting)``.  Deterministic for a given input:
    within a round the first maximum in C index order wins, and a later round
    replaces the incumbent only if it is strictly larger.  Symmetry-equivalent
    maxima agree only to roundoff, so which of them is reported can change
    with the summation order.  The value can never exceed ``e_max(state)``
    (up to roundoff); see the module docstring for when it reaches it.

    Each round contracts the profile once over qubits 2..N, giving z for
    every column (setting of qubits 2..N) of its grid.  On a column
    E = 2 Re(exp(i alpha_1) z) <= 2|z|, the relaxation behind ``e_max``.  The
    round evaluates E at all of qubit 1's settings on the column of largest
    |z|, a floor L that the grid attains, and keeps only the columns with
    2|z| (1 + 1e-12) + 1e-300 >= L, in increasing order.  When the probe
    column is the only one kept, its values are the round's; otherwise the
    kept columns are scanned in the tiles of ``correlation._tiles`` with
    ``_first_max``.  The slack makes the bound hold for the computed values,
    underflow included, so every value on a dropped column lies strictly
    below L: it cannot be the round's maximum, let alone its first one in C
    order.  The kept values are the same complex multiplies of the same two
    numbers as on the whole grid, so ``value`` and ``setting`` are those of
    one argmax over every grid point, bit for bit.  One debug record on the
    ``rotbell.oracle`` logger gives the effective points per axis, the size
    of the full grids, the evaluations actually spent (the probe column,
    plus the kept columns when more than the probe is kept, times the points
    per axis, over all rounds) and the columns kept in each round.
    """
    cfg = config if config is not None else GridSearchConfig()
    prof = antidiagonal_profile(state)
    n = prof.n_qubits
    pts = _fit_points(cfg.points_per_axis, n, cfg.refinement_rounds, cfg.max_evaluations)

    # round 0 spans the whole period: the box of half-width pi around pi, open at its end
    best, setting, half_width, kept = -np.inf, np.full(n, np.pi), np.pi, []
    for rnd in range(cfg.refinement_rounds + 1):
        axes = [np.linspace(c - half_width, c + half_width, pts, endpoint=rnd > 0) for c in setting]
        lead = np.exp(1j * axes[0])
        z = _columns(prof, [np.exp(1j * ax)[None] for ax in axes[1:]])[0]
        modulus = np.abs(z)
        probe = int(modulus.argmax())
        values = _e_values(lead, z[probe:probe + 1])
        row = int(values.argmax())
        floor = values[row]
        # 2|z| (1 + rel) + abs >= floor solved for |z|; the division rounds far inside the slack
        cols = (modulus >= (floor - _PRUNE_ABS) / (2.0 * (1.0 + _PRUNE_REL))).nonzero()[0]
        kept.append(len(cols))
        if len(cols) == 1:  # the probe alone: its values are the round's, scanned already
            top, col = float(floor), probe
        else:
            top, row, col = _first_max(lead, z[cols])
            col = int(cols[col])
        if top > best:
            idx = np.unravel_index(row * len(z) + col, (pts,) * n)
            best, setting = top, np.array([ax[i] for ax, i in zip(axes, idx)])
        half_width *= REFINEMENT_SHRINK
    rounds = cfg.refinement_rounds + 1
    _log.debug("maximize_grid: n=%d points_per_axis=%d rounds=%d grid_points=%d evaluations=%d "
               "columns_per_round=%d kept_columns=%s", n, pts, rounds, rounds * pts**n,
               pts * sum(1 if k == 1 else 1 + k for k in kept), pts ** (n - 1),
               ",".join(map(str, kept)))
    return GridMax(best, np.mod(setting, 2.0 * np.pi))


def norm_squared_quadrature(state, points_per_axis=8):
    """||E||^2 by N-dimensional periodic trapezoid quadrature of E^2.

    Exact (up to roundoff) for any profile once ``points_per_axis`` >= 5,
    because E^2 only contains per-axis frequencies up to 2.
    """
    if not _is_count(points_per_axis, 5):
        raise ValueError("points_per_axis must be an integer >= 5 for the rule to be exact")
    points_per_axis = int(points_per_axis)
    prof = antidiagonal_profile(state)
    n = prof.n_qubits
    if points_per_axis**n > 20_000_000:
        raise ValueError(f"quadrature needs {points_per_axis}^{n} points: over the point budget")
    axes = [np.linspace(0.0, 2.0 * np.pi, points_per_axis, endpoint=False)] * n
    values = _evaluate(prof, [np.exp(1j * ax) for ax in axes])
    return float(np.sum(values**2) * (2.0 * np.pi / points_per_axis) ** n)


@dataclass(frozen=True)
class CheckResult:
    name: str
    value: float
    tolerance: float
    passed: bool


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

    def passes(self, attainability_gated):
        """The pass/fail rule: identities always, attainability only where gated."""
        return self.identity_ok and (self.attainability_ok or not attainability_gated)

    def to_dict(self):
        """Fields, each check a dict, then the two verdicts; no deep copy, as in WitnessReport."""
        return {**vars(self), "checks": tuple(dict(vars(c)) for c in self.checks),
                "identity_ok": self.identity_ok,
                "attainability_ok": self.attainability_ok}


def _rel_diff(a, b):
    scale = max(abs(a), abs(b))
    return abs(a - b) / scale if scale > 0 else 0.0


def cross_validate(state, config=None):
    """Run every closed form against its brute-force counterpart.

    Checks, each flagged pass/fail in the report (failures are report
    content, never exceptions):

    * profile evaluation vs direct operator trace at 100 seeded random
      settings (tolerance 1e-12);
    * antidiagonal norm vs tensor norm (relative 1e-9);
    * antidiagonal norm vs trapezoid quadrature (relative 1e-9);
    * grid maximum at most e_max + 1e-9 (soundness);
    * grid maximum within 1e-5 of e_max (attainability; see class docstring).
    """
    if not isinstance(state, (PureState, DensityMatrix, KetParse)):
        raise TypeError("cross_validate needs a state for its trace check, "
                        f"got {type(state).__name__}")
    n = state.n_qubits
    if n > 6:
        raise ValueError(f"cross-validation is dense and grid-heavy; n={n} > 6 refused")
    prof = antidiagonal_profile(state)  # for a KetParse, the sparse profile classify reads
    if isinstance(state, KetParse):  # densified past the n <= 6 rule, for the trace only
        state = state.state
    rng = np.random.default_rng(_TRACE_SETTINGS_SEED)
    settings = rng.uniform(0.0, 2.0 * np.pi, size=(_TRACE_SETTINGS, n))
    trace_dev = float(np.max(np.abs(correlation_value(prof, settings)
                                    - correlation_value_trace(state, settings))))
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
