import numpy as np
import pytest

from rotbell.correlation import e_max, norm_squared_antidiagonal
from rotbell.oracle import norm_squared_quadrature
from rotbell.states import (
    DensityMatrix,
    add_white_noise,
    as_density,
    make_ghz,
    parse_ket,
    random_density_matrix,
    random_pure_state,
    sample_k_separable,
)
from rotbell.witness import (
    classify,
    critical_visibility,
    k_sep_threshold,
    max_violation_bound,
    violation_factor,
)


def test_violation_factor_ghz_closed_form():
    for n, expected in ((2, np.pi**2 / 8.0), (3, np.pi**3 / 16.0)):
        rep = classify(make_ghz(n))
        assert rep.r == pytest.approx(expected, rel=1e-12)
    assert classify(make_ghz(2)).r == pytest.approx(1.2337, abs=5e-5)
    assert classify(make_ghz(3)).r == pytest.approx(1.9379, abs=5e-5)


def test_violation_factor_zero_profile():
    assert violation_factor(0.0, 0.0, 3) == 0.0
    assert classify(DensityMatrix.maximally_mixed(3)).r == 0.0


def test_violation_factor_inconsistency_raises():
    with pytest.raises(ValueError, match="inconsistent"):
        violation_factor(1.0, 0.0, 2)
    with pytest.raises(ValueError, match="nonnegative"):
        violation_factor(-1.0, 1.0, 2)


@pytest.mark.parametrize("ns, em", [(float("nan"), 1.0), (1.0, float("nan")),
                                    (float("inf"), 1.0), (1.0, float("inf"))])
def test_violation_factor_refuses_nan_and_inf(ns, em):
    with pytest.raises(ValueError, match="finite and nonnegative"):
        violation_factor(ns, em, 2)


def test_k_sep_threshold_values():
    assert k_sep_threshold(2, 2) == pytest.approx(np.pi**2 / 16.0, rel=1e-15)
    assert k_sep_threshold(3, 2) == pytest.approx(np.pi**3 / 32.0, rel=1e-15)
    assert round(k_sep_threshold(2, 2), 2) == 0.62
    assert round(k_sep_threshold(3, 2), 2) == 0.97
    assert k_sep_threshold(4, 4) == pytest.approx((np.pi / 4.0) ** 4, rel=1e-15)
    assert k_sep_threshold(4, 4) < 1.0


def test_k_sep_threshold_equals_global_bound_at_k1():
    for n in range(1, 11):
        assert k_sep_threshold(n, 1) == max_violation_bound(n)
        assert k_sep_threshold(n, n) == pytest.approx((np.pi / 4.0) ** n, rel=1e-14)


def test_k_sep_threshold_range_check():
    with pytest.raises(ValueError):
        k_sep_threshold(3, 0)
    with pytest.raises(ValueError):
        k_sep_threshold(3, 4)


def test_threshold_ladder_factor_two_exact():
    for n in range(2, 11):
        for k in range(1, n):
            assert k_sep_threshold(n, k) / k_sep_threshold(n, k + 1) == 2.0


def test_classify_ghz3():
    rep = classify(make_ghz(3))
    assert rep.lhv_violated
    assert rep.min_excluded_separability == 2
    assert rep.genuine_multipartite
    assert rep.critical_visibility == pytest.approx(16.0 / np.pi**3, rel=1e-12)
    assert rep.critical_visibility == pytest.approx(0.5160, abs=5e-5)


def test_classify_biseparable_boundary_not_excluded():
    # |+x> (x) Bell sits exactly at the k=2 threshold; strict comparison keeps it
    rep = classify(parse_ket("|000>+|011>+|100>+|111>"))
    assert rep.r == pytest.approx(np.pi**3 / 32.0, rel=1e-12)
    k2 = rep.thresholds[0]
    assert k2.k == 2 and not k2.excluded
    assert not rep.genuine_multipartite
    # full separability is still excluded: pi^3/32 > (pi/4)^3
    assert rep.min_excluded_separability == 3


def test_classify_noisy_ghz3_below_lhv():
    rep = classify(add_white_noise(as_density(make_ghz(3)), 0.4))
    assert rep.r == pytest.approx(0.775, abs=5e-4)
    assert not rep.lhv_violated
    assert rep.critical_visibility is None
    assert rep.r > k_sep_threshold(3, 3)
    assert rep.min_excluded_separability == 3


def test_classify_single_qubit():
    rep = classify(parse_ket("|0>+|1>"))
    assert rep.thresholds == ()
    assert rep.min_excluded_separability is None
    assert not rep.lhv_violated
    assert rep.r <= max_violation_bound(1) + 1e-9


def test_critical_visibility_values():
    assert critical_visibility(np.pi**3 / 16.0) == pytest.approx(16.0 / np.pi**3, rel=1e-15)
    assert critical_visibility(1.0) is None
    assert critical_visibility(2.0) == 0.5
    with pytest.raises(ValueError):
        critical_visibility(-0.5)


@pytest.mark.parametrize("r", [float("nan"), float("inf")])
def test_critical_visibility_refuses_nan_and_inf(r):
    with pytest.raises(ValueError, match="finite and nonnegative"):
        critical_visibility(r)


def test_report_invariants():
    rng = np.random.default_rng(1)
    for n in (2, 3, 4):
        for _ in range(5):
            rep = classify(random_density_matrix(n, rng))
            assert 0.0 <= rep.r <= rep.max_possible_r + 1e-9
            assert rep.lhv_violated == (rep.r > 1.0)
            ladder = [t.r_k_max for t in rep.thresholds]
            for hi, lo in zip(ladder, ladder[1:]):
                assert hi / lo == 2.0
            for t in rep.thresholds:
                assert t.margin == pytest.approx(rep.r - t.r_k_max, abs=1e-15)
                assert t.excluded == (rep.r > t.r_k_max)
            if rep.min_excluded_separability is not None:
                for t in rep.thresholds:
                    assert t.excluded == (t.k >= rep.min_excluded_separability)


def test_report_to_dict_fields():
    d = classify(make_ghz(2)).to_dict()
    assert set(d) == {
        "n_qubits", "e_max", "norm_squared", "r", "lhv_violated", "max_possible_r",
        "thresholds", "min_excluded_separability", "critical_visibility",
    }
    assert d["thresholds"][0]["k"] == 2
    assert {"k", "r_k_max", "excluded", "margin"} == set(d["thresholds"][0])


def test_ghz_saturation_analytic_path():
    for n in range(1, 11):
        rep = classify(make_ghz(n))
        closed = max_violation_bound(n)
        assert abs(rep.r - closed) <= 1e-9 * closed


def test_ghz_saturation_against_quadrature_norm():
    # independent route: integrate ||E||^2 numerically, then rebuild r from it
    for n in range(1, 6):
        g = make_ghz(n)
        ns = norm_squared_quadrature(g, points_per_axis=8)
        r = violation_factor(ns, e_max(g), n)
        assert r == pytest.approx(max_violation_bound(n), rel=1e-12)


def test_noise_scales_r_linearly():
    rng = np.random.default_rng(2)
    for n in (2, 3, 4):
        rho = random_density_matrix(n, rng)
        base = classify(rho).r
        for v in (0.0, 0.3, 0.7, 1.0):
            noisy_r = classify(add_white_noise(rho, v)).r
            assert abs(noisy_r - v * base) <= 1e-9


def test_r_never_exceeds_global_bound():
    rng = np.random.default_rng(3)
    for n in (2, 3, 4):
        bound = max_violation_bound(n)
        for _ in range(1000):
            psi = random_pure_state(n, rng)
            ns = norm_squared_antidiagonal(psi)
            em = e_max(psi)
            assert violation_factor(ns, em, n) <= bound + 1e-9


def test_sampled_k_separable_below_threshold():
    for n in (2, 3, 4):
        for k in range(1, n + 1):
            thr = k_sep_threshold(n, k)
            for seed in range(25):
                rho = sample_k_separable(n, k, 2, rng_seed=(7, n, k, seed))
                assert classify(rho).r <= thr + 1e-9
