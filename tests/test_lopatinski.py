import math

import numpy as np
import pytest

from kortsolve import (CaseMismatchError, ScanGrid, classify, lower_bound_scan,
                       make_named_symbol, scan_stability)

from tests.conftest import CASE_PARAMS, random_mode_values


def _forms(p, name, points):
    """The raw expansion and the factored form of a registry determinant over (xi, lam) pairs."""
    sym = make_named_symbol(p, name)
    xi = np.array([xi for xi, _ in points])
    lam = np.array([lam for _, lam in points])
    return sym.eval(xi, lam), sym.alt_eval(xi, lam)


class TestDetL:
    def test_value_and_oracle(self, params_by_case):
        p = params_by_case["I"]
        (raw,), (val,) = _forms(p, "detL", [([0.0], 1.0)])
        assert val == pytest.approx(1j * math.sqrt(0.5), rel=1e-12)
        assert val == pytest.approx(raw, rel=1e-12)

    def test_degree_five_scaling(self, params_by_case):
        p = params_by_case["II"]
        _, (a, b) = _forms(p, "detL", [([0.8], 1.3 + 0.4j), ([2.4], (1.3 + 0.4j) * 9.0)])
        assert b == pytest.approx(243.0 * a, rel=1e-12)

    def test_factored_vs_raw_bulk(self, rng):
        for case in ("I", "II"):
            p = classify(*CASE_PARAMS[case])
            raw, fac = _forms(p, "detL", random_mode_values(rng, 2500, xi_range=(0.2, 5.0),
                                                             lam_range=(0.04, 25.0)))
            worst = np.max(np.abs(raw - fac) / np.abs(fac))
            assert worst <= 1e-12, case

    def test_nonzero_on_scan(self, params_by_case):
        p = params_by_case["I"]
        xi_sq, xi, lam = ScanGrid.logspace(n_xi=16, n_lam=16).flat_points()
        _, fac = _forms(p, "detL", [([x], l) for x, l in zip(xi[:100], lam[:100])])
        assert np.all(fac != 0)

    def test_wrong_case_rejected(self, params_by_case):
        with pytest.raises(CaseMismatchError):
            make_named_symbol(params_by_case["IV"], "detL")


class TestDetM:
    def test_value_against_raw_determinant(self, params_by_case):
        p = params_by_case["IV"]  # (3, 1, 4)
        (raw,), (fac,) = _forms(p, "detM", [([0.0], 1.0)])
        assert fac == pytest.approx(raw, rel=1e-12)
        # frozen regression value from the raw 2x2 determinant
        assert fac == pytest.approx(-1.6329931618554532, rel=1e-12)

    def test_factorization_bulk(self, params_by_case, rng):
        p = params_by_case["IV"]
        raw, fac = _forms(p, "detM", random_mode_values(rng, 2500, xi_range=(0.2, 5.0),
                                                         lam_range=(0.04, 25.0)))
        assert np.max(np.abs(raw - fac) / np.abs(fac)) <= 1e-12

    def test_scaling_degree_confirmed_by_sweep(self, params_by_case):
        # measure the homogeneity degree before asserting it
        p = params_by_case["IV"]
        r = 10.0
        _, (base, scaled) = _forms(p, "detM", [([0.7], 1.2 + 0.5j),
                                               ([0.7 * r], (1.2 + 0.5j) * r * r)])
        degree = math.log10(abs(scaled / base))
        assert degree == pytest.approx(4.0, abs=1e-9)
        assert scaled == pytest.approx(r**4 * base, rel=1e-12)

    def test_wrong_case_rejected(self, params_by_case):
        with pytest.raises(CaseMismatchError):
            make_named_symbol(params_by_case["I"], "detM")


class TestLowerBoundScan:
    def test_case_five_ratio_at_zero_xi(self, params_by_case):
        # |omega^2 + lam/mu| / (|lam|^(1/2)+|xi|)^2 = 2 exactly at xi = 0, mu = 1
        p = params_by_case["V"]
        grid = ScanGrid(xi_magnitudes=[1e-30], directions=[[1.0]],
                        lambda_magnitudes=[1.0], lambda_args=[0.0])
        rep = lower_bound_scan(p, "d5", grid)
        assert rep.infimum == pytest.approx(2.0, rel=1e-12)

    def test_case_three_small_lambda_limit(self, params_by_case):
        # t2 omega -> |xi|^2 as lambda -> 0 along a ray, so the ratio -> 1
        p = params_by_case["III"]
        grid = ScanGrid(xi_magnitudes=[1.0], directions=[[1.0]],
                        lambda_magnitudes=[1e-10], lambda_args=[0.3])
        rep = lower_bound_scan(p, "d3", grid)
        assert rep.infimum == pytest.approx(1.0, rel=1e-4)

    def test_case_one_m1_baseline(self, params_by_case):
        p = params_by_case["I"]
        grid = ScanGrid.logspace(n_xi=24, n_lam=24)
        rep = lower_bound_scan(p, "m1", grid)
        assert rep.infimum > 0
        # frozen baseline from this deterministic grid
        assert rep.infimum == pytest.approx(0.1491413667822, rel=1e-9)
        assert rep.argmin_xi > 0

    def test_stability_under_refinement(self, params_by_case):
        grid = ScanGrid.logspace(n_xi=20, n_lam=20, n_arg=5)
        for case, name in [("I", "m1"), ("II", "m2"), ("III", "d3"),
                           ("IV", "q"), ("V", "d5")]:
            p = classify(*CASE_PARAMS[case])
            inf0, inf1, drift = scan_stability(p, name, grid)
            assert inf0 > 0 and inf1 > 0
            assert drift <= 0.10, (case, name, drift)

    def test_normalized_infimum_scale_invariant(self, params_by_case):
        p = params_by_case["I"]
        for r in (0.1, 10.0):
            g1 = ScanGrid(xi_magnitudes=[0.6], directions=[[1.0]],
                          lambda_magnitudes=[1.7], lambda_args=[0.5])
            g2 = ScanGrid(xi_magnitudes=[0.6 * r], directions=[[1.0]],
                          lambda_magnitudes=[1.7 * r * r], lambda_args=[0.5])
            r1 = lower_bound_scan(p, "m1", g1)
            r2 = lower_bound_scan(p, "m1", g2)
            assert r2.infimum == pytest.approx(r1.infimum, rel=1e-12)

    def test_band_rows_emitted(self, params_by_case):
        p = params_by_case["I"]
        rep = lower_bound_scan(p, "m1", ScanGrid.logspace(n_xi=8, n_lam=8))
        rows = rep.csv_rows()
        assert rows[0] == ("band", "inf", "argmin_xi", "argmin_lam_re", "argmin_lam_im")
        assert len(rep.band_infima) >= 3

    def test_unknown_symbol_rejected(self, params_by_case):
        # the registry lookup's DomainError, not a bare KeyError from the order table
        from kortsolve import DomainError
        with pytest.raises(DomainError, match="unknown symbol 'zz'"):
            lower_bound_scan(params_by_case["I"], "zz", ScanGrid.logspace(n_xi=4, n_lam=4))
