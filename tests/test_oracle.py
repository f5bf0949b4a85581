import numpy as np
import pytest

from kortsolve import (BoundaryTrace, BvpConfig, ConfigurationError, TangentialMode,
                       compare_with_closed_form, convergence_study, solve_mode_bvp)



def _mode_and_trace():
    return TangentialMode(xi=[1.0], lam=1.0), BoundaryTrace(1.0, [0.0])


class TestBvpSolve:
    def test_zero_trace_zero_solution(self, params_by_case):
        p = params_by_case["I"]
        mode, _ = _mode_and_trace()
        cfg = BvpConfig.for_mode(p, mode, n=256)
        sol = solve_mode_bvp(p, mode, BoundaryTrace(0.0, [0.0]), cfg)
        assert np.max(np.abs(sol.u)) <= 1e-12
        assert np.max(np.abs(sol.rho)) <= 1e-12

    def test_case_one_agreement_at_n4096(self, params_by_case):
        p = params_by_case["I"]
        mode, trace = _mode_and_trace()
        cfg = BvpConfig.for_mode(p, mode, n=4096)
        err, sol = compare_with_closed_form(p, mode, trace, cfg)
        assert err <= 1e-4
        assert sol.far_field_ratio <= np.exp(-30)

    def test_boundary_rows_enforced(self, params_by_case):
        p = params_by_case["II"]
        mode = TangentialMode(xi=[0.8], lam=1.5 + 0.5j)
        trace = BoundaryTrace(0.7 - 0.2j, [1.0 + 0.5j])
        cfg = BvpConfig.for_mode(p, mode, n=2048)
        sol = solve_mode_bvp(p, mode, trace, cfg)
        assert sol.u[0, 0] == pytest.approx(trace.h_hat[0], rel=1e-12)
        assert abs(sol.u[1, 0]) <= 1e-12
        # d_N rho(0) = -g, read off with a one-sided second-order difference
        h = sol.x[1] - sol.x[0]
        drho = (-3.0 * sol.rho[0] + 4.0 * sol.rho[1] - sol.rho[2]) / (2.0 * h)
        assert drho == pytest.approx(-trace.g_hat, rel=1e-3)

    def test_all_cases_modest_grid(self, params_by_case, rng):
        for name, p in params_by_case.items():
            for _ in range(3):
                xi = rng.uniform(-1.5, 1.5)
                lam = 10.0 ** rng.uniform(-0.5, 0.5) * np.exp(1j * rng.uniform(-0.7, 0.7))
                mode = TangentialMode(xi=[xi], lam=lam)
                trace = BoundaryTrace(rng.normal() + 1j * rng.normal(), [rng.normal()])
                cfg = BvpConfig.for_mode(p, mode, n=2048)
                err, _ = compare_with_closed_form(p, mode, trace, cfg)
                assert err <= 5e-4, (name, xi, lam)

    def test_three_dimensional_mode(self, params_by_case):
        p = params_by_case["III"]
        mode = TangentialMode(xi=[0.6, -0.4], lam=1.1 + 0.3j, dim=3)
        trace = BoundaryTrace(1.0, [0.5, -0.25j])
        cfg = BvpConfig.for_mode(p, mode, n=2048)
        err, _ = compare_with_closed_form(p, mode, trace, cfg)
        assert err <= 2e-4

    def test_small_n_warns(self, params_by_case):
        with pytest.warns(UserWarning):
            BvpConfig(length=10.0, n=16)

    def test_config_validation(self):
        with pytest.raises(ConfigurationError):
            BvpConfig(length=-1.0, n=256)
        with pytest.raises(ConfigurationError):
            BvpConfig(length=1.0, n=256, scheme="spectral")


class TestConvergence:
    def test_second_order(self, params_by_case):
        p = params_by_case["I"]
        mode, trace = _mode_and_trace()
        study = convergence_study(p, mode, trace, [256, 512, 1024])
        assert study.monotone
        assert study.order_estimate == pytest.approx(2.0, abs=0.3)

    def test_fourth_order(self, params_by_case):
        p = params_by_case["II"]
        mode, trace = _mode_and_trace()
        study = convergence_study(p, mode, trace, [64, 128, 256],
                                  scheme="fourth_order_fd")
        assert study.monotone
        assert study.order_estimate == pytest.approx(4.0, abs=0.5)

    def test_wrong_bc_sign_collapses_order(self, params_by_case):
        # sentinel: corrupting the boundary data must destroy convergence
        p = params_by_case["I"]
        mode, trace = _mode_and_trace()
        wrong = BoundaryTrace(-trace.g_hat, trace.h_hat)  # sign-flipped g
        from kortsolve import solve_mode
        closed = solve_mode(p, mode, trace)
        errors = []
        for n in (256, 512, 1024):
            cfg = BvpConfig(length=BvpConfig.for_mode(p, mode, n=n).length, n=n)
            err, _ = compare_with_closed_form(p, mode, wrong, cfg, closed=closed)
            errors.append(err)
        orders = [np.log2(errors[i] / errors[i + 1]) for i in range(2)]
        assert abs(np.mean(orders)) < 0.3  # stagnates at the data mismatch

    def test_saturation_flagged(self, params_by_case):
        # an error floor independent of n (here: interval truncation with a
        # deliberately short interval) stalls the order estimate instead of
        # being averaged into a fake rate
        p = params_by_case["V"]
        mode = TangentialMode(xi=[0.0], lam=1.0)
        trace = BoundaryTrace(1.0, [0.5])
        length = 10.0  # exp(-10) truncation floor ~ 5e-5
        study = convergence_study(p, mode, trace, [256, 512, 1024],
                                  length=length, scheme="fourth_order_fd")
        assert study.errors[-1] >= 1e-6  # floor, not rounding
        assert study.order_estimate < 1.0

    def test_requires_three_increasing_sizes(self, params_by_case):
        p = params_by_case["I"]
        mode, trace = _mode_and_trace()
        with pytest.raises(ConfigurationError):
            convergence_study(p, mode, trace, [128, 64, 256])
        with pytest.raises(ConfigurationError):
            convergence_study(p, mode, trace, [128, 256])
