import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from kortsolve import (BoundaryTrace, BvpConfig, ConfigurationError, TangentialMode,
                       compare_with_closed_form, compute_roots, convergence_study,
                       solve_mode_bvp)
from kortsolve import oracle
from kortsolve.oracle import _box_solve, companion_matrix


def _mode_and_trace():
    return TangentialMode(xi=[1.0], lam=1.0), BoundaryTrace(1.0, [0.0])


def _reference_blocks(A, config):
    """Test-only reference: the (left, right) blocks of one box row."""
    h = config.length / (config.n - 1)
    eye = np.eye(A.shape[0], dtype=complex)
    if config.scheme == "second_order_fd":
        return -(eye / h + A / 2.0), eye / h - A / 2.0
    A2 = A @ A
    return -(eye / h + A / 2.0 + (h / 12.0) * A2), eye / h - A / 2.0 + (h / 12.0) * A2


def _reference_discrete_system(A, lam, trace, config):
    """Test-only reference: the system assembled block by block as a sparse matrix.

    Rows are the n-1 block rows, then the x = 0 rows, then the x = L rows;
    the unknowns are node-major (node i holds y at x_i).
    """
    dim, n = A.shape[0], config.n
    N = dim // 2 - 1
    left, right = _reference_blocks(A, config)

    rows, cols, vals = [], [], []
    rhs = np.zeros(dim * n, dtype=complex)

    def put_block(r0, c0, block):
        idx = np.nonzero(block)
        rows.extend((r0 + idx[0]).tolist())
        cols.extend((c0 + idx[1]).tolist())
        vals.extend(block[idx].tolist())

    for i in range(n - 1):
        put_block(i * dim, i * dim, left)
        put_block(i * dim, (i + 1) * dim, right)

    r = (n - 1) * dim
    iun, iphi, idphi = 2 * N - 2, 2 * N - 1, 2 * N
    for j in range(N - 1):  # u_j(0) = h_j
        rows.append(r)
        cols.append(2 * j)
        vals.append(1.0)
        rhs[r] = trace.h_hat[j]
        r += 1
    rows.append(r)  # u_N(0) = 0
    cols.append(iun)
    vals.append(1.0)
    r += 1
    rows.append(r)  # phi'(0) = lam * g
    cols.append(idphi)
    vals.append(1.0)
    rhs[r] = lam * trace.g_hat
    r += 1
    far = (n - 1) * dim
    for c in [*range(0, 2 * N - 2, 2), iun, iphi]:  # u_j(L) = u_N(L) = phi(L) = 0
        rows.append(r)
        cols.append(far + c)
        vals.append(1.0)
        r += 1
    assert r == dim * n
    return sp.csc_matrix((vals, (rows, cols)), shape=(dim * n, dim * n)), rhs


def _reference_case(params_by_case, name, dim, scheme):
    p = params_by_case[name]
    mode = TangentialMode(xi=[0.7, -0.3][:dim - 1], lam=1.2 + 0.4j, dim=dim)
    trace = BoundaryTrace(0.8 - 0.6j, [0.5 + 0.25j, -0.3 + 1.1j][:dim - 1])
    config = BvpConfig.for_mode(p, mode, n=256, scheme=scheme)
    return p, mode, trace, config


def _on_case_grid(test):
    """Parametrize over cases I-V, 2-D and 3-D modes, and both schemes."""
    # Marks applied later come later in the test ids: name-dim-scheme, as before.
    for arg, values in (("name", ["I", "II", "III", "IV", "V"]), ("dim", [2, 3]),
                        ("scheme", ["second_order_fd", "fourth_order_fd"])):
        test = pytest.mark.parametrize(arg, values)(test)
    return test


class TestAssembly:
    @_on_case_grid
    def test_matches_block_loop_reference(self, params_by_case, name, dim, scheme):
        # The solve satisfies every block row and boundary row of the reference.
        # Over 40 decay lengths the growing directions stay below rounding of
        # the peak, so a 3-decay-length box checks them too.
        p, mode, trace, config = _reference_case(params_by_case, name, dim, scheme)
        A = companion_matrix(p, mode)
        for length in (config.length, config.length * 3.0 / 40.0):
            config = BvpConfig(length=length, n=config.n, scheme=scheme)
            y = _box_solve(A, mode.lam, trace, config)
            assert y.shape == (config.n, 2 * dim + 2)
            ref, ref_rhs = _reference_discrete_system(A, mode.lam, trace, config)
            residual = np.abs(ref @ y.ravel() - ref_rhs)
            scale = np.max(np.abs(y)) * sum(np.linalg.norm(b, np.inf)
                                            for b in _reference_blocks(A, config))
            assert np.max(residual) <= 1e-12 * scale


class TestBandSolve:
    @_on_case_grid
    def test_agrees_with_sparse_reference_solve(self, params_by_case, name, dim, scheme):
        p, mode, trace, config = _reference_case(params_by_case, name, dim, scheme)
        ref, ref_rhs = _reference_discrete_system(companion_matrix(p, mode), mode.lam,
                                                  trace, config)
        y = spla.spsolve(ref, ref_rhs).reshape(config.n, 2 * dim + 2)
        sol = solve_mode_bvp(p, mode, trace, config)
        got = np.vstack([sol.u, sol.phi[None, :]])
        want = y[:, [*range(0, 2 * dim - 2, 2), 2 * dim - 2, 2 * dim - 1]].T
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    def test_singular_system_raises(self, params_by_case, monkeypatch):
        p = params_by_case["I"]
        mode, trace = _mode_and_trace()
        cfg = BvpConfig.for_mode(p, mode, n=256)
        A = companion_matrix(p, mode)
        A[1, 0] = np.nan
        monkeypatch.setattr(oracle, "companion_matrix", lambda params, mode: A)
        with pytest.raises(ConfigurationError, match=r"n=256, L="):
            solve_mode_bvp(p, mode, trace, cfg)

    def test_singular_right_block(self, params_by_case):
        # h * omega = 2 makes the second-order right block I/h - A/2 singular:
        # the pencil has an infinite eigenvalue, which must sort as growing
        p = params_by_case["I"]
        mode = TangentialMode(xi=[0.7], lam=1.3)
        trace = BoundaryTrace(0.8 - 0.6j, [0.5 + 0.25j])
        n = 256
        config = BvpConfig(length=2.0 * (n - 1) / compute_roots(p, mode).omega.real, n=n)
        A = companion_matrix(p, mode)
        assert np.linalg.cond(_reference_blocks(A, config)[1]) > 1e14
        ref, ref_rhs = _reference_discrete_system(A, mode.lam, trace, config)
        want = spla.spsolve(ref, ref_rhs).reshape(n, 6)
        got = _box_solve(A, mode.lam, trace, config)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    def test_no_dichotomy_raises(self, params_by_case, monkeypatch):
        # an eigenvalue pair on the imaginary axis neither decays nor grows
        p = params_by_case["I"]
        mode, trace = _mode_and_trace()
        cfg = BvpConfig.for_mode(p, mode, n=256)
        S = np.random.default_rng(7).normal(size=(6, 6, 2)) @ [1.0, 1j]
        A = S @ np.diag([-1.0, -2.0, 1.0, 2.0, 0.5j, -0.5j]) @ np.linalg.inv(S)
        monkeypatch.setattr(oracle, "companion_matrix", lambda params, mode: A)
        with pytest.raises(ConfigurationError, match=r"n=256, L=.*does not split"):
            solve_mode_bvp(p, mode, trace, cfg)


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

    @pytest.mark.parametrize("scheme", ["second_order_fd", "fourth_order_fd"])
    def test_boundary_rows_enforced_in_3d(self, params_by_case, scheme):
        p = params_by_case["IV"]
        mode = TangentialMode(xi=[0.6, -0.4], lam=1.1 + 0.3j, dim=3)
        trace = BoundaryTrace(0.7 - 0.2j, [1.0 + 0.5j, -0.4 + 0.8j])
        cfg = BvpConfig.for_mode(p, mode, n=2048, scheme=scheme)
        sol = solve_mode_bvp(p, mode, trace, cfg)
        assert sol.u.shape == (3, 2048)
        # x = 0: u_1 = h_1, u_2 = h_2, u_3 = 0, d_N rho = -g
        assert sol.u[0, 0] == pytest.approx(trace.h_hat[0], rel=1e-12)
        assert sol.u[1, 0] == pytest.approx(trace.h_hat[1], rel=1e-12)
        assert abs(sol.u[2, 0]) <= 1e-12
        h = sol.x[1] - sol.x[0]
        drho = (-3.0 * sol.rho[0] + 4.0 * sol.rho[1] - sol.rho[2]) / (2.0 * h)
        assert drho == pytest.approx(-trace.g_hat, rel=1e-3)
        # x = L: u_1 = u_2 = u_3 = phi = 0
        scale = max(np.max(np.abs(sol.u)), np.max(np.abs(sol.phi)))
        assert np.max(np.abs(sol.u[:, -1])) <= 1e-12 * scale
        assert abs(sol.phi[-1]) <= 1e-12 * scale

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
        for length in (-1.0, 0.0, np.nan, np.inf, -np.inf):
            with pytest.raises(ConfigurationError, match="positive and finite"):
                BvpConfig(length=length, n=256)
        with pytest.raises(ConfigurationError):
            BvpConfig(length=1.0, n=256, scheme="spectral")

    def test_node_count_must_be_an_integer(self):
        with pytest.raises(ConfigurationError, match=r"^the node count n must be an integer, got 256\.5$"):
            BvpConfig(length=20.0, n=256.5)
        assert BvpConfig(length=20.0, n=np.int64(256)).n == 256


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
