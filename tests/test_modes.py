import cmath
import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kortsolve import (BoundaryTrace, Case, ConsistencyError, DomainError, ModeSolution,
                       TangentialMode, VerticalProfile, assembled_formula_check,
                       boundary_residuals, classify, compute_roots, make_named_symbol,
                       pde_residual, solve_mode)
from kortsolve import symbols
from kortsolve.modes import (_CASES, DECAY_SUPPORT, _batch, _derivative, batch_residuals,
                             default_sample_points, evaluate_profiles, solve_modes)

from tests.conftest import CASE_PARAMS, random_mode_values, random_trace

PDE_TOL = 1e-10
BOUNDARY_TOL = 1e-12


def _solve(triple, xi, lam, g, h):
    p = classify(*triple)
    mode = TangentialMode(xi=np.atleast_1d(xi), lam=lam, dim=np.atleast_1d(xi).size + 1)
    trace = BoundaryTrace(g, np.atleast_1d(h))
    return p, mode, trace, solve_mode(p, mode, trace)


class TestSolveMode:
    def test_zero_trace_gives_zero_solution(self, params_by_case):
        for p in params_by_case.values():
            mode = TangentialMode(xi=[0.7], lam=1.0 + 0.5j)
            sol = solve_mode(p, mode, BoundaryTrace(0.0, [0.0]))
            x = np.linspace(0, 10, 21)
            assert np.max(np.abs(sol.rho.evaluate(x))) == 0.0
            assert all(np.max(np.abs(u.evaluate(x))) == 0.0 for u in sol.u)

    def test_case_one_example_coefficients(self):
        # beta_N = lambda L11 g / det L for pure-g data
        p, mode, trace, sol = _solve((1, 1, 2), 1.0, 1.0, 1.0, 0.0)
        r = compute_roots(p, mode)
        L11 = -r.t1 * (r.t2 * r.omega - 1.0)
        expect = mode.lam * L11 / make_named_symbol(p, "detL").alt_eval(mode.xi, mode.lam)
        assert sol.batch.beta[0, -1] == pytest.approx(expect, rel=1e-12)
        assert sol.rho.derivative_at_zero() == pytest.approx(-1.0, rel=1e-12)
        rep = pde_residual(p, mode, sol)
        assert rep.pde_max <= PDE_TOL

    def test_case_five_unit_example(self):
        # omega = 1, beta_N = -1/2, u_N = -x e^{-x} / 2, dN rho(0) = -1
        p, mode, trace, sol = _solve((1, 1, 1), 0.0, 1.0, 1.0, 0.0)
        assert sol.batch.beta[0, -1] == pytest.approx(-0.5)
        x = np.linspace(0, 5, 11)
        np.testing.assert_allclose(sol.u[-1].evaluate(x), -0.5 * x * np.exp(-x),
                                   rtol=0, atol=1e-15)
        assert sol.rho.derivative_at_zero() == pytest.approx(-1.0)
        # rho = (1/2) e^{-x} - (1/2) x e^{-x} per the closed-form coefficients
        np.testing.assert_allclose(sol.rho.evaluate(x), 0.5 * np.exp(-x) * (1 - x),
                                   rtol=0, atol=1e-15)

    def test_divergence_and_mass_identities(self, params_by_case, rng):
        for p in params_by_case.values():
            for xi, lam in random_mode_values(rng, 6):
                g, h = random_trace(rng)
                mode = TangentialMode(xi=xi, lam=lam)
                sol = solve_mode(p, mode, BoundaryTrace(g, h))
                rep = pde_residual(p, mode, sol)
                assert rep.per_equation["mass"] <= 1e-12
                assert rep.per_equation["divergence"] <= 1e-12

    def test_char_operator_annihilates_phi(self, params_by_case, rng):
        # P_lambda(d_N) phi = 0 as a profile identity
        from kortsolve import char_poly
        for p in params_by_case.values():
            xi, lam = random_mode_values(rng, 1)[0]
            mode = TangentialMode(xi=xi, lam=lam)
            sol = solve_mode(p, mode, BoundaryTrace(1.0, [0.5 - 0.25j]))
            phi = sol.phi
            mu_nu = p.mu + p.nu
            lap = phi.differentiate(2) + phi.scaled(-mode.xi_sq)
            lap2 = lap.differentiate(2) + lap.scaled(-mode.xi_sq)
            combo = phi.scaled(lam * lam) + lap.scaled(-lam * mu_nu) + lap2.scaled(p.kappa)
            x = default_sample_points(p, mode)
            scale = sum(abs(c) for c, _, _ in combo.terms()) * (abs(lam) + mode.xi_sq) ** 2
            assert np.max(np.abs(combo.evaluate(x))) <= 1e-12 * max(scale, 1e-300)

    def test_full_sweep_all_cases(self, rng):
        for name, triple in CASE_PARAMS.items():
            p = classify(*triple)
            for xi, lam in random_mode_values(rng, 20):
                g, h = random_trace(rng)
                mode = TangentialMode(xi=xi, lam=lam)
                trace = BoundaryTrace(g, h)
                sol = solve_mode(p, mode, trace)
                rep = pde_residual(p, mode, sol)
                assert rep.pde_max <= PDE_TOL, (name, xi, lam)
                bres = boundary_residuals(p, mode, sol, trace)
                assert max(bres.values()) <= BOUNDARY_TOL, (name, xi, lam)

    def test_linearity(self, params_by_case, rng):
        p = params_by_case["II"]
        mode = TangentialMode(xi=[0.9], lam=2.0 - 0.7j)
        g1, h1 = random_trace(rng)
        g2, h2 = random_trace(rng)
        a, b = 2.0 - 1.0j, -0.3 + 0.8j
        s1 = solve_mode(p, mode, BoundaryTrace(g1, h1))
        s2 = solve_mode(p, mode, BoundaryTrace(g2, h2))
        s3 = solve_mode(p, mode, BoundaryTrace(a * g1 + b * g2, a * h1 + b * h2))
        for attr in ("alpha", "beta", "gamma"):
            lhs = getattr(s3.batch, attr)[0]
            rhs = a * getattr(s1.batch, attr)[0] + b * getattr(s2.batch, attr)[0]
            np.testing.assert_allclose(lhs, rhs, rtol=1e-12, atol=1e-12 * np.abs(rhs).max())

    def test_homogeneity_of_u_coefficients(self, params_by_case):
        # With traces held fixed, both the g-driven and the h-driven parts of
        # beta_N are invariant under (xi, lam) -> (r xi, r^2 lam): the degree
        # bookkeeping is lam(2) L11(3) / detL(5) = 0 and t1 t2 L12 xi(4+1)
        # / detL(5) = 0.  The u profiles then transform as u(x) -> u(r x).
        p = params_by_case["I"]
        for r in (0.125, 8.0):
            m1 = TangentialMode(xi=[0.8], lam=1.5 + 0.5j)
            m2 = TangentialMode(xi=[0.8 * r], lam=(1.5 + 0.5j) * r * r)
            sg1 = solve_mode(p, m1, BoundaryTrace(1.0, [0.0]))
            sg2 = solve_mode(p, m2, BoundaryTrace(1.0, [0.0]))
            assert sg2.batch.beta[0, -1] == pytest.approx(sg1.batch.beta[0, -1], rel=1e-11)
            sh1 = solve_mode(p, m1, BoundaryTrace(0.0, [1.0]))
            sh2 = solve_mode(p, m2, BoundaryTrace(0.0, [1.0]))
            assert sh2.batch.beta[0, -1] == pytest.approx(sh1.batch.beta[0, -1], rel=1e-11)
            x = np.linspace(0.0, 4.0, 9)
            np.testing.assert_allclose(sh2.u[-1].evaluate(x / r), sh1.u[-1].evaluate(x),
                                       rtol=1e-11)

    def test_three_dimensional_modes(self, params_by_case, rng):
        for name in ("I", "III", "IV", "V"):
            p = params_by_case[name]
            xi = np.array([0.8, -0.5])
            mode = TangentialMode(xi=xi, lam=1.2 + 0.4j, dim=3)
            trace = BoundaryTrace(1.0 - 0.5j, [0.3, -0.7j])
            sol = solve_mode(p, mode, trace)
            rep = pde_residual(p, mode, sol)
            assert rep.pde_max <= PDE_TOL
            assert max(boundary_residuals(p, mode, sol, trace).values()) <= BOUNDARY_TOL
            assert assembled_formula_check(p, mode, trace) <= 1e-8

    def test_case_boundary_continuity_ii_to_iv(self):
        # case II parameters just off the eta = 0 manifold vs case IV on it
        eps = 1e-6
        p_near = classify(3, 1, 4 * (1 - eps))
        p_on = classify(3, 1, 4)
        assert p_near.case is Case.II and p_on.case is Case.IV
        mode = TangentialMode(xi=[0.8], lam=1.3 + 0.6j)
        trace = BoundaryTrace(1.0, [0.5 - 0.2j])
        x = default_sample_points(p_on, mode)
        a = solve_mode(p_near, mode, trace)
        b = solve_mode(p_on, mode, trace)
        scale = max(np.max(np.abs(b.rho.evaluate(x))),
                    max(np.max(np.abs(u.evaluate(x))) for u in b.u))
        worst = max(np.max(np.abs(a.rho.evaluate(x) - b.rho.evaluate(x))),
                    max(np.max(np.abs(ua.evaluate(x) - ub.evaluate(x)))
                        for ua, ub in zip(a.u, b.u)))
        assert worst / scale <= 1e-3

    def test_case_boundary_continuity_i_to_v(self):
        eps = 1e-6
        p_near = classify(1, 1, 1 + eps)  # eta < 0: case I
        p_on = classify(1, 1, 1)
        assert p_near.case is Case.I and p_on.case is Case.V
        mode = TangentialMode(xi=[1.1], lam=0.9 - 0.4j)
        trace = BoundaryTrace(0.7 + 0.1j, [1.0])
        x = default_sample_points(p_on, mode)
        a = solve_mode(p_near, mode, trace)
        b = solve_mode(p_on, mode, trace)
        scale = max(np.max(np.abs(b.rho.evaluate(x))),
                    max(np.max(np.abs(u.evaluate(x))) for u in b.u))
        worst = max(np.max(np.abs(a.rho.evaluate(x) - b.rho.evaluate(x))),
                    max(np.max(np.abs(ua.evaluate(x) - ub.evaluate(x)))
                        for ua, ub in zip(a.u, b.u)))
        assert worst / scale <= 1e-3


class TestAssembledFormulas:
    def test_cases_one_two_random(self, rng):
        for name in ("I", "II"):
            p = classify(*CASE_PARAMS[name])
            for xi, lam in random_mode_values(rng, 8):
                g, h = random_trace(rng)
                mode = TangentialMode(xi=xi, lam=lam)
                worst = assembled_formula_check(p, mode, BoundaryTrace(g, h))
                assert worst <= 1e-10, (name, xi, lam)

    def test_case_four_exercises_linear_kernels(self, params_by_case, rng):
        p = params_by_case["IV"]
        for xi, lam in random_mode_values(rng, 8):
            mode = TangentialMode(xi=xi, lam=lam)
            g, h = random_trace(rng)
            assert assembled_formula_check(p, mode, BoundaryTrace(g, h)) <= 1e-10

    def test_case_three_pure_g_reduction(self, params_by_case):
        # at xi = 0 the h-terms carry xi factors and drop out
        p = params_by_case["III"]
        mode = TangentialMode(xi=[0.0], lam=2.0 + 1.0j)
        worst = assembled_formula_check(p, mode, BoundaryTrace(1.0, [123.0]))
        assert worst <= 1e-12

    def test_case_five_random(self, params_by_case, rng):
        p = params_by_case["V"]
        for xi, lam in random_mode_values(rng, 6):
            mode = TangentialMode(xi=xi, lam=lam)
            g, h = random_trace(rng)
            assert assembled_formula_check(p, mode, BoundaryTrace(g, h)) <= 1e-10

    def test_transcription_failure_raises(self, params_by_case):
        p = params_by_case["I"]
        mode = TangentialMode(xi=[1.0], lam=1.0)
        with pytest.raises(ConsistencyError):
            assembled_formula_check(p, mode, BoundaryTrace(1.0, [0.5]), fail_above=1e-18)

    @pytest.mark.parametrize("case, name", [("I", "m1"), ("II", "n2"), ("I", "L21"),
                                            ("III", "d3"), ("IV", "q"), ("IV", "M12"),
                                            ("V", "d5")])
    def test_route_applies_registry_forms(self, params_by_case, monkeypatch, case, name):
        # a defect in one registry raw form must show as a route discrepancy
        order, cases, raw, alt = symbols._REGISTRY[name]
        perturbed = (order, cases, lambda *args: raw(*args) * (1.0 + 1e-6), alt)
        monkeypatch.setitem(symbols._REGISTRY, name, perturbed)
        mode = TangentialMode(xi=[0.9], lam=1.3 + 0.6j)
        with pytest.raises(ConsistencyError):
            assembled_formula_check(params_by_case[case], mode, BoundaryTrace(1.0, [0.5 - 0.25j]))


# ---------------------------------------------------------------------------
# Test-only reference: the per-mode residual on VerticalProfile algebra that
# `batch_residuals` replaced.  Every identity is a list of term profiles whose
# values are summed on the sample points and whose coefficients are never
# merged.
# ---------------------------------------------------------------------------


def _reference_normalized_residual(term_profiles, x):
    vals = np.array([p.evaluate(x) for p in term_profiles])
    residual = np.abs(vals.sum(axis=0)).max()
    scale = sum(p.magnitude_scale() for p in term_profiles)
    return 0.0 if scale == 0.0 else float(residual / scale)


def _reference_pde_residual(params, mode, solution, x):
    """(per_equation, per_boundary) of one mode solution."""
    lam, xi, xi_sq = mode.lam, mode.xi, mode.xi_sq
    mu, nu, kappa = params.mu, params.nu, params.kappa
    rho, u = solution.rho, solution.u
    div = VerticalProfile.zero()
    for j in range(mode.dim - 1):
        div = div + u[j].scaled(1j * xi[j])
    div = div + u[mode.dim - 1].differentiate(1)

    def lap(profile):
        return profile.differentiate(2) + profile.scaled(-xi_sq)

    per_equation = {"mass": _reference_normalized_residual([rho.scaled(lam), div], x),
                    "divergence": _reference_normalized_residual(
                        [solution.phi, div.scaled(-1.0)], x)}
    lap_rho = lap(rho)
    for j in range(mode.dim - 1):
        terms = [u[j].scaled(lam), lap(u[j]).scaled(-mu),
                 div.scaled(-nu * 1j * xi[j]), lap_rho.scaled(-kappa * 1j * xi[j])]
        per_equation[f"momentum_{j + 1}"] = _reference_normalized_residual(terms, x)
    terms = [u[-1].scaled(lam), lap(u[-1]).scaled(-mu),
             div.differentiate(1).scaled(-nu), lap_rho.differentiate(1).scaled(-kappa)]
    per_equation["momentum_N"] = _reference_normalized_residual(terms, x)

    per_boundary = {}
    trace_scale = max(abs(c) for c in
                      [*(p.value_at_zero() for p in u), rho.derivative_at_zero(), 1e-300])
    for j in range(mode.dim - 1):
        target = solution.batch.alpha[0, j]
        scale = max(u[j].magnitude_scale(), abs(target), trace_scale)
        per_boundary[f"u_{j + 1}(0)-h_{j + 1}"] = abs(u[j].value_at_zero() - target) / scale
    per_boundary["u_N(0)"] = abs(u[-1].value_at_zero()) \
        / max(u[-1].magnitude_scale(), trace_scale)
    g_hat = solution.phi.derivative_at_zero() / lam
    drho = rho.differentiate(1)
    scale = max(drho.magnitude_scale(), abs(g_hat), 1e-300)
    per_boundary["dN_rho(0)+g"] = abs(drho.evaluate(0.0) + g_hat) / scale
    return per_equation, per_boundary


def _reference_boundary_residuals(mode, solution, trace):
    out = {}
    u = solution.u
    floor = max(trace.scale(), 1e-300)
    for j in range(mode.dim - 1):
        scale = max(u[j].magnitude_scale(), floor)
        out[f"u_{j + 1}(0)-h_{j + 1}"] = abs(u[j].value_at_zero() - trace.h_hat[j]) / scale
    out["u_N(0)"] = abs(u[-1].value_at_zero()) / max(u[-1].magnitude_scale(), floor)
    drho = solution.rho.differentiate(1)
    out["dN_rho(0)+g"] = abs(drho.evaluate(0.0) + trace.g_hat) / max(drho.magnitude_scale(), floor)
    return out


class TestResiduals:
    def test_zero_solution_nonzero_trace_flags_boundary(self, params_by_case):
        p = params_by_case["I"]
        mode = TangentialMode(xi=[1.0], lam=1.0)
        sol = solve_mode(p, mode, BoundaryTrace(0.0, [0.0]))
        sol = ModeSolution(dataclasses.replace(sol.batch, coeffs=np.zeros_like(sol.batch.coeffs)))
        bres = boundary_residuals(p, mode, sol, BoundaryTrace(2.0, [3.0]))
        # defects equal the trace magnitudes, normalized by the trace scale 3
        assert bres["u_1(0)-h_1"] == pytest.approx(3.0 / 3.0)
        assert bres["dN_rho(0)+g"] == pytest.approx(2.0 / 3.0)

    def test_perturbed_coefficient_detected(self, params_by_case):
        p = params_by_case["I"]
        mode = TangentialMode(xi=[1.0], lam=1.0)
        sol = solve_mode(p, mode, BoundaryTrace(1.0, [0.5]))
        # u_N's beta_N slot by 1.01, its omega slot adjusted so that
        # u_N(0) = alpha_N still holds
        coeffs = sol.batch.coeffs.copy()
        u_n = coeffs[mode.dim, 0, :, 0]  # the omega, t1 (beta_N) and t2 (gamma_N) slots
        beta_n = u_n[1] * 1.01
        u_n[0] -= beta_n - u_n[1]
        u_n[1] = beta_n
        bad = ModeSolution(dataclasses.replace(sol.batch, coeffs=coeffs))
        rep = pde_residual(p, mode, bad)
        assert rep.pde_max > 1e-6
        assert rep.worst_equation() in ("momentum_N", "mass", "divergence")

    def test_solution_of_another_mode_rejected(self, params_by_case):
        p = params_by_case["I"]
        mode = TangentialMode(xi=[1.0], lam=1.0)
        trace = BoundaryTrace(1.0, [0.5])
        sol = solve_mode(p, mode, trace)
        for other_params, other_mode in [(params_by_case["II"], mode),
                                         (p, TangentialMode(xi=[1.0], lam=1.0 + 0.5j)),
                                         (p, TangentialMode(xi=[2.0], lam=1.0))]:
            with pytest.raises(DomainError, match="solution was solved for"):
                pde_residual(other_params, other_mode, sol)
            with pytest.raises(DomainError, match="solution was solved for"):
                boundary_residuals(other_params, other_mode, sol, trace)

    def test_sample_ladder_shape(self, params_by_case):
        p = params_by_case["I"]
        mode = TangentialMode(xi=[1.0], lam=1.0)
        pts = default_sample_points(p, mode)
        assert pts[0] == 0.0
        assert len(pts) == 13


# Parameter triples of every case, and triples at 1e-9..1e-13 relative
# distance from the eta = 0 (case IV) and kappa = mu nu (case III) manifolds
# and from their intersection (case V).
BATCH_TRIPLES = list(CASE_PARAMS.values()) + [
    triple for d in (1e-9, 1e-11, 1e-13)
    for triple in ((3, 1, 4 * (1 + d)), (2, 1, 2 * (1 + d)), (1, 1, 1 + d))
]


def _batch_inputs(seed, dim, n_modes=16):
    """Modes at one lambda with |xi|^2/|lambda| log-uniform over 1e-4..1e8."""
    rng = np.random.default_rng(seed)
    lam = 10.0 ** rng.uniform(-1, 1) * np.exp(1j * rng.uniform(-1.5, 1.5))
    ratio = 10.0 ** rng.uniform(-4, 8, n_modes)
    dirs = rng.normal(size=(n_modes, dim - 1))
    dirs /= np.linalg.norm(dirs, axis=1)[:, None]
    xi = dirs * np.sqrt(ratio * abs(lam))[:, None]
    g = rng.normal(size=n_modes) + 1j * rng.normal(size=n_modes)
    h = rng.normal(size=(n_modes, dim - 1)) + 1j * rng.normal(size=(n_modes, dim - 1))
    return xi, lam, g, h


def _per_mode_inputs(dim, n_modes=40, seed=17):
    """Modes with a lambda each: |lambda| 1e-2..1e2, |arg| <= 1.4, |xi| <= 20, one xi = 0."""
    rng = np.random.default_rng([seed, dim])
    lam = 10.0 ** rng.uniform(-2, 2, n_modes) * np.exp(1j * rng.uniform(-1.4, 1.4, n_modes))
    xi = rng.uniform(-20.0, 20.0, (n_modes, dim - 1)) * 10.0 ** rng.uniform(-2, 0, (n_modes, 1))
    xi[0] = 0.0
    g = rng.normal(size=n_modes) + 1j * rng.normal(size=n_modes)
    h = rng.normal(size=(n_modes, dim - 1)) + 1j * rng.normal(size=(n_modes, dim - 1))
    return xi, lam, g, h


def _scalar_reference(p, xi, lam, g, h):
    """Test-only reference: the case formula on one mode's Python complex scalars.

    The scalar solve as it was written before the batch took it over:
    |xi|^2 and xi . h summed in axis order, cmath roots.
    """
    xi_sq, xh = 0.0, 0j
    for x, hj in zip(xi.tolist(), h.tolist()):
        xi_sq += x * x
        xh += complex(x) * hj
    lam = complex(lam)
    roots = [cmath.sqrt(xi_sq + s * lam) for s in (p.s1, p.s2, p.inv_mu)]
    return _CASES[p.case][0](p, xi, xi_sq, lam, complex(g), 1j * xh, *roots)


class TestModeBatch:
    @pytest.mark.parametrize("triple", BATCH_TRIPLES)
    @pytest.mark.parametrize("dim", [2, 3])
    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=5, deadline=None, derandomize=True)
    def test_batch_matches_batches_of_one(self, triple, dim, seed):
        p = classify(*triple)
        xi, lam, g, h = _batch_inputs(seed, dim)
        batch = solve_modes(p, xi, lam, g, h)
        for k in range(len(xi)):
            one = solve_modes(p, xi[k:k + 1], lam, g[k:k + 1], h[k:k + 1])
            np.testing.assert_array_equal(one.rates[0], batch.rates[k])
            got, want = batch.coeffs[:, k], one.coeffs[:, 0]
            assert np.all(np.abs(got - want) <= 1e-15 * np.abs(want))
            # solve_mode is the batch of one (bit for bit, see
            # test_per_mode_lambda_matches_scalar_reference)
            sol = solve_mode(p, TangentialMode(xi=xi[k], lam=lam, dim=dim),
                             BoundaryTrace(g[k], h[k]))
            view = ModeSolution(batch.take([k]))
            for a, b in [(view.rho, sol.rho), (view.phi, sol.phi), *zip(view.u, sol.u)]:
                np.testing.assert_array_equal(a.powers, b.powers)
                np.testing.assert_allclose(a.rates, b.rates, rtol=1e-15)
                assert np.max(np.abs(a.coeffs - b.coeffs)) <= 1e-14 * np.max(np.abs(b.coeffs))

    @pytest.mark.parametrize("name", list(CASE_PARAMS))
    @pytest.mark.parametrize("dim", [2, 3])
    def test_derivatives_match_profile_differentiation(self, name, dim):
        p = classify(*CASE_PARAMS[name])
        xi, lam, g, h = _batch_inputs(7, dim, n_modes=6)
        batch = solve_modes(p, xi, lam, g, h)
        x = np.concatenate([[0.0], np.geomspace(1e-3, 20.0, 30)])
        for order in (0, 1, 2, 3):
            coeffs = _derivative(batch.coeffs, -batch.rates, order)
            values = evaluate_profiles(batch.rates, coeffs, x)
            for k in range(len(xi)):
                view = ModeSolution(batch.take([k]))
                for c, prof in enumerate([view.rho, *view.u, view.phi]):
                    ref = prof.differentiate(order) if order else prof
                    scale = max(ref.magnitude_scale(), 1e-300)
                    assert np.max(np.abs(values[c, k] - ref.evaluate(x))) <= 1e-14 * scale

    @pytest.mark.parametrize("name", list(CASE_PARAMS))
    @pytest.mark.parametrize("dim", [2, 3])
    def test_per_mode_lambda_matches_scalar_reference(self, name, dim):
        # every mode of a batch has the bits of the case formula on its own
        # Python complex scalars, whatever lambda the other modes have
        p = classify(*CASE_PARAMS[name])
        xi, lam, g, h = _per_mode_inputs(dim)
        batch = solve_modes(p, xi, lam, g, h)
        assert batch.lam.tobytes() == lam.tobytes()
        for k in range(len(xi)):
            rates, beta, gamma, sigma, tau = _scalar_reference(p, xi[k], lam[k], g[k], h[k])
            assert batch.rates[k].tolist() == list(rates), k
            assert batch.beta[k].tolist() == beta.tolist(), k
            assert batch.gamma[k].tolist() == gamma.tolist(), k
            assert (batch.sigma[k], batch.tau[k]) == (sigma, tau), k
            one = solve_mode(p, TangentialMode(xi=xi[k], lam=lam[k], dim=dim),
                             BoundaryTrace(g[k], h[k])).batch
            assert one.coeffs.tobytes() == batch.coeffs[:, k:k + 1].tobytes(), k
        assert batch.take([3, 1]).lam.tolist() == [lam[3], lam[1]]

    @pytest.mark.parametrize("xi, lam", [([0.5], np.nan), ([np.nan], 1.0),
                                         ([0.5], complex(1.0, np.inf))])
    def test_non_finite_mode_rejected(self, xi, lam):
        p = classify(*CASE_PARAMS["I"])
        with pytest.raises(DomainError, match="finite"):
            TangentialMode(xi=xi, lam=lam)
        with pytest.raises(DomainError, match="finite"):
            TangentialMode(xi=xi, lam=lam, sector_epsilon=0.5)
        with pytest.raises(DomainError, match="finite xi and lambda.*mode 2 has"):
            solve_modes(p, [[1.0], [2.0], xi], [1.0, 1.0 + 1.0j, lam], [1.0] * 3, [[0.5]] * 3)
        with pytest.raises(DomainError, match="finite"):
            solve_modes(p, [xi], lam, [1.0], [[0.5]])

    def test_sector_lambda_rejected(self):
        # the boundary systems are certified on Re lambda > 0 only
        p = classify(3, 1, 1)
        mode = TangentialMode(xi=[1.0], lam=-0.5 + 1.0j, sector_epsilon=0.3)
        with pytest.raises(DomainError, match="Re lambda > 0"):
            solve_mode(p, mode, BoundaryTrace(1.0, [0.5]))
        for lam in (-0.5 + 1.0j, 2.0j):
            with pytest.raises(DomainError, match="Re lambda > 0"):
                solve_modes(p, [[1.0]], lam, [1.0], [[0.5]])

    def test_shape_mismatch_rejected(self):
        p = classify(1, 1, 2)
        with pytest.raises(DomainError):
            solve_modes(p, [[1.0], [2.0]], 1.0, [1.0], [[0.5], [0.5]])


def _reference_evaluate(batch, x, coeffs):
    """Test-only reference: every (mode, x) pair, with no decay truncation."""
    n_modes, n_rates, n_powers = coeffs.shape[-3:]
    out = np.zeros(coeffs.shape[:-2] + x.shape, dtype=complex)
    for r in range(n_rates):
        basis = np.exp(-np.multiply.outer(batch.rates[:, r], x))
        for p in range(n_powers):
            if p:
                basis = basis * x
            out += coeffs[..., r, p, None] * basis
    return out


class TestTruncatedEvaluate:
    @pytest.mark.parametrize("name", list(CASE_PARAMS))
    @pytest.mark.parametrize("dim", [2, 3])
    def test_matches_untruncated_reference(self, name, dim):
        # the xi = 0 mode decays slowest and keeps the whole grid; the others'
        # supports end mid-grid; cases IV and V carry x e^{-t x} terms
        p = classify(*CASE_PARAMS[name])
        xi, lam, g, h = _batch_inputs(11, dim, n_modes=12)
        xi[0] = 0.0
        batch = solve_modes(p, xi, lam, g, h)
        reach = DECAY_SUPPORT / batch.rates.real.min(axis=1)
        x = np.linspace(0.0, reach[0], 257)
        inside = np.sum(x[None, :] <= reach[:, None], axis=1)
        assert inside[0] == x.size and np.any((inside > 1) & (inside < x.size))
        shuffled = np.random.default_rng(dim).permutation(x)
        for order in (0, 1, 2):
            coeffs = _derivative(batch.coeffs, -batch.rates, order)
            for points in (x, shuffled):
                got = evaluate_profiles(batch.rates, coeffs, points)
                want = _reference_evaluate(batch, points, coeffs)
                peak = np.abs(want).max(axis=(-2, -1), keepdims=True)
                assert np.all(np.abs(got - want) <= 1e-15 * peak)

    def test_zero_padded_slots_bit_identical(self):
        # modes of 1-4 rates padded to 5 with zero coefficients on copies of
        # their last rate (as a stacked draw is), plus zero slots of single
        # modes: each mode keeps the bits of its evaluation on its own slots
        rng = np.random.default_rng(5)
        own = []
        for n_rates in (1, 2, 4, 2, 3, 1):
            rates = rng.uniform(0.5, 2.5, n_rates) + 1j * rng.uniform(-0.5, 0.5, n_rates)
            coeffs = rng.normal(size=(3, n_rates, 2)) + 1j * rng.normal(size=(3, n_rates, 2))
            own.append((rates, coeffs))
        own[2][1][:, 1] = 0.0
        rates = np.array([np.concatenate([r, np.repeat(r[-1:], 5 - r.size)]) for r, _ in own])
        coeffs = np.zeros((3, len(own), 5, 2), dtype=complex)
        for k, (r, c) in enumerate(own):
            coeffs[:, k, :r.size] = c
        x = np.linspace(0.0, 30.0, 97)
        got = evaluate_profiles(rates, coeffs, x)
        for k, (r, c) in enumerate(own):
            want = evaluate_profiles(r[None], c[:, None], x)
            assert got[:, k].tobytes() == want[:, 0].tobytes(), k

    @pytest.mark.parametrize("rate", [-1.0, 0.0, 2j, float("nan"), complex(float("inf"), 0.0),
                                      complex(1.0, float("nan"))])
    def test_rate_that_does_not_decay_rejected(self, rate):
        # a nonzero coefficient on a rate that is not finite with Re > 0
        # is refused, naming its mode and slot, not evaluated as zero
        rates = np.array([[1.0, 2.0], [1.5 + 0.5j, rate]])
        coeffs = np.ones((2, 2, 2, 1), dtype=complex)
        with pytest.raises(DomainError, match="mode 1, rate slot 1"):
            evaluate_profiles(rates, coeffs, np.linspace(0.0, 5.0, 11))

    @pytest.mark.parametrize("rate", [-1.0, 0.0, float("nan"), complex(float("inf"), 0.0),
                                      complex(1.0, float("nan"))])
    def test_dead_slot_that_does_not_decay_is_skipped(self, rate):
        # a zero-coefficient slot on a rate that does not decay takes no part
        # in its mode's reach: the live term keeps its one-slot bits, which
        # end at that term's own reach, 46 / 1.5 < 60
        x = np.linspace(0.0, 60.0, 121)
        want = evaluate_profiles(np.array([[1.5 + 0.5j]]), np.array([[[1.0]]]), x)
        got = evaluate_profiles(np.array([[1.5 + 0.5j, rate]]), np.array([[[1.0], [0.0]]]), x)
        assert np.any(want != 0.0)
        assert got.tobytes() == want.tobytes()

    def test_negative_x_rejected(self):
        p = classify(*CASE_PARAMS["IV"])
        batch = solve_modes(p, *_batch_inputs(3, 2, n_modes=4)[:1], 1.0, [1.0] * 4, [[0.5]] * 4)
        with pytest.raises(DomainError):
            evaluate_profiles(batch.rates, batch.coeffs, np.array([0.0, 1.0, -1e-3]))

    def test_out_in_slabs_of_modes(self):
        # a mode slab of a wider array is a valid out, and slabs add what one
        # call adds; blocks whose rows are not contiguous are refused
        p = classify(*CASE_PARAMS["IV"])
        batch = solve_modes(p, *_batch_inputs(5, 2, n_modes=6)[:1], 1.0, [1.0] * 6, [[0.5]] * 6)
        x = np.linspace(0.0, 4.0, 9)
        whole = evaluate_profiles(batch.rates, batch.coeffs, x, out=np.ones((4, 6, 11), complex))
        slabs = np.ones((4, 6, 11), dtype=complex)
        for modes in (slice(0, 1), slice(1, 4), slice(4, 6)):
            evaluate_profiles(batch.rates[modes], batch.coeffs[:, modes], x, out=slabs[:, modes])
        assert np.array_equal(slabs, whole)
        assert np.all(whole[..., x.size:] == 1.0)
        with pytest.raises(DomainError, match="C-contiguous"):
            evaluate_profiles(batch.rates, batch.coeffs, x,
                              out=np.ones((4, 6, 22), dtype=complex)[..., ::2])


class TestBatchResiduals:
    LADDER = np.concatenate([[0.0], 2.0 ** np.arange(-4, 4, dtype=float)])

    @pytest.mark.parametrize("name", list(CASE_PARAMS))
    @pytest.mark.parametrize("dim", [2, 3])
    def test_matches_per_mode_reference(self, name, dim):
        p = classify(*CASE_PARAMS[name])
        xi, lam, g, h = _batch_inputs(5, dim)
        xi[0] = 0.0
        batch = solve_modes(p, xi, lam, g, h)
        spot = np.arange(len(xi)) % 3 != 1
        per_equation, per_boundary = batch_residuals(batch, self.LADDER, spot)
        for i, k in enumerate(np.flatnonzero(spot)):
            mode = TangentialMode(xi=xi[k], lam=lam, dim=dim)
            one = ModeSolution(batch.take([k]))
            ref_eq, ref_bd = _reference_pde_residual(p, mode, one, self.LADDER)
            for got, ref in ((per_equation, ref_eq), (per_boundary, ref_bd)):
                assert list(got) == list(ref)
                for key, value in ref.items():
                    assert abs(got[key][i] - value) <= 1e-14, (k, key)
            # pde_residual is the same routine on a batch of one
            rep = pde_residual(p, mode, one, sample_points=self.LADDER)
            assert rep.per_equation == {key: v[i] for key, v in per_equation.items()}
            # and so is boundary_residuals, against a supplied trace
            trace = BoundaryTrace(g[k] * 1.001, h[k] * 0.999)
            got = boundary_residuals(p, mode, one, trace)
            ref = _reference_boundary_residuals(mode, one, trace)
            assert list(got) == list(ref)
            assert all(abs(got[key] - ref[key]) <= 1e-14 for key in ref)

    @pytest.mark.parametrize("name", list(CASE_PARAMS))
    @pytest.mark.parametrize("dim", [2, 3])
    def test_per_mode_lambda_matches_per_mode(self, name, dim):
        # a batch with a lambda per mode checks each mode as its batch of one
        p = classify(*CASE_PARAMS[name])
        xi, lam, g, h = _per_mode_inputs(dim, n_modes=12)
        batch = solve_modes(p, xi, lam, g, h)
        spot = np.arange(len(xi)) % 3 != 1
        trace = (g[spot] * 1.001, h[spot] * 0.999)
        for kwargs in ({}, {"trace": trace}):
            per_equation, per_boundary = batch_residuals(batch, self.LADDER, spot, **kwargs)
            for i, k in enumerate(np.flatnonzero(spot)):
                one = solve_modes(p, xi[k:k + 1], lam[k], g[k:k + 1], h[k:k + 1])
                one_trace = {"trace": (trace[0][i:i + 1], trace[1][i:i + 1])} if kwargs else {}
                ref_eq, ref_bd = batch_residuals(one, self.LADDER, **one_trace)
                for got, ref in ((per_equation, ref_eq), (per_boundary, ref_bd)):
                    assert list(got) == list(ref)
                    assert all(got[key][i] == ref[key][0] for key in ref), (k, kwargs.keys())

    @pytest.mark.parametrize("name", ["I", "II", "IV", "V"])
    @pytest.mark.parametrize("dim", [2, 3])
    def test_perturbed_beta_located(self, name, dim):
        # a 1 % slip in one mode's beta_N, laid out like a solve would, at
        # |xi| <= 3 (the normalization by coefficient magnitudes shrinks such
        # a slip below 1e-6 once |xi|^2/|lambda| exceeds about 1e3)
        p = classify(*CASE_PARAMS[name])
        rng = np.random.default_rng(dim)
        xi, lam = rng.uniform(-3.0, 3.0, (8, dim - 1)), 1.0 + 0.5j
        g = rng.normal(size=8) + 1j * rng.normal(size=8)
        h = rng.normal(size=(8, dim - 1)) + 1j * rng.normal(size=(8, dim - 1))
        ok = solve_modes(p, xi, lam, g, h)
        beta = ok.beta.copy()
        beta[5, -1] *= 1.01
        bad = _batch(p, ok.lam, ok.xi, h, ok.rates, beta, ok.gamma, ok.sigma, ok.tau)
        per_equation, _ = batch_residuals(bad, self.LADDER)
        worst = np.max(list(per_equation.values()), axis=0)
        assert np.argmax(worst) == 5
        flagged = [key for key, v in per_equation.items()
                   if v[5] > 1e-6 and (key == "mass" or key.startswith("momentum"))]
        assert flagged
        assert np.all(np.delete(worst, 5) <= PDE_TOL)


class TestHomogeneity:
    @pytest.mark.parametrize("name", list(CASE_PARAMS))
    @pytest.mark.parametrize("dim", [2, 3])
    @given(seed=st.integers(0, 2**32 - 1), log_r=st.floats(-3.0, 3.0))
    @settings(max_examples=20, deadline=None, derandomize=True)
    def test_rates_scale_under_parabolic_dilation(self, name, dim, seed, log_r):
        # (xi, lambda) -> (r xi, r^2 lambda) scales every root by r and keeps
        # the case's term layout
        p = classify(*CASE_PARAMS[name])
        xi, lam, g, h = _batch_inputs(seed, dim)
        r = 10.0 ** log_r
        base = solve_modes(p, xi, lam, g, h)
        scaled = solve_modes(p, r * xi, r * r * lam, g, h)
        assert scaled.rates.shape == base.rates.shape
        assert scaled.coeffs.shape == base.coeffs.shape
        np.testing.assert_allclose(scaled.rates, r * base.rates, rtol=1e-13, atol=0)
