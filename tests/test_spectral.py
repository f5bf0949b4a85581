import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kortsolve import (BranchCutError, Case, Degeneracy, DomainError, ScanGrid,
                       TangentialMode, char_poly, classify, compute_roots,
                       principal_sqrt, root_lower_bound_scan)


class TestClassify:
    def test_case_one_example(self):
        p = classify(1, 1, 2)
        assert p.case is Case.I
        assert p.eta == pytest.approx(-0.25)
        assert p.s1 == pytest.approx(0.5 - 0.5j)
        assert p.s2 == pytest.approx(0.5 + 0.5j)

    def test_case_three_orders_roots_by_viscosity(self):
        p = classify(2, 1, 2)
        assert p.case is Case.III
        assert p.eta == pytest.approx(1.0 / 16.0)
        assert (p.s1, p.s2) == (0.5, 1.0)
        # mirrored viscosities swap nothing: s1 stays the smaller root
        q = classify(1, 2, 2)
        assert q.case is Case.III
        assert (q.s1, q.s2) == (0.5, 1.0)

    def test_case_four_double_root(self):
        p = classify(3, 1, 4)
        assert p.case is Case.IV
        assert p.eta == 0.0
        assert p.s1 == p.s2 == 0.5

    def test_case_five_fully_degenerate(self):
        p = classify(1, 1, 1)
        assert p.case is Case.V
        assert p.s1 == p.s2 == 1.0

    def test_case_two(self):
        p = classify(3, 1, 1)
        assert p.case is Case.II
        assert p.eta == pytest.approx(3.0)
        assert p.s1 == pytest.approx(2.0 - math.sqrt(3.0))
        assert p.s2 == pytest.approx(2.0 + math.sqrt(3.0))

    def test_rejects_nonpositive(self):
        for bad in [(0, 1, 1), (1, -2, 1), (1, 1, 0)]:
            with pytest.raises(DomainError):
                classify(*bad)

    def test_exact_rational_path_hits_boundaries(self):
        # eta = 0 exactly for kappa = (mu+nu)^2/4; floats would wobble
        p = classify(Fraction(3), Fraction(1), Fraction(4))
        assert p.case is Case.IV
        p = classify(Fraction(1, 3), Fraction(1, 3), Fraction(1, 9))
        assert p.case is Case.V

    def test_tolerance_snapping(self):
        base = classify(3, 1, 4)
        nudged = classify(3, 1, 4 * (1 + 1e-14))
        assert nudged.case is base.case is Case.IV
        far = classify(3, 1, 4 * (1 - 1e-6))
        assert far.case is Case.II

    def test_epsilon_star(self):
        assert classify(1, 1, 2).epsilon_star == pytest.approx(math.atan2(0.5, 0.5))
        assert classify(3, 1, 1).epsilon_star == 0.0

    @given(st.floats(0.05, 20), st.floats(0.05, 20), st.floats(0.05, 20))
    @settings(max_examples=150, deadline=None)
    def test_vieta_property(self, mu, nu, kappa):
        p = classify(mu, nu, kappa)
        assert p.s1 * p.s2 == pytest.approx(1.0 / kappa, rel=1e-12)
        assert p.s1 + p.s2 == pytest.approx((mu + nu) / kappa, rel=1e-12)
        assert p.s1.real > 0 and p.s2.real > 0

    def test_vieta_bulk(self, rng):
        # 1e4 random triples through the real classification path
        triples = 10.0 ** rng.uniform(-2, 2, size=(10_000, 3))
        worst_prod = worst_sum = 0.0
        for mu, nu, kappa in triples:
            p = classify(mu, nu, kappa)
            worst_prod = max(worst_prod, abs(p.s1 * p.s2 - 1.0 / kappa) * kappa)
            worst_sum = max(worst_sum, abs(p.s1 + p.s2 - (mu + nu) / kappa) * kappa / (mu + nu))
        assert worst_prod <= 1e-12
        assert worst_sum <= 1e-12

    def test_scale_consistency(self, rng):
        # classify(c mu, c nu, c^2 kappa) keeps the case for c > 0
        for _ in range(50):
            mu, nu, kappa = 10.0 ** rng.uniform(-1, 1, size=3)
            c = 10.0 ** rng.uniform(-2, 2)
            assert classify(mu, nu, kappa).case is classify(c * mu, c * nu, c * c * kappa).case
        for triple in [(2, 1, 2), (3, 1, 4), (1, 1, 1)]:
            mu, nu, kappa = (Fraction(v) for v in triple)
            c = Fraction(7, 3)
            assert classify(mu, nu, kappa).case is classify(c * mu, c * nu, c * c * kappa).case


class TestRoots:
    def test_unit_inputs_case_five(self):
        p = classify(1, 1, 1)
        r = compute_roots(p, TangentialMode(xi=[0.0], lam=1.0))
        assert r.t1 == r.t2 == r.omega == 1.0
        assert r.degeneracy is Degeneracy.ALL_EQUAL

    def test_case_three_t1_equals_omega_bitwise(self):
        p = classify(2, 1, 2)
        r = compute_roots(p, TangentialMode(xi=[1.0], lam=1.0))
        assert r.t1 == r.omega  # bitwise equal radicands
        assert r.t1 == pytest.approx(math.sqrt(1.5))
        assert r.t2 == pytest.approx(math.sqrt(2.0))
        assert r.degeneracy is Degeneracy.T1_EQ_OMEGA
        # mirrored viscosities: the omega-coincidence moves to t2
        q = classify(1, 2, 2)
        r2 = compute_roots(q, TangentialMode(xi=[1.0], lam=1.0))
        assert r2.t2 == r2.omega
        assert r2.degeneracy is Degeneracy.T2_EQ_OMEGA

    def test_case_four_double_root_bitwise(self):
        p = classify(3, 1, 4)
        r = compute_roots(p, TangentialMode(xi=[0.7], lam=2.0 + 1.0j))
        assert r.t1 == r.t2
        assert r.t1 != r.omega
        assert r.degeneracy is Degeneracy.T1_EQ_T2

    def test_root_squares_reproduce_radicand(self):
        # derived check: squaring the output recovers |xi|^2 + s lambda
        p = classify(1, 1, 2)
        mode = TangentialMode(xi=[1.0], lam=4.0)
        r = compute_roots(p, mode)
        assert r.t1**2 == pytest.approx(3.0 - 2.0j, rel=1e-12)
        assert r.t1 == pytest.approx(1.8173 - 0.5503j, abs=2e-4)

    def test_root_identity_random(self, rng):
        from tests.conftest import random_mode_values
        for name, triple in [("I", (1, 1, 2)), ("II", (3, 1, 1)), ("V", (1, 1, 1))]:
            p = classify(*triple)
            for xi, lam in random_mode_values(rng, 40):
                mode = TangentialMode(xi=xi, lam=lam)
                r = compute_roots(p, mode)
                for t, s in ((r.t1, p.s1), (r.t2, p.s2), (r.omega, p.inv_mu)):
                    assert t.real > 0
                    assert abs(t * t - mode.xi_sq - s * lam) <= 1e-12 * abs(s * lam + mode.xi_sq)

    def test_homogeneity(self, rng):
        p = classify(3, 1, 1)
        for r_scale in (0.125, 8.0):
            m1 = TangentialMode(xi=[0.7], lam=2.0 + 1.0j)
            m2 = TangentialMode(xi=[0.7 * r_scale], lam=(2.0 + 1.0j) * r_scale**2)
            r1, r2 = compute_roots(p, m1), compute_roots(p, m2)
            for a, b in ((r1.t1, r2.t1), (r1.t2, r2.t2), (r1.omega, r2.omega)):
                assert b == pytest.approx(r_scale * a, rel=1e-14)

    def test_sector_mode(self):
        p = classify(3, 1, 1)  # epsilon_star = 0
        mode = TangentialMode(xi=[1.0], lam=-1.0 + 0.5j, sector_epsilon=0.2)
        r = compute_roots(p, mode)
        assert min(r.t1.real, r.t2.real, r.omega.real) > 0
        with pytest.raises(DomainError):
            TangentialMode(xi=[1.0], lam=-1.0 + 0.5j)  # half-plane default
        p_i = classify(1, 1, 2)  # epsilon_star > 0: sector must open past it
        with pytest.raises(DomainError):
            compute_roots(p_i, TangentialMode(xi=[1.0], lam=1.0, sector_epsilon=0.1))

    def test_branch_cut_detection(self):
        with pytest.raises(BranchCutError):
            principal_sqrt(-1.0)


class TestCharPoly:
    def test_at_zero(self):
        p = classify(1, 1, 1)
        assert char_poly(p, TangentialMode(xi=[0.0], lam=1.0), 0.0) == 1.0

    def test_arithmetic_example(self):
        p = classify(1, 1, 2)
        assert char_poly(p, TangentialMode(xi=[1.0], lam=1.0), 2.0) == pytest.approx(13.0)

    def test_vanishes_at_computed_roots(self, rng):
        from tests.conftest import random_mode_values
        for triple in [(1, 1, 2), (3, 1, 1), (2, 1, 2), (3, 1, 4), (1, 1, 1)]:
            p = classify(*triple)
            for xi, lam in random_mode_values(rng, 10):
                mode = TangentialMode(xi=xi, lam=lam)
                r = compute_roots(p, mode)
                scale = (abs(lam) + mode.xi_sq) ** 2
                for t in (r.t1, r.t2, -r.t1, -r.t2):
                    assert abs(char_poly(p, mode, t)) <= 1e-10 * scale


class TestRootScan:
    def test_single_point_unit(self):
        p = classify(1, 1, 1)
        grid = ScanGrid(xi_magnitudes=[0.0], directions=[[1.0]],
                        lambda_magnitudes=[1.0], lambda_args=[0.0])
        rep = root_lower_bound_scan(p, grid)
        for v in rep.infima.values():
            assert v == pytest.approx(1.0)

    def test_default_grid_strictly_positive(self):
        p = classify(1, 1, 2)
        grid = ScanGrid.logspace(n_xi=20, n_lam=20, arg_limit=math.pi / 2 - 0.1)
        rep = root_lower_bound_scan(p, grid)
        assert all(v > 0 for v in rep.infima.values())
        # regression baselines recorded from this deterministic grid
        assert rep.infima["t1"] == pytest.approx(0.291440779975, rel=1e-9)
        assert rep.infima["omega"] == pytest.approx(0.560576684329, rel=1e-9)

    def test_scaling_invariance_of_ratio(self):
        p = classify(1, 1, 2)
        for r in (10.0, 0.1):
            g1 = ScanGrid(xi_magnitudes=[1.0], directions=[[1.0]],
                          lambda_magnitudes=[2.0], lambda_args=[0.7])
            g2 = ScanGrid(xi_magnitudes=[r], directions=[[1.0]],
                          lambda_magnitudes=[2.0 * r * r], lambda_args=[0.7])
            r1 = root_lower_bound_scan(p, g1)
            r2 = root_lower_bound_scan(p, g2)
            for k in r1.infima:
                assert r2.infima[k] == pytest.approx(r1.infima[k], rel=1e-12)

    def test_empty_grid_rejected(self):
        from kortsolve import GridError
        with pytest.raises(GridError):
            ScanGrid(xi_magnitudes=[], directions=[[1.0]],
                     lambda_magnitudes=[1.0], lambda_args=[0.0])

    @pytest.mark.parametrize("dim", [1, 0, -2])
    def test_logspace_needs_a_tangential_direction(self, dim):
        from kortsolve import GridError
        with pytest.raises(GridError, match="dim must be >= 2"):
            ScanGrid.logspace(dim=dim)

    @pytest.mark.parametrize("axes", [
        {"xi_magnitudes": [1.0, math.nan]},
        {"xi_magnitudes": [math.inf]},
        {"directions": [[math.nan]]},
        {"lambda_magnitudes": [1.0, math.inf]},
        {"lambda_args": [math.nan]},
        {"lambda_args": [0.0, math.pi / 2]},
        {"lambda_args": [-3.0]},
    ])
    def test_non_finite_or_outside_half_plane_rejected(self, axes):
        from kortsolve import GridError
        grid = dict(xi_magnitudes=[1.0], directions=[[1.0]],
                    lambda_magnitudes=[1.0], lambda_args=[0.0])
        with pytest.raises(GridError):
            ScanGrid(**{**grid, **axes})
