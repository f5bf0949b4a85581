import math

import numpy as np
import pytest

from kortsolve.profiles import VerticalProfile
from kortsolve.rbound import (FullSolveFamily, IdentityFamily, ModeField, ProbeConfig,
                              ReducedSolveFamily, _lift_profiles, _lift_rows, estimate_rbound,
                              lambda_log_derivative, lift_arity, lift_boundary_data, probe_grid,
                              sample_boundary_data, sample_full_data)


@pytest.fixture(scope="module")
def params():
    from kortsolve import classify
    return classify(1, 1, 2)


SMALL = ProbeConfig(m=4, trials=60, rng_seed=11, draws_per_decade=1, modes_per_field=2)


def _reference_profile_derivative(profile, axes_tuple, xi, x):
    """Per-tuple reference: differentiate and evaluate the profile for every tuple."""
    factor = 1.0 + 0.0j
    v_order = 0
    for ax in axes_tuple:
        if ax < len(xi):
            factor *= 1j * xi[ax]
        else:
            v_order += 1
    p = profile.differentiate(v_order) if v_order else profile
    return factor * p.evaluate(x)


def _reference_lift_profiles(profile_sets, lam, spec, xi, kind):
    lam = complex(lam)
    x = spec.vertical_coords()
    profiles = [profile_sets] if kind == "S0" else profile_sets
    rows = []
    for profile in profiles:
        rows += _lift_rows(lambda t: _reference_profile_derivative(profile, t, xi, x),
                           lam, spec.dim, kind)
    return np.array(rows)


class TestLifts:
    @pytest.mark.parametrize("dim", [2, 3])
    @pytest.mark.parametrize("kind", ["S0", "T"])
    def test_lift_profiles_bit_identical_to_per_tuple_reference(self, rng, dim, kind):
        spec = probe_grid(dim=dim, n_tangential=8, n_vertical=48)
        for lam in (1.0 + 0.5j, 0.02 * np.exp(-1.2j), 70.0):
            xi = rng.normal(size=dim - 1) * 3.0
            profiles = [VerticalProfile([(complex(*rng.normal(size=2)), m,
                                          complex(rng.uniform(0.2, 3.0), rng.normal()))
                                         for m in (0, 1, 2, 0)])
                        for _ in range(dim)]
            payload = profiles[0] if kind == "S0" else profiles
            got = _lift_profiles(payload, lam, spec, xi, kind)
            want = _reference_lift_profiles(payload, lam, spec, xi, kind)
            assert got.shape == want.shape
            assert got.tobytes() == want.tobytes()

    def test_arities(self):
        assert lift_arity("S0", 2) == 8 + 4 + 2 + 1
        assert lift_arity("T", 2) == 4 + 2 + 1
        assert lift_arity("S0", 3) == 27 + 9 + 3 + 1

    def test_boundary_lift_shape(self, rng):
        spec = probe_grid(n_tangential=16, n_vertical=64)
        data = sample_boundary_data(rng, spec, 3)
        lifted = lift_boundary_data(data, 1.0 + 0.5j)
        assert lifted.n_comp == 2 * lift_arity("T", 2)
        for arr in lifted.modes.values():
            assert arr.shape == (14, 64)

    def test_parseval_norm_matches_dense(self, rng):
        spec = probe_grid(n_tangential=16, n_vertical=64)
        data = sample_boundary_data(rng, spec, 3)
        lifted = lift_boundary_data(data, 2.0 - 0.7j)
        dense = lifted.synthesize()
        vol = spec.cell_volume()
        dense_norm = (np.sum(np.abs(dense) ** 2) * vol) ** 0.5
        assert lifted.norm(2.0) == pytest.approx(dense_norm, rel=1e-12)

    def test_non_hilbert_norm_positive(self, rng):
        spec = probe_grid(n_tangential=16, n_vertical=64)
        data = sample_boundary_data(rng, spec, 2)
        lifted = lift_boundary_data(data, 1.0)
        assert lifted.norm(1.5) > 0
        assert lifted.norm(4.0) > 0

    def test_tuple_algebra(self, rng):
        spec = probe_grid(n_tangential=16, n_vertical=64)
        a = lift_boundary_data(sample_boundary_data(rng, spec, 2), 1.0)
        b = lift_boundary_data(sample_boundary_data(rng, spec, 2), 1.0)
        c = a + b.scaled(-1.0)
        # inner products are conjugate-symmetric and consistent with norms
        assert a.inner(a).real == pytest.approx(a.norm() ** 2, rel=1e-12)
        assert a.inner(b) == pytest.approx(np.conj(b.inner(a)), rel=1e-12)
        assert c.norm() <= a.norm() + b.norm()


class TestFamilies:
    def test_identity_ratio_exactly_one(self):
        rep = estimate_rbound(IdentityFamily(), SMALL)
        assert all(abs(r - 1.0) <= 1e-12 for r in rep.all_ratios)
        assert rep.global_max == pytest.approx(1.0, abs=1e-12)

    def test_m_equals_one_is_norm_ratio(self, params, rng):
        # with a single member the Rademacher sum degenerates to ||Tf|| / ||f||
        from kortsolve.rbound import _ratio_from_tuples
        spec = probe_grid(n_tangential=16, n_vertical=96)
        fam = ReducedSolveFamily(params, "A2")
        data = sample_boundary_data(rng, spec, 2)
        lam = 1.3 + 0.4j
        y = fam.apply(lam, data)
        x = fam.input_lift(lam, data)
        signs = np.sign(np.random.default_rng(1).normal(size=(50, 1)))
        ratio = _ratio_from_tuples([y], [x], signs, 2.0)
        assert ratio == pytest.approx(y.norm() / x.norm(), rel=1e-12)

    def test_reduced_families_stable_across_decades(self, params):
        cfg = ProbeConfig(m=8, trials=200, rng_seed=42)
        for kind in ("A2", "B2"):
            fam = ReducedSolveFamily(params, kind)
            rep = estimate_rbound(fam, cfg)
            assert rep.decade_spread <= 10.0, kind
            drep = estimate_rbound(lambda_log_derivative(fam), cfg)
            assert drep.decade_spread <= 10.0, f"d{kind}"

    def test_scale_invariance_of_probe(self, params):
        cfg = ProbeConfig(m=4, trials=80, rng_seed=3, draws_per_decade=1)

        def scaled(f):
            return ModeField({k: p.scaled(137.0) for k, p in f.modes.items()}, f.spec)

        def scaled_sampler(rng_, spec_, mpf, rate_scale=1.0):
            g, hs = sample_boundary_data(rng_, spec_, mpf, rate_scale)
            return (scaled(g), tuple(scaled(h) for h in hs))

        fam = ReducedSolveFamily(params, "B2")
        r1 = estimate_rbound(fam, cfg).global_max
        r2 = estimate_rbound(fam, cfg, sampler=scaled_sampler).global_max
        assert r2 == pytest.approx(r1, rel=1e-12)

    def test_trial_doubling_stability(self, params):
        fam = ReducedSolveFamily(params, "A2")
        r200 = estimate_rbound(fam, ProbeConfig(m=8, trials=200, rng_seed=7)).global_max
        r400 = estimate_rbound(fam, ProbeConfig(m=8, trials=400, rng_seed=7)).global_max
        assert abs(r400 - r200) / r200 <= 0.20

    def test_determinism(self, params):
        fam = ReducedSolveFamily(params, "A2")
        a = estimate_rbound(fam, SMALL).to_json()
        b = estimate_rbound(fam, SMALL).to_json()
        assert a == b

    def test_full_families_run(self, params):
        spec = probe_grid(n_tangential=16, n_vertical=96)
        cfg = ProbeConfig(m=2, trials=50, rng_seed=1, draws_per_decade=1,
                          decades=(0.1, 10.0), modes_per_field=2)
        for kind in ("A", "B"):
            fam = FullSolveFamily(params, kind)
            rep = estimate_rbound(fam, cfg, spec, sampler=sample_full_data)
            assert rep.global_max > 0
            assert math.isfinite(rep.decade_spread)

    @pytest.mark.parametrize("kind", ["A", "B"])
    def test_full_family_reduces_to_boundary_family(self, params, kind, mode_solves):
        # with d = f = 0 the whole-space part vanishes and the full-data
        # operator is the boundary-data operator, one mode solve per lattice mode
        spec = probe_grid(n_tangential=16, n_vertical=64)
        g = sample_boundary_data(np.random.default_rng(3), spec, modes_per_field=4)[0]
        zero = ModeField({}, spec)
        for lam in (1.0 + 0.5j, 0.3 * np.exp(1.2j), 20.0):
            mode_solves.clear()
            full = FullSolveFamily(params, kind).apply(lam, (zero, (zero, zero), g)).values
            assert len(mode_solves) == spec.n_tangential
            ref = ReducedSolveFamily(params, kind + "2").apply(lam, (g, (zero,))).synthesize()
            assert np.max(np.abs(full - ref)) <= 1e-12 * np.max(np.abs(ref))


class TestLogDerivative:
    def test_lambda_independent_family_maps_to_zero(self):
        spec = probe_grid(n_tangential=16, n_vertical=64)

        class Constant:
            name = "const"

            def apply(self, lam, data):
                return lift_boundary_data(data, 1.0)  # frozen lift: no lam dependence

            def input_lift(self, lam, data):
                return lift_boundary_data(data, 1.0)

        dfam = lambda_log_derivative(Constant(), rel_step=1e-3)
        rng = np.random.default_rng(0)
        data = sample_boundary_data(rng, spec, 2)
        y = dfam.apply(2.0, data)
        x = dfam.input_lift(2.0, data)
        assert y.norm() <= 1e-10 * x.norm()

    def test_scalar_family_lambda(self):
        spec = probe_grid(n_tangential=16, n_vertical=64)

        class Mult:
            name = "lam"

            def apply(self, lam, data):
                return lift_boundary_data(data, 1.0).scaled(lam)

            def input_lift(self, lam, data):
                return lift_boundary_data(data, 1.0)

        rng = np.random.default_rng(0)
        data = sample_boundary_data(rng, spec, 2)
        lam = 0.8 + 0.3j
        got = lambda_log_derivative(Mult(), 1e-3).apply(lam, data)
        want = lift_boundary_data(data, 1.0).scaled(lam)
        diff = (got + want.scaled(-1.0)).norm() / want.norm()
        assert diff <= 1e-12  # exact for a linear-in-lambda family

    def test_step_halving_consistency(self, params, rng):
        spec = probe_grid(n_tangential=16, n_vertical=96)
        fam = ReducedSolveFamily(params, "B2")
        data = sample_boundary_data(rng, spec, 3)
        lam = 1.0 + 0.2j
        x = fam.input_lift(lam, data)
        vals = []
        for h in (2e-3, 1e-3):
            y = lambda_log_derivative(fam, h).apply(lam, data)
            vals.append(y.norm() / x.norm())
        assert abs(vals[1] - vals[0]) / vals[1] <= 0.01

    def test_step_bounds(self, params):
        from kortsolve import DomainError
        fam = ReducedSolveFamily(params, "A2")
        with pytest.raises(DomainError):
            lambda_log_derivative(fam, 0.5)
        with pytest.raises(DomainError):
            lambda_log_derivative(fam, 1e-9)
