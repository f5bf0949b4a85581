import numpy as np
import pytest

from kortsolve import BoundaryTrace, ConfigurationError, TangentialMode, classify, solve_mode
from kortsolve.fields import (GridField, GridSpec, extend, extend_vector, grid_norm,
                              load_field, manufactured_solution, reduce_boundary_data,
                              save_field, solve_resolvent, vertical_spectral_derivative,
                              whole_space_reduction, whole_space_solve)


@pytest.fixture(scope="module")
def spec():
    return GridSpec(dim=2, box_half_length=3.0, n_tangential=64,
                    vertical_cutoff=8.0, n_vertical=128)


@pytest.fixture(scope="module")
def params():
    return classify(1, 1, 2)


def _gaussian_data(spec, width=0.5):
    # centered away from both x_N = 0 and x_N = L so every extension is smooth
    x = spec.tangential_coords()
    z = spec.vertical_coords()
    X, Z = np.meshgrid(x, z, indexing="ij")
    return np.exp(-((X / width) ** 2) - ((Z - 3.0) / width) ** 2)


class TestGridSpec:
    def test_shape_and_coords(self, spec):
        assert spec.shape == (64, 128)
        assert spec.vertical_coords()[0] == 0.0
        assert spec.tangential_coords()[0] == -3.0

    def test_power_of_two_enforced(self):
        from kortsolve import GridError
        with pytest.raises(GridError):
            GridSpec(n_tangential=48)

    def test_doubled_grid_signed_coords(self, spec):
        z2 = spec.doubled_vertical_coords()
        assert z2[0] == 0.0
        assert z2[spec.n_vertical] == pytest.approx(-spec.vertical_cutoff)


class TestExtensions:
    def test_even_extension_of_constant(self, spec):
        field = np.ones(spec.shape)
        ext = extend(field, "even")
        # constant everywhere except the unpaired far node, which is zeroed
        assert np.all(ext[..., : spec.n_vertical] == 1.0)
        assert np.all(ext[..., spec.n_vertical + 1:] == 1.0)
        assert np.all(ext[..., spec.n_vertical] == 0.0)

    def test_odd_extension_sign_flip(self, spec):
        field = np.ones(spec.shape)
        ext = extend(field, "odd")
        assert np.all(ext[..., 1: spec.n_vertical] == 1.0)
        assert np.all(ext[..., spec.n_vertical + 1:] == -1.0)

    def test_vector_extension_parities(self, spec):
        comps = [np.random.default_rng(0).normal(size=spec.shape) for _ in range(2)]
        ext = extend_vector(comps, spec)
        n = spec.n_vertical
        np.testing.assert_array_equal(ext[0][..., n + 1:], comps[0][..., 1:][..., ::-1])
        np.testing.assert_array_equal(ext[1][..., n + 1:], -comps[1][..., 1:][..., ::-1])

    def test_gradient_commutation(self, spec):
        # tangential spectral derivative of E^e d == E^e of the derivative;
        # the normal derivative of E^e d is odd
        d = _gaussian_data(spec)
        ext = extend(d, "even")
        k = spec.tangential_wavenumbers()
        d_tan = np.fft.ifft(1j * k[:, None] * np.fft.fft(d, axis=0), axis=0)
        lhs = np.fft.ifft(1j * k[:, None] * np.fft.fft(ext, axis=0), axis=0)
        np.testing.assert_allclose(lhs, extend(d_tan, "even"), atol=1e-12)
        dn = vertical_spectral_derivative(ext, spec)
        n = spec.n_vertical
        np.testing.assert_allclose(dn[..., 1:n], -dn[..., n + 1:][..., ::-1], atol=1e-10)


class TestWholeSpace:
    def test_zero_data(self, spec, params):
        z = np.zeros(spec.tangential_shape + (2 * spec.n_vertical,), dtype=complex)
        rho, u, res = whole_space_solve(spec, params, z, [z, z], 1.0 + 0.5j)
        assert np.max(np.abs(rho)) == 0.0
        assert all(np.max(np.abs(c)) == 0.0 for c in u)

    def test_solenoidal_single_mode(self, spec, params):
        # f perpendicular to xi on one full-frequency mode: u = f/(lam + mu|xi|^2)
        lam = 2.0 + 1.0j
        k = spec.tangential_wavenumbers()
        kz = spec.doubled_vertical_wavenumbers()
        i_t, i_z = 3, 5
        xi = np.array([k[i_t], kz[i_z]])
        f_vec = np.array([-xi[1], xi[0]])  # orthogonal to xi
        shape = spec.tangential_shape + (2 * spec.n_vertical,)
        fhat = np.zeros(shape, dtype=complex)
        fhat[3, 5] = 1.0
        f_phys = np.fft.ifftn(fhat)
        f2 = [f_vec[0] * f_phys, f_vec[1] * f_phys]
        d2 = np.zeros(shape, dtype=complex)
        rho, u, _ = whole_space_solve(spec, params, d2, f2, lam)
        gain = 1.0 / (lam + params.mu * (xi @ xi))
        np.testing.assert_allclose(u[0], gain * f2[0], rtol=1e-12, atol=1e-15)
        np.testing.assert_allclose(u[1], gain * f2[1], rtol=1e-12, atol=1e-15)
        assert np.max(np.abs(rho)) <= 1e-14

    def test_manufactured_round_trip(self, spec, params):
        # apply the forward operator spectrally, solve, recover the fields
        lam = 1.0 + 0.5j
        xt = spec.tangential_coords()
        zd = spec.doubled_vertical_coords()
        X, Z = np.meshgrid(xt, zd, indexing="ij")
        rho_true = np.exp(-X**2 - Z**2)
        u_true = [np.exp(-((X - 0.5) ** 2) - Z**2), Z * np.exp(-(X**2) - Z**2)]
        mesh = np.meshgrid(spec.tangential_wavenumbers(),
                           spec.doubled_vertical_wavenumbers(), indexing="ij", sparse=True)
        K2 = sum(m**2 for m in mesh)
        rho_h = np.fft.fftn(rho_true)
        u_h = [np.fft.fftn(c) for c in u_true]
        xi_dot_u = mesh[0] * u_h[0] + mesh[1] * u_h[1]
        d_h = lam * rho_h + 1j * xi_dot_u
        f2 = []
        for i in range(2):
            ki = mesh[i]
            f_h = (lam + params.mu * K2) * u_h[i] + params.nu * ki * xi_dot_u \
                + 1j * params.kappa * K2 * ki * rho_h
            f2.append(np.fft.ifftn(f_h))
        d2 = np.fft.ifftn(d_h)
        rho, u, res = whole_space_solve(spec, params, d2, f2, lam)
        assert np.max(np.abs(rho - rho_true)) <= 1e-8
        assert max(np.max(np.abs(u[i] - u_true[i])) for i in range(2)) <= 1e-8
        assert max(res.values()) <= 1e-10

    def test_requires_right_half_plane(self, spec, params):
        from kortsolve import DomainError
        z = np.zeros(spec.tangential_shape + (2 * spec.n_vertical,), dtype=complex)
        with pytest.raises(DomainError):
            whole_space_solve(spec, params, z, [z, z], -1.0)


class TestBoundaryReduction:
    def test_zero_data_passthrough(self, spec, params):
        zero = GridField(np.zeros(spec.shape), spec)
        g = np.exp(-spec.tangential_coords() ** 2)
        g_t, h_t, un = reduce_boundary_data(params, zero, [zero, zero], g, 1.0 + 0.5j)
        np.testing.assert_allclose(g_t, g, atol=1e-15)
        assert all(np.max(np.abs(h)) == 0.0 for h in h_t)
        assert un == 0.0

    def test_odd_normal_force_keeps_un_zero(self, spec, params):
        zero = GridField(np.zeros(spec.shape), spec)
        z = spec.vertical_coords()
        fN = GridField(np.outer(np.exp(-spec.tangential_coords() ** 2),
                                z * np.exp(-((z - 1.0) ** 2))), spec)
        g = np.zeros(spec.tangential_shape)
        _, _, un = reduce_boundary_data(params, zero, [zero, fN], g, 1.0 + 0.5j)
        assert un <= 1e-12

    def test_random_smooth_data_un_trace(self, params):
        spec = GridSpec(dim=2, box_half_length=3.0, n_tangential=128,
                        vertical_cutoff=10.0, n_vertical=256)
        rng = np.random.default_rng(7)
        x = spec.tangential_coords()
        z = spec.vertical_coords()
        X, Z = np.meshgrid(x, z, indexing="ij")

        def bump():
            cx = rng.uniform(-0.5, 0.5)
            cz = rng.uniform(1.0, 3.0)
            return np.exp(-((X - cx) ** 2) / 0.25 - ((Z - cz) ** 2) / 0.25)

        d = GridField(bump(), spec)
        f = [GridField(bump(), spec), GridField(bump(), spec)]
        g = np.zeros(spec.tangential_shape)
        _, u2, _, _, _, _ = whole_space_reduction(params, d, f, g, 1.0 + 0.5j)
        un = np.max(np.abs(u2[-1][..., 0]))
        scale = np.max(np.abs(u2[-1]))
        assert un <= 1e-10 * max(scale, 1e-300)


class TestSolveResolvent:
    def test_pure_boundary_matches_mode_solver(self, spec, params):
        # d = f = 0, g a bump trace: the pipeline must equal solve_mode per mode
        lam = 1.0 + 0.5j
        zero = GridField(np.zeros(spec.shape), spec)
        g_trace = np.exp(-spec.tangential_coords() ** 2)
        rho, u, rep = solve_resolvent(params, zero, [zero, zero], g_trace, lam)
        g_hat = np.fft.fft(g_trace)
        ks = spec.tangential_wavenumbers()
        zv = spec.vertical_coords()
        rho_modes = np.zeros(spec.shape, dtype=complex)
        u_modes = [np.zeros(spec.shape, dtype=complex) for _ in range(2)]
        for m in range(spec.n_tangential):
            mode = TangentialMode(xi=[ks[m]], lam=lam)
            sol = solve_mode(params, mode, BoundaryTrace(g_hat[m], [0.0]))
            rho_modes[m] = sol.rho.evaluate(zv)
            for J in range(2):
                u_modes[J][m] = sol.u[J].evaluate(zv)
        rho_ref = np.fft.ifft(rho_modes, axis=0)
        scale = np.max(np.abs(rho_ref))
        assert np.max(np.abs(rho.values - rho_ref)) <= 1e-12 * scale
        for J in range(2):
            u_ref = np.fft.ifft(u_modes[J], axis=0)
            assert np.max(np.abs(u[J].values - u_ref)) <= 1e-12 * max(scale, np.max(np.abs(u_ref)))

    def test_zero_data_returns_zero(self, spec, params):
        zero = GridField(np.zeros(spec.shape), spec)
        g = np.zeros(spec.tangential_shape)
        rho, u, _ = solve_resolvent(params, zero, [zero, zero], g, 2.0)
        assert np.max(np.abs(rho.values)) <= 1e-14
        assert all(np.max(np.abs(c.values)) <= 1e-14 for c in u)

    def test_real_data_real_output_for_real_lambda(self, params):
        # the tangential grid must fully resolve the data, otherwise the
        # self-paired Nyquist mode leaves an imaginary residue
        spec = GridSpec(dim=2, box_half_length=3.0, n_tangential=128,
                        vertical_cutoff=12.0, n_vertical=256)
        mf = manufactured_solution(params, spec, lam=1.7)
        rho, u, _ = solve_resolvent(params, mf["d"], mf["f"], mf["g_trace"], 1.7)
        scale = np.max(np.abs(rho.values))
        assert np.max(np.abs(rho.values.imag)) <= 1e-11 * scale
        for c in u:
            assert np.max(np.abs(c.values.imag)) <= 1e-11 * max(scale, np.max(np.abs(c.values)))

    def test_manufactured_recovery_and_refinement(self, params):
        lam = 1.0 + 0.5j
        errs = []
        for n_tan in (64, 128, 256):
            spec = GridSpec(dim=2, box_half_length=3.0, n_tangential=n_tan,
                            vertical_cutoff=16.0, n_vertical=4096)
            mf = manufactured_solution(params, spec, lam, rough_width=0.06)
            rho, u, rep = solve_resolvent(params, mf["d"], mf["f"], mf["g_trace"], lam)
            scale = max(np.max(np.abs(mf["rho"].values)),
                        max(np.max(np.abs(c.values)) for c in mf["u"]))
            err = max(np.max(np.abs(rho.values - mf["rho"].values)),
                      max(np.max(np.abs(u[i].values - mf["u"][i].values))
                          for i in range(2))) / scale
            errs.append(err)
            assert rep.un_trace_ratio <= 1e-10
            assert rep.boundary_u_max <= 1e-8
            assert rep.boundary_g_residual <= 1e-8
        assert errs[0] > errs[1] > errs[2]
        assert errs[2] <= 1e-6

    @pytest.mark.parametrize("dim", [2, 3])
    def test_one_mode_solve_per_lattice_mode(self, params, dim, mode_solves):
        spec = GridSpec(dim=dim, box_half_length=3.0, n_tangential=8,
                        vertical_cutoff=8.0, n_vertical=32)
        x = spec.tangential_coords()
        z = spec.vertical_coords()
        bump = np.exp(-(np.add.outer(x**2, x**2) if dim == 3 else x**2) / 0.25)
        d = GridField(np.multiply.outer(bump, np.exp(-((z - 3.0) / 0.5) ** 2)), spec)
        zero = GridField(np.zeros(spec.shape), spec)
        solve_resolvent(params, d, [zero] * dim, bump, 1.0 + 0.5j)
        assert len(mode_solves) == spec.n_tangential ** (dim - 1)

    def test_undecayed_data_rejected(self, spec, params):
        wide = GridField(np.ones(spec.shape), spec)
        g = np.zeros(spec.tangential_shape)
        with pytest.raises(ConfigurationError):
            solve_resolvent(params, wide, [wide, wide], g, 1.0)


class TestFieldIO:
    def test_round_trip(self, tmp_path, spec):
        field = GridField(_gaussian_data(spec) * (1 + 0.5j), spec, role="density")
        prefix = str(tmp_path / "field")
        save_field(prefix, field)
        loaded = load_field(prefix)
        np.testing.assert_array_equal(loaded.values, field.values)
        assert loaded.role == "density"
        assert loaded.spec == spec

    def test_grid_norms(self, spec):
        vals = np.ones(spec.shape)
        vol = spec.cell_volume() * vals.size
        for q in (1.5, 2.0, 4.0):
            assert grid_norm(vals, spec, q) == pytest.approx(vol ** (1.0 / q), rel=1e-12)
