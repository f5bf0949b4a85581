import dataclasses
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from kortsolve import fields
from kortsolve import (BoundaryTrace, ConfigurationError, DomainError, GridError, ModeSolution,
                       TangentialMode, classify, pde_residual, solve_mode)
from kortsolve.fields import (GridField, GridSpec, PolyGauss, SepField, grid_norm,
                              lattice_modes, load_field, manufactured_solution,
                              save_field, solve_resolvent,
                              vertical_spectral_derivative, whole_space_reduction,
                              whole_space_solve)
from kortsolve.modes import evaluate_profiles


@pytest.fixture(scope="module")
def spec():
    return GridSpec(dim=2, box_half_length=3.0, n_tangential=64,
                    vertical_cutoff=8.0, n_vertical=128)


@pytest.fixture(scope="module")
def params():
    return classify(1, 1, 2)


def _forward(values, parity):
    """`fields._vertical_forward` into a new array."""
    values = np.asarray(values, dtype=complex)
    out = np.empty(values.shape[:-1] + (values.shape[-1] + 1,), dtype=complex)
    return fields._vertical_forward(values, parity, out)


def _grid(values):
    """Grid values of a half-grid array given in the tangential spectrum."""
    values = np.asarray(values)
    return np.fft.ifftn(values, axes=tuple(range(values.ndim - 1)))


def _gaussian_data(spec, width=0.5):
    # centered away from both x_N = 0 and x_N = L so every reflection is smooth
    x = spec.tangential_coords()
    z = spec.vertical_coords()
    X, Z = np.meshgrid(x, z, indexing="ij")
    return np.exp(-((X / width) ** 2) - ((Z - 3.0) / width) ** 2)


# ---------------------------------------------------------------------------
# Test-only reference: the doubled-grid whole-space solve the half-grid
# cosine/sine solve replaced.  Data is reflected onto 2 n_z rows (the x = -L
# node zeroed) and solved with complex FFTs; callers restrict to the half grid.
# ---------------------------------------------------------------------------


def _extend(values, parity):
    values = np.asarray(values, dtype=complex)
    n = values.shape[-1]
    sign = 1.0 if parity == "even" else -1.0
    doubled = np.zeros(values.shape[:-1] + (2 * n,), dtype=complex)
    doubled[..., :n] = values
    doubled[..., n + 1:] = sign * values[..., 1:][..., ::-1]
    return doubled


def _doubled_mesh(spec):
    kz = 2.0 * np.pi * np.fft.fftfreq(2 * spec.n_vertical, d=spec.vertical_spacing)
    axes = [spec.tangential_wavenumbers()] * (spec.dim - 1) + [kz]
    return np.meshgrid(*axes, indexing="ij", sparse=True)


def _reference_whole_space_solve(spec, params, d, f, lam):
    mu, nu, kappa = params.mu, params.nu, params.kappa
    N = spec.dim
    mesh = _doubled_mesh(spec)
    K_sq = sum(k ** 2 for k in mesh)
    d_hat = np.fft.fftn(_extend(d, "even"))
    f_hat = np.stack([np.fft.fftn(_extend(c, "even" if i < N - 1 else "odd"))
                      for i, c in enumerate(f)])
    d_hat[..., spec.n_vertical] = 0.0
    f_hat[..., spec.n_vertical] = 0.0
    xi_dot_f = sum(mesh[i] * f_hat[i] for i in range(N))
    D = lam * lam + lam * (mu + nu) * K_sq + kappa * K_sq * K_sq
    rho_hat = ((lam + (mu + nu) * K_sq) * d_hat - 1j * xi_dot_f) / D
    p_hat = d_hat - lam * rho_hat
    inv_K_sq = np.where(K_sq > 0, 1.0 / np.where(K_sq > 0, K_sq, 1.0), 0.0)
    u_hat = np.stack([(f_hat[i] - mesh[i] * xi_dot_f * inv_K_sq) / (lam + mu * K_sq)
                      - 1j * mesh[i] * p_hat * inv_K_sq for i in range(N)])
    zero = (0,) * N
    u_hat[(slice(None), *zero)] = f_hat[(slice(None), *zero)] / lam
    rho_hat[zero] = d_hat[zero] / lam
    return np.fft.ifftn(rho_hat), [np.fft.ifftn(c) for c in u_hat]


def _compatible_random_data(spec, rng):
    """Random complex d and f on the half grid, with f_N zero at x_N = 0."""
    def draw():
        return rng.normal(size=spec.shape) + 1j * rng.normal(size=spec.shape)

    f = [draw() for _ in range(spec.dim)]
    f[-1][..., 0] = 0.0
    return draw(), f


# ---------------------------------------------------------------------------
# Test-only reference: the whole-space algebra in one pass over the whole
# spectrum, as it ran before it was split into row slabs.  It shares the
# solve's transforms, so the two must agree bit for bit.
# ---------------------------------------------------------------------------


def _reference_one_pass_solve(spec, params, d, f, lam):
    lam = complex(lam)
    mu, nu, kappa = params.mu, params.nu, params.kappa
    N = spec.dim
    t_axes = tuple(range(N - 1))
    parities = ["even"] * (N - 1) + ["odd"]
    d_hat = fields.tangential_fft(_forward(d, "even"), t_axes)
    f_hat = np.stack([fields.tangential_fft(_forward(f[i], parity), t_axes)
                      for i, parity in enumerate(parities)])
    d_hat[..., -1] = 0.0
    f_hat[..., -1] = 0.0

    mesh = fields._wavenumber_mesh(spec)
    K_sq = sum(k ** 2 for k in mesh)
    xi_dot_f = sum(mesh[i] * f_hat[i] for i in range(N))
    visc = lam + mu * K_sq
    pot = lam + (mu + nu) * K_sq
    D = lam * pot + kappa * K_sq * K_sq
    rho_hat = (pot * d_hat - 1j * xi_dot_f) / D
    ip_hat = 1j * (d_hat - lam * rho_hat)
    zero = (0,) * N
    with np.errstate(divide="ignore"):
        inv_K_sq = 1.0 / K_sq
    inv_K_sq[zero] = 0.0
    u_hat = np.empty_like(f_hat)
    for i in range(N):
        k_inv = mesh[i] * inv_K_sq
        u_hat[i] = (f_hat[i] - k_inv * xi_dot_f) / visc - k_inv * ip_hat
    u_hat[(slice(None), *zero)] = f_hat[(slice(None), *zero)] / lam
    rho_hat[zero] = d_hat[zero] / lam

    residuals = {}
    data_scale = max(np.max(np.abs(d_hat)), np.max(np.abs(f_hat)), 1e-300)
    xi_dot_u = sum(mesh[i] * u_hat[i] for i in range(N))
    lam_rho = lam * rho_hat
    r_mass = lam_rho + 1j * xi_dot_u - d_hat
    scale_mass = max(np.max(np.abs(lam_rho)), data_scale)
    residuals["mass"] = float(np.max(np.abs(r_mass)) / scale_mass)
    q = nu * xi_dot_u + (1j * kappa * K_sq) * rho_hat
    worst = 0.0
    for i in range(N):
        visc_u = visc * u_hat[i]
        r_mom = visc_u + mesh[i] * q - f_hat[i]
        scale = max(np.max(np.abs(visc_u)), data_scale)
        worst = max(worst, float(np.max(np.abs(r_mom)) / scale))
    residuals["momentum"] = worst

    rho = fields._vertical_inverse(rho_hat, "even")
    u = [fields._vertical_inverse(u_hat[i], parities[i]) for i in range(N)]
    return rho, u, residuals


# ---------------------------------------------------------------------------
# Test-only reference: the field solve in two steps, as it ran before it
# stayed in the tangential spectrum.  The whole-space part goes to the grid,
# its h traces are FFT'd again, the correction is synthesized as a dense
# array by its own inverse FFT, and the two parts are added.  The sums run
# in another order, so the two agree to rounding.
# ---------------------------------------------------------------------------


def _reference_two_step_solve(params, d, f, g_trace, lam):
    spec = d.spec
    N = spec.dim
    rho_hat, u_hat, _ = whole_space_solve(spec, params, d.values, [c.values for c in f], lam)
    rho_ws, u_ws = _grid(rho_hat), [_grid(c) for c in u_hat]
    g_hat = np.fft.fftn(g_trace)
    h_hat = [np.fft.fftn(-u_ws[j][..., 0]) for j in range(N - 1)]
    batch = lattice_modes(params, spec, g_hat, h_hat, lam)
    values = evaluate_profiles(batch.rates, batch.coeffs[:N + 1], spec.vertical_coords())
    corr = np.fft.ifftn(values.reshape((N + 1,) + spec.shape), axes=tuple(range(1, N)))
    return rho_ws + corr[0], [u + c for u, c in zip(u_ws, corr[1:])]


def _assert_close_to_peak(got, want, tol):
    peak = max(np.max(np.abs(w)) for w in want)
    for a, b in zip(got, want, strict=True):
        assert np.max(np.abs(a - b)) <= tol * peak


def _bump_data(spec):
    """Decayed Gaussian-bump d, f (f_N zero at x_N = 0) and g trace, in 2-D or 3-D."""
    x = spec.tangential_coords()
    z = spec.vertical_coords()
    bump = np.exp(-(np.add.outer((x - 0.3) ** 2, x ** 2) if spec.dim == 3 else (x - 0.3) ** 2)
                  / 0.25)

    def profile(center, power=0):
        return GridField(np.multiply.outer(bump, z ** power * np.exp(-((z - center) / 0.5) ** 2)),
                         spec)

    d = profile(3.0)
    f = [GridField((0.5 - 1.0j) * profile(2.0).values, spec) for _ in range(spec.dim - 1)]
    return d, f + [profile(2.5, power=1)], 0.3j * bump


class TestGridSpec:
    def test_shape_and_coords(self, spec):
        assert spec.shape == (64, 128)
        assert spec.vertical_coords()[0] == 0.0
        assert spec.tangential_coords()[0] == -3.0

    def test_power_of_two_enforced(self):
        from kortsolve import GridError
        with pytest.raises(GridError):
            GridSpec(n_tangential=48)

    def test_vertical_wavenumbers(self, spec):
        kz = spec.vertical_wavenumbers()
        assert len(kz) == spec.n_vertical + 1
        assert kz[0] == 0.0
        assert kz[-1] == pytest.approx(np.pi / spec.vertical_spacing)

    @pytest.mark.parametrize("name, value", [("vertical_cutoff", np.nan), ("box_half_length", np.inf),
                                             ("vertical_cutoff", 0.0), ("box_half_length", 1j),
                                             ("n_vertical", 100.5), ("dim", 2.5),
                                             ("n_tangential", 64.0)])
    def test_bad_numbers_rejected(self, name, value):
        with pytest.raises(GridError, match=rf"^{name} must be "):
            GridSpec(**{name: value})

    def test_numpy_scalars_stored_as_python_numbers(self, tmp_path):
        spec = GridSpec(dim=np.int64(3), n_tangential=np.int32(16), n_vertical=np.int64(32),
                        box_half_length=np.float32(3.0), vertical_cutoff=8)
        assert [type(n) for n in (spec.dim, spec.n_tangential, spec.n_vertical)] == [int] * 3
        assert [type(x) for x in (spec.box_half_length, spec.vertical_cutoff)] == [float] * 2
        save_field(str(tmp_path / "f"), GridField(np.zeros(spec.shape), spec))  # JSON header
        assert load_field(str(tmp_path / "f")).spec == spec


def _per_term_sample(field, axis_coords):
    """SepField.sample as it ran before the matrix product: one full-grid pass per term."""
    shape = tuple(len(c) for c in axis_coords)
    out = np.zeros(shape, dtype=complex)
    for a, fs in field.terms:
        term = np.ones(shape, dtype=complex) * a
        for i, f in enumerate(fs):
            vals = f(axis_coords[i])
            sl = [None] * len(shape)
            sl[i] = slice(None)
            term = term * vals[tuple(sl)]
        out += term
    return out


class TestSepField:
    COORDS = [np.linspace(-2.0, 2.0, 24), np.linspace(-1.5, 2.5, 20), np.linspace(0.0, 4.0, 18)]

    @staticmethod
    def _random_field(n_axes, n_terms=7, seed=0):
        rng = np.random.default_rng(seed)
        return SepField([(complex(*rng.normal(size=2)),
                          [PolyGauss(rng.normal(size=3), width=rng.uniform(0.5, 1.5),
                                     center=rng.uniform(-0.5, 0.5)) for _ in range(n_axes)])
                         for _ in range(n_terms)])

    @pytest.mark.parametrize("n_axes", [1, 2, 3])
    def test_sample_matches_per_term_loop(self, n_axes):
        field = self._random_field(n_axes, seed=n_axes)
        coords = self.COORDS[:n_axes]
        got, want = field.sample(coords), _per_term_sample(field, coords)
        assert got.shape == want.shape == tuple(len(c) for c in coords)
        assert np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(want))

    @pytest.mark.parametrize("dim", [2, 3])
    def test_manufactured_fields_match_per_term_loop(self, params, dim):
        spec = GridSpec(dim=dim, box_half_length=3.0, n_tangential=16,
                        vertical_cutoff=8.0, n_vertical=32)
        sep = manufactured_solution(params, spec, 1.0 + 0.5j)["sep"]
        coords = [spec.tangential_coords()] * (dim - 1) + [spec.vertical_coords()]
        for field in [sep["rho"], sep["d"]] + sep["u"] + sep["f"]:
            want = _per_term_sample(field, coords)
            assert np.max(np.abs(field.sample(coords) - want)) <= 1e-15 * np.max(np.abs(want))

    @pytest.mark.parametrize("n_axes", [2, 3])
    def test_sample_trace_is_the_x_n_zero_row(self, n_axes):
        field = self._random_field(n_axes, seed=10 + n_axes)
        tangential = self.COORDS[:n_axes - 1]
        want = _per_term_sample(field, tangential + [np.array([0.0])])[..., 0]
        got = field.sample_trace(tangential)
        assert got.shape == tuple(len(c) for c in tangential)
        assert np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(want))

    def test_no_terms_sample_zeros(self):
        empty = SepField([])
        for n_axes in (1, 2, 3):
            values = empty.sample(self.COORDS[:n_axes])
            assert values.dtype == complex and not np.any(values)
            assert values.shape == tuple(len(c) for c in self.COORDS[:n_axes])
        assert empty.sample_trace(self.COORDS[:2]).shape == (24, 20)

    @pytest.mark.parametrize("width", [0, -0.5, np.nan, np.inf])
    def test_bad_width_rejected(self, width):
        with pytest.raises(DomainError, match=r"^PolyGauss width must be finite and positive"):
            PolyGauss([1.0], width=width)

    def test_zero_bump_width_rejected(self, spec, params):
        with pytest.raises(DomainError, match=r"width must be finite and positive, got 0$"):
            manufactured_solution(params, spec, 1.0 + 0.5j, bump_width=0)


class TestExtensions:
    def test_even_reflection_is_dct1(self, spec):
        # the doubled-grid FFT of the even reflection (x = -L node zeroed)
        # is even in kz, and its kz >= 0 half is the DCT-I of the padded column
        v = np.random.default_rng(0).normal(size=spec.shape) + 0.5j
        full = np.fft.fft(_extend(v, "even"), axis=-1)
        n = spec.n_vertical
        np.testing.assert_allclose(full[..., n + 1:], full[..., 1:n][..., ::-1], atol=1e-11)
        np.testing.assert_allclose(_forward(v, "even"), full[..., :n + 1], atol=1e-11)

    def test_odd_reflection_is_dst1(self, spec):
        v = np.random.default_rng(1).normal(size=spec.shape) + 0.5j
        v[..., 0] = 0.0
        full = np.fft.fft(_extend(v, "odd"), axis=-1)
        n = spec.n_vertical
        np.testing.assert_allclose(full[..., n + 1:], -full[..., 1:n][..., ::-1], atol=1e-11)
        np.testing.assert_allclose(_forward(v, "odd"), full[..., :n + 1], atol=1e-11)

    def test_gradient_commutation(self, spec):
        # tangential and vertical spectral derivatives commute; the normal
        # derivative of an even array is odd, so it vanishes at x_N = 0, and
        # it matches the analytic derivative of the smooth datum
        d = _gaussian_data(spec)
        k = spec.tangential_wavenumbers()
        d_tan = np.fft.ifft(1j * k[:, None] * np.fft.fft(d, axis=0), axis=0)
        dn = vertical_spectral_derivative(d, spec, 1, "even")
        lhs = np.fft.ifft(1j * k[:, None] * np.fft.fft(dn, axis=0), axis=0)
        np.testing.assert_allclose(lhs, vertical_spectral_derivative(d_tan, spec, 1, "even"),
                                   atol=1e-10)
        assert np.max(np.abs(dn[..., 0])) == 0.0
        z = spec.vertical_coords()
        exact = -2.0 * (z - 3.0) / 0.25 * d
        np.testing.assert_allclose(dn, exact, atol=1e-9)
        # and back: the derivative of the odd result is even again
        d2n = vertical_spectral_derivative(dn, spec, 1, "odd")
        np.testing.assert_allclose(d2n, vertical_spectral_derivative(d, spec, 2, "even"),
                                   atol=1e-9)


class TestWholeSpace:
    def test_zero_data(self, spec, params):
        z = np.zeros(spec.shape, dtype=complex)
        rho, u, res = whole_space_solve(spec, params, z, [z, z], 1.0 + 0.5j)
        assert np.max(np.abs(rho)) == 0.0
        assert all(np.max(np.abs(c)) == 0.0 for c in u)

    def test_solenoidal_single_mode(self, spec, params):
        # f = (kz e^{ikx} cos kz z, -i k e^{ikx} sin kz z) is divergence free,
        # so u = f/(lam + mu|xi|^2) and rho = 0.  A cosine does not vanish at
        # x_N = L, where the reflection holds a zero node, so two vertical
        # modes are paired with cosine parts that cancel there.
        lam = 2.0 + 1.0j
        k = spec.tangential_wavenumbers()[3]
        kz5, kz7 = spec.vertical_wavenumbers()[[5, 7]]
        X, Z = np.meshgrid(spec.tangential_coords(), spec.vertical_coords(), indexing="ij")
        wave = np.exp(1j * k * X)
        f = [np.zeros(spec.shape, dtype=complex) for _ in range(2)]
        u_exact = [np.zeros(spec.shape, dtype=complex) for _ in range(2)]
        for kz, amp in ((kz5, 1.0), (kz7, -kz5 / kz7)):
            mode = [amp * kz * wave * np.cos(kz * Z), -1j * amp * k * wave * np.sin(kz * Z)]
            gain = 1.0 / (lam + params.mu * (k * k + kz * kz))
            for i in range(2):
                f[i] += mode[i]
                u_exact[i] += gain * mode[i]
        d = np.zeros(spec.shape, dtype=complex)
        rho, u, _ = whole_space_solve(spec, params, d, f, lam)
        for i in range(2):
            np.testing.assert_allclose(_grid(u[i]), u_exact[i], rtol=1e-12, atol=1e-14)
        assert np.max(np.abs(_grid(rho))) <= 1e-14

    def test_manufactured_round_trip(self, spec, params):
        # apply the forward operator spectrally to reflected smooth fields,
        # solve the half-grid data, recover the fields
        lam = 1.0 + 0.5j
        X, Z = np.meshgrid(spec.tangential_coords(), spec.vertical_coords(), indexing="ij")
        rho_true = np.exp(-X**2 - Z**2)
        u_true = [np.exp(-((X - 0.5) ** 2) - Z**2), Z * np.exp(-(X**2) - Z**2)]
        mesh = _doubled_mesh(spec)
        K2 = sum(m**2 for m in mesh)
        rho_h = np.fft.fftn(_extend(rho_true, "even"))
        u_h = [np.fft.fftn(_extend(u_true[0], "even")), np.fft.fftn(_extend(u_true[1], "odd"))]
        xi_dot_u = mesh[0] * u_h[0] + mesh[1] * u_h[1]
        nz = spec.n_vertical
        d = np.fft.ifftn(lam * rho_h + 1j * xi_dot_u)[..., :nz]
        f = []
        for i in range(2):
            ki = mesh[i]
            f_h = (lam + params.mu * K2) * u_h[i] + params.nu * ki * xi_dot_u \
                + 1j * params.kappa * K2 * ki * rho_h
            f.append(np.fft.ifftn(f_h)[..., :nz])
        f[1][..., 0] = 0.0  # zero in exact arithmetic; the FFTs leave rounding there
        rho, u, res = whole_space_solve(spec, params, d, f, lam)
        assert np.max(np.abs(_grid(rho) - rho_true)) <= 1e-8
        assert max(np.max(np.abs(_grid(u[i]) - u_true[i])) for i in range(2)) <= 1e-8
        assert max(res.values()) <= 1e-10

    @pytest.mark.parametrize("dim", [2, 3])
    def test_matches_doubled_grid_reference(self, params, dim):
        spec = GridSpec(dim=dim, box_half_length=3.0, n_tangential=16 if dim == 2 else 8,
                        vertical_cutoff=4.0, n_vertical=32 if dim == 2 else 16)
        lam = 0.7 + 1.3j
        d, f = _compatible_random_data(spec, np.random.default_rng(dim))
        rho, u, res = whole_space_solve(spec, params, d, f, lam)
        assert np.max(np.abs(u[-1][..., 0])) == 0.0  # the sine inverse zeroes that row
        rho, u = _grid(rho), [_grid(c) for c in u]
        rho2, u2 = _reference_whole_space_solve(spec, params, d, f, lam)
        nz = spec.n_vertical
        peak = max(np.max(np.abs(rho2)), max(np.max(np.abs(c)) for c in u2))
        assert np.max(np.abs(rho - rho2[..., :nz])) <= 1e-13 * peak
        for i in range(dim):
            assert np.max(np.abs(u[i] - u2[i][..., :nz])) <= 1e-13 * peak
        assert max(res.values()) <= 1e-10
        # the parity derivatives of the half-grid solution equal the doubled
        # grid's FFT derivatives, which see the solution's x = L node too
        kz = _doubled_mesh(spec)[-1]
        for values, doubled, parity in ((rho, rho2, "even"), (u[0], u2[0], "even"),
                                        (u[-1], u2[-1], "odd")):
            for order in (1, 2, 3):
                ref = np.fft.ifft((1j * kz) ** order * np.fft.fft(doubled, axis=-1), axis=-1)
                new = vertical_spectral_derivative(values, spec, order, parity)
                assert np.max(np.abs(new - ref[..., :nz])) <= 1e-12 * np.max(np.abs(ref))

    def test_normal_force_trace_rejected(self, spec, params):
        z = np.zeros(spec.shape, dtype=complex)
        f_normal = _gaussian_data(spec).astype(complex)
        f_normal[..., 0] = 1e-6
        with pytest.raises(ConfigurationError, match=r"trace/peak = 1\.00e-06"):
            whole_space_solve(spec, params, z, [z, f_normal], 1.0 + 0.5j)

    def test_trace_rejection_says_how_to_fix_spectral_data(self, spec, params):
        # transform rounding on the boundary row is rejected as well, so the
        # message names the fix
        z = np.zeros(spec.shape, dtype=complex)
        f_normal = _gaussian_data(spec).astype(complex)
        f_normal[..., 0] = 2.2e-12
        with pytest.raises(ConfigurationError, match=r"set its boundary row f_N\[\.\.\., 0\] "
                                                     r"to zero"):
            whole_space_solve(spec, params, z, [z, f_normal], 1.0 + 0.5j)

    @pytest.mark.parametrize("component", ["d", "f_N"])
    def test_nan_data_rejected(self, params, component):
        # NaN compares False with every bound, so the trace guard and the
        # residual gates must fail on it rather than pass it through
        spec = GridSpec(dim=2, box_half_length=3.0, n_tangential=16,
                        vertical_cutoff=8.0, n_vertical=32)
        d = _gaussian_data(spec).astype(complex)
        f = [np.zeros(spec.shape, dtype=complex), np.zeros(spec.shape, dtype=complex)]
        (d if component == "d" else f[-1])[3, 5] = np.nan
        with pytest.raises(ConfigurationError):
            whole_space_solve(spec, params, d, f, 1.0 + 0.5j)

    def test_requires_right_half_plane(self, spec, params):
        from kortsolve import DomainError
        z = np.zeros(spec.shape, dtype=complex)
        with pytest.raises(DomainError):
            whole_space_solve(spec, params, z, [z, z], -1.0)

    @pytest.mark.parametrize("component", ["d", "f[0]", "f[1]"])
    @pytest.mark.parametrize("shape", [(32, 32), (32, 16)])
    def test_mis_shaped_data_rejected(self, params, component, shape):
        # extra tangential rows (the only nonzero sits in row 20) or swapped
        # axes used to be read through reshape(-1, n_z) without an error
        spec = GridSpec(dim=2, box_half_length=3.0, n_tangential=16,
                        vertical_cutoff=8.0, n_vertical=32)
        data = {"d": np.zeros(spec.shape, dtype=complex),
                "f[0]": np.zeros(spec.shape, dtype=complex),
                "f[1]": np.zeros(spec.shape, dtype=complex)}
        data[component] = np.zeros(shape, dtype=complex)
        data[component][20 % shape[0], 5] = 1.0
        with pytest.raises(GridError, match=rf"{re.escape(component)} must have the grid shape "
                                            r"\(16, 32\), got"):
            whole_space_solve(spec, params, data["d"], [data["f[0]"], data["f[1]"]], 1.0 + 0.5j)


class TestSlabAlgebra:
    """The row-slab whole-space algebra against the one-pass reference, bit for bit."""

    @pytest.mark.parametrize("dim, n_tangential, n_vertical, workers, slab_rows, data", [
        # slab_rows None: one slab per worker, as even as the rows allow
        (2, 64, 128, 2, None, "random"),
        (2, 64, 128, 3, None, "random"),   # 64 rows over 3 slabs: 21, 21, 22
        (2, 64, 128, 2, 5, "random"),      # 12 slabs of 5 or 6 rows
        (2, 8, 64, 12, None, "random"),    # fewer rows than workers: one row a slab
        (3, 16, 32, 3, None, "random"),
        (3, 8, 16, 12, None, "random"),
        (2, 64, 128, 3, None, "zero"),
        (3, 16, 32, 3, None, "zero"),
        (2, 64, 128, 3, None, "mean"),     # data with a nonzero zero mode
        (3, 16, 32, 3, None, "mean"),
    ])
    def test_matches_one_pass_reference(self, monkeypatch, params, dim, n_tangential,
                                        n_vertical, workers, slab_rows, data):
        spec = GridSpec(dim=dim, box_half_length=3.0, n_tangential=n_tangential,
                        vertical_cutoff=4.0, n_vertical=n_vertical)
        if data == "random":
            d, f = _compatible_random_data(spec, np.random.default_rng(n_tangential + dim))
        elif data == "zero":
            d = np.zeros(spec.shape, dtype=complex)
            f = [d] * dim
        else:
            coords = [spec.tangential_coords()] * (dim - 1) + [spec.vertical_coords() - 2.0]
            bump = np.exp(-sum(c ** 2 for c in np.meshgrid(*coords, indexing="ij")))
            d = (1.0 + 0.5j) * bump
            f = [(0.5 - 1.0j) * bump] * (dim - 1) + [np.zeros(spec.shape, dtype=complex)]
            assert abs(fields.tangential_fft(_forward(d, "even"), tuple(range(dim - 1))).flat[0]) \
                > 1.0
        lam = 0.7 + 1.3j
        # a row of the (N+1)-component buffer the slabs are cut from
        row_bytes = (dim + 1) * spec.n_tangential ** (dim - 2) * (spec.n_vertical + 1) * 16
        if slab_rows is None:
            slab_rows = max(1, n_tangential // workers)
        monkeypatch.setattr(fields, "cpu_workers", lambda: workers)
        monkeypatch.setattr(fields, "TASK_BYTES", slab_rows * row_bytes)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # interleave the slab threads as finely as possible
        try:
            rho, u, res = whole_space_solve(spec, params, d, f, lam)
        finally:
            sys.setswitchinterval(interval)
        monkeypatch.undo()  # the reference runs its transforms on this thread alone
        rho_ref, u_ref, res_ref = _reference_one_pass_solve(spec, params, d, f, lam)
        assert np.array_equal(rho, rho_ref)
        assert all(np.array_equal(a, b) for a, b in zip(u, u_ref, strict=True))
        assert res == res_ref


class TestWorkPool:
    """Slabs on the helper threads: each taken once, results in order, same bits."""

    def _threads(self, monkeypatch, workers=3):
        monkeypatch.setattr(fields, "cpu_workers", lambda: workers)
        monkeypatch.setattr(fields, "TASK_BYTES", 1)

    def test_each_slab_once_in_order(self, monkeypatch):
        self._threads(monkeypatch)
        seen = []
        slabs = fields._slices(50, 50)
        assert len(slabs) == 50

        def task(s):
            seen.append(s.start)
            return s.start * 2

        assert fields._run_slabs(task, slabs) == [2 * k for k in range(50)]
        assert sorted(seen) == list(range(50))

    def test_small_work_stays_on_the_calling_thread(self, monkeypatch):
        import threading
        monkeypatch.setattr(fields, "cpu_workers", lambda: 3)
        caller = threading.get_ident()
        slabs = fields._slices(8, 2 * fields.TASK_BYTES - 1)
        assert len(slabs) == 1
        assert fields._run_slabs(lambda s: threading.get_ident(), slabs) == [caller]

    def test_whole_space_pass_uses_helper_threads(self, monkeypatch, spec, params):
        import threading
        seen = []
        solve_slab = fields._solve_slab

        def recording(*args):
            seen.append(threading.get_ident())
            return solve_slab(*args)

        self._threads(monkeypatch)
        monkeypatch.setattr(fields, "_solve_slab", recording)
        d, f = _compatible_random_data(spec, np.random.default_rng(3))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # let the helpers take the GIL as soon as they wake
        try:
            whole_space_solve(spec, params, d, f, 0.7 + 1.3j)
        finally:
            sys.setswitchinterval(interval)
        assert len(seen) == spec.n_tangential
        assert len(set(seen)) > 1

    def test_error_raised_after_every_slab_is_done(self, monkeypatch):
        import threading
        import time
        self._threads(monkeypatch)
        running, lock = [0], threading.Lock()

        def task(s):
            with lock:
                running[0] += 1
            try:
                time.sleep(0.002)
                if s.start == 3:
                    raise ValueError("slab 3")
            finally:
                with lock:
                    running[0] -= 1

        with pytest.raises(ValueError, match="slab 3"):
            fields._run_slabs(task, fields._slices(20, 20))
        assert running[0] == 0

    @pytest.mark.parametrize("workers", [2, 3])
    def test_nested_slabs_return(self, workers):
        # a slab task that runs slabs itself (a field solve inside a pool
        # task) takes the pool's threads; the inner calls must not wait on
        # helpers that no thread is left to start.  A fresh interpreter with
        # a timeout turns a deadlock into a failure instead of a hang.
        probe = ("import time; from kortsolve import fields; "
                 f"fields.cpu_workers = lambda: {workers}; "
                 "slabs = [slice(k, k + 1) for k in range(8)]; "
                 "inner = lambda s: (time.sleep(0.001), s.start)[1]; "
                 "outer = lambda s: sum(fields._run_slabs(inner, slabs)) + s.start; "
                 "print(fields._run_slabs(outer, slabs))")
        src = str(Path(fields.__file__).resolve().parent.parent)
        out = subprocess.run([sys.executable, "-c", probe], env=dict(os.environ, PYTHONPATH=src),
                             capture_output=True, text=True, timeout=60, check=True)
        assert out.stdout.strip() == str([28 + k for k in range(8)])

    @pytest.mark.parametrize("shape", [(64, 33), (8, 16, 17), (3, 8, 16, 17)])
    def test_transforms_do_not_depend_on_the_slabs(self, monkeypatch, shape):
        rng = np.random.default_rng(len(shape))
        v = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        v[..., 0] = 0.0
        t_axes = tuple(range(len(shape) - 1))
        hat_axes = tuple(range(1, len(shape) - 1)) if len(shape) == 4 else t_axes

        def transforms():
            out = [fields.tangential_fft(v, t_axes), fields.tangential_fft(v, t_axes, True),
                   fields.tangential_fft(v.copy(), t_axes, overwrite_x=True)]
            for parity in ("even", "odd"):
                hat = _forward(v, parity)
                out += [hat.copy(), fields.tangential_fft(hat.copy(), hat_axes, overwrite_x=True)]
                half = fields._vertical_inverse(hat, parity)
                assert np.shares_memory(half, hat)  # the inverse runs in place
                np.testing.assert_allclose(half, v, rtol=0, atol=1e-13)
                out.append(half.copy())
            return out

        kept = v.copy()
        serial = transforms()
        assert np.array_equal(v, kept)
        self._threads(monkeypatch)
        pooled = transforms()
        assert all(np.array_equal(a, b) for a, b in zip(serial, pooled, strict=True))
        # one axis at a time, last first: numpy's own order, so numpy's bits
        assert np.array_equal(pooled[0], np.fft.fftn(v, axes=t_axes))
        assert np.array_equal(pooled[1], np.fft.ifftn(v, axes=t_axes))


class TestBoundaryReduction:
    def test_zero_data_passthrough(self, spec, params):
        zero = GridField(np.zeros(spec.shape), spec)
        g = np.exp(-spec.tangential_coords() ** 2)
        spectrum, _, g_hat, h_hat = whole_space_reduction(params, zero, [zero, zero], g,
                                                          1.0 + 0.5j)
        assert np.array_equal(g_hat, np.fft.fft(g))
        assert all(np.max(np.abs(h)) == 0.0 for h in h_hat)
        assert np.max(np.abs(spectrum)) == 0.0

    def test_odd_normal_force_keeps_un_zero(self, spec, params):
        zero = GridField(np.zeros(spec.shape), spec)
        z = spec.vertical_coords()
        fN = GridField(np.outer(np.exp(-spec.tangential_coords() ** 2),
                                z * np.exp(-((z - 1.0) ** 2))), spec)
        g = np.zeros(spec.tangential_shape)
        spectrum, *_ = whole_space_reduction(params, zero, [zero, fN], g, 1.0 + 0.5j)
        assert np.max(np.abs(spectrum[-1, ..., 0])) == 0.0
        assert np.max(np.abs(spectrum[-1])) > 0.0

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
        # the normal force must vanish at x_N = 0 for its odd reflection
        f = [GridField(bump(), spec), GridField(Z * bump(), spec)]
        g = np.zeros(spec.tangential_shape)
        spectrum, *_ = whole_space_reduction(params, d, f, g, 1.0 + 0.5j)
        u_normal = _grid(spectrum[-1, ..., :spec.n_vertical])
        un = np.max(np.abs(u_normal[..., 0]))
        scale = np.max(np.abs(u_normal))
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

    def test_manufactured_recovery_and_refinement_3d(self, params):
        lam = 1.0 + 0.5j
        errs = []
        for n_tan in (16, 32, 64):
            spec = GridSpec(dim=3, box_half_length=3.0, n_tangential=n_tan,
                            vertical_cutoff=12.0, n_vertical=512)
            mf = manufactured_solution(params, spec, lam)
            rho, u, rep = solve_resolvent(params, mf["d"], mf["f"], mf["g_trace"], lam)
            scale = max(np.max(np.abs(mf["rho"].values)),
                        max(np.max(np.abs(c.values)) for c in mf["u"]))
            err = max(np.max(np.abs(rho.values - mf["rho"].values)),
                      max(np.max(np.abs(u[i].values - mf["u"][i].values))
                          for i in range(3))) / scale
            errs.append(err)
            assert rep.un_trace_ratio <= 1e-10
            assert rep.boundary_u_max <= 1e-8
            assert rep.boundary_g_residual <= 1e-8
        assert errs[0] > errs[1] > errs[2]
        assert errs[2] <= 5e-5

    def test_assembly_is_the_sum_of_its_parts(self, params):
        # the correction is scattered into the whole-space spectrum: the fields
        # equal the two parts summed on the grid to rounding, the data is left
        # untouched, and the norms are grid_norm's
        spec = GridSpec(dim=2, box_half_length=3.0, n_tangential=32,
                        vertical_cutoff=8.0, n_vertical=64)
        lam = 1.0 + 0.5j
        mf = manufactured_solution(params, spec, lam)
        data = [mf["d"].values.copy()] + [c.values.copy() for c in mf["f"]]
        rho, u, rep = solve_resolvent(params, mf["d"], mf["f"], mf["g_trace"], lam)
        rho_ref, u_ref = _reference_two_step_solve(params, mf["d"], mf["f"], mf["g_trace"], lam)
        _assert_close_to_peak([rho.values] + [c.values for c in u], [rho_ref] + u_ref, 1e-14)
        for before, after in zip(data, [mf["d"]] + list(mf["f"])):
            assert np.array_equal(before, after.values)
        assert rep.norms == {f"l{q:g}": grid_norm(rho.values, spec, q) for q in (1.5, 2.0, 4.0)}

    @pytest.mark.parametrize("slabs", ["one", "many"])
    @pytest.mark.parametrize("dim", [2, 3])
    @pytest.mark.parametrize("case", ["I", "II", "III", "IV", "V"])
    def test_matches_two_step_reference(self, monkeypatch, params_by_case, case, dim, slabs):
        params = params_by_case[case]
        spec = GridSpec(dim=dim, box_half_length=3.0, n_tangential=16 if dim == 2 else 8,
                        vertical_cutoff=8.0, n_vertical=64 if dim == 2 else 32)
        d, f, g = _bump_data(spec)
        lam = 0.7 + 1.3j
        if slabs == "many":
            monkeypatch.setattr(fields, "cpu_workers", lambda: 3)
            monkeypatch.setattr(fields, "TASK_BYTES", 1)  # one row a slab, on threads
        rho, u, rep = solve_resolvent(params, d, f, g, lam)
        monkeypatch.undo()
        rho_ref, u_ref = _reference_two_step_solve(params, d, f, g, lam)
        _assert_close_to_peak([rho.values] + [c.values for c in u], [rho_ref] + u_ref, 1e-14)
        assert rep.un_trace_ratio == 0.0
        assert rep.boundary_u_max <= 1e-12 and rep.boundary_g_residual <= 1e-12

    def test_peak_memory_of_one_solve(self, monkeypatch, params):
        # the solve runs in one buffer of N+1 spectra: its peak traced
        # allocation stays under 7 grid arrays (the two-step pipeline took 10)
        spec = GridSpec(dim=2, box_half_length=3.0, n_tangential=64,
                        vertical_cutoff=16.0, n_vertical=512)
        lam = 1.0 + 0.5j
        mf = manufactured_solution(params, spec, lam)
        data = [mf["d"].values.copy()] + [c.values.copy() for c in mf["f"]]
        monkeypatch.setattr(fields, "TASK_BYTES", 1 << 15)
        assert len(fields._slices(spec.n_tangential,
                                  spec.n_tangential * (spec.n_vertical + 1) * 16)) == 16
        solve_resolvent(params, mf["d"], mf["f"], mf["g_trace"], lam)  # imports, caches, pool
        tracemalloc.start()
        try:
            solve_resolvent(params, mf["d"], mf["f"], mf["g_trace"], lam)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        grid_array = 16 * np.prod(spec.shape)
        assert peak <= 7 * grid_array
        for before, after in zip(data, [mf["d"]] + list(mf["f"])):
            assert np.array_equal(before, after.values)

    @pytest.mark.parametrize("other", [{"box_half_length": 6.0, "vertical_cutoff": 32.0},
                                       {"n_tangential": 32}],
                             ids=["same-shape", "other-shape"])
    def test_data_on_another_grid_rejected(self, params, other):
        spec = GridSpec(dim=2, box_half_length=3.0, n_tangential=64,
                        vertical_cutoff=16.0, n_vertical=512)
        lam = 1.0 + 0.5j
        mf = manufactured_solution(params, spec, lam)
        elsewhere = dataclasses.replace(spec, **other)
        moved = manufactured_solution(params, elsewhere, lam)
        with pytest.raises(GridError, match=r"^f\[1\] is on the grid"):
            solve_resolvent(params, mf["d"], [mf["f"][0], moved["f"][1]], mf["g_trace"], lam)
        g = GridField(np.broadcast_to(moved["g_trace"][:, None], elsewhere.shape), elsewhere)
        with pytest.raises(GridError, match=r"^g is on the grid"):
            solve_resolvent(params, mf["d"], mf["f"], g, lam)

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

    @pytest.mark.parametrize("dim", [2, 3])
    def test_correction_residual_index_locates_worst_spot_check(self, params, dim):
        spec = GridSpec(dim=dim, box_half_length=3.0, n_tangential=8,
                        vertical_cutoff=8.0, n_vertical=32)
        lam = 1.0 + 0.5j
        x = spec.tangential_coords()
        z = spec.vertical_coords()
        bump = np.exp(-(np.add.outer(x**2, x**2) if dim == 3 else x**2) / 0.25)
        d = GridField(np.multiply.outer(bump, np.exp(-((z - 3.0) / 0.5) ** 2)), spec)
        f = [GridField(np.zeros(spec.shape), spec)] * dim
        _, _, rep = solve_resolvent(params, d, f, bump, lam)
        # the spot-check: every (n_tangential/4)-th index sum, on its ladder
        stride = spec.n_tangential // 4
        ladder = np.concatenate([[0.0], 2.0 ** np.arange(-4, 4, dtype=float)])
        # the batch the pipeline solves: its spectral g and h traces
        _, _, g_hat, h_hat = whole_space_reduction(params, d, f, bump, lam)
        batch = lattice_modes(params, spec, g_hat, h_hat, lam)
        residuals, equations = {}, {}
        for k, index in enumerate(np.ndindex(*spec.tangential_shape)):
            if sum(index) % stride == 0:
                mode = TangentialMode(xi=batch.xi[k], lam=lam, dim=dim)
                r = pde_residual(params, mode, ModeSolution(batch.take([k])),
                                 sample_points=ladder)
                residuals[index], equations[index] = r.pde_max, r.worst_equation()
        assert rep.correction_residual_index == max(residuals, key=residuals.get)
        assert rep.correction_residual_max == max(residuals.values())
        assert rep.correction_residual_equation == equations[rep.correction_residual_index]
        assert all(type(i) is int for i in rep.correction_residual_index)

    def test_normal_force_with_boundary_trace_rejected(self, spec, params):
        # its odd reflection would jump at x_N = 0 and the solve would return
        # a field that misses u = 0 on the boundary
        zero = GridField(np.zeros(spec.shape), spec)
        X, Z = np.meshgrid(spec.tangential_coords(), spec.vertical_coords(), indexing="ij")
        fN = GridField(np.exp(-(X**2 + (Z - 0.5) ** 2) / 0.25), spec)
        g = np.zeros(spec.tangential_shape)
        with pytest.raises(ConfigurationError, match=r"trace/peak = 3\.68e-01"):
            solve_resolvent(params, zero, [zero, fN], g, 1.0 + 0.5j)

    @pytest.mark.parametrize("dim", [2, 3])
    def test_boundary_g_residual_for_zero_g(self, params, dim):
        # with g = 0 the defect of d_N rho(0) = -g is measured against the
        # profile terms it sums, so an exact solve reports rounding
        spec = GridSpec(dim=dim, box_half_length=3.0, n_tangential=16,
                        vertical_cutoff=8.0, n_vertical=64)
        x = spec.tangential_coords()
        z = spec.vertical_coords()
        bump = np.exp(-(np.add.outer(x**2, x**2) if dim == 3 else x**2) / 0.25)
        d = GridField(np.multiply.outer(bump, np.exp(-((z - 3.0) / 0.5) ** 2)), spec)
        f = [GridField(np.multiply.outer(bump, np.exp(-((z - 2.0) / 0.5) ** 2)), spec)
             for _ in range(dim - 1)] + [GridField(np.zeros(spec.shape), spec)]
        _, _, rep = solve_resolvent(params, d, f, np.zeros(spec.tangential_shape), 1.0 + 0.5j)
        assert rep.boundary_g_residual <= 1e-12
        assert rep.boundary_u_max <= 1e-12

    def test_undecayed_data_rejected(self, spec, params):
        wide = GridField(np.ones(spec.shape), spec)
        g = np.zeros(spec.tangential_shape)
        with pytest.raises(ConfigurationError):
            solve_resolvent(params, wide, [wide, wide], g, 1.0)

    def test_edge_decay_judged_before_the_trace_guard(self, spec, params):
        # data that has not decayed and an f_N with a trace: the edge-decay
        # message comes first, in the order d, f[0], .., and the trace guard
        # speaks only when the edge is not judged
        decayed = GridField(_gaussian_data(spec), spec)
        wide = GridField(np.ones(spec.shape), spec)
        X, Z = np.meshgrid(spec.tangential_coords(), spec.vertical_coords(), indexing="ij")
        fN = GridField(np.exp(-(X**2 + (Z - 0.5) ** 2) / 0.25), spec)  # trace/peak 0.368
        g = np.zeros(spec.tangential_shape)
        with pytest.raises(ConfigurationError, match=r"^d has not decayed at the grid edge"):
            solve_resolvent(params, wide, [wide, fN], g, 1.0)
        with pytest.raises(ConfigurationError, match=r"^f\[0\] has not decayed at the grid edge"):
            solve_resolvent(params, decayed, [wide, fN], g, 1.0)
        with pytest.raises(ConfigurationError, match=r"^normal force does not vanish"):
            solve_resolvent(params, wide, [wide, fN], g, 1.0, validate=False)

    @pytest.mark.parametrize("case", ["I", "II", "III", "IV", "V"])
    @pytest.mark.parametrize("dim", [2, 3])
    def test_correction_on_the_pool_is_bit_equal(self, monkeypatch, params_by_case, case, dim):
        # slabs of one mode on three threads add the bits of one call on the
        # calling thread; cases IV and V carry x e^{-t x} terms
        params = params_by_case[case]
        spec = GridSpec(dim=dim, box_half_length=3.0, n_tangential=16 if dim == 2 else 8,
                        vertical_cutoff=8.0, n_vertical=64 if dim == 2 else 32)
        d, f, g = _bump_data(spec)
        lam = 0.7 + 1.3j
        spectrum, _, g_hat, h_hat = whole_space_reduction(params, d, f, g, lam)
        one = spectrum.copy()
        batch = fields.boundary_correction(params, spec, g_hat, h_hat, lam, one)
        assert batch.coeffs.shape[-1] == (2 if case in ("IV", "V") else 1)
        monkeypatch.setattr(fields, "cpu_workers", lambda: 3)
        monkeypatch.setattr(fields, "TASK_BYTES", 1)  # one mode a slab, on threads
        assert len(fields._slices(len(batch), spectrum.nbytes)) == len(batch)
        pooled = spectrum.copy()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # interleave the slab threads as finely as possible
        try:
            fields.boundary_correction(params, spec, g_hat, h_hat, lam, pooled)
        finally:
            sys.setswitchinterval(interval)
        assert np.array_equal(pooled, one)
        assert not np.array_equal(one, spectrum)

    @pytest.mark.parametrize("dim", [2, 3])
    def test_report_on_the_pool_is_bit_equal(self, monkeypatch, params, dim):
        # one row, one mode and one column a slab on three threads: the same
        # fields and report, and the norms are grid_norm's.  Lines of 256
        # points tell a pairwise line sum from a running one.
        spec = GridSpec(dim=dim, box_half_length=3.0, n_tangential=256 if dim == 2 else 8,
                        vertical_cutoff=8.0, n_vertical=32)
        d, f, g = _bump_data(spec)
        lam = 0.7 + 1.3j
        rho, u, rep = solve_resolvent(params, d, f, g, lam)
        monkeypatch.setattr(fields, "cpu_workers", lambda: 3)
        monkeypatch.setattr(fields, "TASK_BYTES", 1)
        rho2, u2, rep2 = solve_resolvent(params, d, f, g, lam)
        assert np.array_equal(rho.values, rho2.values)
        assert all(np.array_equal(a.values, b.values) for a, b in zip(u, u2, strict=True))
        assert rep == rep2
        assert rep.norms == {f"l{q:g}": grid_norm(rho.values, spec, q) for q in (1.5, 2.0, 4.0)}
        for q, norm in zip((1.5, 2.0, 4.0), rep.norms.values()):
            flat = np.sum(np.abs(rho.values) ** q) * spec.cell_volume()
            assert norm == pytest.approx(flat ** (1.0 / q), rel=1e-14)

    @pytest.mark.parametrize("component", ["rho", "u_N"])
    def test_nan_in_correction_raises_grid_error(self, monkeypatch, params, component):
        # the outputs are not scanned again: their maxima must catch a NaN
        spec = GridSpec(dim=2, box_half_length=3.0, n_tangential=16,
                        vertical_cutoff=8.0, n_vertical=64)
        d, f, g = _bump_data(spec)
        solve = fields.lattice_modes

        def planted(*args):
            batch = solve(*args)
            batch.coeffs[0 if component == "rho" else spec.dim, 5, 0, 0] = np.nan
            return batch

        monkeypatch.setattr(fields, "lattice_modes", planted)
        with pytest.raises(GridError, match="non-finite"):
            solve_resolvent(params, d, f, g, 0.7 + 1.3j)


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

    @pytest.mark.parametrize("q", [np.inf, np.nan, 0.0, -1.0])
    def test_grid_norm_needs_finite_positive_q(self, spec, q):
        # at q = inf the root of the power sum reads 1.0 for any data
        from kortsolve import DomainError
        with pytest.raises(DomainError, match="0 < q < inf"):
            grid_norm(2.0 * np.ones(spec.shape), spec, q)


class TestEdgeDecay:
    def test_decayed_data_passes(self, spec):
        fields.validate_edge_decay(_gaussian_data(spec), spec)
        fields.validate_edge_decay(np.zeros(spec.shape), spec)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("where", [(3, 5), (0, 5), (3, -1)], ids=["interior", "box", "top"])
    def test_non_finite_data_rejected(self, bad, where):
        # a NaN or inf peak makes every edge bound hold, so it is refused first
        spec = GridSpec(dim=2, box_half_length=3.0, n_tangential=8,
                        vertical_cutoff=8.0, n_vertical=8)
        values = _gaussian_data(spec).astype(complex)
        values[where] = bad
        with pytest.raises(ConfigurationError, match=r"^d contains non-finite values"):
            fields.validate_edge_decay(values, spec, "d")
