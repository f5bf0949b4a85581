"""Full-data resolvent solve on the half-space via FFT assembly.

The inhomogeneous problem (data d, f in the interior, g on the boundary) is
reduced to the boundary-data-only problem in three steps:

1. extend d evenly and f with the mixed parity (tangential components even,
   normal component odd) to a doubled periodic box and solve the whole-space
   problem mode-by-mode in the full N-dimensional Fourier space;
2. read corrected boundary traces off the whole-space solution: by the parity
   argument its normal velocity vanishes on the interface, so only the
   tangential velocities and the normal density gradient need correcting;
3. solve the reduced boundary problem per tangential mode with
   `modes.solve_mode` and add the exact profile correction to the restricted
   whole-space part.

Steps 1 and 2 are `whole_space_reduction`, the one path shared by
`reduce_boundary_data`, `solve_resolvent` and the full-data rbound family.
Step 3 is `boundary_correction`, which solves each lattice mode exactly once
and hands the per-mode solutions back, so boundary diagnostics read exact
profile derivatives off them instead of solving again.

Grid convention: vertical nodes sit at x_N = k*h, k = 0..n_z-1 with
h = L/n_z, so the interface x_N = 0 is a grid row; the doubled grid has
2*n_z nodes indexed over [0, 2L) ~ [-L, L).  Tangential axes are periodic
boxes [-ell, ell) sampled at powers of two.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError, DomainError, GridError
from .modes import BoundaryTrace, pde_residual, solve_mode
from .spectral import FluidParams, TangentialMode

EDGE_DECAY_REQUIREMENT = 1e-12


@dataclass(frozen=True)
class GridSpec:
    """Tangential box times truncated vertical half-line."""

    dim: int = 2
    box_half_length: float = 1.0
    n_tangential: int = 64
    vertical_cutoff: float = 8.0
    n_vertical: int = 256

    def __post_init__(self):
        if self.dim < 2:
            raise GridError("dim must be >= 2")
        n = self.n_tangential
        if n < 8 or (n & (n - 1)) != 0:
            raise GridError("n_tangential must be a power of two, >= 8")
        if self.n_vertical < 8:
            raise GridError("n_vertical must be >= 8")
        if self.vertical_cutoff <= 0 or self.box_half_length <= 0:
            raise GridError("grid lengths must be positive")

    @property
    def tangential_shape(self):
        return (self.n_tangential,) * (self.dim - 1)

    @property
    def shape(self):
        return self.tangential_shape + (self.n_vertical,)

    @property
    def tangential_spacing(self):
        return 2.0 * self.box_half_length / self.n_tangential

    @property
    def vertical_spacing(self):
        return self.vertical_cutoff / self.n_vertical

    def tangential_coords(self):
        n = self.n_tangential
        return -self.box_half_length + self.tangential_spacing * np.arange(n)

    def vertical_coords(self):
        return self.vertical_spacing * np.arange(self.n_vertical)

    def doubled_vertical_coords(self):
        """Signed coordinates of the doubled grid in fft index order."""
        n2 = 2 * self.n_vertical
        x = self.vertical_spacing * np.arange(n2)
        return np.where(x < self.vertical_cutoff, x, x - 2.0 * self.vertical_cutoff)

    def tangential_wavenumbers(self):
        return 2.0 * math.pi * np.fft.fftfreq(self.n_tangential, d=self.tangential_spacing)

    def doubled_vertical_wavenumbers(self):
        return 2.0 * math.pi * np.fft.fftfreq(2 * self.n_vertical, d=self.vertical_spacing)

    def cell_volume(self):
        return self.tangential_spacing ** (self.dim - 1) * self.vertical_spacing


@dataclass
class GridField:
    """Complex samples over the tangential lattice x vertical grid."""

    values: np.ndarray
    spec: GridSpec
    role: str = "datum"  # density | velocity_component | datum

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=complex)
        if self.values.shape != self.spec.shape:
            raise GridError(f"values shape {self.values.shape} != grid {self.spec.shape}")
        if not np.all(np.isfinite(self.values)):
            raise GridError("grid field contains non-finite values")

    def trace(self):
        """Boundary row x_N = 0."""
        return self.values[..., 0]


def grid_norm(values, spec: GridSpec, q: float = 2.0) -> float:
    """Discrete l_q norm with uniform cell-volume quadrature weights."""
    if q <= 0:
        raise DomainError("q must be positive")
    vol = spec.cell_volume()
    return float((np.sum(np.abs(values) ** q) * vol) ** (1.0 / q))


def validate_edge_decay(values, spec: GridSpec, what: str = "data"):
    """Require the data to have decayed at the tangential box edge and at x_N ~ L."""
    peak = float(np.max(np.abs(values)))
    if peak == 0.0:
        return
    worst = 0.0
    for axis in range(spec.dim - 1):
        edge = np.take(values, 0, axis=axis)
        worst = max(worst, float(np.max(np.abs(edge))))
    worst = max(worst, float(np.max(np.abs(values[..., -1]))))
    if worst > EDGE_DECAY_REQUIREMENT * peak:
        raise ConfigurationError(
            f"{what} has not decayed at the grid edge: edge/peak = {worst / peak:.2e} "
            f"(require <= {EDGE_DECAY_REQUIREMENT:.0e}); enlarge the box"
        )


# ---------------------------------------------------------------------------
# Even/odd extension and the whole-space solve
# ---------------------------------------------------------------------------


def extend(values, parity: str):
    """Reflect a half-grid array onto the doubled vertical grid.

    Even: G(-x) = F(x); odd: G(-x) = -F(x).  The node at x = -L (index n_z)
    has no half-grid preimage and is set to zero, which is consistent for
    data that has decayed by the cutoff.  The interface node keeps its value;
    an odd extension of data with a nonzero trace is discontinuous there, as
    in the continuum.
    """
    if parity not in ("even", "odd"):
        raise DomainError("parity must be 'even' or 'odd'")
    values = np.asarray(values, dtype=complex)
    n = values.shape[-1]
    sign = 1.0 if parity == "even" else -1.0
    doubled = np.zeros(values.shape[:-1] + (2 * n,), dtype=complex)
    doubled[..., :n] = values
    doubled[..., n + 1:] = sign * values[..., 1:][..., ::-1]
    return doubled


def extend_vector(components, spec: GridSpec):
    """The mixed extension: tangential components even, normal component odd."""
    if len(components) != spec.dim:
        raise DomainError(f"need {spec.dim} velocity components")
    return [extend(c, "even") for c in components[:-1]] + [extend(components[-1], "odd")]


def _full_wavenumber_mesh(spec: GridSpec):
    axes = [spec.tangential_wavenumbers()] * (spec.dim - 1) + [spec.doubled_vertical_wavenumbers()]
    return np.meshgrid(*axes, indexing="ij", sparse=True)


def whole_space_solve(spec: GridSpec, params: FluidParams, d2, f2, lam,
                      check_residual: bool = True):
    """Solve the whole-space resolvent problem on the doubled periodic box.

    Inputs are doubled-grid arrays: d2 scalar, f2 a list of N components.
    Per full frequency xi the solenoidal part of u is f_perp/(lam + mu|xi|^2)
    while rho and the potential part solve the scalar system obtained by
    eliminating i xi . u = d - lam rho:

        rho = ((lam + (mu+nu)|xi|^2) d - i xi . f)
              / (lam^2 + lam (mu+nu)|xi|^2 + kappa |xi|^4),

    whose denominator is kappa (s1 lam + |xi|^2)(s2 lam + |xi|^2) != 0 for
    Re lam > 0.  Returns (rho2, u2 list, residual dict); the discrete
    residuals of both equations are checked to 1e-10 relative.
    """
    lam = complex(lam)
    if lam.real <= 0.0:
        raise DomainError("whole-space solve requires Re lambda > 0")
    mu, nu, kappa = params.mu, params.nu, params.kappa
    N = spec.dim
    if len(f2) != N:
        raise DomainError(f"need {N} force components")
    d2 = np.asarray(d2, dtype=complex)

    mesh = _full_wavenumber_mesh(spec)
    K_sq = sum(k ** 2 for k in mesh)
    K_sq = np.broadcast_to(K_sq, d2.shape)

    d_hat = np.fft.fftn(d2)
    f_hat = np.stack([np.fft.fftn(np.asarray(c, dtype=complex)) for c in f2])
    # The vertical Nyquist mode has no parity partner (it is its own mirror
    # image), so reflection symmetry cannot cancel it and it would leak into
    # the normal-velocity trace.  Extended data is filtered there; for data
    # resolved on the grid the removed coefficient is alias-level anyway.
    nyq = spec.n_vertical
    d_hat[..., nyq] = 0.0
    f_hat[..., nyq] = 0.0
    xi_dot_f = sum(np.broadcast_to(mesh[i], d2.shape) * f_hat[i] for i in range(N))

    D = lam * lam + lam * (mu + nu) * K_sq + kappa * K_sq * K_sq
    rho_hat = ((lam + (mu + nu) * K_sq) * d_hat - 1j * xi_dot_f) / D
    p_hat = d_hat - lam * rho_hat  # i xi . u

    visc = lam + mu * K_sq
    with np.errstate(invalid="ignore", divide="ignore"):
        inv_K_sq = np.where(K_sq > 0, 1.0 / np.where(K_sq > 0, K_sq, 1.0), 0.0)
    u_hat = np.empty_like(f_hat)
    for i in range(N):
        ki = np.broadcast_to(mesh[i], d2.shape)
        perp = (f_hat[i] - ki * xi_dot_f * inv_K_sq) / visc
        u_hat[i] = perp - 1j * ki * p_hat * inv_K_sq
    # The zero mode decouples: u = f/lam, rho = d/lam.
    zero = (0,) * (N - 1) + (0,)
    for i in range(N):
        u_hat[(i, *zero)] = f_hat[(i, *zero)] / lam
    rho_hat[zero] = d_hat[zero] / lam

    residuals = {}
    if check_residual:
        # Components that are identically zero only carry FFT rounding, so
        # relative residuals are floored by the overall data magnitude.
        data_scale = max(np.max(np.abs(d_hat)), np.max(np.abs(f_hat)), 1e-300)
        xi_dot_u = sum(np.broadcast_to(mesh[i], d2.shape) * u_hat[i] for i in range(N))
        r_mass = lam * rho_hat + 1j * xi_dot_u - d_hat
        scale_mass = max(np.max(np.abs(lam * rho_hat)), data_scale)
        residuals["mass"] = float(np.max(np.abs(r_mass)) / scale_mass)
        worst = 0.0
        for i in range(N):
            ki = np.broadcast_to(mesh[i], d2.shape)
            r_mom = visc * u_hat[i] + nu * ki * xi_dot_u \
                + 1j * kappa * K_sq * ki * rho_hat - f_hat[i]
            scale = max(np.max(np.abs(visc * u_hat[i])), data_scale)
            worst = max(worst, float(np.max(np.abs(r_mom)) / scale))
        residuals["momentum"] = worst
        if max(residuals.values()) > 1e-10:
            raise ConfigurationError(f"whole-space residuals too large: {residuals}")

    rho2 = np.fft.ifftn(rho_hat)
    u2 = [np.fft.ifftn(u_hat[i]) for i in range(N)]
    return rho2, u2, residuals


def vertical_spectral_derivative(values2, spec: GridSpec, order: int = 1):
    """d^order/dx_N^order of a doubled-grid array via the vertical FFT."""
    kz = spec.doubled_vertical_wavenumbers()
    hat = np.fft.fft(values2, axis=-1)
    hat *= (1j * kz) ** order
    return np.fft.ifft(hat, axis=-1)


# ---------------------------------------------------------------------------
# Boundary-data reduction and the assembled half-space solve
# ---------------------------------------------------------------------------


def whole_space_reduction(params: FluidParams, d: GridField, f, g_trace, lam):
    """Whole-space solve of the extended data and the corrected boundary traces.

    Extends d evenly and f with the mixed parity, solves on the doubled box
    and takes the spectral d_N of the density.  Returns (rho2, u2, dn_rho2,
    residuals, g_tilde, h_tilde) with g_tilde = g + d_N R|_{x_N=0} and
    h_tilde_j = -U_j|_{x_N=0}, where (R, U) = (rho2, u2) live on the doubled
    grid.
    """
    spec = d.spec
    d2 = extend(d.values, "even")
    f2 = extend_vector([c.values for c in f], spec)
    rho2, u2, residuals = whole_space_solve(spec, params, d2, f2, lam)
    dn_rho2 = vertical_spectral_derivative(rho2, spec)
    g_tilde = np.asarray(g_trace, dtype=complex) + dn_rho2[..., 0]
    h_tilde = [-u2[j][..., 0] for j in range(spec.dim - 1)]
    return rho2, u2, dn_rho2, residuals, g_tilde, h_tilde


def reduce_boundary_data(params: FluidParams, d: GridField, f, g_trace, lam):
    """Corrected boundary traces (g_tilde, h_tilde_1..h_tilde_{N-1}).

    See `whole_space_reduction`.  U_N|_{x_N=0} vanishes by parity; its
    actual magnitude is returned as a diagnostic.
    """
    _, u2, _, _, g_tilde, h_tilde = whole_space_reduction(params, d, f, g_trace, lam)
    un_trace = float(np.max(np.abs(u2[-1][..., 0])))
    return g_tilde, h_tilde, un_trace


@dataclass
class FieldSolveReport:
    whole_space_residuals: dict
    correction_residual_max: float
    boundary_u_max: float
    boundary_g_residual: float
    un_trace_ratio: float
    norms: dict = field(default_factory=dict)


def boundary_correction(params: FluidParams, spec: GridSpec, g_tilde, h_tilde, lam):
    """Per-tangential-mode profile solve assembled onto the grid.

    g_tilde, h_tilde are trace arrays over the tangential lattice.  Each
    lattice mode is solved once with `solve_mode`.  Returns (rho_corr,
    u_corr list, solutions): the correction sampled on the half grid and the
    ModeSolution of every lattice mode keyed by its index tuple, from which
    callers take exact profile derivatives mode by mode.
    """
    N = spec.dim
    n_t = spec.tangential_shape
    x = spec.vertical_coords()
    g_hat = np.fft.fftn(np.asarray(g_tilde, dtype=complex))
    h_hat = [np.fft.fftn(np.asarray(h, dtype=complex)) for h in h_tilde]
    ks = spec.tangential_wavenumbers()

    rho_modes = np.zeros(n_t + (spec.n_vertical,), dtype=complex)
    u_modes = [np.zeros_like(rho_modes) for _ in range(N)]
    solutions = {}
    for index in np.ndindex(*n_t):
        xi = np.array([ks[i] for i in index])
        mode = TangentialMode(xi=xi, lam=lam, dim=N)
        trace = BoundaryTrace(g_hat[index], np.array([h[index] for h in h_hat]))
        sol = solve_mode(params, mode, trace)
        rho_modes[index] = sol.rho.evaluate(x)
        for J in range(N):
            u_modes[J][index] = sol.u[J].evaluate(x)
        solutions[index] = sol

    t_axes = tuple(range(N - 1))
    rho_corr = np.fft.ifftn(rho_modes, axes=t_axes)
    u_corr = [np.fft.ifftn(um, axes=t_axes) for um in u_modes]
    return rho_corr, u_corr, solutions


def solve_resolvent(params: FluidParams, d: GridField, f, g, lam,
                    validate: bool = True):
    """Full half-space resolvent solve: (rho, u) for data (d, f, g).

    d is a GridField, f a list of N GridFields, g either a GridField (whose
    boundary row is used) or a trace array over the tangential lattice.
    One pass: `whole_space_reduction`, then `boundary_correction`, whose
    per-mode solutions also give the exact d_N rho_corr(0) trace and the
    profile-identity spot-check of the report.
    Returns (rho GridField, u list of GridFields, FieldSolveReport).
    """
    spec = d.spec
    lam = complex(lam)
    if validate:
        validate_edge_decay(d.values, spec, "d")
        for i, c in enumerate(f):
            validate_edge_decay(c.values, spec, f"f[{i}]")

    g_trace = g.trace() if isinstance(g, GridField) else np.asarray(g, dtype=complex)
    if g_trace.shape != spec.tangential_shape:
        raise GridError(f"g trace shape {g_trace.shape} != {spec.tangential_shape}")

    rho2, u2, dn_rho2, ws_res, g_tilde, h_tilde = whole_space_reduction(
        params, d, f, g_trace, lam)
    un_trace = float(np.max(np.abs(u2[-1][..., 0])))
    rho_corr, u_corr, solutions = boundary_correction(params, spec, g_tilde, h_tilde, lam)

    # d_N rho_corr(0) per mode, and a spot-check of the profile identity
    # lambda*rho + div u = 0 on a tiny ladder for every (n_tangential/4)-th
    # index sum (cheap, catches assembly/transcription slips).
    ks = spec.tangential_wavenumbers()
    ladder = np.concatenate([[0.0], 2.0 ** np.arange(-4, 4, dtype=float)])
    stride = max(1, spec.n_tangential // 4)
    corr_residual = 0.0
    dn_rho_corr_hat = np.zeros(spec.tangential_shape, dtype=complex)
    for index, sol in solutions.items():
        dn_rho_corr_hat[index] = sol.rho.derivative_at_zero()
        if sum(index) % stride == 0:
            mode = TangentialMode(xi=np.array([ks[i] for i in index]), lam=lam, dim=spec.dim)
            rep = pde_residual(params, mode, sol, sample_points=ladder)
            corr_residual = max(corr_residual, rep.pde_max)

    nz = spec.n_vertical
    rho_vals = rho2[..., :nz] + rho_corr
    u_vals = [u2[J][..., :nz] + u_corr[J] for J in range(spec.dim)]

    # Boundary defects of the assembled field.
    u_scale = max(max(float(np.max(np.abs(v))) for v in u_vals), 1e-300)
    boundary_u = max(float(np.max(np.abs(v[..., 0]))) for v in u_vals) / u_scale
    # d_N rho(0) must equal -g: profile part satisfies d_N rho_corr(0) = -g_tilde.
    dn_rho_corr0 = np.fft.ifftn(dn_rho_corr_hat, axes=tuple(range(spec.dim - 1)))
    dn_rho0 = dn_rho2[..., 0] + dn_rho_corr0
    g_scale = max(float(np.max(np.abs(g_trace))), float(np.max(np.abs(dn_rho2[..., 0]))), 1e-300)
    boundary_g = float(np.max(np.abs(dn_rho0 + g_trace))) / g_scale

    report = FieldSolveReport(
        whole_space_residuals=ws_res,
        correction_residual_max=corr_residual,
        boundary_u_max=boundary_u,
        boundary_g_residual=boundary_g,
        un_trace_ratio=un_trace / max(float(np.max(np.abs(u2[0]))), 1e-300),
        norms={f"l{q:g}": grid_norm(rho_vals, spec, q) for q in (1.5, 2.0, 4.0)},
    )
    rho_field = GridField(rho_vals, spec, role="density")
    u_fields = [GridField(v, spec, role="velocity_component") for v in u_vals]
    return rho_field, u_fields, report


# ---------------------------------------------------------------------------
# Separable analytic fields for manufactured-solution tests
# ---------------------------------------------------------------------------


class PolyGauss:
    """q(x) * exp(-(x/width)^2), q a polynomial; closed under differentiation."""

    def __init__(self, coeffs, width=1.0, center=0.0):
        self.poly = np.polynomial.Polynomial(np.asarray(coeffs, dtype=float))
        self.width = float(width)
        self.center = float(center)

    def __call__(self, x):
        s = np.asarray(x, dtype=float) - self.center
        return self.poly(s) * np.exp(-((s / self.width) ** 2))

    def derivative(self):
        # (q e^{-s^2/w^2})' = (q' - (2 s / w^2) q) e^{-s^2/w^2}
        q = self.poly
        shift = np.polynomial.Polynomial([0.0, 2.0 / self.width**2])
        return PolyGauss((q.deriv() - shift * q).coef, self.width, self.center)


class CosWave:
    """cos(k x + phase); derivatives cycle through the phase."""

    def __init__(self, k, phase=0.0, amplitude=1.0):
        self.k = float(k)
        self.phase = float(phase)
        self.amplitude = float(amplitude)

    def __call__(self, x):
        return self.amplitude * np.cos(self.k * np.asarray(x, dtype=float) + self.phase)

    def derivative(self):
        return CosWave(self.k, self.phase + math.pi / 2.0, self.amplitude * self.k)


class SepField:
    """Sum of separable terms prod_axis factor(x_axis); exact derivatives."""

    def __init__(self, terms):
        self.terms = list(terms)  # list of (coeff, [factor per axis])

    @classmethod
    def product(cls, factors, coeff=1.0):
        return cls([(coeff, list(factors))])

    def __add__(self, other):
        return SepField(self.terms + other.terms)

    def scaled(self, c):
        return SepField([(c * a, fs) for a, fs in self.terms])

    def d(self, axis):
        return SepField([
            (a, [f.derivative() if i == axis else f for i, f in enumerate(fs)])
            for a, fs in self.terms
        ])

    def laplacian(self, n_axes):
        out = self.d(0).d(0)
        for ax in range(1, n_axes):
            out = out + self.d(ax).d(ax)
        return out

    def sample(self, axis_coords):
        shape = tuple(len(c) for c in axis_coords)
        out = np.zeros(shape, dtype=complex)
        for a, fs in self.terms:
            term = np.ones(shape, dtype=complex) * a
            for i, f in enumerate(fs):
                vals = f(axis_coords[i])
                sl = [None] * len(shape)
                sl[i] = slice(None)
                term = term * vals[tuple(sl)]
            out += term
        return out

    def sample_trace(self, axis_coords):
        """Sample at x_N = 0 over the tangential axes only."""
        coords = list(axis_coords) + [np.array([0.0])]
        return self.sample(coords)[..., 0]


def manufactured_solution(params: FluidParams, spec: GridSpec, lam,
                          rho_amplitude=1.0, g_amplitude=0.3, bump_width=0.25,
                          rough_width=None):
    """A smooth manufactured half-space solution honoring u = 0 on the boundary.

    Constructed so every datum extends across x_N = 0 without a jump: the
    normal force component has zero trace (its odd extension stays
    continuous) and the remaining extensions kink only in higher
    derivatives.  The density is p(x_N) G(x') + r(x_N) G''(x') with
    p'(0) = c1, p'''(0) = 0, r'(0) = 0 and r'''(0) = -c1, which makes
    d_N(lap rho) vanish on the interface (killing the capillary term in the
    normal-force trace) while keeping the boundary datum g = -d_N rho(.,0)
    = -c1 G(x') nonzero.  All tangential factors are Gaussian bumps so the
    box-edge decay validation applies.

    Returns dict with SepField objects (rho, u, d, f) plus sampled GridFields
    and the g trace.  `rough_width`, if set, narrows the tangential bump of
    u_1 so that tangential resolution dominates the recovery error.
    """
    N = spec.dim
    if N != 2:
        raise ConfigurationError("the manufactured family is built for N = 2")
    mu, nu, kappa = params.mu, params.nu, params.kappa
    lam = complex(lam)
    ell = spec.box_half_length

    c1 = g_amplitude
    g_bump = PolyGauss([1.0], width=0.13 * ell, center=0.1 * ell)
    p_rho = PolyGauss([rho_amplitude, c1, 0.0, c1], width=1.0)
    r_rho = PolyGauss([0.0, 0.0, 0.0, -c1 / 6.0], width=1.0)
    rho = SepField.product([g_bump, p_rho]) \
        + SepField.product([g_bump, r_rho]).d(0).d(0)

    w1 = rough_width if rough_width is not None else bump_width
    u1 = SepField.product([PolyGauss([1.0], width=w1, center=-0.2 * ell),
                           PolyGauss([0.0, 0.0, 1.0, 0.35], width=1.0)])
    uN = SepField.product([PolyGauss([1.0], width=bump_width, center=0.15 * ell),
                           PolyGauss([0.0, 1.0], width=1.0)])
    u = [u1, uN]

    div_u = u[0].d(0) + u[1].d(1)
    d = rho.scaled(lam) + div_u
    f = []
    for i in range(N):
        f_i = u[i].scaled(lam) \
            + u[i].laplacian(N).scaled(-mu) \
            + div_u.d(i).scaled(-nu) \
            + rho.laplacian(N).d(i).scaled(-kappa)
        f.append(f_i)

    coords = [spec.tangential_coords(), spec.vertical_coords()]
    tang = [spec.tangential_coords()]
    fields = {
        "rho": GridField(rho.sample(coords), spec, "density"),
        "u": [GridField(u[i].sample(coords), spec, "velocity_component") for i in range(N)],
        "d": GridField(d.sample(coords), spec, "datum"),
        "f": [GridField(f[i].sample(coords), spec, "datum") for i in range(N)],
        "g_trace": -rho.d(1).sample_trace(tang),
        "sep": {"rho": rho, "u": u, "d": d, "f": f},
    }
    return fields


# ---------------------------------------------------------------------------
# Field I/O: flat binary with a JSON header, or CSV
# ---------------------------------------------------------------------------


def save_field(path_prefix: str, field: GridField):
    """Write <prefix>.bin (complex128, C order) and <prefix>.json header."""
    header = {
        "dims": list(field.values.shape),
        "dtype": "complex128",
        "role": field.role,
        "grid": {
            "dim": field.spec.dim,
            "box_half_length": field.spec.box_half_length,
            "n_tangential": field.spec.n_tangential,
            "vertical_cutoff": field.spec.vertical_cutoff,
            "n_vertical": field.spec.n_vertical,
        },
        "spacing": {
            "tangential": field.spec.tangential_spacing,
            "vertical": field.spec.vertical_spacing,
        },
    }
    with open(path_prefix + ".json", "w") as fh:
        json.dump(header, fh, indent=2, sort_keys=True)
        fh.write("\n")
    field.values.astype(np.complex128).tofile(path_prefix + ".bin")


def load_field(path_prefix: str) -> GridField:
    with open(path_prefix + ".json") as fh:
        header = json.load(fh)
    g = header["grid"]
    spec = GridSpec(dim=g["dim"], box_half_length=g["box_half_length"],
                    n_tangential=g["n_tangential"], vertical_cutoff=g["vertical_cutoff"],
                    n_vertical=g["n_vertical"])
    values = np.fromfile(path_prefix + ".bin", dtype=np.complex128).reshape(header["dims"])
    return GridField(values, spec, role=header.get("role", "datum"))
