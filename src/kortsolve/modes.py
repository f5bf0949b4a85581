"""Closed-form per-mode solution of the reduced half-space boundary value problem.

After a tangential Fourier transform the homogeneous interior system plus the
boundary conditions

    d_N rho(0) = -g(0),   u_j(0) = h_j(0) (j < N),   u_N(0) = 0

reduce, per mode (xi, lambda), to a small linear system for the coefficients
of exponential profiles.  The shape of the ansatz depends on how the roots
t1, t2, omega degenerate (cases I-V); `solve_mode` dispatches accordingly and
returns exact VerticalProfile objects for rho, u_1..u_N and the divergence
phi = i xi . u' + d_N u_N, which satisfies lambda rho + phi = 0.

Two independent evaluation routes exist for every case: the coefficient path
implemented here (numerically stabilized against the large-|xi| cancellations)
and the assembled multiplier-times-kernel formulas checked by
`assembled_formula_check`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConsistencyError, DomainError
from .profiles import VerticalProfile, confluent_m0, confluent_mj
from .spectral import Case, FluidParams, TangentialMode, compute_roots


@dataclass(frozen=True)
class BoundaryTrace:
    """Per-mode boundary data: g_hat = FT g(.,0), h_hat = FT h'(.,0)."""

    g_hat: complex
    h_hat: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "g_hat", complex(self.g_hat))
        h = np.atleast_1d(np.asarray(self.h_hat, dtype=complex))
        object.__setattr__(self, "h_hat", h)
        if not np.all(np.isfinite(h)) or not math.isfinite(abs(self.g_hat)):
            raise DomainError("boundary trace entries must be finite")

    def scale(self) -> float:
        return max(abs(self.g_hat), float(np.max(np.abs(self.h_hat))) if self.h_hat.size else 0.0)


@dataclass(frozen=True)
class ModeCoefficients:
    """Raw ansatz coefficients (alpha_J, beta_J, gamma_J, sigma, tau)."""

    alpha: np.ndarray
    beta: np.ndarray
    gamma: np.ndarray
    sigma: complex
    tau: complex
    case: Case


@dataclass(frozen=True)
class ModeSolution:
    """Profiles for rho, u_1..u_N, phi plus the raw coefficients."""

    rho: VerticalProfile
    u: tuple
    phi: VerticalProfile
    coeffs: ModeCoefficients


def _stable_tw_minus_xisq(s_t, s_w, lam, t, w, xi_sq):
    """t*w - |xi|^2 for t = sqrt(|xi|^2+s_t lam), w = sqrt(|xi|^2+s_w lam).

    Written as (t^2 w^2 - |xi|^4) / (t w + |xi|^2) to avoid the cancellation
    at |xi|^2 >> |lambda|.
    """
    num = lam * (s_t + s_w) * xi_sq + s_t * s_w * lam * lam
    return num / (t * w + xi_sq)


def _detL_over_dt(params, t1, t2, om, xi_sq, lam):
    """det L / (t2 - t1) = lam * bracket, in the cancellation-free form."""
    s1, im = params.s1, params.inv_mu
    chain = t1 * t2 + t2 * t2 + s1 * lam
    bracket = t2 * om * (t2 + t1) * (s1 - im) / (t1 + om) - om * om * s1 + im * chain
    return lam * bracket


def _solve_case_1_2(params, mode, trace):
    """Distinct roots: ansatz u_J = a e^{-om x} + b (e^{-t1 x}-e^{-om x}) + c (e^{-t2 x}-e^{-om x})."""
    roots = compute_roots(params, mode)
    t1, t2, om = roots.t1, roots.t2, roots.omega
    xi = mode.xi
    xi_sq = mode.xi_sq
    lam = mode.lam
    s1, s2 = params.s1, params.s2
    im = params.inv_mu
    g = trace.g_hat
    ixh = 1j * complex(np.dot(xi, trace.h_hat))

    w1 = _stable_tw_minus_xisq(s1, im, lam, t1, om, xi_sq)  # t1*om - |xi|^2
    w2 = _stable_tw_minus_xisq(s2, im, lam, t2, om, xi_sq)  # t2*om - |xi|^2
    det_over_dt = _detL_over_dt(params, t1, t2, om, xi_sq, lam)
    dt = (s2 - s1) * lam / (t2 + t1)  # t2 - t1

    # beta_N = (lam L11 g + t1 t2 L12 ixh) / det L, cofactors sign-folded.
    beta_n = -(t1 * w2 * lam * g + t1 * t2 * s2 * lam * ixh) / (dt * det_over_dt)
    gamma_n = (t2 * w1 * lam * g + t1 * t2 * s1 * lam * ixh) / (dt * det_over_dt)

    alpha = np.concatenate([trace.h_hat, [0.0]])
    beta = np.concatenate([(-1j * xi / t1) * beta_n, [beta_n]])
    gamma = np.concatenate([(-1j * xi / t2) * gamma_n, [gamma_n]])
    sigma = -(s1 * lam / t1) * beta_n
    tau = -(s2 * lam / t2) * gamma_n

    u = []
    for J in range(mode.dim):
        a, b, c = alpha[J], beta[J], gamma[J]
        u.append(VerticalProfile([(a - b - c, 0, om), (b, 0, t1), (c, 0, t2)]))
    phi = VerticalProfile([(sigma, 0, t1), (tau, 0, t2)])
    rho = phi.scaled(-1.0 / lam)
    coeffs = ModeCoefficients(alpha=alpha, beta=beta, gamma=gamma,
                              sigma=complex(sigma), tau=complex(tau), case=params.case)
    return ModeSolution(rho=rho, u=tuple(u), phi=phi, coeffs=coeffs), roots


def _solve_case_3(params, mode, trace):
    """One t coincides with omega; the other root t* = sqrt(|xi|^2 + lam/nu)."""
    roots = compute_roots(params, mode)
    om = roots.omega
    lam = mode.lam
    xi = mode.xi
    xi_sq = mode.xi_sq
    inv_nu = 1.0 / params.nu
    im = params.inv_mu
    ts = np.sqrt(complex(xi_sq + inv_nu * lam))
    g = trace.g_hat
    ixh = 1j * complex(np.dot(xi, trace.h_hat))

    # (t* - om)(t* om + lam/nu) with t* - om = (1/nu - 1/mu) lam / (t* + om).
    denom = (inv_nu - im) * lam * (ts * om + inv_nu * lam) / (ts + om)
    gamma_n = ts * (lam * g + om * ixh) / denom

    alpha = np.concatenate([trace.h_hat, [0.0]])
    gamma = np.concatenate([(-1j * xi / ts) * gamma_n, [gamma_n]])
    beta = np.zeros(mode.dim, dtype=complex)
    # sigma = i xi.h + (om - |xi|^2/t*) gamma_N, with om t* - |xi|^2 stabilized.
    w = _stable_tw_minus_xisq(inv_nu, im, lam, ts, om, xi_sq)
    sigma = ixh + (w / ts) * gamma_n
    tau = -(inv_nu * lam / ts) * gamma_n

    u = []
    for J in range(mode.dim):
        a, c = alpha[J], gamma[J]
        u.append(VerticalProfile([(a - c, 0, om), (c, 0, ts)]))
    phi = VerticalProfile([(sigma, 0, om), (tau, 0, ts)])
    rho = phi.scaled(-1.0 / lam)
    coeffs = ModeCoefficients(alpha=alpha, beta=beta, gamma=gamma,
                              sigma=complex(sigma), tau=complex(tau), case=params.case)
    return ModeSolution(rho=rho, u=tuple(u), phi=phi, coeffs=coeffs), roots


def _solve_case_4(params, mode, trace):
    """Double root t1 == t2 != omega; ansatz carries x e^{-t2 x} terms."""
    roots = compute_roots(params, mode)
    t2, om = roots.t2, roots.omega
    lam = mode.lam
    xi = mode.xi
    xi_sq = mode.xi_sq
    mu, nu, kappa = params.mu, params.nu, params.kappa
    g = trace.g_hat
    ixh = 1j * complex(np.dot(xi, trace.h_hat))

    q = 2.0 * ((2.0 * mu * (t2 + om) * om + (nu - mu) * xi_sq) * t2
               - mu * (t2 + om) * xi_sq)
    # gamma_N: the (t2 - om) factors of M21, M22 cancel against det M.
    gamma_n = -((2.0 * mu * om * (t2 + om) + (nu - mu) * xi_sq) * lam * g
                + 2.0 * mu * (t2 + om) * t2 * t2 * ixh) / q
    # beta_N: (nu-mu)/(t2-om) folded via t2-om = -(nu-mu) lam / (mu (mu+nu)(t2+om)).
    beta_n = -mu * (mu + nu) * (t2 + om) * (xi_sq * lam * g + 2.0 * t2**3 * ixh) / (lam * q)

    alpha = np.concatenate([trace.h_hat, [0.0]])
    beta = np.concatenate([(-1j * xi / t2) * beta_n - (1j * xi / t2**2) * gamma_n, [beta_n]])
    gamma = np.concatenate([(-1j * xi / t2) * gamma_n, [gamma_n]])
    half_sum = (mu + nu) / (2.0 * kappa)  # equals (t2^2 - |xi|^2)/lam
    # sigma = -(half_sum lam/t2) beta_N + ((t2^2+|xi|^2)/t2^2) gamma_N hides a
    # structural cancellation at large |xi|; expanding with the case-IV
    # identity (mu+nu)^2 = 4 kappa collapses it to an explicitly small form.
    bracket = 2.0 * mu * (t2 + om) * xi_sq * t2 \
        - (t2 * t2 + xi_sq) * (2.0 * mu * om * (t2 + om) + (nu - mu) * xi_sq)
    sigma = lam * (g * bracket / (t2 * t2) + 2.0 * mu * (t2 + om) * half_sum * ixh) / q
    tau = -(half_sum * lam / t2) * gamma_n

    u = []
    for J in range(mode.dim):
        a, b, c = alpha[J], beta[J], gamma[J]
        u.append(VerticalProfile([(a - b, 0, om), (b, 0, t2), (c, 1, t2)]))
    phi = VerticalProfile([(sigma, 0, t2), (tau, 1, t2)])
    rho = phi.scaled(-1.0 / lam)
    coeffs = ModeCoefficients(alpha=alpha, beta=beta, gamma=gamma,
                              sigma=complex(sigma), tau=complex(tau), case=params.case)
    return ModeSolution(rho=rho, u=tuple(u), phi=phi, coeffs=coeffs), roots


def _solve_case_5(params, mode, trace):
    """Fully degenerate t1 == t2 == omega; ansatz carries x and x^2 terms."""
    roots = compute_roots(params, mode)
    om = roots.omega
    lam = mode.lam
    xi = mode.xi
    xi_sq = mode.xi_sq
    im = params.inv_mu
    g = trace.g_hat
    ixh = 1j * complex(np.dot(xi, trace.h_hat))

    denom = xi_sq + 2.0 * im * lam  # omega^2 + lam/mu without cancellation
    beta_n = -om * (lam * g + om * ixh) / denom

    alpha = np.concatenate([trace.h_hat, [0.0]])
    beta = np.concatenate([(-1j * xi / om) * beta_n, [beta_n]])
    gamma = np.zeros(mode.dim, dtype=complex)
    # sigma = i xi.h + beta_N collapses to an explicitly O(lambda) form;
    # the direct sum cancels at large |xi|.
    sigma = lam * (im * ixh - om * g) / denom
    tau = -(im * lam / om) * beta_n

    u = []
    for J in range(mode.dim):
        a, b = alpha[J], beta[J]
        u.append(VerticalProfile([(a, 0, om), (b, 1, om)]))
    phi = VerticalProfile([(sigma, 0, om), (tau, 1, om)])
    rho = phi.scaled(-1.0 / lam)
    coeffs = ModeCoefficients(alpha=alpha, beta=beta, gamma=gamma,
                              sigma=complex(sigma), tau=complex(tau), case=params.case)
    return ModeSolution(rho=rho, u=tuple(u), phi=phi, coeffs=coeffs), roots


_DISPATCH = {
    Case.I: _solve_case_1_2,
    Case.II: _solve_case_1_2,
    Case.III: _solve_case_3,
    Case.IV: _solve_case_4,
    Case.V: _solve_case_5,
}


def solve_mode(params: FluidParams, mode: TangentialMode, trace: BoundaryTrace) -> ModeSolution:
    """Solve the reduced boundary value problem for one tangential mode.

    Requires Re lambda > 0 (sector modes are accepted for root evaluation but
    the boundary systems are only certified nonvanishing on the half-plane).
    The returned profiles satisfy the interior equations and the boundary
    conditions exactly in the profile algebra.
    """
    if trace.h_hat.shape != (mode.dim - 1,):
        raise DomainError(f"h_hat must have length {mode.dim - 1}")
    solution, _ = _DISPATCH[params.case](params, mode, trace)
    return solution


# ---------------------------------------------------------------------------
# Residual diagnostics
# ---------------------------------------------------------------------------


def default_sample_points(params: FluidParams, mode: TangentialMode):
    """Geometric ladder {0} + 2^k / Re t_min, k = -6..5."""
    roots = compute_roots(params, mode)
    tmin = min(roots.t1.real, roots.t2.real, roots.omega.real)
    return np.concatenate([[0.0], 2.0 ** np.arange(-6, 6) / tmin])


@dataclass
class ResidualReport:
    """Normalized interior and boundary residuals of a mode solution.

    Interior residuals are normalized per equation by the largest sum of
    absolute term magnitudes over the sample points (so 1e-16-level values
    mean the profiles cancel to rounding); boundary residuals are normalized
    by the magnitude of the quantities entering each condition, floored by
    the trace scale.
    """

    pde_max: float
    boundary_max: float
    per_equation: dict
    per_boundary: dict

    def worst_equation(self):
        return max(self.per_equation, key=self.per_equation.get)


def pde_residual(params: FluidParams, mode: TangentialMode, solution: ModeSolution,
                 sample_points=None) -> ResidualReport:
    """Evaluate the interior equations and boundary conditions on sample points."""
    if sample_points is None:
        sample_points = default_sample_points(params, mode)
    x = np.asarray(sample_points, dtype=float)
    lam = mode.lam
    xi = mode.xi
    xi_sq = mode.xi_sq
    mu, nu, kappa = params.mu, params.nu, params.kappa

    rho, u, _phi = solution.rho, solution.u, solution.phi
    div = VerticalProfile.zero()
    for j in range(mode.dim - 1):
        div = div + u[j].scaled(1j * xi[j])
    div = div + u[mode.dim - 1].differentiate(1)

    def lap(profile):
        """(d_N^2 - |xi|^2) profile."""
        return profile.differentiate(2) + profile.scaled(-xi_sq)

    per_equation = {}
    # mass: lambda rho + div u = 0
    terms = [rho.scaled(lam), div]
    per_equation["mass"] = _normalized_residual(terms, x)
    # divergence consistency: phi - div u = 0 (phi is the stored profile)
    per_equation["divergence"] = _normalized_residual([solution.phi, div.scaled(-1.0)], x)
    lap_rho = lap(rho)
    for j in range(mode.dim - 1):
        terms = [u[j].scaled(lam), lap(u[j]).scaled(-mu),
                 div.scaled(-nu * 1j * xi[j]), lap_rho.scaled(-kappa * 1j * xi[j])]
        per_equation[f"momentum_{j + 1}"] = _normalized_residual(terms, x)
    terms = [u[-1].scaled(lam), lap(u[-1]).scaled(-mu),
             div.differentiate(1).scaled(-nu), lap_rho.differentiate(1).scaled(-kappa)]
    per_equation["momentum_N"] = _normalized_residual(terms, x)

    # Boundary conditions.
    per_boundary = {}
    trace_scale = max(abs(c) for c in
                      [*(p.value_at_zero() for p in u), rho.derivative_at_zero(), 1e-300])
    for j in range(mode.dim - 1):
        val = u[j].value_at_zero()
        target = solution.coeffs.alpha[j]
        scale = max(u[j].magnitude_scale(), abs(target), trace_scale)
        per_boundary[f"u_{j + 1}(0)-h_{j + 1}"] = abs(val - target) / scale
    val = u[-1].value_at_zero()
    per_boundary["u_N(0)"] = abs(val) / max(u[-1].magnitude_scale(), trace_scale)
    # d_N rho(0) + g = 0; g is recovered from the solve's own coefficients via
    # the stored phi: d_N phi(0) = lambda g.
    dphi0 = solution.phi.derivative_at_zero()
    g_hat = dphi0 / lam
    drho = rho.differentiate(1)
    scale = max(drho.magnitude_scale(), abs(g_hat), 1e-300)
    per_boundary["dN_rho(0)+g"] = abs(drho.evaluate(0.0) + g_hat) / scale

    return ResidualReport(
        pde_max=max(per_equation.values()),
        boundary_max=max(per_boundary.values()),
        per_equation=per_equation,
        per_boundary=per_boundary,
    )


def boundary_residuals(params: FluidParams, mode: TangentialMode, solution: ModeSolution,
                       trace: BoundaryTrace) -> dict:
    """Boundary defects against explicitly supplied trace data.

    Normalization follows the same term-scale convention as `pde_residual`.
    """
    out = {}
    u = solution.u
    floor = max(trace.scale(), 1e-300)
    for j in range(mode.dim - 1):
        val = u[j].value_at_zero()
        scale = max(u[j].magnitude_scale(), floor)
        out[f"u_{j + 1}(0)-h_{j + 1}"] = abs(val - trace.h_hat[j]) / scale
    out["u_N(0)"] = abs(u[-1].value_at_zero()) / max(u[-1].magnitude_scale(), floor)
    drho = solution.rho.differentiate(1)
    scale = max(drho.magnitude_scale(), floor)
    out["dN_rho(0)+g"] = abs(drho.evaluate(0.0) + trace.g_hat) / scale
    return out


def _normalized_residual(term_profiles, x):
    """max_x |sum of terms| over the representation scale of the terms.

    The profiles are exponential sums whose coefficients can be large while
    their values nearly cancel (the basis is ill-conditioned at large
    |xi|^2/|lambda|), so the defect of an identity is meaningful relative to
    the coefficient magnitudes it was computed from, not to the cancelled
    values.  A transcription error still shows up at O(1) on this scale.
    """
    vals = np.array([p.evaluate(x) for p in term_profiles])
    residual = np.abs(vals.sum(axis=0)).max()
    scale = sum(p.magnitude_scale() for p in term_profiles)
    if scale == 0.0:
        return 0.0
    return float(residual / scale)


# ---------------------------------------------------------------------------
# Assembled multiplier-times-kernel formulas (the second derivation route)
# ---------------------------------------------------------------------------


def _assembled_case_1_2(params, mode, trace, x):
    roots = compute_roots(params, mode)
    t1, t2, om = roots.t1, roots.t2, roots.omega
    lam = mode.lam
    xi = mode.xi
    xi_sq = mode.xi_sq
    s1, s2 = params.s1, params.s2
    g = trace.g_hat
    h = trace.h_hat
    ixh = 1j * complex(np.dot(xi, h))

    L11 = -t1 * (t2 * om - xi_sq)
    L21 = t2 * (t1 * om - xi_sq)
    L_k1 = {1: L11, 2: L21}
    t_k = {1: t1, 2: t2}
    s_k = {1: s1, 2: s2}
    m_k = {k: t_k[k] * (t_k[k] + om) * _raw_detL(t1, t2, om, xi_sq) / (lam * (t2 - t1))
           for k in (1, 2)}
    p_k = {1: (t1 + om) / (t2 + om), 2: (t2 + om) / (t1 + om)}
    n_k = {1: (t2 + om) * L11 / lam, 2: (t1 + om) * L21 / lam}

    e_t1 = np.exp(-t1 * x)
    e_om = np.exp(-om * x)
    m0 = confluent_m0(t1, t2, x)
    mj = {k: confluent_mj(t_k[k], om, t1, t2, x) for k in (1, 2)}

    rho = np.zeros_like(x, dtype=complex)
    for k in (1, 2):
        rho += (s_k[k] * (t2 + t1) * p_k[k] * n_k[k] / ((s2 - s1) * m_k[k])) * e_t1 * g
    for l in range(mode.dim - 1):
        rho += -(s1 * s2 * 1j * xi[l] * t1 * (t1 + om) / m_k[1]) * e_t1 * h[l]
    rho += (s2 * (t2 + om) * L21 / m_k[2]) * m0 * g
    for l in range(mode.dim - 1):
        rho += (s1 * s2 * 1j * xi[l] * t1 * t2 * (t2 + om) / m_k[2]) * m0 * h[l]

    u = []
    for j in range(mode.dim - 1):
        uj = e_om * h[j]
        for k in (1, 2):
            uj += -(1j * xi[j] * (t_k[k] + om) * L_k1[k] / m_k[k]) * mj[k] * g
            for l in range(mode.dim - 1):
                uj += ((-1) ** k * s1 * s2 * xi[j] * xi[l] * t1 * t2 * (t_k[k] + om)
                       / (s_k[k] * m_k[k])) * mj[k] * h[l]
        u.append(uj)
    un = np.zeros_like(x, dtype=complex)
    for k in (1, 2):
        un += (t_k[k] * (t_k[k] + om) * L_k1[k] / m_k[k]) * mj[k] * g
        for l in range(mode.dim - 1):
            un += ((-1) ** k * s1 * s2 * 1j * xi[l] * t1 * t2 * t_k[k] * (t_k[k] + om)
                   / (s_k[k] * m_k[k])) * mj[k] * h[l]
    u.append(un)
    return rho, u


def _raw_detL(t1, t2, om, xi_sq):
    return t2 * (t2 * t2 - xi_sq) * (t1 * om - xi_sq) - t1 * (t1 * t1 - xi_sq) * (t2 * om - xi_sq)


def _assembled_case_3(params, mode, trace, x):
    roots = compute_roots(params, mode)
    om = roots.omega
    lam = mode.lam
    xi = mode.xi
    inv_nu = 1.0 / params.nu
    ts = np.sqrt(complex(mode.xi_sq + inv_nu * lam))
    g = trace.g_hat
    h = trace.h_hat
    d3 = ts * om + inv_nu * lam

    e_om = np.exp(-om * x)
    mker = confluent_m0(om, ts, x)  # (e^{-t* x} - e^{-om x})/(t* - om)

    rho = (ts / d3) * e_om * g
    for k in range(mode.dim - 1):
        rho += -(inv_nu * 1j * xi[k] / d3) * e_om * h[k]
    rho += (inv_nu * lam / d3) * mker * g
    for k in range(mode.dim - 1):
        rho += (inv_nu * om * 1j * xi[k] / d3) * mker * h[k]

    u = []
    for j in range(mode.dim - 1):
        uj = e_om * h[j]
        uj += -(1j * xi[j] * lam / d3) * mker * g
        for k in range(mode.dim - 1):
            uj += (xi[j] * xi[k] * om / d3) * mker * h[k]
        u.append(uj)
    un = (ts * lam / d3) * mker * g
    for k in range(mode.dim - 1):
        un += (ts * om * 1j * xi[k] / d3) * mker * h[k]
    u.append(un)
    return rho, u


def _assembled_case_4(params, mode, trace, x):
    roots = compute_roots(params, mode)
    t2, om = roots.t2, roots.omega
    lam = mode.lam
    xi = mode.xi
    xi_sq = mode.xi_sq
    mu, nu, kappa = params.mu, params.nu, params.kappa
    g = trace.g_hat
    h = trace.h_hat

    q = 2.0 * ((2.0 * mu * (t2 + om) * om + (nu - mu) * xi_sq) * t2
               - mu * (t2 + om) * xi_sq)
    M11 = (nu - mu) * xi_sq
    M12 = 2.0 * (nu - mu) * t2
    # Ratios with the (t2 - om) factor cancelled in closed form.
    M21_r = -(2.0 * mu * (t2 + om) * om + (nu - mu) * xi_sq)
    M22_r = -2.0 * mu * (t2 + om)
    tsq_r = -(2.0 * mu / (nu - mu)) * (t2 + om)  # (t2^2-|xi|^2)/(t2-om)
    half_sum = (mu + nu) / (2.0 * kappa)

    e_t2 = np.exp(-t2 * x)
    xe_t2 = x * e_t2
    e_om = np.exp(-om * x)
    mker = confluent_m0(om, t2, x)

    rho = -(-tsq_r * M11 / (t2 * q) + (t2 * t2 + xi_sq) / (t2 * t2 * q) * M21_r) * e_t2 * g
    for k in range(mode.dim - 1):
        rho += -(4.0 * mu / (mu + nu)) * (1j * xi[k] * (t2 + om) / q) * e_t2 * h[k]
    rho += half_sum * (lam / (t2 * q)) * M21_r * xe_t2 * g
    for k in range(mode.dim - 1):
        rho += half_sum * (1j * xi[k] * t2 / q) * M22_r * xe_t2 * h[k]

    u = []
    for j in range(mode.dim - 1):
        uj = e_om * h[j]
        uj += -(lam * 1j * xi[j] * M11 / (t2 * q) + lam * 1j * xi[j] * M21_r * (t2 - om) / (t2 * t2 * q)) \
            * mker * g
        for k in range(mode.dim - 1):
            uj += (xi[j] * xi[k] * t2 * M12 / q + xi[j] * xi[k] * M22_r * (t2 - om) / q) * mker * h[k]
        uj += -(lam * 1j * xi[j] / (t2 * q)) * M21_r * xe_t2 * g
        for k in range(mode.dim - 1):
            uj += (xi[j] * xi[k] * t2 / q) * M22_r * xe_t2 * h[k]
        u.append(uj)
    un = (lam * M11 / q) * mker * g
    for k in range(mode.dim - 1):
        un += (1j * xi[k] * t2 * t2 * M12 / q) * mker * h[k]
    un += (lam / q) * M21_r * xe_t2 * g
    for k in range(mode.dim - 1):
        un += (1j * xi[k] * t2 * t2 / q) * M22_r * xe_t2 * h[k]
    u.append(un)
    return rho, u


def _assembled_case_5(params, mode, trace, x):
    roots = compute_roots(params, mode)
    om = roots.omega
    lam = mode.lam
    xi = mode.xi
    im = params.inv_mu
    g = trace.g_hat
    h = trace.h_hat
    d5 = om * om + im * lam

    e_om = np.exp(-om * x)
    xe_om = x * e_om

    rho = (om / d5) * e_om * g
    for k in range(mode.dim - 1):
        rho += -(im * 1j * xi[k] / d5) * e_om * h[k]
    rho += -(im * lam / d5) * xe_om * g
    for k in range(mode.dim - 1):
        rho += -(im * 1j * xi[k] * om / d5) * xe_om * h[k]

    u = []
    for j in range(mode.dim - 1):
        uj = e_om * h[j]
        uj += (1j * xi[j] * lam / d5) * xe_om * g
        for k in range(mode.dim - 1):
            uj += -(xi[j] * xi[k] * om / d5) * xe_om * h[k]
        u.append(uj)
    un = -(lam * om / d5) * xe_om * g
    for k in range(mode.dim - 1):
        un += -(1j * xi[k] * om * om / d5) * xe_om * h[k]
    u.append(un)
    return rho, u


_ASSEMBLED = {
    Case.I: _assembled_case_1_2,
    Case.II: _assembled_case_1_2,
    Case.III: _assembled_case_3,
    Case.IV: _assembled_case_4,
    Case.V: _assembled_case_5,
}


def assembled_formula_check(params: FluidParams, mode: TangentialMode, trace: BoundaryTrace,
                            sample_points=None, fail_above: float = 1e-8) -> float:
    """Max relative discrepancy between the two derivation routes.

    Evaluates the assembled multiplier-times-kernel representation of the
    solution at the sample points and compares against the coefficient-path
    profiles from `solve_mode`.  Discrepancies are normalized by the overall
    solution scale; exceeding `fail_above` raises with the worst component.
    """
    if sample_points is None:
        sample_points = default_sample_points(params, mode)
    x = np.asarray(sample_points, dtype=float)
    solution = solve_mode(params, mode, trace)
    rho_a, u_a = _ASSEMBLED[params.case](params, mode, trace, x)

    ref = [solution.rho.evaluate(x)] + [p.evaluate(x) for p in solution.u]
    got = [np.broadcast_to(np.asarray(rho_a, dtype=complex), x.shape)] \
        + [np.broadcast_to(np.asarray(c, dtype=complex), x.shape) for c in u_a]
    scale = max(max(np.max(np.abs(r)) for r in ref), 1e-300)
    worst = 0.0
    worst_where = ("rho", 0.0)
    names = ["rho"] + [f"u_{J + 1}" for J in range(mode.dim)]
    for name, r, a in zip(names, ref, got):
        diff = np.abs(r - a) / scale
        k = int(np.argmax(diff))
        if diff[k] > worst:
            worst = float(diff[k])
            worst_where = (name, float(x[k]))
    if worst > fail_above:
        raise ConsistencyError(
            f"assembled-formula discrepancy {worst:.3e} exceeds {fail_above:.1e} "
            f"at component {worst_where[0]}, x_N = {worst_where[1]:.6g}"
        )
    return worst
