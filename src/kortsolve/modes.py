"""Closed-form per-mode solution of the reduced half-space boundary value problem.

After a tangential Fourier transform the homogeneous interior system plus the
boundary conditions

    d_N rho(0) = -g(0),   u_j(0) = h_j(0) (j < N),   u_N(0) = 0

reduce, per mode (xi, lambda), to a small linear system for the coefficients
of exponential profiles.  The shape of the ansatz depends on how the roots
t1, t2, omega degenerate (cases I-V), and each case has a fixed term layout.
`solve_modes` solves M modes, at one lambda or at one lambda per mode, in
one array pass and returns a ModeBatch: the rates and profile coefficients
of rho, u_1..u_N and the divergence phi = i xi . u' + d_N u_N (which
satisfies lambda rho + phi = 0), with exact vertical derivatives as
coefficient transforms.  Its complex products and quotients round as
Python's complex scalars do, so a mode gets the same bits in any batch.
`solve_mode` returns a mode's batch of one as a ModeSolution, which
evaluates its components through `evaluate_profiles`, lists their terms
on its case's slots and keeps VerticalProfile views.  `batch_residuals` checks
the interior identities and boundary conditions of selected batch modes in
array passes; `pde_residual` runs it on a ModeSolution's batch.
`_derivative` and `evaluate_profiles` differentiate and evaluate any
(rates, coefficients) arrays in this layout, for the field solve and probe.

Two independent evaluation routes exist for every case: the coefficient path
implemented here (numerically stabilized against the large-|xi| cancellations)
and the assembled multiplier-times-kernel formulas checked by
`assembled_formula_check`.  The assembled route reads its multipliers (the
cofactors, m_k, n_k, p_k, q, M11, M12, d3 and d5) as the raw forms of the
`symbols` registry, the same forms the class checks verify, so a defect in
a registry form shows as a discrepancy between the routes.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import ConsistencyError, DomainError
from .profiles import VerticalProfile, confluent_m0, confluent_mj
from .spectral import (Case, FluidParams, TangentialMode, _detL_over_dt, _stable_tw_minus_xisq,
                       compute_roots, require_sector_opening, root_arrays)
from .symbols import make_named_symbol


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


# Each case formula below is written once and runs on either scalars or
# arrays: on one mode's Python complex scalars, or on (M,) `_Rounded` arrays
# over a batch of modes (`solve_modes`), whose products and quotients round
# as those scalars do.  So every mode of a batch has the bits of its scalar
# solve, whatever the batch.


def _sqrt(z):
    """Principal square root: cmath's on a scalar, numpy's (the same bits) on arrays."""
    return np.sqrt(z) if isinstance(z, np.ndarray) else cmath.sqrt(z)


def _tangential_part(xi, t, normal):
    """(-i xi / t) * normal over the tangential slots and normal in the last, shape (..., N)."""
    t, normal = np.asarray(t)[..., None], np.asarray(normal)[..., None]
    return np.concatenate([(-1j * xi / t) * normal, normal], axis=-1)


def _solve_case_1_2(params, xi, xi_sq, lam, g, ixh, t1, t2, om):
    """Distinct roots: ansatz u_J = a e^{-om x} + b (e^{-t1 x}-e^{-om x}) + c (e^{-t2 x}-e^{-om x})."""
    s1, s2 = params.s1, params.s2
    im = params.inv_mu

    w1 = _stable_tw_minus_xisq(s1, im, lam, t1, om, xi_sq)  # t1*om - |xi|^2
    w2 = _stable_tw_minus_xisq(s2, im, lam, t2, om, xi_sq)  # t2*om - |xi|^2
    det_over_dt = _detL_over_dt(params, t1, t2, om, lam)
    dt = (s2 - s1) * lam / (t2 + t1)  # t2 - t1

    # beta_N = (lam L11 g + t1 t2 L12 ixh) / det L, cofactors sign-folded.
    beta_n = -(t1 * w2 * lam * g + t1 * t2 * s2 * lam * ixh) / (dt * det_over_dt)
    gamma_n = (t2 * w1 * lam * g + t1 * t2 * s1 * lam * ixh) / (dt * det_over_dt)

    beta = _tangential_part(xi, t1, beta_n)
    gamma = _tangential_part(xi, t2, gamma_n)
    sigma = -(s1 * lam / t1) * beta_n
    tau = -(s2 * lam / t2) * gamma_n
    return (om, t1, t2), beta, gamma, sigma, tau


def _solve_case_3(params, xi, xi_sq, lam, g, ixh, t1, t2, om):
    """One t coincides with omega; the other root t* = sqrt(|xi|^2 + lam/nu)."""
    inv_nu = 1.0 / params.nu
    im = params.inv_mu
    ts = _sqrt(xi_sq + inv_nu * lam)

    # (t* - om)(t* om + lam/nu) with t* - om = (1/nu - 1/mu) lam / (t* + om).
    denom = (inv_nu - im) * lam * (ts * om + inv_nu * lam) / (ts + om)
    gamma_n = ts * (lam * g + om * ixh) / denom

    gamma = _tangential_part(xi, ts, gamma_n)
    beta = np.zeros_like(gamma)
    # sigma = i xi.h + (om - |xi|^2/t*) gamma_N, with om t* - |xi|^2 stabilized.
    w = _stable_tw_minus_xisq(inv_nu, im, lam, ts, om, xi_sq)
    sigma = ixh + (w / ts) * gamma_n
    tau = -(inv_nu * lam / ts) * gamma_n
    return (om, ts), beta, gamma, sigma, tau


def _solve_case_4(params, xi, xi_sq, lam, g, ixh, t1, t2, om):
    """Double root t1 == t2 != omega; ansatz carries x e^{-t2 x} terms."""
    mu, nu, kappa = params.mu, params.nu, params.kappa

    q = 2.0 * ((2.0 * mu * (t2 + om) * om + (nu - mu) * xi_sq) * t2
               - mu * (t2 + om) * xi_sq)
    # gamma_N: the (t2 - om) factors of M21, M22 cancel against det M.
    gamma_n = -((2.0 * mu * om * (t2 + om) + (nu - mu) * xi_sq) * lam * g
                + 2.0 * mu * (t2 + om) * t2 * t2 * ixh) / q
    # beta_N: (nu-mu)/(t2-om) folded via t2-om = -(nu-mu) lam / (mu (mu+nu)(t2+om)).
    beta_n = -mu * (mu + nu) * (t2 + om) * (xi_sq * lam * g + 2.0 * (t2 * t2 * t2) * ixh) \
        / (lam * q)

    gamma = _tangential_part(xi, t2, gamma_n)
    beta = _tangential_part(xi, t2, beta_n)
    beta[..., :-1] += _tangential_part(xi, t2 * t2, gamma_n)[..., :-1]  # -(i xi/t2^2) gamma_N
    half_sum = (mu + nu) / (2.0 * kappa)  # equals (t2^2 - |xi|^2)/lam
    # sigma = -(half_sum lam/t2) beta_N + ((t2^2+|xi|^2)/t2^2) gamma_N hides a
    # structural cancellation at large |xi|; expanding with the case-IV
    # identity (mu+nu)^2 = 4 kappa collapses it to an explicitly small form.
    bracket = 2.0 * mu * (t2 + om) * xi_sq * t2 \
        - (t2 * t2 + xi_sq) * (2.0 * mu * om * (t2 + om) + (nu - mu) * xi_sq)
    sigma = lam * (g * bracket / (t2 * t2) + 2.0 * mu * (t2 + om) * half_sum * ixh) / q
    tau = -(half_sum * lam / t2) * gamma_n
    return (om, t2), beta, gamma, sigma, tau


def _solve_case_5(params, xi, xi_sq, lam, g, ixh, t1, t2, om):
    """Fully degenerate t1 == t2 == omega; ansatz carries x e^{-om x} terms."""
    im = params.inv_mu

    denom = xi_sq + 2.0 * im * lam  # omega^2 + lam/mu without cancellation
    beta_n = -om * (lam * g + om * ixh) / denom

    beta = _tangential_part(xi, om, beta_n)
    gamma = np.zeros_like(beta)
    # sigma = i xi.h + beta_N collapses to an explicitly O(lambda) form;
    # the direct sum cancels at large |xi|.
    sigma = lam * (im * ixh - om * g) / denom
    tau = -(im * lam / om) * beta_n
    return (om,), beta, gamma, sigma, tau


# Per case: the solver, and the (rate, power) slot of beta, gamma, sigma and
# tau in the profile layout.  Rate 0 is always omega; u_J carries
# alpha_J - (its other power-0 coefficients) there, so u_J(0) = alpha_J.
_CASES = {
    Case.I: (_solve_case_1_2, (1, 0), (2, 0), (1, 0), (2, 0)),
    Case.II: (_solve_case_1_2, (1, 0), (2, 0), (1, 0), (2, 0)),
    Case.III: (_solve_case_3, None, (1, 0), (0, 0), (1, 0)),
    Case.IV: (_solve_case_4, (1, 0), (1, 1), (1, 0), (1, 1)),
    Case.V: (_solve_case_5, (0, 1), None, (0, 0), (0, 1)),
}


# A batch evaluates mode k only on x <= DECAY_SUPPORT / Re t_min(k); see
# `evaluate_profiles` for the margin.
DECAY_SUPPORT = 46.0


def _times(a, b):
    """a * b on complex arrays, rounded as a scalar complex product.

    numpy's array kernel for complex products may fuse a multiply with an
    add, so it rounds differently from a scalar product, Python's or the
    `-c * t` of `VerticalProfile.differentiate`.  Written out in float
    arithmetic, (ar br - ai bi) + i (ar bi + ai br), it rounds like them.
    """
    re = a.real * b.real
    re -= a.imag * b.imag
    im = a.real * b.imag
    im += a.imag * b.real
    out = np.empty(re.shape, dtype=complex)
    out.real, out.imag = re, im
    return out


def _quot(a, b):
    """a / b on complex arrays, rounded as Python's complex quotient.

    CPython divides by Smith's method: numerator and divisor are scaled by
    the ratio of the divisor's smaller part to its larger one.  The branch
    on |Re b| >= |Im b| is taken per element by swapping the parts.
    """
    big = np.abs(b.real) >= np.abs(b.imag)
    p, q = np.where(big, b.real, b.imag), np.where(big, b.imag, b.real)
    x, y = np.where(big, a.real, a.imag), np.where(big, a.imag, a.real)
    ratio = q / p
    denom = p + q * ratio
    xr = x * ratio
    out = np.empty(denom.shape, dtype=complex)
    out.real = (x + y * ratio) / denom
    out.imag = np.where(big, y - xr, xr - y) / denom
    return out


class _Rounded(np.ndarray):
    """An array whose complex * and / round as Python's complex scalars do.

    `solve_modes` runs the case formulas on these, so each mode of a batch
    gets the bits of the same formula on its Python scalars.  Every other
    operation is numpy's own, and `np.asarray` gives a plain array back.
    The formulas write no result in place (`out=`), which this type does
    not support.
    """

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        inputs = [np.asarray(a) if isinstance(a, _Rounded) else a for a in inputs]
        rounded = _ROUNDED.get(ufunc) if method == "__call__" and not kwargs else None
        if rounded is not None and any(map(np.iscomplexobj, inputs)):
            out = rounded(*inputs)
        else:
            out = getattr(ufunc, method)(*inputs, **kwargs)
        return out.view(_Rounded) if isinstance(out, np.ndarray) else out


_ROUNDED = {np.multiply: _times, np.divide: _quot}


def _derivative(coeffs, factor, order):
    """order-fold C_p -> factor C_p + (p + 1) C_{p+1} on (..., M, R, P) coefficients.

    With factor = -rates (M, R) this differentiates, rounding like scalars
    (`_times`); with |rates| on |C| it sums |coefficient| over the unmerged
    terms of the derivative, in real arithmetic.
    """
    for _ in range(order):
        f = factor[:, :, None]
        out = _times(f, coeffs) if np.iscomplexobj(coeffs) else f * coeffs
        for p in range(1, coeffs.shape[-1]):
            out[..., p - 1] += p * coeffs[..., p]
        coeffs = out
    return coeffs


def evaluate_profiles(rates, coeffs, x, out=None) -> np.ndarray:
    """Profiles sum_{r,p} C_{r,p} x^p e^{-rates_r x} on x >= 0, per mode.

    `rates` (M, R) are the modes' decay rates and `coeffs` (..., M, R, P)
    the coefficients of every leading index; the result has shape
    coeffs.shape[:-2] + (len(x),).  With `out`, a complex array of shape
    coeffs.shape[:-2] + (W,) with W >= len(x) whose (M, W) blocks are
    C-contiguous, the profiles are added into out[..., :len(x)] instead
    and `out` is returned.  Such a block may be a slab of modes of a larger
    array, as `fields.boundary_correction` passes it: each mode is written
    in its own row only, so modes evaluated in slabs give the bits of one
    call.  x must be one-dimensional and finite, or DomainError says which
    point is not.
    Mode k is evaluated only on x <= DECAY_SUPPORT / Re t_min(k), in any
    order of x, and is zero beyond.  Past that point every term is below
    e^{-46} (power 0) or 46 e^{-45} < e^{-41} (power 1) of its own peak,
    |c| at x = 0 or |c| / (e Re t) at x = 1 / Re t.  The (mode, x) pairs in
    support are found once per call; they run mode by mode, so a per-mode
    column is spread over them by repeating it over the support counts.
    Each block's in-support entries are gathered once into a pair-space copy,
    every term is added to it in place, and the copy is written back once;
    an entry gets the operations of a gather-add-scatter per term, in the
    same order, and so the same bits.
    One e^{-rate x} per rate is shared by every leading index, and terms are
    added rate by rate, power by power, so a power-0 profile is summed in
    rate order.  A rate is evaluated only for the modes with a nonzero
    coefficient on it, and skipped if there are none, and a mode with no
    nonzero coefficient has no support pairs: zero-padded slots and empty
    rows would add only zeros, which change no bit of a sum.  A slot with a
    nonzero coefficient must decay (a finite rate with Re > 0), or
    DomainError names its mode and slot.  A zero slot that does not decay
    is left out of its mode's reach; every other slot, zero or not, counts.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim != 1:
        raise DomainError(f"x must be one-dimensional, got shape {x.shape}")
    bad = np.flatnonzero(~np.isfinite(x))
    if bad.size:
        raise DomainError(f"sample point {bad[0]} is {x[bad[0]]}: profiles need finite x")
    if np.any(x < 0):
        raise DomainError("profiles are defined for x >= 0 only")
    if out is None:
        out = np.zeros(coeffs.shape[:-2] + x.shape, dtype=complex)
    elif (out.shape[:-1] != coeffs.shape[:-2] or out.shape[-1] < x.size
          or out.dtype != complex or out.strides[-2:] != (out.shape[-1] * out.itemsize,
                                                          out.itemsize)):
        raise DomainError(f"out must be complex of shape {coeffs.shape[:-2]} + (W,), "
                          f"W >= {x.size}, with C-contiguous (M, W) blocks; got {out.shape}")
    n_rates, n_powers = coeffs.shape[-2:]
    live = np.any(coeffs != 0.0, axis=tuple(range(coeffs.ndim - 3)) + (-1,))  # (M, R)
    decays = np.isfinite(rates) & (rates.real > 0.0)
    no_decay = live & ~decays
    if no_decay.any():
        k, r = np.argwhere(no_decay)[0]
        raise DomainError(f"mode {k}, rate slot {r}: rate {rates[k, r]} does not decay "
                          f"(need a finite rate with Re > 0)")
    # a dead slot that does not decay has no reach; every other slot keeps its own
    slowest = np.where(decays, rates.real, np.inf).min(axis=1, initial=np.inf)
    reach = np.where(live.any(axis=1), DECAY_SUPPORT / slowest, -np.inf)
    support = x <= reach[:, None]
    counts = np.count_nonzero(support, axis=1)  # pairs per mode
    pairs = np.flatnonzero(support)  # (mode, x) pairs in support, flattened, mode by mode
    xs = x[pairs % x.size]
    pairs += pairs // x.size * (out.shape[-1] - x.size)  # their flat index into an (M, W) block
    # each out block flattens to a view, by the strides checked above
    blocks = [out[i].reshape(-1) for i in np.ndindex(coeffs.shape[:-3])]
    vals = [o[pairs] for o in blocks]  # each block's pairs in support, gathered once
    c = coeffs.reshape((len(blocks),) + coeffs.shape[-3:])
    term = np.empty(pairs.size, dtype=complex)
    for r in range(n_rates):
        on = np.repeat(live[:, r], counts)
        if not on.any():
            continue
        at = slice(None) if on.all() else np.flatnonzero(on)
        counts_r = np.where(live[:, r], counts, 0)
        xr = xs[at]
        basis = np.repeat(rates[:, r], counts_r) * xr
        np.exp(np.negative(basis, out=basis), out=basis)
        t = term[:xr.size]
        for p in range(n_powers):
            if p:
                basis *= xr
            for v, cb in zip(vals, c[:, :, r, p]):
                v[at] += np.multiply(np.repeat(cb, counts_r), basis, out=t)
    for v, o in zip(vals, blocks):
        o[pairs] = v
    return out


@dataclass(frozen=True, eq=False)
class ModeBatch:
    """Solutions of M tangential modes, in the case's term layout.

    `lam` is one complex lambda for every mode or an (M,) array of one per
    mode.  `rates` (M, R) holds the decay rates: (omega, t1, t2) in cases I/II,
    (omega, t*) in case III, (omega, t2) in case IV and (omega,) in case V.
    `coeffs` (N + 2, M, R, P) holds the profile coefficients of rho,
    u_1..u_N and phi on x^p e^{-rate x}, p < P (P = 2 in cases IV and V,
    which carry x e^{-t x} terms, else 1).  alpha, beta, gamma (M, N) and
    sigma, tau (M,) are the raw ansatz coefficients.
    """

    params: FluidParams
    lam: complex | np.ndarray
    xi: np.ndarray
    rates: np.ndarray
    coeffs: np.ndarray
    alpha: np.ndarray
    beta: np.ndarray
    gamma: np.ndarray
    sigma: np.ndarray
    tau: np.ndarray

    def __len__(self):
        return self.rates.shape[0]

    def take(self, modes) -> "ModeBatch":
        """The batch of the selected modes (an index array or a boolean mask)."""
        per_mode = ("xi", "rates", "alpha", "beta", "gamma", "sigma", "tau") \
            + (("lam",) if np.ndim(self.lam) else ())
        return replace(self, coeffs=self.coeffs[:, modes],
                       **{k: getattr(self, k)[modes] for k in per_mode})


@dataclass(frozen=True)
class ModeSolution:
    """One solved mode as its batch of one; `rho`, `u` and `phi` are views.

    `evaluate(x)` gives every component's values from one `evaluate_profiles`
    pass on the batch, and `terms(component)` a component's (coefficient,
    power, rate) arrays on the term slots of the batch's case, which
    `solve-mode --emit-profile` writes.  The views are VerticalProfiles on
    those terms, built from `batch` on access; the raw ansatz coefficients
    are the batch's own (`batch.beta[0]` and so on).
    """

    batch: ModeBatch

    def evaluate(self, x) -> np.ndarray:
        """rho, u_1..u_N and phi at the points x, as an (N + 2, len(x)) array.

        One `evaluate_profiles` call on the batch: zero beyond the mode's
        DECAY_SUPPORT reach, and DomainError unless x is a one-dimensional
        array of finite points >= 0.
        """
        return evaluate_profiles(self.batch.rates, self.batch.coeffs, x)[:, 0]

    def terms(self, component: int):
        """(coefficients, powers, rates) of component 0 (rho), 1..N (u) or N + 1 (phi).

        One term per (rate, power) slot of the component in `_CASES`, zero
        coefficients included.
        """
        _, b_slot, c_slot, s_slot, t_slot = _CASES[self.batch.params.case]
        if 0 < component < len(self.batch.coeffs) - 1:
            slots = [s for s in ((0, 0), b_slot, c_slot) if s is not None]
        else:
            slots = [s_slot, t_slot]
        r, p = (np.array(a) for a in zip(*slots))
        return self.batch.coeffs[component, 0, r, p], p, self.batch.rates[0, r]

    @property
    def rho(self) -> VerticalProfile:
        return VerticalProfile(_raw=self.terms(0))

    @property
    def u(self) -> tuple:
        return tuple(VerticalProfile(_raw=self.terms(J))
                     for J in range(1, len(self.batch.coeffs) - 1))

    @property
    def phi(self) -> VerticalProfile:
        return VerticalProfile(_raw=self.terms(len(self.batch.coeffs) - 1))


def _batch(params, lam, xi, h, rates, beta, gamma, sigma, tau) -> ModeBatch:
    """Lay the solved ansatz coefficients of M modes out as a ModeBatch."""
    _, b_slot, c_slot, s_slot, t_slot = _CASES[params.case]
    n_modes, dim = xi.shape[0], xi.shape[1] + 1
    alpha = np.concatenate([h, np.zeros((n_modes, 1))], axis=1)
    coeffs = np.zeros((dim + 2, n_modes, rates.shape[1], 2 if t_slot[1] else 1), dtype=complex)
    u = coeffs[1:dim + 1]
    u[:, :, 0, 0] = alpha.T
    for slot, c in ((b_slot, beta), (c_slot, gamma)):
        if slot is not None:
            u[:, :, slot[0], slot[1]] = c.T
            if slot[1] == 0:
                u[:, :, 0, 0] -= c.T
    phi = coeffs[dim + 1]
    phi[:, s_slot[0], s_slot[1]] = sigma
    phi[:, t_slot[0], t_slot[1]] = tau
    coeffs[0] = phi * _quot(-1.0, np.reshape(lam, (-1, 1, 1)))
    return ModeBatch(params=params, lam=lam, xi=xi, rates=rates, coeffs=coeffs,
                     alpha=alpha, beta=beta, gamma=gamma, sigma=sigma, tau=tau)


def solve_modes(params: FluidParams, xi, lam, g_hat, h_hat) -> ModeBatch:
    """Solve the reduced boundary value problem for M tangential modes at once.

    xi (M, N-1) are the tangential frequencies, lam one lambda for every
    mode or an (M,) array of one per mode, g_hat (M,) and h_hat (M, N-1)
    the boundary traces.  Every xi and lambda must be finite with
    Re lambda > 0, the half-plane on which the boundary systems are
    certified nonvanishing; otherwise DomainError names the first bad mode.
    The case formulas run on `_Rounded` arrays, so each mode gets the bits
    of the same formulas on its Python complex scalars (with |xi|^2 and
    xi . h summed in axis order), whatever the batch around it.  The
    profiles satisfy the interior equations and the boundary conditions
    exactly in the profile algebra.
    """
    xi = np.asarray(xi, dtype=float)
    lams = np.asarray(lam, dtype=complex)
    g = np.asarray(g_hat, dtype=complex)
    h = np.asarray(h_hat, dtype=complex)
    if xi.ndim != 2 or g.shape != xi.shape[:1] or h.shape != xi.shape \
            or lams.shape not in ((), g.shape):
        raise DomainError("need xi (M, N-1), lambda scalar or (M,), g_hat (M,) and h_hat (M, N-1)")
    bad = ~(np.isfinite(xi).all(axis=1) & np.isfinite(lams) & (lams.real > 0.0))
    if bad.any():
        k = int(np.argmax(bad))
        raise DomainError(f"the mode solve requires finite xi and lambda with Re lambda > 0; "
                          f"mode {k} has xi = {xi[k]}, lambda = {lams[k] if lams.ndim else lams}")
    if not (np.all(np.isfinite(g)) and np.all(np.isfinite(h))):
        raise DomainError("boundary trace entries must be finite")
    lam = lams.view(_Rounded) if lams.ndim else complex(lams)
    xi_r = xi.view(_Rounded)
    xi_sq = np.sum(xi_r * xi_r, axis=1)
    ixh = 1j * np.sum(xi_r * h.view(_Rounded), axis=1)
    rates, *solved = _CASES[params.case][0](params, xi, xi_sq, lam, g.view(_Rounded), ixh,
                                            *root_arrays(params, xi_sq, lam))
    return _batch(params, lams if lams.ndim else lam, xi, h,
                  *(np.asarray(a) for a in (np.stack(rates, axis=1), *solved)))


def solve_mode(params: FluidParams, mode: TangentialMode, trace: BoundaryTrace) -> ModeSolution:
    """Solve the reduced boundary value problem for one tangential mode.

    The mode's batch of one from `solve_modes`, so it requires Re lambda > 0.
    A sector mode must also open past epsilon_star, the check that
    `compute_roots` makes (`spectral.require_sector_opening`); DomainError
    otherwise.
    """
    require_sector_opening(params, mode)
    if trace.h_hat.shape != (mode.dim - 1,):
        raise DomainError(f"h_hat must have length {mode.dim - 1}")
    return ModeSolution(solve_modes(params, mode.xi[None], mode.lam, [trace.g_hat],
                                    trace.h_hat[None]))


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

    Interior residuals are normalized per equation by the sum of
    |coefficients| of the terms entering it (so 1e-16-level values mean the
    profiles cancel to rounding); boundary residuals are normalized by the
    magnitude of the quantities entering each condition, floored by the
    trace scale.
    """

    pde_max: float
    boundary_max: float
    per_equation: dict
    per_boundary: dict

    def worst_equation(self):
        return max(self.per_equation, key=self.per_equation.get)


def batch_residuals(batch: ModeBatch, x, modes=None, trace=None):
    """Interior and boundary residuals of the selected modes of a batch.

    `modes` (an index array or a boolean mask; default all) selects the
    modes, x are the sample points and `trace` (g (M,), h (M, N-1)) the
    boundary data of the selected modes; without it the data are the
    solve's own, h = alpha and g from d_N phi(0) = lambda g.  Returns
    (per_equation, per_boundary), dicts of arrays over the selected modes.
    The defect of an identity is max_x |its residual| over the sum of
    |coefficients| of the unmerged terms entering it, which the derivative
    recursion gives when run on |C| and |t|: the exponential basis is
    ill-conditioned at large |xi|^2/|lambda|, so only the coefficient scale
    tells rounding from a transcription slip, which shows at O(1).
    """
    b = batch if modes is None else batch.take(modes)
    mu, nu, kappa = b.params.mu, b.params.nu, b.params.kappa
    # lambda as a column on (..., M, R, P), per mode or broadcast, so a mode
    # has the same bits in any batch
    lam, n = np.reshape(b.lam, (-1, 1, 1)), b.xi.shape[1] + 1
    xi = b.xi.T[:, :, None, None]
    xi_sq = np.sum(b.xi * b.xi, axis=1)[:, None, None]

    # Every quantity is a pair: its coefficients and their unmerged |.| sums.
    def d(pair, order):
        return (_derivative(pair[0], -b.rates, order),
                _derivative(pair[1], np.abs(b.rates), order))

    def lap(pair):
        d2 = d(pair, 2)
        return d2[0] - xi_sq * pair[0], d2[1] + xi_sq * pair[1]

    def combine(*terms):
        return (sum(f * p[0] for f, p in terms), sum(abs(f) * p[1] for f, p in terms))

    rho, u, u_n, phi = ((b.coeffs[i], np.abs(b.coeffs[i]))
                        for i in (0, slice(1, n), n, n + 1))
    du_n = d(u_n, 1)
    div = (np.sum(1j * xi * u[0], axis=0) + du_n[0], np.sum(np.abs(xi) * u[1], axis=0) + du_n[1])
    lap_rho = lap(rho)
    momentum = combine((lam, u), (-mu, lap(u)), (-nu * 1j * xi, div),
                       (-kappa * 1j * xi, lap_rho))
    identities = {"mass": combine((lam, rho), (1.0, div)),
                  "divergence": combine((1.0, phi), (-1.0, div)),
                  **{f"momentum_{j + 1}": (momentum[0][j], momentum[1][j]) for j in range(n - 1)},
                  "momentum_N": combine((lam, u_n), (-mu, lap(u_n)), (-nu, d(div, 1)),
                                        (-kappa, d(lap_rho, 1)))}
    values = np.abs(evaluate_profiles(b.rates, np.array([v for v, _ in identities.values()]),
                                      x)).max(axis=-1)
    scales = np.array([s for _, s in identities.values()]).sum(axis=(-2, -1))
    defects = np.divide(values, scales, out=np.zeros_like(values), where=scales != 0.0)
    per_equation = dict(zip(identities, defects))

    u0 = b.coeffs[1:n + 1, :, :, 0].sum(axis=-1)
    u_scale = np.abs(b.coeffs[1:n + 1]).sum(axis=(-2, -1))
    drho = d(rho, 1)
    drho0 = drho[0][..., 0].sum(axis=-1)
    if trace is None:
        g, h = d(phi, 1)[0][..., 0].sum(axis=-1) / b.lam, b.alpha[:, :-1]
        floor = np.maximum(np.abs(u0).max(axis=0), np.maximum(np.abs(drho0), 1e-300))
        g_floor = 1e-300
    else:
        g, h = (np.asarray(v, dtype=complex) for v in trace)
        floor = g_floor = np.maximum(np.maximum(np.abs(g), np.abs(h).max(axis=1)), 1e-300)
    per_boundary = {f"u_{j + 1}(0)-h_{j + 1}": np.abs(u0[j] - h[:, j])
                    / np.maximum(np.maximum(u_scale[j], np.abs(h[:, j])), floor)
                    for j in range(n - 1)}
    per_boundary["u_N(0)"] = np.abs(u0[-1]) / np.maximum(u_scale[-1], floor)
    per_boundary["dN_rho(0)+g"] = np.abs(drho0 + g) / np.maximum(
        np.maximum(drho[1].sum(axis=(-2, -1)), np.abs(g)), g_floor)
    return per_equation, per_boundary


def _solved_batch(params: FluidParams, mode: TangentialMode, solution: ModeSolution):
    """The solution's batch of one, if it was solved for `params` and `mode`.

    Raises DomainError otherwise: the defects are computed from the batch
    alone, so a mismatch would check another mode without saying so.
    """
    batch = solution.batch
    if params != batch.params:
        raise DomainError(f"solution was solved for {batch.params}, not {params}")
    if mode.lam != batch.lam or not np.array_equal(mode.xi, batch.xi[0]):
        raise DomainError(f"solution was solved for xi = {batch.xi[0]}, lambda = {batch.lam}, "
                          f"not xi = {mode.xi}, lambda = {mode.lam}")
    return batch


def pde_residual(params: FluidParams, mode: TangentialMode, solution: ModeSolution,
                 sample_points=None) -> ResidualReport:
    """Evaluate the interior equations and boundary conditions on sample points.

    `batch_residuals` on the solution's batch of one, which must have been
    solved for `params` and `mode`; DomainError otherwise.
    """
    batch = _solved_batch(params, mode, solution)
    if sample_points is None:
        sample_points = default_sample_points(params, mode)
    per_equation, per_boundary = (
        {k: float(v[0]) for k, v in table.items()}
        for table in batch_residuals(batch, sample_points))
    return ResidualReport(pde_max=max(per_equation.values()),
                          boundary_max=max(per_boundary.values()),
                          per_equation=per_equation, per_boundary=per_boundary)


def boundary_residuals(params: FluidParams, mode: TangentialMode, solution: ModeSolution,
                       trace: BoundaryTrace) -> dict:
    """Boundary defects against explicitly supplied trace data, floored by its scale.

    The boundary part of `batch_residuals` on the solution's batch of one,
    which must have been solved for `params` and `mode`; DomainError
    otherwise.
    """
    per_boundary = batch_residuals(_solved_batch(params, mode, solution), [0.0],
                                   trace=([trace.g_hat], trace.h_hat[None]))[1]
    return {k: float(v[0]) for k, v in per_boundary.items()}


# ---------------------------------------------------------------------------
# Assembled multiplier-times-kernel formulas (the second derivation route)
# ---------------------------------------------------------------------------


def _raw_symbols(params, mode, *names):
    """The raw registry forms of the named symbols at one mode, as complex scalars."""
    return [complex(make_named_symbol(params, name).eval(mode.xi, mode.lam)) for name in names]


def _assembled_case_1_2(params, mode, trace, x):
    roots = compute_roots(params, mode)
    t1, t2, om = roots.t1, roots.t2, roots.omega
    lam = mode.lam
    xi = mode.xi
    s1, s2 = params.s1, params.s2
    g = trace.g_hat
    h = trace.h_hat

    L11, L21, m1, m2, n1, n2, p1, p2 = _raw_symbols(
        params, mode, "L11", "L21", "m1", "m2", "n1", "n2", "p1", "p2")
    L_k1 = {1: L11, 2: L21}
    t_k = {1: t1, 2: t2}
    s_k = {1: s1, 2: s2}
    m_k = {1: m1, 2: m2}
    p_k = {1: p1, 2: p2}
    n_k = {1: n1, 2: n2}

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


def _assembled_case_3(params, mode, trace, x):
    roots = compute_roots(params, mode)
    om = roots.omega
    lam = mode.lam
    xi = mode.xi
    inv_nu = 1.0 / params.nu
    ts = np.sqrt(complex(mode.xi_sq + inv_nu * lam))
    g = trace.g_hat
    h = trace.h_hat
    d3, = _raw_symbols(params, mode, "d3")

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

    q, M11, M12 = _raw_symbols(params, mode, "q", "M11", "M12")
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
    d5, = _raw_symbols(params, mode, "d5")

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
    profiles of `solve_mode`, evaluated by `ModeSolution.evaluate`.
    Discrepancies are normalized by the overall solution scale; exceeding
    `fail_above` raises with the worst component.
    """
    if sample_points is None:
        sample_points = default_sample_points(params, mode)
    x = np.asarray(sample_points, dtype=float)
    solution = solve_mode(params, mode, trace)
    rho_a, u_a = _ASSEMBLED[params.case](params, mode, trace, x)

    ref = solution.evaluate(x)[:-1]
    got = [np.broadcast_to(np.asarray(rho_a, dtype=complex), x.shape)] \
        + [np.broadcast_to(np.asarray(c, dtype=complex), x.shape) for c in u_a]
    scale = max(np.max(np.abs(ref)), 1e-300)
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
