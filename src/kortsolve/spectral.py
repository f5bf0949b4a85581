"""Parameter classification and characteristic roots.

The linearized capillary (Korteweg-type) fluid model is governed by three
positive constants: shear viscosity mu, second viscosity nu and capillarity
kappa.  The discriminant-like quantity

    eta = ((mu + nu) / (2 kappa))**2 - 1/kappa

together with the equality kappa == mu * nu splits parameter space into five
regimes (cases I-V) that determine how the characteristic decay rates

    t_j    = sqrt(|xi|^2 + s_j * lambda)      (j = 1, 2)
    omega  = sqrt(|xi|^2 + lambda / mu)

degenerate.  Here s_1 <= s_2 are the roots of
kappa * s^2 - (mu + nu) * s + 1 = 0 (scaled), xi is the tangential frequency
and lambda the resolvent parameter in the open right half-plane (or in a
sector when explicitly enabled).
"""

from __future__ import annotations

import cmath
import enum
import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .errors import BranchCutError, DomainError, GridError

DEFAULT_CLASSIFY_TOL = 1e-12


class Case(enum.Enum):
    I = "I"      # eta < 0: complex-conjugate s pair
    II = "II"    # eta > 0, kappa != mu*nu: distinct real s
    III = "III"  # eta > 0, kappa == mu*nu: s = (1/mu, 1/nu), one t equals omega
    IV = "IV"    # eta == 0, kappa != mu*nu: t1 == t2 != omega
    V = "V"      # eta == 0, kappa == mu*nu: t1 == t2 == omega

    def __str__(self):
        return self.value


class Degeneracy(enum.Enum):
    DISTINCT = "distinct"
    T1_EQ_OMEGA = "t1_eq_omega"
    T2_EQ_OMEGA = "t2_eq_omega"
    T1_EQ_T2 = "t1_eq_t2"
    ALL_EQUAL = "all_equal"


@dataclass(frozen=True)
class FluidParams:
    """Classified fluid parameters with the roots s1, s2.

    s1*s2 == 1/kappa and s1 + s2 == (mu + nu)/kappa (Vieta), and both roots
    have positive real part.  `eta` is the raw floating-point value computed
    from the inputs; the case tag reflects the tolerance-snapped sign.
    """

    mu: float
    nu: float
    kappa: float
    eta: float
    case: Case
    s1: complex
    s2: complex

    @property
    def epsilon_star(self) -> float:
        """arg(s2) in [0, pi/2); the minimal sector opening for the t_j roots."""
        return math.atan2(complex(self.s2).imag, complex(self.s2).real)

    @property
    def inv_mu(self) -> float:
        return 1.0 / self.mu


def _is_exact(value) -> bool:
    return isinstance(value, (int, Fraction)) and not isinstance(value, bool)


def classify(mu, nu, kappa, tol: float = DEFAULT_CLASSIFY_TOL) -> FluidParams:
    """Classify (mu, nu, kappa) into cases I-V and compute s1, s2.

    The regime boundaries eta == 0 and kappa == mu*nu are measure-zero
    manifolds, so equality is decided up to a relative tolerance: |eta| is
    compared against tol * (((mu+nu)/(2 kappa))**2 + 1/kappa) and
    |kappa - mu*nu| against tol * mu * nu.  Passing all three parameters as
    int/Fraction switches to exact rational comparisons (tolerance ignored),
    which is how boundary fixtures should be built.

    Case III orders the roots as (1/mu, 1/nu) for mu > nu and (1/nu, 1/mu)
    for mu < nu, so that s1 <= s2 always holds on the real cases.
    """
    if tol < 0:
        raise DomainError("classification tolerance must be nonnegative")
    exact = all(_is_exact(v) for v in (mu, nu, kappa))
    mu_f, nu_f, kappa_f = float(mu), float(nu), float(kappa)
    if not (mu_f > 0 and nu_f > 0 and kappa_f > 0):
        raise DomainError("mu, nu, kappa must all be strictly positive")

    half_sum = (mu_f + nu_f) / (2.0 * kappa_f)
    eta = half_sum * half_sum - 1.0 / kappa_f

    if exact:
        mu_q, nu_q, kappa_q = Fraction(mu), Fraction(nu), Fraction(kappa)
        eta_q = ((mu_q + nu_q) / (2 * kappa_q)) ** 2 - 1 / kappa_q
        eta_zero = eta_q == 0
        eta_neg = eta_q < 0
        kappa_eq = kappa_q == mu_q * nu_q
    else:
        eta_scale = half_sum * half_sum + 1.0 / kappa_f
        eta_zero = abs(eta) <= tol * eta_scale
        eta_neg = (not eta_zero) and eta < 0
        kappa_eq = abs(kappa_f - mu_f * nu_f) <= tol * mu_f * nu_f

    if eta_neg:
        case = Case.I
        root = math.sqrt(-eta)
        s1 = complex(half_sum, -root)
        s2 = complex(half_sum, root)
    elif eta_zero and not kappa_eq:
        case = Case.IV
        s1 = s2 = complex(half_sum)
    elif eta_zero and kappa_eq:
        case = Case.V
        # mu == nu here; the double root is exactly 1/mu.
        s1 = s2 = complex(1.0 / mu_f)
    elif kappa_eq:
        case = Case.III
        # kappa == mu*nu with eta > 0 forces {s1, s2} == {1/mu, 1/nu}.
        lo, hi = (1.0 / mu_f, 1.0 / nu_f) if mu_f > nu_f else (1.0 / nu_f, 1.0 / mu_f)
        s1, s2 = complex(lo), complex(hi)
    else:
        case = Case.II
        root = math.sqrt(eta)
        # s1 via the product relation: the difference half_sum - root cancels
        # badly when 1/kappa << half_sum^2.
        s2 = complex(half_sum + root)
        s1 = complex(1.0 / (kappa_f * (half_sum + root)))

    return FluidParams(mu=mu_f, nu=nu_f, kappa=kappa_f, eta=eta, case=case, s1=s1, s2=s2)


@dataclass(frozen=True)
class TangentialMode:
    """A tangential frequency xi in R^(N-1) paired with a resolvent parameter.

    By default lambda must lie in the open right half-plane.  Setting
    `sector_epsilon` to some eps in (0, pi/2) relaxes this to the sector
    |arg lambda| < pi - eps; consumers that build the t_j roots additionally
    require eps > epsilon_star of the parameter set.
    """

    xi: np.ndarray
    lam: complex
    dim: int = 2
    sector_epsilon: float | None = None

    def __post_init__(self):
        xi = np.atleast_1d(np.asarray(self.xi, dtype=float))
        object.__setattr__(self, "xi", xi)
        object.__setattr__(self, "lam", complex(self.lam))
        if self.dim < 2:
            raise DomainError("spatial dimension must be >= 2")
        if xi.shape != (self.dim - 1,):
            raise DomainError(f"xi must have length N-1 = {self.dim - 1}, got {xi.shape}")
        lam = self.lam
        if not (np.all(np.isfinite(xi)) and cmath.isfinite(lam)):
            raise DomainError(f"xi and lambda must be finite, got xi = {xi}, lambda = {lam}")
        if lam == 0:
            raise DomainError("lambda = 0 is excluded")
        if self.sector_epsilon is None:
            if lam.real <= 0.0:
                raise DomainError(f"lambda must satisfy Re lambda > 0, got {lam}")
        else:
            eps = self.sector_epsilon
            if not (0.0 < eps < math.pi / 2):
                raise DomainError("sector_epsilon must lie in (0, pi/2)")
            if abs(cmath.phase(lam)) >= math.pi - eps:
                raise DomainError(f"lambda outside the sector |arg| < pi - {eps}")

    @property
    def xi_sq(self) -> float:
        return float(np.dot(self.xi, self.xi))

    @property
    def xi_norm(self) -> float:
        return math.sqrt(self.xi_sq)

    @property
    def scale(self) -> float:
        """The anisotropic magnitude |lambda|^(1/2) + |xi|."""
        return math.sqrt(abs(self.lam)) + self.xi_norm


@dataclass(frozen=True)
class RootData:
    """Characteristic roots for one (xi, lambda) mode."""

    t1: complex
    t2: complex
    omega: complex
    degeneracy: Degeneracy


def principal_sqrt(z) -> complex:
    """Principal square root with Re sqrt(z) > 0 off the cut (-inf, 0]."""
    z = complex(z)
    if z.imag == 0.0 and z.real <= 0.0:
        raise BranchCutError(f"radicand {z} lies on the branch cut (-inf, 0]")
    return cmath.sqrt(z)


def compute_roots(params: FluidParams, mode: TangentialMode) -> RootData:
    """Compute t1, t2, omega with the principal branch and tag the degeneracy.

    In sector mode the t_j roots are only defined for sector openings
    eps > epsilon_star (the argument of s2); this is enforced here rather
    than in TangentialMode because omega alone is defined on wider sectors.
    """
    if mode.sector_epsilon is not None and mode.sector_epsilon <= params.epsilon_star:
        raise DomainError(
            f"sector_epsilon={mode.sector_epsilon} must exceed epsilon_star="
            f"{params.epsilon_star} for the t_j roots"
        )
    xi_sq = mode.xi_sq
    lam = mode.lam
    t1 = principal_sqrt(xi_sq + params.s1 * lam)
    t2 = principal_sqrt(xi_sq + params.s2 * lam)
    omega = principal_sqrt(xi_sq + params.inv_mu * lam)
    degeneracy = {
        Case.I: Degeneracy.DISTINCT,
        Case.II: Degeneracy.DISTINCT,
        Case.III: Degeneracy.T1_EQ_OMEGA if params.mu > params.nu else Degeneracy.T2_EQ_OMEGA,
        Case.IV: Degeneracy.T1_EQ_T2,
        Case.V: Degeneracy.ALL_EQUAL,
    }[params.case]
    return RootData(t1=t1, t2=t2, omega=omega, degeneracy=degeneracy)


def root_arrays(params: FluidParams, xi_sq, lam):
    """t1, t2, omega with the principal branch, elementwise over |xi|^2 and lambda arrays."""
    t1 = np.sqrt(xi_sq + params.s1 * lam)
    t2 = np.sqrt(xi_sq + params.s2 * lam)
    om = np.sqrt(xi_sq + params.inv_mu * lam)
    return t1, t2, om


def _stable_tw_minus_xisq(s_t, s_w, lam, t, w, xi_sq):
    """t*w - |xi|^2 for t = sqrt(|xi|^2+s_t lam), w = sqrt(|xi|^2+s_w lam), elementwise.

    Written as (t^2 w^2 - |xi|^4) / (t w + |xi|^2) to avoid the cancellation
    at |xi|^2 >> |lambda|.
    """
    num = lam * (s_t + s_w) * xi_sq + s_t * s_w * lam * lam
    return num / (t * w + xi_sq)


def _detL_over_dt(params: FluidParams, t1, t2, om, lam):
    """det L / (t2 - t1) = lam * bracket in the cancellation-free form, elementwise.

    Uses the root identities t_k^2 - |xi|^2 = s_k lam and
    omega^2 - |xi|^2 = lam/mu to trade the difference of quartics for a sum
    whose terms share the magnitude of the result.
    """
    s1, im = params.s1, params.inv_mu
    chain = t1 * t2 + t2 * t2 + s1 * lam  # t2^2 + t1 t2 + t1^2 - |xi|^2
    bracket = t2 * om * (t2 + t1) * (s1 - im) / (t1 + om) - om * om * s1 + im * chain
    return lam * bracket


def char_poly(params: FluidParams, mode: TangentialMode, t) -> complex:
    """The quartic P_lambda(t) = lam^2 - lam (mu+nu)(t^2-|xi|^2) + kappa (t^2-|xi|^2)^2.

    Its four roots are +-t1 and +-t2.
    """
    t = complex(t)
    lam = mode.lam
    w = t * t - mode.xi_sq
    return lam * lam - lam * (params.mu + params.nu) * w + params.kappa * w * w


# ---------------------------------------------------------------------------
# Scan grids over (xi, lambda)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ScanGrid:
    """Log-spaced product grid over tangential frequencies and resolvent values.

    The grid is the Cartesian product of |xi| magnitudes, unit directions,
    |lambda| magnitudes and arg(lambda) values.  Every entry must be finite,
    and every lambda must lie in the open right half-plane, |arg| < pi/2.
    """

    xi_magnitudes: np.ndarray
    directions: np.ndarray  # shape (n_dir, N-1), unit rows
    lambda_magnitudes: np.ndarray
    lambda_args: np.ndarray

    def __post_init__(self):
        for name in ("xi_magnitudes", "lambda_magnitudes", "lambda_args"):
            arr = np.atleast_1d(np.asarray(getattr(self, name), dtype=float))
            object.__setattr__(self, name, arr)
        dirs = np.atleast_2d(np.asarray(self.directions, dtype=float))
        object.__setattr__(self, "directions", dirs)
        if self.xi_magnitudes.size == 0 or self.lambda_magnitudes.size == 0 \
                or self.lambda_args.size == 0 or self.directions.size == 0:
            raise GridError("scan grid axes must be non-empty")
        for name in ("xi_magnitudes", "directions", "lambda_magnitudes", "lambda_args"):
            if not np.all(np.isfinite(getattr(self, name))):
                raise GridError(f"scan grid {name} must be finite")
        if np.any(self.xi_magnitudes < 0) or np.any(self.lambda_magnitudes <= 0):
            raise GridError("grid magnitudes must be positive (xi may include 0)")
        if np.any(np.abs(self.lambda_args) >= math.pi / 2):
            raise GridError("scan grid lambda_args must satisfy |arg lambda| < pi/2")

    @classmethod
    def logspace(cls, dim=2, xi_range=(1e-3, 1e3), n_xi=24, lam_sqrt_range=(1e-3, 1e3),
                 n_lam=24, arg_limit=math.pi / 2 - 0.05, n_arg=5):
        """Build the default scan: |xi| and |lambda|^(1/2) log-spaced, args symmetric.

        The scan stays strictly inside the right half-plane; by default the
        boundary |arg lambda| = pi/2 is approached up to 0.05 rad.  Each range
        must be finite with 0 < min <= max, and dim at least 2, else GridError.
        """
        if dim < 2:
            raise GridError(f"scan grid dim must be >= 2 (one tangential direction), got {dim}")
        for name, (lo, hi) in (("xi", xi_range), ("|lambda|^(1/2)", lam_sqrt_range)):
            if not (0.0 < lo <= hi < math.inf):
                raise GridError(f"the {name} range must be finite with 0 < min <= max, "
                                f"got ({lo}, {hi})")
        xi_mags = np.geomspace(xi_range[0], xi_range[1], n_xi)
        lam_mags = np.geomspace(lam_sqrt_range[0], lam_sqrt_range[1], n_lam) ** 2
        args = np.linspace(-arg_limit, arg_limit, n_arg)
        dirs = np.zeros((1, dim - 1))
        dirs[0, 0] = 1.0
        return cls(xi_magnitudes=xi_mags, directions=dirs,
                   lambda_magnitudes=lam_mags, lambda_args=args)

    def refined(self, factor=2):
        """Same ranges with `factor` times as many points on every log axis."""
        def densify(arr, log):
            if arr.size == 1:
                return arr
            if log:
                lo, hi = arr.min(), arr.max()
                return np.geomspace(lo, hi, arr.size * factor)
            return np.linspace(arr.min(), arr.max(), arr.size * factor)

        pos = self.xi_magnitudes[self.xi_magnitudes > 0]
        xi = densify(pos, log=True) if pos.size else self.xi_magnitudes
        if pos.size != self.xi_magnitudes.size:
            xi = np.concatenate([[0.0], xi])
        return ScanGrid(
            xi_magnitudes=xi,
            directions=self.directions,
            lambda_magnitudes=densify(self.lambda_magnitudes, log=True),
            lambda_args=densify(self.lambda_args, log=False),
        )

    def flat_points(self):
        """Product grid as flat arrays (xi_sq, xi_norm, lam) for vectorized scans."""
        xi_m, lam_m, args = np.meshgrid(
            self.xi_magnitudes, self.lambda_magnitudes, self.lambda_args, indexing="ij"
        )
        xi_norm = xi_m.reshape(-1)
        lam = (lam_m * np.exp(1j * args)).reshape(-1)
        return xi_norm**2, xi_norm, lam


@dataclass
class RootBoundReport:
    """Infima of Re(root) / (|lambda|^(1/2) + |xi|) over a scan grid."""

    infima: dict
    argmins: dict = field(default_factory=dict)

    def csv_rows(self):
        rows = [("quantity", "inf", "argmin_xi", "argmin_lam_re", "argmin_lam_im")]
        for key, val in self.infima.items():
            xi, lam = self.argmins[key]
            rows.append((key, f"{val:.12e}", f"{xi:.6e}", f"{lam.real:.6e}", f"{lam.imag:.6e}"))
        return rows


def root_lower_bound_scan(params: FluidParams, grid: ScanGrid) -> RootBoundReport:
    """Scan Re t_j / (|lambda|^(1/2)+|xi|) and Re omega / (...) over the grid.

    All three ratios stay strictly positive on the right half-plane; the
    report records the worst point per root for regression tracking.
    """
    xi_sq, xi_norm, lam = grid.flat_points()
    scale = np.sqrt(np.abs(lam)) + xi_norm
    infima, argmins = {}, {}
    for key, s in (("t1", params.s1), ("t2", params.s2), ("omega", complex(params.inv_mu))):
        roots = np.sqrt(xi_sq + s * lam)
        ratios = roots.real / scale
        k = int(np.argmin(ratios))
        infima[key] = float(ratios[k])
        argmins[key] = (float(xi_norm[k]), complex(lam[k]))
    return RootBoundReport(infima=infima, argmins=argmins)
