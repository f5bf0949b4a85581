"""Independent finite-difference oracle for the per-mode boundary value problem.

The reduced per-mode system is recast as a first-order companion system in

    y = (u_1, u_1', ..., u_{N-1}, u_{N-1}', u_N, phi, phi', phi'')

of complex dimension 2N+2, using the divergence constraint
u_N' = phi - i xi . u' to lower the order in u_N and the interior equations
to close u_j'' and phi'''.  The system y' = A y with constant A is then
discretized on [0, L] by a two-point box scheme (second order) or its
Obrechkoff correction (fourth order), with the physical boundary conditions
at x = 0 and homogeneous Dirichlet conditions at x = L.  The box rows are a
constant-coefficient recursion; it is solved through its discrete dichotomy:
QZ splits it into decaying and growing directions, one 2(N+1) system fixes
their amplitudes from the boundary rows, and each set is marched away from
the end where it is fixed.

Nothing here evaluates an exponential of A or reuses the closed-form roots;
agreement with `modes.solve_mode` is therefore a genuine cross-check.

scipy is imported where it runs: `scipy.linalg` on the first solve, so that
importing this module (and with it the package) loads numpy only.
"""

from __future__ import annotations

import math
import numbers
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, DomainError
from .modes import BoundaryTrace, ModeSolution, solve_mode
from .spectral import FluidParams, TangentialMode, compute_roots

SCHEMES = ("second_order_fd", "fourth_order_fd")


def __getattr__(name):
    # Only `oracle.spla` is served here, imported on first read: the benchmark's
    # tracer (perfbench/tracing.py, target "kortsolve.oracle:spla") wraps
    # spla.spsolve, and perfbench/tests/test_perfbench.py:96 reads
    # kortsolve.oracle.spla, though nothing in the package calls it.  Item 7 of
    # ROADMAP.md deletes this hook with the tracer target, once perfbench/ may
    # be edited.
    if name == "spla":
        import scipy.sparse.linalg as spla
        globals()["spla"] = spla
        return spla
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


@dataclass(frozen=True)
class BvpConfig:
    """Truncated-interval discretization parameters.

    n >= 64 is the supported operating regime; smaller grids are accepted
    (with a warning) so that deliberate under-resolution can be exercised,
    but nothing is guaranteed about their accuracy.
    """

    length: float
    n: int
    scheme: str = "second_order_fd"

    def __post_init__(self):
        if not 0 < self.length < math.inf:
            raise ConfigurationError("interval length must be positive and finite")
        if not isinstance(self.n, numbers.Integral):  # numpy integers pass
            raise ConfigurationError(f"the node count n must be an integer, got {self.n!r}")
        if self.n < 4:
            raise ConfigurationError("need at least 4 nodes")
        if self.n < 64:
            warnings.warn("BvpConfig with n < 64 is below the supported regime",
                          stacklevel=3)
        if self.scheme not in SCHEMES:
            raise ConfigurationError(f"scheme must be one of {SCHEMES}")

    @classmethod
    def for_mode(cls, params: FluidParams, mode: TangentialMode, n: int = 4096,
                 decay_lengths: float = 40.0, scheme: str = "second_order_fd"):
        """Interval sized so exp(-Re t_min * L) = exp(-decay_lengths)."""
        roots = compute_roots(params, mode)
        tmin = min(roots.t1.real, roots.t2.real, roots.omega.real)
        return cls(length=decay_lengths / tmin, n=n, scheme=scheme)


@dataclass
class BvpSolution:
    """Nodal values of the oracle solve.

    `closed_form` is filled in by `compare_with_closed_form`: the closed-form
    rho, u_1..u_N and phi on x, stacked in that order, shape (N+2, n).
    """

    x: np.ndarray
    u: np.ndarray      # shape (N, n)
    phi: np.ndarray    # shape (n,)
    rho: np.ndarray    # shape (n,)
    far_field_ratio: float
    closed_form: np.ndarray | None = None


def companion_matrix(params: FluidParams, mode: TangentialMode) -> np.ndarray:
    """The constant matrix A of the first-order companion system y' = A y."""
    N = mode.dim
    lam = mode.lam
    xi = mode.xi
    xi_sq = mode.xi_sq
    mu, nu, kappa = params.mu, params.nu, params.kappa
    dim = 2 * N + 2
    # layout: u_j at 2j, u_j' at 2j+1 (j = 0..N-2), u_N at 2N-2,
    #         phi at 2N-1, phi' at 2N, phi'' at 2N+1.
    iu = lambda j: 2 * j
    idu = lambda j: 2 * j + 1
    iun = 2 * N - 2
    iphi, idphi, iddphi = 2 * N - 1, 2 * N, 2 * N + 1

    A = np.zeros((dim, dim), dtype=complex)
    for j in range(N - 1):
        A[iu(j), idu(j)] = 1.0
        # u_j'' = (lam/mu + |xi|^2) u_j - i xi_j (lam nu + kappa |xi|^2)/(lam mu) phi
        #         + i xi_j kappa/(lam mu) phi''
        A[idu(j), iu(j)] = lam / mu + xi_sq
        A[idu(j), iphi] = -1j * xi[j] * (lam * nu + kappa * xi_sq) / (lam * mu)
        A[idu(j), iddphi] = 1j * xi[j] * kappa / (lam * mu)
    # u_N' = phi - sum_j i xi_j u_j
    A[iun, iphi] = 1.0
    for j in range(N - 1):
        A[iun, iu(j)] = -1j * xi[j]
    A[iphi, idphi] = 1.0
    A[idphi, iddphi] = 1.0
    # phi''' = [-lam (lam + mu |xi|^2) u_N - lam mu sum_j i xi_j u_j'
    #           + (lam (mu + nu) + kappa |xi|^2) phi'] / kappa
    A[iddphi, iun] = -lam * (lam + mu * xi_sq) / kappa
    for j in range(N - 1):
        A[iddphi, idu(j)] = -lam * mu * 1j * xi[j] / kappa
    A[iddphi, idphi] = (lam * (mu + nu) + kappa * xi_sq) / kappa
    return A


def _u_columns(N: int) -> list:
    """Positions of u_1..u_N in the companion vector y."""
    return [*range(0, 2 * N - 2, 2), 2 * N - 2]


def _box_solve(A: np.ndarray, lam: complex, trace: BoundaryTrace, config: BvpConfig):
    """Nodal values y, shape (n, 2N+2), of the box scheme for y' = A y on [0, L].

    Every box row reads right y_{i+1} = -left y_i.  The QZ split of the pencil
    (-left, right) gives N+1 decaying directions Zd with a forward step Md and
    N+1 growing directions Zg with a backward step Mg, so that
    y_i = Zd Md^i a + Zg Mg^(n-1-i) b.  The N+1 boundary rows at each end fix
    (a, b) through one 2(N+1) square system.  The amplitudes are then marched
    by doubling, the growing ones from x = L, so no direction is marched the
    way it grows and `right` is never inverted.
    """
    from scipy.linalg import block_diag, ordqz

    dim, n = A.shape[0], config.n
    N, k = dim // 2 - 1, dim // 2
    h = config.length / (n - 1)
    eye = np.eye(dim, dtype=complex)
    right, left = eye / h - A / 2.0, -(eye / h + A / 2.0)
    if config.scheme == "fourth_order_fd":
        # Corrected trapezoid (Euler-Maclaurin): y_{i+1} - y_i =
        # (h/2) A (y_i + y_{i+1}) - (h^2/12) A^2 (y_{i+1} - y_i) + O(h^5).
        A2 = (h / 12.0) * (A @ A)
        right, left = right + A2, left - A2
    decays = lambda a, b: abs(a) < (1 - 1e-8) * abs(b)
    split = []
    try:
        # |mu| = |alpha/beta| is compared without a division, so an infinite
        # eigenvalue grows; one within 1e-8 of the unit circle is on neither side.
        for sort in (decays, lambda a, b: decays(b, a)):
            AA, BB, alpha, beta, _, Z = ordqz(-left, right, sort=sort, output="complex")
            if np.count_nonzero(sort(alpha, beta)) != k:
                raise ValueError(f"the box pencil does not split into {k} decaying "
                                 f"and {k} growing directions")
            AA, BB = AA[:k, :k], BB[:k, :k]
            # BB c_{i+1} = AA c_i: solved forward for decaying c, backward for growing
            split.append((Z[:, :k], np.linalg.solve(AA, BB) if split else np.linalg.solve(BB, AA)))
        (Zd, Md), (Zg, Mg) = split
        Pd, Pg = np.linalg.matrix_power(np.stack([Md, Mg]), n - 1)
        # x = 0: u_j = h_j, u_N = 0, phi' = lam*g;  x = L: u_j = u_N = phi = 0
        at0, atL = [*_u_columns(N), 2 * N], [*_u_columns(N), 2 * N - 1]
        rhs = np.zeros(2 * k, dtype=complex)
        rhs[:N - 1] = trace.h_hat
        rhs[N] = lam * trace.g_hat
        amp = np.linalg.solve(np.block([[Zd[at0], Zg[at0] @ Pg], [Zd[atL] @ Pd, Zg[atL]]]), rhs)
        # Row i of V holds (Md^i a, Mg^i b); each pass doubles the rows.
        V, step = amp[None], block_diag(Md, Mg).T
        while len(V) < n:
            V = np.concatenate([V, V[:n - len(V)] @ step])
            step = step @ step
        y = V[:, :k] @ Zd.T + V[::-1, k:] @ Zg.T
        if not np.all(np.isfinite(y)):
            raise ValueError("non-finite solution")
    except ValueError as exc:  # also numpy's LinAlgError, and ordqz on non-finite input
        raise ConfigurationError(
            f"singular discrete system (n={n}, L={config.length}): {exc}") from exc
    return y


def solve_mode_bvp(params: FluidParams, mode: TangentialMode, trace: BoundaryTrace,
                   config: BvpConfig) -> BvpSolution:
    """Finite-difference solve of the per-mode BVP on [0, L] through its discrete dichotomy.

    Boundary rows: u_j(0) = h_j, u_N(0) = 0, phi'(0) = lambda*g (which encodes
    d_N rho(0) = -g through rho = -phi/lambda), and u_J(L) = phi(L) = 0.  The
    box scheme is split into its decaying and growing directions by QZ
    (`_box_solve`).  A pencil that does not split into N+1 + N+1 directions,
    a singular system or a non-finite solution raises ConfigurationError
    naming n and L.
    """
    N, n = mode.dim, config.n
    if trace.h_hat.shape != (N - 1,):
        raise DomainError(f"h_hat must have length {N - 1}")
    roots = compute_roots(params, mode)
    tmin = min(roots.t1.real, roots.t2.real, roots.omega.real)
    if config.length < 10.0 / tmin:
        warnings.warn(
            f"interval length {config.length:.3g} is shorter than 10 decay lengths "
            f"({10.0 / tmin:.3g}); truncation error may dominate", stacklevel=2)

    y = _box_solve(companion_matrix(params, mode), mode.lam, trace, config)
    x = np.linspace(0.0, config.length, n)
    u = np.ascontiguousarray(y[:, _u_columns(N)].T)
    phi = y[:, 2 * N - 1]
    rho = -phi / mode.lam

    near = max(np.max(np.abs(u[:, : n // 8])), np.max(np.abs(phi[: n // 8])), 1e-300)
    far_vals = max(np.max(np.abs(u[:, -1])), abs(phi[-1]))
    return BvpSolution(x=x, u=u, phi=phi, rho=rho, far_field_ratio=float(far_vals / near))


def compare_with_closed_form(params: FluidParams, mode: TangentialMode, trace: BoundaryTrace,
                             config: BvpConfig, closed: ModeSolution | None = None):
    """Relative sup-norm disagreement between oracle and closed form.

    Returns (error, BvpSolution), the solution carrying the closed-form
    values it was compared with.  The error is normalized by the largest
    closed-form magnitude over the nodes, taken across all components.
    """
    if closed is None:
        closed = solve_mode(params, mode, trace)
    numeric = solve_mode_bvp(params, mode, trace, config)
    x = numeric.x
    ref = np.array([p.evaluate(x) for p in (closed.rho, *closed.u, closed.phi)])
    numeric.closed_form = ref
    got = np.vstack([numeric.rho[None, :], numeric.u, numeric.phi[None, :]])
    scale = max(np.max(np.abs(ref)), 1e-300)
    return float(np.max(np.abs(ref - got)) / scale), numeric


@dataclass
class ConvergenceStudy:
    ns: list
    errors: list
    orders: list
    monotone: bool

    @property
    def order_estimate(self):
        return float(np.mean(self.orders)) if self.orders else math.nan


def convergence_study(params: FluidParams, mode: TangentialMode, trace: BoundaryTrace,
                      n_list, length: float | None = None,
                      scheme: str = "second_order_fd") -> ConvergenceStudy:
    """Empirical convergence order against the closed form.

    Orders are log(e_i/e_{i+1}) / log(n_{i+1}/n_i) for consecutive grids.
    Non-monotone error sequences are flagged rather than averaged away.
    """
    n_list = list(n_list)
    if len(n_list) < 3 or any(b <= a for a, b in zip(n_list, n_list[1:])):
        raise ConfigurationError("need at least three strictly increasing grid sizes")
    if length is None:
        length = BvpConfig.for_mode(params, mode, n=n_list[0]).length
    closed = solve_mode(params, mode, trace)
    errors = []
    for n in n_list:
        config = BvpConfig(length=length, n=n, scheme=scheme)
        err, _ = compare_with_closed_form(params, mode, trace, config, closed=closed)
        errors.append(err)
    orders = [math.log(errors[i] / errors[i + 1]) / math.log(n_list[i + 1] / n_list[i])
              for i in range(len(errors) - 1)]
    monotone = all(e2 < e1 for e1, e2 in zip(errors, errors[1:]))
    return ConvergenceStudy(ns=n_list, errors=errors, orders=orders, monotone=monotone)
