"""Full-data resolvent solve on the half-space via FFT assembly.

The inhomogeneous problem (data d, f in the interior, g on the boundary) is
reduced to the boundary-data-only problem in three steps, all in one
(N+1, *tangential, n_z+1) complex buffer in the tangential spectrum:

1. reflect d and the tangential components of f evenly about x_N = 0 and
   the normal component oddly, write their cosine (DCT-I) and sine (DST-I)
   spectra in x_N, FFT'd tangentially, into the buffer, and overwrite them
   with the whole-space solution mode-by-mode, all on the half grid; the
   vertical inverse then runs in place and leaves U(xi, x_N), the
   whole-space part in the tangential spectrum;
2. read corrected boundary traces off that spectrum: its normal velocity
   and the normal density gradient are sine series and vanish on the
   interface, so only the tangential velocities need correcting, by
   h_j(xi) = -U_j(xi, 0);
3. solve the reduced boundary problem of every tangential lattice mode in
   one `modes.solve_modes` batch, add the exact profile correction into the
   buffer, spot-check the profile identities of a selection of modes with
   `modes.batch_residuals`, all on the batch's coefficient arrays, and
   finish with one inverse tangential FFT pass over all components, which
   also takes the report's maxima and norms.

Steps 1 and 2 are `whole_space_reduction`, the one path shared by
`solve_resolvent` and the full-data rbound family.  Step 3 is
`lattice_modes`, which solves each lattice mode exactly once, and
`boundary_correction`, which adds the batch's profiles into the buffer (each
mode only where it has not decayed) and hands the batch back, so boundary
diagnostics and the spot-check read exact profile derivatives off its
coefficients instead of solving again.

Grid convention: vertical nodes sit at x_N = k*h, k = 0..n_z-1 with
h = L/n_z, so the interface x_N = 0 is a grid row; the reflections are
2L-periodic with a zero node at x_N = +-L, and their spectra live on
kz = pi k / L, k = 0..n_z.  Tangential axes are periodic boxes [-ell, ell)
sampled at powers of two.
"""

from __future__ import annotations

import functools
import json
import math
import numbers
import operator
import os
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError, DomainError, GridError
from .modes import ModeBatch, _derivative, batch_residuals, evaluate_profiles, solve_modes
from .modes import solve_mode  # noqa: F401  (perfbench/tests looks it up on this module)
from .spectral import FluidParams

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
        # numpy scalars pass; they are stored as int and float, which JSON takes
        for name in ("dim", "n_tangential", "n_vertical"):
            try:
                object.__setattr__(self, name, operator.index(getattr(self, name)))
            except TypeError:
                raise GridError(f"{name} must be an integer, got {getattr(self, name)!r}") from None
        for name in ("box_half_length", "vertical_cutoff"):
            value = getattr(self, name)
            if not (isinstance(value, numbers.Real) and 0 < value < math.inf):  # NaN fails too
                raise GridError(f"{name} must be finite and positive, got {value!r}")
            object.__setattr__(self, name, float(value))
        if self.dim < 2:
            raise GridError("dim must be >= 2")
        n = self.n_tangential
        if n < 8 or (n & (n - 1)) != 0:
            raise GridError("n_tangential must be a power of two, >= 8")
        if self.n_vertical < 8:
            raise GridError("n_vertical must be >= 8")

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

    def tangential_wavenumbers(self):
        return 2.0 * math.pi * np.fft.fftfreq(self.n_tangential, d=self.tangential_spacing)

    def vertical_wavenumbers(self):
        """kz = pi k / L, k = 0..n_z: the cosine/sine spectrum of the reflected grid."""
        return math.pi / self.vertical_cutoff * np.arange(self.n_vertical + 1)

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

    @classmethod
    def _of_finite(cls, values, spec: GridSpec, role: str):
        """A field of complex values on the grid already known finite, without a rescan."""
        field = object.__new__(cls)
        field.values, field.spec, field.role = values, spec, role
        return field

    def trace(self):
        """Boundary row x_N = 0."""
        return self.values[..., 0]


def grid_norm(values, spec: GridSpec, q: float = 2.0) -> float:
    """Discrete l_q norm, 0 < q < inf, with uniform cell-volume quadrature weights.

    The sum runs as `solve_resolvent` takes it for its report: each line
    along axis 0 is summed on its own, and the line sums are added in C
    order, so the two agree bit for bit.
    """
    if not 0.0 < q < math.inf:  # NaN fails too
        raise DomainError(f"need 0 < q < inf, got q = {q}")
    return _norm(np.sum(_line_powers(values, (q,))[1][0]), spec, q)


def _line_powers(values, orders):
    """max|values| and, per q in `orders`, the sums of |values|^q along each line of axis 0.

    The sums have shape values.shape[1:].  Each line is laid out contiguous
    and summed on its own, so its sum does not depend on the other lines in
    `values`: a grid taken in slabs of lines gives the bits of the whole.
    """
    magnitude = np.empty(np.shape(values)[1:] + np.shape(values)[:1])
    np.abs(np.moveaxis(values, 0, -1), out=magnitude)
    return magnitude.max(initial=0.0), [(magnitude ** q).sum(axis=-1) for q in orders]


def _norm(power_sum, spec: GridSpec, q: float) -> float:
    """The l_q norm whose sum of |values|^q is `power_sum`."""
    return float((power_sum * spec.cell_volume()) ** (1.0 / q))


def validate_edge_decay(values, spec: GridSpec, what: str = "data"):
    """Require finite data that has decayed at the tangential box edge and at x_N ~ L."""
    magnitude = np.abs(values)
    _require_edge_decay(values, spec, what, float(np.max(magnitude)),
                        float(np.max(magnitude[..., -1])))


def _require_edge_decay(values, spec: GridSpec, what: str, peak: float, top: float):
    """`validate_edge_decay` given max|values| and the maximum `top` of its x_N = L - h row.

    Only the tangential box-edge lines are read here.
    """
    if not math.isfinite(peak):
        raise ConfigurationError(f"{what} contains non-finite values")
    if peak == 0.0:
        return
    worst = max([top] + [float(np.max(np.abs(np.take(values, 0, axis=axis))))
                         for axis in range(spec.dim - 1)])
    if not worst <= EDGE_DECAY_REQUIREMENT * peak:
        raise ConfigurationError(
            f"{what} has not decayed at the grid edge: edge/peak = {worst / peak:.2e} "
            f"(require <= {EDGE_DECAY_REQUIREMENT:.0e}); enlarge the box"
        )


# ---------------------------------------------------------------------------
# Cosine/sine transforms in x_N and the whole-space solve
# ---------------------------------------------------------------------------

# Reflecting a half-grid column about x_N = 0 gives a 2L-periodic column on
# 2 n_z nodes whose node at x_N = +-L is zero: it has no half-grid preimage.
# The FFT of that column at kz = pi k / L >= 0 is the DCT-I of the column
# padded with the zero node when the reflection is even, and -i times the
# DST-I of rows 1..n_z-1 when it is odd, which needs a zero boundary row.
# The values at -kz follow by parity, so the n_z + 1 rows kz >= 0 carry the
# whole solve.  Arrays below hold those doubled-grid FFT values, not the
# DCT/DST coefficients, so the whole-space formulas apply unchanged.
# scipy.fft is imported where the transforms run, by the package rule that
# `import kortsolve` loads numpy only (README, design notes).
#
# Every full-grid pass of a field solve runs on every CPU in the process's
# affinity mask.  Each is cut into slabs of independent lines, about
# TASK_BYTES each; the calling thread and cpu_workers() - 1 helper threads
# take the next slab as they come free, each transform slab in one pocketfft
# call.  So a CPU that the host is slow to give back holds up one slab, not a
# fixed share of the work.  The helpers start once per process and wait idle
# between calls.  Work of fewer than two slabs stays on the calling thread.
# A field solve makes five passes over its (N+1)-component buffer: the
# forward pass copies and transforms the data in x_N and takes the maxima its
# guards judge; the tangential pass; the algebra and vertical inverse, one
# task per row slab; the boundary correction, in slabs of modes; and the
# inverse tangential pass, whose tasks also take the report's maxima and line
# sums.  So no datum or output is read again on the calling thread alone.  The
# algebra is many short numpy calls, each taking the GIL; taken a slab at a
# time, a slow CPU holds up one slab only.  Lines are independent and every
# reduction is taken per line and combined in a fixed order, so results do
# not depend on the slabs or the CPU count.
TASK_BYTES = 1 << 21


def cpu_workers() -> int:
    """CPUs this process may run on: its affinity mask, else the machine's count."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity mask on this platform
        return os.cpu_count() or 1


def _slices(n: int, nbytes: int):
    """Slices of range(n), rows holding nbytes of work: near-equal, one per TASK_BYTES."""
    n_slabs = max(1, min(n, nbytes // TASK_BYTES))
    bounds = [n * k // n_slabs for k in range(n_slabs + 1)]
    return [slice(a, b) for a, b in zip(bounds[:-1], bounds[1:])]


@functools.lru_cache(maxsize=None)
def _helpers(n_threads: int, pid: int) -> ThreadPoolExecutor:
    """A pool of n_threads helper threads, one per process (a forked child makes its own)."""
    return ThreadPoolExecutor(n_threads, thread_name_prefix="kortsolve")


def _run_slabs(task, slabs):
    """[task(s) for s in slabs], on every CPU when there are two slabs or more.

    The calling thread and cpu_workers() - 1 helper threads take the next
    slab as they come free, so the slabs need not cost the same.  Once the
    caller has drained the slabs, a helper that has not started is cancelled,
    not waited for: a task that itself runs slabs (a field solve inside a
    pool task) may hold the only thread that would start it.
    """
    workers = min(cpu_workers(), len(slabs))
    if workers < 2:
        return [task(s) for s in slabs]
    results = [None] * len(slabs)
    queue = iter(range(len(slabs)))  # each index is taken by one thread

    def drain():
        for k in queue:
            results[k] = task(slabs[k])

    pool = _helpers(workers - 1, os.getpid())
    helpers = [pool.submit(drain) for _ in range(workers - 1)]
    try:
        drain()
    except BaseException:
        for _ in queue:  # leave the helpers no further slab
            pass
        raise
    finally:
        # a helper that has not started is cancelled: no slab is left for it
        wait([h for h in helpers if not h.cancel()])
    for h in helpers:
        if not h.cancelled():
            h.result()
    return results


def _store(dst, result):
    """dst[...] = result, unless a transform run with overwrite_x already wrote it there."""
    if not np.may_share_memory(dst, result):
        dst[...] = result


def tangential_fft(values, axes, inverse: bool = False, overwrite_x: bool = False):
    """FFT (or inverse FFT) of `values` along the tangential `axes`.

    The axes are transformed one at a time, last first, as numpy.fft.fftn
    does, so the result is bit-identical to numpy's.  The result is a new
    array (`values` itself when there are no axes); with `overwrite_x` a
    complex input may be used for it instead.  The work is cut into slabs
    across the largest other axis; see `_fft_slabs`.
    """
    values = np.asarray(values)
    if not axes:
        return values
    out = values if overwrite_x and values.dtype == complex \
        else np.empty(values.shape, dtype=complex)
    split = max((a for a in range(values.ndim) if a not in axes), key=lambda a: values.shape[a],
                default=None)
    _fft_slabs(out, axes, inverse, split, source=None if out is values else values)
    return out


def _fft_slabs(out, axes, inverse: bool, split, source=None, after=None):
    """FFT (or inverse FFT) in place of the complex `out` along `axes`, in slabs across `split`.

    Each slab of axis `split` (the whole array when it is None) is one task
    on the work pool: it copies its part of `source`, if given, into `out`,
    so no slab allocates (fresh pages cost a fault each), and transforms it
    along every axis, last first, in one pocketfft call per axis.  With
    `after`, the task then returns after(part), part being the slab's slice
    of `split`; the results come back in slab order.  `out` may be a view.
    Lines are transformed independently, so the bits do not depend on the
    slabs.
    """
    from scipy import fft

    transform = fft.ifft if inverse else fft.fft
    slabs = [slice(None)] if split is None else _slices(out.shape[split], out.nbytes)

    def task(part):
        index = () if split is None else (slice(None),) * split + (part,)
        if source is not None:
            out[index] = source[index]
        for axis in reversed(axes):
            _store(out[index], transform(out[index], axis=axis, overwrite_x=True, workers=1))
        return None if after is None else after(part)

    return _run_slabs(task, slabs)


def _forward_lines(lines, data, parity: str):
    """`_vertical_forward` of the 2-D half-grid lines `data` into the 2-D `lines`."""
    from scipy import fft

    n = data.shape[-1]
    if parity == "even":
        lines[:, :n] = data
        lines[:, n] = 0.0
        _store(lines, fft.dct(lines, type=1, axis=-1, overwrite_x=True, workers=1))
    else:
        lines[:, 0] = lines[:, n] = 0.0
        lines[:, 1:n] = -1j * fft.dst(data[:, 1:], type=1, axis=-1, workers=1)


def _vertical_forward(values, parity: str, out):
    """Spectrum at kz = pi k / L, k = 0..n_z, of a half-grid array's reflection.

    Written into `out`, a C-contiguous array of shape values.shape[:-1] +
    (n_z + 1,), which is returned.
    """
    values = np.asarray(values, dtype=complex)
    n = values.shape[-1]
    lines, data = out.reshape(-1, n + 1), values.reshape(-1, n)
    _run_slabs(lambda rows: _forward_lines(lines[rows], data[rows], parity),
               _slices(len(lines), out.nbytes))
    return out


def _invert_lines(lines, parity: str):
    """Inverse of `_vertical_forward` on the lines of the 2-D array `lines`, in place.

    Each line holds the rows kz = pi k / L, k = 0..n_z, and gets its first
    n_z samples x_N = 0..L - h.  An odd inverse writes samples 1..n_z - 1
    and zeroes sample 0, where its sine series vanishes.
    """
    from scipy import fft

    n = lines.shape[-1] - 1
    if parity == "even":
        _store(lines, fft.idct(lines, type=1, axis=-1, overwrite_x=True, workers=1))
    else:
        sine = lines[:, 1:n]
        sine *= 1j
        _store(sine, fft.idst(sine, type=1, axis=-1, overwrite_x=True, workers=1))
        lines[:, 0] = 0.0


def _vertical_inverse(hat, parity: str):
    """Inverse of `_vertical_forward`, in place on the C-contiguous `hat`.

    Returns the view hat[..., :n_z], the half-grid samples x_N = 0..L - h;
    see `_invert_lines`.
    """
    n = hat.shape[-1] - 1
    lines = hat.reshape(-1, n + 1)
    _run_slabs(lambda rows: _invert_lines(lines[rows], parity), _slices(len(lines), hat.nbytes))
    return hat[..., :n]


def _wavenumber_mesh(spec: GridSpec):
    axes = [spec.tangential_wavenumbers()] * (spec.dim - 1) + [spec.vertical_wavenumbers()]
    return np.meshgrid(*axes, indexing="ij", sparse=True)


def _solve_slab(params: FluidParams, lam, mesh, hat, rows):
    """The whole-space algebra on rows `rows` of the leading tangential axis.

    hat holds d_hat and f_hat_1..f_hat_N.  The slab's rho_hat and u_hat are
    computed into temporaries, the slab's maxima of |d_hat|, |f_hat|,
    |r_mass|, |lam rho| and, per component i, |r_mom_i| and |visc u_i| are
    taken while the data is intact, and only then are rho_hat, u_hat copied
    over the same rows.  The maxima are returned.  The caller's array is
    only read or written in these rows.
    """
    mu, nu, kappa = params.mu, params.nu, params.kappa
    N = len(mesh)
    mesh = [mesh[0][rows], *mesh[1:]]
    d_hat, f_hat = hat[0, rows], hat[1:, rows]
    maxima = [np.max(np.abs(d_hat)), np.max(np.abs(f_hat))]
    K_sq = sum(k ** 2 for k in mesh)
    xi_dot_f = sum(mesh[i] * f_hat[i] for i in range(N))

    visc = lam + mu * K_sq
    pot = lam + (mu + nu) * K_sq
    D = lam * pot + kappa * K_sq * K_sq
    rho = (pot * d_hat - 1j * xi_dot_f) / D
    del pot, D
    ip_hat = 1j * (d_hat - lam * rho)  # i p with p = i xi . u

    zero = (0,) * N
    with np.errstate(divide="ignore"):
        inv_K_sq = 1.0 / K_sq
    if rows.start == 0:
        inv_K_sq[zero] = 0.0
    u = np.empty_like(f_hat)
    for i in range(N):
        k_inv = mesh[i] * inv_K_sq
        u[i] = (f_hat[i] - k_inv * xi_dot_f) / visc - k_inv * ip_hat
    del ip_hat, inv_K_sq, k_inv, xi_dot_f
    if rows.start == 0:
        # The zero mode decouples: u = f/lam, rho = d/lam.
        u[(slice(None), *zero)] = f_hat[(slice(None), *zero)] / lam
        rho[zero] = d_hat[zero] / lam

    xi_dot_u = sum(mesh[i] * u[i] for i in range(N))
    lam_rho = lam * rho
    r_mass = lam_rho + 1j * xi_dot_u - d_hat
    maxima += [np.max(np.abs(r_mass)), np.max(np.abs(lam_rho))]
    # nu xi_i (xi . u) + i kappa |xi|^2 xi_i rho = xi_i q
    q = nu * xi_dot_u + (1j * kappa * K_sq) * rho
    del lam_rho, r_mass, xi_dot_u
    for i in range(N):
        visc_u = visc * u[i]
        r_mom = visc_u + mesh[i] * q - f_hat[i]
        maxima += [np.max(np.abs(r_mom)), np.max(np.abs(visc_u))]
    hat[0, rows] = rho
    hat[1:, rows] = u
    return maxima


def whole_space_solve(spec: GridSpec, params: FluidParams, d, f, lam,
                      validate: bool = False):
    """Solve the whole-space resolvent problem for reflected half-grid data.

    d is a half-grid scalar, f a list of N half-grid components, each of
    shape `spec.shape` (else GridError names that shape).  d and the
    tangential components of f are reflected evenly about x_N = 0, f_N
    oddly.  In x_N the solve runs on the cosine (DCT-I) and sine (DST-I)
    spectra of those reflections, kz = pi k / L for k = 0..n_z, and
    tangentially on the FFT.  Per full frequency xi the solenoidal part of u
    is f_perp/(lam + mu|xi|^2) while rho and the potential part solve the
    scalar system obtained by eliminating i xi . u = d - lam rho:

        rho = ((lam + (mu+nu)|xi|^2) d - i xi . f)
              / (lam^2 + lam (mu+nu)|xi|^2 + kappa |xi|^4),

    whose denominator is kappa (s1 lam + |xi|^2)(s2 lam + |xi|^2) != 0 for
    Re lam > 0.  The odd reflection of f_N is continuous only if f_N
    vanishes at x_N = 0; a trace above EDGE_DECAY_REQUIREMENT times its peak
    raises ConfigurationError.  That bound also rejects a trace of transform
    rounding, so an f_N built by inverse transforms must have its boundary
    row f_N[..., 0] set to zero.  With `validate`, each datum must first
    pass `validate_edge_decay`, in the order d, f[0], .., f[N-1], judged on
    the forward pass's maxima.  Returns (rho, u list, residual dict) on
    the half grid in the tangential spectrum: rho and u_1..u_{N-1} are
    cosine series in x_N, u_N a sine series, so d_N rho and u_N vanish at
    x_N = 0 (the u_N row x_N = 0 is exactly zero).  The discrete residuals of both
    equations are checked to 1e-10 relative over kz >= 0, whose maximum is
    the maximum over the full spectrum by symmetry.  A NaN in the data fails
    the trace guard or a residual check, which raise ConfigurationError.

    The transforms and the algebra run on every CPU in the process's
    affinity mask, in three passes, each over slabs sized from the whole
    buffer.  The forward pass takes row slabs of the leading tangential
    axis: it copies every datum's lines into the buffer, transforms them in
    x_N and takes the data's maxima that the guards judge (per datum its
    peak, its x_N = L - h row and its x_N = 0 row), so the guards read no
    datum again.  The tangential pass transforms all components in slabs of
    x_N columns.  The last pass, over row slabs again, runs each slab's
    per-frequency algebra and then the vertical inverse of every component
    on the same lines; the residual check runs on the slabs' combined
    maxima after the pass.  Each element and each line gets the same
    operations as in one pass, so the result does not depend on the slabs
    or the CPU count.

    The whole solve runs in one (N+1, *tangential, n_z+1) complex buffer:
    the transforms write the data's spectra into it, each slab's algebra
    overwrites them with rho_hat, u_hat and its vertical inverse runs in
    place on those rows.  So rho
    and u come back in the tangential spectrum (FFT bins, numpy's order) on
    the half grid, as the views buffer[0, ..., :n_z] and
    buffer[1 + i, ..., :n_z]; an inverse tangential FFT gives the grid
    values.  The views' `base` is the buffer.
    """
    lam = complex(lam)
    if lam.real <= 0.0:
        raise DomainError("whole-space solve requires Re lambda > 0")
    N = spec.dim
    if len(f) != N:
        raise DomainError(f"need {N} force components")

    n = spec.n_vertical
    data = [np.asarray(v, dtype=complex) for v in (d, *f)]
    for name, values in zip(["d"] + [f"f[{i}]" for i in range(N)], data):
        if values.shape != spec.shape:
            raise GridError(f"{name} must have the grid shape {spec.shape}, got {values.shape}")
    parities = ["even"] * N + ["odd"]  # rho (d), u_1..u_{N-1}, u_N
    hat = np.empty((N + 1,) + spec.tangential_shape + (n + 1,), dtype=complex)
    lines = [(row.reshape(-1, n + 1), values.reshape(-1, n)) for row, values in zip(hat, data)]

    def forward(rows):
        maxima = []
        for (out, values), parity in zip(lines, parities):
            _forward_lines(out[rows], values[rows], parity)
            # The kz = pi n_z / L row is its own mirror image, so reflection
            # symmetry cannot cancel it; it is filtered, and for data
            # resolved on the grid the removed coefficient is alias-level.
            out[rows, n] = 0.0
            magnitude = np.abs(values[rows])
            maxima.append([magnitude.max(), magnitude[:, -1].max(), magnitude[:, 0].max()])
        return maxima

    # per datum: max|.| over the grid, on the x_N = L - h row and on x_N = 0
    lines_per_datum = math.prod(spec.tangential_shape)
    peak, top, bottom = np.max(_run_slabs(forward, _slices(lines_per_datum, hat.nbytes)),
                               axis=0).T
    if validate:
        for values, what, p, t in zip(data, ["d"] + [f"f[{i}]" for i in range(N)], peak, top):
            _require_edge_decay(values, spec, what, float(p), float(t))
    peak, trace = float(peak[-1]), float(bottom[-1])
    if not trace <= EDGE_DECAY_REQUIREMENT * peak:  # NaN fails too
        raise ConfigurationError(
            f"normal force does not vanish at x_N = 0: trace/peak = {trace / peak:.2e} "
            f"(require <= {EDGE_DECAY_REQUIREMENT:.0e}); its odd reflection is discontinuous. "
            "An f_N built by inverse transforms keeps rounding there: set its boundary row "
            "f_N[..., 0] to zero"
        )
    _fft_slabs(hat[..., :n], range(1, N), inverse=False, split=N)

    mesh = _wavenumber_mesh(spec)

    def solve(rows):
        maxima = _solve_slab(params, lam, mesh, hat, rows)
        for component, parity in zip(hat[:, rows], parities):
            _invert_lines(component.reshape(-1, n + 1), parity)
        return maxima

    maxima = _run_slabs(solve, _slices(len(hat[0]), hat.nbytes))
    d_max, f_max, mass, lam_rho, *momentum = np.max(maxima, axis=0)
    # Components that are identically zero only carry transform rounding,
    # so relative residuals are floored by the overall data magnitude.
    data_scale = max(d_max, f_max, 1e-300)
    residuals = {"mass": float(mass / max(lam_rho, data_scale)),
                 "momentum": float(np.max([r_mom / max(visc_u, data_scale) for r_mom, visc_u
                                           in zip(momentum[0::2], momentum[1::2])]))}
    if not all(r <= 1e-10 for r in residuals.values()):  # NaN fails too
        raise ConfigurationError(f"whole-space residuals too large: {residuals}")

    rho, *u = hat[..., :n]
    return rho, u, residuals


def vertical_spectral_derivative(values, spec: GridSpec, order: int = 1, parity: str = "even"):
    """d^order/dx_N^order of a half-grid array through its reflection about x_N = 0.

    `parity` is that of the reflection ('even' for the density and the
    tangential velocities, 'odd' for the normal one).  Each derivative flips
    the parity, so an odd-order derivative of an even array vanishes at
    x_N = 0 and vice versa.  The half grid stores no x_N = L node; an odd
    reflection is zero there, and an even one gets the value that cancels
    its top cosine row kz = pi n_z / L, the row `whole_space_solve` filters.
    For a whole-space solution that recovers its value at L exactly.
    Returns the derivative on the half grid.
    """
    if parity not in ("even", "odd"):
        raise DomainError("parity must be 'even' or 'odd'")
    values = np.asarray(values)
    hat = _vertical_forward(values, parity, np.empty(values.shape[:-1] + (spec.n_vertical + 1,),
                                                     dtype=complex))
    if parity == "even":
        # a value c at the x_N = L node adds c (-1)^k to every cosine row k
        sign = (-1.0) ** np.arange(spec.n_vertical + 1)
        hat -= sign * (sign[-1] * hat[..., -1:])
    out_parity = {"even": "odd", "odd": "even"}[parity] if order % 2 else parity
    kz = spec.vertical_wavenumbers()
    hat *= (1j * kz) ** order
    return _vertical_inverse(hat, out_parity)


# ---------------------------------------------------------------------------
# Boundary-data reduction and the assembled half-space solve
# ---------------------------------------------------------------------------


def whole_space_reduction(params: FluidParams, d: GridField, f, g_trace, lam,
                          validate: bool = False):
    """Whole-space solve of the reflected data and the corrected boundary traces.

    Returns (spectrum, residuals, g_hat, h_hat), all in the tangential
    spectrum.  `spectrum` is the (N+1, *tangential, n_z+1) buffer of
    `whole_space_solve`, whose first n_z columns hold the whole-space part
    rho, u_1..u_N on the half grid.  g_hat is the FFT of g and
    h_hat_j = -U_j(xi, 0).  The density is a cosine series in x_N, so d_N R
    vanishes at x_N = 0 and g needs no correction.  `validate` is
    `whole_space_solve`'s.
    """
    spec = d.spec
    rho, _, residuals = whole_space_solve(spec, params, d.values, [c.values for c in f], lam,
                                          validate=validate)
    spectrum = rho.base
    g_hat = tangential_fft(np.asarray(g_trace, dtype=complex), tuple(range(spec.dim - 1)))
    h_hat = [-spectrum[1 + j, ..., 0] for j in range(spec.dim - 1)]
    return spectrum, residuals, g_hat, h_hat


@dataclass
class FieldSolveReport:
    """Diagnostics of `solve_resolvent`.

    `correction_residual_max` is the worst `modes.batch_residuals` defect of
    the spot-checked lattice modes, `correction_residual_index` the lattice
    index (a tuple of ints) and `correction_residual_equation` the identity
    ("mass", "divergence", "momentum_j", "momentum_N") it was found at.
    The index and equation mean something only when the maximum is above
    rounding: when every defect is rounding (about 1e-16, as on well-posed
    data), they locate last-bit noise and move with any reordering of the
    arithmetic.
    `un_trace_ratio` is max|U_N(xi, 0)| of the whole-space part over
    max|U_1(xi, x_N)|, both read off the tangential spectrum before the
    correction is added.  It is exactly zero by construction, because U_N
    is a sine series in x_N whose inverse zeroes the x_N = 0 row; the input
    guard of `whole_space_solve` is what catches incompatible data.  The
    denominator is taken only when the trace is not zero, so the ratio
    costs no full-spectrum pass.
    """

    whole_space_residuals: dict
    correction_residual_max: float
    correction_residual_index: tuple
    correction_residual_equation: str
    boundary_u_max: float
    boundary_g_residual: float
    un_trace_ratio: float
    norms: dict = field(default_factory=dict)


def lattice_modes(params: FluidParams, spec: GridSpec, g_hat, h_hat, lam) -> ModeBatch:
    """The reduced boundary problem of every tangential lattice mode, as one batch.

    g_hat, h_hat are the traces' spectra over the tangential lattice (FFT
    bins in numpy's order); batch mode k is the lattice index
    np.unravel_index(k, spec.tangential_shape).
    """
    ks = spec.tangential_wavenumbers()
    xi = np.stack([k.ravel() for k in np.meshgrid(*[ks] * (spec.dim - 1), indexing="ij")],
                  axis=-1)
    return solve_modes(params, xi, lam, np.ravel(g_hat),
                       np.stack([np.ravel(h) for h in h_hat], axis=-1))


def boundary_correction(params: FluidParams, spec: GridSpec, g_hat, h_hat, lam, out):
    """Add the profile correction of every tangential mode into `out`.

    g_hat, h_hat are trace spectra over the tangential lattice.  The lattice
    modes are solved once, as the batch of `lattice_modes`, and their rho
    and u_1..u_N profiles are added into `out`, the tangential spectrum: a
    C-contiguous (N+1, *tangential, W) array with W >= n_z, such as the
    buffer of `whole_space_reduction`.  Each mode is added only at the
    x_N where it has not decayed, through one flat index whose row stride
    is W.  The modes are evaluated on the work pool in slabs of modes, each
    `evaluate_profiles` call finding its slab's support pairs; a mode writes
    only its own rows, so the bits do not depend on the slabs.  Returns the
    ModeBatch, from whose coefficients callers take exact profile
    derivatives.
    """
    N = spec.dim
    if not out.flags.c_contiguous:
        raise ValueError("the correction is scattered into a C-contiguous array only")
    batch = lattice_modes(params, spec, g_hat, h_hat, lam)
    x = spec.vertical_coords()
    rows = out.reshape(N + 1, len(batch), out.shape[-1])
    coeffs = batch.coeffs[:N + 1]
    _run_slabs(lambda modes: evaluate_profiles(batch.rates[modes], coeffs[:, modes], x,
                                               out=rows[:, modes]),
               _slices(len(batch), out.nbytes))
    return batch


def solve_resolvent(params: FluidParams, d: GridField, f, g, lam,
                    validate: bool = True):
    """Full half-space resolvent solve: (rho, u) for data (d, f, g).

    d is a GridField, f a list of N GridFields, g either a GridField (whose
    boundary row is used) or a trace array over the tangential lattice.
    One pass in one buffer: `whole_space_reduction`, then
    `boundary_correction`, then the inverse tangential FFT of all
    components.  With `validate` (the default) every datum must pass
    `validate_edge_decay`, in the order d, f[0], .., f[N-1], which
    `whole_space_solve` judges on its forward pass's maxima.
    The correction's mode batch also gives the exact d_N rho_corr(0) trace
    and the profile-identity spot-check of the report:
    `modes.batch_residuals` on the modes whose lattice index sum is a
    multiple of n_tangential / 4, on the ladder {0} + 2^k, k = -4..3.
    Every full-grid pass runs on the work pool.  The inverse FFT's tasks
    also take max|rho|, max|u_i| and, per line of the first tangential
    axis, the sums of |rho|^q for the report's norms; the line sums are
    added in a fixed order, so the norms equal `grid_norm`'s bit for bit
    whatever the slabs or the CPU count.  A finite maximum proves a field
    finite, so the outputs are not scanned again; a non-finite one raises
    GridError.
    Every field of f, and g when it is a GridField, must be on d's grid;
    otherwise GridError names it.
    Returns (rho GridField, u list of GridFields, FieldSolveReport); their
    values are views into the one buffer.
    """
    spec = d.spec
    lam = complex(lam)
    N = spec.dim
    for name, c in [(f"f[{i}]", c) for i, c in enumerate(f)] + [("g", g)]:
        if isinstance(c, GridField) and c.spec != spec:
            raise GridError(f"{name} is on the grid {c.spec}, not on d's grid {spec}")

    g_trace = g.trace() if isinstance(g, GridField) else np.asarray(g, dtype=complex)
    if g_trace.shape != spec.tangential_shape:
        raise GridError(f"g trace shape {g_trace.shape} != {spec.tangential_shape}")

    spectrum, ws_res, g_hat, h_hat = whole_space_reduction(params, d, f, g_trace, lam,
                                                           validate=validate)
    n = spec.n_vertical
    un_trace = float(np.max(np.abs(spectrum[N, ..., 0])))
    un_trace_ratio = un_trace and un_trace \
        / max(float(np.max(np.abs(spectrum[1, ..., :n]))), 1e-300)
    batch = boundary_correction(params, spec, g_hat, h_hat, lam, spectrum)

    # d_N rho_corr(0) per mode: the power-0 coefficients of the derivative.
    dn_rho_corr_hat = _derivative(batch.coeffs[:1], -batch.rates, 1)[0, :, :, 0].sum(axis=1) \
        .reshape(spec.tangential_shape)
    # The terms that sum holds: -t c for each x^0 term, c for each x^1 term.
    rho_c = batch.coeffs[0]
    dn_term_sum = float(np.sum(np.abs(batch.rates * rho_c[..., 0]))
                        + np.sum(np.abs(rho_c[..., 1:])))

    # Spot-check of the profile identities on a tiny ladder for every
    # (n_tangential/4)-th index sum (cheap, catches assembly/transcription
    # slips), in one pass over the batch coefficients.
    ladder = np.concatenate([[0.0], 2.0 ** np.arange(-4, 4, dtype=float)])
    stride = max(1, spec.n_tangential // 4)
    spot = np.indices(spec.tangential_shape).sum(axis=0).ravel() % stride == 0
    per_equation = batch_residuals(batch, ladder, spot)[0]
    table = np.array(list(per_equation.values()))
    worst = table.max(axis=0)
    k = int(np.argmax(worst))
    corr_index = tuple(int(i) for i in np.unravel_index(np.flatnonzero(spot)[k],
                                                        spec.tangential_shape))
    corr_equation = list(per_equation)[int(np.argmax(table[:, k]))]

    # The inverse transform's tasks also take the report's reductions of
    # their columns: max|rho|, max|u_i| and the line sums of |rho|^q.
    orders = (1.5, 2.0, 4.0)
    half = spectrum[..., :n]

    def reductions(columns):
        rho_max, sums = _line_powers(half[0, ..., columns], orders)
        return rho_max, [np.max(np.abs(v)) for v in half[1:, ..., columns]], sums

    rho_max, u_max, sums = zip(*_fft_slabs(half, range(1, N), inverse=True, split=N,
                                           after=reductions))
    maxima = np.max(np.column_stack([rho_max, u_max]), axis=0)  # NaN propagates
    # a finite maximum proves a field finite, so the fields are not scanned again
    if not np.all(np.isfinite(maxima)):
        raise GridError("grid field contains non-finite values")
    rho_vals, *u_vals = half

    # Boundary defects of the assembled field.
    u_scale = max(float(np.max(maxima[1:])), 1e-300)
    boundary_u = max(float(np.max(np.abs(v[..., 0]))) for v in u_vals) / u_scale
    # d_N rho(0) must equal -g.  The whole-space part has d_N R(0) = 0, so
    # the profile part carries it all: d_N rho_corr(0) = -g.  The defect is
    # relative to g; for g = 0 it is relative to the profile terms whose sum
    # d_N rho_corr(0) is, which bound its rounding.
    dn_rho0 = tangential_fft(dn_rho_corr_hat, tuple(range(N - 1)), inverse=True)
    g_scale = float(np.max(np.abs(g_trace))) \
        or max(dn_term_sum / len(batch), 1e-300)
    boundary_g = float(np.max(np.abs(dn_rho0 + g_trace))) / g_scale

    report = FieldSolveReport(
        whole_space_residuals=ws_res,
        correction_residual_max=float(worst[k]),
        correction_residual_index=corr_index,
        correction_residual_equation=corr_equation,
        boundary_u_max=boundary_u,
        boundary_g_residual=boundary_g,
        un_trace_ratio=un_trace_ratio,
        norms={f"l{q:g}": _norm(np.sum(np.concatenate(line_sums, axis=-1)), spec, q)
               for q, line_sums in zip(orders, zip(*sums))},
    )
    rho_field = GridField._of_finite(rho_vals, spec, "density")
    u_fields = [GridField._of_finite(v, spec, "velocity_component") for v in u_vals]
    return rho_field, u_fields, report


# ---------------------------------------------------------------------------
# Separable analytic fields (rank-T CP tensors): manufactured solutions, N >= 2
# ---------------------------------------------------------------------------


class PolyGauss:
    """q(x) * exp(-(x/width)^2), q a polynomial; closed under differentiation."""

    def __init__(self, coeffs, width=1.0, center=0.0):
        self.poly = np.polynomial.Polynomial(np.asarray(coeffs, dtype=float))
        self.width = float(width)
        if not 0.0 < self.width < math.inf:  # NaN fails too
            raise DomainError(f"PolyGauss width must be finite and positive, got {width!r}")
        self.center = float(center)

    def __call__(self, x):
        s = np.asarray(x, dtype=float) - self.center
        return self.poly(s) * np.exp(-((s / self.width) ** 2))

    def derivative(self):
        # (q e^{-s^2/w^2})' = (q' - (2 s / w^2) q) e^{-s^2/w^2}
        q = self.poly
        shift = np.polynomial.Polynomial([0.0, 2.0 / self.width**2])
        return PolyGauss((q.deriv() - shift * q).coef, self.width, self.center)


class SepField:
    """Sum of T terms a * prod_axis factor(x_axis), a rank-T CP tensor; exact derivatives."""

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
        """The terms summed on the grid of `axis_coords`, as one matrix product.

        Each axis's T factors form an (n_axis, T) matrix.  The row-wise
        Kronecker (Khatri-Rao) product of the coefficients and every axis but
        the last, times the last axis's matrix, is the only full-grid array.
        """
        shape = tuple(len(c) for c in axis_coords)
        if not self.terms:
            return np.zeros(shape, dtype=complex)
        mats = [np.stack([fs[i](x) for _, fs in self.terms], axis=1)
                for i, x in enumerate(axis_coords)]
        lead = np.array([[a for a, _ in self.terms]], dtype=complex)
        for m in mats[:-1]:
            lead = (lead[:, None, :] * m[None, :, :]).reshape(-1, len(self.terms))
        return (lead @ mats[-1].T).reshape(shape)

    def sample_trace(self, axis_coords):
        """Sample at x_N = 0 over the tangential axes only."""
        coords = list(axis_coords) + [np.array([0.0])]
        return self.sample(coords)[..., 0]


def manufactured_solution(params: FluidParams, spec: GridSpec, lam,
                          rho_amplitude=1.0, g_amplitude=0.3, bump_width=0.25,
                          rough_width=None):
    """A smooth manufactured half-space solution honoring u = 0 on the boundary.

    Built for any N = spec.dim >= 2.  Every datum extends across x_N = 0
    without a jump: the normal force component has zero trace (its odd
    extension stays continuous) and the remaining extensions kink only in
    higher derivatives.  The density is p(x_N) G(x') + r(x_N) lap' G(x'),
    with G a product of Gaussian bumps and lap' the tangential Laplacian,
    p'(0) = c1, p'''(0) = 0, r'(0) = 0 and r'''(0) = -c1, which makes
    d_N(lap rho) vanish on the interface (killing the capillary term in the
    normal-force trace) while keeping the boundary datum g = -d_N rho(.,0)
    = -c1 G(x') nonzero.  u_j = bump_j(x') (x_N^2 + 0.35 x_N^3) e^{-x_N^2}
    for j < N and u_N = bump_N(x') x_N e^{-x_N^2}.  All tangential factors
    are Gaussian bumps so the box-edge decay validation applies.

    Returns dict with SepField objects (rho, u, d, f) plus sampled GridFields
    and the g trace.  `rough_width`, if set, narrows the tangential bump of
    u_1 so that tangential resolution dominates the recovery error.
    """
    N = spec.dim
    mu, nu, kappa = params.mu, params.nu, params.kappa
    lam = complex(lam)
    ell = spec.box_half_length

    def bump(width, center):
        # one factor per tangential axis, centred at +-center*ell in turn
        return [PolyGauss([1.0], width=width, center=(-1) ** j * center * ell)
                for j in range(N - 1)]

    c1 = g_amplitude
    g_bump = bump(0.13 * ell, 0.1)
    p_rho = PolyGauss([rho_amplitude, c1, 0.0, c1], width=1.0)
    r_rho = PolyGauss([0.0, 0.0, 0.0, -c1 / 6.0], width=1.0)
    rho = SepField.product(g_bump + [p_rho]) \
        + SepField.product(g_bump + [r_rho]).laplacian(N - 1)

    w1 = rough_width if rough_width is not None else bump_width
    u = [SepField.product(bump(w1 if j == 0 else bump_width, -0.2 + 0.25 * j)
                          + [PolyGauss([0.0, 0.0, 1.0, 0.35], width=1.0)])
         for j in range(N - 1)]
    u.append(SepField.product(bump(bump_width, 0.15) + [PolyGauss([0.0, 1.0], width=1.0)]))

    div_u = sum((u[i].d(i) for i in range(1, N)), u[0].d(0))
    d = rho.scaled(lam) + div_u
    f = []
    for i in range(N):
        f_i = u[i].scaled(lam) \
            + u[i].laplacian(N).scaled(-mu) \
            + div_u.d(i).scaled(-nu) \
            + rho.laplacian(N).d(i).scaled(-kappa)
        f.append(f_i)

    coords = [spec.tangential_coords()] * (N - 1) + [spec.vertical_coords()]
    fields = {
        "rho": GridField(rho.sample(coords), spec, "density"),
        "u": [GridField(u[i].sample(coords), spec, "velocity_component") for i in range(N)],
        "d": GridField(d.sample(coords), spec, "datum"),
        "f": [GridField(f[i].sample(coords), spec, "datum") for i in range(N)],
        "g_trace": -rho.d(N - 1).sample_trace(coords[:-1]),
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
