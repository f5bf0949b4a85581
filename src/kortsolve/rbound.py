"""Monte-Carlo probe of the randomized boundedness of solution-operator families.

An operator family {T(lambda)} is randomized-bounded when for every finite
selection T_1..T_m and inputs f_1..f_m the Rademacher averages satisfy

    E || sum_j r_j T_j f_j ||^2  <=  C^2  E || sum_j r_j f_j ||^2

with C independent of m and of the selection (realized here with exponent 2;
the property is exponent-independent).  The probe draws family members
across lambda decades, applies them to random band-limited boundary data,
and reports the empirical ratio per decade.  It is a necessary-condition
check: growing ratios falsify uniform boundedness, stable ratios prove
nothing.

Inputs and outputs are measured in the lifted tuples the theory pairs with
the operators: the output of the density solver is measured as
(grad^3 rho, lam^(1/2) grad^2 rho, lam grad rho, lam^(3/2) rho), the output
of the velocity solver as (grad^2 u, lam^(1/2) grad u, lam u), and boundary
data (g, h') through the same second-order lift applied per component.  All
derivatives are exact: tangential ones act as i*xi multipliers per lattice
mode and vertical ones differentiate the exponential profiles.

Sampled data (`ModeField`), mode solutions and boundary corrections are all
coefficient arrays in the `ModeBatch` layout, and one engine lifts them:
`modes._derivative` differentiates, and `modes.evaluate_profiles` evaluates.
A family takes a draw of m members: `input_lift(lams, datas)` and
`apply(lams, datas)` return one `LiftedTuple` per member, in member order.
`_draw` lays a draw out once, one row per field and draw mode, and one pass
evaluates every order of every row straight into that layout; each mode is
lifted at its member's lambda into one buffer.  A reduced family solves the
draw's modes in one `modes.solve_modes` call per apply pass; a full family's
tuples hold every lattice mode.  Inside `estimate_rbound` each draw's
buffers are reused by the next draw; tuples from direct calls own theirs.
"""

from __future__ import annotations

import contextvars
import functools
import itertools
import json
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, GridError
from .fields import (GridField, GridSpec, lattice_modes, tangential_fft,
                     vertical_spectral_derivative, whole_space_reduction)
from .modes import _derivative, evaluate_profiles, solve_modes
from .modes import solve_mode  # noqa: F401  (perfbench/tests looks it up on this module)
from .spectral import FluidParams


def derivative_tuples(order: int, dim: int):
    """Canonical enumeration of ordered derivative multi-tuples."""
    return list(itertools.product(range(dim), repeat=order))


def lift_arity(kind: str, dim: int) -> int:
    n = dim
    if kind == "S0":
        return n**3 + n**2 + n + 1
    if kind == "T":
        return n**2 + n + 1
    raise DomainError(f"unknown lift kind {kind!r}")


# ---------------------------------------------------------------------------
# Sparse mode-profile fields and lifted tuples
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class ModeField:
    """Field on a few tangential lattice modes, in `ModeBatch`'s profile layout.

    Mode k sits at the lattice index `index[k]` (`index` (M, N-1), distinct
    rows) and has the vertical profile sum_{r,p} coeffs[k, r, p] x_N^p
    e^{-rates[k, r] x_N} (`rates` (M, R), `coeffs` (M, R, P)).  A mode with
    fewer than R terms carries zero coefficients on copies of one of its own
    rates, so its decay support does not change.
    """

    index: np.ndarray
    rates: np.ndarray
    coeffs: np.ndarray
    spec: GridSpec

    def indices(self) -> list:
        """The lattice indices as tuples, in mode order."""
        return [tuple(row) for row in self.index.tolist()]


def _stacked(parts):
    """Concatenate (rates (M_i, R_i), coeffs (..., M_i, R_i, P_i)) along the mode axis.

    Every part is padded to the largest R and P with zero coefficients, on
    copies of each mode's last rate.
    """
    n_rates = max(r.shape[1] for r, _ in parts)
    n_powers = max(c.shape[-1] for _, c in parts)
    rates = np.concatenate([np.concatenate([r] + [r[:, -1:]] * (n_rates - r.shape[1]), axis=1)
                            for r, _ in parts])
    coeffs = np.zeros(parts[0][1].shape[:-3] + (len(rates), n_rates, n_powers), dtype=complex)
    start = 0
    for _, c in parts:
        coeffs[..., start:start + c.shape[-3], :c.shape[-2], :c.shape[-1]] = c
        start += c.shape[-3]
    return rates, coeffs


class LiftedTuple:
    """A tuple of derived fields, stored per active tangential mode.

    modes: dict index -> complex array (n_comp, n_z).  The l2 norm agrees
    with the dense grid norm by discrete Parseval over the tangential axes.
    """

    def __init__(self, modes, spec: GridSpec, n_comp: int):
        self.modes = modes
        self.spec = spec
        self.n_comp = n_comp

    def scaled(self, c):
        return LiftedTuple({k: c * v for k, v in self.modes.items()}, self.spec, self.n_comp)

    def __add__(self, other):
        out = {k: v.copy() for k, v in self.modes.items()}
        for k, v in other.modes.items():
            if k in out:
                out[k] = out[k] + v
            else:
                out[k] = v.copy()
        return LiftedTuple(out, self.spec, self.n_comp)

    def difference_in_place(self, other, c):
        """self <- c (self - other), for a tuple `other` of the same modes."""
        for k, v in self.modes.items():
            np.subtract(v, other.modes[k], out=v)
            v *= c
        return self

    def inner(self, other) -> complex:
        """Hilbert inner product matching the q = 2 grid norm."""
        w = self.spec.cell_volume() / self.spec.n_tangential ** (self.spec.dim - 1)
        acc = 0.0 + 0.0j
        for k, v in self.modes.items():
            o = other.modes.get(k)
            if o is not None:
                acc += np.vdot(o, v)
        return acc * w

    def norm(self, q: float = 2.0) -> float:
        if q == 2.0:
            return math.sqrt(max(self.inner(self).real, 0.0))
        dense = self.synthesize()
        vol = self.spec.cell_volume()
        return float((np.sum(np.abs(dense) ** q) * vol) ** (1.0 / q))

    def synthesize(self):
        """Dense (n_comp, *tangential, n_z) array via inverse tangential FFT."""
        spec = self.spec
        shape = (self.n_comp,) + spec.tangential_shape + (spec.n_vertical,)
        hat = np.zeros(shape, dtype=complex)
        for k, v in self.modes.items():
            hat[(slice(None), *k, slice(None))] = v
        return tangential_fft(hat, tuple(range(1, spec.dim)), inverse=True)


def _tangential_derivative(vertical, axes_tuple, xi):
    """Exact d^axes_tuple of v(x_N) e^{i xi.x'}, given vertical[k] = d^k v / dx_N^k.

    Tangential axes (index < N - 1) act as i*xi multipliers and the normal
    axis picks the vertical derivative.  xi is (N-1,) for one mode, with
    vertical arrays (n_z,), or (M, N-1) for M modes, with arrays (M, n_z).
    """
    factor = 1.0 + 0.0j
    v_order = 0
    for ax in axes_tuple:
        if ax < xi.shape[-1]:
            factor = factor * (1j * xi[..., ax])
        else:
            v_order += 1
    return np.asarray(factor)[..., None] * vertical[v_order]


# Number of vertical derivative orders a lift reads: 0..3 or 0..2.
LIFT_ORDERS = {"S0": 4, "T": 3}


def _lift_weights(lams, counts, kind: str):
    """(derivative order, weight) of each block of a lift, for a draw's modes.

    Kind 'S0' is the third-order lift (grad^3, lam^(1/2) grad^2, lam grad,
    lam^(3/2)), kind 'T' the second-order lift (grad^2, lam^(1/2) grad, lam).
    Member i's scalar weights fill its counts[i] rows of (M, 1) columns.
    """
    n = LIFT_ORDERS[kind]
    lams = [complex(lam) for lam in lams]
    scalars = [(1.0, s, lam, lam * s)[:n] for lam, s in zip(lams, map(np.sqrt, lams))]
    columns = np.repeat(np.array(scalars, dtype=complex).reshape(len(scalars), n), counts, axis=0)
    return [(n - 1 - j, columns[:, j:j + 1]) for j in range(n)]


# The draw workspace.  `estimate_rbound` sets one, and the lift buffers of
# each draw are handed out from it in call order, to be reused by the next
# draw once the last one's ratio is taken.  Outside the driver a lift's
# arrays are its own, so a tuple it returns is never overwritten.
_WORKSPACE = contextvars.ContextVar("kortsolve_rbound_workspace", default=None)


class _Workspace:
    """Grown 1-D complex buffers, handed out in order from `taken` = 0 at each draw."""

    def __init__(self):
        self.buffers, self.taken = [], 0

    def take(self, shape):
        size = math.prod(shape)
        if self.taken == len(self.buffers):
            self.buffers.append(np.empty(0, dtype=complex))
        if self.buffers[self.taken].size < size:
            # a quarter's headroom, so that most later draws fit
            self.buffers[self.taken] = np.empty(size + size // 4, dtype=complex)
        self.taken += 1
        return self.buffers[self.taken - 1][:size].reshape(shape)


def _draw_empty(shape):
    """An uninitialized complex array of a draw, from the workspace if one is set."""
    workspace = _WORKSPACE.get()
    return np.empty(shape, dtype=complex) if workspace is None else workspace.take(shape)


def _draw_zeros(shape):
    """A zeroed complex array of a draw, from the workspace if one is set."""
    if _WORKSPACE.get() is None:
        return np.zeros(shape, dtype=complex)
    out = _draw_empty(shape)
    out.fill(0.0)
    return out


def _lift_vertical(verticals, weights, xi, dim: int, out=None):
    """Lift rows of fields given by their vertical derivatives, in out (M, rows, n_z).

    verticals[i][k] (M, n_z) is d^k/dx_N^k of field i at the modes of
    frequencies xi (M, N-1), for k up to the lift's order; `weights` come
    from `_lift_weights`.  Field i's rows follow field i-1's.
    """
    if out is None:
        n_rows = len(verticals) * sum(dim**order for order, _ in weights)
        out = _draw_empty((len(xi), n_rows, verticals[0].shape[-1]))
    r = 0
    for vertical in verticals:
        for order, w in weights:
            for t in derivative_tuples(order, dim):
                np.multiply(w, _tangential_derivative(vertical, t, xi), out=out[:, r])
                r += 1
    return out


def _verticals(rates, coeffs, x, n_orders, zeros=_draw_zeros):
    """d^v/dx^v, v < n_orders, of the profiles coeffs (C, M, R, P) on rates (M, R) at x.

    Returns (C, n_orders, M, len(x)) in a complex array from `zeros(shape)`,
    a draw's by default.  Each derivative is a coefficient transform
    (`modes._derivative`), and all of them are evaluated in one
    `evaluate_profiles` pass, inside each mode's decay support.
    """
    orders = [coeffs]
    for _ in range(1, n_orders):
        orders.append(_derivative(orders[-1], -rates, 1))
    orders = np.stack(orders, axis=1)
    return evaluate_profiles(rates, orders, x, out=zeros(orders.shape[:-2] + (len(x),)))


def _active(lead, rest):
    """The union of a family member's lattice indices, as a list.

    Its order, that of set(lead[0]) | ... | set(lead[-1]) | set().union(*rest)
    on sets built from dicts (for which set() presizes its table), is the
    order in which `LiftedTuple.inner` sums over modes, so it fixes the
    probe's last bits.
    """
    sets = [set(dict.fromkeys(f.indices())) for f in (*lead, *rest)]
    union = sets[0]
    for indices in sets[1:len(lead)]:
        union = union | indices
    return list(union | set().union(*sets[len(lead):]))


def _draw(members, n_lead):
    """The layout of a draw of members, each F ModeFields whose first n_lead lead `_active`.

    Returns (actives, xi, rates, coeffs, traces): the members' `_active`
    lists, whose concatenation is the draw's M modes, their frequencies xi
    (M, N-1), and one row per field and draw mode, rates (F, M, R) and
    coeffs (F, M, R, P).  A field's row at one of its modes carries its
    rates and coefficients, padded as `_stacked` pads them; a row at a mode
    the field does not carry has zero coefficients.  traces (F, M) are the
    rows' values at x_N = 0, each field's power-0 sums over its own rate
    slots (numpy sums in pairs, so extra zero slots could move a last bit).
    """
    actives = [_active(member[:n_lead], member[n_lead:]) for member in members]
    xi = _frequencies(members[0][0].spec, sum(actives, []))
    starts = np.cumsum([0] + list(map(len, actives))).tolist()
    at = tuple(np.array([(j, start + active.index(index))
                         for member, active, start in zip(members, actives, starts)
                         for j, f in enumerate(member) for index in f.indices()],
                        dtype=int).reshape(-1, 2).T)  # (field, draw mode) of each field mode
    fields = [f for member in members for f in member]
    field_rates, field_coeffs = _stacked([(f.rates, f.coeffs) for f in fields])
    shape = (len(members[0]), len(xi))
    rates = np.ones(shape + field_rates.shape[1:], dtype=complex)
    coeffs = np.zeros(shape + field_coeffs.shape[1:], dtype=complex)
    traces = np.zeros(shape, dtype=complex)
    rates[at], coeffs[at] = field_rates, field_coeffs
    traces[at] = np.concatenate([f.coeffs[:, :, 0].sum(axis=-1) for f in fields])
    return actives, xi, rates, coeffs, traces


def _field_values(rates, coeffs, spec: GridSpec, n_orders):
    """(F, n_orders, M, n_z): d^v/dx_N^v, v < n_orders, of a draw's rows, in one pass."""
    flat = coeffs.reshape((1, -1) + coeffs.shape[2:])
    values = _verticals(rates.reshape(flat.shape[1:3]), flat, spec.vertical_coords(), n_orders)
    return values.reshape((n_orders,) + rates.shape[:2] + (spec.n_vertical,)).swapaxes(0, 1)


def _frequencies(spec: GridSpec, active):
    """(M, N-1) tangential frequencies of the lattice indices in `active`."""
    ks = spec.tangential_wavenumbers()
    return np.array([[ks[i] for i in index] for index in active],
                    dtype=float).reshape(len(active), spec.dim - 1)


def _lifted(actives, rows, spec: GridSpec) -> list:
    """One LiftedTuple per member, holding its modes' blocks of rows (M, n_comp, n_z)."""
    blocks = np.split(rows, np.cumsum([len(active) for active in actives])[:-1])
    return [LiftedTuple(dict(zip(a, b)), spec, rows.shape[1]) for a, b in zip(actives, blocks)]


def lift_boundary_data(lams, datas) -> list:
    """The trace lift (T_lam g, T_lam h_1, ..., T_lam h_{N-1}) of each member of a draw."""
    spec = datas[0][0].spec
    actives, xi, rates, coeffs, _ = _draw([(g, *hs) for g, hs in datas], 1)
    values = _field_values(rates, coeffs, spec, LIFT_ORDERS["T"])
    rows = _lift_vertical(values, _lift_weights(lams, list(map(len, actives)), "T"), xi, spec.dim)
    return _lifted(actives, rows, spec)


# ---------------------------------------------------------------------------
# Operator families
# ---------------------------------------------------------------------------


class IdentityFamily:
    """T(lambda) = identity on the lifted input; the probe must report 1."""

    name = "identity"

    def apply(self, lams, datas):
        return lift_boundary_data(lams, datas)

    def input_lift(self, lams, datas):
        return lift_boundary_data(lams, datas)


class ReducedSolveFamily:
    """The boundary-data solution operators of the reduced problem.

    kind 'A2' measures the density output in the third-order lift; kind 'B2'
    measures the velocity vector in the second-order lift.  The grid is read
    off the data, so the probe driver can rescale it per lambda decade.
    """

    def __init__(self, params: FluidParams, kind: str):
        if kind not in ("A2", "B2"):
            raise DomainError("kind must be 'A2' or 'B2'")
        self.params = params
        self.kind = kind
        self.name = kind

    def apply(self, lams, datas):
        """One `solve_modes` call over every active mode of a draw, lifted in one pass.

        Each mode is solved at its member's lambda, with the bits of its
        scalar `solve_mode`.
        """
        spec = datas[0][0].spec
        actives, xi, _, _, traces = _draw([(g, *hs) for g, hs in datas], 1)
        counts = list(map(len, actives))
        batch = solve_modes(self.params, xi, np.repeat(np.array(lams, dtype=complex), counts),
                            traces[0], traces[1:].T)
        kind, components = ("S0", [0]) if self.kind == "A2" else ("T", range(1, spec.dim + 1))
        values = _verticals(batch.rates, batch.coeffs[components], spec.vertical_coords(),
                            LIFT_ORDERS[kind])
        weights = _lift_weights(lams, counts, kind)
        return _lifted(actives, _lift_vertical(values, weights, xi, spec.dim), spec)

    def input_lift(self, lams, datas):
        return lift_boundary_data(lams, datas)


def sample_full_data(rng, spec: GridSpec, modes_per_field: int = 4, rate_scale: float = 1.0):
    """Random band-limited (d, f, g) interior/boundary data for the full solve.

    The normal force is drawn from x_N e^{-r x_N} terms, so it vanishes on
    the boundary as `fields.whole_space_solve` requires.
    """
    g, hs = sample_boundary_data(rng, spec, modes_per_field, rate_scale)
    d = sample_boundary_data(rng, spec, modes_per_field, rate_scale)[0]
    f = tuple(_draw_mode_field(rng, spec, 1, rate_scale, power=int(i == spec.dim - 1))
              for i in range(spec.dim))
    return (d, f, g)


def lift_full_data(lams, datas) -> list:
    """The data lift (grad d, lam^(1/2) d, f, grad^2 g, lam^(1/2) grad g, lam g) of a draw."""
    spec = datas[0][0].spec
    dim = spec.dim
    actives, xi, rates, coeffs, _ = _draw([(d, g, *f) for d, f, g in datas], 2)
    values = _field_values(rates[:2], coeffs[:2], spec, 3)  # d and g
    forces = _field_values(rates[2:], coeffs[2:], spec, 1)[:, 0]  # f, at order 0 only
    weights = _lift_weights(lams, list(map(len, actives)), "T")
    rows = _draw_empty((len(xi), 2 * dim + 1 + lift_arity("T", dim), spec.n_vertical))
    _lift_vertical(values[:1], [(1, weights[0][1]), (0, weights[1][1])], xi, dim, rows[:, :dim + 1])
    rows[:, dim + 1:2 * dim + 1] = forces.swapaxes(0, 1)
    _lift_vertical(values[1:2], weights, xi, dim, rows[:, 2 * dim + 1:])
    return _lifted(actives, rows, spec)


class FullSolveFamily:
    """Solution operators of the full inhomogeneous problem (kinds 'A', 'B').

    The output lift mixes the two parts of the solution: spectral derivatives
    of the whole-space part (cosine/sine series in x_N, FFT tangentially) and
    exact profile derivatives of the boundary correction.
    """

    def __init__(self, params: FluidParams, kind: str):
        if kind not in ("A", "B"):
            raise DomainError("kind must be 'A' or 'B'")
        self.params = params
        self.kind = kind
        self.name = kind

    def input_lift(self, lams, datas):
        return lift_full_data(lams, datas)

    def apply(self, lams, datas):
        """One evaluation of the draw's data; each member solved on the grid, lifted per mode."""
        spec = datas[0][0].spec
        actives, _, rates, coeffs, _ = _draw([(d, g, *f) for d, f, g in datas], 2)
        values = _field_values(rates, coeffs, spec, 1)[:, 0]
        starts = np.cumsum([0] + list(map(len, actives))).tolist()
        return [self._apply(complex(lam), spec, active, values[:, start:start + len(active)])
                for lam, active, start in zip(lams, actives, starts)]

    def _apply(self, lam, spec, active, values):
        dim = spec.dim
        # the data (d, g, f) on the grid: its values (F, M, n_z) at the
        # member's modes scattered into the tangential spectrum, one inverse FFT
        hat = np.zeros((dim + 2,) + spec.tangential_shape + (spec.n_vertical,), dtype=complex)
        index = np.array(active, dtype=int).reshape(len(active), dim - 1)
        hat[(slice(None), *index.T)] = values
        d_grid, g_grid, *f_grid = tangential_fft(hat, tuple(range(1, dim)), inverse=True,
                                                 overwrite_x=True)
        spectrum, _, g_hat, h_hat = whole_space_reduction(
            self.params, GridField(d_grid, spec), [GridField(c, spec) for c in f_grid],
            g_grid[..., 0], lam)
        batch = lattice_modes(self.params, spec, g_hat, h_hat, lam)

        # the solution's vertical derivatives per lattice mode: exact profile
        # derivatives of the correction plus parity derivatives of the
        # whole-space part, in the tangential spectrum the solve leaves it in
        # (they act along x_N only); then one lift, kept per mode
        kind, components = ("S0", [0]) if self.kind == "A" else ("T", range(1, dim + 1))
        n = spec.n_vertical
        # a member's own array: the workspace holds only what a draw keeps
        verticals = _verticals(batch.rates, batch.coeffs[components], spec.vertical_coords(),
                               LIFT_ORDERS[kind], functools.partial(np.zeros, dtype=complex))
        for vertical, c in zip(verticals, components):
            whole_space = spectrum[c, ..., :n].reshape(len(batch), n)
            parity = "odd" if c == dim else "even"
            for v, out in enumerate(vertical):
                out += vertical_spectral_derivative(whole_space, spec, v, parity) if v \
                    else whole_space
        rows = _lift_vertical(verticals, _lift_weights([lam], [len(batch)], kind), batch.xi, dim)
        return _lifted([list(np.ndindex(spec.tangential_shape))], rows, spec)[0]


class LogDerivativeFamily:
    """Central-difference realization of lambda d/dlambda of a family.

    Member at lambda maps data to (T((1+h)lam) - T((1-h)lam)) / (2h); the
    input lift stays at the base lambda.  The difference is taken in place.
    """

    def __init__(self, base, rel_step: float = 1e-3):
        if not (1e-6 <= rel_step <= 1e-2):
            raise DomainError("rel_step must lie in [1e-6, 1e-2]")
        self.base = base
        self.rel_step = rel_step
        self.name = f"d_{getattr(base, 'name', 'family')}"

    def apply(self, lams, datas):
        h = self.rel_step
        lams = [complex(lam) for lam in lams]
        plus = self.base.apply([(1.0 + h) * lam for lam in lams], datas)
        minus = self.base.apply([(1.0 - h) * lam for lam in lams], datas)
        return [p.difference_in_place(q, 1.0 / (2.0 * h)) for p, q in zip(plus, minus)]

    def input_lift(self, lams, datas):
        return self.base.input_lift(lams, datas)


def lambda_log_derivative(family, rel_step: float = 1e-3) -> LogDerivativeFamily:
    return LogDerivativeFamily(family, rel_step)


# ---------------------------------------------------------------------------
# Data sampling and the probe driver
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ProbeConfig:
    """Monte-Carlo probe controls.

    m family members and `trials` Rademacher draws per ratio; lambda is
    sampled per decade of |lambda| within `decades` at arguments drawn from
    `lambda_args`.  q is the spatial grid-norm exponent, finite and >= 1 so
    that it is a norm (2 uses the exact Hilbert-space path).  Every entry
    of `lambda_args` must be finite with |arg| < pi/2: the right half-plane,
    on which every mode solve is certified.
    """

    m: int = 8
    trials: int = 200
    q: float = 2.0
    decades: tuple = (1e-2, 1e2)
    lambda_args: tuple = (0.0, 1.2, -1.2)
    draws_per_decade: int = 2
    modes_per_field: int = 4
    rng_seed: int = 0

    def __post_init__(self):
        if self.m < 1 or self.trials < 50 or min(self.draws_per_decade, self.modes_per_field) < 1:
            raise DomainError("need m, draws_per_decade, modes_per_field >= 1 and trials >= 50")
        if not (self.lambda_args and math.isfinite(self.q) and self.q >= 1.0):
            raise DomainError(f"need a non-empty lambda_args and a finite q >= 1, got q = {self.q}")
        if not all(abs(arg) < math.pi / 2 for arg in self.lambda_args):
            raise DomainError(f"lambda_args must be finite with |arg| < pi/2, "
                              f"got {self.lambda_args}")


def probe_grid(dim: int = 2, n_tangential: int = 32, vertical_cutoff: float = 40.0,
               n_vertical: int = 192, box_half_length: float = math.pi) -> GridSpec:
    return GridSpec(dim=dim, box_half_length=box_half_length, n_tangential=n_tangential,
                    vertical_cutoff=vertical_cutoff, n_vertical=n_vertical)


def sample_boundary_data(rng, spec: GridSpec, modes_per_field: int = 4,
                         rate_scale: float = 1.0):
    """Random band-limited (g, h') data: low lattice modes x decaying profiles.

    `rate_scale` sets the vertical decay-rate magnitude; the probe driver
    couples it to |lambda|^(1/2) so every decade is exercised in the
    anisotropic scaling regime the operator family lives in.
    """
    g = _draw_mode_field(rng, spec, modes_per_field, rate_scale)
    hs = tuple(_draw_mode_field(rng, spec, modes_per_field, rate_scale)
               for _ in range(spec.dim - 1))
    return (g, hs)


def _draw_mode_field(rng, spec: GridSpec, modes_per_field: int, rate_scale: float,
                     power: int = 0) -> ModeField:
    """Low lattice modes, each draw adding two terms c x_N^power e^{-rate x_N}.

    A redrawn index keeps the terms of every draw, in draw order.
    """
    n = spec.n_tangential
    band = max(2, n // 4)
    terms = {}
    for _ in range(modes_per_field):
        index = tuple(int(rng.integers(-band, band + 1)) % n for _ in range(spec.dim - 1))
        for _ in range(2):
            c = complex(rng.normal(), rng.normal())
            rate = rate_scale * complex(rng.uniform(0.5, 2.5), rng.uniform(-0.5, 0.5))
            terms.setdefault(index, []).append((c, rate))
    rates, coeffs = _stacked([(np.array([[t for _, t in ts]]),
                               np.array([[[0.0] * power + [c] for c, _ in ts]], dtype=complex))
                              for ts in terms.values()])
    return ModeField(np.array(list(terms), dtype=int), rates, coeffs, spec)


@dataclass
class ProbeReport:
    family: str
    q: float
    m: int
    trials: int
    decade_ratios: dict      # decade label -> max ratio over draws
    global_max: float
    redraws: int
    all_ratios: list = field(default_factory=list)

    @property
    def decade_spread(self) -> float:
        vals = list(self.decade_ratios.values())
        return max(vals) / min(vals)

    def to_json(self) -> str:
        return json.dumps({
            "family": self.family,
            "q": self.q,
            "m": self.m,
            "trials": self.trials,
            "per_decade_max_ratio": self.decade_ratios,
            "global_max_ratio": self.global_max,
            "decade_spread": self.decade_spread,
            "redraws": self.redraws,
        }, indent=2, sort_keys=True)


def _ratio_from_tuples(ys, xs, signs, q):
    """Empirical mean-square ratio over sign draws.

    For q = 2 the norms are Hilbertian, so ||sum r_j v_j||^2 = r^T G r with
    the Gram matrix G of the tuples; the Monte-Carlo average is then a cheap
    quadratic form per trial.
    """
    m = len(ys)
    if q == 2.0:
        gy = np.empty((m, m), dtype=complex)
        gx = np.empty((m, m), dtype=complex)
        for a in range(m):
            for b in range(a, m):
                gy[a, b] = ys[a].inner(ys[b])
                gy[b, a] = np.conj(gy[a, b])
                gx[a, b] = xs[a].inner(xs[b])
                gx[b, a] = np.conj(gx[a, b])
        num = np.einsum("tm,mk,tk->t", signs, gy, signs).real
        den = np.einsum("tm,mk,tk->t", signs, gx, signs).real
    else:
        num = np.empty(len(signs))
        den = np.empty(len(signs))
        for t, r in enumerate(signs):
            ysum = ys[0].scaled(r[0])
            xsum = xs[0].scaled(r[0])
            for j in range(1, m):
                ysum = ysum + ys[j].scaled(r[j])
                xsum = xsum + xs[j].scaled(r[j])
            num[t] = ysum.norm(q) ** 2
            den[t] = xsum.norm(q) ** 2
    num_mean, den_mean = float(np.mean(num)), float(np.mean(den))
    if not (math.isfinite(num_mean) and math.isfinite(den_mean) and den_mean > 0.0):
        raise DomainError(f"degenerate randomized-sum means: numerator {num_mean}, "
                          f"denominator {den_mean}")
    return math.sqrt(num_mean / den_mean)


def _draw_ratio(family, config: ProbeConfig, rng, spec: GridSpec, d_lo, sigma, sampler):
    """The ratio of one draw of m members in the decade [d_lo, 10 d_lo), and its redraws.

    Members are drawn in stream order and lifted in one call; those with a
    zero-norm lift are redraws, and only they are drawn again, so the stream
    is that of drawing members one at a time.
    """
    members, redraws = [], 0
    while len(members) < config.m:
        lams, datas = [], []
        for _ in range(config.m - len(members)):
            mag = d_lo * 10.0 ** rng.uniform(0.0, 1.0)
            arg = rng.choice(config.lambda_args)
            lams.append(mag * complex(math.cos(arg), math.sin(arg)))
            datas.append(sampler(rng, spec, config.modes_per_field, rate_scale=sigma))
        drawn = zip(lams, datas, family.input_lift(lams, datas))
        kept = [member for member in drawn if member[2].norm(config.q) != 0.0]
        redraws += len(lams) - len(kept)
        members += kept
    lams, datas, xs = zip(*members)
    signs = rng.integers(0, 2, size=(config.trials, config.m)) * 2.0 - 1.0
    return _ratio_from_tuples(family.apply(lams, datas), xs, signs, config.q), redraws


def estimate_rbound(family, config: ProbeConfig, spec: GridSpec | None = None,
                    sampler=sample_boundary_data) -> ProbeReport:
    """Estimate randomized-sum ratios of `family` across lambda decades.

    The solution operators are quasi-homogeneous under (xi, lambda) ->
    (r xi, r^2 lambda), so each decade is probed on a grid rescaled by the
    decade's |lambda|^(1/2): box and cutoff shrink by that factor and the
    sampled vertical rates grow with it.  Per-decade ratios of a uniformly
    bounded family are then comparable by construction, and systematic
    growth across decades is the probe's falsification signal.  `family`
    takes whole draws (see the module docstring and `_draw_ratio`).
    """
    base = spec or probe_grid()
    lo, hi = config.decades
    n_dec = round(math.log10(hi / lo)) if 0.0 < lo < hi and math.isfinite(hi / lo) else 0
    if n_dec < 1 or not abs(hi / lo / 10.0**n_dec - 1.0) <= 1e-9:
        raise GridError(f"decades must be (lo, hi) with 0 < lo < hi and hi/lo a power of 10 "
                        f">= 10, got {config.decades}")
    root = np.random.SeedSequence(config.rng_seed)
    decade_seeds = root.spawn(n_dec)

    decade_ratios = {}
    all_ratios = []
    redraws = 0
    workspace = _Workspace()
    token = _WORKSPACE.set(workspace)
    try:
        for k in range(n_dec):
            d_lo = lo * 10.0**k
            label = f"[{d_lo:g},{d_lo * 10:g})"
            sigma = math.sqrt(d_lo * math.sqrt(10.0))  # decade-midpoint |lambda|^(1/2)
            dspec = GridSpec(dim=base.dim,
                             box_half_length=base.box_half_length / sigma,
                             n_tangential=base.n_tangential,
                             vertical_cutoff=base.vertical_cutoff / sigma,
                             n_vertical=base.n_vertical)
            rng = np.random.default_rng(decade_seeds[k])
            best = 0.0
            for _ in range(config.draws_per_decade):
                workspace.taken = 0  # the last draw's tuples are spent
                ratio, n = _draw_ratio(family, config, rng, dspec, d_lo, sigma, sampler)
                redraws += n
                all_ratios.append(ratio)
                best = max(best, ratio)
            decade_ratios[label] = best
    finally:
        _WORKSPACE.reset(token)
    return ProbeReport(family=getattr(family, "name", "family"), q=config.q,
                       m=config.m, trials=config.trials, decade_ratios=decade_ratios,
                       global_max=max(decade_ratios.values()), redraws=redraws,
                       all_ratios=all_ratios)
