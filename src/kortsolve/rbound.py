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
mode and vertical ones differentiate the exponential profiles.  A lift takes
all active modes of a family member in one array pass (`_profile_verticals`).
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, GridError
from .fields import (GridField, GridSpec, _wavenumber_mesh, lattice_modes, tangential_fft,
                     vertical_spectral_derivative, whole_space_reduction)
from .modes import BoundaryTrace, solve_mode
from .profiles import VerticalProfile
from .spectral import FluidParams, TangentialMode


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


@dataclass
class ModeField:
    """Field supported on a few tangential lattice modes with profile verticals."""

    modes: dict  # index tuple -> VerticalProfile
    spec: GridSpec


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


def _lift_rows(derivative, lam, dim: int, kind: str):
    """Rows of one field's lift, given `derivative(axes_tuple)` of that field.

    Kind 'S0' is the third-order lift (grad^3, lam^(1/2) grad^2, lam grad,
    lam^(3/2)), kind 'T' the second-order lift (grad^2, lam^(1/2) grad, lam).
    """
    sqrt_lam = np.sqrt(lam)
    if kind == "S0":
        weights = ((3, 1.0), (2, sqrt_lam), (1, lam), (0, lam * sqrt_lam))
    elif kind == "T":
        weights = ((2, 1.0), (1, sqrt_lam), (0, lam))
    else:
        raise DomainError(f"unknown lift kind {kind!r}")
    return [w * derivative(t) for order, w in weights for t in derivative_tuples(order, dim)]


def _lift_vertical(verticals, lam, xi, dim: int, kind: str):
    """Lift rows of fields given by their vertical derivatives, concatenated.

    verticals[i][k] is d^k/dx_N^k of field i for k up to the lift's order
    (3 for kind 'S0', 2 for kind 'T'); `_tangential_derivative` gives the
    shapes for one mode and for many.
    """
    rows = []
    for vertical in verticals:
        rows += _lift_rows(lambda t: _tangential_derivative(vertical, t, xi), lam, dim, kind)
    return rows


def _lift_orders(kind: str) -> int:
    """Number of vertical derivative orders a lift reads: 0..3 or 0..2."""
    return 4 if kind == "S0" else 3


def _lift_batch(batch, lam, spec: GridSpec, kind: str):
    """Lift rows (n_comp, M, n_z) of every mode of a ModeBatch.

    Kind 'S0' lifts the density, kind 'T' the velocity components.  Each
    vertical derivative is a coefficient transform, and all of them are
    evaluated on one shared exponential basis.
    """
    n_orders = _lift_orders(kind)
    components = [0] if kind == "S0" else range(1, spec.dim + 1)
    coeffs = np.stack([batch.derivative(v)[c] for c in components for v in range(n_orders)])
    values = batch.evaluate(spec.vertical_coords(), coeffs)
    verticals = [values[i:i + n_orders] for i in range(0, len(values), n_orders)]
    return np.array(_lift_vertical(verticals, complex(lam), batch.xi, spec.dim, kind))


def _times(a, b):
    """a * b rounded as numpy's scalar complex product.

    numpy's array kernel for complex products may fuse a multiply with an
    add, so it rounds differently from the scalar `-c * t` of
    `VerticalProfile.differentiate`.  Written out in float arithmetic,
    (ar br - ai bi) + i (ar bi + ai br), the product rounds like the scalar.
    """
    a, b = np.broadcast_arrays(a, b)
    out = np.empty(a.shape, dtype=complex)
    out.real = a.real * b.real - a.imag * b.imag
    out.imag = a.real * b.imag + a.imag * b.real
    return out


def _profile_verticals(fields, x, n_orders):
    """d^v/dx^v of every field's profile at every mode on x, v < n_orders.

    fields[i][k] is field i's VerticalProfile at mode k.  Returns
    (F, n_orders, M, len(x)), equal bit for bit to evaluating
    `differentiate(v)` of each profile: the profiles are padded into
    (F, M, T) coefficient, power and rate arrays (zero coefficient, power 0
    and rate 0 in the padding, so x**0 stays finite at x = 0), order v holds
    the terms of `differentiate(v)` in its order (each term's descendants in
    place, with zero coefficients where a power would drop below 0), and
    every order is summed term by term on the one basis e^{-rate x}.
    """
    x = np.asarray(x, dtype=float)
    n_terms = max([len(p) for row in fields for p in row], default=0) or 1
    shape = (len(fields), len(fields[0]), n_terms)
    coeffs = np.zeros(shape, dtype=complex)
    powers = np.zeros(shape, dtype=int)
    rates = np.zeros(shape, dtype=complex)
    lengths = np.zeros(shape[:2] + (1,), dtype=int)
    for i, row in enumerate(fields):
        for k, p in enumerate(row):
            coeffs[i, k, :len(p)], powers[i, k, :len(p)], rates[i, k, :len(p)] = \
                p.coeffs, p.powers, p.rates
            lengths[i, k] = len(p)

    top = int(powers.max(initial=0))
    # rows x**m, m <= top, then x * x: `evaluate` takes x**m through pow, but
    # numpy squares x for a one-term profile, and the two can differ in the last bit
    x_powers = np.concatenate([x[None, :] ** np.arange(top + 1)[:, None], (x * x)[None]])
    power_rows = np.where((lengths == 1) & (powers == 2), top + 1, powers)[..., None]
    basis = np.ones(shape + (1, x.size), dtype=complex)  # (F, M, T, 1, n)
    real = np.arange(n_terms) < lengths
    basis[real] = np.exp(-rates[real][:, None, None] * x)
    out = np.empty((shape[0], n_orders, shape[1], x.size), dtype=complex)
    # c, p (F, M, T, S): the current order's terms, S slots per input term;
    # slot s descends from its term through n_down[s] power-lowering steps
    c, p, n_down = coeffs[..., None], powers[..., None], np.zeros(1, dtype=int)
    for v in range(n_orders):
        if v:
            # c x^p e^{-tx} -> (-c t) x^p e^{-tx} + (c p) x^(p-1) e^{-tx}
            c = np.stack([_times(-c, rates[..., None]), c * p], axis=-1).reshape(
                c.shape[:-1] + (-1,))
            p = np.stack([p, p - 1], axis=-1).reshape(c.shape)
            n_down = np.stack([n_down, n_down + 1], axis=-1).ravel()
            keep = n_down <= top
            c, p, n_down = c[..., keep], p[..., keep], n_down[keep]
            power_rows = np.maximum(p, 0)
        terms = (c[..., None] * x_powers[power_rows] * basis).reshape(
            shape[:2] + (-1, x.size))
        acc = out[:, v]
        acc[...] = terms[:, :, 0]
        for j in range(1, terms.shape[2]):
            acc += terms[:, :, j]
    return out


def _lift_modes(active, fields, lam, spec: GridSpec, kind: str) -> LiftedTuple:
    """LiftedTuple of the lift of `fields` (fields[i][k] at mode active[k]).

    Kind 'S0' lifts the one field to third order, kind 'T' concatenates the
    second-order lift of each field.  All modes are lifted in one pass.
    """
    values = _profile_verticals(fields, spec.vertical_coords(), _lift_orders(kind))
    rows = _lift_vertical(values, complex(lam), _frequencies(spec, active), spec.dim, kind)
    return LiftedTuple(_per_mode(active, rows), spec, len(fields) * lift_arity(kind, spec.dim))


def _frequencies(spec: GridSpec, active):
    """(M, N-1) tangential frequencies of the lattice indices in `active`."""
    ks = spec.tangential_wavenumbers()
    return np.array([[ks[i] for i in index] for index in active],
                    dtype=float).reshape(len(active), spec.dim - 1)


def _per_mode(active, rows):
    """{active[k]: (n_comp, n_z) block of mode k} from n_comp rows of shape (M, n_z)."""
    return dict(zip(active, np.stack(rows, axis=1)))


def lift_boundary_data(data, lam) -> LiftedTuple:
    """The trace lift (T_lam g, T_lam h_1, ..., T_lam h_{N-1})."""
    g, hs = data
    active = list(set(g.modes) | set().union(*(set(h.modes) for h in hs)))
    zero = VerticalProfile.zero()
    fields = [[c.modes.get(index, zero) for index in active] for c in (g, *hs)]
    return _lift_modes(active, fields, lam, g.spec, "T")


# ---------------------------------------------------------------------------
# Operator families
# ---------------------------------------------------------------------------


class IdentityFamily:
    """T(lambda) = identity on the lifted input; the probe must report 1."""

    name = "identity"

    def apply(self, lam, data):
        return lift_boundary_data(data, lam)

    def input_lift(self, lam, data):
        return lift_boundary_data(data, lam)


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

    def apply(self, lam, data):
        g, hs = data
        spec = g.spec
        active = list(set(g.modes) | set().union(*(set(h.modes) for h in hs)))
        solutions = []
        for index, xi in zip(active, _frequencies(spec, active)):
            mode = TangentialMode(xi=xi, lam=lam, dim=spec.dim)
            g_hat = g.modes[index].value_at_zero() if index in g.modes else 0.0
            h_hat = np.array([h.modes[index].value_at_zero() if index in h.modes else 0.0
                              for h in hs])
            solutions.append(solve_mode(self.params, mode, BoundaryTrace(g_hat, h_hat)))
        if self.kind == "A2":
            return _lift_modes(active, [[s.rho for s in solutions]], lam, spec, "S0")
        fields = [[s.u[J] for s in solutions] for J in range(spec.dim)]
        return _lift_modes(active, fields, lam, spec, "T")

    def input_lift(self, lam, data):
        return lift_boundary_data(data, lam)


class LiftedDense:
    """Dense lifted tuple (n_comp, *tangential, n_z) for the full-data families."""

    def __init__(self, values, spec: GridSpec):
        self.values = np.asarray(values, dtype=complex)
        self.spec = spec

    def scaled(self, c):
        return LiftedDense(c * self.values, self.spec)

    def __add__(self, other):
        return LiftedDense(self.values + other.values, self.spec)

    def inner(self, other) -> complex:
        return complex(np.vdot(other.values, self.values) * self.spec.cell_volume())

    def norm(self, q: float = 2.0) -> float:
        if q == 2.0:
            return math.sqrt(max(self.inner(self).real, 0.0))
        return float((np.sum(np.abs(self.values) ** q) * self.spec.cell_volume()) ** (1.0 / q))


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


def lift_full_data(data, lam) -> LiftedTuple:
    """The data lift (grad d, lam^(1/2) d, f, grad^2 g, lam^(1/2) grad g, lam g)."""
    d, f, g = data
    spec = d.spec
    lam = complex(lam)
    dim = spec.dim
    active = list(set(d.modes) | set(g.modes) | set().union(*(set(c.modes) for c in f)))
    xi = _frequencies(spec, active)
    zero = VerticalProfile.zero()
    fields = [[c.modes.get(index, zero) for index in active] for c in (d, g, *f)]
    vd, vg, *vf = _profile_verticals(fields, spec.vertical_coords(), 3)
    rows = [_tangential_derivative(vd, t, xi) for t in derivative_tuples(1, dim)]
    rows.append(np.sqrt(lam) * vd[0])
    rows += [v[0] for v in vf]
    rows += _lift_vertical([vg], lam, xi, dim, "T")
    n_comp = dim + 1 + dim + dim * dim + dim + 1
    return LiftedTuple(_per_mode(active, rows), spec, n_comp)


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

    def input_lift(self, lam, data):
        return lift_full_data(data, lam)

    def apply(self, lam, data):
        d, f, g = data
        spec = d.spec
        lam = complex(lam)
        dim = spec.dim

        def synthesize(mode_field):
            hat = np.zeros(spec.tangential_shape + (spec.n_vertical,), dtype=complex)
            x = spec.vertical_coords()
            for k, p in mode_field.modes.items():
                hat[(*k, slice(None))] = p.evaluate(x)
            return tangential_fft(hat, tuple(range(dim - 1)), inverse=True)

        spectrum, _, g_hat, h_hat = whole_space_reduction(
            self.params, GridField(synthesize(d), spec),
            [GridField(synthesize(c), spec) for c in f], synthesize(g)[..., 0], lam)
        batch = lattice_modes(self.params, spec, g_hat, h_hat, lam)
        kind_lift = "S0" if self.kind == "A" else "T"

        # whole-space part lift, in the tangential spectrum the solve leaves
        # it in: one parity derivative per vertical order (it acts along x_N
        # only), tangential derivatives as i*xi multipliers
        k_t = _wavenumber_mesh(spec)[:dim - 1]

        def lift(values, parity):
            v_hat = [vertical_spectral_derivative(values, spec, v, parity) if v else values
                     for v in range(_lift_orders(kind_lift))]

            def derivative(axes_tuple):
                factor = 1.0
                for ax in axes_tuple:
                    if ax < dim - 1:
                        factor = factor * (1j * k_t[ax])
                return factor * v_hat[axes_tuple.count(dim - 1)]

            return _lift_rows(derivative, lam, dim, kind_lift)

        n = spec.n_vertical
        if self.kind == "A":
            rows = lift(spectrum[0, ..., :n], "even")
        else:
            rows = [r for J in range(dim)
                    for r in lift(spectrum[1 + J, ..., :n], "even" if J < dim - 1 else "odd")]
        # plus the correction lift from exact profile derivatives, all modes in
        # one pass, then one inverse tangential FFT of the sum
        hat = np.array(rows)
        hat += _lift_batch(batch, lam, spec, kind_lift).reshape(hat.shape)
        return LiftedDense(tangential_fft(hat, tuple(range(1, dim)), inverse=True,
                                          overwrite_x=True), spec)


class LogDerivativeFamily:
    """Central-difference realization of lambda d/dlambda of a family.

    Member at lambda maps data to (T((1+h)lam) - T((1-h)lam)) / (2h); the
    input lift stays at the base lambda.
    """

    def __init__(self, base, rel_step: float = 1e-3):
        if not (1e-6 <= rel_step <= 1e-2):
            raise DomainError("rel_step must lie in [1e-6, 1e-2]")
        self.base = base
        self.rel_step = rel_step
        self.name = f"d_{getattr(base, 'name', 'family')}"

    def apply(self, lam, data):
        h = self.rel_step
        lam = complex(lam)
        plus = self.base.apply((1.0 + h) * lam, data)
        minus = self.base.apply((1.0 - h) * lam, data)
        return (plus + minus.scaled(-1.0)).scaled(1.0 / (2.0 * h))

    def input_lift(self, lam, data):
        return self.base.input_lift(lam, data)


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
    `lambda_args`.  q is the spatial grid-norm exponent (2 uses the exact
    Hilbert-space path).
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
        if self.m < 1 or self.trials < 50:
            raise DomainError("need m >= 1 and trials >= 50")


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
    """Low lattice modes, each with two terms c x_N^power e^{-rate x_N}."""
    n = spec.n_tangential
    band = max(2, n // 4)
    modes = {}
    for _ in range(modes_per_field):
        index = tuple(int(rng.integers(-band, band + 1)) % n for _ in range(spec.dim - 1))
        terms = []
        for _ in range(2):
            c = complex(rng.normal(), rng.normal())
            rate = rate_scale * complex(rng.uniform(0.5, 2.5), rng.uniform(-0.5, 0.5))
            terms.append((c, power, rate))
        prof = VerticalProfile(terms)
        modes[index] = modes[index] + prof if index in modes else prof
    return ModeField(modes, spec)


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
    den_mean = float(np.mean(den))
    if den_mean <= 0.0:
        raise DomainError("degenerate randomized-sum denominator")
    return math.sqrt(float(np.mean(num)) / den_mean)


def estimate_rbound(family, config: ProbeConfig, spec: GridSpec | None = None,
                    sampler=sample_boundary_data) -> ProbeReport:
    """Estimate randomized-sum ratios of `family` across lambda decades.

    The solution operators are quasi-homogeneous under (xi, lambda) ->
    (r xi, r^2 lambda), so each decade is probed on a grid rescaled by the
    decade's |lambda|^(1/2): box and cutoff shrink by that factor and the
    sampled vertical rates grow with it.  Per-decade ratios of a uniformly
    bounded family are then comparable by construction, and systematic
    growth across decades is the probe's falsification signal.
    """
    base = spec or probe_grid()
    lo, hi = config.decades
    n_dec = int(round(math.log10(hi / lo)))
    if n_dec < 1:
        raise GridError("decades must span at least one factor of 10")
    root = np.random.SeedSequence(config.rng_seed)
    decade_seeds = root.spawn(n_dec)

    decade_ratios = {}
    all_ratios = []
    redraws = 0
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
            ys, xs = [], []
            while len(ys) < config.m:
                mag = d_lo * 10.0 ** rng.uniform(0.0, 1.0)
                arg = rng.choice(config.lambda_args)
                lam = mag * complex(math.cos(arg), math.sin(arg))
                data = sampler(rng, dspec, config.modes_per_field, rate_scale=sigma)
                x = family.input_lift(lam, data)
                if x.norm(config.q) == 0.0:
                    redraws += 1
                    continue
                ys.append(family.apply(lam, data))
                xs.append(x)
            signs = rng.integers(0, 2, size=(config.trials, config.m)) * 2.0 - 1.0
            ratio = _ratio_from_tuples(ys, xs, signs, config.q)
            all_ratios.append(ratio)
            best = max(best, ratio)
        decade_ratios[label] = best
    return ProbeReport(family=getattr(family, "name", "family"), q=config.q,
                       m=config.m, trials=config.trials, decade_ratios=decade_ratios,
                       global_max=max(decade_ratios.values()), redraws=redraws,
                       all_ratios=all_ratios)
