"""Registry of the boundary-symbol zoo with dual algebraic forms.

Each named symbol is a function of (xi, lambda) built from the characteristic
roots, evaluated on arrays under the one contract of `SymbolSpec`.  Where a
cancellation-free rewriting exists it is wired in as the alternate form; scans
evaluate whichever form is stable and the test suite pins the two forms
against each other.

The module also provides a numerical verifier for the anisotropic multiplier
classes: a symbol of order r with type 1 satisfies

    |d_xi^a (lam d/dlam)^n m|  <=  C (|lambda|^(1/2) + |xi|)^(r - |a|)

for all multi-indices a and n = 0, 1, while type 2 replaces the right-hand
side by C (|lambda|^(1/2)+|xi|)^r |xi|^(-|a|).  The verifier estimates the
constants by central finite differences, one array call per stencil, and
reports them per dyadic band of |lambda|^(1/2)+|xi| so non-uniformity shows.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .errors import CaseMismatchError, DomainError, GridError
from .spectral import Case, FluidParams, ScanGrid, root_arrays

__all__ = [
    "SymbolSpec", "ScanGrid", "make_named_symbol", "verify_symbol_class",
    "asymptotic_check", "SYMBOL_ORDERS", "case1_product_constant",
]


# -- raw and rewritten forms of the named symbols ---------------------------


def _detL_factored(params, xi_sq, lam):
    t1, t2, om = root_arrays(params, xi_sq, lam)
    return (t2 - t1) * (t1 * t2 * om * (t2 + t1) - xi_sq * (t2 * t2 + t1 * t2 + t1 * t1 - xi_sq))


def _cofactor_L(params, xi_sq, lam, which):
    t1, t2, om = root_arrays(params, xi_sq, lam)
    if which == "L11":
        return -t1 * (t2 * om - xi_sq)
    if which == "L12":
        return -(t2 * t2 - xi_sq)
    if which == "L21":
        return t2 * (t1 * om - xi_sq)
    if which == "L22":
        return t1 * t1 - xi_sq
    raise KeyError(which)


def _detL_raw(params, xi_sq, lam):
    """det L = L11 L22 - L12 L21, the definitional 2x2 expansion on the cofactors."""
    L11, L12, L21, L22 = (_cofactor_L(params, xi_sq, lam, which)
                          for which in ("L11", "L12", "L21", "L22"))
    return L11 * L22 - L12 * L21


def _m_raw(params, xi_sq, lam, k):
    t1, t2, om = root_arrays(params, xi_sq, lam)
    tk = t1 if k == 1 else t2
    return tk * (tk + om) * _detL_raw(params, xi_sq, lam) / (lam * (t2 - t1))


def _m_stable(params, xi_sq, lam, k):
    """Rewritten m_k: (s_k - 1/mu) t1 t2 om (t2+t1) - s_k t_k om^2 (t_k+om)
    + (1/mu) t_k (t_k+om) (t2^2 + t1 t2 + t1^2 - |xi|^2)."""
    t1, t2, om = root_arrays(params, xi_sq, lam)
    sk = params.s1 if k == 1 else params.s2
    tk = t1 if k == 1 else t2
    im = params.inv_mu
    chain = t1 * t2 + t2 * t2 + params.s1 * lam
    return (sk - im) * t1 * t2 * om * (t2 + t1) - sk * tk * om * om * (tk + om) \
        + im * tk * (tk + om) * chain


def _n_raw(params, xi_sq, lam, k):
    t1, t2, om = root_arrays(params, xi_sq, lam)
    if k == 1:
        return (t2 + om) * _cofactor_L(params, xi_sq, lam, "L11") / lam
    return (t1 + om) * _cofactor_L(params, xi_sq, lam, "L21") / lam


def _n_stable(params, xi_sq, lam, k):
    t1, t2, om = root_arrays(params, xi_sq, lam)
    im = params.inv_mu
    if k == 1:
        return -t1 * ((params.s2 - im) * om + im * (t2 + om))
    return t2 * ((params.s1 - im) * om + im * (t1 + om))


def _p(params, xi_sq, lam, k):
    t1, t2, om = root_arrays(params, xi_sq, lam)
    if k == 1:
        return (t1 + om) / (t2 + om)
    return (t2 + om) / (t1 + om)


def _t_case3(params, xi_sq, lam):
    """In case III the root distinct from omega is sqrt(|xi|^2 + lam/nu)."""
    return np.sqrt(xi_sq + lam / params.nu)


def _d3(params, xi_sq, lam):
    """Case III denominator t*omega + lam/nu, t = sqrt(|xi|^2 + lam/nu)."""
    om = np.sqrt(xi_sq + params.inv_mu * lam)
    return _t_case3(params, xi_sq, lam) * om + lam / params.nu


def _d5(params, xi_sq, lam):
    """Case V denominator omega^2 + lam/mu."""
    om = np.sqrt(xi_sq + params.inv_mu * lam)
    return om * om + params.inv_mu * lam


def _d5_stable(params, xi_sq, lam):
    return xi_sq + 2.0 * params.inv_mu * lam


def _q(params, xi_sq, lam):
    """Case IV determinant core 2{(2 mu (t2+om) om + (nu-mu)|xi|^2) t2 - mu (t2+om)|xi|^2}."""
    t1, t2, om = root_arrays(params, xi_sq, lam)
    mu, nu = params.mu, params.nu
    return 2.0 * ((2.0 * mu * (t2 + om) * om + (nu - mu) * xi_sq) * t2
                  - mu * (t2 + om) * xi_sq)


def _M_entry(params, xi_sq, lam, which):
    t1, t2, om = root_arrays(params, xi_sq, lam)
    mu, nu = params.mu, params.nu
    if which == "M11":
        return (nu - mu) * xi_sq + 0.0 * t2
    if which == "M12":
        return 2.0 * (nu - mu) * t2
    if which == "M21":
        return -(t2 - om) * (2.0 * mu * (t2 + om) * om + (nu - mu) * xi_sq)
    if which == "M22":
        return -2.0 * mu * (t2 - om) * (t2 + om)
    raise KeyError(which)


def _detM_raw(params, xi_sq, lam):
    """det M = M11 M22 - M12 M21, the definitional 2x2 expansion on the entries."""
    M11, M12, M21, M22 = (_M_entry(params, xi_sq, lam, which)
                          for which in ("M11", "M12", "M21", "M22"))
    return M11 * M22 - M12 * M21


def _detM_factored(params, xi_sq, lam):
    t1, t2, om = root_arrays(params, xi_sq, lam)
    return (params.nu - params.mu) * (t2 - om) * _q(params, xi_sq, lam)


# name -> (order, allowed cases, raw form, alternate form or None); each form
# is f(params, |xi|^2, lam), elementwise over arrays.
_REGISTRY = {
    "m1": (4, (Case.I, Case.II), partial(_m_raw, k=1), partial(_m_stable, k=1)),
    "m2": (4, (Case.I, Case.II), partial(_m_raw, k=2), partial(_m_stable, k=2)),
    "n1": (2, (Case.I, Case.II), partial(_n_raw, k=1), partial(_n_stable, k=1)),
    "n2": (2, (Case.I, Case.II), partial(_n_raw, k=2), partial(_n_stable, k=2)),
    "p1": (0, (Case.I, Case.II), partial(_p, k=1), None),
    "p2": (0, (Case.I, Case.II), partial(_p, k=2), None),
    "L11": (3, (Case.I, Case.II), partial(_cofactor_L, which="L11"), None),
    "L12": (2, (Case.I, Case.II), partial(_cofactor_L, which="L12"), None),
    "L21": (3, (Case.I, Case.II), partial(_cofactor_L, which="L21"), None),
    "L22": (2, (Case.I, Case.II), partial(_cofactor_L, which="L22"), None),
    "detL": (5, (Case.I, Case.II), _detL_raw, _detL_factored),
    "q": (3, (Case.IV,), _q, None),
    "M11": (2, (Case.IV,), partial(_M_entry, which="M11"), None),
    "M12": (1, (Case.IV,), partial(_M_entry, which="M12"), None),
    "M21": (3, (Case.IV,), partial(_M_entry, which="M21"), None),
    "M22": (2, (Case.IV,), partial(_M_entry, which="M22"), None),
    # det M is homogeneous of degree 4 = 1 + 3 via its factorization.
    "detM": (4, (Case.IV,), _detM_raw, _detM_factored),
    "d3": (2, (Case.III,), _d3, None),
    "d5": (2, (Case.V,), _d5, _d5_stable),
}

SYMBOL_ORDERS = {name: entry[0] for name, entry in _REGISTRY.items()}


@dataclass(frozen=True)
class SymbolSpec:
    """A symbol m(xi, lambda) with its declared order and multiplier type.

    `eval(xi, lam)` and the optional cancellation-free `alt_eval` take xi of
    shape (..., N-1) and lam of shape (...) and return m, shape (...); one
    point is xi of shape (N-1,) with a scalar lam.  `type_tag` is "type1" or
    "type2" (the two bounds in the module docstring).
    """

    name: str
    order: float
    type_tag: str
    eval: object
    alt_eval: object = None

    def __post_init__(self):
        if self.type_tag not in ("type1", "type2"):
            raise DomainError(f"symbol {self.name!r}: type_tag must be 'type1' or 'type2', "
                              f"got {self.type_tag!r}")

    def __call__(self, xi, lam):
        return self.eval(xi, lam)


def _lookup(params: FluidParams, name: str):
    """(order, raw form, alternate form) of a symbol defined in the case of `params`."""
    try:
        order, cases, raw, alt = _REGISTRY[name]
    except KeyError:
        raise DomainError(f"unknown symbol {name!r}; known: {sorted(_REGISTRY)}") from None
    if params.case not in cases:
        allowed = "/".join(c.value for c in cases)
        raise CaseMismatchError(
            f"symbol {name!r} is only defined in case(s) {allowed}, "
            f"parameters are case {params.case}"
        )
    return order, raw, alt


def _on_xi(form, params, xi, lam):
    """A registry form f(params, |xi|^2, lam) under the (xi, lam) array contract."""
    xi = np.asarray(xi, dtype=float)
    return form(params, np.sum(xi * xi, axis=-1), np.asarray(lam, dtype=complex))


def make_named_symbol(params: FluidParams, name: str) -> SymbolSpec:
    """Look up one of the registered boundary symbols for `params`.

    Raises DomainError for an unknown name and CaseMismatchError when the
    symbol is undefined in the parameter case (the degenerate-root cases
    deliberately have no m_k, for instance).
    """
    order, raw, alt = _lookup(params, name)
    return SymbolSpec(name=name, order=order, type_tag="type1",
                      eval=partial(_on_xi, raw, params),
                      alt_eval=None if alt is None else partial(_on_xi, alt, params))


def stable_symbol_values(params: FluidParams, name: str, xi_sq, lam):
    """Vectorized evaluation over |xi|^2, preferring the cancellation-free form.

    Scan infrastructure uses this instead of the raw definitional form so
    that normalized lower bounds are trustworthy at extreme |xi|^2/|lambda|
    ratios; the dual-form identity tests tie the two forms together.
    """
    order, raw, alt = _lookup(params, name)
    f = alt if alt is not None else raw
    return f(params, np.asarray(xi_sq, dtype=float), np.asarray(lam, dtype=complex))


# ---------------------------------------------------------------------------
# Symbol-class verification
# ---------------------------------------------------------------------------


@dataclass
class ClassEntry:
    alpha: tuple
    n: int
    constant: float
    band_constants: dict
    stable: bool


@dataclass
class ClassReport:
    """Empirical multiplier-class constants per multi-index and lambda-power."""

    name: str
    order: float
    type_tag: str
    entries: list = field(default_factory=list)

    @property
    def max_constant(self):
        return max(e.constant for e in self.entries)

    @property
    def all_stable(self):
        return all(e.stable for e in self.entries)

    def entry(self, alpha, n):
        alpha = tuple(alpha)
        for e in self.entries:
            if e.alpha == alpha and e.n == n:
                return e
        raise KeyError((alpha, n))

    def csv_rows(self):
        rows = [("band", "alpha", "n", "constant")]
        for e in self.entries:
            a = "".join(map(str, e.alpha))
            for band, c in sorted(e.band_constants.items()):
                rows.append((band, a, e.n, f"{c:.6e}"))
            rows.append(("all", a, e.n, f"{e.constant:.6e}"))
        return rows


def _multi_indices(dim, max_order):
    out = []
    for total in range(max_order + 1):
        for combo in itertools.product(range(total + 1), repeat=dim):
            if sum(combo) == total:
                out.append(combo)
    return out


# Relative xi steps of the first and second differences (with the base step
# the nested lambda/xi second differences are roundoff-dominated), and the
# log-lambda step of lam d/dlam.
FD_STEP = 1e-5
FD_STEP_SECOND = 1e-3
FD_STEP_LAMBDA = 1e-4


def _xi_stencil(alpha):
    """Central difference for d_xi^alpha, |alpha| <= 2.

    Returns the offsets in steps (K, N-1), the K weights and the constant div
    of the divisor div * step^|alpha|.
    """
    e = np.eye(len(alpha))
    axes = [k for k, a in enumerate(alpha) for _ in range(a)]
    if not axes:
        return np.zeros((1, len(alpha))), (1.0,), 1.0
    if len(axes) == 1:
        k, = axes
        return np.stack([e[k], -e[k]]), (1.0, -1.0), 2.0
    i, j = axes
    if i == j:
        return np.stack([e[i], 0.0 * e[i], -e[i]]), (1.0, -2.0, 1.0), 1.0
    return (np.stack([e[i] + e[j], e[i] - e[j], -e[i] + e[j], -e[i] - e[j]]),
            (1.0, -1.0, -1.0, 1.0), 4.0)


def verify_symbol_class(sym: SymbolSpec, grid: ScanGrid, max_multi_order: int = 2,
                        band_spread_limit: float = 2.0) -> ClassReport:
    """Estimate the multiplier-class constants of `sym` over a scan grid.

    For each multi-index |alpha| <= max_multi_order and n in {0, 1} the
    report holds sup over the grid of |d^alpha (lam d/dlam)^n sym| divided by
    the class bound shape, together with per-dyadic-band maxima in
    |lambda|^(1/2)+|xi|.  An entry is flagged unstable when the band maxima
    spread by more than `band_spread_limit`.

    The normalized constant varies legitimately with the shape parameter
    |xi| / (|lambda|^(1/2)+|xi|) at fixed scale, so every band is probed at
    the same (shape, arg) menu; bands whose maximum is below 1e-10 of the
    overall one are reported but not judged.

    Each alpha is one evaluator call over all stencil nodes and scan points
    (lambda differences inside xi differences); a non-finite value raises
    DomainError naming the first such point.
    """
    if max_multi_order > 2:
        raise DomainError("finite-difference verifier supports |alpha| <= 2")
    dim = grid.directions.shape[1]
    alphas = _multi_indices(dim, max_multi_order)

    evaluate = sym.alt_eval if sym.alt_eval is not None else sym.eval

    # The normalized constant at fixed scale S = |lambda|^(1/2)+|xi| is a
    # function of the shape u = |xi|/S and arg(lambda) only (for exactly
    # homogeneous symbols), so each dyadic band is probed at the same shape
    # menu: band maxima then compare like with like, and a wrongly declared
    # order shows up as geometric drift across bands.
    pos_xi = grid.xi_magnitudes[grid.xi_magnitudes > 0]
    s_lo = min(float(pos_xi.min()) if pos_xi.size else np.inf,
               math.sqrt(float(grid.lambda_magnitudes.min())))
    s_hi = max(float(grid.xi_magnitudes.max()),
               math.sqrt(float(grid.lambda_magnitudes.max())))
    if not (0 < s_lo < s_hi):
        raise GridError("scan grid does not span positive scales")
    n_scales = max(2, int(math.floor(math.log2(s_hi / s_lo))) + 1)
    scales = s_lo * 2.0 ** np.arange(n_scales)
    n_u = max(3, min(grid.xi_magnitudes.size, grid.lambda_magnitudes.size))
    shapes = np.linspace(0.05, 0.95, n_u)

    scale, u, arg = (a.reshape(-1) for a in
                     np.meshgrid(scales, shapes, grid.lambda_args, indexing="ij"))
    xi = (u * scale)[:, None] * grid.directions[0]
    xi_norm = np.linalg.norm(xi, axis=-1)
    lam = ((1.0 - u) * scale) ** 2 * np.exp(1j * arg)
    lam_nodes = np.stack([lam, lam * math.exp(FD_STEP_LAMBDA), lam * math.exp(-FD_STEP_LAMBDA)])
    band = np.floor(np.log2(scale)).astype(int)

    entries = []
    for alpha in alphas:
        order = sum(alpha)
        offsets, weights, div = _xi_stencil(alpha)
        step = (FD_STEP if order < 2 else FD_STEP_SECOND) * scale
        nodes = (len(weights),) + lam_nodes.shape
        xi_nodes = xi + offsets[:, None, :] * step[:, None]
        vals = evaluate(np.broadcast_to(xi_nodes[:, None], nodes + (dim,)),
                        np.broadcast_to(lam_nodes, nodes))
        lam_derivs = (vals[:, 0], (vals[:, 1] - vals[:, 2]) / (2.0 * FD_STEP_LAMBDA))
        for n, g in enumerate(lam_derivs):
            val = sum(w * gk for w, gk in zip(weights, g)) / (div * step ** order)
            bad = ~np.isfinite(val)
            if bad.any():
                k = int(np.argmax(bad))
                raise DomainError(f"symbol {sym.name} not finite at xi={xi[k]}, lam={lam[k]}")
            if sym.type_tag == "type1":
                bound = scale ** (sym.order - order)
            else:
                bound = scale ** sym.order * xi_norm ** (-order)
            const = np.abs(val) / bound
            bands = {int(b): float(const[band == b].max()) for b in np.unique(band)}
            worst = float(const.max())
            positive = [c for c in bands.values() if c > 1e-10 * max(worst, 1e-300)]
            stable = len(positive) < 2 or max(positive) <= band_spread_limit * min(positive)
            entries.append(ClassEntry(alpha=tuple(alpha), n=n, constant=worst,
                                      band_constants=bands, stable=stable))
    return ClassReport(name=sym.name, order=sym.order, type_tag=sym.type_tag, entries=entries)


# ---------------------------------------------------------------------------
# Asymptotic regime checks for m_k
# ---------------------------------------------------------------------------


def case1_product_constant(params: FluidParams, k: int) -> complex:
    """Leading coefficient of m_k ~ c_k * lambda^2 as |xi|^2/|lambda| -> 0.

    c_k = sqrt(s_k)(sqrt(s_k)+sqrt(1/mu)) * sqrt(s1) sqrt(s2) sqrt(1/mu)
          * (sqrt(s1)+sqrt(s2)).
    """
    rs1, rs2 = np.sqrt(params.s1), np.sqrt(params.s2)
    rmu = math.sqrt(params.inv_mu)
    rsk = rs1 if k == 1 else rs2
    return rsk * (rsk + rmu) * rs1 * rs2 * rmu * (rs1 + rs2)


@dataclass
class AsymptoticReport:
    name: str
    regime: str
    ratios: np.ndarray          # m_k / limit expression, complex
    regime_parameters: np.ndarray


def asymptotic_check(params: FluidParams, name: str, regime: str,
                     ratio_points=(1e-2, 1e-3, 1e-4, 1e-5, 1e-6),
                     arg: float = 0.0) -> AsymptoticReport:
    """Sample m_k divided by its regime limit along a ray.

    regime "xi_dominant" samples |lambda|/|xi|^2 at the given values with
    |xi| = 1 and checks m_k / (2/mu |xi|^4) -> 1; "lambda_dominant" samples
    |xi|^2/|lambda| with |lambda| = 1 against the product-constant limit.
    """
    if name not in ("m1", "m2"):
        raise DomainError("asymptotic_check supports m1 and m2 only")
    if params.case not in (Case.I, Case.II):
        raise CaseMismatchError("m_k asymptotics require case I or II")
    k = 1 if name == "m1" else 2
    pts = np.asarray(ratio_points, dtype=float)
    if regime == "xi_dominant":
        xi_sq = np.ones_like(pts)
        lam = pts * np.exp(1j * arg)
        limit = 2.0 * params.inv_mu * xi_sq**2
    elif regime == "lambda_dominant":
        lam = np.full_like(pts, 1.0) * np.exp(1j * arg)
        xi_sq = pts * np.abs(lam)
        limit = case1_product_constant(params, k) * lam**2
    else:
        raise DomainError(f"unknown regime {regime!r}")
    vals = _m_stable(params, xi_sq, lam, k)
    return AsymptoticReport(name=name, regime=regime, ratios=vals / limit,
                            regime_parameters=pts)
