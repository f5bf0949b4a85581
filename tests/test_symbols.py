import math

import numpy as np
import pytest

from kortsolve import (CaseMismatchError, DomainError, GridError, ScanGrid, asymptotic_check,
                       classify, make_named_symbol, verify_symbol_class)
from kortsolve.symbols import (_REGISTRY, FD_STEP, FD_STEP_LAMBDA, FD_STEP_SECOND,
                               SYMBOL_ORDERS, ClassEntry, ClassReport, SymbolSpec,
                               _multi_indices, case1_product_constant)

from tests.conftest import CASE_PARAMS


# -- test-only reference: the scalar verifier, one evaluator call per point ---


def _reference_lambda_derivative(fun, xi, lam, n, step):
    """(lam d/dlam)^n fun at (xi, lam) via central differences in log lambda."""
    if n == 0:
        return fun(xi, lam)
    h = step
    return (_reference_lambda_derivative(fun, xi, lam * math.exp(h), n - 1, step)
            - _reference_lambda_derivative(fun, xi, lam * math.exp(-h), n - 1, step)) / (2.0 * h)


def _reference_xi_derivative(fun, xi, lam, alpha, step):
    """Central finite-difference d_xi^alpha fun, |alpha| <= 2."""
    order = sum(alpha)
    if order == 0:
        return fun(xi, lam)
    axes = [k for k, a in enumerate(alpha) for _ in range(a)]
    if order == 1:
        k = axes[0]
        e = np.zeros_like(xi)
        e[k] = step
        return (fun(xi + e, lam) - fun(xi - e, lam)) / (2.0 * step)
    i, j = axes
    ei = np.zeros_like(xi)
    ei[i] = step
    if i == j:
        return (fun(xi + ei, lam) - 2.0 * fun(xi, lam) + fun(xi - ei, lam)) / step**2
    ej = np.zeros_like(xi)
    ej[j] = step
    return (fun(xi + ei + ej, lam) - fun(xi + ei - ej, lam)
            - fun(xi - ei + ej, lam) + fun(xi - ei - ej, lam)) / (4.0 * step**2)


def scalar_form(params, name):
    """A registered symbol's preferred form at one point, on Python scalars."""
    _, _, raw, alt = _REGISTRY[name]
    form = alt if alt is not None else raw
    return lambda xi, lam: complex(form(params, float(xi @ xi), complex(lam)))


def reference_verify_symbol_class(sym, grid, max_multi_order=2, band_spread_limit=2.0,
                                  evaluate=None):
    """The point-by-point verifier: same menu, stencils and verdicts as the array one.

    `evaluate(xi, lam) -> complex` is one point; by default the symbol's own
    (alternate, else raw) evaluator applied to that point.
    """
    alphas = _multi_indices(grid.directions.shape[1], max_multi_order)
    if evaluate is None:
        f = sym.alt_eval if sym.alt_eval is not None else sym.eval

        def evaluate(xi, lam):
            return complex(f(xi, lam))

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

    points = []
    direction = grid.directions[0]
    for s in scales:
        band = int(math.floor(math.log2(s)))
        for u in shapes:
            xi = (u * s) * direction
            lam_mag = ((1.0 - u) * s) ** 2
            for arg in grid.lambda_args:
                points.append((xi, lam_mag * np.exp(1j * arg), s, band))

    entries = []
    for alpha in alphas:
        order = sum(alpha)
        rel_step = FD_STEP if order < 2 else FD_STEP_SECOND
        for n in (0, 1):
            worst = 0.0
            bands = {}
            for xi, lam, scale, band in points:
                def dlam(x, l):
                    return _reference_lambda_derivative(evaluate, x, l, n, FD_STEP_LAMBDA)

                val = _reference_xi_derivative(dlam, np.asarray(xi, dtype=float), lam,
                                               alpha, rel_step * scale)
                if not np.isfinite(val):
                    raise DomainError(f"symbol {sym.name} not finite at xi={xi}, lam={lam}")
                if sym.type_tag == "type1":
                    bound = scale ** (sym.order - order)
                else:
                    bound = scale ** sym.order * float(np.linalg.norm(xi)) ** (-order)
                const = abs(val) / bound
                bands[band] = max(bands.get(band, 0.0), const)
                worst = max(worst, const)
            positive = [c for c in bands.values() if c > 1e-10 * max(worst, 1e-300)]
            if len(positive) >= 2:
                stable = max(positive) <= band_spread_limit * min(positive)
            else:
                stable = True
            entries.append(ClassEntry(alpha=tuple(alpha), n=n, constant=worst,
                                      band_constants=bands, stable=stable))
    return ClassReport(name=sym.name, order=sym.order, type_tag=sym.type_tag, entries=entries)


def assert_reports_match(rep, ref, rel=1e-5):
    """Same entries, bands and verdicts; constants within rel * ref.max_constant."""
    tol = rel * ref.max_constant
    assert [(e.alpha, e.n) for e in rep.entries] == [(e.alpha, e.n) for e in ref.entries]
    for e, r in zip(rep.entries, ref.entries):
        assert e.stable == r.stable, (e.alpha, e.n)
        assert list(e.band_constants) == list(r.band_constants), (e.alpha, e.n)
        assert abs(e.constant - r.constant) <= tol, (e.alpha, e.n)
        for band, c in r.band_constants.items():
            assert abs(e.band_constants[band] - c) <= tol, (e.alpha, e.n, band)
    assert rep.all_stable == ref.all_stable


def sample_points(rng, n, lo=0.2, hi=5.0):
    """Random admissible (xi, lam) arrays, xi of shape (n, 1), on a moderate annulus.

    The dual-form identities are exact in real arithmetic; sampling keeps the
    anisotropic shape ratio |xi|^2 / |lambda| bounded so both evaluation
    routes stay within ~1e-13 of the true value and the 1e-12 comparison is
    meaningful.  Homogeneity (tested separately, exactly) extends coverage to
    all scales.
    """
    xi = 10.0 ** rng.uniform(math.log10(lo), math.log10(hi), size=n)
    lam_mag = 10.0 ** rng.uniform(math.log10(lo), math.log10(hi), size=n) ** 2
    lam = lam_mag * np.exp(1j * rng.uniform(-1.4, 1.4, size=n))
    return xi[:, None], lam


class TestRegistry:
    def test_unknown_name_rejected(self, params_by_case):
        from kortsolve import DomainError
        with pytest.raises(DomainError):
            make_named_symbol(params_by_case["I"], "zz")

    def test_case_mismatch_rejected(self, params_by_case):
        with pytest.raises(CaseMismatchError):
            make_named_symbol(params_by_case["V"], "m1")
        with pytest.raises(CaseMismatchError):
            make_named_symbol(params_by_case["I"], "q")

    def test_m1_value_case_two(self, params_by_case):
        # frozen regression + the lambda-dominant product-constant oracle
        p = params_by_case["II"]  # (3, 1, 1)
        m1 = make_named_symbol(p, "m1")
        val = m1(np.array([0.0]), 1.0)
        oracle = case1_product_constant(p, 1)
        assert abs(val / oracle - 1.0) <= 0.01
        assert val == pytest.approx(0.8015871127733867, rel=1e-12)

    def test_detL_value_case_one(self, params_by_case):
        p = params_by_case["I"]
        detL = make_named_symbol(p, "detL")
        # the raw 2x2 expansion against the factored form as the oracle
        val = detL(np.array([0.0]), 1.0)
        oracle = detL.alt_eval(np.array([0.0]), 1.0)
        assert val == pytest.approx(oracle, rel=1e-12)
        assert val == pytest.approx(1j * math.sqrt(0.5), rel=1e-12)

    def test_detM_factorization_bulk(self, params_by_case, rng):
        p = params_by_case["IV"]
        detM = make_named_symbol(p, "detM")
        xi, lam = sample_points(rng, 10_000)
        xi_sq = xi[:, 0] ** 2
        raw = detM.eval(xi, lam)
        q = make_named_symbol(p, "q").eval(xi, lam)
        t2 = np.sqrt(xi_sq + p.s2 * lam)
        om = np.sqrt(xi_sq + lam / p.mu)
        factored = (p.nu - p.mu) * (t2 - om) * q
        assert np.max(np.abs(raw - factored) / np.abs(factored)) <= 1e-12

    def test_m_dual_forms_bulk(self, rng):
        for case in ("I", "II"):
            p = classify(*CASE_PARAMS[case])
            xi, lam = sample_points(rng, 10_000)
            xi_sq = xi[:, 0] ** 2
            for name in ("m1", "m2", "n1", "n2"):
                sym = make_named_symbol(p, name)
                raw = sym.eval(xi, lam)
                # alt_eval is the paper-simplified form; compare vectorized
                from kortsolve.symbols import _m_stable, _n_stable
                k = int(name[1])
                alt = (_m_stable if name[0] == "m" else _n_stable)(p, xi_sq, lam, k)
                scale = np.abs(alt)
                assert np.max(np.abs(raw - alt) / scale) <= 1e-12, (case, name)

    def test_alt_eval_agreement_scalar(self, params_by_case):
        p = params_by_case["I"]
        for name in ("m1", "m2", "n1", "n2", "detL"):
            sym = make_named_symbol(p, name)
            xi = np.array([0.8])
            lam = 2.0 + 1.0j
            scale = (math.sqrt(abs(lam)) + 0.8) ** sym.order
            assert abs(sym.eval(xi, lam) - sym.alt_eval(xi, lam)) <= 1e-12 * scale

    def test_homogeneity_degrees(self, params_by_case, rng):
        degrees = {"L11": 3, "L21": 3, "detL": 5, "m1": 4, "m2": 4, "n1": 2, "n2": 2,
                   "p1": 0, "p2": 0}
        p = params_by_case["II"]
        for name, deg in degrees.items():
            assert SYMBOL_ORDERS[name] in (deg, SYMBOL_ORDERS[name])
            sym = make_named_symbol(p, name)
            for r in (0.125, 8.0):
                a = sym(np.array([0.7]), 1.5 + 0.5j)
                b = sym(np.array([0.7 * r]), (1.5 + 0.5j) * r * r)
                assert b == pytest.approx(r**deg * a, rel=1e-12), name
        # case IV / III / V symbols
        for case, name, deg in [("IV", "q", 3), ("IV", "M11", 2), ("IV", "M12", 1),
                                ("IV", "M21", 3), ("IV", "M22", 2), ("IV", "detM", 4),
                                ("III", "d3", 2), ("V", "d5", 2)]:
            p = classify(*CASE_PARAMS[case])
            sym = make_named_symbol(p, name)
            for r in (0.125, 8.0):
                a = sym(np.array([0.7]), 1.5 + 0.5j)
                b = sym(np.array([0.7 * r]), (1.5 + 0.5j) * r * r)
                assert b == pytest.approx(r**deg * a, rel=1e-11), (case, name)

    def test_d5_is_shifted_laplacian_symbol(self, params_by_case):
        p = params_by_case["V"]
        d5 = make_named_symbol(p, "d5")
        xi = np.array([1.3])
        lam = 0.7 + 0.2j
        assert d5(xi, lam) == pytest.approx(1.3**2 + 2.0 * lam, rel=1e-14)


class TestClassVerifier:
    def _tiny_grid(self, **kw):
        return ScanGrid.logspace(n_xi=6, n_lam=6, n_arg=3, xi_range=(1e-2, 1e2),
                                 lam_sqrt_range=(1e-2, 1e2), **kw)

    def test_constant_symbol(self):
        sym = SymbolSpec(name="one", order=0, type_tag="type1",
                         eval=lambda xi, lam: np.ones_like(lam))
        rep = verify_symbol_class(sym, self._tiny_grid(), max_multi_order=1)
        assert rep.entry((0,), 0).constant == pytest.approx(1.0)
        assert rep.entry((1,), 0).constant <= 1e-6
        assert rep.entry((0,), 1).constant <= 1e-6

    def test_linear_symbol_order_one(self):
        sym = SymbolSpec(name="xi", order=1, type_tag="type1",
                         eval=lambda xi, lam: xi[..., 0] + 0j)
        rep = verify_symbol_class(sym, self._tiny_grid(), max_multi_order=1)
        e = rep.entry((1,), 0)
        assert e.constant == pytest.approx(1.0, rel=1e-4)
        assert e.stable

    def test_direction_symbol_type_two(self):
        # xi_k / |xi| is order 0 type 2 (derivative bounds decay in |xi| only)
        sym = SymbolSpec(name="dir", order=0, type_tag="type2",
                         eval=lambda xi, lam: xi[..., 0] / np.abs(xi[..., 0]) + 0j)
        rep = verify_symbol_class(sym, self._tiny_grid(), max_multi_order=1)
        assert rep.max_constant <= 1.5

    def test_named_symbols_pass_their_classes(self, params_by_case):
        grid = self._tiny_grid()
        for case, name in [("I", "m1"), ("I", "n2"), ("II", "p1"), ("III", "d3"),
                           ("IV", "q"), ("V", "d5")]:
            p = classify(*CASE_PARAMS[case])
            rep = verify_symbol_class(make_named_symbol(p, name), grid, max_multi_order=2)
            assert rep.max_constant < 1e3, (case, name)
            assert rep.all_stable, (case, name)

    def test_product_rule_spot_check(self, params_by_case):
        # product of two verified type-1 symbols passes at the summed order
        p = params_by_case["II"]
        n1 = make_named_symbol(p, "n1")
        p1 = make_named_symbol(p, "p1")
        prod = SymbolSpec(name="n1*p1", order=n1.order + p1.order, type_tag="type1",
                          eval=lambda xi, lam: n1.eval(xi, lam) * p1.eval(xi, lam))
        rep = verify_symbol_class(prod, self._tiny_grid(), max_multi_order=1)
        assert rep.all_stable
        assert rep.max_constant < 1e3

    def test_nonfinite_value_reported(self):
        from kortsolve import DomainError
        sym = SymbolSpec(name="bad", order=0, type_tag="type1",
                         eval=lambda xi, lam: np.full_like(lam, np.nan))
        with pytest.raises(DomainError):
            verify_symbol_class(sym, self._tiny_grid(), max_multi_order=0)

    def test_nonfinite_error_names_first_point(self):
        # finite except for |xi| > 1 at arg(lambda) > 0: the first offending
        # point in (alpha, n, scale, shape, arg) order is the one named
        sym = SymbolSpec(name="half", order=0, type_tag="type1",
                         eval=lambda xi, lam: np.where((xi[..., 0] > 1.0) & (lam.imag > 0),
                                                       np.nan, 1.0 + 0j))
        grid = self._tiny_grid()
        with pytest.raises(DomainError) as ref:
            reference_verify_symbol_class(sym, grid, max_multi_order=1)
        with pytest.raises(DomainError) as got:
            verify_symbol_class(sym, grid, max_multi_order=1)
        assert str(got.value) == str(ref.value)

    def test_type_tag_must_be_known(self):
        with pytest.raises(DomainError, match="type_tag"):
            SymbolSpec(name="one", order=0, type_tag="type3", eval=lambda xi, lam: np.ones_like(lam))

    @pytest.mark.parametrize("dim", [2, 3])
    @pytest.mark.parametrize("name", sorted(_REGISTRY))
    def test_matches_scalar_reference(self, name, dim):
        # every registered symbol, in the first case it is defined in, on the
        # default symbol-check grid
        p = classify(*CASE_PARAMS[_REGISTRY[name][1][0].value])
        sym = make_named_symbol(p, name)
        grid = ScanGrid.logspace(dim=dim)
        ref = reference_verify_symbol_class(sym, grid, evaluate=scalar_form(p, name))
        assert_reports_match(verify_symbol_class(sym, grid), ref)

    def test_cli_symbol_matches_scalar_reference_tightly(self):
        # the benchmark's symbol-check m1 at (3, 1, 1), 2-D
        p = classify(3, 1, 1)
        sym = make_named_symbol(p, "m1")
        grid = ScanGrid.logspace()
        rep = verify_symbol_class(sym, grid)
        ref = reference_verify_symbol_class(sym, grid, evaluate=scalar_form(p, "m1"))
        assert rep.csv_rows() == ref.csv_rows()
        for e, r in zip(rep.entries, ref.entries):
            assert e.constant == pytest.approx(r.constant, rel=1e-13, abs=0.0)


class TestAsymptotics:
    def test_xi_dominant_limit(self, params_by_case):
        # m_k -> 2/mu |xi|^4 as |lambda|/|xi|^2 -> 0
        p = params_by_case["I"]
        for name in ("m1", "m2"):
            rep = asymptotic_check(p, name, "xi_dominant")
            final = rep.ratios[np.argmin(rep.regime_parameters)]
            assert abs(final - 1.0) <= 0.01

    def test_lambda_dominant_limit(self, params_by_case):
        p = params_by_case["II"]
        for name in ("m1", "m2"):
            rep = asymptotic_check(p, name, "lambda_dominant")
            final = rep.ratios[np.argmin(rep.regime_parameters)]
            assert abs(final - 1.0) <= 0.01

    def test_exact_homogeneity_at_zero_xi(self, params_by_case):
        # m1 / lambda^2 is constant along xi = 0
        p = params_by_case["II"]
        m1 = make_named_symbol(p, "m1")
        vals = [m1(np.array([0.0]), r * r) / (r * r) ** 2 for r in (0.5, 1.0, 7.0)]
        assert vals[0] == pytest.approx(vals[1], rel=1e-12)
        assert vals[2] == pytest.approx(vals[1], rel=1e-12)

    def test_degree_four_scaling(self, params_by_case):
        p = params_by_case["I"]
        m2 = make_named_symbol(p, "m2")
        a = m2(np.array([0.9]), 1.1 + 0.3j)
        b = m2(np.array([9.0]), (1.1 + 0.3j) * 100.0)
        assert b == pytest.approx(1e4 * a, rel=1e-12)

    def test_bad_regime_rejected(self, params_by_case):
        from kortsolve import DomainError
        with pytest.raises(DomainError):
            asymptotic_check(params_by_case["I"], "m1", "sideways")
        with pytest.raises(CaseMismatchError):
            asymptotic_check(params_by_case["V"], "m1", "xi_dominant")
