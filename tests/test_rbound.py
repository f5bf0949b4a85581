import json
import math
from pathlib import Path

import numpy as np
import pytest

from kortsolve.fields import (GridField, GridSpec, _wavenumber_mesh, lattice_modes, tangential_fft,
                              vertical_spectral_derivative, whole_space_reduction)
from kortsolve.modes import DECAY_SUPPORT, BoundaryTrace, _derivative, solve_mode, solve_modes
from kortsolve.profiles import VerticalProfile
from kortsolve.rbound import (LIFT_ORDERS, FullSolveFamily, IdentityFamily, LiftedTuple,
                              ModeField, ProbeConfig, ReducedSolveFamily, _frequencies,
                              _lift_vertical, _lift_weights, _ratio_from_tuples, _stacked,
                              _tangential_derivative, _verticals, derivative_tuples, estimate_rbound,
                              lambda_log_derivative, lift_arity, lift_boundary_data,
                              lift_full_data, probe_grid, sample_boundary_data, sample_full_data)
from kortsolve.spectral import TangentialMode

REFS = Path(__file__).resolve().parents[1] / "perfbench" / "refs.json"


@pytest.fixture(scope="module")
def params():
    from kortsolve import classify
    return classify(1, 1, 2)


SMALL = ProbeConfig(m=4, trials=60, rng_seed=11, draws_per_decade=1, modes_per_field=2)


def _profiles(field):
    """{index: VerticalProfile} of a ModeField: its nonzero terms in (rate, power) order."""
    return {index: VerticalProfile([(c, p, t) for t, row in zip(rates, coeffs)
                                    for p, c in enumerate(row) if c != 0])
            for index, rates, coeffs in zip(field.indices(), field.rates, field.coeffs)}


def _zero_field(spec):
    return ModeField(np.zeros((0, spec.dim - 1), dtype=int), np.ones((0, 1), dtype=complex),
                     np.zeros((0, 1, 1), dtype=complex), spec)


def _random_field(rng, spec, indices, term_powers):
    """ModeField with mode k at indices[k] holding terms of powers term_powers[k]."""
    parts = []
    for powers in term_powers:
        rates = np.array([[complex(rng.uniform(0.2, 3.0), rng.normal()) for _ in powers]])
        coeffs = np.zeros((1, len(powers), 1 + max(powers)), dtype=complex)
        coeffs[0, np.arange(len(powers)), powers] = rng.normal(size=len(powers)) \
            + 1j * rng.normal(size=len(powers))
        parts.append((rates, coeffs))
    rates, coeffs = _stacked(parts)
    return ModeField(np.array(indices, dtype=int).reshape(-1, spec.dim - 1), rates, coeffs, spec)


def _reach(field, index):
    """The decay support of a ModeField's mode: x_N <= DECAY_SUPPORT / Re t_min."""
    k = field.indices().index(index) if index in field.indices() else None
    return math.inf if k is None else DECAY_SUPPORT / field.rates[k].real.min()


def _assert_rows_match(got, want, x, reach, exact):
    """Lift rows against the per-tuple reference, row r in the support x <= reach[r].

    Exact rows (power-0 profiles) are equal bit for bit inside the support
    (up to the sign of zeros) and zero beyond it, where the reference is
    below the rounding of the row's peak; other rows agree to 1e-14 of their
    peak.
    """
    assert got.shape == want.shape
    inside = x[None, :] <= np.asarray(reach, dtype=float)[:, None]
    peak = np.max(np.abs(want), axis=1, keepdims=True)
    for row, (g, w, i, pk, ex) in enumerate(zip(got, want, inside, peak, exact)):
        if ex:
            assert np.array_equal(g[i], w[i]), row
            assert not np.any(g[~i]), row
            assert np.all(np.abs(w[~i]) <= 1e-16 * pk), row
        else:
            assert np.all(np.abs(g - w) <= 1e-14 * pk), row


def _reference_lift_rows(derivative, lam, dim, kind):
    """Rows of one field's lift at one lambda, given `derivative(axes_tuple)` of that field."""
    sqrt_lam = np.sqrt(lam)
    if kind == "S0":
        weights = ((3, 1.0), (2, sqrt_lam), (1, lam), (0, lam * sqrt_lam))
    else:
        weights = ((2, 1.0), (1, sqrt_lam), (0, lam))
    return [w * derivative(t) for order, w in weights for t in derivative_tuples(order, dim)]


def _reference_profile_derivative(profile, axes_tuple, xi, x):
    """Per-tuple reference: differentiate and evaluate the profile for every tuple."""
    factor = 1.0 + 0.0j
    v_order = 0
    for ax in axes_tuple:
        if ax < len(xi):
            factor *= 1j * xi[ax]
        else:
            v_order += 1
    p = profile.differentiate(v_order) if v_order else profile
    return factor * p.evaluate(x)


def _reference_lift_profiles(profile_sets, lam, spec, xi, kind):
    lam = complex(lam)
    x = spec.vertical_coords()
    profiles = [profile_sets] if kind == "S0" else profile_sets
    rows = []
    for profile in profiles:
        rows += _reference_lift_rows(lambda t: _reference_profile_derivative(profile, t, xi, x),
                           lam, spec.dim, kind)
    return np.array(rows)


def _reference_lift_full_data(data, lam):
    """Per-mode, per-tuple reference of `lift_full_data`."""
    d, f, g = data
    spec = d.spec
    lam = complex(lam)
    x = spec.vertical_coords()
    ks = spec.tangential_wavenumbers()
    zero = VerticalProfile.zero()
    dp, gp, fp = _profiles(d), _profiles(g), [_profiles(c) for c in f]
    out = {}
    for index in set(dp) | set(gp) | set().union(*(set(c) for c in fp)):
        xi = np.array([ks[i] for i in index])
        vd = dp.get(index, zero)
        rows = [_reference_profile_derivative(vd, t, xi, x) for t in derivative_tuples(1, spec.dim)]
        rows.append(np.sqrt(lam) * vd.evaluate(x))
        rows += [c.get(index, zero).evaluate(x) for c in fp]
        rows += list(_reference_lift_profiles([gp.get(index, zero)], lam, spec, xi, "T"))
        out[index] = np.array(rows)
    return out


def _reference_full_apply(family, lam, data):
    """`FullSolveFamily.apply` on the grid: the data are synthesized one
    profile per mode, the whole-space part is taken to the grid, each of its
    vertical derivatives FFT'd back and every lift row inverse-FFT'd on its
    own; the correction lift is synthesized apart."""
    d, f, g = data
    spec = d.spec
    lam = complex(lam)
    dim = spec.dim
    t_axes = tuple(range(dim - 1))

    def synthesize(mode_field):
        hat = np.zeros(spec.tangential_shape + (spec.n_vertical,), dtype=complex)
        x = spec.vertical_coords()
        for k, p in _profiles(mode_field).items():
            hat[(*k, slice(None))] = p.evaluate(x)
        return tangential_fft(hat, t_axes, inverse=True)

    spectrum, _, g_hat, h_hat = whole_space_reduction(
        family.params, GridField(synthesize(d), spec),
        [GridField(synthesize(c), spec) for c in f], synthesize(g)[..., 0], lam)
    rho_ws, *u_ws = np.fft.ifftn(spectrum[..., :spec.n_vertical], axes=tuple(range(1, dim)))
    batch = lattice_modes(family.params, spec, g_hat, h_hat, lam)
    kind_lift = "S0" if family.kind == "A" else "T"
    components = batch.coeffs[:1] if family.kind == "A" else batch.coeffs[1:dim + 1]
    values = _verticals(batch.rates, components, spec.vertical_coords(),
                        LIFT_ORDERS[kind_lift])
    corr_hat = np.array([r for v in values for r in _reference_lift_rows(
        lambda t, v=v: _tangential_derivative(v, t, batch.xi), lam, dim, kind_lift)])
    corr = tangential_fft(corr_hat.reshape((len(corr_hat),) + spec.shape),
                          tuple(a + 1 for a in t_axes), inverse=True)
    k_t = _wavenumber_mesh(spec)[:dim - 1]

    def lift(values, parity):
        v_hat = [tangential_fft(vertical_spectral_derivative(values, spec, v, parity)
                                if v else values, t_axes)
                 for v in range(LIFT_ORDERS[kind_lift])]

        def derivative(axes_tuple):
            factor = 1.0
            for ax in axes_tuple:
                if ax < dim - 1:
                    factor = factor * (1j * k_t[ax])
            return tangential_fft(factor * v_hat[axes_tuple.count(dim - 1)], t_axes,
                                  inverse=True)

        return _reference_lift_rows(derivative, lam, dim, kind_lift)

    if family.kind == "A":
        rows = lift(rho_ws, "even")
    else:
        rows = [r for J in range(dim) for r in lift(u_ws[J], "even" if J < dim - 1 else "odd")]
    return np.array(rows) + corr


def _reference_lift_boundary_data(data, lam):
    """The per-mode boundary-data lift: one profile set per mode."""
    g, hs = data
    spec = g.spec
    ks = spec.tangential_wavenumbers()
    zero = VerticalProfile.zero()
    gp, hps = _profiles(g), [_profiles(h) for h in hs]
    out = {}
    for index in set(gp) | set().union(*(set(hp) for hp in hps)):
        xi = np.array([ks[i] for i in index])
        profiles = [gp.get(index, zero)] + [hp.get(index, zero) for hp in hps]
        out[index] = _reference_lift_profiles(profiles, lam, spec, xi, "T")
    return LiftedTuple(out, spec, spec.dim * lift_arity("T", spec.dim))


class _PerMember:
    """Draw-form adapter: `apply_one` and `input_lift_one` run member by member."""

    def apply(self, lams, datas):
        return [self.apply_one(lam, data) for lam, data in zip(lams, datas)]

    def input_lift(self, lams, datas):
        return [self.input_lift_one(lam, data) for lam, data in zip(lams, datas)]


class _ReferenceReducedFamily(_PerMember, ReducedSolveFamily):
    """The reduced family with one `solve_mode` and one per-tuple lift per mode."""

    def apply_one(self, lam, data):
        g, hs = data
        spec = g.spec
        ks = spec.tangential_wavenumbers()
        lift = "S0" if self.kind == "A2" else "T"
        gp, hps = _profiles(g), [_profiles(h) for h in hs]
        out = {}
        for index in set(gp) | set().union(*(set(hp) for hp in hps)):
            xi = np.array([ks[i] for i in index])
            mode = TangentialMode(xi=xi, lam=lam, dim=spec.dim)
            g_hat = gp[index].evaluate(0.0) if index in gp else 0.0
            h_hat = np.array([hp[index].evaluate(0.0) if index in hp else 0.0 for hp in hps])
            sol = solve_mode(self.params, mode, BoundaryTrace(g_hat, h_hat))
            profiles = sol.rho if lift == "S0" else list(sol.u)
            out[index] = _reference_lift_profiles(profiles, lam, spec, xi, lift)
        n_fields = 1 if lift == "S0" else spec.dim
        return LiftedTuple(out, spec, n_fields * lift_arity(lift, spec.dim))

    def input_lift_one(self, lam, data):
        return _reference_lift_boundary_data(data, lam)


class _ReferenceIdentity(_PerMember, IdentityFamily):
    def apply_one(self, lam, data):
        return _reference_lift_boundary_data(data, lam)

    def input_lift_one(self, lam, data):
        return _reference_lift_boundary_data(data, lam)


def _boundary_data_with_traces(spec, active, g, h):
    """(g, hs) ModeFields with one term per mode whose traces are g (M,), h (M, N-1)."""
    def field(values):
        rates = np.full((len(active), 1), 2.0 + 0.5j)
        return ModeField(np.array(active, dtype=int).reshape(-1, spec.dim - 1), rates,
                         np.asarray(values, dtype=complex).reshape(-1, 1, 1), spec)

    return field(g), tuple(field(h[:, j]) for j in range(spec.dim - 1))


def _assert_reduced_matches_reference(params, lam, data, exact):
    """Both reduced families' lifts against the per-tuple reference, mode by mode."""
    spec = data[0].spec
    x = spec.vertical_coords()
    ks = spec.tangential_wavenumbers()
    for kind in ("A2", "B2"):
        got = ReducedSolveFamily(params, kind).apply([lam], [data])[0]
        want = _ReferenceReducedFamily(params, kind).apply_one(lam, data)
        assert list(got.modes) == list(want.modes)
        for index, w in want.modes.items():
            mode = TangentialMode(xi=np.array([ks[i] for i in index]), lam=lam, dim=spec.dim)
            reach = DECAY_SUPPORT / min(t.real for t in solve_mode(
                params, mode, BoundaryTrace(0.0, np.zeros(spec.dim - 1))).u[0].rates)
            _assert_rows_match(got.modes[index], w, x, [reach] * len(w), [exact] * len(w))


def _sequential_probe(family, config, spec, sampler=sample_boundary_data):
    """(all_ratios, redraws) of the probe drawing, lifting and applying one member at a time."""
    lo, hi = config.decades
    n_dec = round(math.log10(hi / lo))
    ratios, redraws = [], 0
    for k, seed in enumerate(np.random.SeedSequence(config.rng_seed).spawn(n_dec)):
        d_lo = lo * 10.0**k
        sigma = math.sqrt(d_lo * math.sqrt(10.0))
        dspec = GridSpec(dim=spec.dim, box_half_length=spec.box_half_length / sigma,
                         n_tangential=spec.n_tangential,
                         vertical_cutoff=spec.vertical_cutoff / sigma,
                         n_vertical=spec.n_vertical)
        rng = np.random.default_rng(seed)
        for _ in range(config.draws_per_decade):
            ys, xs = [], []
            while len(ys) < config.m:
                mag = d_lo * 10.0 ** rng.uniform(0.0, 1.0)
                arg = rng.choice(config.lambda_args)
                lam = mag * complex(math.cos(arg), math.sin(arg))
                data = sampler(rng, dspec, config.modes_per_field, rate_scale=sigma)
                x = family.input_lift([lam], [data])[0]
                if x.norm(config.q) == 0.0:
                    redraws += 1
                    continue
                ys.append(family.apply([lam], [data])[0])
                xs.append(x)
            signs = rng.integers(0, 2, size=(config.trials, config.m)) * 2.0 - 1.0
            ratios.append(_ratio_from_tuples(ys, xs, signs, config.q))
    return ratios, redraws


def _zeroing_sampler(zero_calls):
    """sample_boundary_data, with all coefficients zero on the calls numbered in zero_calls."""
    calls = iter(range(10**6))

    def sampler(rng, spec, modes_per_field, rate_scale=1.0):
        g, hs = sample_boundary_data(rng, spec, modes_per_field, rate_scale)
        if next(calls) not in zero_calls:
            return g, hs
        zero = [ModeField(f.index, f.rates, 0.0 * f.coeffs, spec) for f in (g, *hs)]
        return zero[0], tuple(zero[1:])

    return sampler


class TestLifts:
    @pytest.mark.parametrize("dim", [2, 3])
    @pytest.mark.parametrize("kind", ["S0", "T", "full"])
    def test_lift_profiles_bit_identical_to_per_tuple_reference(self, rng, dim, kind):
        # every mode of every field in one pass: powers 0/1/2, a one-term
        # x^2 profile and fields missing modes, on modes the fields share
        # and (at the last lambda) on modes no two fields share; the
        # full-data lift's normal force has x e^{-r x} terms only (P = 2).
        # Power-0 profiles are bit-identical in their decay support, the
        # others agree to rounding, and a field's rows at a mode it does not
        # carry are exactly zero
        spec = probe_grid(dim=dim, n_tangential=8, n_vertical=48)
        x = spec.vertical_coords()
        term_powers = [(0, 1, 2, 0), (0, 0), (2,), (1, 0, 2), (0,), (0, 0, 0)]
        arity = lift_arity(kind if kind == "S0" else "T", dim)
        # rows per field: one S0 lift, the T lifts of (g, h), or (d, f, g)
        field_rows = {"S0": [arity], "T": [arity] * dim,
                      "full": [dim + 1] + [1] * dim + [arity]}[kind]
        row_kinds = set()
        for lam, shared in ((1.0 + 0.5j, True), (0.02 * np.exp(-1.2j), True), (70.0, False)):
            flat = rng.choice(8 ** (dim - 1), size=len(term_powers), replace=False)
            active = [tuple(int(i) for i in np.unravel_index(j, spec.tangential_shape))
                      for j in flat]
            fields = []
            for i in range(len(field_rows)):
                modes = active[i:] if shared else active[i::len(field_rows)]
                powers = [term_powers[(k + i) % 6] for k in range(len(modes))]
                if kind == "full" and i == dim:  # the normal force
                    powers = [(1,) * len(p) for p in powers]
                fields.append(_random_field(rng, spec, modes, powers))
            if kind == "S0":
                f = fields[0]
                values = _verticals(f.rates, f.coeffs[None], x, LIFT_ORDERS["S0"])
                rows = _lift_vertical(values, _lift_weights([lam], [len(active)], "S0"),
                                      _frequencies(spec, active), dim)
                got = dict(zip(f.indices(), rows))
            elif kind == "T":
                got = lift_boundary_data([lam], [(fields[0], tuple(fields[1:]))])[0].modes
                want = _reference_lift_boundary_data((fields[0], tuple(fields[1:])), lam)
                assert list(got) == list(want.modes)
            else:
                data = (fields[0], tuple(fields[1:-1]), fields[-1])
                got = lift_full_data([lam], [data])[0].modes
                reference = _reference_lift_full_data(data, lam)
                assert list(got) == list(reference)
            ks = spec.tangential_wavenumbers()
            for index in active:
                xi = np.array([ks[i] for i in index])
                profiles = [_profiles(f).get(index, VerticalProfile.zero()) for f in fields]
                if kind == "full":
                    want = reference[index]
                else:
                    want = _reference_lift_profiles(profiles[0] if kind == "S0" else profiles,
                                                    lam, spec, xi, kind)
                reach = [_reach(f, index) for f, n in zip(fields, field_rows) for _ in range(n)]
                exact = [not np.any(p.powers) for p, n in zip(profiles, field_rows)
                         for _ in range(n)]
                _assert_rows_match(got[index], want, x, reach, exact)
                row_kinds.update(exact)
                start = 0
                for f, n in zip(fields, field_rows):
                    if index not in f.indices():
                        assert not np.any(got[index][start:start + n])
                        row_kinds.add("absent")
                    start += n
        assert row_kinds == ({True, False} if kind == "S0" else {True, False, "absent"})

    @pytest.mark.parametrize("dim", [2, 3])
    def test_boundary_lift_merged_and_missing_modes(self, rng, dim):
        # an index drawn twice carries both draws' 4 terms; a mode present
        # in one field only is zero in the others; a mode with fewer terms
        # is padded on a copy of its own rate
        spec = probe_grid(dim=dim, n_tangential=8, n_vertical=64)
        x = spec.vertical_coords()
        a, b, c = [(1,) * (dim - 1), (2,) * (dim - 1), (7,) * (dim - 1)]
        g = _random_field(rng, spec, [a, b], [(0, 0, 0, 0), (0, 0)])
        hs = tuple(_random_field(rng, spec, [b, c], [(0, 0), (0, 0)]) for _ in range(dim - 1))
        assert g.rates.shape == (2, 4) and np.all(g.rates[1, 2:] == g.rates[1, 1])
        assert len(_profiles(g)[a]) == 4 and len(_profiles(g)[b]) == 2
        arity = lift_arity("T", dim)
        for lam in (1.0 + 0.5j, 30.0 * np.exp(1.2j)):
            got = lift_boundary_data([lam], [(g, hs)])[0]
            want = _reference_lift_boundary_data((g, hs), lam)
            assert list(got.modes) == list(want.modes)
            assert got.n_comp == want.n_comp
            for index, v in want.modes.items():
                reach = [_reach(f, index) for f in (g, *hs) for _ in range(arity)]
                _assert_rows_match(got.modes[index], v, x, reach, [True] * len(v))

    @pytest.mark.parametrize("case", ["I", "II", "III", "IV", "V"])
    @pytest.mark.parametrize("dim", [2, 3])
    def test_solve_mode_profiles_lift_bit_identical(self, params_by_case, rng, case, dim):
        # the reduced family's lifts: rho (3 vertical derivatives) and u;
        # cases IV and V carry x e^{-t x} terms, which the (rate, power)
        # layout merges, so they agree to rounding, not bit for bit
        params = params_by_case[case]
        spec = probe_grid(dim=dim, n_tangential=8, n_vertical=48)
        lam = 1.3 * np.exp(0.7j)
        active = [tuple(int(i) for i in rng.integers(0, 8, size=dim - 1)) for _ in range(4)]
        active = list(dict.fromkeys(active))
        g = rng.normal(size=len(active)) + 1j * rng.normal(size=len(active))
        h = rng.normal(size=(len(active), dim - 1)) + 0j
        data = _boundary_data_with_traces(spec, active, g, h)
        _assert_reduced_matches_reference(params, lam, data, exact=case in ("I", "II", "III"))

    @pytest.mark.parametrize("dim", [2, 3])
    def test_rates_rounding_together_are_stacked_with_ordinary_modes(self, params_by_case,
                                                                     rng, dim):
        # case II at lam = 1, |xi| = 1e9: t1, t2 and omega round to one
        # double, yet the mode's batch keeps the case's 3 rate slots, so it
        # is lifted with the xi = 0 mode as it is, term by term; both are
        # bit-identical to the per-term reference
        params = params_by_case["II"]
        spec = probe_grid(dim=dim, n_tangential=8, n_vertical=48,
                          box_half_length=math.pi * 1e-9)
        x = spec.vertical_coords()
        ordinary, merged = (0,) * (dim - 1), (1,) + (0,) * (dim - 2)
        g = rng.normal(size=2) + 1j * rng.normal(size=2)
        h = rng.normal(size=(2, dim - 1)) + 0j
        data = _boundary_data_with_traces(spec, [ordinary, merged], g, h)
        xi = _frequencies(spec, [ordinary, merged])
        batches = [solve_mode(params, TangentialMode(xi=xi[k], lam=1.0, dim=dim),
                              BoundaryTrace(g[k], h[k])).batch for k in range(2)]
        assert [b.rates.shape[1] for b in batches] == [3, 3]
        assert np.all(batches[1].rates == batches[1].rates[0, 0])
        for kind in ("A2", "B2"):
            got = ReducedSolveFamily(params, kind).apply([1.0], [data])[0].modes
            want = _ReferenceReducedFamily(params, kind).apply_one(1.0, data).modes
            for index, b in zip((ordinary, merged), batches):
                reach = DECAY_SUPPORT / b.rates.real.min()
                _assert_rows_match(got[index], want[index], x, [reach] * len(got[index]),
                                   [True] * len(got[index]))

    @pytest.mark.parametrize("dim", [2, 3])
    def test_full_data_lift_bit_identical(self, rng, dim):
        # sample_full_data's normal force has x e^{-r x} terms, which agree
        # to rounding; every other row is bit-identical in its support
        spec = probe_grid(dim=dim, n_tangential=8, n_vertical=64)
        x = spec.vertical_coords()
        for lam in (1.0 + 0.5j, 0.05 * np.exp(-1.2j)):
            data = sample_full_data(rng, spec, modes_per_field=3)
            d, f, g = data
            assert f[-1].coeffs.shape[-1] == 2 and not np.any(f[-1].coeffs[..., 0])
            got = lift_full_data([lam], [data])[0]
            want = _reference_lift_full_data(data, lam)
            assert list(got.modes) == list(want)
            for index, v in want.items():
                assert got.modes[index].shape == (got.n_comp, spec.n_vertical)
                reach = [_reach(d, index)] * (dim + 1) + [_reach(c, index) for c in f] \
                    + [_reach(g, index)] * lift_arity("T", dim)
                exact = [True] * (2 * dim) + [False] + [True] * lift_arity("T", dim)
                _assert_rows_match(got.modes[index], v, x, reach, exact)

    @pytest.mark.parametrize("dim", [2, 3])
    def test_draw_lifts_equal_member_lifts_bit_for_bit(self, params, rng, dim):
        # a draw of members at different lambdas, with different term counts
        # (a mode drawn four times carries 8 terms, so the draw pads the
        # others; numpy would sum a 6-term trace padded to 8 in other pairs)
        # and a member whose h fields are empty: each member's tuple equals
        # the tuple of a draw of that member alone, bit for bit
        spec = probe_grid(dim=dim, n_tangential=8, n_vertical=48)
        zero = _zero_field(spec)
        stacked, six = ((_random_field(rng, spec, [(1,) * (dim - 1)], [(0,) * n_terms]),
                         tuple(_random_field(rng, spec, [(2,) * (dim - 1)], [(0, 0)])
                               for _ in range(dim - 1)))
                        for n_terms in (8, 6))
        datas = [sample_boundary_data(rng, spec, 4), stacked,
                 (sample_boundary_data(rng, spec, 3)[0], (zero,) * (dim - 1)),
                 sample_boundary_data(rng, spec, 2), six]
        lams = [1.3 + 0.4j, 0.05 * np.exp(1.2j), 20.0, 2.0 * np.exp(-1.2j), 0.7 - 0.2j]
        full = [sample_full_data(rng, spec, 3) for _ in lams]
        draws = [(lift_boundary_data, datas), (lift_full_data, full)]
        for kind in ("A2", "B2"):
            family = ReducedSolveFamily(params, kind)
            draws += [(family.apply, datas), (lambda_log_derivative(family).apply, datas)]
        for lift, data in draws:
            together = lift(lams, data)
            assert len(together) == len(lams)
            for lam, d, got in zip(lams, data, together):
                want = lift([lam], [d])[0]
                assert list(got.modes) == list(want.modes)
                assert got.n_comp == want.n_comp
                for index, v in want.modes.items():
                    assert got.modes[index].tobytes() == v.tobytes()

    def test_scalar_rounded_product(self, rng):
        # the derivative coefficients -c t round as numpy's scalar product
        a = rng.normal(size=(2000, 2)) * 10.0 ** rng.uniform(-3, 3, size=(2000, 2))
        b = rng.normal(size=(2000, 2)) * 10.0 ** rng.uniform(-3, 3, size=(2000, 2))
        a, b = a[:, 0] + 1j * a[:, 1], b[:, 0] + 1j * b[:, 1]
        want = np.array([-x * y for x, y in zip(a, b)])  # numpy complex scalars
        got = _derivative(a.reshape(-1, 1, 1), -b.reshape(-1, 1), 1)
        assert got.ravel().tobytes() == want.tobytes()

    @pytest.mark.parametrize("dim", [2, 3])
    def test_no_profile_calculus_per_component(self, params, rng, dim, monkeypatch):
        # structural: the lifts and both reduced families never build,
        # evaluate or differentiate a VerticalProfile (traces are coefficient
        # sums), and the reduced families solve each active mode once, in one
        # `solve_modes` call per apply
        import kortsolve.rbound
        counts = {"__init__": 0, "evaluate": 0, "differentiate": 0}
        for name in counts:
            original = getattr(VerticalProfile, name)

            def counted(self, *args, _name=name, _original=original, **kwargs):
                counts[_name] += 1
                return _original(self, *args, **kwargs)

            monkeypatch.setattr(VerticalProfile, name, counted)
        solves = []

        def counted_solve(params, xi, *args):
            solves.append(len(xi))
            return solve_modes(params, xi, *args)

        monkeypatch.setattr(kortsolve.rbound, "solve_modes", counted_solve)
        spec = probe_grid(dim=dim, n_tangential=16, n_vertical=64)
        data = sample_boundary_data(rng, spec, 4)
        lift_boundary_data([1.0 + 0.5j], [data])
        lift_full_data([1.0 + 0.5j], [sample_full_data(rng, spec, 4)])
        for kind in ("A2", "B2"):
            solves.clear()
            active = ReducedSolveFamily(params, kind).apply([1.0 + 0.5j], [data])[0].modes
            assert solves == [len(active)]
        assert counts == {"__init__": 0, "evaluate": 0, "differentiate": 0}

    def test_arities(self):
        assert lift_arity("S0", 2) == 8 + 4 + 2 + 1
        assert lift_arity("T", 2) == 4 + 2 + 1
        assert lift_arity("S0", 3) == 27 + 9 + 3 + 1

    def test_boundary_lift_shape(self, rng):
        spec = probe_grid(n_tangential=16, n_vertical=64)
        data = sample_boundary_data(rng, spec, 3)
        lifted = lift_boundary_data([1.0 + 0.5j], [data])[0]
        assert lifted.n_comp == 2 * lift_arity("T", 2)
        for arr in lifted.modes.values():
            assert arr.shape == (14, 64)

    def test_parseval_norm_matches_dense(self, rng):
        spec = probe_grid(n_tangential=16, n_vertical=64)
        data = sample_boundary_data(rng, spec, 3)
        lifted = lift_boundary_data([2.0 - 0.7j], [data])[0]
        dense = lifted.synthesize()
        vol = spec.cell_volume()
        dense_norm = (np.sum(np.abs(dense) ** 2) * vol) ** 0.5
        assert lifted.norm(2.0) == pytest.approx(dense_norm, rel=1e-12)

    def test_non_hilbert_norm_positive(self, rng):
        spec = probe_grid(n_tangential=16, n_vertical=64)
        data = sample_boundary_data(rng, spec, 2)
        lifted = lift_boundary_data([1.0], [data])[0]
        assert lifted.norm(1.5) > 0
        assert lifted.norm(4.0) > 0

    def test_tuple_algebra(self, rng):
        spec = probe_grid(n_tangential=16, n_vertical=64)
        a, b = lift_boundary_data([1.0, 1.0], [sample_boundary_data(rng, spec, 2)
                                               for _ in range(2)])
        c = a + b.scaled(-1.0)
        # inner products are conjugate-symmetric and consistent with norms
        assert a.inner(a).real == pytest.approx(a.norm() ** 2, rel=1e-12)
        assert a.inner(b) == pytest.approx(np.conj(b.inner(a)), rel=1e-12)
        assert c.norm() <= a.norm() + b.norm()


class TestFamilies:
    def test_identity_ratio_exactly_one(self):
        rep = estimate_rbound(IdentityFamily(), SMALL)
        assert all(abs(r - 1.0) <= 1e-12 for r in rep.all_ratios)
        assert rep.global_max == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("dim, kinds", [(2, ("A2", "B2", "dA2", "dB2")), (3, ("A2", "B2"))])
    def test_probe_ratios_equal_per_mode_reference(self, params, dim, kinds):
        # the array lifts leave every probe ratio unchanged, bit for bit;
        # with four draws per field some lattice indices are drawn twice
        spec = probe_grid(dim=dim, n_tangential=8 if dim == 3 else 16, n_vertical=64)
        cfg = ProbeConfig(m=3, trials=60, rng_seed=5, draws_per_decade=1, modes_per_field=4)
        for kind in kinds:
            fam, ref = (c(params, kind.lstrip("d")) for c in (ReducedSolveFamily,
                                                               _ReferenceReducedFamily))
            if kind.startswith("d"):
                fam, ref = lambda_log_derivative(fam), lambda_log_derivative(ref)
            got = estimate_rbound(fam, cfg, spec).all_ratios
            assert got == estimate_rbound(ref, cfg, spec).all_ratios, kind
        got = estimate_rbound(IdentityFamily(), cfg, spec).all_ratios
        assert got == estimate_rbound(_ReferenceIdentity(), cfg, spec).all_ratios

    def test_redraws_keep_the_sequential_stream(self, params):
        # zero data on calls 1 and 2 (the last member of the first draw),
        # again on call 3 (the first redraw) and later on single calls: the
        # redraws are counted and every ratio equals the sequential probe's
        spec = probe_grid(n_tangential=16, n_vertical=64)
        cfg = ProbeConfig(m=3, trials=50, rng_seed=4, draws_per_decade=2, decades=(0.1, 10.0),
                          modes_per_field=2)
        zero_calls = {1, 2, 3, 8, 11, 14}
        families = [IdentityFamily(), ReducedSolveFamily(params, "A2"),
                    lambda_log_derivative(ReducedSolveFamily(params, "B2"))]
        for family in families:
            rep = estimate_rbound(family, cfg, spec, sampler=_zeroing_sampler(zero_calls))
            want, redraws = _sequential_probe(family, cfg, spec, _zeroing_sampler(zero_calls))
            assert rep.redraws == redraws == len(zero_calls)
            assert rep.all_ratios == want, family.name

    @pytest.mark.parametrize("kind, passes", [("A2", 1), ("dB2", 2)])
    def test_one_evaluation_per_lift_pass(self, params, monkeypatch, kind, passes):
        # a draw makes one evaluate_profiles call for its input lift and one
        # per base apply pass, and one solve_modes call per apply pass
        import kortsolve.rbound
        counts = {"evaluate": 0, "solve": 0}

        def counter(name, original):
            def counted(*args, **kwargs):
                counts[name] += 1
                return original(*args, **kwargs)
            return counted

        monkeypatch.setattr(kortsolve.rbound, "evaluate_profiles",
                            counter("evaluate", kortsolve.rbound.evaluate_profiles))
        monkeypatch.setattr(kortsolve.rbound, "solve_modes",
                            counter("solve", kortsolve.rbound.solve_modes))
        spec = probe_grid(n_tangential=16, n_vertical=64)
        cfg = ProbeConfig(m=4, trials=50, rng_seed=6, draws_per_decade=2, decades=(0.1, 10.0))
        family = ReducedSolveFamily(params, kind.lstrip("d"))
        if kind.startswith("d"):
            family = lambda_log_derivative(family)
        assert estimate_rbound(family, cfg, spec).redraws == 0
        draws = 2 * cfg.draws_per_decade
        assert counts["evaluate"] == draws * (1 + passes)
        assert counts["solve"] == draws * passes
        counts.update(evaluate=0, solve=0)
        _sequential_probe(family, cfg, spec)
        assert counts["evaluate"] == draws * cfg.m * (1 + passes)
        assert counts["solve"] == draws * cfg.m * passes

    def test_benchmark_probe_ratios_match_refs(self, params):
        # the benchmark's probe gate at its config (case I, m = 8, 200
        # trials, seed 0, default grid): per-decade ratios of the four
        # families against the recorded references of variant 0
        want = json.loads(REFS.read_text())["rbound_reduced"]["0"]
        cfg = ProbeConfig(m=8, trials=200, rng_seed=0)
        for kind in ("A2", "B2", "dA2", "dB2"):
            fam = ReducedSolveFamily(params, kind.lstrip("d"))
            if kind.startswith("d"):
                fam = lambda_log_derivative(fam)
            got = list(estimate_rbound(fam, cfg).decade_ratios.values())
            assert len(got) == len(want[kind]), kind
            assert all(abs(r / w - 1.0) <= 1e-12 for r, w in zip(got, want[kind])), kind

    @pytest.mark.parametrize("decades", [(1e-2, 5e1), (1e-2, 2e-1), (0.0, 1.0), (1.0, 0.1),
                                         (1.0, math.inf), (1.0, 1.0), (1e-300, 1e300),
                                         (5e-324, 1.0)])
    def test_decades_must_be_whole_and_ordered(self, decades):
        from kortsolve import GridError
        with pytest.raises(GridError, match="decades must be"):
            estimate_rbound(IdentityFamily(), ProbeConfig(decades=decades))

    @pytest.mark.parametrize("controls", [{"draws_per_decade": 0}, {"modes_per_field": 0},
                                          {"lambda_args": ()}, {"q": 0.0}, {"q": 0.5},
                                          {"q": -1.0}, {"q": math.inf}, {"q": math.nan},
                                          {"lambda_args": (math.nan,)},
                                          {"lambda_args": (0.0, math.inf)},
                                          {"lambda_args": (2.0,)},
                                          {"lambda_args": (-math.pi / 2,)}])
    def test_probe_controls_validated(self, controls):
        from kortsolve import DomainError
        with pytest.raises(DomainError):
            ProbeConfig(**controls)

    def test_decades_rounding_tolerated(self):
        rep = estimate_rbound(IdentityFamily(), ProbeConfig(m=2, trials=50, draws_per_decade=1,
                                                            decades=(0.1, 0.1 * 1e2 * (1 + 1e-12))))
        assert list(rep.decade_ratios) == ["[0.1,1)", "[1,10)"]

    @pytest.mark.parametrize("scale", [math.nan, math.inf])
    def test_degenerate_means_rejected(self, rng, scale):
        # a NaN or infinite mean must not pass for a ratio (max(0.0, nan) is
        # 0.0), nor a zero denominator
        from kortsolve import DomainError
        spec = probe_grid(n_tangential=16, n_vertical=64)
        x = IdentityFamily().input_lift([1.3 + 0.4j], [sample_boundary_data(rng, spec, 2)])[0]
        with np.errstate(invalid="ignore"):
            bad = x.scaled(scale)
        for ys, xs in (([bad], [x]), ([x], [bad]), ([x], [x.scaled(0.0)])):
            with pytest.raises(DomainError, match="degenerate"):
                _ratio_from_tuples(ys, xs, np.ones((50, 1)), 2.0)

    def test_direct_tuples_survive_a_probe(self, params, rng):
        # the probe reuses its draws' buffers, but a tuple from a direct call
        # owns its arrays
        spec = probe_grid(n_tangential=16, n_vertical=64)
        family = lambda_log_derivative(ReducedSolveFamily(params, "B2"))
        lams, datas = [1.3 + 0.4j, 0.2 - 0.1j], [sample_boundary_data(rng, spec, 3)
                                                 for _ in range(2)]
        tuples = family.apply(lams, datas) + family.input_lift(lams, datas) \
            + lift_full_data(lams[:1], [sample_full_data(rng, spec, 3)])
        kept = [{k: v.copy() for k, v in t.modes.items()} for t in tuples]
        for fam in (family, IdentityFamily()):
            estimate_rbound(fam, ProbeConfig(m=4, trials=50, draws_per_decade=2,
                                             decades=(0.1, 10.0)), spec)
        for t, modes in zip(tuples, kept):
            assert t.modes.keys() == modes.keys()
            assert all(np.array_equal(t.modes[k], v) for k, v in modes.items())

    def test_m_equals_one_is_norm_ratio(self, params, rng):
        # with a single member the Rademacher sum degenerates to ||Tf|| / ||f||
        from kortsolve.rbound import _ratio_from_tuples
        spec = probe_grid(n_tangential=16, n_vertical=96)
        fam = ReducedSolveFamily(params, "A2")
        data = sample_boundary_data(rng, spec, 2)
        lam = 1.3 + 0.4j
        (y,), (x,) = fam.apply([lam], [data]), fam.input_lift([lam], [data])
        signs = np.sign(np.random.default_rng(1).normal(size=(50, 1)))
        ratio = _ratio_from_tuples([y], [x], signs, 2.0)
        assert ratio == pytest.approx(y.norm() / x.norm(), rel=1e-12)

    def test_reduced_families_stable_across_decades(self, params):
        cfg = ProbeConfig(m=8, trials=200, rng_seed=42)
        for kind in ("A2", "B2"):
            fam = ReducedSolveFamily(params, kind)
            rep = estimate_rbound(fam, cfg)
            assert rep.decade_spread <= 10.0, kind
            drep = estimate_rbound(lambda_log_derivative(fam), cfg)
            assert drep.decade_spread <= 10.0, f"d{kind}"

    def test_scale_invariance_of_probe(self, params):
        cfg = ProbeConfig(m=4, trials=80, rng_seed=3, draws_per_decade=1)

        def scaled(f):
            return ModeField(f.index, f.rates, 137.0 * f.coeffs, f.spec)

        def scaled_sampler(rng_, spec_, mpf, rate_scale=1.0):
            g, hs = sample_boundary_data(rng_, spec_, mpf, rate_scale)
            return (scaled(g), tuple(scaled(h) for h in hs))

        fam = ReducedSolveFamily(params, "B2")
        r1 = estimate_rbound(fam, cfg).global_max
        r2 = estimate_rbound(fam, cfg, sampler=scaled_sampler).global_max
        assert r2 == pytest.approx(r1, rel=1e-12)

    def test_trial_doubling_stability(self, params):
        fam = ReducedSolveFamily(params, "A2")
        r200 = estimate_rbound(fam, ProbeConfig(m=8, trials=200, rng_seed=7)).global_max
        r400 = estimate_rbound(fam, ProbeConfig(m=8, trials=400, rng_seed=7)).global_max
        assert abs(r400 - r200) / r200 <= 0.20

    def test_determinism(self, params):
        fam = ReducedSolveFamily(params, "A2")
        a = estimate_rbound(fam, SMALL).to_json()
        b = estimate_rbound(fam, SMALL).to_json()
        assert a == b

    def test_full_families_run(self, params):
        spec = probe_grid(n_tangential=16, n_vertical=96)
        cfg = ProbeConfig(m=2, trials=50, rng_seed=1, draws_per_decade=1,
                          decades=(0.1, 10.0), modes_per_field=2)
        for kind in ("A", "B"):
            fam = FullSolveFamily(params, kind)
            rep = estimate_rbound(fam, cfg, spec, sampler=sample_full_data)
            assert rep.global_max > 0
            assert math.isfinite(rep.decade_spread)

    @pytest.mark.parametrize("dim", [2, 3])
    @pytest.mark.parametrize("kind", ["A", "B"])
    def test_full_family_matches_grid_route(self, params, kind, dim):
        # the lift of the whole-space part stays in the tangential spectrum
        # and the correction lift is added there, before one inverse FFT
        spec = probe_grid(dim=dim, n_tangential=16 if dim == 2 else 8,
                          n_vertical=96 if dim == 2 else 48)
        data = sample_full_data(np.random.default_rng(5 + dim), spec, modes_per_field=3)
        family = FullSolveFamily(params, kind)
        for lam in (1.0 + 0.5j, 0.3 * np.exp(1.2j), 20.0):
            got = family.apply([lam], [data])[0].synthesize()
            want = _reference_full_apply(family, lam, data)
            assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))

    @pytest.mark.parametrize("kind", ["A", "B"])
    def test_full_family_reduces_to_boundary_family(self, params, kind, mode_solves):
        # with d = f = 0 the whole-space part vanishes and the full-data
        # operator is the boundary-data operator, one mode solve per lattice mode
        spec = probe_grid(n_tangential=16, n_vertical=64)
        g = sample_boundary_data(np.random.default_rng(3), spec, modes_per_field=4)[0]
        zero = _zero_field(spec)
        for lam in (1.0 + 0.5j, 0.3 * np.exp(1.2j), 20.0):
            mode_solves.clear()
            full = FullSolveFamily(params, kind).apply([lam], [(zero, (zero, zero), g)])[0]
            full = full.synthesize()
            assert len(mode_solves) == spec.n_tangential
            ref = ReducedSolveFamily(params, kind + "2").apply([lam], [(g, (zero,))])[0]
            ref = ref.synthesize()
            assert np.max(np.abs(full - ref)) <= 1e-12 * np.max(np.abs(ref))

    @pytest.mark.parametrize("dim", [2, 3])
    @pytest.mark.parametrize("kind", ["A", "B"])
    def test_full_family_gram_through_parseval(self, params, kind, dim):
        # the output tuples, kept per lattice mode, have the grid's inner
        # products by discrete Parseval; relative to ||s|| ||o||, since two
        # members that share few modes have an inner product near rounding
        spec = probe_grid(dim=dim, n_tangential=16 if dim == 2 else 8,
                          n_vertical=96 if dim == 2 else 48)
        rng = np.random.default_rng(20 + dim)
        lams = [1.0 + 0.5j, 0.3 * np.exp(1.2j), 20.0]
        ys = FullSolveFamily(params, kind).apply(lams, [sample_full_data(rng, spec, 3)
                                                        for _ in lams])
        assert all(list(y.modes) == list(np.ndindex(spec.tangential_shape)) for y in ys)
        dense = [y.synthesize() for y in ys]
        for s_tuple, s_dense in zip(ys, dense):
            for o_tuple, o_dense in zip(ys, dense):
                want = np.vdot(o_dense, s_dense) * spec.cell_volume()
                scale = s_tuple.norm() * o_tuple.norm()
                assert abs(s_tuple.inner(o_tuple) - want) <= 1e-13 * scale


class TestLogDerivative:
    def test_lambda_independent_family_maps_to_zero(self):
        spec = probe_grid(n_tangential=16, n_vertical=64)

        class Constant:
            name = "const"

            def apply(self, lams, datas):
                # frozen lift: no lam dependence
                return lift_boundary_data([1.0] * len(datas), datas)

            def input_lift(self, lams, datas):
                return lift_boundary_data([1.0] * len(datas), datas)

        dfam = lambda_log_derivative(Constant(), rel_step=1e-3)
        rng = np.random.default_rng(0)
        data = sample_boundary_data(rng, spec, 2)
        (y,), (x,) = dfam.apply([2.0], [data]), dfam.input_lift([2.0], [data])
        assert y.norm() <= 1e-10 * x.norm()

    def test_scalar_family_lambda(self):
        spec = probe_grid(n_tangential=16, n_vertical=64)

        class Mult:
            name = "lam"

            def apply(self, lams, datas):
                return [x.scaled(lam) for lam, x in zip(lams, self.input_lift(lams, datas))]

            def input_lift(self, lams, datas):
                return lift_boundary_data([1.0] * len(datas), datas)

        rng = np.random.default_rng(0)
        data = sample_boundary_data(rng, spec, 2)
        lam = 0.8 + 0.3j
        got = lambda_log_derivative(Mult(), 1e-3).apply([lam], [data])[0]
        want = lift_boundary_data([1.0], [data])[0].scaled(lam)
        diff = (got + want.scaled(-1.0)).norm() / want.norm()
        assert diff <= 1e-12  # exact for a linear-in-lambda family

    def test_step_halving_consistency(self, params, rng):
        spec = probe_grid(n_tangential=16, n_vertical=96)
        fam = ReducedSolveFamily(params, "B2")
        data = sample_boundary_data(rng, spec, 3)
        lam = 1.0 + 0.2j
        x = fam.input_lift([lam], [data])[0]
        vals = []
        for h in (2e-3, 1e-3):
            y = lambda_log_derivative(fam, h).apply([lam], [data])[0]
            vals.append(y.norm() / x.norm())
        assert abs(vals[1] - vals[0]) / vals[1] <= 0.01

    def test_step_bounds(self, params):
        from kortsolve import DomainError
        fam = ReducedSolveFamily(params, "A2")
        with pytest.raises(DomainError):
            lambda_log_derivative(fam, 0.5)
        with pytest.raises(DomainError):
            lambda_log_derivative(fam, 1e-9)
