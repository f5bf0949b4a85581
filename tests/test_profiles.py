import math

import mpmath as mp
import numpy as np
import pytest

from kortsolve import DomainError, VerticalProfile, confluent_m0, confluent_mj


def test_eval_single_exponential():
    p = VerticalProfile([(1.0, 0, 1.0)])
    assert p.evaluate(1.0) == pytest.approx(math.exp(-1.0))


def test_eval_linear_term_vanishes_at_zero():
    p = VerticalProfile([(1.0, 1, 1.0)])
    assert p.evaluate(0.0) == 0.0


def test_eval_quadratic_complex_rate():
    # high-precision reference: 2 * 1^2 * exp(-(1+1j))
    p = VerticalProfile([(2.0, 2, 1.0 + 1.0j)])
    want = 0.39753222069282588 - 0.61911975130622440j
    assert p.evaluate(1.0) == pytest.approx(want, rel=1e-14)


def test_eval_vectorized_matches_scalar():
    p = VerticalProfile([(1.5, 0, 1.0 + 0.3j), (-0.5j, 2, 0.7), (2.0, 1, 2.0)])
    xs = np.linspace(0.0, 10.0, 23)
    vals = p.evaluate(xs)
    for x, v in zip(xs, vals):
        assert v == pytest.approx(p.evaluate(float(x)), rel=1e-15)


def test_rejects_growing_rate_and_bad_power():
    with pytest.raises(DomainError):
        VerticalProfile([(1.0, 0, -1.0)])
    with pytest.raises(DomainError):
        VerticalProfile([(1.0, 3, 1.0)])


def test_differentiate_plain_exponential():
    p = VerticalProfile([(1.0, 0, 2.0)]).differentiate()
    assert p.terms() == [(-2.0, 0, 2.0)]


def test_differentiate_product_rule():
    # d/dx (x e^{-tx}) = e^{-tx} - t x e^{-tx}
    p = VerticalProfile([(1.0, 1, 1.5)]).differentiate()
    got = {(m, t): c for c, m, t in p.terms()}
    assert got[(0, 1.5)] == 1.0
    assert got[(1, 1.5)] == -1.5


def test_second_derivative_value():
    # d^2/dx^2 (x e^{-x}) = (x - 2) e^{-x}
    p = VerticalProfile([(1.0, 1, 1.0)]).differentiate(2)
    assert p.evaluate(1.0) == pytest.approx(-math.exp(-1.0), rel=1e-14)


def test_differentiation_closed_and_invariant():
    p = VerticalProfile([(1.0 + 2.0j, 2, 0.5 + 1.0j), (3.0, 1, 2.0)])
    d3 = p.differentiate(3)
    assert all(0 <= m <= 2 for _, m, _ in d3.terms())
    assert all(t.real > 0 for _, _, t in d3.terms())


def test_ode_identity_first_confluent():
    # (d^2 - w^2)(x e^{-wx}) = -2 w e^{-wx}
    w = 0.8 + 0.6j
    p = VerticalProfile([(1.0, 1, w)])
    lhs = p.differentiate(2) + p.scaled(-w * w)
    rhs = VerticalProfile([(-2.0 * w, 0, w)])
    xs = np.linspace(0.0, 5.0, 11)
    np.testing.assert_allclose(lhs.evaluate(xs), rhs.evaluate(xs), rtol=0, atol=1e-12)


def test_ode_identity_second_confluent():
    # (d^2 - w^2)(x^2 e^{-wx}) = 2 e^{-wx} - 4 w x e^{-wx}
    w = 1.3 - 0.4j
    p = VerticalProfile([(1.0, 2, w)])
    lhs = p.differentiate(2) + p.scaled(-w * w)
    rhs = VerticalProfile([(2.0, 0, w), (-4.0 * w, 1, w)])
    xs = np.linspace(0.0, 4.0, 9)
    np.testing.assert_allclose(lhs.evaluate(xs), rhs.evaluate(xs), rtol=0, atol=1e-12)


def test_decay_envelope():
    p = VerticalProfile([(2.0, 0, 1.0), (1.0 - 1.0j, 1, 2.0), (0.5, 2, 1.5)])
    xs = np.linspace(0.0, 40.0, 81)
    min_rate = min(t.real for _, _, t in p.terms())
    bound = p.magnitude_scale() * (1.0 + xs**2) * np.exp(-min_rate * xs)
    assert np.all(np.abs(p.evaluate(xs)) <= bound + 1e-300)


# -- confluent kernels ------------------------------------------------------


def test_m0_exactly_confluent():
    assert confluent_m0(1.0, 1.0, 1.0) == pytest.approx(-math.exp(-1.0), rel=1e-15)


def test_m0_plain_difference():
    want = math.exp(-2.0) - math.exp(-1.0)
    assert confluent_m0(1.0, 2.0, 1.0) == pytest.approx(want, rel=1e-14)


def test_m0_near_confluence_against_mpmath():
    # 50-digit divided difference at separation 1e-10
    want = -0.36787944115304834954  # (e^{-(1+1e-10)} - e^{-1}) / 1e-10
    got = confluent_m0(1.0, 1.0 + 1e-10, 1.0)
    assert got == pytest.approx(want, rel=1e-12)


def _mp_divided_difference(t1, t2, x):
    t1, t2 = mp.mpc(t1), mp.mpc(t2)
    if t1 == t2:
        return complex(-x * mp.e ** (-t1 * x))
    return complex((mp.e ** (-t2 * x) - mp.e ** (-t1 * x)) / (t2 - t1))


def test_m0_sweep_through_switch_boundary():
    mp.mp.dps = 50
    t1 = 1.0 + 0.5j
    x = 1.0
    # |dt| * x from far below to far above the series/direct switch at 1e-3
    for exponent in range(-14, 1):
        dt = 10.0 ** exponent * (0.6 + 0.8j)
        got = confluent_m0(t1, t1 + dt, x)
        want = _mp_divided_difference(t1, t1 + dt, x)
        assert abs(got - want) <= 1e-12 * abs(want), f"|dt|x = 1e{exponent}"


def test_mj_zero_when_rates_match():
    assert confluent_mj(1.3, 1.3, 1.0, 2.0, 0.7) == 0.0


def test_mj_plain_value():
    want = (math.exp(-1.0) - math.exp(-2.0)) / 2.0
    assert confluent_mj(1.0, 2.0, 1.0, 3.0, 1.0) == pytest.approx(want, rel=1e-14)


def test_mj_rejects_collapsed_denominator():
    with pytest.raises(DomainError):
        confluent_mj(1.0, 2.0, 1.0, 1.0 + 1e-17, 1.0)


def test_confluent_continuity_bound():
    # The sharp continuity modulus toward the collision limit -x e^{-tx} is
    # |dt| * max(x^2 e^{-x}) / 2 = 0.2707 |dt| (attained at x = 2), so the
    # deviation over x in [0, 50] stays below 0.28 |dt| for any correct
    # evaluation; at |dt| <= 3e-9 that is below 1e-9 absolute.
    t = 1.0
    xs = np.linspace(0.0, 50.0, 101)
    for dt in (1e-8, 1e-9 * (1.0 + 1.0j), -1e-8, 3e-9):
        vals = confluent_m0(t, t + dt, xs)
        limit = -xs * np.exp(-t * xs)
        assert np.max(np.abs(vals - limit)) <= 0.28 * abs(dt) + 1e-15
        if abs(dt) <= 3e-9:
            assert np.max(np.abs(vals - limit)) <= 1e-9
