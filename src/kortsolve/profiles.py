"""Vertical profiles sum(c * x^m * exp(-t*x)) and confluent exponential kernels.

Every per-mode solution component produced by this package lives in the family

    p(x) = sum_i  c_i * x**m_i * exp(-t_i * x),   m_i in {0, 1, 2},  Re t_i > 0,

which is closed under differentiation and under the linear algebra the solvers
need.  The divided-difference kernels (exp(-t2*x) - exp(-t1*x)) / (t2 - t1)
degenerate to -x*exp(-t*x) when the rates collide; `confluent_m0` evaluates
them stably through the collision.
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError

# Below this value of |t2 - t1| * x the direct divided difference is evaluated
# through the phi-series (see `_phi1`); direct subtraction would lose digits.
CONFLUENT_SWITCH = 1e-3


class VerticalProfile:
    """Finite sum of terms c * x^m * exp(-t x) on the half-line x >= 0.

    Terms are stored as parallel arrays (coefficients, integer powers, decay
    rates).  All rates must have strictly positive real part so the profile
    decays as x -> infinity.  It is the one-mode view of a `ModeSolution`
    component, and its term-by-term algebra is the reference that the
    batched coefficient transforms are checked against.
    """

    __slots__ = ("coeffs", "powers", "rates")

    def __init__(self, terms=(), *, _raw=None):
        if _raw is not None:
            self.coeffs, self.powers, self.rates = _raw
            return
        terms = list(terms)
        self.coeffs = np.array([complex(c) for c, _, _ in terms], dtype=complex)
        self.powers = np.array([int(m) for _, m, _ in terms], dtype=int)
        self.rates = np.array([complex(t) for _, _, t in terms], dtype=complex)
        if np.any(self.powers < 0) or np.any(self.powers > 2):
            raise DomainError("profile powers must lie in {0, 1, 2}")
        if len(self.rates) and np.any(self.rates.real <= 0.0):
            raise DomainError("profile rates must have positive real part")

    @classmethod
    def zero(cls):
        return cls([])

    def terms(self):
        """Iterate (coeff, power, rate) triples."""
        return list(zip(self.coeffs, self.powers, self.rates))

    def __len__(self):
        return len(self.coeffs)

    # -- algebra ----------------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, VerticalProfile):
            return NotImplemented
        raw = (
            np.concatenate([self.coeffs, other.coeffs]),
            np.concatenate([self.powers, other.powers]),
            np.concatenate([self.rates, other.rates]),
        )
        return VerticalProfile(_raw=raw)

    def __sub__(self, other):
        return self + other.scaled(-1.0)

    def scaled(self, factor):
        return VerticalProfile(_raw=(self.coeffs * complex(factor), self.powers.copy(), self.rates.copy()))

    # -- calculus ---------------------------------------------------------

    def evaluate(self, x):
        """Evaluate at x >= 0 (scalar or array)."""
        x_arr = np.asarray(x, dtype=float)
        if np.any(x_arr < 0):
            raise DomainError("profiles are defined for x >= 0 only")
        if len(self) == 0:
            return np.zeros(x_arr.shape, dtype=complex) if x_arr.ndim else 0j
        xf = x_arr.reshape(-1)
        vals = self.coeffs[:, None] * xf[None, :] ** self.powers[:, None] \
            * np.exp(-self.rates[:, None] * xf[None, :])
        out = vals.sum(axis=0)
        if x_arr.ndim == 0:
            return complex(out[0])
        return out.reshape(x_arr.shape)

    def differentiate(self, order=1):
        """Exact derivative of the given order (1, 2 or 3)."""
        if order not in (1, 2, 3):
            raise DomainError("derivative order must be 1, 2 or 3")
        prof = self
        for _ in range(order):
            terms = []
            for c, m, t in prof.terms():
                terms.append((-c * t, m, t))
                if m > 0:
                    terms.append((c * m, m - 1, t))
            prof = VerticalProfile(terms)
        return prof

    # -- diagnostics ------------------------------------------------------

    def magnitude_scale(self):
        """Sum of |coefficients|; crude a-priori bound scale for the profile."""
        return float(np.sum(np.abs(self.coeffs))) if len(self) else 0.0


def _phi1(z):
    """(exp(z) - 1)/z via a 6-term Taylor series; valid for small |z|.

    Truncation error ~ |z|^6 / 5040, i.e. below 1e-21 for |z| <= 1e-3.
    """
    return 1.0 + z * (1.0 / 2.0 + z * (1.0 / 6.0 + z * (1.0 / 24.0 + z * (1.0 / 120.0 + z / 720.0))))


def confluent_m0(t1, t2, x):
    """Divided difference (exp(-t2 x) - exp(-t1 x)) / (t2 - t1).

    Continuous through t1 == t2 with limit -x * exp(-t1 x).  Near confluence
    (|t2 - t1| * x below CONFLUENT_SWITCH) the value is computed as
    -x * exp(-t1 x) * phi(-(t2 - t1) x) with phi(z) = (exp(z) - 1)/z, which
    does not suffer the cancellation of the direct difference.

    Accepts scalar rates and scalar or array x.
    """
    t1 = complex(t1)
    t2 = complex(t2)
    if t1.real <= 0.0 or t2.real <= 0.0:
        raise DomainError("confluent kernel rates must have positive real part")
    x_arr = np.asarray(x, dtype=float)
    scalar = x_arr.ndim == 0
    xf = np.atleast_1d(x_arr)
    dt = t2 - t1
    z = -dt * xf
    out = np.empty(xf.shape, dtype=complex)
    small = np.abs(z) < CONFLUENT_SWITCH
    if np.any(small):
        xs = xf[small]
        out[small] = -xs * np.exp(-t1 * xs) * _phi1(z[small])
    if np.any(~small):
        xl = xf[~small]
        out[~small] = (np.exp(-t2 * xl) - np.exp(-t1 * xl)) / dt
    if scalar:
        return complex(out[0])
    return out


def confluent_mj(tj, omega, t1, t2, x):
    """Kernel (exp(-tj x) - exp(-omega x)) / (t2 - t1).

    The numerator rate pair (tj, omega) is decoupled from the denominator
    t2 - t1, so no confluent smoothing applies: the kernel is only meaningful
    where t1 != t2 (distinct-root cases).  A nearly vanishing denominator
    signals misuse and raises.
    """
    tj = complex(tj)
    omega = complex(omega)
    t1 = complex(t1)
    t2 = complex(t2)
    for rate in (tj, omega, t1, t2):
        if rate.real <= 0.0:
            raise DomainError("confluent kernel rates must have positive real part")
    dt = t2 - t1
    if abs(dt) < 1e3 * np.finfo(float).eps * abs(t2):
        raise DomainError(
            "confluent_mj requires well-separated t1, t2 "
            f"(|t2-t1|={abs(dt):.3e}, |t2|={abs(t2):.3e})"
        )
    x_arr = np.asarray(x, dtype=float)
    scalar = x_arr.ndim == 0
    xf = np.atleast_1d(x_arr)
    if tj == omega:
        out = np.zeros(xf.shape, dtype=complex)
    else:
        out = (np.exp(-tj * xf) - np.exp(-omega * xf)) / dt
    if scalar:
        return complex(out[0])
    return out
