"""Test-only copies of superseded kernels, kept as bit-for-bit references."""

import numpy as np

from kortsolve.modes import DECAY_SUPPORT


def scatter_evaluate_profiles(rates, coeffs, x, out=None):
    """`modes.evaluate_profiles` as a per-(rate, power, block) gather-add-scatter.

    Every step gathers c[m, r, p] per support pair and adds its term into the
    output through `o[at] += ...`.  The engine gathers each block once, adds
    in pair space and scatters once, with the same operations per element in
    the same order, so the two agree bit for bit.  The argument checks are
    the engine's and are left out here.
    """
    x = np.asarray(x, dtype=float)
    if out is None:
        out = np.zeros(coeffs.shape[:-2] + x.shape, dtype=complex)
    n_rates, n_powers = coeffs.shape[-2:]
    live = np.any(coeffs != 0.0, axis=tuple(range(coeffs.ndim - 3)) + (-1,))
    decays = np.isfinite(rates) & (rates.real > 0.0)
    slowest = np.where(decays, rates.real, np.inf).min(axis=1, initial=np.inf)
    reach = np.where(live.any(axis=1), DECAY_SUPPORT / slowest, -np.inf)
    pairs = np.flatnonzero(x <= reach[:, None])
    modes, xs = pairs // x.size, x[pairs % x.size]
    pairs += modes * (out.shape[-1] - x.size)
    blocks = [(coeffs[i], out[i].reshape(-1)) for i in np.ndindex(coeffs.shape[:-3])]
    for r in range(n_rates):
        on = live[modes, r]
        if on.all():
            m, xr, at = modes, xs, pairs
        elif on.any():
            m, xr, at = modes[on], xs[on], pairs[on]
        else:
            continue
        basis = np.exp(-(rates[m, r] * xr))
        for p in range(n_powers):
            if p:
                basis = basis * xr
            for c, o in blocks:
                o[at] += c[m, r, p] * basis
    return out
