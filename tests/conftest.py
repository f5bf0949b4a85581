import numpy as np
import pytest

from kortsolve import classify

# One parameter triple per regime; reused across the suite.
CASE_PARAMS = {
    "I": (1, 1, 2),
    "II": (3, 1, 1),
    "III": (2, 1, 2),
    "IV": (3, 1, 4),
    "V": (1, 1, 1),
}


@pytest.fixture(scope="session")
def params_by_case():
    return {name: classify(*triple) for name, triple in CASE_PARAMS.items()}


@pytest.fixture()
def mode_solves(monkeypatch):
    """List that grows by one per lattice mode solved through kortsolve.fields.solve_modes."""
    import kortsolve.fields
    calls = []
    solve = kortsolve.fields.solve_modes

    def counted(params, xi, *args, **kwargs):
        calls.extend([1] * len(xi))
        return solve(params, xi, *args, **kwargs)

    monkeypatch.setattr(kortsolve.fields, "solve_modes", counted)
    return calls


@pytest.fixture()
def rng():
    return np.random.default_rng(20240811)


def random_mode_values(rng, n, xi_range=(1e-2, 1e2), lam_range=(1e-2, 1e2),
                       arg_range=(-1.4, 1.4), dim=2):
    """Log-uniform random (xi, lambda) draws for sweep tests."""
    out = []
    for _ in range(n):
        xi = np.array([
            rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(np.log10(xi_range[0]), np.log10(xi_range[1]))
            for _ in range(dim - 1)
        ])
        lam_mag = 10.0 ** rng.uniform(np.log10(lam_range[0]), np.log10(lam_range[1]))
        lam = lam_mag * np.exp(1j * rng.uniform(*arg_range))
        out.append((xi, complex(lam)))
    return out


def random_trace(rng, dim=2):
    g = complex(rng.normal(), rng.normal())
    h = rng.normal(size=dim - 1) + 1j * rng.normal(size=dim - 1)
    return g, h
