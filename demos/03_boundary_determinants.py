"""Boundary determinants: nonvanishing scans and asymptotic constants.

Unique per-mode solvability hinges on a 2x2 boundary determinant staying away
from zero, uniformly in (xi, lambda).  This script evaluates the determinant
two ways, both read from the symbol registry (the raw 2x2 expansion on the
registry's matrix entries vs the closed factorization), scans the normalized
modulus of the case-specific denominators, and follows the m_k symbols into
both asymptotic regimes.
"""

import numpy as np

from kortsolve import ScanGrid, asymptotic_check, classify, lower_bound_scan, make_named_symbol

xi, lam = np.array([0.8]), 1.5 + 0.5j
for matrix, triple in [("L", (1, 1, 2)), ("M", (3, 1, 4))]:
    det = make_named_symbol(classify(*triple), "det" + matrix)
    raw, fac = det.eval(xi, lam), det.alt_eval(xi, lam)
    print(f"det {matrix} raw vs factored: {raw:.10g} vs {fac:.10g} "
          f"(rel diff {abs(raw - fac) / abs(fac):.1e})")

print()
print("normalized infima over a 24x24x5 log grid (all must be > 0):")
grid = ScanGrid.logspace(n_xi=24, n_lam=24, n_arg=5)
for case, triple, name, power in [
    ("I", (1, 1, 2), "m1", 4),
    ("II", (3, 1, 1), "m2", 4),
    ("III", (2, 1, 2), "d3", 2),
    ("IV", (3, 1, 4), "q", 3),
    ("V", (1, 1, 1), "d5", 2),
]:
    p = classify(*triple)
    rep = lower_bound_scan(p, name, grid)
    print(f"  case {case:3} |{name}|/scale^{power}: inf = {rep.infimum:.6f} "
          f"at |xi| = {rep.argmin_xi:.3g}, lambda = {rep.argmin_lam:.3g}")

print()
print("m_1 asymptotics (case II parameters):")
pII = classify(3, 1, 1)
rep = asymptotic_check(pII, "m1", "xi_dominant")
print("  |lambda|/|xi|^2 ->", ", ".join(f"{t:g}" for t in rep.regime_parameters))
print("  m1/(2/mu |xi|^4) ->", ", ".join(f"{r:.6f}" for r in np.abs(rep.ratios)))
rep = asymptotic_check(pII, "m1", "lambda_dominant")
print("  |xi|^2/|lambda| ->", ", ".join(f"{t:g}" for t in rep.regime_parameters))
print("  m1/(c1 lambda^2) ->", ", ".join(f"{r:.6f}" for r in np.abs(rep.ratios)))

print()
print("dual forms of m1 agree:")
m1 = make_named_symbol(pII, "m1")
xi = np.array([0.7])
lam = 2.0 - 0.8j
print(f"  raw  {m1.eval(xi, lam):.12g}")
print(f"  alt  {m1.alt_eval(xi, lam):.12g}")
