"""Per-mode closed-form solutions in all five regimes.

For one tangential mode and boundary data (g, h) the solver returns exact
exponential profiles for the density, the velocity components and the
divergence.  The script prints the profile structure per case (note the
x exp(-t x) and x^2 exp(-t x) terms appearing exactly on the degeneracy
manifolds), then verifies the interior equations, the boundary conditions
and the independently transcribed representation formulas.
"""

import numpy as np

from kortsolve import (BoundaryTrace, TangentialMode, assembled_formula_check,
                       boundary_residuals, classify, pde_residual, solve_mode)

mode = TangentialMode(xi=[1.0], lam=1.0 + 0.5j)
trace = BoundaryTrace(1.0, [0.5 - 0.2j])

for case, triple in [("I", (1, 1, 2)), ("II", (3, 1, 1)), ("III", (2, 1, 2)),
                     ("IV", (3, 1, 4)), ("V", (1, 1, 1))]:
    p = classify(*triple)
    sol = solve_mode(p, mode, trace)
    rep = pde_residual(p, mode, sol)
    bres = boundary_residuals(p, mode, sol, trace)
    agree = assembled_formula_check(p, mode, trace)
    print(f"case {case} {triple}:")
    print(f"  u_N profile: {sol.u[-1].canonicalized()}")
    print(f"  interior residual {rep.pde_max:.1e}, boundary {max(bres.values()):.1e}, "
          f"dual-route agreement {agree:.1e}")

print()
print("sampled decay of u_N for case IV (the x exp(-t x) term bends the curve):")
p = classify(3, 1, 4)
sol = solve_mode(p, mode, trace)
xs = np.linspace(0.0, 6.0, 13)
vals = sol.u[-1].evaluate(xs)
for x, v in zip(xs, vals):
    bar = "#" * int(60 * abs(v) / max(abs(vals)))
    print(f"  x={x:4.1f} |u_N|={abs(v):8.5f} {bar}")

print()
print("linearity: solve(a*data1 + b*data2) == a*sol1 + b*sol2 coefficientwise")
p = classify(1, 1, 2)
t1 = BoundaryTrace(1.0, [0.0])
t2 = BoundaryTrace(0.0, [1.0])
a, b = 2.0 - 1.0j, 0.5j
s1 = solve_mode(p, mode, t1)
s2 = solve_mode(p, mode, t2)
s3 = solve_mode(p, mode, BoundaryTrace(a * t1.g_hat + b * t2.g_hat,
                                       a * t1.h_hat + b * t2.h_hat))
combo = a * s1.batch.beta[0, -1] + b * s2.batch.beta[0, -1]
print(f"  beta_N: {s3.batch.beta[0, -1]:.12g} vs {combo:.12g}")
