"""Full-data half-space solve: reflection, whole-space solve, boundary correction.

A manufactured solution with u = 0 on the interface is pushed through the
complete pipeline: reflect (d, f) across the boundary with the mixed parity,
solve the whole-space problem on the cosine/sine spectra in x_N and the FFT
tangentially, read corrected boundary traces off the whole-space part, and
add the exact per-mode profile correction.  Tangential refinement shows the
recovery error collapsing onto the vertical-discretization floor.
"""

import time

import numpy as np

from kortsolve import classify
from kortsolve.fields import GridSpec, manufactured_solution, solve_resolvent

params = classify(1, 1, 2)
lam = 1.0 + 0.5j

print(f"case {params.case} parameters, lambda = {lam}")
print(f"{'n_tan':>6} {'recovery':>12} {'u(.,0)':>10} {'U_N trace':>10} {'time':>7}")
for n_tan in (64, 128, 256):
    spec = GridSpec(dim=2, box_half_length=3.0, n_tangential=n_tan,
                    vertical_cutoff=16.0, n_vertical=4096)
    mf = manufactured_solution(params, spec, lam, rough_width=0.06)
    t0 = time.perf_counter()
    rho, u, rep = solve_resolvent(params, mf["d"], mf["f"], mf["g_trace"], lam)
    dt = time.perf_counter() - t0
    scale = max(np.max(np.abs(mf["rho"].values)),
                max(np.max(np.abs(c.values)) for c in mf["u"]))
    err = max(np.max(np.abs(rho.values - mf["rho"].values)),
              max(np.max(np.abs(u[i].values - mf["u"][i].values)) for i in range(2)))
    print(f"{n_tan:>6} {err / scale:>12.3e} {rep.boundary_u_max:>10.1e} "
          f"{rep.un_trace_ratio:>10.1e} {dt:>6.2f}s")

print()
print("whole-space residuals of the last solve (discrete-spectral identities):")
for key, val in rep.whole_space_residuals.items():
    print(f"  {key}: {val:.2e}")
print(f"boundary-condition defect of the assembled field: {rep.boundary_g_residual:.2e}")
print("density grid norms: " + ", ".join(f"{q} = {v:.4f}" for q, v in rep.norms.items()))
