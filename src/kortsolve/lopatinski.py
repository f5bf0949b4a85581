"""Normalized lower-bound scans of the boundary symbols.

The per-mode boundary systems are 2x2: the matrix L couples (beta_N, gamma_N)
in the distinct-root cases, and M is its analogue in the double-root case IV.
Their entries, determinants and the multipliers built on them are written
once, in the `symbols` registry (`make_named_symbol(params, "detL")` and
`"detM"` give each determinant's raw expansion and factored form).  The
determinants never vanish for lambda in the closed right half-plane minus
the origin; the scans below estimate the normalized infima

    inf |symbol| / (|lambda|^(1/2) + |xi|)^power

over log grids as a numerical shadow of that nonvanishing.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConsistencyError
from .spectral import FluidParams, ScanGrid
from .symbols import SYMBOL_ORDERS, stable_symbol_values


@dataclass
class LowerBoundReport:
    """Result of a normalized lower-bound scan for one named symbol."""

    name: str
    power: float
    infimum: float
    argmin_xi: float
    argmin_lam: complex
    band_infima: dict

    def csv_rows(self):
        rows = [("band", "inf", "argmin_xi", "argmin_lam_re", "argmin_lam_im")]
        for band, val in sorted(self.band_infima.items()):
            rows.append((band, f"{val:.12e}", "", "", ""))
        rows.append(("all", f"{self.infimum:.12e}", f"{self.argmin_xi:.6e}",
                     f"{self.argmin_lam.real:.6e}", f"{self.argmin_lam.imag:.6e}"))
        return rows


def lower_bound_scan(params: FluidParams, name: str, grid: ScanGrid,
                     normalize_power: float | None = None) -> LowerBoundReport:
    """Scan inf |symbol| / (|lambda|^(1/2)+|xi|)^power over the grid.

    `normalize_power` defaults to the symbol's declared order.  The scan uses
    the cancellation-free evaluation so that the reported infimum reflects
    the symbol, not floating-point noise.  An infimum below 1e-14 (after
    normalization) would contradict the nonvanishing results and is raised
    as an internal error with the offending point.
    """
    xi_sq, xi_norm, lam = grid.flat_points()
    vals = stable_symbol_values(params, name, xi_sq, lam)
    if normalize_power is None:
        normalize_power = SYMBOL_ORDERS[name]
    scale = np.sqrt(np.abs(lam)) + xi_norm
    ratios = np.abs(vals) / scale ** normalize_power
    k = int(np.argmin(ratios))
    inf = float(ratios[k])
    if inf < 1e-14:
        raise ConsistencyError(
            f"normalized |{name}| = {inf:.3e} at xi={xi_norm[k]}, lam={lam[k]}: "
            "potential zero of a provably nonvanishing symbol"
        )
    bands = {}
    band_idx = np.floor(np.log2(scale)).astype(int)
    for b in np.unique(band_idx):
        bands[int(b)] = float(np.min(ratios[band_idx == b]))
    return LowerBoundReport(name=name, power=float(normalize_power), infimum=inf,
                            argmin_xi=float(xi_norm[k]), argmin_lam=complex(lam[k]),
                            band_infima=bands)


def scan_stability(params: FluidParams, name: str, grid: ScanGrid,
                   refine_factor: int = 2):
    """Infimum on the grid and on a refined grid; returns (inf, inf_refined, drift).

    drift = |inf - inf_refined| / inf; small drift indicates the scan has
    resolved the true infimum of the normalized symbol.
    """
    base = lower_bound_scan(params, name, grid)
    fine = lower_bound_scan(params, name, grid.refined(refine_factor))
    drift = abs(base.infimum - fine.infimum) / base.infimum
    return base.infimum, fine.infimum, drift
