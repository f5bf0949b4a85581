"""The four benchmark workloads: seeded inputs, the timed op, and its gates.

A workload turns a seed into a short list of inputs (one "cycle"), runs its
op on each input, and judges every output against fixed gates.  The op is
one call of the workload's top-level entry point; the program only ever
receives the generated arrays and objects.

Seeds map onto `VARIANTS` input variants (`seed % VARIANTS`).  The reference
errors and probe ratios that some gates compare against were recorded per
variant by `make_refs.py` at the commit that introduced the benchmark, and
live in `refs.json` next to this file.

Entry points are looked up on their modules at call time (`fields.solve_resolvent`,
not a name bound at import), so the tracer's wrappers see every call.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import io
import json
import math
import os
import re
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from kortsolve import cli, fields, rbound
from kortsolve.fields import GridField, GridSpec
from kortsolve.spectral import classify

VARIANTS = 32
REFS_PATH = Path(__file__).with_name("refs.json")

# Errors at or below this level are rounding noise; err_vs_ref floors both
# sides here so a reordering of floating-point work does not read as a
# regression, while a genuine loss of accuracy still does.
ERR_FLOOR = 1e-12

# Gate thresholds, taken from the acceptance suite and the CLI.
UN_TRACE_MAX = 1e-10          # criterion 9
BOUNDARY_MAX = 1e-8           # `solve-field` exit gate
RECOVERY_REL_DRIFT = 0.01     # field2d: recovery error vs the reference error
SPREAD_MAX = 10.0             # criterion 10
RATIO_REL_DRIFT = 1e-9        # rbound: per-decade ratios vs the reference
IDENTITY_TOL = 1e-12          # criterion 10, identity family
ORACLE_TOL = 1e-8             # verify_cli: `oracle-compare --tol`

CASES = {"I": (1, 1, 2), "II": (3, 1, 1), "III": (2, 1, 2), "IV": (3, 1, 4), "V": (1, 1, 1)}


def variant_of(seed: int) -> int:
    return seed % VARIANTS


def variant_rng(name: str, seed: int):
    """Generator for one workload's variant; workloads never share a stream."""
    tag = int.from_bytes(hashlib.sha256(name.encode()).digest()[:4], "little")
    return np.random.default_rng([tag, variant_of(seed)])


def load_refs() -> dict:
    if not REFS_PATH.is_file():
        return {}
    with open(REFS_PATH) as fh:
        return json.load(fh)


def digest(*arrays) -> str:
    """Bit-exact fingerprint of an op's output arrays."""
    h = hashlib.sha256()
    for a in arrays:
        a = np.ascontiguousarray(a)
        h.update(str(a.shape).encode())
        h.update(a.tobytes())
    return h.hexdigest()


@dataclass
class Check:
    """Outcome of one op's gates.

    `error` is the workload's error measure (the reference value of the same
    measure is what err_vs_ref divides by); `values` holds every gated
    quantity, `failed` the names of the gates that did not hold.
    """

    error: float
    values: dict
    failed: list = field(default_factory=list)
    fingerprint: str = ""

    @property
    def ok(self) -> bool:
        return not self.failed


def _gate(values: dict, failed: list, name: str, value: float, limit: float):
    values[name] = value
    if not value <= limit:  # NaN fails too
        failed.append(name)


def _field_checks(report, values, failed):
    _gate(values, failed, "boundary_u_max", report.boundary_u_max, BOUNDARY_MAX)
    _gate(values, failed, "boundary_g_residual", report.boundary_g_residual, BOUNDARY_MAX)


# ---------------------------------------------------------------------------
# field2d_tall: manufactured 2-D data at the criterion-9 configuration
# ---------------------------------------------------------------------------


@dataclass
class Field2dTall:
    name = "field2d_tall"
    work_unit = "half-grid cells"
    lam = 1.0 + 0.5j
    spec: GridSpec = GridSpec(dim=2, box_half_length=3.0, n_tangential=256,
                              vertical_cutoff=16.0, n_vertical=4096)

    def __post_init__(self):
        self.params = classify(*CASES["I"])

    def build(self, seed):
        rng = variant_rng(self.name, seed)
        rho_amplitude = rng.uniform(0.5, 2.0)
        g_amplitude = rng.uniform(0.1, 0.5)
        mf = fields.manufactured_solution(self.params, self.spec, self.lam,
                                          rho_amplitude=rho_amplitude,
                                          g_amplitude=g_amplitude, rough_width=0.06)
        item = {"d": mf["d"], "f": mf["f"], "g": mf["g_trace"],
                "rho": mf["rho"].values, "u": [c.values for c in mf["u"]]}
        return [item]

    def run(self, item):
        return fields.solve_resolvent(self.params, item["d"], item["f"], item["g"], self.lam)

    def work(self, item) -> float:
        return float(np.prod(self.spec.shape))

    def check(self, item, out, ref) -> Check:
        rho, u, report = out
        scale = max(np.max(np.abs(item["rho"])), max(np.max(np.abs(c)) for c in item["u"]))
        err = max(np.max(np.abs(rho.values - item["rho"])),
                  max(np.max(np.abs(u[i].values - item["u"][i])) for i in range(len(u)))) / scale
        values, failed = {"recovery_error": float(err)}, []
        _gate(values, failed, "un_trace_ratio", report.un_trace_ratio, UN_TRACE_MAX)
        _field_checks(report, values, failed)
        if ref is not None:
            _gate(values, failed, "recovery_drift", abs(err / ref - 1.0), RECOVERY_REL_DRIFT)
        return Check(float(err), values, failed,
                     digest(rho.values, *(c.values for c in u)))


# ---------------------------------------------------------------------------
# field3d_wide: seeded 3-D Gaussian bumps, case IV
# ---------------------------------------------------------------------------


@dataclass
class Field3dWide:
    name = "field3d_wide"
    work_unit = "half-grid cells"
    lam = 1.0 + 0.5j
    spec: GridSpec = GridSpec(dim=3, box_half_length=3.0, n_tangential=32,
                              vertical_cutoff=8.0, n_vertical=128)

    def __post_init__(self):
        self.params = classify(*CASES["IV"])

    def _bump(self, rng, odd=False):
        """Complex Gaussian bump, centred near the axis so it has decayed at the box edge.

        With `odd` the vertical factor is x_N exp(-(x_N/w)^2): the datum
        vanishes on the boundary, so its odd extension stays smooth.
        """
        x = self.spec.tangential_coords()
        z = self.spec.vertical_coords()
        amp = complex(rng.normal(), rng.normal())
        factors = []
        for _ in range(self.spec.dim - 1):
            c, w = rng.uniform(-0.3, 0.3), rng.uniform(0.4, 0.5)
            factors.append(np.exp(-((x - c) / w) ** 2))
        wz = rng.uniform(0.8, 1.2)
        factors.append(np.exp(-(z / wz) ** 2) * (z / wz if odd else 1.0))
        return amp * functools.reduce(np.multiply.outer, factors)

    def build(self, seed):
        rng = variant_rng(self.name, seed)
        spec = self.spec
        d = GridField(self._bump(rng), spec)
        f = [GridField(self._bump(rng, odd=(i == spec.dim - 1)), spec) for i in range(spec.dim)]
        g = self._bump(rng)[..., 0]
        for name, values in [("d", d.values)] + [(f"f[{i}]", c.values) for i, c in enumerate(f)]:
            fields.validate_edge_decay(values, spec, name)
        return [{"d": d, "f": f, "g": g}]

    def run(self, item):
        return fields.solve_resolvent(self.params, item["d"], item["f"], item["g"], self.lam)

    def work(self, item) -> float:
        return float(np.prod(self.spec.shape))

    def check(self, item, out, ref) -> Check:
        rho, u, report = out
        values, failed = {}, []
        _field_checks(report, values, failed)
        for k, v in report.whole_space_residuals.items():
            values[f"whole_space_{k}"] = v
        err = max(values.values())
        return Check(float(err), values, failed, digest(rho.values, *(c.values for c in u)))


# ---------------------------------------------------------------------------
# rbound_reduced: the randomized-boundedness probe at the criterion-10 config
# ---------------------------------------------------------------------------


@dataclass
class RboundReduced:
    name = "rbound_reduced"
    work_unit = "family applications"
    families = ("A2", "B2", "dA2", "dB2")
    m: int = 8
    trials: int = 200

    def __post_init__(self):
        self.params = classify(*CASES["I"])

    def config(self, seed):
        return rbound.ProbeConfig(m=self.m, trials=self.trials, rng_seed=variant_of(seed))

    def build(self, seed):
        items = []
        for kind in self.families:
            family = rbound.ReducedSolveFamily(self.params, kind.lstrip("d"))
            if kind.startswith("d"):
                family = rbound.lambda_log_derivative(family)
            items.append({"kind": kind, "family": family, "config": self.config(seed)})
        return items

    def setup_check(self, seed) -> dict:
        """The identity family must report ratio 1 (criterion 10)."""
        report = rbound.estimate_rbound(rbound.IdentityFamily(), self.config(seed))
        dev = max(abs(r - 1.0) for r in report.all_ratios)
        return {"identity_ratio_dev": dev, "ok": dev <= IDENTITY_TOL}

    def run(self, item):
        return rbound.estimate_rbound(item["family"], item["config"])

    def work(self, item) -> float:
        cfg = item["config"]
        decades = round(math.log10(cfg.decades[1] / cfg.decades[0]))
        per_member = 2 if item["kind"].startswith("d") else 1
        return float(decades * cfg.draws_per_decade * cfg.m * per_member)

    def check(self, item, out, ref) -> Check:
        ratios = list(out.decade_ratios.values())
        values, failed = {"redraws": out.redraws}, []
        _gate(values, failed, "decade_spread", out.decade_spread, SPREAD_MAX)
        err = 0.0
        if ref is not None:
            want = ref[item["kind"]]
            if len(want) != len(ratios):
                failed.append("ratio_count")
            else:
                err = max(abs(r / w - 1.0) for r, w in zip(ratios, want))
                _gate(values, failed, "ratio_drift", err, RATIO_REL_DRIFT)
        return Check(float(err), values, failed, digest(np.array(out.all_ratios)))

    def counters(self, out) -> dict:
        return {"rbound.redraws": out.redraws}


# ---------------------------------------------------------------------------
# verify_cli: one in-process sweep of the verification subcommands
# ---------------------------------------------------------------------------


_ORACLE_LINE = re.compile(r"rel sup error ([0-9.eE+-]+)")


@dataclass
class VerifyCli:
    name = "verify_cli"
    work_unit = "oracle unknowns"
    n = 4096
    out_dir: str = "."

    def build(self, seed):
        rng = variant_rng(self.name, seed)
        argvs = []
        for case, (mu, nu, kappa) in CASES.items():
            # criterion 3's ranges for xi, lambda and the traces
            xi = rng.uniform(-1.5, 1.5)
            lam = complex(10.0 ** rng.uniform(-0.4, 0.4) * np.exp(1j * rng.uniform(-0.6, 0.6)))
            g = complex(rng.normal(), rng.normal())
            h = rng.normal()
            argvs.append(["oracle-compare", "--mu", repr(float(mu)), "--nu", repr(float(nu)),
                          "--kappa", repr(float(kappa)), "--xi", repr(xi), "--lam", repr(lam),
                          "--g", repr(g), "--h", repr(h), "--n", str(self.n),
                          "--scheme", "fourth_order_fd", "--tol", repr(ORACLE_TOL),
                          "-o", os.path.join(self.out_dir, f"oracle_{case}.csv")])
        argvs.append(["lopatinski-scan", "--mu", "1", "--nu", "1", "--kappa", "2",
                      "--name", "m1", "--n-xi", "40", "--n-lam", "40",
                      "-o", os.path.join(self.out_dir, "lopatinski_m1.csv")])
        argvs.append(["symbol-check", "--mu", "3", "--nu", "1", "--kappa", "1",
                      "--name", "m1", "-o", os.path.join(self.out_dir, "symbol_m1.csv")])
        return [{"argvs": argvs}]

    def run(self, item):
        results = []
        for argv in item["argvs"]:
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                code = cli.dispatch(argv)
            results.append((argv[0], code, err.getvalue()))
        return results

    def work(self, item) -> float:
        # unknowns of one oracle solve: (2N + 2) per node, N = 2
        compares = sum(argv[0] == "oracle-compare" for argv in item["argvs"])
        return float(compares * 6 * self.n)

    def check(self, item, out, ref) -> Check:
        values, failed = {}, []
        errors = []
        for i, (sub, code, stderr) in enumerate(out):
            label = f"{sub}[{i}]"
            if code != 0:
                failed.append(f"{label} exit {code}")
            if sub == "oracle-compare":
                match = _ORACLE_LINE.search(stderr)
                if match is None:
                    failed.append(f"{label} printed no error")
                    continue
                errors.append(float(match.group(1)))
        err = max(errors) if errors else math.nan
        _gate(values, failed, "oracle_error", err, ORACLE_TOL)
        return Check(float(err), values, failed, digest(np.array(errors)))


WORKLOADS = {w.name: w for w in (Field2dTall, Field3dWide, RboundReduced, VerifyCli)}


def create(name: str, scratch_dir: str):
    """The named workload at its benchmark configuration; CLI outputs go to scratch_dir."""
    if name == VerifyCli.name:
        return VerifyCli(out_dir=scratch_dir)
    return WORKLOADS[name]()


def err_vs_ref(error: float, reference: float) -> float:
    """Error measure relative to the reference commit's, both floored at ERR_FLOOR."""
    return max(error, ERR_FLOOR) / max(reference, ERR_FLOOR)


def reference_error(workload, refs: dict, seed: int):
    """(gate reference, reference error measure) for this seed's variant.

    Missing entries give (None, ERR_FLOOR) so the ref-based gates are skipped
    and the run still reports; run.py records the gap as a failure.
    """
    entry = refs.get(workload.name, {}).get(str(variant_of(seed)))
    if entry is None:
        return None, ERR_FLOOR
    if workload.name == "rbound_reduced":
        return entry, ERR_FLOOR  # the reference deviates from itself by zero
    return entry, entry
