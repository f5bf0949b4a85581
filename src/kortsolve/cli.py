"""Command-line front end.

Subcommands: classify, roots, symbol-check, lopatinski-scan, solve-mode,
solve-field, oracle-compare, rbound.  Scans and tables are emitted as CSV,
structured reports as JSON, grid fields as flat binary with a JSON header.
Complex numbers appear as re/im column pairs.  Every run that writes files
also writes a manifest recording the resolved configuration, input hashes
and output paths; identical invocations (including seeds) reproduce the
outputs byte for byte.

Exit codes: 0 success, 1 validation or tolerance failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import csv
import functools
import hashlib
import io
import json
import math
import os
import sys

import numpy as np

from . import __version__
from .errors import ConsistencyError, DomainError, GridError
from .fields import GridSpec, load_field, manufactured_solution, save_field, solve_resolvent
from .lopatinski import lower_bound_scan
from .modes import BoundaryTrace, boundary_residuals, pde_residual, solve_mode
from .oracle import BvpConfig, compare_with_closed_form
from .rbound import (FullSolveFamily, ProbeConfig, ReducedSolveFamily, estimate_rbound,
                     lambda_log_derivative, probe_grid, sample_boundary_data,
                     sample_full_data)
from .spectral import ScanGrid, TangentialMode, classify, compute_roots
from .symbols import make_named_symbol, verify_symbol_class

USAGE_ERROR = 2
TOLERANCE_ERROR = 1


def _read_config_file(path):
    """Plain-text key = value configuration ('#' starts a comment)."""
    out = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise DomainError(f"{path}:{lineno}: expected 'key = value'")
            key, value = (part.strip() for part in line.split("=", 1))
            out[key] = value
    return out


def _params_from_args(args):
    cfg = {}
    if getattr(args, "config", None):
        cfg = _read_config_file(args.config)
    mu = args.mu if args.mu is not None else float(cfg.get("mu", "nan"))
    nu = args.nu if args.nu is not None else float(cfg.get("nu", "nan"))
    kappa = args.kappa if args.kappa is not None else float(cfg.get("kappa", "nan"))
    if any(math.isnan(v) for v in (mu, nu, kappa)):
        raise DomainError("mu, nu, kappa must be given via flags or a config file")
    return classify(mu, nu, kappa)


def _parse_complex(text):
    return complex(text.replace("i", "j"))


def _write_rows(rows, path=None):
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    for row in rows:
        writer.writerow(row)
    payload = buf.getvalue()
    if path:
        with open(path, "w") as fh:
            fh.write(payload)
    else:
        sys.stdout.write(payload)


def _write_json(obj, path=None):
    payload = json.dumps(obj, indent=2, sort_keys=True) + "\n"
    if path:
        with open(path, "w") as fh:
            fh.write(payload)
    else:
        sys.stdout.write(payload)


def _hash_file(path):
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _emit_manifest(args, outputs, inputs=()):
    """Manifest sidecar for reproducibility; skipped for stdout-only runs."""
    if not outputs:
        return
    resolved = {k: v for k, v in sorted(vars(args).items())
                if k not in ("func",) and v is not None}
    manifest = {
        "tool": f"kortsolve {__version__}",
        "subcommand": args.subcommand,
        "config": {k: repr(v) if isinstance(v, complex) else v for k, v in resolved.items()},
        "input_hashes": {p: _hash_file(p) for p in inputs if os.path.exists(p)},
        "outputs": sorted(outputs),
    }
    path = outputs[0] + ".manifest.json"
    with open(path, "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


def cmd_classify(args):
    p = _params_from_args(args)
    rows = [
        ("quantity", "value_re", "value_im"),
        ("case", str(p.case), ""),
        ("eta", f"{p.eta!r}", ""),
        ("s1", f"{p.s1.real!r}", f"{p.s1.imag!r}"),
        ("s2", f"{p.s2.real!r}", f"{p.s2.imag!r}"),
        ("epsilon_star", f"{p.epsilon_star!r}", ""),
    ]
    _write_rows(rows, args.output)
    _emit_manifest(args, [args.output] if args.output else [])
    print(f"Case {p.case}: s1 = {p.s1:g}, s2 = {p.s2:g}", file=sys.stderr)
    return 0


def cmd_roots(args):
    p = _params_from_args(args)
    mode = TangentialMode(xi=[args.xi], lam=_parse_complex(args.lam), dim=args.dim)
    r = compute_roots(p, mode)
    rows = [
        ("root", "re", "im"),
        ("t1", f"{r.t1.real!r}", f"{r.t1.imag!r}"),
        ("t2", f"{r.t2.real!r}", f"{r.t2.imag!r}"),
        ("omega", f"{r.omega.real!r}", f"{r.omega.imag!r}"),
        ("degeneracy", r.degeneracy.value, ""),
    ]
    _write_rows(rows, args.output)
    _emit_manifest(args, [args.output] if args.output else [])
    return 0


def _grid_from_args(args):
    return ScanGrid.logspace(
        dim=args.dim,
        xi_range=(args.xi_min, args.xi_max), n_xi=args.n_xi,
        lam_sqrt_range=(args.lam_sqrt_min, args.lam_sqrt_max), n_lam=args.n_lam,
        arg_limit=args.arg_limit, n_arg=args.n_arg,
    )


def cmd_symbol_check(args):
    p = _params_from_args(args)
    sym = make_named_symbol(p, args.name)
    grid = _grid_from_args(args)
    report = verify_symbol_class(sym, grid, max_multi_order=args.max_order)
    _write_rows(report.csv_rows(), args.output)
    _emit_manifest(args, [args.output] if args.output else [])
    if not report.all_stable:
        print("symbol-check: band constants spread beyond 2x", file=sys.stderr)
        return TOLERANCE_ERROR
    return 0


def cmd_lopatinski_scan(args):
    p = _params_from_args(args)
    grid = _grid_from_args(args)
    report = lower_bound_scan(p, args.name, grid, normalize_power=args.power)
    _write_rows(report.csv_rows(), args.output)
    _emit_manifest(args, [args.output] if args.output else [])
    return 0


def cmd_solve_mode(args):
    p = _params_from_args(args)
    xi = [float(v) for v in args.xi.split(",")]
    mode = TangentialMode(xi=xi, lam=_parse_complex(args.lam), dim=len(xi) + 1)
    h = [_parse_complex(v) for v in args.h.split(",")] if args.h else [0.0] * (mode.dim - 1)
    trace = BoundaryTrace(_parse_complex(args.g), h)
    sol = solve_mode(p, mode, trace)
    rep = pde_residual(p, mode, sol)
    bres = boundary_residuals(p, mode, sol, trace)

    outputs = []
    if args.emit_profile:
        profiles = {"rho": sol.rho.dump_json(), "phi": sol.phi.dump_json()}
        for J, prof in enumerate(sol.u, start=1):
            profiles[f"u_{J}"] = prof.dump_json()
        _write_json({k: json.loads(v) for k, v in profiles.items()}, args.emit_profile)
        outputs.append(args.emit_profile)
    rows = [("residual", "value")]
    rows += [(k, f"{v:.6e}") for k, v in sorted(rep.per_equation.items())]
    rows += [(k, f"{v:.6e}") for k, v in sorted(bres.items())]
    _write_rows(rows, args.output)
    if args.output:
        outputs.append(args.output)
    _emit_manifest(args, outputs)
    worst = max(max(rep.per_equation.values()), max(bres.values()))
    return 0 if worst <= args.tol else TOLERANCE_ERROR


def cmd_solve_field(args):
    p = _params_from_args(args)
    lam = _parse_complex(args.lam)
    inputs = []
    if args.data:
        d = load_field(args.data + ".d")
        f = [load_field(f"{args.data}.f{i}") for i in range(d.spec.dim)]
        g = load_field(args.data + ".g")
        inputs = [args.data + suffix + ext for suffix in
                  ([".d", ".g"] + [f".f{i}" for i in range(d.spec.dim)])
                  for ext in (".bin", ".json")]
        spec = d.spec
    else:
        spec = GridSpec(dim=2, box_half_length=args.box, n_tangential=args.n_tangential,
                        vertical_cutoff=args.cutoff, n_vertical=args.n_vertical)
        mf = manufactured_solution(p, spec, lam)
        d, f, g = mf["d"], mf["f"], mf["g_trace"]
    rho, u, report = solve_resolvent(p, d, f, g, lam)

    outputs = []
    prefix = args.output or "field_solution"
    save_field(prefix + ".rho", rho)
    outputs += [prefix + ".rho.bin", prefix + ".rho.json"]
    for J, comp in enumerate(u, start=1):
        save_field(f"{prefix}.u{J}", comp)
        outputs += [f"{prefix}.u{J}.bin", f"{prefix}.u{J}.json"]
    summary = {
        "whole_space_residuals": report.whole_space_residuals,
        "correction_residual_max": report.correction_residual_max,
        "correction_residual_index": list(report.correction_residual_index),
        "correction_residual_equation": report.correction_residual_equation,
        "boundary_u_max": report.boundary_u_max,
        "boundary_g_residual": report.boundary_g_residual,
        "un_trace_ratio": report.un_trace_ratio,
        "norms": report.norms,
    }
    _write_json(summary, prefix + ".residuals.json")
    outputs.append(prefix + ".residuals.json")
    _emit_manifest(args, outputs, inputs)
    ok = report.boundary_u_max <= 1e-8 and report.boundary_g_residual <= 1e-8
    return 0 if ok else TOLERANCE_ERROR


def cmd_oracle_compare(args):
    if args.rows < 1:
        raise DomainError(f"--rows must be >= 1, got {args.rows}")
    p = _params_from_args(args)
    xi = [float(v) for v in args.xi.split(",")]
    mode = TangentialMode(xi=xi, lam=_parse_complex(args.lam), dim=len(xi) + 1)
    h = [_parse_complex(v) for v in args.h.split(",")] if args.h else [0.0] * (mode.dim - 1)
    trace = BoundaryTrace(_parse_complex(args.g), h)
    length = args.length if args.length is not None else BvpConfig.for_mode(p, mode, n=args.n).length
    config = BvpConfig(length=length, n=args.n, scheme=args.scheme)
    err, numeric = compare_with_closed_form(p, mode, trace, config)

    rows = [("x", "component", "closed_re", "closed_im", "oracle_re", "oracle_im",
             "abs_err", "rel_err")]
    closed = numeric.closed_form[:-1]  # rho, u_1..u_N
    labels = ["rho"] + [f"u_{J + 1}" for J in range(mode.dim)]
    numeric_stack = [numeric.rho, *numeric.u]
    scale = float(np.max(np.abs(closed)))
    stride = max(1, args.n // args.rows)
    for label, vals, num in zip(labels, closed, numeric_stack):
        for i in range(0, args.n, stride):
            abs_err = abs(vals[i] - num[i])
            rows.append((f"{numeric.x[i]:.6e}", label,
                         f"{vals[i].real:.12e}", f"{vals[i].imag:.12e}",
                         f"{num[i].real:.12e}", f"{num[i].imag:.12e}",
                         f"{abs_err:.3e}", f"{abs_err / scale:.3e}"))
    _write_rows(rows, args.output)
    _emit_manifest(args, [args.output] if args.output else [])
    print(f"oracle-compare: rel sup error {err:.3e} (tol {args.tol:g})", file=sys.stderr)
    return 0 if err <= args.tol else TOLERANCE_ERROR


def cmd_rbound(args):
    p = _params_from_args(args)
    lo, hi = (float(v) for v in args.decades.split(","))
    config = ProbeConfig(m=args.m, trials=args.trials, q=args.q, decades=(lo, hi),
                         rng_seed=args.seed, draws_per_decade=args.draws)
    spec = probe_grid(n_tangential=args.n_tangential, n_vertical=args.n_vertical)
    base_kind = args.family.lstrip("d")
    if base_kind in ("A2", "B2"):
        family = ReducedSolveFamily(p, base_kind)
        sampler = sample_boundary_data
    else:
        family = FullSolveFamily(p, base_kind)
        sampler = sample_full_data
    if args.family.startswith("d"):
        family = lambda_log_derivative(family, args.rel_step)
    report = estimate_rbound(family, config, spec, sampler=sampler)
    _write_json(json.loads(report.to_json()), args.output)
    _emit_manifest(args, [args.output] if args.output else [])
    return 0 if report.decade_spread <= args.spread_limit else TOLERANCE_ERROR


def _add_params_flags(sub):
    sub.add_argument("--mu", type=float, default=None, help="shear viscosity")
    sub.add_argument("--nu", type=float, default=None, help="second viscosity")
    sub.add_argument("--kappa", type=float, default=None, help="capillarity")
    sub.add_argument("--config", default=None, help="key = value parameter file")
    sub.add_argument("--output", "-o", default=None, help="write the main artifact here")


def _add_scan_flags(sub):
    sub.add_argument("--dim", type=int, default=2)
    sub.add_argument("--xi-min", type=float, default=1e-3)
    sub.add_argument("--xi-max", type=float, default=1e3)
    sub.add_argument("--n-xi", type=int, default=24)
    sub.add_argument("--lam-sqrt-min", type=float, default=1e-3)
    sub.add_argument("--lam-sqrt-max", type=float, default=1e3)
    sub.add_argument("--n-lam", type=int, default=24)
    sub.add_argument("--arg-limit", type=float, default=math.pi / 2 - 0.05)
    sub.add_argument("--n-arg", type=int, default=5)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="kortsolve", allow_abbrev=False,
        description="Resolvent solvers for the linearized compressible Korteweg model "
                    "on the half-space.")
    subs = parser.add_subparsers(dest="subcommand", required=True)
    # no flag prefixes: on classify, --n would silently read as --nu
    command = functools.partial(subs.add_parser, allow_abbrev=False)

    s = command("classify", help="case I-V classification and the roots s1, s2")
    _add_params_flags(s)
    s.set_defaults(func=cmd_classify)

    s = command("roots", help="characteristic roots t1, t2, omega for one mode")
    _add_params_flags(s)
    s.add_argument("--xi", type=float, required=True)
    s.add_argument("--lam", required=True, help="complex, e.g. 1+0.5j")
    s.add_argument("--dim", type=int, default=2)
    s.set_defaults(func=cmd_roots)

    s = command("symbol-check", help="empirical multiplier-class constants")
    _add_params_flags(s)
    _add_scan_flags(s)
    s.add_argument("--name", required=True)
    s.add_argument("--max-order", type=int, default=2)
    s.set_defaults(func=cmd_symbol_check)

    s = command("lopatinski-scan", help="normalized lower-bound scan of a symbol")
    _add_params_flags(s)
    _add_scan_flags(s)
    s.add_argument("--name", required=True)
    s.add_argument("--power", type=float, default=None)
    s.set_defaults(func=cmd_lopatinski_scan)

    s = command("solve-mode", help="closed-form per-mode solve plus residuals")
    _add_params_flags(s)
    s.add_argument("--xi", required=True, help="comma-separated tangential frequency")
    s.add_argument("--lam", required=True)
    s.add_argument("--g", default="0")
    s.add_argument("--h", default=None, help="comma-separated complex h values")
    s.add_argument("--emit-profile", default=None, help="write profiles as JSON here")
    s.add_argument("--tol", type=float, default=1e-8)
    s.set_defaults(func=cmd_solve_mode)

    s = command("solve-field", help="full-data half-space solve on a grid")
    _add_params_flags(s)
    s.add_argument("--lam", required=True)
    s.add_argument("--data", default=None,
                   help="prefix of input fields <p>.d/.f0../.g (binary+json); "
                        "defaults to the built-in manufactured data.  The normal "
                        "force must vanish on the boundary row: zero the x_N = 0 "
                        "row of an f_N built by inverse transforms, whose "
                        "rounding there is rejected")
    s.add_argument("--box", type=float, default=3.0)
    s.add_argument("--n-tangential", type=int, default=64)
    s.add_argument("--cutoff", type=float, default=16.0)
    s.add_argument("--n-vertical", type=int, default=512)
    s.set_defaults(func=cmd_solve_field)

    s = command("oracle-compare", help="closed form vs finite-difference oracle")
    _add_params_flags(s)
    s.add_argument("--xi", required=True)
    s.add_argument("--lam", required=True)
    s.add_argument("--g", default="1")
    s.add_argument("--h", default=None)
    s.add_argument("--n", type=int, default=4096)
    s.add_argument("--length", "-L", type=float, default=None)
    s.add_argument("--scheme", default="second_order_fd",
                   choices=("second_order_fd", "fourth_order_fd"))
    s.add_argument("--rows", type=int, default=16, help="CSV sample rows per component")
    s.add_argument("--tol", type=float, default=1e-4)
    s.set_defaults(func=cmd_oracle_compare)

    s = command("rbound", help="randomized-boundedness probe")
    _add_params_flags(s)
    s.add_argument("--family", required=True,
                   choices=("A2", "B2", "A", "B", "dA2", "dB2", "dA", "dB"))
    s.add_argument("--decades", default="1e-2,1e2",
                   help="|lambda| range as 'lo,hi' spanning whole decades")
    s.add_argument("--m", type=int, default=8)
    s.add_argument("--trials", type=int, default=200)
    s.add_argument("--q", type=float, default=2.0)
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--draws", type=int, default=2)
    s.add_argument("--rel-step", type=float, default=1e-3)
    s.add_argument("--n-tangential", type=int, default=32)
    s.add_argument("--n-vertical", type=int, default=192)
    s.add_argument("--spread-limit", type=float, default=10.0)
    s.set_defaults(func=cmd_rbound)

    return parser


@functools.cache
def _parser():
    """The process's one parser; parse_args keeps no state between calls."""
    return build_parser()


def dispatch(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except (ConsistencyError, DomainError, GridError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return TOLERANCE_ERROR


def main():
    sys.exit(dispatch())


if __name__ == "__main__":
    main()
