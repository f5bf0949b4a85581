"""Seeded, single-process benchmark of kortsolve.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
`src/`.  The run builds the workload's inputs from the seed, then runs a
closed loop of ops from this one process for S seconds (always whole cycles
of the workload's inputs), checking every output against its gates.  A
failed gate or an exception counts as a failed op and never stops the loop.

The last line of stdout is one JSON object: `correct`, `attempted`,
`failed` and `metrics`.  With --trace 0 the metrics are the end-to-end ones,
with --trace 1 the per-layer ones from the spans in tracing.py.  The line
before it is a JSON record of the environment, the op count, the tail
percentile, the raw errors and the gate values.  A traced run alternates
traced and untraced cycles, so the tracing overhead is measured in the
same process, and writes its spans to .perfbench_out/ at exit.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 3
TAIL_BEYOND = 10


def cap_threads() -> tuple:
    """Cap BLAS/OpenMP threads at the usable CPU count; must run before numpy loads."""
    nproc = len(os.sched_getaffinity(0))
    caps = {}
    for var in THREAD_VARS:
        current = os.environ.get(var, "")
        caps[var] = min(int(current), nproc) if current.isdigit() and int(current) > 0 else nproc
        os.environ[var] = str(caps[var])
    return nproc, caps


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def tail(times):
    """Highest order statistic with TAIL_BEYOND ops above it (the minimum if too few).

    Returns (value, percentile, ops beyond it).
    """
    ordered = sorted(times)
    k = max(len(ordered) - TAIL_BEYOND - 1, 0)
    return ordered[k], 100.0 * (k + 1) / len(ordered), len(ordered) - k - 1


class Loop:
    """Closed-loop runner: ops, gates and failure accounting for one workload."""

    def __init__(self, workload, refs, seed, tracer=None):
        import workloads
        self.workload = workload
        self.tracer = tracer
        self.ref, self.ref_error = workloads.reference_error(workload, refs, seed)
        self.times, self.traced_times, self.traced_ops = [], [], []
        self.attempted = self.failed = 0
        self.work = 0.0
        self.err_vs_ref = 0.0
        self.max_error = 0.0
        self.gate_worst = {}
        self.failures = []
        self.fingerprints = {}

    def check(self, index, item, out):
        """Apply the gates; returns the failure reasons (empty when the output is good)."""
        import workloads
        chk = self.workload.check(item, out, self.ref)
        reasons = list(chk.failed)
        if self.ref is None:
            reasons.append("no reference for this seed in refs.json")
        # the same input must give bit-identical output, traced or not
        if self.fingerprints.setdefault(index, chk.fingerprint) != chk.fingerprint:
            reasons.append("output differs from an earlier op on the same input")
        self.max_error = max(self.max_error, chk.error)
        self.err_vs_ref = max(self.err_vs_ref, workloads.err_vs_ref(chk.error, self.ref_error))
        for name, value in chk.values.items():
            self.gate_worst[name] = max(self.gate_worst.get(name, value), value)
        return reasons

    def op(self, index, item, traced):
        """One timed op plus its gates; failures are counted, never raised."""
        self.attempted += 1
        op_id = self.attempted
        if traced:
            self.tracer.begin_op(op_id)
        start = time.perf_counter()
        try:
            out = self.workload.run(item)
        except Exception as exc:  # an op that raises is a failed op
            self.failed += 1
            self.failures.append(f"op {op_id}: {type(exc).__name__}: {exc}")
            return
        finally:
            if traced:
                self.tracer.end_op()
        elapsed = time.perf_counter() - start
        if traced:
            self.traced_ops.append(op_id)
            self.traced_times.append(elapsed)
            counters = getattr(self.workload, "counters", None)
            if counters is not None:
                self.tracer.op_counts[op_id].update(counters(out))
        else:
            self.times.append(elapsed)
        try:
            reasons = self.check(index, item, out)
        except Exception as exc:
            reasons = [f"gate raised {type(exc).__name__}: {exc}"]
        if reasons:
            self.failed += 1
            self.failures.append(f"op {op_id}: " + "; ".join(reasons))
        else:
            self.work += self.workload.work(item)

    def run(self, items, seconds):
        """Whole cycles over `items` until `seconds` have passed.

        A traced run alternates traced and untraced cycles, starting traced,
        and runs at least one of each.
        """
        deadline = time.perf_counter() + seconds
        cycle = 0
        while True:
            traced = self.tracer is not None and cycle % 2 == 0
            if traced:
                self.tracer.install()
            try:
                for index, item in enumerate(items):
                    self.op(index, item, traced)
            finally:
                if traced:
                    self.tracer.uninstall()
            cycle += 1
            enough = self.tracer is None or cycle >= 2
            if enough and time.perf_counter() >= deadline:
                return cycle


def setup(workload, seed):
    """Build the inputs and run one untimed warm-up op; returns (items, notes)."""
    items = workload.build(seed)
    notes = {}
    setup_check = getattr(workload, "setup_check", None)
    if setup_check is not None:
        notes.update(setup_check(seed))
    workload.run(items[0])
    return items, notes


def environment(args, nproc, caps, variant):
    import numpy
    import scipy
    return {
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "nproc": nproc, "cpu_model": cpu_model(),
        "thread_caps": caps, "workload": args.workload, "seed": args.seed,
        "variant": variant, "run_seconds": args.seconds, "trace": args.trace,
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "kortsolve" / "__init__.py").is_file():
        print(f"perfbench: no kortsolve package under {src}", file=sys.stderr)
        return 2
    nproc, caps = cap_threads()

    start = time.perf_counter()
    sys.path.insert(0, str(src))
    import tracing
    import workloads
    import_s = time.perf_counter() - start

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    OUT_DIR.mkdir(exist_ok=True)
    scratch = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT_DIR)
    try:
        return measure(args, nproc, caps, import_s, scratch, workloads, tracing)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def measure(args, nproc, caps, import_s, scratch, workloads, tracing) -> int:
    workload = workloads.create(args.workload, scratch)
    refs = workloads.load_refs()

    # Set-up is repeated and its median reported, so a later change that
    # moves work into set-up shows up in setup_s.
    samples, setup_notes, items = [], {}, None
    for _ in range(SETUP_REPEATS):
        items = None
        t0 = time.perf_counter()
        items, setup_notes = setup(workload, args.seed)
        samples.append(time.perf_counter() - t0)
    setup_s = import_s + statistics.median(samples)

    tracer = tracing.Tracer() if args.trace else None
    loop = Loop(workload, refs, args.seed, tracer)
    cycles = loop.run(items, args.seconds)
    setup_ok = setup_notes.pop("ok", True)
    times = loop.times + loop.traced_times

    detail = {
        "env": environment(args, nproc, caps, workloads.variant_of(args.seed)),
        "ops": loop.attempted, "cycles": cycles, "ops_per_cycle": len(items),
        "work_unit": workload.work_unit,
        "fail_frac": loop.failed / loop.attempted,
        "max_rel_err": loop.max_error, "err_vs_ref": loop.err_vs_ref,
        "gate_worst": loop.gate_worst, "setup_checks": setup_notes, "setup_ok": setup_ok,
        "setup": {"import_s": import_s, "samples_s": samples},
        "failures": loop.failures[:10],
        "op_times_s": [round(t, 4) for t in times],
    }
    if not loop.times or (tracer is not None and not loop.traced_times):
        metrics = {}
    elif tracer is None:
        value, pct, beyond = tail(times)
        detail["op_s_tail"] = {"percentile": pct, "ops_beyond": beyond, "ops": len(times)}
        metrics = {
            "op_s_p50": (statistics.median(times), "s"),
            "op_s_tail": (value, "s"),
            "work_per_s": (loop.work / sum(times), "units/s"),
            "setup_s": (setup_s, "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
            "err_vs_ref": (loop.err_vs_ref, "1"),
        }
    else:
        traced_p50 = statistics.median(loop.traced_times)
        untraced_p50 = statistics.median(loop.times)
        totals = tracer.totals(loop.traced_ops)
        layer = tracing.layer_metrics(totals, len(loop.traced_ops), loop.traced_times,
                                      traced_p50 - untraced_p50)
        units = tracing.per_layer_units()
        metrics = {name: (value, units[name]) for name, value in layer.items()}
        spans_path = OUT_DIR / f"spans-{args.workload}.json.gz"
        tracer.write(spans_path)
        detail["trace"] = {
            "traced_ops": len(loop.traced_times), "untraced_ops": len(loop.times),
            "traced_op_s_p50": traced_p50, "untraced_op_s_p50": untraced_p50,
            "self_share": tracing.self_shares(totals),
            "missing_targets": tracer.missing, "spans": len(tracer.spans),
            "spans_file": str(spans_path.relative_to(ROOT)),
        }
    print(json.dumps(detail, default=str))
    result = {
        "correct": loop.failed == 0 and setup_ok and bool(times),
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {name: {"value": float(v), "unit": u} for name, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Exception:
        traceback.print_exc()
        sys.exit(1)
