"""The benchmark's own checks, on small grids so they run in seconds.

    python3 -m pytest perfbench/tests -q
"""

import sys

import numpy as np
import pytest

import run
import tracing
import workloads
from kortsolve.fields import GridSpec

SMALL_2D = GridSpec(dim=2, box_half_length=3.0, n_tangential=64,
                    vertical_cutoff=16.0, n_vertical=512)
SMALL_3D = GridSpec(dim=3, box_half_length=3.0, n_tangential=8,
                    vertical_cutoff=8.0, n_vertical=32)


def small_workloads(tmp_path):
    return [workloads.Field2dTall(spec=SMALL_2D), workloads.Field3dWide(spec=SMALL_3D),
            workloads.RboundReduced(m=2, trials=50), workloads.VerifyCli(out_dir=str(tmp_path))]


def _plain(item):
    """Comparable form of one input: arrays, argv lists and probe settings."""
    out = {}
    for key, value in item.items():
        if key == "family":
            value = value.name
        elif key == "d":
            value = value.values
        elif key == "f":
            value = [c.values for c in value]
        out[key] = value
    return out


def _same(a, b):
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(_same(a[k], b[k]) for k in a)
    if isinstance(a, (list, tuple)):
        return len(a) == len(b) and all(_same(x, y) for x, y in zip(a, b))
    if isinstance(a, np.ndarray):
        return np.array_equal(a, b)
    return a == b


def test_generators_are_deterministic_per_seed(tmp_path):
    for workload in small_workloads(tmp_path):
        first = [_plain(i) for i in workload.build(3)]
        again = [_plain(i) for i in workload.build(3)]
        other = [_plain(i) for i in workload.build(4)]
        assert _same(first, again), workload.name
        assert not _same(first, other), workload.name


def test_seed_maps_onto_reference_variants():
    assert workloads.variant_of(5) == workloads.variant_of(5 + workloads.VARIANTS)
    refs = workloads.load_refs()
    for name in workloads.WORKLOADS:
        assert len(refs[name]) == workloads.VARIANTS, name


@pytest.mark.parametrize("index", [1, 2])
def test_traced_and_untraced_outputs_are_identical(tmp_path, index):
    workload = small_workloads(tmp_path)[index]
    item = workload.build(0)[0]
    plain = workload.check(item, workload.run(item), None).fingerprint
    tracer = tracing.Tracer()
    tracer.install()
    try:
        tracer.begin_op(1)
        traced = workload.check(item, workload.run(item), None).fingerprint
        tracer.end_op()
    finally:
        tracer.uninstall()
    assert traced == plain
    assert tracer.spans and not tracer.missing
    layer = tracing.layer_metrics(tracer.totals([1]), 1, [1.0], 0.0)
    assert layer["modes.solve_mode.calls"] > 0
    if workload.name == "field3d_wide":
        # every lattice mode is solved once for the correction and once for d_N rho(0)
        assert layer["modes.solves_per_mode"] == 2.0
        assert layer["fields.whole_space_solve.fft_points"] == 2 * 4 * 8 * 8 * 64


def _bindings():
    """Every attribute of the kortsolve modules, wrapped classes and spla, by identity."""
    import kortsolve.oracle
    owners = [m for k, m in sys.modules.items() if k.startswith("kortsolve") and m is not None]
    for path, _, _, _ in tracing.TARGETS:
        owners.append(tracing._resolve(path)[0])
    owners.append(kortsolve.oracle.spla)
    return {(id(o), k): v for o in owners for k, v in list(vars(o).items())}


def test_wrappers_restore_the_original_callables():
    import kortsolve.fields
    import kortsolve.oracle
    import kortsolve.profiles
    import kortsolve.rbound
    before = _bindings()
    original_solve_mode = kortsolve.fields.solve_mode
    tracer = tracing.Tracer()
    tracer.install()
    try:
        # wrapped under the names the callers look up
        assert kortsolve.fields.solve_mode is not original_solve_mode
        assert kortsolve.rbound.solve_mode is kortsolve.fields.solve_mode
        assert kortsolve.oracle.spla.spsolve.__wrapped__ is not None
        assert kortsolve.profiles.VerticalProfile.evaluate.__wrapped__ is not None
    finally:
        tracer.uninstall()
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def _loop(workload, item, refs):
    loop = run.Loop(workload, refs, 0)
    loop.run([item], seconds=0.0)
    return loop


def test_broken_output_is_counted_as_failed():
    workload = workloads.Field2dTall(spec=SMALL_2D)
    item = workload.build(0)[0]
    reference = workload.check(item, workload.run(item), None).error
    refs = {workload.name: {str(workloads.variant_of(0)): reference}}

    clean = _loop(workload, item, refs)
    assert (clean.attempted, clean.failed) == (1, 0)

    honest_run = workload.run

    def perturbed(item):
        rho, u, report = honest_run(item)
        rho.values[rho.values.shape[0] // 2, 10] += 100.0
        return rho, u, report

    workload.run = perturbed
    broken = _loop(workload, item, refs)
    assert (broken.attempted, broken.failed) == (1, 1)
    assert "recovery_drift" in broken.failures[0]

    def raising(item):
        raise FloatingPointError("injected")

    workload.run = raising
    crashed = _loop(workload, item, refs)
    assert (crashed.attempted, crashed.failed) == (1, 1)
