import math
import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run_demo(name):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run([sys.executable, str(ROOT / "demos" / name)], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=300)


def test_boundary_determinants_demo():
    proc = run_demo("03_boundary_determinants.py")
    assert proc.returncode == 0, proc.stderr
    infima = re.findall(r"inf = ([0-9.eE+-]+)", proc.stdout)
    assert len(infima) == 5 and min(map(float, infima)) > 0, proc.stdout
    # the raw and cancellation-free forms of m1 print as scalars and agree
    raw, alt = (complex(re.search(rf"^  {form} +(\S+)$", proc.stdout, re.M).group(1))
                for form in ("raw", "alt"))
    assert abs(raw - alt) <= 1e-10 * abs(alt), (raw, alt)


def test_oracle_crosscheck_demo():
    proc = run_demo("05_oracle_crosscheck.py")
    assert proc.returncode == 0, proc.stderr
    cases = [line for line in proc.stdout.splitlines() if line.strip().startswith("case ")]
    assert len(cases) == 5, proc.stdout
    errors = [float(e) for e in re.findall(r"rel sup error ([0-9.eE+-]+)", proc.stdout)]
    assert len(errors) == 5
    # criterion 3's bound at the same n = 4096, 40-decay-length configuration
    assert max(errors) <= 1e-4, errors


def test_mode_solutions_demo():
    proc = run_demo("04_mode_solutions.py")
    assert proc.returncode == 0, proc.stderr
    cases = [line for line in proc.stdout.splitlines() if line.startswith("case ")]
    assert len(cases) == 5, proc.stdout
    checks = re.findall(r"interior residual (\S+), boundary (\S+), dual-route agreement (\S+)$",
                        proc.stdout, re.M)
    assert len(checks) == 5, proc.stdout
    for interior, boundary, agreement in checks:
        assert float(interior) <= 1e-12 and float(boundary) <= 1e-12, checks
        assert float(agreement) <= 1e-8, checks
    # linearity: the solve of the combined data and the combined solves
    lhs, rhs = re.search(r"^  beta_N: (\S+) vs (\S+)$", proc.stdout, re.M).groups()
    assert lhs == rhs, (lhs, rhs)


def test_field_pipeline_demo():
    proc = run_demo("06_field_pipeline.py")
    assert proc.returncode == 0, proc.stderr
    rows = re.findall(r"^ +(\d+) +(\S+) +(\S+) +(\S+) +\S+s$", proc.stdout, re.M)
    assert [int(n) for n, *_ in rows] == [64, 128, 256], proc.stdout
    recovery = [float(r) for _, r, _, _ in rows]
    # the error falls with n_tan, to criterion 9's bound at 256
    assert recovery[0] > recovery[1] > recovery[2] and recovery[2] <= 1e-6, recovery
    for _, _, u0, un_trace in rows:
        assert float(u0) <= 1e-12 and float(un_trace) == 0.0, rows
    residuals = re.findall(r"^  (mass|momentum): (\S+)$", proc.stdout, re.M)
    assert len(residuals) == 2 and all(float(v) <= 1e-10 for _, v in residuals), residuals
    defect = re.search(r"boundary-condition defect of the assembled field: (\S+)$", proc.stdout,
                       re.M).group(1)
    assert float(defect) <= 1e-12, defect


def test_classify_parameter_space_demo():
    proc = run_demo("01_classify_parameter_space.py")
    assert proc.returncode == 0, proc.stderr
    # the five landmark triples land in cases I-V, in order
    cases = re.findall(r"^ +\d+ +\d+ +\d+ +(\S+) +\S+  ", proc.stdout, re.M)
    assert cases == ["I", "II", "III", "IV", "V"], proc.stdout
    assert "(3, 1, 4) via Fraction -> case IV" in proc.stdout
    assert "(3, 1, 4*(1-1e-9)) in floats -> case II" in proc.stdout


def test_characteristic_roots_demo():
    proc = run_demo("02_characteristic_roots.py")
    assert proc.returncode == 0, proc.stderr
    residuals = [float(v) for v in re.findall(r"max \|P\(roots\)\| = (\S+)$", proc.stdout, re.M)]
    assert len(residuals) == 4 and max(residuals) <= 1e-12, residuals
    ratios = re.findall(r"t1 ratio = (\S+) \(want (\S+)\)$", proc.stdout, re.M)
    assert len(ratios) == 2, proc.stdout
    for got, want in ratios:
        assert abs(complex(got) - float(want)) <= 1e-10 * float(want), ratios
    infima = [float(v) for v in re.findall(r"inf = (\S+)  ", proc.stdout)]
    assert len(infima) == 3 and min(infima) > 0, proc.stdout


def test_randomized_boundedness_demo():
    proc = run_demo("07_randomized_boundedness.py")
    assert proc.returncode == 0, proc.stderr
    assert "every ratio = 1 exactly (max deviation 0.0e+00)" in proc.stdout
    # criterion 10's bound on the A2/B2 spreads and their derivative families'
    spreads = [float(v) for v in re.findall(r"spread across decades: (\S+)$", proc.stdout, re.M)]
    derivative = [float(v) for v in re.findall(r"lambda-derivative family: .*, spread (\S+)$",
                                               proc.stdout, re.M)]
    assert len(spreads) == len(derivative) == 2, proc.stdout
    assert all(math.isfinite(s) and s <= 10.0 for s in spreads + derivative), proc.stdout
