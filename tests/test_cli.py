import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import kortsolve
from kortsolve.cli import TOLERANCE_ERROR, dispatch


def run(argv, capsys):
    code = dispatch(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_import_does_not_load_scipy_fft():
    # scipy.fft is imported where a field solve runs its transforms, so
    # commands that never solve a field do not pay for it at start-up.
    src = str(Path(kortsolve.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    probe = ("import sys, kortsolve.cli; "
             "print(sorted(m for m in sys.modules if m.startswith('scipy.fft')))")
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True,
                         timeout=120, check=True)
    assert out.stdout.strip() == "[]"


def _fresh_python(probe):
    """Run `probe` in a new interpreter on this package; return its last stdout line."""
    src = str(Path(kortsolve.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True,
                         timeout=120, check=True)
    return out.stdout.splitlines()[-1]


_LOADED_SCIPY = "sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')"


def test_import_loads_no_scipy():
    # the package rule: importing kortsolve loads numpy only
    probe = f"import sys, kortsolve, kortsolve.cli; print({_LOADED_SCIPY})"
    assert _fresh_python(probe) == "[]"


def test_commands_that_solve_no_field_or_oracle_load_no_scipy():
    params = ["--mu", "1", "--nu", "1", "--kappa", "2"]
    scan = ["--name", "m1", "--n-xi", "4", "--n-lam", "4", "--n-arg", "3"]
    commands = [["classify", *params],
                ["roots", *params, "--xi", "1", "--lam", "1+0.5j"],
                ["solve-mode", *params, "--xi", "1", "--lam", "1", "--g", "1", "--h", "0.5"],
                ["symbol-check", *params, *scan, "--max-order", "1"],
                ["lopatinski-scan", *params, *scan],
                ["rbound", *params, "--family", "A2", "--m", "4", "--trials", "60",
                 "--draws", "1", "--n-tangential", "16", "--n-vertical", "64"],
                # positive control: the oracle's solve imports scipy.linalg
                ["oracle-compare", *params, "--xi", "1", "--lam", "1", "--n", "256",
                 "--rows", "1", "--tol", "1"]]
    probe = ("import json, sys\n"
             "from kortsolve.cli import dispatch\n"
             "loaded = []\n"
             f"for argv in {commands!r}:\n"
             "    code = dispatch(argv)\n"
             f"    loaded.append([argv[0], code, {_LOADED_SCIPY}])\n"
             "print(json.dumps(loaded))")
    loaded = json.loads(_fresh_python(probe))
    assert [(name, code) for name, code, _ in loaded] == [(c[0], 0) for c in commands]
    assert all(modules == [] for _, _, modules in loaded[:-1]), loaded
    assert "scipy.linalg" in loaded[-1][2]


def test_oracle_spla_is_imported_on_first_read():
    # oracle.spla exists only for the benchmark's spsolve wrapper, so it is
    # imported when read, and no other missing name is served
    probe = ("import json, sys, kortsolve.oracle as oracle\n"
             "before = ('spla' in vars(oracle), "
             "any(m.startswith('scipy.sparse') for m in sys.modules))\n"
             "import scipy.sparse.linalg\n"
             "same = oracle.spla.spsolve is scipy.sparse.linalg.spsolve\n"
             "try:\n"
             "    oracle.no_such_name\n"
             "    missing = 'served'\n"
             "except AttributeError as exc:\n"
             "    missing = str(exc)\n"
             "print(json.dumps([before, same, 'spla' in vars(oracle), missing]))")
    before, same, bound, missing = json.loads(_fresh_python(probe))
    assert before == [False, False]
    assert same and bound
    assert missing == "module 'kortsolve.oracle' has no attribute 'no_such_name'"


class TestClassify:
    def test_case_three_example(self, capsys):
        code, out, err = run(["classify", "--mu", "2", "--nu", "1", "--kappa", "2"], capsys)
        assert code == 0
        assert "case,III," in out
        assert "Case III: s1 = 0.5" in err and "s2 = 1" in err

    def test_config_file(self, tmp_path, capsys):
        cfg = tmp_path / "fluid.cfg"
        cfg.write_text("# parameters\nmu = 3\nnu = 1\nkappa = 4  # boundary case\n")
        code, out, _ = run(["classify", "--config", str(cfg)], capsys)
        assert code == 0
        assert "case,IV," in out

    def test_missing_params_fail(self, capsys):
        code, _, err = run(["classify"], capsys)
        assert code == 1
        assert "error" in err

    def test_unknown_flag_exit_two(self):
        with pytest.raises(SystemExit) as exc:
            dispatch(["classify", "--mu", "1", "--nu", "1", "--kappa", "1", "--bogus"])
        assert exc.value.code == 2


    @pytest.mark.parametrize("argv", [
        ["classify", "--mu", "1", "--nu", "1", "--kappa", "2", "--n", "3"],
        ["roots", "--mu", "1", "--n", "1", "--kappa", "2", "--xi", "1", "--lam", "1"]])
    def test_flag_prefix_is_not_a_flag(self, argv, capsys):
        # --n is not --nu: a prefix selects no flag
        with pytest.raises(SystemExit) as exc:
            dispatch(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments: --n" in capsys.readouterr().err

    @pytest.mark.parametrize("where", [["--config", "{missing}/fluid.cfg"],
                                       ["--mu", "1", "--nu", "1", "--kappa", "2",
                                        "-o", "{missing}/x.csv"]])
    def test_unreadable_or_unwritable_path_is_one_error_line(self, where, tmp_path, capsys):
        argv = ["classify", *(a.format(missing=tmp_path / "missing") for a in where)]
        code, out, err = run(argv, capsys)
        assert code == TOLERANCE_ERROR
        assert out == ""
        assert err.startswith("error: ") and len(err.splitlines()) == 1
        assert "No such file or directory" in err


class TestSolveMode:
    def test_zero_trace(self, capsys):
        code, out, _ = run(["solve-mode", "--mu", "1", "--nu", "1", "--kappa", "2",
                            "--xi", "1", "--lam", "1", "--g", "0", "--h", "0"], capsys)
        assert code == 0

    def test_profiles_emitted(self, tmp_path, capsys):
        prof = tmp_path / "profiles.json"
        code, _, _ = run(["solve-mode", "--mu", "1", "--nu", "1", "--kappa", "2",
                          "--xi", "1", "--lam", "1+0.5j", "--g", "1", "--h", "0.5-0.2j",
                          "--emit-profile", str(prof), "-o", str(tmp_path / "res.csv")], capsys)
        assert code == 0
        payload = json.loads(prof.read_text())
        assert set(payload) == {"rho", "phi", "u_1", "u_2"}
        for rows in payload.values():
            for row in rows:
                assert len(row) == 5
        manifest = json.loads((prof.with_name("profiles.json.manifest.json")).read_text())
        assert manifest["subcommand"] == "solve-mode"


    def test_unwritable_profile_is_one_error_line(self, tmp_path, capsys):
        code, out, err = run(["solve-mode", "--mu", "1", "--nu", "1", "--kappa", "2",
                              "--xi", "1", "--lam", "1", "--emit-profile",
                              str(tmp_path / "missing" / "p.json")], capsys)
        assert code == TOLERANCE_ERROR
        assert out == ""
        assert err.startswith("error: ") and len(err.splitlines()) == 1


class TestOracleCompare:
    def test_under_resolved_fails(self, tmp_path, capsys):
        code, _, err = run(["oracle-compare", "--mu", "1", "--nu", "1", "--kappa", "2",
                            "--xi", "1", "--lam", "1", "--g", "1", "--n", "8",
                            "-o", str(tmp_path / "cmp.csv")], capsys)
        assert code == 1
        assert "rel sup error" in err

    def test_resolved_passes(self, tmp_path, capsys):
        code, _, err = run(["oracle-compare", "--mu", "1", "--nu", "1", "--kappa", "2",
                            "--xi", "1", "--lam", "1", "--g", "1", "--n", "4096",
                            "-o", str(tmp_path / "cmp.csv")], capsys)
        assert code == 0
        rows = (tmp_path / "cmp.csv").read_text().splitlines()
        assert rows[0].startswith("x,component,closed_re")

    def test_three_dimensional_mode_passes(self, tmp_path, capsys):
        code, _, err = run(["oracle-compare", "--mu", "2", "--nu", "1", "--kappa", "2",
                            "--xi", "0.6,-0.4", "--lam", "1.1+0.3j", "--g", "1-0.5j",
                            "--h", "0.5,-0.25", "--scheme", "fourth_order_fd", "--n", "4096",
                            "-o", str(tmp_path / "cmp.csv")], capsys)
        assert code == 0, err
        rows = (tmp_path / "cmp.csv").read_text().splitlines()
        assert {row.split(",")[1] for row in rows[1:]} == {"rho", "u_1", "u_2", "u_3"}

    @pytest.mark.parametrize("rows", ["0", "-3"])
    def test_rows_below_one_is_one_error_line(self, tmp_path, capsys, rows):
        code, out, err = run(["oracle-compare", "--mu", "1", "--nu", "1", "--kappa", "2",
                              "--xi", "1", "--lam", "1", "--n", "512", "--rows", rows,
                              "-o", str(tmp_path / "cmp.csv")], capsys)
        assert code == TOLERANCE_ERROR
        assert out == ""
        assert err == f"error: --rows must be >= 1, got {rows}\n"
        assert not (tmp_path / "cmp.csv").exists()

    def test_zero_length_is_one_error_line(self, tmp_path, capsys):
        # --length 0 is rejected, not replaced by the automatic length
        code, out, err = run(["oracle-compare", "--mu", "1", "--nu", "1", "--kappa", "2",
                              "--xi", "1", "--lam", "1", "--n", "512", "--length", "0",
                              "-o", str(tmp_path / "cmp.csv")], capsys)
        assert code == TOLERANCE_ERROR
        assert out == ""
        assert err == "error: interval length must be positive and finite\n"
        assert not (tmp_path / "cmp.csv").exists()

    def test_parser_reused_after_usage_error(self, tmp_path, capsys):
        argv = ["oracle-compare", "--mu", "1", "--nu", "1", "--kappa", "2", "--xi", "1",
                "--lam", "1", "--n", "512", "--scheme", "fourth_order_fd", "-o"]
        first, again = tmp_path / "first.csv", tmp_path / "again.csv"
        assert run(argv + [str(first)], capsys)[0] == 0
        with pytest.raises(SystemExit) as exc:
            dispatch(["oracle-compare", "--bogus"])
        assert exc.value.code == 2
        assert run(argv + [str(again)], capsys)[0] == 0
        assert again.read_bytes() == first.read_bytes()


class TestScans:
    def test_lopatinski_scan_csv(self, tmp_path, capsys):
        out_file = tmp_path / "scan.csv"
        code, _, _ = run(["lopatinski-scan", "--mu", "1", "--nu", "1", "--kappa", "2",
                          "--name", "m1", "--n-xi", "8", "--n-lam", "8", "--n-arg", "3",
                          "-o", str(out_file)], capsys)
        assert code == 0
        lines = out_file.read_text().splitlines()
        assert lines[0] == "band,inf,argmin_xi,argmin_lam_re,argmin_lam_im"
        assert lines[-1].startswith("all,")

    def test_consistency_error_is_one_error_line(self, capsys):
        # det L vanishes like lam^2 as |lam|/|xi|^2 -> 0, so the default grid
        # reports a potential zero, which the scan raises as ConsistencyError
        code, out, err = run(["lopatinski-scan", "--name", "detL", "--mu", "1", "--nu", "1",
                              "--kappa", "2"], capsys)
        assert code == TOLERANCE_ERROR
        assert out == ""
        assert err.startswith("error: ") and len(err.splitlines()) == 1
        assert "potential zero" in err

    @staticmethod
    def _one_error_line(argv, capsys):
        # a numpy warning from building the axes would print ahead of the
        # error line outside pytest, which records warnings instead
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run(argv, capsys)
        assert [str(w.message) for w in caught] == []
        assert code == TOLERANCE_ERROR
        assert out == ""
        assert err.startswith("error: ") and len(err.splitlines()) == 1
        return err

    @pytest.mark.parametrize("flag", [["--xi-min", "nan"], ["--arg-limit", "3.0"],
                                      ["--xi-max", "inf"], ["--xi-min", "0"],
                                      ["--lam-sqrt-max", "inf"],
                                      ["--xi-min", "10", "--xi-max", "1"]])
    def test_invalid_grid_is_one_error_line(self, flag, capsys):
        self._one_error_line(["lopatinski-scan", "--mu", "1", "--nu", "1", "--kappa", "2",
                              "--name", "m1", *flag], capsys)

    @pytest.mark.parametrize("cmd", ["symbol-check", "lopatinski-scan"])
    @pytest.mark.parametrize("dim", ["0", "1"])
    def test_scan_dim_below_two_is_one_error_line(self, cmd, dim, capsys):
        err = self._one_error_line([cmd, "--mu", "1", "--nu", "1", "--kappa", "2",
                                    "--name", "m1", "--dim", dim], capsys)
        assert "dim must be >= 2" in err

    @pytest.mark.parametrize("flag", [["--lam-sqrt-max", "inf"], ["--lam-sqrt-min", "0"]])
    def test_invalid_symbol_check_range_is_one_error_line(self, flag, capsys):
        err = self._one_error_line(["symbol-check", "--mu", "1", "--nu", "1", "--kappa", "2",
                                    "--name", "m1", *flag], capsys)
        assert "must be finite with 0 < min <= max" in err

    def test_symbol_check_runs(self, tmp_path, capsys):
        code, _, _ = run(["symbol-check", "--mu", "3", "--nu", "1", "--kappa", "1",
                          "--name", "n1", "--n-xi", "6", "--n-lam", "6", "--n-arg", "3",
                          "--max-order", "1", "-o", str(tmp_path / "sym.csv")], capsys)
        assert code == 0

    def test_determinism_byte_for_byte(self, tmp_path, capsys):
        for cmd in ("lopatinski-scan", "symbol-check"):
            a, b = tmp_path / f"{cmd}-a.csv", tmp_path / f"{cmd}-b.csv"
            for path in (a, b):
                run([cmd, "--mu", "2", "--nu", "1", "--kappa", "2",
                     "--name", "d3", "--n-xi", "8", "--n-lam", "8", "--n-arg", "3",
                     "-o", str(path)], capsys)
            assert a.read_bytes() == b.read_bytes(), cmd
            assert json.loads((tmp_path / f"{cmd}-a.csv.manifest.json").read_text())["outputs"]


class TestRbound:
    def test_probe_json_and_determinism(self, tmp_path, capsys):
        args = ["rbound", "--mu", "1", "--nu", "1", "--kappa", "2", "--family", "A2",
                "--m", "4", "--trials", "60", "--draws", "1", "--seed", "9",
                "--n-tangential", "16", "--n-vertical", "64"]
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        code, _, _ = run(args + ["-o", str(a)], capsys)
        assert code == 0
        run(args + ["-o", str(b)], capsys)
        ja = json.loads(a.read_text())
        jb = json.loads(b.read_text())
        assert ja == jb
        assert set(ja) >= {"family", "global_max_ratio", "per_decade_max_ratio"}

    @pytest.mark.parametrize("decades", ["1e-2,5e1", "0,1", "1e-300,1e300"])
    def test_partial_or_empty_decades_rejected(self, tmp_path, capsys, decades):
        code, _, err = run(["rbound", "--mu", "1", "--nu", "1", "--kappa", "2", "--family", "A2",
                            "--decades", decades, "-o", str(tmp_path / "r.json")], capsys)
        assert code == 1
        assert err.startswith("error: decades must")
        assert not (tmp_path / "r.json").exists()

    @pytest.mark.parametrize("control", [["--draws", "0"], ["--q", "0"]])
    def test_degenerate_probe_controls_rejected(self, tmp_path, capsys, control):
        code, _, err = run(["rbound", "--mu", "1", "--nu", "1", "--kappa", "2", "--family", "A2",
                            *control, "-o", str(tmp_path / "r.json")], capsys)
        assert code == 1
        assert err.startswith("error: ")
        assert not (tmp_path / "r.json").exists()


class TestSolveField:
    def test_field_round_trip_with_files(self, tmp_path, capsys):
        from kortsolve import classify
        from kortsolve.fields import GridSpec, manufactured_solution, save_field, GridField
        p = classify(1, 1, 2)
        spec = GridSpec(dim=2, box_half_length=3.0, n_tangential=16,
                        vertical_cutoff=12.0, n_vertical=128)
        mf = manufactured_solution(p, spec, 1.0 + 0.5j)
        prefix = str(tmp_path / "data")
        save_field(prefix + ".d", mf["d"])
        for i, c in enumerate(mf["f"]):
            save_field(f"{prefix}.f{i}", c)
        g_field = GridField(np.broadcast_to(mf["g_trace"][:, None], spec.shape).copy(), spec)
        # g enters through its boundary trace; store it as a field
        save_field(prefix + ".g", g_field)
        out_prefix = str(tmp_path / "sol")
        code, _, _ = run(["solve-field", "--mu", "1", "--nu", "1", "--kappa", "2",
                          "--lam", "1+0.5j", "--data", prefix, "-o", out_prefix], capsys)
        assert code == 0
        summary = json.loads((tmp_path / "sol.residuals.json").read_text())
        assert summary["boundary_u_max"] <= 1e-8
        index = summary["correction_residual_index"]
        assert len(index) == spec.dim - 1 and sum(index) % (spec.n_tangential // 4) == 0
        assert summary["correction_residual_equation"] in ("mass", "divergence", "momentum_1",
                                                           "momentum_N")
        assert os.path.exists(out_prefix + ".rho.bin")
        manifest = json.loads((tmp_path / "sol.rho.bin.manifest.json").read_text())
        assert manifest["input_hashes"]

    def test_determinism_byte_for_byte(self, tmp_path, capsys, monkeypatch):
        # The field solve runs on threads; its outputs must not depend on
        # their scheduling or number.
        from kortsolve import fields
        from kortsolve.fields import GridField, GridSpec, save_field
        spec = GridSpec(dim=3, box_half_length=3.0, n_tangential=16,
                        vertical_cutoff=6.0, n_vertical=64)
        X, Y, Z = np.meshgrid(spec.tangential_coords(), spec.tangential_coords(),
                              spec.vertical_coords(), indexing="ij")
        bump = np.exp(-(X**2 + (Y - 0.3) ** 2 + (Z - 1.5) ** 2) / 0.25)
        prefix = str(tmp_path / "data")
        save_field(prefix + ".d", GridField(bump, spec))
        save_field(prefix + ".f0", GridField(0.5j * bump, spec))
        save_field(prefix + ".f1", GridField(np.zeros(spec.shape), spec))
        save_field(prefix + ".f2", GridField(Z * bump, spec))
        save_field(prefix + ".g", GridField(bump, spec))
        for run_name, workers in (("a", None), ("b", 3)):
            if workers is not None:
                monkeypatch.setattr(fields, "cpu_workers", lambda: workers)
                monkeypatch.setattr(fields, "TASK_BYTES", 1)  # threads even at this size
            code, _, _ = run(["solve-field", "--mu", "3", "--nu", "1", "--kappa", "4",
                              "--lam", "1+0.5j", "--data", prefix,
                              "-o", str(tmp_path / run_name)], capsys)
            assert code == 0
        for part in ("rho", "u1", "u2", "u3"):
            a = (tmp_path / f"a.{part}.bin").read_bytes()
            assert a == (tmp_path / f"b.{part}.bin").read_bytes(), part
            assert len(a) == 16 * 16 * 16 * 64
        # the report too, norms included: they are summed line by line
        a = (tmp_path / "a.residuals.json").read_bytes()
        assert a == (tmp_path / "b.residuals.json").read_bytes()
        assert b'"norms"' in a

    def test_normal_force_with_boundary_trace_fails(self, tmp_path, capsys):
        from kortsolve.fields import GridField, GridSpec, save_field
        spec = GridSpec(dim=2, box_half_length=3.0, n_tangential=16,
                        vertical_cutoff=8.0, n_vertical=128)
        X, Z = np.meshgrid(spec.tangential_coords(), spec.vertical_coords(), indexing="ij")
        bump = np.exp(-(X**2 + (Z - 0.5) ** 2) / 0.25)
        prefix = str(tmp_path / "data")
        save_field(prefix + ".d", GridField(bump, spec))
        save_field(prefix + ".f0", GridField(np.zeros(spec.shape), spec))
        save_field(prefix + ".f1", GridField(bump, spec))
        save_field(prefix + ".g", GridField(np.zeros(spec.shape), spec))
        code, _, err = run(["solve-field", "--mu", "1", "--nu", "1", "--kappa", "2",
                            "--lam", "1+0.5j", "--data", prefix,
                            "-o", str(tmp_path / "sol")], capsys)
        assert code == 1
        assert "trace/peak = 3.68e-01" in err
        assert "set its boundary row f_N[..., 0] to zero" in err

    @pytest.mark.parametrize("other", [{"box_half_length": 6.0, "vertical_cutoff": 16.0},
                                       {"n_vertical": 64}], ids=["same-shape", "other-shape"])
    def test_force_on_another_grid_fails(self, tmp_path, capsys, other):
        import dataclasses
        from kortsolve.fields import GridField, GridSpec, save_field
        spec = GridSpec(dim=2, box_half_length=3.0, n_tangential=16,
                        vertical_cutoff=8.0, n_vertical=128)
        elsewhere = dataclasses.replace(spec, **other)
        X, Z = np.meshgrid(spec.tangential_coords(), spec.vertical_coords(), indexing="ij")
        bump = np.exp(-(X**2 + (Z - 2.0) ** 2) / 0.25)
        prefix = str(tmp_path / "data")
        save_field(prefix + ".d", GridField(bump, spec))
        save_field(prefix + ".f0", GridField(bump, spec))
        save_field(prefix + ".f1", GridField(np.zeros(elsewhere.shape), elsewhere))
        save_field(prefix + ".g", GridField(np.zeros(spec.shape), spec))
        code, _, err = run(["solve-field", "--mu", "1", "--nu", "1", "--kappa", "2",
                            "--lam", "1+0.5j", "--data", prefix,
                            "-o", str(tmp_path / "sol")], capsys)
        assert code != 0
        assert err.startswith("error: f[1] is on the grid")
        assert not (tmp_path / "sol.rho.bin").exists()

    def test_data_help_names_the_boundary_row_requirement(self):
        from kortsolve.cli import build_parser
        subs = next(a for a in build_parser()._actions if a.choices and "solve-field" in a.choices)
        help_text = " ".join(subs.choices["solve-field"].format_help().split())
        assert "zero the x_N = 0 row of an f_N built by inverse transforms" in help_text
