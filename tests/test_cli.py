import json
import math
import time
from pathlib import Path

import pytest

from spaceform_areas import cli, densities
from spaceform_areas.cli import (
    EXPERIMENT_DEFAULTS,
    ConfigParseError,
    ExperimentSpec,
    UnknownKeyError,
    _coerce_override,
    main,
    parse_config,
    run_experiment,
)


class TestParseConfig:
    def test_minimal_document_uses_defaults(self):
        spec = parse_config('{"experiment": "levy-baseline"}')
        assert spec.name == "levy-baseline"
        assert spec.params == {}
        assert spec.output_dir == Path("out")
        assert spec.master_seed == 12345
        assert spec.resolved_params()["paths"] == 100000

    def test_full_document(self):
        spec = parse_config(json.dumps({
            "experiment": "winding-cp1",
            "params": {"paths": 500, "t": 5.0},
            "output_dir": "results/w",
            "master_seed": 99,
        }))
        assert spec.master_seed == 99
        assert spec.output_dir == Path("results/w")
        assert spec.resolved_params()["paths"] == 500
        assert spec.resolved_params()["lam"] == 1.0

    def test_unknown_top_level_key_named(self):
        with pytest.raises(UnknownKeyError, match="pahts"):
            parse_config('{"experiment": "levy-baseline", "pahts": 3}')

    def test_unknown_param_key_named(self):
        with pytest.raises(UnknownKeyError, match="pths"):
            parse_config(
                '{"experiment": "levy-baseline", "params": {"pths": 3}}')

    def test_unknown_experiment(self):
        with pytest.raises(UnknownKeyError, match="no-such"):
            parse_config('{"experiment": "no-such"}')

    def test_parse_error_carries_line_and_column(self):
        with pytest.raises(ConfigParseError, match=r"line 2, column"):
            parse_config('{"experiment":\n "levy-baseline",}')

    def test_empty_document(self):
        with pytest.raises(ConfigParseError):
            parse_config("   ")

    def test_non_object_document(self):
        with pytest.raises(ConfigParseError):
            parse_config("[1, 2]")

    def test_missing_experiment(self):
        with pytest.raises(ConfigParseError):
            parse_config('{"master_seed": 4}')

    @pytest.mark.parametrize("seed", ["1.7", "true", '"12"', "null"])
    def test_bad_master_seed_named(self, seed, tmp_path):
        # int() would truncate 1.7 and accept true as 1
        text = '{"experiment": "levy-baseline", "master_seed": %s}' % seed
        with pytest.raises(ConfigParseError, match="master_seed"):
            parse_config(text)
        cfgp = tmp_path / "c.json"
        cfgp.write_text(text)
        assert main(["--config", str(cfgp)]) == 2

    @pytest.mark.parametrize("n", [1.5])
    def test_ch_area_cf_rejects_n_other_than_one(self, n, tmp_path):
        # ch-area-cf runs at every positive integer n; a fractional n
        # names no space CH^n
        text = json.dumps({"experiment": "ch-area-cf", "params": {"n": n}})
        with pytest.raises(ValueError, match="'n' must be a positive integer"):
            parse_config(text)
        cfgp = tmp_path / "c.json"
        cfgp.write_text(text)
        assert main(["--config", str(cfgp)]) == 2

    def test_ch_area_cf_accepts_n_one(self):
        spec = parse_config(
            '{"experiment": "ch-area-cf", "params": {"n": 1}}')
        assert spec.resolved_params()["n"] == 1

    @pytest.mark.parametrize("n", [2, 3])
    def test_ch_area_cf_accepts_n_above_one(self, n):
        spec = parse_config(
            '{"experiment": "ch-area-cf", "params": {"n": %d}}' % n)
        assert spec.resolved_params()["n"] == n

    @pytest.mark.parametrize("name,key,value", [
        ("levy-baseline", "paths", 0),
        ("levy-baseline", "paths", -4096),
        ("levy-baseline", "paths", 2.5),
        ("levy-baseline", "paths", True),
        ("levy-baseline", "paths", "4096"),
        ("levy-baseline", "dt", 0.0),
        ("levy-baseline", "dt", 2.0),
        ("levy-baseline", "dt", "1e-3"),
        ("cp-area-cf", "dt_direct", -1e-3),
        ("cp-area-cf", "dt_girsanov", 1.5),
        ("ch-area-cf", "dt", float("nan")),
        ("cp-area-cf", "lambdas", []),
        ("cp-area-cf", "lambdas", 0.5),
        ("cp-cauchy-limit", "ns", []),
        ("cp-cauchy-limit", "ns", [1, 2.5]),
        ("cp-cauchy-limit", "ns", [0]),
        ("cp-area-cf", "n", 0),
        ("berger-homogenisation", "n", 1.5),
        ("winding-ch1", "lambdas", ["1.0"]),
        ("winding-ch1", "r0s", [0.5, float("inf")]),
        ("cp-area-cf", "lambdas", [0.5, 0.0]),
        ("cp-area-cf", "lambdas", [-0.5]),
        ("winding-ch1", "lambdas", [0.0]),
    ])
    def test_bad_sampler_param_named(self, name, key, value, tmp_path):
        # each used to reach the run: a failed `completed` check (exit 1),
        # a silently truncated n (int(2.5) == 2) or, for an empty list, a
        # run with no CF check at all (exit 0); a zero lambda divided by a
        # standard error of 0 and a negative one failed the Girsanov
        # estimator (exit 1)
        text = json.dumps({"experiment": name, "params": {key: value}})
        with pytest.raises(ValueError, match=f"'{key}'"):
            parse_config(text)
        cfgp = tmp_path / "c.json"
        cfgp.write_text(text)
        assert main(["--config", str(cfgp),
                     "--out", str(tmp_path / "o")]) == 2
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("name,key,value", [
        ("winding-cp1", "r0", 0.0),
        ("winding-cp1", "r0", math.pi / 2),
        ("winding-cp1", "r0", 2.0),
        ("winding-cp1", "r0", "0.7"),
        ("winding-ch1", "r0s", [0.5, 0.0]),
        ("winding-ch1", "r0s", [-1.0]),
        ("cp-area-cf", "sigma", 0.0),
        ("levy-baseline", "sigma", -3.0),
        ("winding-cp1", "sigma", float("inf")),
        ("winding-ch1", "sigma", float("nan")),
        ("ch-gaussian-limit", "p_min", 1.0),
        ("ch-gaussian-limit", "p_min", -0.01),
        ("ch-gaussian-limit", "p_min", None),
    ])
    def test_bad_sampler_scalar_named(self, name, key, value, tmp_path):
        # an r0 outside (0, pi/2) used to fail inside sample_winding (exit
        # 1); sigma <= 0 or NaN failed every z-check, or none, silently
        text = json.dumps({"experiment": name, "params": {key: value}})
        with pytest.raises(ValueError, match=f"'{key}'"):
            parse_config(text)
        cfgp = tmp_path / "c.json"
        cfgp.write_text(text)
        assert main(["--config", str(cfgp),
                     "--out", str(tmp_path / "o")]) == 2
        assert main(["--experiment", name, "--override",
                     f"{key}={json.dumps(value)}",
                     "--out", str(tmp_path / "o")]) == 2
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("name,key,value", [
        ("ch1-loop-density", "points", 0),
        ("ch1-loop-density", "points", 2.7),
        ("ch1-loop-density", "points", -21),
        ("ch1-loop-density", "points", "21"),
        ("jacobi-selftest", "m_max_oracle", -1),
        ("jacobi-selftest", "m_max_oracle", 6.5),
        ("jacobi-selftest", "m_max_eig", -1),
        ("jacobi-selftest", "m_max_eig", None),
    ])
    def test_bad_quadrature_count_named(self, name, key, value, tmp_path):
        # points = 0 and m_max_* = -1 used to write a passing verdict that
        # compared nothing (check value 0.0); points = 2.7 ran 2 points
        text = json.dumps({"experiment": name, "params": {key: value}})
        with pytest.raises(ValueError, match=f"'{key}'"):
            parse_config(text)
        cfgp = tmp_path / "c.json"
        cfgp.write_text(text)
        assert main(["--config", str(cfgp),
                     "--out", str(tmp_path / "o")]) == 2
        assert main(["--experiment", name, "--override",
                     f"{key}={json.dumps(value)}",
                     "--out", str(tmp_path / "o")]) == 2
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("name,key,value", [
        ("ch1-loop-density", "t", -1.0),
        ("berger-homogenisation", "t", 0.0),
        ("levy-baseline", "t", float("inf")),
        ("winding-ch1", "t", "100"),
        ("winding-cp1", "lam", float("nan")),
        ("levy-baseline", "lam", float("inf")),
        ("berger-homogenisation", "lam", None),
        ("berger-homogenisation", "lam", 0.0),
        ("berger-homogenisation", "lam", -1.0),
        ("levy-baseline", "lam", 0.0),
        ("winding-cp1", "lam", 0),
        ("ch1-loop-density", "theta_lo", float("nan")),
        ("ch1-loop-density", "theta_hi", float("inf")),
        ("ch1-loop-density", "theta_lo", 3.0),
        ("ch1-loop-density", "theta_hi", -4.0),
        ("ch1-loop-density", "tol", -1.0),
        ("winding-cp1", "tol", 0.0),
        ("jacobi-selftest", "oracle_tol", float("nan")),
        ("jacobi-selftest", "eig_tol", -1e-6),
        ("berger-homogenisation", "norm_tol", float("inf")),
        ("cp-cauchy-limit", "analytic_tol", 0.0),
    ])
    def test_bad_scalar_named(self, name, key, value, tmp_path):
        # each used to reach the run: t <= 0 failed its `completed` check,
        # a NaN lam or an inverted theta range failed a comparison, a
        # tolerance <= 0 failed one that no value could pass, a Berger
        # stiffness <= 0 failed inside berger_kernel and a zero planar lam
        # divided by a standard error of 0 (exit 1); a zero winding lam
        # passed by comparing 1 with 1
        text = json.dumps({"experiment": name, "params": {key: value}})
        with pytest.raises(ValueError, match=f"'{key}'"):
            parse_config(text)
        cfgp = tmp_path / "c.json"
        cfgp.write_text(text)
        assert main(["--config", str(cfgp),
                     "--out", str(tmp_path / "o")]) == 2
        assert main(["--experiment", name, "--override",
                     f"{key}={json.dumps(value)}",
                     "--out", str(tmp_path / "o")]) == 2
        assert not (tmp_path / "o").exists()

    def test_scalars_accept_edges(self):
        ExperimentSpec("ch1-loop-density", {"t": 1e-9, "tol": 1e-300,
                                            "theta_lo": -1e-9,
                                            "theta_hi": 0.0})
        ExperimentSpec("winding-cp1", {"lam": -1e-9, "tol": 1e9})
        ExperimentSpec("cp-area-cf", {"lambdas": [1e-9]})
        ExperimentSpec("jacobi-selftest", {"oracle_tol": 1e-30})

    def test_quadrature_counts_accept_edges(self):
        ExperimentSpec("ch1-loop-density", {"points": 1})
        ExperimentSpec("ch1-loop-density", {"points": 21.0})
        ExperimentSpec("jacobi-selftest", {"m_max_oracle": 0, "m_max_eig": 0})

    def test_scalar_bounds_accept_edges(self):
        ExperimentSpec("winding-cp1", {"r0": 1e-9, "sigma": 1e-9})
        ExperimentSpec("winding-cp1", {"r0": math.pi / 2 - 1e-9})
        ExperimentSpec("ch-gaussian-limit", {"p_min": 0.0})
        ExperimentSpec("winding-ch1", {"r0s": [1e-9, 30]})

    def test_dt_bound_uses_overridden_t(self):
        with pytest.raises(ValueError, match="'dt'"):
            ExperimentSpec("winding-cp1", {"t": 0.5, "dt": 0.6})
        spec = ExperimentSpec("winding-cp1", {"t": 0.5, "dt": 0.5,
                                              "paths": 4096.0})
        assert spec.resolved_params()["dt"] == 0.5

    @pytest.mark.parametrize("name,params", [
        ("berger-homogenisation", {"t": 1e-4}),
        ("cp-area-cf", {"t": 5e-4, "dt_direct": 1e-4, "dt_girsanov": 1e-4}),
        ("cp-cauchy-limit", {"t": 5e-4, "dt": 1e-4}),
    ], ids=["berger-homogenisation", "cp-area-cf", "cp-cauchy-limit"])
    def test_series_time_below_min_time_named(self, name, params, tmp_path):
        # each used to fail its `completed` check with TimeTooSmallError
        # (exit 1) once the spectral series met t < densities.MIN_TIME
        text = json.dumps({"experiment": name, "params": params})
        with pytest.raises(ValueError, match="'t'"):
            parse_config(text)
        cfgp = tmp_path / "c.json"
        cfgp.write_text(text)
        assert main(["--config", str(cfgp),
                     "--out", str(tmp_path / "o")]) == 2
        overrides = [arg for key, value in params.items()
                     for arg in ("--override", f"{key}={json.dumps(value)}")]
        assert main(["--experiment", name, *overrides,
                     "--out", str(tmp_path / "o")]) == 2
        assert not (tmp_path / "o").exists()
        spec = ExperimentSpec(name, {**params, "t": densities.MIN_TIME})
        assert spec.resolved_params()["t"] == densities.MIN_TIME

    def test_defaults_pass_sampler_checks(self):
        for name in EXPERIMENT_DEFAULTS:
            ExperimentSpec(name)

    def test_integral_float_master_seed(self):
        spec = parse_config(
            '{"experiment": "levy-baseline", "master_seed": 7.0}')
        assert spec.master_seed == 7 and isinstance(spec.master_seed, int)


class TestOverrides:
    def test_coercion(self):
        assert _coerce_override("3") == 3
        assert _coerce_override("2.5") == 2.5
        assert _coerce_override("true") is True
        assert _coerce_override("[0.5, 1.0]") == [0.5, 1.0]
        assert _coerce_override("hello") == "hello"


class TestRunExperiment:
    def test_artifacts_and_manifest_schema(self, tmp_path):
        spec = ExperimentSpec(
            name="levy-baseline",
            params={"paths": 4096, "dt": 5e-3},
            output_dir=tmp_path, master_seed=7)
        bundle = run_experiment(spec, threads=1)
        man = json.loads((tmp_path / "manifest.json").read_text())
        assert man["schema_version"] == 1
        assert man["experiment"] == "levy-baseline"
        assert man["master_seed"] == 7
        assert man["threads"] == 1
        assert man["wall_time_s"] > 0
        assert isinstance(man["passed"], bool)
        for c in man["checks"]:
            assert set(c) == {"name", "value", "threshold", "verdict"}
            assert c["verdict"] in ("pass", "fail")
        assert bundle.manifest["checks"] == man["checks"]
        csvs = sorted(tmp_path.glob("*.csv"))
        assert csvs, "experiment should emit at least one CSV table"

    def test_csv_format(self, tmp_path):
        spec = ExperimentSpec(
            name="levy-baseline",
            params={"paths": 4096, "dt": 5e-3},
            output_dir=tmp_path, master_seed=7)
        run_experiment(spec)
        raw = next(iter(sorted(tmp_path.glob("*.csv")))).read_bytes()
        assert b"\r" not in raw
        lines = raw.decode().splitlines()
        assert len(lines) >= 2
        # float cells carry 17 significant digits (shortest round-trip repr
        # via '%.17g' never loses bits)
        for cell in lines[1].split(","):
            if "." in cell or "e" in cell:
                assert float(cell) == float(format(float(cell), ".17g"))

    def test_failure_recorded_not_raised(self, tmp_path, monkeypatch):
        def runner(params, seed, threads):
            raise RuntimeError("runner failed")

        monkeypatch.setitem(cli._EXPERIMENT_RUNNERS, "ch1-loop-density",
                            runner)
        spec = ExperimentSpec(name="ch1-loop-density", output_dir=tmp_path,
                              master_seed=1)
        bundle = run_experiment(spec)
        assert not bundle.passed
        man = json.loads((tmp_path / "manifest.json").read_text())
        assert "error" in man
        assert man["passed"] is False

    def test_ch_area_cf_reports_quadrature_error(self, tmp_path):
        spec = ExperimentSpec(
            name="ch-area-cf",
            params={"lambdas": [0.5], "paths": 2000, "dt": 1e-2},
            output_dir=tmp_path, master_seed=5)
        bundle = run_experiment(spec, threads=1)
        check = next(c for c in bundle.manifest["checks"]
                     if c["name"] == "quadrature_est_error")
        assert check["threshold"] == 1e-8
        assert check["verdict"] == "pass"
        header, row = (tmp_path / "ch_area_cf.csv").read_text().splitlines()
        err = float(dict(zip(header.split(","), row.split(",")))[
            "quadrature_err"])
        assert 0.0 < err == check["value"]

    def test_ch2_area_cf_triangle(self, tmp_path):
        # the CH^2 quadrature CF against the direct and Girsanov samplers,
        # every pair within sigma = 3 SE, at 2^15 paths and a budget of 60 s
        t0 = time.perf_counter()
        spec = ExperimentSpec(name="ch-area-cf",
                              params={"n": 2, "paths": 2 ** 15},
                              output_dir=tmp_path, master_seed=314159)
        bundle = run_experiment(spec, threads=1)
        elapsed = time.perf_counter() - t0
        failed = [c["name"] for c in bundle.manifest["checks"]
                  if c["verdict"] != "pass"]
        assert failed == []
        assert elapsed < 60.0

    def test_rerun_byte_identical_across_threads(self, tmp_path):
        base = {"paths": 8192, "dt": 5e-3}
        outs = []
        for threads, sub in ((1, "a"), (3, "b")):
            spec = ExperimentSpec(
                name="levy-baseline", params=base,
                output_dir=tmp_path / sub, master_seed=33)
            run_experiment(spec, threads=threads)
            outs.append({p.name: p.read_bytes()
                         for p in sorted((tmp_path / sub).glob("*.csv"))})
        assert outs[0] == outs[1]


class TestMain:
    def test_exit_zero_on_pass(self, tmp_path, capsys):
        rc = main(["--experiment", "jacobi-selftest",
                   "--out", str(tmp_path), "--seed", "3"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "[PASS]" in out

    def test_exit_one_on_numeric_failure(self, tmp_path, capsys):
        # an impossible tolerance forces a clean numeric failure
        rc = main(["--experiment", "jacobi-selftest",
                   "--out", str(tmp_path),
                   "--override", "oracle_tol=1e-30"])
        out = capsys.readouterr().out
        assert rc == 1
        assert "[FAIL]" in out

    def test_exit_two_on_config_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"experiment": "levy-baseline",}')
        assert main(["--config", str(bad)]) == 2
        with pytest.raises(SystemExit):  # argparse usage error
            main([])

    def test_exit_two_on_unknown_experiment(self, capsys):
        assert main(["--experiment", "nope"]) == 2

    def test_exit_two_on_ch_area_cf_n_override(self, tmp_path, capsys):
        assert main(["--experiment", "ch-area-cf", "--out", str(tmp_path),
                     "--override", "n=0"]) == 2
        assert "'n'" in capsys.readouterr().err
        assert not (tmp_path / "manifest.json").exists()

    @pytest.mark.parametrize("override", ["paths=0", "lambdas=[]"])
    def test_exit_two_on_bad_sampler_override(self, override, tmp_path,
                                              capsys):
        key = override.partition("=")[0]
        assert main(["--experiment", "cp-area-cf", "--out", str(tmp_path),
                     "--override", override]) == 2
        assert f"'{key}'" in capsys.readouterr().err
        assert not (tmp_path / "manifest.json").exists()

    @pytest.mark.parametrize("threads", [0, -1])
    def test_exit_two_on_threads_below_one(self, threads, tmp_path, capsys):
        # both used to run, exit 0 and record the count in the manifest
        assert main(["--experiment", "jacobi-selftest", "--out",
                     str(tmp_path), f"--threads={threads}"]) == 2
        assert "--threads" in capsys.readouterr().err
        assert not (tmp_path / "manifest.json").exists()
        with pytest.raises(ValueError, match="threads"):
            run_experiment(ExperimentSpec("jacobi-selftest",
                                          output_dir=tmp_path),
                           threads=threads)
        assert not (tmp_path / "manifest.json").exists()

    def test_config_plus_flag_overrides(self, tmp_path, capsys):
        cfgp = tmp_path / "c.json"
        cfgp.write_text(json.dumps({
            "experiment": "levy-baseline",
            "params": {"paths": 4096, "dt": 5e-3},
            "master_seed": 5,
        }))
        rc = main(["--config", str(cfgp), "--out", str(tmp_path / "o"),
                   "--seed", "11", "--override", "lam=0.5"])
        assert rc == 0
        man = json.loads((tmp_path / "o" / "manifest.json").read_text())
        assert man["master_seed"] == 11
        assert man["config"]["lam"] == 0.5
        assert man["config"]["paths"] == 4096
