import dataclasses
import json
import time
from pathlib import Path

import numpy as np
import pytest

from spaceform_areas import Geometry, SimConfig, cli, densities, sample_area
from spaceform_areas.cli import (
    EXPERIMENTS,
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
        assert spec.resolved_params()["tol"] == 0.05

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
    def test_ch_area_cf_rejects_fractional_n(self, n, tmp_path):
        # ch-area-cf runs at every positive integer n; a fractional n
        # names no space CH^n
        text = json.dumps({"experiment": "ch-area-cf", "params": {"n": n}})
        with pytest.raises(ValueError, match="'n' must be a positive integer"):
            parse_config(text)
        cfgp = tmp_path / "c.json"
        cfgp.write_text(text)
        assert main(["--config", str(cfgp)]) == 2

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_ch_area_cf_accepts_integer_n(self, n):
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
        pytest.param("cp-area-cf", "lambdas", [],
                     id="cp-area-cf-lambdas-empty"),
        ("cp-area-cf", "lambdas", 0.5),
        pytest.param("cp-cauchy-limit", "ns", [],
                     id="cp-cauchy-limit-ns-empty"),
        pytest.param("cp-cauchy-limit", "ns", [1, 2.5],
                     id="cp-cauchy-limit-ns-1,2.5"),
        pytest.param("cp-cauchy-limit", "ns", [0], id="cp-cauchy-limit-ns-0"),
        ("cp-area-cf", "n", 0),
        pytest.param("winding-ch1", "lambdas", ["1.0"],
                     id="winding-ch1-lambdas-str"),
        pytest.param("winding-ch1", "r0s", [0.5, float("inf")],
                     id="winding-ch1-r0s-0.5,inf"),
        pytest.param("cp-area-cf", "lambdas", [0.5, 0.0],
                     id="cp-area-cf-lambdas-0.5,0.0"),
        pytest.param("cp-area-cf", "lambdas", [-0.5],
                     id="cp-area-cf-lambdas--0.5"),
        pytest.param("winding-ch1", "lambdas", [0.0],
                     id="winding-ch1-lambdas-0.0"),
        ("levy-baseline", "paths", 1),
        ("cp-area-cf", "paths", 1),
        ("ch-area-cf", "paths", 1.0),
        ("winding-cp1", "paths", 1),
    ])
    def test_bad_sampler_param_named(self, name, key, value, tmp_path):
        # each used to reach the run: a failed `completed` check (exit 1),
        # a silently truncated n (int(2.5) == 2) or, for an empty list, a
        # run with no CF check at all (exit 0); a zero lambda divided by a
        # standard error of 0 and a negative one failed the Girsanov
        # estimator (exit 1); one path has a standard error of 0, which a
        # z-score divided by (exit 1), or of NaN, written as the z-score
        text = json.dumps({"experiment": name, "params": {key: value}})
        with pytest.raises(ValueError, match=f"'{key}'"):
            parse_config(text)
        cfgp = tmp_path / "c.json"
        cfgp.write_text(text)
        assert main(["--config", str(cfgp),
                     "--out", str(tmp_path / "o")]) == 2
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("name,key,value", [
        ("cp-area-cf", "sigma", 0.0),
        ("levy-baseline", "sigma", -3.0),
        ("winding-cp1", "sigma", float("inf")),
        ("winding-ch1", "sigma", float("nan")),
        pytest.param("winding-ch1", "r0s", [0.5, 0.0],
                     id="winding-ch1-r0s-0.5,0.0"),
        pytest.param("winding-ch1", "r0s", [-1.0], id="winding-ch1-r0s--1.0"),
        pytest.param("winding-ch1", "r0s", [0.5, 9.6],
                     id="winding-ch1-r0s-0.5,9.6"),
        pytest.param("winding-ch1", "r0s", [30.0], id="winding-ch1-r0s-30.0"),
        ("ch-gaussian-limit", "p_min", 1.0),
        ("ch-gaussian-limit", "p_min", -0.01),
        ("ch-gaussian-limit", "p_min", None),
    ])
    def test_bad_sampler_scalar_named(self, name, key, value, tmp_path):
        # sigma <= 0 or NaN failed every z-check, or none, silently; a CH^1
        # r0 <= 0 used to fail inside sample_winding (exit 1), and one from
        # which every lane retires at t = 0 divided by a standard error of
        # 0 (exit 1); a p_min outside [0, 1) made the KS checks fail or
        # pass whatever the sample, and None failed to compare (exit 1)
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
        ("levy-baseline", "t", float("inf")),
        ("winding-ch1", "t", "100"),
        ("winding-cp1", "lam", float("nan")),
        ("levy-baseline", "lam", float("inf")),
        ("levy-baseline", "lam", 0.0),
        ("winding-cp1", "lam", 0),
        ("ch1-loop-density", "theta_lo", float("nan")),
        ("ch1-loop-density", "theta_hi", float("inf")),
        ("ch1-loop-density", "theta_lo", 3.0),
        ("ch1-loop-density", "theta_hi", -4.0),
        ("ch1-loop-density", "tol", -1.0),
        ("winding-cp1", "tol", 0.0),
        ("cp-cauchy-limit", "analytic_tol", 0.0),
    ])
    def test_bad_scalar_named(self, name, key, value, tmp_path):
        # each used to reach the run: t <= 0 failed its `completed` check,
        # a NaN lam or an inverted theta range failed a comparison, a
        # tolerance <= 0 failed one that no value could pass and a zero
        # planar lam divided by a standard error of 0 (exit 1); a zero
        # winding lam passed by comparing 1 with 1.  lam, theta_lo,
        # theta_hi, analytic_tol and ch1-loop-density's tol are now
        # literals of their runners, so a config that sets one is rejected
        # as an unknown key, by name
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

    @pytest.mark.parametrize("name,key,params,sampler", [
        ("ch-gaussian-limit", "dt", {"t": 1000.0, "dt": 500.0, "ns": [1]},
         lambda: sample_area(Geometry.ch(1), SimConfig(1000.0, 500.0, 8, 1))),
    ], ids=["ch"])
    def test_step_limit_error_is_the_samplers(self, name, key, params,
                                              sampler):
        # the limits are stated once, in simulate; the spec prefixes the
        # config key to the sampler's own message
        with pytest.raises(ValueError) as raised:
            sampler()
        with pytest.raises(ValueError) as parsed:
            ExperimentSpec(name, params)
        assert str(parsed.value) == f"'{key}': {raised.value}"

    @pytest.mark.parametrize("name,key", [
        *(pytest.param("jacobi-selftest", key, id=key) for key in (
            "m_max_oracle", "m_max_eig", "oracle_tol", "eig_tol",
            "norm_tol")),
        *(pytest.param("berger-homogenisation", key,
                       id=f"berger-homogenisation-{key}")
          for key in ("n", "t", "lam", "tol", "norm_tol")),
    ])
    def test_jacobi_selftest_takes_no_parameters(self, name, key, tmp_path,
                                                 capsys):
        # the degrees and tolerances of jacobi-selftest, and the dimension,
        # time, stiffness and tolerances of berger-homogenisation, are
        # fixed in the experiment
        text = json.dumps({"experiment": name, "params": {key: 1}})
        with pytest.raises(UnknownKeyError, match=key):
            parse_config(text)
        cfgp = tmp_path / "c.json"
        cfgp.write_text(text)
        for argv in (["--config", str(cfgp)],
                     ["--experiment", name, "--override", f"{key}=1"]):
            assert main([*argv, "--out", str(tmp_path / "o")]) == 2
            assert key in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_girsanov_step_has_no_cp_limit(self):
        # the CP Girsanov route takes the splitting step, whose dt is
        # bounded only by t; (lam + 1/2) dt = 1.25 is accepted
        spec = ExperimentSpec("cp-area-cf", {"lambdas": [0.5, 2.0],
                                             "dt_girsanov": 0.5})
        assert spec.resolved_params()["dt_girsanov"] == 0.5

    @pytest.mark.parametrize("name,params", [
        ("ch-area-cf", {"t": 1.0, "dt": 1.0, "lambdas": [0.5, 200.0]}),
        ("ch-area-cf", {"n": 3, "t": 50.0, "dt": 40.0, "lambdas": [0.5]}),
        ("ch-gaussian-limit", {"t": 1000.0, "dt": 500.0, "ns": [1]}),
    ])
    def test_ch_step_limit_named(self, name, params, tmp_path):
        # the CH step needs (n + lam) dt at most 100: its drift flow's
        # e^{(n + lam) dt} overflows past 709.78, and a step that long can
        # carry a lane past r = 355, where sinh^2 r overflows
        text = json.dumps({"experiment": name, "params": params})
        with pytest.raises(ValueError, match="'dt'"):
            parse_config(text)
        cfgp = tmp_path / "c.json"
        cfgp.write_text(text)
        assert main(["--config", str(cfgp),
                     "--out", str(tmp_path / "o")]) == 2
        assert not (tmp_path / "o").exists()
        # the same step with (n + lam) dt = 100 is accepted
        n = params.get("n", max(params.get("ns", [1])))
        lam = max(params.get("lambdas", [0.0]))
        ExperimentSpec(name, {**params, "dt": 100.0 / (n + lam)})

    def test_scalars_accept_edges(self):
        ExperimentSpec("ch1-loop-density", {"t": 1e-9})
        ExperimentSpec("winding-cp1", {"tol": 1e9})
        ExperimentSpec("cp-area-cf", {"lambdas": [1e-9]})
        ExperimentSpec("levy-baseline", {"paths": 2.0})

    def test_scalar_bounds_accept_edges(self):
        ExperimentSpec("winding-cp1", {"sigma": 1e-9})
        ExperimentSpec("ch-gaussian-limit", {"p_min": 0.0})
        # below atanh(exp(-1e-8)) = 9.557, where every lane retires at t = 0
        ExperimentSpec("winding-ch1", {"r0s": [1e-9, 9.5]})

    def test_dt_bound_uses_overridden_t(self):
        with pytest.raises(ValueError, match="'dt'"):
            ExperimentSpec("winding-cp1", {"t": 0.5, "dt": 0.6})
        spec = ExperimentSpec("winding-cp1", {"t": 0.5, "dt": 0.5,
                                              "paths": 4096.0})
        assert spec.resolved_params()["dt"] == 0.5

    @pytest.mark.parametrize("name,params", [
        ("cp-area-cf", {"t": 5e-4, "dt_direct": 1e-4, "dt_girsanov": 1e-4}),
        ("cp-cauchy-limit", {"t": 5e-4, "dt": 1e-4}),
    ], ids=["cp-area-cf", "cp-cauchy-limit"])
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
        for name in EXPERIMENTS:
            ExperimentSpec(name)

    @pytest.mark.parametrize("seed", [1.5, 7.0, True, "7", -1, 2 ** 64],
                             ids=["1.5", "7.0", "True", "str", "negative",
                                  "2**64"])
    def test_spec_rejects_bad_master_seed(self, seed):
        # 1.5 used to construct and then fail the run's `completed` check
        # with a TypeError from the block streams
        with pytest.raises(ValueError, match="master_seed"):
            ExperimentSpec("levy-baseline", master_seed=seed)

    def test_spec_accepts_numpy_master_seed(self):
        assert ExperimentSpec("levy-baseline",
                              master_seed=np.uint64(2 ** 64 - 1)).master_seed

    def test_integral_float_master_seed(self):
        spec = parse_config(
            '{"experiment": "levy-baseline", "master_seed": 7.0}')
        assert spec.master_seed == 7 and isinstance(spec.master_seed, int)


# Sizes at which each sampler experiment runs in milliseconds; the others
# run at their defaults.
_SMALL_PARAMS = {
    "cp-area-cf": {"t": 0.25, "lambdas": [1.0], "paths": 64,
                   "dt_direct": 0.05, "dt_girsanov": 0.05},
    "cp-cauchy-limit": {"t": 1.0, "ns": [1], "lambdas": [1.0], "paths": 64,
                        "dt": 0.1},
    "ch-area-cf": {"t": 0.5, "lambdas": [0.5], "paths": 64, "dt": 0.05},
    "ch-gaussian-limit": {"t": 1.0, "ns": [1], "paths": 64, "dt": 0.1},
    "winding-cp1": {"t": 1.0, "paths": 64, "dt": 0.1},
    "winding-ch1": {"t": 1.0, "r0s": [0.5], "lambdas": [1.0], "paths": 64,
                    "dt": 0.1},
    "levy-baseline": {"paths": 64, "dt": 0.1},
}


class _ReadRecorder(dict):
    """A parameter mapping that records every key read from it."""

    def __init__(self, params):
        super().__init__(params)
        self.read = set()

    def __getitem__(self, key):
        self.read.add(key)
        return super().__getitem__(key)


class TestExperimentTable:
    @pytest.mark.parametrize("name", sorted(EXPERIMENTS))
    def test_runner_reads_every_default_key(self, name):
        # a key that no runner reads is a setting that changes nothing
        runner, defaults = EXPERIMENTS[name]
        spec = ExperimentSpec(name, _SMALL_PARAMS.get(name, {}))
        params = _ReadRecorder(spec.resolved_params())
        runner(params, spec.master_seed, 1)
        assert params.read == set(defaults)


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

    def test_jacobi_selftest_reuses_no_weights_across_runs(self, tmp_path):
        # each of the 12 normalisation integrals computes its density-series
        # weights once, in every run, however many runs came before
        memo = densities._density_weights
        misses = []
        for k in range(2):
            before = memo.cache_info().misses
            run_experiment(ExperimentSpec("jacobi-selftest",
                                          output_dir=tmp_path / str(k)))
            misses.append(memo.cache_info().misses - before)
        assert misses == [12, 12]

    def test_failure_recorded_not_raised(self, tmp_path, monkeypatch):
        def runner(params, seed, threads):
            raise RuntimeError("runner failed")

        defaults = EXPERIMENTS["ch1-loop-density"][1]
        monkeypatch.setitem(EXPERIMENTS, "ch1-loop-density",
                            (runner, defaults))
        spec = ExperimentSpec(name="ch1-loop-density", output_dir=tmp_path,
                              master_seed=1)
        bundle = run_experiment(spec)
        assert not bundle.passed

        def reject(constant):
            raise ValueError(f"non-standard JSON constant {constant}")

        # strict JSON: the NaN value of the 'completed' check is null
        man = json.loads((tmp_path / "manifest.json").read_text(),
                         parse_constant=reject)
        assert "error" in man
        assert man["passed"] is False
        assert man["checks"] == [{"name": "completed", "value": None,
                                  "threshold": 0.0, "verdict": "fail"}]

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

    @pytest.mark.parametrize("t", [0.25, 0.1])
    def test_loop_density_passes_at_small_t(self, t, tmp_path):
        # at |theta| = 3 the closed form is 4.6e-24 (t = 0.25) and 1.6e-59
        # (t = 0.1), far below the kernel's absolute target, so those
        # points meet their quadrature's est_error, not tol
        bundle = run_experiment(ExperimentSpec(
            "ch1-loop-density", {"t": t}, output_dir=tmp_path))
        assert bundle.passed
        header, *rows = (tmp_path / "ch1_loop_density.csv").read_text(
        ).splitlines()
        assert header.split(",")[-1] == "est_error"
        assert max(float(row.split(",")[3]) for row in rows) > 1.0

    def test_loop_density_fails_a_scaled_kernel(self, tmp_path,
                                                monkeypatch):
        kernel = cli.ch1_joint_density

        def scaled(t, r, theta):
            q = kernel(t, r, theta)
            return dataclasses.replace(q, value=q.value * (1.0 + 1e-3))

        monkeypatch.setattr(cli, "ch1_joint_density", scaled)
        bundle = run_experiment(ExperimentSpec(
            "ch1-loop-density", output_dir=tmp_path))
        assert not bundle.passed

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
        # an impossible sigma forces a clean numeric failure
        rc = main(["--experiment", "levy-baseline",
                   "--out", str(tmp_path), "--override", "paths=64",
                   "--override", "sigma=1e-12"])
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

    def test_override_mends_the_config(self, tmp_path, capsys):
        # the spec is validated after the overrides: dt = 0.6 > t alone
        # exits 2, and naming a valid dt on the command line runs
        cfgp = tmp_path / "c.json"
        cfgp.write_text(json.dumps({"experiment": "winding-cp1",
                                    "params": {"t": 0.5, "dt": 0.6}}))
        argv = ["--config", str(cfgp), "--out", str(tmp_path / "o")]
        assert main(argv) == 2
        assert "dt = 0.6" in capsys.readouterr().err
        assert main([*argv, "--override", "dt=0.05",
                     "--override", "paths=64"]) in (0, 1)
        man = json.loads((tmp_path / "o" / "manifest.json").read_text())
        assert man["config"]["dt"] == 0.05
        assert man["config"]["t"] == 0.5

    def test_config_plus_flag_overrides(self, tmp_path, capsys):
        cfgp = tmp_path / "c.json"
        cfgp.write_text(json.dumps({
            "experiment": "levy-baseline",
            "params": {"paths": 4096, "dt": 5e-3},
            "master_seed": 5,
        }))
        rc = main(["--config", str(cfgp), "--out", str(tmp_path / "o"),
                   "--seed", "11", "--override", "sigma=4.0"])
        assert rc == 0
        man = json.loads((tmp_path / "o" / "manifest.json").read_text())
        assert man["master_seed"] == 11
        assert man["config"]["sigma"] == 4.0
        assert man["config"]["paths"] == 4096

