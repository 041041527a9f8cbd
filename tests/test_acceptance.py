"""End-to-end acceptance checks for the full library.

Each test prints exactly one pass/fail line of the form

    [PASS] criterion-03: cp-area-cf (seed 12345): ... (elapsed 19.1s < 120s)

and then asserts the same verdict, so the printed line and the pytest
outcome always agree.  Criteria 01-07 and 09-11 run their experiment
through run_experiment at its defaults and the default master seed, and
pass exactly when every check of its manifest passes; their line prints
each check's value.  Criterion-08 checks the pathwise transience bound,
which no experiment checks, and criterion-12 runs experiments at two
thread counts.
"""

import functools
import math
import time

import numpy as np
import pytest

from spaceform_areas import SimConfig, sample_radial_hyperbolic
from spaceform_areas.cli import ExperimentSpec, run_experiment

THREADS = 1


def _report(num: int, ok: bool, detail: str, elapsed: float, budget: float):
    in_budget = elapsed < budget
    verdict = "PASS" if (ok and in_budget) else "FAIL"
    print(f"[{verdict}] criterion-{num:02d}: {detail} "
          f"(elapsed {elapsed:.1f}s < {budget:.0f}s)")
    assert ok, f"criterion {num}: {detail}"
    assert in_budget, f"criterion {num}: over budget ({elapsed:.1f}s)"


@pytest.fixture(scope="session")
def default_run(tmp_path_factory):
    """run(name): the manifest of the experiment `name` at its defaults and
    the default master seed, and the wall time of its run; each experiment
    runs once per session."""
    @functools.cache
    def run(name):
        spec = ExperimentSpec(name, output_dir=tmp_path_factory.mktemp(name))
        assert spec.master_seed == 12345
        t0 = time.perf_counter()
        manifest = run_experiment(spec, threads=THREADS).manifest
        return manifest, time.perf_counter() - t0
    return run


def _report_checks(num: int, runs: list, budget: float, names=None,
                   count=None):
    """Report criterion `num` on the manifest checks of `runs`, a list of
    (manifest, wall time), or on those named in `names`.  It passes when
    every one passes, there are `count` of them (len(names) if names are
    given, at least one if neither is), and the runs took under `budget`
    seconds in all."""
    def show(check):  # the manifest writes a non-finite value as null
        value = math.nan if check["value"] is None else check["value"]
        failed = "" if check["verdict"] == "pass" else " (fail)"
        return f"{check['name']}={value:.3g}{failed}"

    parts, checks = [], []
    for manifest, _ in runs:
        mine = [c for c in manifest["checks"]
                if names is None or c["name"] in names]
        values = ", ".join(show(c) for c in mine)
        error = f" error: {manifest['error']}" if "error" in manifest else ""
        parts.append(f"{manifest['experiment']} (seed "
                     f"{manifest['master_seed']}): {values}{error}")
        checks += mine
    if names is not None:
        count = len(names)
    ok = (all(c["verdict"] == "pass" for c in checks)
          and (len(checks) == count if count else bool(checks)))
    _report(num, ok, "; ".join(parts), sum(wall for _, wall in runs),
            budget)


def test_criterion_01_jacobi_recurrence_and_eigen(default_run):
    _report_checks(1, [default_run("jacobi-selftest")], 5.0,
                   names=("rodrigues_oracle_max_abs_err",
                          "eigenfunction_max_rel_err"))


def test_criterion_02_density_normalization(default_run):
    _report_checks(2, [default_run("jacobi-selftest")], 10.0,
                   names=("density_normalization_max_err",))


def test_criterion_03_cp1_cf_triangle(default_run):
    _report_checks(3, [default_run("cp-area-cf")], 120.0)


def test_criterion_04_cp_cauchy_limit(default_run):
    _report_checks(4, [default_run("cp-cauchy-limit")], 180.0)


def test_criterion_05_ch1_loop_density(default_run):
    _report_checks(5, [default_run("ch1-loop-density")], 30.0)


def test_criterion_06_ch1_cf_triangle(default_run):
    # three pairwise z-checks at each of the two lambdas, and the
    # quadrature's error estimate
    _report_checks(6, [default_run("ch-area-cf")], 180.0, count=7)


def test_criterion_07_ch_gaussian_limit(default_run):
    _report_checks(7, [default_run("ch-gaussian-limit")], 180.0)


def test_criterion_08_transience_bound():
    t0 = time.perf_counter()
    worst = math.inf
    for n in (1, 2, 3):
        res = sample_radial_hyperbolic(
            n, 0.0, 0.0, SimConfig(2.0, 1e-3, 1000, 161803), track_bound=True)
        worst = min(worst, res.min_bound_slack)
    tol = 16.0 * np.finfo(float).eps / 1e-3  # fp slack scaled by 1/dt
    _report(8, worst >= -tol,
            f"pathwise r_t >= (n - 1/2) t + gamma_t: min slack "
            f"{worst:.2e} >= -{tol:.1e}",
            time.perf_counter() - t0, 60.0)


def test_criterion_09_winding_limits(default_run):
    _report_checks(9, [default_run("winding-ch1"),
                       default_run("winding-cp1")], 180.0)


def test_criterion_10_berger_homogenisation(default_run):
    _report_checks(10, [default_run("berger-homogenisation")], 30.0)


def test_criterion_11_planar_levy_baseline(default_run):
    _report_checks(11, [default_run("levy-baseline")], 60.0)


@pytest.mark.parametrize("name,overrides", [
    ("cp-area-cf", {"paths": 2000}),
    ("cp-cauchy-limit", {"paths": 2000}),
    # 9,000 paths are 3 blocks of the CH sampler, which the 4-thread run
    # steps as three groups, one thread each; a clock-time CP group holds
    # at least 4 blocks, so the one-block CP calls here stay one group
    ("ch-gaussian-limit", {"paths": 9000}),
])
def test_criterion_12_determinism(name, overrides, tmp_path):
    t0 = time.perf_counter()
    outs = []
    for threads, sub in ((1, "a"), (4, "b")):
        spec = ExperimentSpec(name=name, params=overrides,
                              output_dir=tmp_path / sub, master_seed=8675309)
        run_experiment(spec, threads=threads)
        outs.append({p.name: p.read_bytes()
                     for p in sorted((tmp_path / sub).glob("*.csv"))})
    ok = bool(outs[0]) and outs[0] == outs[1]
    _report(12, ok,
            f"{name}: CSVs byte-identical across 1 vs 4 worker threads",
            time.perf_counter() - t0, 180.0)
