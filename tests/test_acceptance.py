"""End-to-end acceptance checks for the full library.

Each test prints exactly one pass/fail line of the form

    [PASS] criterion-03: ... (elapsed 97.1s < 120s)

and then asserts the same verdict, so the printed line and the pytest
outcome always agree.  Monte Carlo comparisons are at 3 standard errors
with fixed seeds; analytic comparisons use absolute/relative tolerances.
"""

import math
import time

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.stats import kstest

from spaceform_areas import (
    Geometry,
    JacobiParams,
    SampleSet,
    SimConfig,
    berger_kernel,
    berger_limit_kernel,
    cf_marginal_cp,
    ch1_joint_density,
    ch1_loop_slice,
    empirical_cf,
    girsanov_cf_estimator,
    jacobi_poly,
    levy_cf,
    sample_area,
    sample_planar_area,
    sample_radial_hyperbolic,
    sample_winding,
    spherical_density,
    winding_limit_cf,
)
from spaceform_areas.cli import (
    ExperimentSpec,
    _eigen_residual,
    _quad_cf_ch1,
    _quad_cf_planar,
    _rodrigues_jacobi,
    run_experiment,
)

THREADS = 1


def _report(num: int, ok: bool, detail: str, elapsed: float, budget: float):
    in_budget = elapsed < budget
    verdict = "PASS" if (ok and in_budget) else "FAIL"
    print(f"[{verdict}] criterion-{num:02d}: {detail} "
          f"(elapsed {elapsed:.1f}s < {budget:.0f}s)")
    assert ok, f"criterion {num}: {detail}"
    assert in_budget, f"criterion {num}: over budget ({elapsed:.1f}s)"


def test_criterion_01_jacobi_recurrence_and_eigen():
    t0 = time.perf_counter()
    xs = (-0.9, -0.35, 0.0, 0.4, 0.85)
    params = [JacobiParams(0.0, 0.0), JacobiParams(1.0, 0.5),
              JacobiParams(0.7, 2.1), JacobiParams(2.0, 1.3)]
    max_rodrigues = 0.0
    for p in params:
        for m in range(7):
            for x in xs:
                ref = _rodrigues_jacobi(m, p.alpha, p.beta, x)
                max_rodrigues = max(max_rodrigues,
                                    abs(jacobi_poly(m, p, x) - ref))
    max_eigen = 0.0
    for p in params:
        for m in range(9):
            for x in xs:
                max_eigen = max(max_eigen, _eigen_residual(m, p, x))
    ok = max_rodrigues <= 1e-8 and max_eigen <= 1e-6
    _report(1, ok,
            f"Jacobi recurrence vs Rodrigues {max_rodrigues:.2e} <= 1e-8, "
            f"ODE residual {max_eigen:.2e} <= 1e-6",
            time.perf_counter() - t0, 5.0)


def test_criterion_02_density_normalization():
    t0 = time.perf_counter()
    worst = 0.0
    for a, b in ((0.0, 0.0), (1.0, 0.0), (1.0, 0.7), (2.0, 1.3)):
        p = JacobiParams(a, b)
        for t in (0.2, 0.5, 2.0):
            val, _ = quad(
                lambda r: spherical_density(p, t, 0.0, r).value,
                0.0, math.pi / 2.0, epsabs=1e-12, epsrel=1e-12, limit=200)
            worst = max(worst, abs(val - 1.0))
    _report(2, worst <= 1e-8,
            f"radial density mass |int q - 1| = {worst:.2e} <= 1e-8",
            time.perf_counter() - t0, 10.0)


def test_criterion_03_cp1_cf_triangle():
    t0 = time.perf_counter()
    n, t = 1, 1.0
    lambdas = (0.5, 1.0, 2.0)
    area = sample_area(Geometry.cp(n),
                       SimConfig(t, 1e-3, 100000, 20260301),
                       threads=THREADS)
    theta = SampleSet(area.theta_end)
    worst = 0.0
    lines = []
    for k, lam in enumerate(lambdas):
        ana = cf_marginal_cp(n, lam, t)
        d = empirical_cf(theta, lam)
        g = girsanov_cf_estimator(
            Geometry.cp(n), lam,
            SimConfig(t, 2e-3, 100000, 20260301 + 1000 * (k + 1)),
            threads=THREADS)
        z_ad = abs(d.value.real - ana) / d.std_error
        z_ag = abs(g.value.real - ana) / g.std_error
        z_dg = (abs(d.value.real - g.value.real)
                / math.hypot(d.std_error, g.std_error))
        worst = max(worst, z_ad, z_ag, z_dg)
        lines.append(f"lam={lam:g}: z(ana,dir)={z_ad:.2f} "
                     f"z(ana,gir)={z_ag:.2f} z(dir,gir)={z_dg:.2f}")
    _report(3, worst <= 3.0,
            "CP1 analytic/direct/Girsanov pairwise <= 3 SE [" +
            "; ".join(lines) + "]",
            time.perf_counter() - t0, 120.0)


def test_criterion_04_cp_cauchy_limit():
    t0 = time.perf_counter()
    t = 50.0
    lambdas = (0.25, 0.5, 1.0, 2.0)
    worst_ana = 0.0
    worst_z = 0.0
    for n in (1, 2):
        area = sample_area(Geometry.cp(n),
                           SimConfig(t, 0.01, 10000, 42 + n),
                           threads=THREADS)
        scaled = SampleSet(area.theta_end / t)
        for lam in lambdas:
            target = math.exp(-n * lam)
            worst_ana = max(
                worst_ana,
                abs(cf_marginal_cp(n, lam / t, t) - target))
            c = empirical_cf(scaled, lam)
            worst_z = max(worst_z,
                          abs(c.value.real - target) / c.std_error)
    ok = worst_ana <= 5e-3 and worst_z <= 3.0
    _report(4, ok,
            f"Cauchy(n) limit: analytic gap {worst_ana:.2e} <= 5e-3, "
            f"empirical max z = {worst_z:.2f} <= 3",
            time.perf_counter() - t0, 180.0)


def test_criterion_05_ch1_loop_density():
    t0 = time.perf_counter()
    thetas = np.linspace(-3.0, 3.0, 21)
    worst = 0.0
    for th in thetas:
        q = ch1_joint_density(1.0, 0.0, float(th)).value
        closed = float(ch1_loop_slice(1.0, float(th)))
        worst = max(worst, abs(q - closed) / abs(closed))
    _report(5, worst <= 1e-4,
            f"CH1 loop slice vs quadrature: max rel err {worst:.2e} <= 1e-4",
            time.perf_counter() - t0, 30.0)


def test_criterion_06_ch1_cf_triangle():
    t0 = time.perf_counter()
    t = 1.0
    area = sample_area(Geometry.ch(1),
                       SimConfig(t, 1e-3, 100000, 314159),
                       threads=THREADS)
    theta = SampleSet(area.theta_end)
    worst = 0.0
    lines = []
    for k, lam in enumerate((0.5, 1.0)):
        qv = _quad_cf_ch1(lam, t).value
        d = empirical_cf(theta, lam)
        g = girsanov_cf_estimator(
            Geometry.ch(1), lam,
            SimConfig(t, 1e-3, 100000, 314159 + 1000 * (k + 1)),
            threads=THREADS)
        z_qd = abs(d.value.real - qv) / d.std_error
        z_qg = abs(g.value.real - qv) / g.std_error
        z_dg = (abs(d.value.real - g.value.real)
                / math.hypot(d.std_error, g.std_error))
        worst = max(worst, z_qd, z_qg, z_dg)
        lines.append(f"lam={lam:g}: z(quad,dir)={z_qd:.2f} "
                     f"z(quad,gir)={z_qg:.2f} z(dir,gir)={z_dg:.2f}")
    _report(6, worst <= 3.0,
            "CH1 quadrature/direct/Girsanov pairwise <= 3 SE [" +
            "; ".join(lines) + "]",
            time.perf_counter() - t0, 180.0)


def test_criterion_07_ch_gaussian_limit():
    t0 = time.perf_counter()
    t = 50.0
    worst_p = 1.0
    ps = []
    for n in (1, 2, 3):
        area = sample_area(Geometry.ch(n),
                           SimConfig(t, 0.01, 10000, 271828 + n),
                           threads=THREADS)
        stat = kstest(area.theta_end / math.sqrt(t), "norm")
        ps.append(f"n={n}: p={stat.pvalue:.3f}")
        worst_p = min(worst_p, stat.pvalue)
    _report(7, worst_p > 0.01,
            "theta/sqrt(t) Gaussian KS [" + "; ".join(ps) + "] all p > 0.01",
            time.perf_counter() - t0, 180.0)


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


def test_criterion_09_winding_limits():
    t0 = time.perf_counter()
    worst_z = 0.0
    lines = []
    for r0 in (0.5, 1.0):
        w = sample_winding(Geometry.ch(1), r0,
                           SimConfig(100.0, 0.01, 10000, 577215),
                           threads=THREADS)
        s = SampleSet(w.phi_end)
        for lam in (0.5, 1.0, 2.0):
            target = winding_limit_cf(Geometry.ch(1), r0, lam)
            c = empirical_cf(s, lam)
            z = abs(c.value.real - target) / c.std_error
            worst_z = max(worst_z, z)
            lines.append(f"r0={r0:g},lam={lam:g}: z={z:.2f}")
    w = sample_winding(Geometry.cp(1), math.pi / 4.0,
                       SimConfig(30.0, 0.01, 10000, 141421),
                       threads=THREADS)
    c = empirical_cf(SampleSet(w.phi_end / 30.0), 1.0)
    cp_gap = abs(c.value.real - math.exp(-2.0))
    ok = worst_z <= 3.0 and cp_gap <= 0.05
    _report(9, ok,
            "CH1 winding CF vs (tanh r0)^lam [" + "; ".join(lines) +
            f"]; CP1 winding/t CF gap {cp_gap:.3f} <= 0.05",
            time.perf_counter() - t0, 180.0)


def test_criterion_10_berger_homogenisation():
    t0 = time.perf_counter()
    t = 0.5
    rs = np.linspace(0.12, 1.45, 5)
    ths = np.linspace(-2.0, 2.0, 5)
    worst = 0.0
    for r in rs:
        lim = berger_limit_kernel(1, t, float(r)).value
        for th in ths:
            v = berger_kernel(1, 50.0, t, float(r), float(th)).value
            worst = max(worst, abs(v - lim))
    # normalization against the fiber-averaged reference measure; the
    # kernel is theta-independent up to the homogenisation error, so a
    # single fiber slice times the 2*pi fiber volume suffices
    pref = 2.0 * math.pi  # 2 pi^n / Gamma(n) at n = 1

    def radial(r):
        return (berger_kernel(1, 50.0, t, r, 0.3).value
                * pref * math.sin(r) * math.cos(r))

    total, _ = quad(radial, 0.0, math.pi / 2.0,
                    epsabs=1e-12, epsrel=1e-11, limit=200)
    total *= 2.0 * math.pi
    norm_err = abs(total - 1.0)
    ok = worst <= 1e-6 and norm_err <= 1e-6
    _report(10, ok,
            f"stiff-fibre kernel vs limit {worst:.2e} <= 1e-6, "
            f"mass error {norm_err:.2e} <= 1e-6",
            time.perf_counter() - t0, 30.0)


def test_criterion_11_planar_levy_baseline():
    t0 = time.perf_counter()
    lam, t = 1.0, 1.0
    _, s = sample_planar_area(t, SimConfig(t, 1e-3, 100000, 662607),
                              threads=THREADS)
    c = empirical_cf(SampleSet(s), lam)
    target = _quad_cf_planar(lam, t)
    z = abs(c.value.real - target) / c.std_error
    closed_gap = abs(target - 1.0 / math.cosh(lam * t))
    ok = z <= 3.0 and closed_gap <= 1e-8
    _report(11, ok,
            f"planar area CF z = {z:.2f} <= 3 "
            f"(quadrature vs closed form {closed_gap:.1e})",
            time.perf_counter() - t0, 60.0)


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
