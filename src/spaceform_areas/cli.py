"""Experiment runner: named desk-scale experiments with deterministic
seeding, CSV tables, and a JSON manifest recording every check's value,
threshold, and verdict.

Artifacts: one ``manifest.json`` plus one CSV per computed table, written
to the output directory.  CSV floats are serialized with 17 significant
digits (round-trip exact), UTF-8, LF line endings.  The manifest carries
``schema_version`` 1.  Exit status is nonzero iff any check fails.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from scipy.integrate import quad
from scipy.special import ndtr

from . import __version__, densities
from .analytics import cf_marginal_cp, levy_cf, winding_limit_cf
from .densities import berger_kernel, berger_limit_kernel, spherical_density
from .hyperbolic_kernels import (
    JointDensityValue,
    ch1_joint_density,
    ch1_loop_slice,
    ch_area_cf,
)
from .simulate import (
    Geometry,
    SimConfig,
    check_ch_step,
    check_ch_winding_r0,
    girsanov_cf_estimator,
    sample_area,
    sample_planar_area,
    sample_winding,
)
from .specfun import (
    JacobiParams,
    _eigen_residual,
    _is_int_in,
    _rodrigues_jacobi,
    jacobi_poly,
)
from .stats import empirical_cf, ks_statistic


class UnknownKeyError(ValueError):
    """A config document contains a key the target schema does not define."""


class ConfigParseError(ValueError):
    """A config document is not well-formed (carries line/column)."""


@dataclass(frozen=True)
class ExperimentSpec:
    name: str
    params: dict = field(default_factory=dict)
    output_dir: Path = Path("out")
    master_seed: int = 12345

    def __post_init__(self):
        if self.name not in EXPERIMENTS:
            raise UnknownKeyError(
                f"unknown experiment {self.name!r}; known: "
                f"{sorted(EXPERIMENTS)}")
        if not _is_int_in(self.master_seed, 0, 2 ** 64):
            raise ValueError("master_seed must be an integer in "
                             f"[0, 2**64), got {self.master_seed!r}")
        defaults = EXPERIMENTS[self.name][1]
        bad = sorted(set(self.params) - set(defaults))
        if bad:
            raise UnknownKeyError(
                f"unknown parameter key(s) {bad} for experiment "
                f"{self.name!r}; known: {sorted(defaults)}")
        params = self.resolved_params()
        _check_params(params)
        if (self.name in ("cp-area-cf", "cp-cauchy-limit")
                and not params["t"] >= densities.MIN_TIME):
            # their spectral series raise TimeTooSmallError below MIN_TIME
            raise ValueError(
                f"'t' must be at least {densities.MIN_TIME} for {self.name}, "
                f"got {params['t']!r}")
        # the samplers' own limits, under the config key
        key = "r0s" if self.name == "winding-ch1" else "dt"
        n = int(max(params.get("ns", [params.get("n", 1)])))
        try:
            if self.name == "ch-area-cf":
                check_ch_step(n, max(params["lambdas"]), params[key])
            elif self.name == "ch-gaussian-limit":
                check_ch_step(n, 0.0, params[key])
            elif self.name == "winding-ch1":
                for r0 in params[key]:
                    check_ch_winding_r0(r0)
        except ValueError as e:
            raise ValueError(f"'{key}': {e}") from None

    def resolved_params(self) -> dict:
        out = dict(EXPERIMENTS[self.name][1])
        out.update(self.params)
        return out


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _is_count(v) -> bool:
    return _is_number(v) and v >= 1 and (isinstance(v, int)
                                         or v.is_integer())


def _check_params(params: dict) -> None:
    """Raise ValueError naming the first parameter a run cannot use:
    0 < t < inf, `tol` and `sigma` in (0, inf), 0 <= p_min < 1, `n` and
    each of `ns` positive integers, `paths` an integer of at least 2, each
    time step 0 < dt <= t, each list parameter a non-empty list of finite
    numbers and each of `lambdas` and `r0s` positive."""
    positive = lambda v: 0 < v < math.inf
    for key, in_range, bounds in (
            ("t", positive, "0 < t < inf"),
            ("tol", positive, "0 < tol < inf"),
            ("sigma", positive, "0 < sigma < inf"),
            ("p_min", lambda v: 0 <= v < 1, "0 <= p_min < 1")):
        if key in params and not (_is_number(params[key])
                                  and in_range(params[key])):
            raise ValueError(
                f"'{key}' must satisfy {bounds}, got {params[key]!r}")
    if "n" in params and not _is_count(params["n"]):
        raise ValueError(
            f"'n' must be a positive integer, got {params['n']!r}")
    if "paths" in params and not (_is_count(params["paths"])
                                  and params["paths"] >= 2):
        # the standard error of one path is 0 or NaN, and z-scores divide
        # by it
        raise ValueError(
            f"'paths' must be an integer of at least 2, got "
            f"{params['paths']!r}")
    for key in ("dt", "dt_direct", "dt_girsanov"):
        if key in params:
            dt, t = params[key], params["t"]
            if not (_is_number(dt) and _is_number(t)
                    and 0 < dt <= t < math.inf):
                raise ValueError(
                    f"'{key}' must satisfy 0 < {key} <= t, got {key} = "
                    f"{dt!r} with t = {t!r}")
    for key in ("lambdas", "ns", "r0s"):
        if key in params:
            v = params[key]
            if not (isinstance(v, (list, tuple)) and v and all(
                    _is_number(x) and -math.inf < x < math.inf
                    for x in v)):
                raise ValueError(
                    f"'{key}' must be a non-empty list of finite numbers, "
                    f"got {v!r}")
    if "ns" in params and not all(map(_is_count, params["ns"])):
        raise ValueError(
            f"'ns' must hold positive integers, got {params['ns']!r}")
    for key in ("lambdas", "r0s"):
        # a zero lambda makes every z-score divide by a standard error of 0
        if key in params and not all(v > 0 for v in params[key]):
            raise ValueError(
                f"'{key}' must hold positive numbers, got {params[key]!r}")


@dataclass
class Check:
    name: str
    value: float
    threshold: float
    passed: bool

    def as_dict(self) -> dict:
        return {"name": self.name,
                "value": self.value if math.isfinite(self.value) else None,
                "threshold": self.threshold,
                "verdict": "pass" if self.passed else "fail"}


@dataclass
class Table:
    name: str
    header: list
    rows: list


@dataclass
class ReportBundle:
    manifest: dict
    tables: list

    @property
    def passed(self) -> bool:
        return all(c["verdict"] == "pass" for c in self.manifest["checks"])


# ---------------------------------------------------------------------------
# configuration parsing

_TOP_LEVEL_KEYS = {"experiment", "params", "output_dir", "master_seed"}


def parse_config(text: str) -> ExperimentSpec:
    """Parse a JSON config document into a fully-resolved ExperimentSpec.

    Unknown top-level or parameter keys are hard errors naming the
    offending key; malformed documents raise ConfigParseError with the
    line and column of the failure.
    """
    return ExperimentSpec(**_config_fields(text))


def _config_fields(text: str) -> dict:
    """The ExperimentSpec fields a JSON config document sets, checked for
    form but not yet validated as a spec."""
    if not text.strip():
        raise ConfigParseError("empty config document (line 1, column 1)")
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise ConfigParseError(
            f"config parse error at line {e.lineno}, column {e.colno}: "
            f"{e.msg}") from e
    if not isinstance(doc, dict):
        raise ConfigParseError("config document must be a JSON object")
    bad = sorted(set(doc) - _TOP_LEVEL_KEYS)
    if bad:
        raise UnknownKeyError(
            f"unknown top-level config key(s) {bad}; known: "
            f"{sorted(_TOP_LEVEL_KEYS)}")
    if "experiment" not in doc:
        raise ConfigParseError("config document must name an 'experiment'")
    params = doc.get("params", {})
    if not isinstance(params, dict):
        raise ConfigParseError("'params' must be a JSON object")
    kwargs = {"name": doc["experiment"], "params": params}
    if "output_dir" in doc:
        kwargs["output_dir"] = Path(doc["output_dir"])
    if "master_seed" in doc:
        seed = doc["master_seed"]
        if isinstance(seed, bool) or not (
                isinstance(seed, int)
                or isinstance(seed, float) and seed.is_integer()):
            raise ConfigParseError(
                f"'master_seed' must be an integer, got {seed!r}")
        kwargs["master_seed"] = int(seed)
    return kwargs


def _coerce_override(value: str):
    try:
        return json.loads(value)
    except json.JSONDecodeError:
        return value


# ---------------------------------------------------------------------------
# small numeric helpers

def _check_abs(name: str, value: float, threshold: float) -> Check:
    return Check(name, float(value), float(threshold),
                 bool(abs(value) <= threshold))


def _check_le(name: str, value: float, threshold: float) -> Check:
    return Check(name, float(value), float(threshold),
                 bool(value <= threshold))


def _check_ge(name: str, value: float, threshold: float) -> Check:
    return Check(name, float(value), float(threshold),
                 bool(value >= threshold))


def _sub_seed(master_seed: int, k: int) -> int:
    # distinct 64-bit seeds per sub-run, stable across platforms
    return (master_seed + 0x9E3779B97F4A7C15 * (k + 1)) % (2 ** 64)


def _quad_cf_ch1(lam: float, t: float, n: int = 1) -> JointDensityValue:
    """CF of the area on CH^n by quadrature of the hyperbolic kernel, with
    its error estimate (the call site that perfbench's tracer wraps)."""
    return ch_area_cf(n, lam, t)


def _quad_cf_planar(lam: float, t: float) -> float:
    """E over the endpoint of levy_cf, by 64-point Gauss-Laguerre in
    |z|^2/t ~ Exp."""
    x, w = np.polynomial.laguerre.laggauss(64)
    vals = np.array([levy_cf(lam, t, complex(math.sqrt(2.0 * t * s), 0.0))
                     for s in x])
    return float(np.sum(w * vals))


# ---------------------------------------------------------------------------
# experiment implementations; each returns (tables, checks)

def _exp_jacobi_selftest(params, seed, threads):
    tables, checks = [], []
    # recurrence vs Rodrigues oracle
    rows = []
    worst = 0.0
    for alpha, beta in ((0.0, 0.0), (1.0, 0.5), (0.7, 2.1), (2.0, 1.3)):
        p = JacobiParams(alpha, beta)
        for m in range(7):
            for x in (-0.9, -0.2, 0.3, 0.8):
                rec = jacobi_poly(m, p, x)
                orc = _rodrigues_jacobi(m, alpha, beta, x)
                err = abs(rec - orc)
                worst = max(worst, err)
                rows.append([m, alpha, beta, x, rec, orc, err])
    tables.append(Table("jacobi_oracle",
                        ["m", "alpha", "beta", "x", "recurrence", "rodrigues",
                         "abs_err"], rows))
    checks.append(_check_le("rodrigues_oracle_max_abs_err", worst, 1e-8))
    # eigenfunction finite-difference identity
    rows = []
    worst = 0.0
    for alpha, beta in ((0.0, 0.0), (1.0, 0.5), (2.0, 1.3)):
        p = JacobiParams(alpha, beta)
        for m in range(9):
            for x in (-0.7, -0.3, 0.1, 0.5, 0.8):
                err = _eigen_residual(m, p, x)
                worst = max(worst, err)
                rows.append([m, alpha, beta, x, err])
    tables.append(Table("jacobi_eigen",
                        ["m", "alpha", "beta", "x", "rel_err"], rows))
    checks.append(_check_le("eigenfunction_max_rel_err", worst, 1e-6))
    # density normalization
    rows = []
    worst = 0.0
    for alpha, beta in ((0.0, 0.0), (1.0, 0.0), (1.0, 0.7), (2.0, 1.3)):
        p = JacobiParams(alpha, beta)
        for t in (0.2, 0.5, 2.0):
            total, _ = quad(
                lambda r: spherical_density(p, t, 0.0, r).value,
                0.0, math.pi / 2.0, epsabs=1e-12, epsrel=1e-11, limit=200)
            err = abs(total - 1.0)
            worst = max(worst, err)
            rows.append([alpha, beta, t, total, err])
    tables.append(Table("density_normalization",
                        ["alpha", "beta", "t", "integral", "abs_err"], rows))
    checks.append(_check_le("density_normalization_max_err", worst, 1e-8))
    return tables, checks


def _cf_triangle(geometry, params, seed, threads, dt_direct, dt_girsanov,
                 reference, label):
    """The area CF at each lambda by reference(lam) (its columns, the CF
    first), Girsanov at dt_girsanov and one direct run at dt_direct: the
    rows, and each pair's z-score checked against sigma."""
    t, paths, sigma = params["t"], int(params["paths"]), params["sigma"]
    area = sample_area(geometry, SimConfig(t, dt_direct, paths, seed),
                       threads=threads)
    rows, checks = [], []
    for k, lam in enumerate(float(v) for v in params["lambdas"]):
        ref = reference(lam)
        gir = girsanov_cf_estimator(
            geometry, lam,
            SimConfig(t, dt_girsanov, paths, _sub_seed(seed, k)),
            threads=threads)
        emp = empirical_cf(area.theta_end, lam)
        z_gr = (gir.value.real - ref[0]) / gir.std_error
        z_dr = (emp.value.real - ref[0]) / emp.std_error
        z_gd = (gir.value.real - emp.value.real) / math.hypot(
            gir.std_error, emp.std_error)
        rows.append([lam, *ref, gir.value.real, gir.std_error,
                     emp.value.real, emp.std_error, z_gr, z_dr, z_gd])
        for routes, z in ((f"girsanov_vs_{label}", z_gr),
                          (f"direct_vs_{label}", z_dr),
                          ("girsanov_vs_direct", z_gd)):
            checks.append(_check_abs(f"z_{routes}_lam{lam}", z, sigma))
    return rows, checks


def _exp_cp_area_cf(params, seed, threads):
    n, t = int(params["n"]), params["t"]
    rows, checks = _cf_triangle(
        Geometry.cp(n), params, seed, threads, params["dt_direct"],
        params["dt_girsanov"], lambda lam: [cf_marginal_cp(n, lam, t)],
        "analytic")
    table = Table("cp_area_cf",
                  ["lambda", "analytic", "girsanov", "girsanov_se",
                   "direct", "direct_se", "z_gir_ana", "z_dir_ana",
                   "z_gir_dir"], rows)
    return [table], checks


def _exp_cp_cauchy_limit(params, seed, threads):
    t = params["t"]
    lambdas = [float(v) for v in params["lambdas"]]
    ns = [int(v) for v in params["ns"]]
    sigma = params["sigma"]
    rows, checks = [], []
    for j, n in enumerate(ns):
        area = sample_area(
            Geometry.cp(n),
            SimConfig(t, params["dt"], int(params["paths"]),
                      _sub_seed(seed, j)), threads=threads)
        s = area.theta_end / t
        worst_ana = 0.0
        for lam in lambdas:
            limit = math.exp(-n * lam)
            ana = cf_marginal_cp(n, lam / t, t)
            emp = empirical_cf(s, lam)
            z = (emp.value.real - limit) / emp.std_error
            worst_ana = max(worst_ana, abs(ana - limit))
            rows.append([n, lam, limit, ana, abs(ana - limit),
                         emp.value.real, emp.std_error, z])
            checks.append(_check_abs(f"z_empirical_vs_limit_n{n}_lam{lam}",
                                     z, sigma))
        checks.append(_check_le(f"analytic_vs_limit_max_err_n{n}", worst_ana,
                                5e-3))
    table = Table("cp_cauchy_limit",
                  ["n", "lambda", "limit_cf", "analytic_cf", "analytic_err",
                   "empirical_cf", "empirical_se", "z_emp_limit"], rows)
    return [table], checks


def _exp_ch_area_cf(params, seed, threads):
    n, t, dt = int(params["n"]), params["t"], params["dt"]

    def quadrature(lam):
        q = _quad_cf_ch1(lam, t, n)
        return [q.value, q.est_error]

    rows, checks = _cf_triangle(Geometry.ch(n), params, seed, threads, dt,
                                dt, quadrature, "quadrature")
    checks.append(_check_le("quadrature_est_error",
                            max(row[2] for row in rows), 1e-8))
    table = Table("ch_area_cf",
                  ["lambda", "quadrature", "quadrature_err", "girsanov",
                   "girsanov_se", "direct", "direct_se", "z_gir_quad",
                   "z_dir_quad", "z_gir_dir"], rows)
    return [table], checks


def _exp_ch_gaussian_limit(params, seed, threads):
    t = params["t"]
    rows, checks = [], []
    for j, n in enumerate([int(v) for v in params["ns"]]):
        area = sample_area(
            Geometry.ch(n),
            SimConfig(t, params["dt"], int(params["paths"]),
                      _sub_seed(seed, j)), threads=threads)
        s = area.theta_end / math.sqrt(t)
        d, p = ks_statistic(s, ndtr)
        rows.append([n, d, p, float(s.mean()), float(s.var())])
        checks.append(_check_ge(f"ks_pvalue_n{n}", p, params["p_min"]))
    table = Table("ch_gaussian_limit",
                  ["n", "ks_statistic", "ks_pvalue", "sample_mean",
                   "sample_var"], rows)
    return [table], checks


def _exp_ch1_loop_density(params, seed, threads):
    t, tol = params["t"], 1e-4
    grid = np.linspace(-3.0, 3.0, 21)
    rows = []
    worst = 0.0
    for th in grid:
        q = ch1_joint_density(t, 0.0, float(th))
        closed = float(ch1_loop_slice(t, float(th)))
        err = abs(q.value - closed)
        # a closed form far below the kernel's absolute target (small t,
        # large |theta|) is met to the quadrature's own error estimate
        worst = max(worst, err / max(tol * abs(closed), q.est_error))
        rows.append([float(th), q.value, closed, err / abs(closed),
                     q.est_error])
    table = Table("ch1_loop_density",
                  ["theta", "quadrature", "closed_form", "rel_err",
                   "est_error"], rows)
    return [table], [_check_le("loop_density_max_err_over_target", worst,
                               1.0)]


def _exp_berger_homogenisation(params, seed, threads):
    # CP^1 at t = 0.5 and fiber stiffness lam = 50; both gates are 1e-6
    n, t, lam, tol = 1, 0.5, 50.0, 1e-6
    r_grid = np.linspace(0.12, 1.45, 5)
    th_grid = np.linspace(0.0, 2.0 * math.pi, 5, endpoint=False)
    rows = []
    worst = 0.0
    for r in r_grid:
        lim = berger_limit_kernel(n, t, float(r)).value
        for th in th_grid:
            v = berger_kernel(n, lam, t, float(r), float(th)).value
            diff = abs(v - lim)
            worst = max(worst, diff)
            rows.append([float(r), float(th), v, lim, diff])
    tables = [Table("berger_homogenisation",
                    ["r", "theta", "kernel", "limit_kernel", "abs_diff"],
                    rows)]
    checks = [_check_le("homogenisation_max_abs_diff", worst, tol)]
    # kernel normalization against its fiber-averaged reference measure
    pref = 2.0 * math.pi ** n / math.gamma(n)

    def radial(r):
        return (berger_kernel(n, lam, t, r, 0.3).value
                * pref * math.sin(r) ** (2 * n - 1) * math.cos(r))

    # the kernel is independent of theta up to the homogenisation error, so
    # normalize the theta-average via a single slice times 2 pi
    total, _ = quad(radial, 0.0, math.pi / 2.0, epsabs=1e-12, epsrel=1e-11,
                    limit=200)
    total *= 2.0 * math.pi
    checks.append(_check_le("kernel_normalization_err", abs(total - 1.0),
                            tol))
    tables.append(Table("berger_normalization",
                        ["lam", "t", "integral", "abs_err"],
                        [[lam, t, total, abs(total - 1.0)]]))
    return tables, checks


def _exp_winding_cp1(params, seed, threads):
    t, r0, lam = params["t"], math.pi / 4.0, 1.0
    w = sample_winding(
        Geometry.cp(1), r0,
        SimConfig(t, params["dt"], int(params["paths"]), seed),
        threads=threads)
    emp = empirical_cf(w.phi_end / t, lam)
    limit = winding_limit_cf(Geometry.cp(1), r0, lam)
    mean = float(w.phi_end.mean())
    mean_se = float(w.phi_end.std(ddof=1)) / math.sqrt(w.phi_end.size)
    table = Table("winding_cp1",
                  ["lambda", "limit_cf", "empirical_cf", "empirical_se",
                   "abs_diff"],
                  [[lam, limit, emp.value.real, emp.std_error,
                    abs(emp.value.real - limit)]])
    checks = [
        _check_le("cauchy2_cf_abs_diff", abs(emp.value.real - limit),
                  params["tol"]),
        _check_abs("winding_mean_z", mean / mean_se, params["sigma"]),
    ]
    return [table], checks


def _exp_winding_ch1(params, seed, threads):
    t = params["t"]
    sigma = params["sigma"]
    rows, checks = [], []
    for j, r0 in enumerate([float(v) for v in params["r0s"]]):
        w = sample_winding(
            Geometry.ch(1), r0,
            SimConfig(t, params["dt"], int(params["paths"]),
                      _sub_seed(seed, j)), threads=threads)
        for lam in [float(v) for v in params["lambdas"]]:
            limit = winding_limit_cf(Geometry.ch(1), r0, lam)
            emp = empirical_cf(w.phi_end, lam)
            z = (emp.value.real - limit) / emp.std_error
            rows.append([r0, lam, limit, emp.value.real, emp.std_error, z])
            checks.append(_check_abs(f"z_winding_r0{r0}_lam{lam}", z, sigma))
    table = Table("winding_ch1",
                  ["r0", "lambda", "limit_cf", "empirical_cf",
                   "empirical_se", "z"], rows)
    return [table], checks


def _exp_levy_baseline(params, seed, threads):
    t, lam = params["t"], 1.0
    emp = empirical_cf(sample_planar_area(
        SimConfig(t, params["dt"], int(params["paths"]), seed),
        threads=threads).theta_end, lam)
    quad_cf = _quad_cf_planar(lam, t)
    closed = 1.0 / math.cosh(lam * t)
    z = (emp.value.real - quad_cf) / emp.std_error
    table = Table("levy_baseline",
                  ["lambda", "t", "quadrature", "closed_form", "empirical",
                   "empirical_se", "z"],
                  [[lam, t, quad_cf, closed, emp.value.real, emp.std_error,
                    z]])
    checks = [
        _check_abs("z_mc_vs_quadrature", z, params["sigma"]),
        _check_le("quadrature_vs_closed_form",
                  abs(quad_cf - closed), 1e-8),
    ]
    return [table], checks


# name -> (runner, default parameters)
EXPERIMENTS = {
    "jacobi-selftest": (_exp_jacobi_selftest, {}),
    "cp-area-cf": (_exp_cp_area_cf, {
        "n": 1, "t": 1.0, "lambdas": (0.5, 1.0, 2.0), "paths": 100000,
        "dt_direct": 1e-3, "dt_girsanov": 2e-3, "sigma": 3.0,
    }),
    "cp-cauchy-limit": (_exp_cp_cauchy_limit, {
        "t": 50.0, "ns": (1, 2), "lambdas": (0.25, 0.5, 1.0, 2.0),
        "paths": 10000, "dt": 0.01, "sigma": 3.0,
    }),
    "ch-area-cf": (_exp_ch_area_cf, {
        "n": 1, "t": 1.0, "lambdas": (0.5, 1.0), "paths": 100000,
        "dt": 1e-3, "sigma": 3.0,
    }),
    "ch-gaussian-limit": (_exp_ch_gaussian_limit, {
        "t": 50.0, "ns": (1, 2, 3), "paths": 10000, "dt": 0.01,
        "p_min": 0.01,
    }),
    "ch1-loop-density": (_exp_ch1_loop_density, {"t": 1.0}),
    "berger-homogenisation": (_exp_berger_homogenisation, {}),
    "winding-cp1": (_exp_winding_cp1, {
        "t": 30.0, "paths": 10000, "dt": 0.01, "tol": 0.05, "sigma": 3.0,
    }),
    "winding-ch1": (_exp_winding_ch1, {
        "t": 100.0, "r0s": (0.5, 1.0), "lambdas": (0.5, 1.0, 2.0),
        "paths": 10000, "dt": 0.01, "sigma": 3.0,
    }),
    "levy-baseline": (_exp_levy_baseline, {
        "t": 1.0, "paths": 100000, "dt": 1e-3, "sigma": 3.0,
    }),
}


# ---------------------------------------------------------------------------
# artifact emission

def _fmt_cell(v) -> str:
    if isinstance(v, (bool, np.bool_)):
        return "true" if v else "false"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return format(float(v), ".17g")
    return str(v)


def _write_csv(path: Path, table: Table) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write(",".join(table.header) + "\n")
        for row in table.rows:
            f.write(",".join(_fmt_cell(v) for v in row) + "\n")


def run_experiment(spec: ExperimentSpec, threads: int = 1) -> ReportBundle:
    """Execute the named experiment, write its artifacts, return the bundle.

    Numeric failures inside the experiment are recorded in the manifest as
    a failed 'completed' check rather than crashing the runner.  Raises
    ValueError if threads is below 1.
    """
    if threads < 1:
        raise ValueError(f"threads must be at least 1, got {threads}")
    params = spec.resolved_params()
    out_dir = Path(spec.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    start = time.perf_counter()
    error = None
    try:
        tables, checks = EXPERIMENTS[spec.name][0](
            params, spec.master_seed, threads)
    except Exception as e:  # noqa: BLE001 - recorded in the manifest
        tables = []
        checks = [Check("completed", math.nan, 0.0, False)]
        error = f"{type(e).__name__}: {e}"
    wall = time.perf_counter() - start
    manifest = {
        "schema_version": 1,
        "experiment": spec.name,
        "config": {k: (list(v) if isinstance(v, tuple) else v)
                   for k, v in params.items()},
        "master_seed": spec.master_seed,
        "threads": threads,
        "library_version": __version__,
        "wall_time_s": wall,
        "checks": [c.as_dict() for c in checks],
    }
    if error is not None:
        manifest["error"] = error
    manifest["passed"] = all(c.passed for c in checks)
    for table in tables:
        _write_csv(out_dir / f"{table.name}.csv", table)
    with open(out_dir / "manifest.json", "w", encoding="utf-8",
              newline="\n") as f:
        json.dump(manifest, f, indent=2, sort_keys=True, allow_nan=False)
        f.write("\n")
    return ReportBundle(manifest=manifest, tables=tables)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        prog="spaceform-areas",
        description="Run a named stochastic-area/winding experiment and "
                    "emit CSV tables plus a JSON manifest.")
    ap.add_argument("--experiment", help="experiment name")
    ap.add_argument("--config", help="path to a JSON config document")
    ap.add_argument("--seed", type=int, help="master seed override")
    ap.add_argument("--out", help="output directory override")
    ap.add_argument("--threads", type=int, default=1,
                    help="threads, each stepping a contiguous group of "
                         "sampler blocks (results do not depend on it)")
    ap.add_argument("--override", action="append", default=[],
                    metavar="KEY=VALUE",
                    help="parameter override (repeatable)")
    args = ap.parse_args(argv)

    try:
        if args.threads < 1:
            raise ValueError(
                f"--threads must be at least 1, got {args.threads}")
        fields = {"params": {}}
        if args.config is not None:
            fields = _config_fields(
                Path(args.config).read_text(encoding="utf-8"))
        elif args.experiment is None:
            ap.error("either --experiment or --config is required")
        # the spec is validated once, after every flag is applied, so that
        # an override can mend the config it overrides
        if args.experiment is not None:
            fields["name"] = args.experiment
        for ov in args.override:
            if "=" not in ov:
                raise ValueError(f"override {ov!r} is not KEY=VALUE")
            key, _, val = ov.partition("=")
            fields["params"][key] = _coerce_override(val)
        if args.out:
            fields["output_dir"] = Path(args.out)
        if args.seed is not None:
            fields["master_seed"] = args.seed
        spec = ExperimentSpec(**fields)
    except (ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2

    bundle = run_experiment(spec, threads=args.threads)
    for c in bundle.manifest["checks"]:
        value = math.nan if c["value"] is None else c["value"]
        print(f"[{c['verdict'].upper()}] {spec.name}: {c['name']} = "
              f"{value:.6g} (threshold {c['threshold']:.6g})")
    print(f"{spec.name}: wall {bundle.manifest['wall_time_s']:.2f}s, "
          f"artifacts in {spec.output_dir}")
    return 0 if bundle.passed else 1


if __name__ == "__main__":
    raise SystemExit(main())
