"""The benchmark's workloads: which experiments each one runs, at which
parameter overrides and thread count.

Every workload is a closed loop with one caller: a fresh Python process
that calls ``cli.run_experiment`` on the experiments below in sequence, at
a master seed derived from the one given on the command line, and starts
the next experiment only when the previous verdict is in.  One pass of the sequence is the unit
that ``wall_s`` times.

The experiments are scaled down from their defaults so that one pass takes
seconds, not minutes.  Their statistical gates are widened from 3 sigma to
``Z_SIGMA`` (and the KS gate from p >= 0.01 to ``KS_P_MIN``): the benchmark
runs every workload at many seeds, and at 3 sigma some seed would fail a
check by chance alone.  The deterministic gates (oracle, series and
quadrature tolerances) keep their defaults.
"""

from __future__ import annotations

from dataclasses import dataclass

# Per-check false-alarm rate about 6e-7 (|z| > 5) and 1e-6 (KS), so the few
# thousand checks of a hundred runs fail by chance with probability below
# 1%.
Z_SIGMA = 5.0
KS_P_MIN = 1e-6
# winding-cp1 gates |empirical CF - limit| in absolute terms; at 2048 paths
# the empirical CF has a standard error of about 0.015.
WINDING_CP1_TOL = 5.0 * 0.015


@dataclass(frozen=True)
class Workload:
    name: str
    threads: int
    experiments: tuple  # of (experiment name, parameter overrides)


WORKLOADS = {w.name: w for w in (
    Workload(
        name="short-horizon",
        threads=2,
        experiments=(
            ("cp-area-cf", {"t": 0.5, "lambdas": [0.5, 2.0],
                            "paths": 8192, "sigma": Z_SIGMA}),
            ("levy-baseline", {"paths": 16384, "sigma": Z_SIGMA}),
        ),
    ),
    Workload(
        name="ch-quadrature",
        threads=1,
        experiments=(
            ("ch-area-cf", {"t": 4.0, "lambdas": [0.5], "paths": 2048,
                            "dt": 2e-3, "sigma": Z_SIGMA}),
            ("jacobi-selftest", {}),
            ("ch1-loop-density", {}),
            ("berger-homogenisation", {}),
        ),
    ),
    Workload(
        name="long-horizon",
        threads=1,
        experiments=(
            ("cp-cauchy-limit", {"t": 50.0, "ns": [1, 2], "paths": 512,
                                 "dt": 0.02, "sigma": Z_SIGMA}),
            ("ch-gaussian-limit", {"t": 50.0, "ns": [1, 2, 3], "paths": 512,
                                   "dt": 0.05, "p_min": KS_P_MIN}),
            ("winding-cp1", {"t": 30.0, "paths": 2048,
                             "tol": WINDING_CP1_TOL, "sigma": Z_SIGMA}),
            ("winding-ch1", {"t": 100.0, "paths": 1024, "sigma": Z_SIGMA}),
        ),
    ),
)}
