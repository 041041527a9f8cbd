"""Golden outputs of the spectral routes and the path samplers, pinned
bit for bit.

The SHA-256 digests cover every CSV of the two deterministic spectral
experiments at default parameters, and of the seven sampler experiments
(ch-area-cf at n = 1 and 2) at small sizes and one seed, and of the four
long-horizon sampler experiments at one seed; the hex floats pin the
marginal CP area CF that feeds the `analytic` columns of cp-area-cf and
cp-cauchy-limit.  A refactor of the Jacobi series or of the samplers must
leave all of them unchanged; an intended output change must update them
and say why.
"""

import hashlib

import pytest

from spaceform_areas import cf_marginal_cp
from spaceform_areas.cli import ExperimentSpec, run_experiment

GOLDEN_CSV = {
    "jacobi-selftest": {
        "density_normalization.csv":
            "d1bc895a5a703e9227343caf868d1da18ca9f70cdf6cbcda6c99fc8263caf17b",
        "jacobi_eigen.csv":
            "bc4657914681c5cf3d6bc48715df5d1b770b06f0b5a51320e27bb9cbe533ee9c",
        "jacobi_oracle.csv":
            "bd9421dac3ca584bf9894e60e86e10bf058af06b2405133ea7d4e94dac75b13f",
    },
    "berger-homogenisation": {
        "berger_homogenisation.csv":
            "d5d780b54826a91ba83a05560d55ec8b03f3a6b0dfc3206db29fd5015d471722",
        "berger_normalization.csv":
            "b2df788ddd89be3895e81d4943a58fdd9446aa5a5cdf051e68a16374bc48bcb5",
    },
}

GOLDEN_CF_MARGINAL_CP = [
    (1, 0.5, 0.5, "0x1.d4616871563c9p-1"),
    (1, 2.0, 0.5, "0x1.17a95ab5e9a68p-1"),
    (2, 1.0 / 50.0, 50.0, "0x1.194db09890d4bp-3"),
]


# Small sizes so that all eight run in a few seconds.  cp-area-cf,
# ch-area-cf, winding-cp1, winding-ch1 and levy-baseline use more paths
# than simulate.BLOCK_SIZE, so that each runs several blocks: the CH and
# planar ones on the thread pool, the clock-time ones in one sweep loop.
# A key "<experiment>/<label>" runs that experiment with other parameters.
SAMPLER_PARAMS = {
    "cp-area-cf": {"t": 0.25, "lambdas": [1.0], "paths": 5000,
                   "dt_direct": 1e-2, "dt_girsanov": 1e-2},
    "cp-cauchy-limit": {"t": 5.0, "ns": [1, 2], "lambdas": [1.0],
                        "paths": 512, "dt": 0.05},
    "ch-area-cf": {"t": 0.5, "lambdas": [0.5], "paths": 4500, "dt": 1e-2},
    "ch-area-cf/n2": {"n": 2, "t": 0.5, "lambdas": [0.5], "paths": 4500,
                      "dt": 1e-2},
    "ch-gaussian-limit": {"t": 5.0, "ns": [1, 2], "paths": 256,
                          "dt": 0.05},
    "winding-cp1": {"t": 2.0, "paths": 4500, "dt": 0.05},
    "winding-ch1": {"t": 2.0, "r0s": [0.5], "lambdas": [1.0],
                    "paths": 4500, "dt": 0.05},
    "levy-baseline": {"paths": 5000, "dt": 2e-2},
}

GOLDEN_SAMPLER_CSV = {
    "cp-area-cf": {
        "cp_area_cf.csv":
            "7f44069abccb85a3c3dc77a8045de78500ffd76a2c1471a7d71a87a0cd68e06a",
    },
    "cp-cauchy-limit": {
        "cp_cauchy_limit.csv":
            "a199aabab38049c289130c517dc22e9c705296d540ec9a2efa85f01cd3a6493c",
    },
    "ch-area-cf": {
        "ch_area_cf.csv":
            "ce3777349b92457f5679b1aa589de8dbf226ff1c6e7447f8921117abb6fc6acc",
    },
    "ch-area-cf/n2": {
        "ch_area_cf.csv":
            "fc11723a155e792f14a74953a4e1877c8f8dc5e60dfc636f684983d6f3e89958",
    },
    "ch-gaussian-limit": {
        "ch_gaussian_limit.csv":
            "2df2bfe9d262c91121e01792833c74a1748b82c7bce5e98b1744963a0617b52d",
    },
    "winding-cp1": {
        "winding_cp1.csv":
            "29280aa3ca243b6cb5119612da857b23f4c3289083c8ea33806639f40fe4c411",
    },
    "winding-ch1": {
        "winding_ch1.csv":
            "3502452c4f6fdbd5a4c39ecd64cb4120b7e2c7bf0ee0ea6f8ec2278d286643ec",
    },
    "levy-baseline": {
        "levy_baseline.csv":
            "e021b70a93c8d15a4bcce9f767840215958df4bee53bd2b968762938f44f181f",
    },
}

# The long-time regime, one block each: the CH samplers finish their far
# lanes in closed form past _R_FAR, winding-ch1 retires its lanes at
# _M_FLOOR_CH, and the CP samplers take thousands of psi-mode dives.
LONG_SAMPLER_PARAMS = {
    "cp-cauchy-limit": {"t": 50.0, "ns": [1, 2], "paths": 256, "dt": 0.02},
    "ch-gaussian-limit": {"t": 50.0, "ns": [3], "paths": 256},
    "winding-cp1": {"t": 30.0, "paths": 256},
    "winding-ch1": {"t": 100.0, "r0s": [0.5], "paths": 256},
}

GOLDEN_LONG_SAMPLER_CSV = {
    "cp-cauchy-limit": {
        "cp_cauchy_limit.csv":
            "feb337ae1913a6857923bb519fcd36fede398318e4042a90d8ca76033c1987c4",
    },
    "ch-gaussian-limit": {
        "ch_gaussian_limit.csv":
            "297332b7f6808bbe1312ade49d04b1585f95d6ac273d61a20fbb6bf421b83f99",
    },
    "winding-cp1": {
        "winding_cp1.csv":
            "cc3f9e7d2ef224ce7e7601d3c19f9feba6b2c548f6068d23a911dcf507a86ff4",
    },
    "winding-ch1": {
        "winding_ch1.csv":
            "29c911e5519cea63c90689556d1243b37d80f4ad8dd275c3b97eff65aa84f74d",
    },
}


def _sampler_digests(name, params, tmp_path):
    bundle = run_experiment(
        ExperimentSpec(name=name, params=params, output_dir=tmp_path,
                       master_seed=20240601),
        threads=2)
    assert "error" not in bundle.manifest
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(tmp_path.glob("*.csv"))}


@pytest.mark.parametrize("name", sorted(GOLDEN_CSV))
def test_spectral_csv_digests(name, tmp_path):
    bundle = run_experiment(ExperimentSpec(name=name, output_dir=tmp_path,
                                           master_seed=20240601))
    assert bundle.manifest["passed"]
    digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
               for p in sorted(tmp_path.glob("*.csv"))}
    assert digests == GOLDEN_CSV[name]


@pytest.mark.parametrize("n,lam,t,golden", GOLDEN_CF_MARGINAL_CP)
def test_cf_marginal_cp_bits(n, lam, t, golden):
    v = cf_marginal_cp(n, lam, t)
    assert v.hex() == golden


@pytest.mark.parametrize("name", sorted(SAMPLER_PARAMS))
def test_sampler_csv_digests(name, tmp_path):
    experiment = name.partition("/")[0]
    assert (_sampler_digests(experiment, SAMPLER_PARAMS[name], tmp_path)
            == GOLDEN_SAMPLER_CSV[name])


@pytest.mark.parametrize("name", sorted(LONG_SAMPLER_PARAMS))
def test_long_horizon_sampler_csv_digests(name, tmp_path):
    assert (_sampler_digests(name, LONG_SAMPLER_PARAMS[name], tmp_path)
            == GOLDEN_LONG_SAMPLER_CSV[name])
