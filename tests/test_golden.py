"""Golden outputs of the spectral routes and the path samplers, pinned
bit for bit.

The SHA-256 digests cover every CSV of the two deterministic spectral
experiments at default parameters, and of the seven sampler experiments
(ch-area-cf at n = 1 and 2) at small sizes and one seed, and of the four
long-horizon sampler experiments at one seed; the hex floats pin the
marginal CP area CF that feeds the `analytic` columns of cp-area-cf and
cp-cauchy-limit.  Each run's manifest is pinned too, as the digest of its
canonical JSON without `wall_time_s`, so a renamed, reordered or
re-thresholded check shows; the manifest records `library_version`, so a
version bump moves these digests as well.  A refactor of the Jacobi
series, of the samplers or of the runner must leave all of them
unchanged; an intended output change must update them and say why.
"""

import hashlib
import json

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

GOLDEN_MANIFEST = {
    "berger-homogenisation":
        "884631cae601feafc8da3daf9044f589ea4d05e39d3cf6635cd570a365b2e597",
    "jacobi-selftest":
        "8b0fd65fd56e44e929034eb1d5fe87a504db49446485f7eaa0d67d0782f28d09",
}

GOLDEN_CF_MARGINAL_CP = [
    (1, 0.5, 0.5, "0x1.d4616871563c9p-1"),
    (1, 2.0, 0.5, "0x1.17a95ab5e9a68p-1"),
    (2, 1.0 / 50.0, 50.0, "0x1.194db09890d4bp-3"),
]


# Small sizes so that all eight run in a few seconds.  cp-area-cf,
# ch-area-cf, winding-cp1, winding-ch1 and levy-baseline use more paths
# than simulate.BLOCK_SIZE, so that each runs two blocks: at 2 threads the
# fixed-grid CH, CP Girsanov and planar samplers step them as two groups,
# one thread each, and the clock-time ones as one group, which splits from
# 8 blocks.
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
            "903fdb761f5d714a8e5a1270e32a5eb7b3c86160f75cf164ad38ed563506806d",
    },
    "cp-cauchy-limit": {
        "cp_cauchy_limit.csv":
            "0fda608596b70330bb9a5a7231eb18b418db6e97531cb795df6d92cb8a786dc7",
    },
    "ch-area-cf": {
        "ch_area_cf.csv":
            "d85c662d2259f82a9f28d5a89af0fe1c3b54404d0a7c9482a79a9a82de2ec55c",
    },
    "ch-area-cf/n2": {
        "ch_area_cf.csv":
            "2223e4b3681c3370567561dc7ef4f613851871eaeeba5e7c356c1d83b5459711",
    },
    "ch-gaussian-limit": {
        "ch_gaussian_limit.csv":
            "e8e092f389a0d4c9aee0aaaf1283e7980841b9525d2f20a94d6bad54b7ec6e43",
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

GOLDEN_SAMPLER_MANIFEST = {
    "cp-area-cf":
        "af5b67456c0dd0501e57377c6a500c1ce53fcc48c464863732475f860f15228c",
    "cp-cauchy-limit":
        "8e874d412df5699f4a83e9e8f3d1a6df9b456a821b3fe8344b79aa2e08179c03",
    "ch-area-cf":
        "1324f7f23e734a881f484b1752da724b9fb88691f6702eb6265e9b10aaf77ea3",
    "ch-area-cf/n2":
        "0f094b48161599936b2ef2acc0d463ddfa0b5425deae518635262f672d55d436",
    "ch-gaussian-limit":
        "2fe3a4de452471d0be8f24479ce3154510ffd3b14b04ea5104ffe27d778fbdb0",
    "winding-cp1":
        "0e7faa32d08514b4a1a21695c712449b73564c5607b958c048f686963702fb6b",
    "winding-ch1":
        "d4b820a15a3d21bead5ffbcdb6219bb916a5c412e76a6daa3d802aae09e2e66e",
    "levy-baseline":
        "a529031ddfeb13bb6120c2ebae90df411e2c543c22969f590e90af77f054516a",
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
            "b7089ce78191148f5e45ccb74f14ee693c83c4e9aa0fac8b369a68a02da4fa9e",
    },
    "ch-gaussian-limit": {
        "ch_gaussian_limit.csv":
            "e0d1e39d75ff197704cd5a29e84f1ed99ef6e795abc5a7735cf2770f43307e4b",
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

GOLDEN_LONG_SAMPLER_MANIFEST = {
    "cp-cauchy-limit":
        "034ab1848d09f1542e71ea636b51dfdd761296ee94be28b7f5206b6597fa97df",
    "ch-gaussian-limit":
        "21ba4ad60e93bd1c1e6bf18cbda021ec091e6015b7080a2029d7952cf370ed9d",
    "winding-cp1":
        "d521eba783d895e870b2b108519f871bdf0e849cf72748f14f6d2121e9cfa9bb",
    "winding-ch1":
        "2a4da5e380aa060653630815c8beb5d99a877903aa4802d17b59a6ea02d0f8d2",
}


def _csv_digests(tmp_path):
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(tmp_path.glob("*.csv"))}


def _manifest_digest(tmp_path):
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    del manifest["wall_time_s"]
    return hashlib.sha256(
        json.dumps(manifest, sort_keys=True).encode()).hexdigest()


def _sampler_digests(name, params, tmp_path):
    bundle = run_experiment(
        ExperimentSpec(name=name, params=params, output_dir=tmp_path,
                       master_seed=20240601),
        threads=2)
    assert "error" not in bundle.manifest
    return _csv_digests(tmp_path), _manifest_digest(tmp_path)


@pytest.mark.parametrize("name", sorted(GOLDEN_CSV))
def test_spectral_csv_digests(name, tmp_path):
    bundle = run_experiment(ExperimentSpec(name=name, output_dir=tmp_path,
                                           master_seed=20240601))
    assert bundle.manifest["passed"]
    assert _csv_digests(tmp_path) == GOLDEN_CSV[name]
    assert _manifest_digest(tmp_path) == GOLDEN_MANIFEST[name]


@pytest.mark.parametrize("n,lam,t,golden", GOLDEN_CF_MARGINAL_CP)
def test_cf_marginal_cp_bits(n, lam, t, golden):
    v = cf_marginal_cp(n, lam, t)
    assert v.hex() == golden


@pytest.mark.parametrize("name", sorted(SAMPLER_PARAMS))
def test_sampler_csv_digests(name, tmp_path):
    experiment = name.partition("/")[0]
    assert (_sampler_digests(experiment, SAMPLER_PARAMS[name], tmp_path)
            == (GOLDEN_SAMPLER_CSV[name], GOLDEN_SAMPLER_MANIFEST[name]))


@pytest.mark.parametrize("name", sorted(LONG_SAMPLER_PARAMS))
def test_long_horizon_sampler_csv_digests(name, tmp_path):
    assert (_sampler_digests(name, LONG_SAMPLER_PARAMS[name], tmp_path)
            == (GOLDEN_LONG_SAMPLER_CSV[name],
                GOLDEN_LONG_SAMPLER_MANIFEST[name]))
