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
            "7a33ace06e4da0c7e785b783cca6dc63763c2ee0647b6d64ac6311771d2faa5e",
    },
    "cp-cauchy-limit": {
        "cp_cauchy_limit.csv":
            "60f6d097358952181d1de4ebcec703bf03605e8a7ca97fcdbad17d6ac18242c8",
    },
    "ch-area-cf": {
        "ch_area_cf.csv":
            "493ea29f4489c99c9d06cf81b5bbbf3398ad92f129b1003e1436ddcd98ddd48d",
    },
    "ch-area-cf/n2": {
        "ch_area_cf.csv":
            "12bafbc9cd5aece3547e2fdce544dc88dd7623e440d37d874508fa3d807a21d4",
    },
    "ch-gaussian-limit": {
        "ch_gaussian_limit.csv":
            "f8470ba3474f624f9eaec109cdc1261863467493487bbe50fea336164e21f338",
    },
    "winding-cp1": {
        "winding_cp1.csv":
            "12ea705f2b306b452e3c6c873f7afd41cfca25809736e6953ec926a101289bac",
    },
    "winding-ch1": {
        "winding_ch1.csv":
            "bc3d728bc0f857991c9a5a44edfb7d9ea51e18e4c3ff3f8722b4093cae7c05e6",
    },
    "levy-baseline": {
        "levy_baseline.csv":
            "4d61991602b350ae14dfbd4f252f270d2b44256d7ea02543e80272b33d73984f",
    },
}

GOLDEN_SAMPLER_MANIFEST = {
    "cp-area-cf":
        "e843832c61a6a126bff68b2f94ddce40987484e6ab885cb62d7710604259672d",
    "cp-cauchy-limit":
        "ad67c0e97076879e38e256b12a346ae7c8b93fc98fc21668f02e94556450d61d",
    "ch-area-cf":
        "79d3a025dc3423684ea3bdbee8b9c031d6659da5708a1066e728e3c8189f9c88",
    "ch-area-cf/n2":
        "e16d9c49f3ed7b380c708041e6996b23a0069fed457603fffa31bdda08098878",
    "ch-gaussian-limit":
        "e6858caa5a2fe8d95a683c3922e8faa704db9c6dad6472c63952da94f3aff854",
    "winding-cp1":
        "b640e8b98a1c254ef594205ed675e7ed4724a0ba6a3bc9325a535646c916e110",
    "winding-ch1":
        "56df69e062a140a3bee28d64b1c22900af492a6186addc46f690b82c94c48c7e",
    "levy-baseline":
        "61464ba171c9353232e115ec89b88987d9a8def9876bc7f9a996385e7f31d872",
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
            "751d4cae20df99de263e5919373449ae32d528e3151079b5e149447da98b4455",
    },
    "ch-gaussian-limit": {
        "ch_gaussian_limit.csv":
            "abdd90ac4904fc12bd9c76def5f6905346e9bf6fdc5f3e7756f70b0fe7ea3d70",
    },
    "winding-cp1": {
        "winding_cp1.csv":
            "ee5ef0b99198ce88eca689672b7c0b0b359c6da2cc50e4c67cf41db8e1bcc055",
    },
    "winding-ch1": {
        "winding_ch1.csv":
            "c04ac146139696b83e03ad456168be569a75556096da58fdac02177e8b10afe8",
    },
}

GOLDEN_LONG_SAMPLER_MANIFEST = {
    "cp-cauchy-limit":
        "b3e72fd4ef7d8222d8fcb8a55bb091700c2686ee2fd236fa7f6de803f2fbf474",
    "ch-gaussian-limit":
        "be0d64722f880e42b337bcf31cdb48b9f0a94a65af4606159e164084fa02a417",
    "winding-cp1":
        "0ddae332e732170a5295057683c498bc9f9c0f848aa4a1c65ba579ce7f031df8",
    "winding-ch1":
        "1f36dc4806784b91abfec5696c98324e241329dbe4a67d27060a144041c7e56b",
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
