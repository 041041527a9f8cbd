"""Golden outputs of the spectral routes, pinned bit for bit.

The SHA-256 digests cover every CSV of the two deterministic spectral
experiments at default parameters; the hex floats pin the marginal CP
area CF that feeds the `analytic` columns of cp-area-cf and
cp-cauchy-limit.  A refactor of the Jacobi series must leave all of them
unchanged; an intended output change must update them and say why.
"""

import hashlib

import pytest

from spaceform_areas import QuadratureControl, SeriesControl, cf_marginal_cp
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
    v = cf_marginal_cp(n, lam, t, SeriesControl(), QuadratureControl())
    assert v.hex() == golden
