"""Bit-identity pins for the Feynman-Kac keystream.

``uniforms_at`` feeds the exact Feynman-Kac engine, whose estimates are
checked against the closed form by z-score.  Monte Carlo value fields are part
of the reproducibility contract, so any rewrite of the keystream has to
reproduce these digests bit for bit.  They pin library version 0.2.0's layout:
one Philox key per (seed, domain), block j of path i at counter (i, j, 0, 0).
If one of these fails, the keystream changed: restore it or bump the library
version and record the change.  The pins at the end do the same for the
Feynman-Kac sampler of version 0.3.0.
"""

import hashlib

import numpy as np
import pytest

from she_moments.cli import main
from she_moments.kernels import TwoPointQuery
from she_moments.measures import (DensityMeasure, GrowthCertificate,
                                  LebesgueScaled, gaussian_density)
from she_moments.rng import DOMAIN_FK, DOMAIN_SPDE, uniforms_at
from she_moments.simulate import McConfig, fk_two_point

BIG_SEED = 2**63 + 12345
DOMAINS = {"fk": DOMAIN_FK, "spde": DOMAIN_SPDE}
PATHS = {
    "arange": (0, 25_000),
    "near2_40": (2**40 - 2, 2**40 + 3),
}
N_UNIFORMS = (1, 4, 5, 8, 9)

UNIFORM_DIGESTS = {
    ("fk", 11, "arange", 1): "7f03fa3c8a1871aa093d4b603be5d7c4c5275e80",
    ("fk", 11, "arange", 4): "054cd4a5c9801ac79f77094e1feac33ab071ec41",
    ("fk", 11, "arange", 5): "aa8641f9e467b08e0635c70b6bf872a4ee8e5ab6",
    ("fk", 11, "arange", 8): "6ed227e6084acdadb074ad846349d53b4742b374",
    ("fk", 11, "arange", 9): "0059d9d59ee4a5210457b4c3a57bc89b55e68f4d",
    ("fk", 11, "near2_40", 1): "efca50046931ad2c439cac1e6720c71b70ae3076",
    ("fk", 11, "near2_40", 4): "4b9bc5f6f16be2455a04f11cfe1c788118dddd42",
    ("fk", 11, "near2_40", 5): "0d161f3001fe51968dc15f27cb454e5c3fca1919",
    ("fk", 11, "near2_40", 8): "105625a02970d8a41a483f09739f4bd780306b39",
    ("fk", 11, "near2_40", 9): "ebf99bcae2625d9ff2ce46c1acdd2e63af1c7ebf",
    ("fk", BIG_SEED, "arange", 1): "3fda6aae2a8b2640d64b2db30c9f828fa0c15e05",
    ("fk", BIG_SEED, "arange", 4): "3bd699cd7bf1c6b07e72154007274f16f45c70d1",
    ("fk", BIG_SEED, "arange", 5): "e52f97abee849ff69f8d3940c8e130d77c3a1880",
    ("fk", BIG_SEED, "arange", 8): "851490459880edfcc156bcecea2b138341f11027",
    ("fk", BIG_SEED, "arange", 9): "11c190b513423d49529819fdd81d432d272d9337",
    ("fk", BIG_SEED, "near2_40", 1): "fb0f7088eeaf9b2653883f9fc1ae441748fa4548",
    ("fk", BIG_SEED, "near2_40", 4): "6e145e73464490ba79061c47e9984da1116f1d9b",
    ("fk", BIG_SEED, "near2_40", 5): "e936c37e317f540282337f2386fc63b0de0598f4",
    ("fk", BIG_SEED, "near2_40", 8): "64193166cb2d838e19e9d90bf575656dbf611769",
    ("fk", BIG_SEED, "near2_40", 9): "262b973abb98eaa8eb1abaae9c1dc3af13186df1",
    ("spde", 11, "arange", 1): "f46ad33a47104566c387dde4078fa7c80b607f47",
    ("spde", 11, "arange", 4): "5aec05b495dc64e833412f4d4e529fdd4ff69719",
    ("spde", 11, "arange", 5): "dd36020a9a22a92e8e5d133917081e2c2d6bad9f",
    ("spde", 11, "arange", 8): "31f26301ae01c61f5c4a4cbc5162ece31a24d6c2",
    ("spde", 11, "arange", 9): "e0211d80302aba9d2cfc96088580498ced60f844",
    ("spde", 11, "near2_40", 1): "577155cd7286a2a4afc89e7f9a42d376d8316d1e",
    ("spde", 11, "near2_40", 4): "ceb01809143fdb7cf9f902f054ee216df754ef86",
    ("spde", 11, "near2_40", 5): "9a3daa7eb91c68c5886d71407b699093f5e352c9",
    ("spde", 11, "near2_40", 8): "d04ac9c19a45a9b667bfa2199928a3da02b3ab9d",
    ("spde", 11, "near2_40", 9): "3378e729444937499f8c2fdf703aaab0cefe8c74",
    ("spde", BIG_SEED, "arange", 1): "5ecea21e9ac51b6d765601b4a8c0e5a0af0b849d",
    ("spde", BIG_SEED, "arange", 4): "f4ac4d9003041c59279117750abf360daefb6c7d",
    ("spde", BIG_SEED, "arange", 5): "7372587859ee684fec8943766c51ea84d39ca38d",
    ("spde", BIG_SEED, "arange", 8): "54cb653af9fe5303c0d2830051d1e85a1fcf419b",
    ("spde", BIG_SEED, "arange", 9): "00d66fbba534b73c73e786dc812352357bfeabfc",
    ("spde", BIG_SEED, "near2_40", 1): "442b9c45ed7e51596ec8c40c04f5754195d6883c",
    ("spde", BIG_SEED, "near2_40", 4): "5149d9605e431052cbc05f9073d9a319d995ebd1",
    ("spde", BIG_SEED, "near2_40", 5): "c77cd735967de8f34cea49be87982b750af7b906",
    ("spde", BIG_SEED, "near2_40", 8): "06f60782ba7d9f0207915b1dd3b451b4820cd624",
    ("spde", BIG_SEED, "near2_40", 9): "183c10c735c8290b1fe5b7c09ac4495fce12bf5e",
}


def _sha1(a: np.ndarray) -> str:
    return hashlib.sha1(np.ascontiguousarray(a, dtype=np.float64)
                        .tobytes()).hexdigest()


@pytest.mark.parametrize("domain,seed,paths,n", sorted(UNIFORM_DIGESTS))
def test_uniforms_at_is_pinned(domain, seed, paths, n):
    lo, hi = PATHS[paths]
    u = uniforms_at(seed, DOMAINS[domain], lo, hi, n)
    assert u.shape == (hi - lo, n)
    assert _sha1(u) == UNIFORM_DIGESTS[(domain, seed, paths, n)]


@pytest.mark.parametrize("n", N_UNIFORMS)
def test_uniforms_at_empty_path_set(n):
    u = uniforms_at(11, DOMAIN_FK, 5, 5, n)
    assert u.shape == (0, n)
    assert u.dtype == np.float64


def _estimate(u0, batch_size, workers):
    return fk_two_point(TwoPointQuery(0.9, -0.3, 0.4), u0, 1.0, 1.0,
                        McConfig(n_paths=50_000, seed=2024,
                                 batch_size=batch_size, workers=workers))


# Every way of cutting the 50,000 paths into batches and workers.
PARTITIONS = pytest.mark.parametrize("batch_size,workers", [
    (b, w) for b in (333, 7_000, 20_000) for w in (1, 2, 4)])

CONSTANT_ESTIMATE = ("Estimate(value=3.1065164379097046, "
                     "std_error=0.006441500363034108, n=50000, "
                     "n_divergent=0)")


def test_fk_two_point_estimate_is_pinned():
    # 50,000 paths in batches of 7,000 on two workers: the last batch is
    # short, so uneven batch edges are part of the pin.
    assert repr(_estimate(LebesgueScaled(1.5), 7_000, 2)) == CONSTANT_ESTIMATE


@PARTITIONS
def test_constant_u0_reads_only_the_local_time(batch_size, workers):
    # A constant u0 reads the first two uniforms of each block, the local
    # time's; a density that is the same constant goes through the full
    # (W1, L, W2) draw and must give the same estimate, bit for bit.
    flat = DensityMeasure(lambda x: np.full(np.shape(x), 1.5),
                          GrowthCertificate(amplitude=1.5))
    assert repr(_estimate(flat, batch_size, workers)) == CONSTANT_ESTIMATE
    assert (repr(_estimate(LebesgueScaled(1.5), batch_size, workers))
            == CONSTANT_ESTIMATE)


# Library version 0.3.0: three uniforms per (W1, L) sample and W2 from the
# fourth uniform of the same block.  A constant u0 never reads the endpoints,
# so these pins use a Gaussian density u0 and the sampler's own output.
DENSITY_ESTIMATE = ("Estimate(value=0.15841440311601684, "
                    "std_error=0.0008634269798684592, n=50000, "
                    "n_divergent=0)")


def test_fk_two_point_density_estimate_is_pinned():
    assert (repr(_estimate(gaussian_density(0.2, 0.5), 7_000, 2))
            == DENSITY_ESTIMATE)


@PARTITIONS
def test_fk_two_point_density_estimate_ignores_partition(batch_size, workers):
    assert (repr(_estimate(gaussian_density(0.2, 0.5), batch_size, workers))
            == DENSITY_ESTIMATE)


def test_local_time_sample_stdout_is_pinned(capsys):
    code = main(["local-time", "sample", "--t", "1", "--a", "1",
                 "--n", "1000", "--seed", "1"])
    out = capsys.readouterr().out
    assert code == 0
    assert (hashlib.sha1(out.encode()).hexdigest()
            == "5631971641c3a225d2befca0446a9bbb3d3e55e0")
