"""Bit-identity pins for the Feynman-Kac keystream.

``uniforms_at`` feeds the exact Feynman-Kac engine, whose estimates are
checked against the closed form by z-score.  Monte Carlo value fields are part
of the reproducibility contract, so any rewrite of the Philox kernel has to
reproduce these digests bit for bit.  They were computed from the two-pass
Philox evaluation (one pass per counter block, fresh arrays per operation)
that preceded the in-place lane kernel.  If one of these fails, the keystream
changed: restore it or bump the library version and record the change.
"""

import hashlib

import numpy as np
import pytest

from she_moments.kernels import TwoPointQuery
from she_moments.measures import LebesgueScaled
from she_moments.rng import DOMAIN_FK, DOMAIN_SPDE, uniforms_at
from she_moments.simulate import McConfig, fk_two_point

BIG_SEED = 2**63 + 12345
DOMAINS = {"fk": DOMAIN_FK, "spde": DOMAIN_SPDE}
PATHS = {
    "arange": np.arange(25_000),
    "near2_40": np.array([2**40 - 1, 2**40, 2**40 + 12345]),
}
N_UNIFORMS = (1, 4, 5, 8, 9)

UNIFORM_DIGESTS = {
    ("fk", 11, "arange", 1): "24b7b4a982e7ea02159d89149be290d32555f0ba",
    ("fk", 11, "arange", 4): "be18569563dd4f8493bdb7896c3bdce5cfb08674",
    ("fk", 11, "arange", 5): "0ef0f01108ac346fe96dd74c84e2a013447c56c0",
    ("fk", 11, "arange", 8): "c360596c12652e6787e12ed8fe6adc348d233134",
    ("fk", 11, "arange", 9): "52e54c25377712c200ced9ec6667ca60a09f3637",
    ("fk", 11, "near2_40", 1): "b06ac05d50860e10c97ca48a7922d0ae57c2716e",
    ("fk", 11, "near2_40", 4): "d94a16cc5668fda4c1dc60459c2c38be093fc4c3",
    ("fk", 11, "near2_40", 5): "9e123b214f8fc9282520e58bd3c5b294cd5959eb",
    ("fk", 11, "near2_40", 8): "4e590446f9cce8da2076304e47aeea411ccb2cd6",
    ("fk", 11, "near2_40", 9): "dc766e18f225e5cf38c21465cb1274b7113c9045",
    ("fk", BIG_SEED, "arange", 1): "0c798256ea79131aa37e8fcba1eac11b4af00295",
    ("fk", BIG_SEED, "arange", 4): "ba93e60104466a1df86d297ae1283b96c17fc7da",
    ("fk", BIG_SEED, "arange", 5): "e888454f398ac9d284aeb3a2744bf03553dc6bf2",
    ("fk", BIG_SEED, "arange", 8): "7d7652dec216f554e274903861bd863ec2ccbf97",
    ("fk", BIG_SEED, "arange", 9): "3f315680f3c2f5d659ee45e01a8848113549f4f0",
    ("fk", BIG_SEED, "near2_40", 1): "671045cf2f838c84444adbf77dc1e0ca7a9325b8",
    ("fk", BIG_SEED, "near2_40", 4): "c7eb4acec317d20b53cdab007a23d08b9dfac8da",
    ("fk", BIG_SEED, "near2_40", 5): "39f4ba87550c5693543a63ffc1bec2ce5d5c0b9b",
    ("fk", BIG_SEED, "near2_40", 8): "b02923a5025fcbd4554cb9af6aed6117781f2ff1",
    ("fk", BIG_SEED, "near2_40", 9): "9aaf18a666de2810ed0c606f7769366249682f41",
    ("spde", 11, "arange", 1): "4ce9eebc5373f67fa9b86e771d48f2c22fe260e5",
    ("spde", 11, "arange", 4): "efbe1eaa99315bf00b124066c2c5e3f252e42dbf",
    ("spde", 11, "arange", 5): "18a31a3a384d7394f96894231f58944d0e68f63c",
    ("spde", 11, "arange", 8): "53107012b850338319ff170cbc4868334ff69ee5",
    ("spde", 11, "arange", 9): "4bb37486e2240a9b0cfdf0cb8e795eaa5c664ad7",
    ("spde", 11, "near2_40", 1): "be11b4b9bfbe3341a9e2239e2e9ec394812e1993",
    ("spde", 11, "near2_40", 4): "1ab79864a1cdf62f934ee8c27387682cae7bd42e",
    ("spde", 11, "near2_40", 5): "08068001d9e34b38c95863bcd2aff73d27074840",
    ("spde", 11, "near2_40", 8): "6c4103a9a67619f979f8e18bb82cea73de61acb0",
    ("spde", 11, "near2_40", 9): "d964b5b751c6a80d6c6a79179a1f043b3b160b64",
    ("spde", BIG_SEED, "arange", 1): "3ce085b1eba31defcba7b39afb1ad1d0f464a1fe",
    ("spde", BIG_SEED, "arange", 4): "0c196399b23ebf752b730d9e8d6598efc6d6251d",
    ("spde", BIG_SEED, "arange", 5): "03054a42ecb4e6a5bded4e656fece38fee3c8eb2",
    ("spde", BIG_SEED, "arange", 8): "69c7630272f2ccd20cf8ae38722b85c5c650d2cd",
    ("spde", BIG_SEED, "arange", 9): "aa3e6a408bd727bea99a6ecab44e8d97b6139f11",
    ("spde", BIG_SEED, "near2_40", 1): "b20616663f81fb7c584ef150390058bfb55757fd",
    ("spde", BIG_SEED, "near2_40", 4): "e36274d8bc6d333c38567e597bcc8275c536e0e0",
    ("spde", BIG_SEED, "near2_40", 5): "0eabde33b18509c769aaf85bf474a46703f90876",
    ("spde", BIG_SEED, "near2_40", 8): "f6399f591d55b1ad96f9bd14ecdf63e113abfb6d",
    ("spde", BIG_SEED, "near2_40", 9): "4a590efd3a1dfc424f65ac86b0e0c4761026813c",
}


def _sha1(a: np.ndarray) -> str:
    return hashlib.sha1(np.ascontiguousarray(a, dtype=np.float64)
                        .tobytes()).hexdigest()


@pytest.mark.parametrize("domain,seed,paths,n", sorted(UNIFORM_DIGESTS))
def test_uniforms_at_is_pinned(domain, seed, paths, n):
    u = uniforms_at(seed, DOMAINS[domain], PATHS[paths], n)
    assert u.shape == (PATHS[paths].size, n)
    assert _sha1(u) == UNIFORM_DIGESTS[(domain, seed, paths, n)]


@pytest.mark.parametrize("n", N_UNIFORMS)
def test_uniforms_at_empty_path_set(n):
    u = uniforms_at(11, DOMAIN_FK, np.array([], dtype=np.int64), n)
    assert u.shape == (0, n)
    assert u.dtype == np.float64


def test_fk_two_point_estimate_is_pinned():
    # 50,000 paths in batches of 7,000 on two workers: the last batch is
    # short, so uneven batch edges are part of the pin.
    est = fk_two_point(TwoPointQuery(0.9, -0.3, 0.4),
                       LebesgueScaled(1.5), 1.0, 1.0,
                       McConfig(n_paths=50_000, seed=2024, batch_size=7_000,
                                workers=2))
    assert repr(est) == ("Estimate(value=3.10862636180801, "
                         "std_error=0.006410884422606524, n=50000, "
                         "n_divergent=0)")
