import numpy as np
import pytest

from she_moments.rng import (BIT_GENERATORS, DOMAIN_FK, DOMAIN_FK_OCC,
                             DOMAIN_SPDE, path_generator, path_key,
                             uniforms_at)

MAX64 = 2**64 - 1


def _counter_before(i: int, j: int) -> np.ndarray:
    """The 4-word counter one step before (i, j, 0, 0), borrowing across
    words: numpy's Philox steps its counter before each block."""
    words = [i, j, 0, 0]
    for k in range(4):
        if words[k]:
            words[k] -= 1
            break
        words[k] = MAX64
    return np.array(words, dtype=np.uint64)


def _reference(seed, domain, lo, hi, n_uniforms):
    """Path by path, block by block: block j of path i is numpy's Philox
    block at counter (i, j, 0, 0) under the domain's key."""
    key = path_key(seed, domain, 0)
    n_blocks = (n_uniforms + 3) // 4
    rows = []
    for i in range(lo, hi):
        words = np.concatenate([
            np.random.Philox(key=key, counter=_counter_before(i, j))
            .random_raw(4) for j in range(n_blocks)])
        rows.append(((words >> np.uint64(11)).astype(float) + 0.5)
                    * 2.0 ** -53)
    return np.array(rows, dtype=float).reshape(hi - lo, 4 * n_blocks)[
        :, :n_uniforms]


class TestKeystream:
    @pytest.mark.parametrize("lo,hi", [(0, 5), (1, 4), (2**40 - 2, 2**40 + 3),
                                       (MAX64 - 3, MAX64)],
                             ids=["lo0", "lo1", "near2_40", "top"])
    @pytest.mark.parametrize("n_uniforms", [1, 4, 5, 9, 12])
    def test_known_answer(self, lo, hi, n_uniforms):
        # n_uniforms 9 and 12 reach blocks 0-2; lo = 0 makes numpy's
        # starting counter wrap to 2**256 - 1 for block 0.
        got = uniforms_at(11, DOMAIN_FK, lo, hi, n_uniforms)
        assert got.shape == (hi - lo, n_uniforms)
        assert np.array_equal(got, _reference(11, DOMAIN_FK, lo, hi,
                                              n_uniforms))

    def test_known_answer_random_seeds_and_ranges(self):
        rng = np.random.default_rng(20261019)
        for _ in range(40):
            seed = int(rng.integers(0, 2**63)) * 2 + int(rng.integers(0, 2))
            base = int(rng.choice([0, 2**40 - 8, 2**62]))
            lo = base + int(rng.integers(0, 16))
            hi = lo + int(rng.integers(0, 24))
            n = int(rng.integers(1, 13))
            domain = DOMAIN_FK if rng.random() < 0.5 else DOMAIN_SPDE
            assert np.array_equal(uniforms_at(seed, domain, lo, hi, n),
                                  _reference(seed, domain, lo, hi, n))

    def test_prefix_property(self):
        short = uniforms_at(5, DOMAIN_FK, 0, 1000, 4)
        long = uniforms_at(5, DOMAIN_FK, 0, 1000, 9)
        assert np.array_equal(long[:, :4], short)

    @pytest.mark.parametrize("lo,hi", [(0, 1), (17, 56), (99, 100)])
    def test_sub_range_is_rows_of_full_range(self, lo, hi):
        full = uniforms_at(7, DOMAIN_FK, 0, 100, 8)
        assert np.array_equal(uniforms_at(7, DOMAIN_FK, lo, hi, 8),
                              full[lo:hi])

    def test_seed_and_domain_separation(self):
        base = uniforms_at(1, DOMAIN_FK, 0, 64, 8)
        for other in (uniforms_at(2, DOMAIN_FK, 0, 64, 8),
                      uniforms_at(1, DOMAIN_SPDE, 0, 64, 8)):
            # No uniform of one stream recurs anywhere in the other.
            assert not np.isin(other, base).any()


class TestPathStreams:
    def test_uniforms_in_open_interval(self):
        u = uniforms_at(42, DOMAIN_FK, 0, 10_000, 5)
        assert u.shape == (10_000, 5)
        assert np.all(u > 0.0) and np.all(u < 1.0)

    def test_random_access_is_stateless(self):
        full = uniforms_at(7, DOMAIN_FK, 0, 100, 8)
        for i in (3, 17, 56):
            assert np.array_equal(uniforms_at(7, DOMAIN_FK, i, i + 1, 8)[0],
                                  full[i])

    def test_streams_differ_across_paths_and_seeds(self):
        a = uniforms_at(1, DOMAIN_FK, 0, 1, 4)
        b = uniforms_at(1, DOMAIN_FK, 1, 2, 4)
        c = uniforms_at(2, DOMAIN_FK, 0, 1, 4)
        assert not np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_domains_are_independent(self):
        a = uniforms_at(1, DOMAIN_FK, 0, 1, 4)
        b = uniforms_at(1, DOMAIN_SPDE, 0, 1, 4)
        assert not np.array_equal(a, b)

    def test_path_generator_reproducible(self):
        g1 = path_generator(9, DOMAIN_SPDE, 5)
        g2 = path_generator(9, DOMAIN_SPDE, 5)
        assert np.array_equal(g1.standard_normal(16), g2.standard_normal(16))

    def test_path_key_shape(self):
        keys = path_key(0, DOMAIN_SPDE, np.arange(7))
        assert keys.shape == (7, 2)
        assert keys.dtype == np.uint64

    def test_uniform_moments(self):
        u = uniforms_at(3, DOMAIN_SPDE, 0, 50_000, 4).ravel()
        assert abs(u.mean() - 0.5) < 0.005
        assert abs(u.var() - 1.0 / 12.0) < 0.002


class TestSequentialStreams:
    """``path_generator``: SFC64 seeded through ``SeedSequence`` by the two
    words of the path's key."""

    @pytest.mark.parametrize("seed,domain,index", [
        (0, DOMAIN_SPDE, 0), (9, DOMAIN_SPDE, 5), (2**63 + 1, DOMAIN_FK_OCC, 7),
        (1011, DOMAIN_SPDE, 19_999)])
    def test_known_answer(self, seed, domain, index):
        key = path_key(seed, domain, index)
        want = np.random.Generator(np.random.SFC64(
            np.random.SeedSequence([int(w) for w in key])))
        got = path_generator(seed, domain, index)
        assert isinstance(got.bit_generator, np.random.SFC64)
        assert np.array_equal(got.standard_normal(64),
                              want.standard_normal(64))
        assert np.array_equal(got.bit_generator.random_raw(8),
                              want.bit_generator.random_raw(8))

    def test_distinct_seeds_domains_and_paths(self):
        keys = [(s, d, i) for s in (0, 1, 2**40) for d in BIT_GENERATORS
                for i in (0, 1, 2, 1000)]
        firsts = {path_generator(*k).bit_generator.random_raw(4).tobytes()
                  for k in keys}
        assert len(firsts) == len(keys)

    def test_first_normals_across_paths(self):
        # The first normal of each of 10^4 paths: its mean, its variance and
        # the correlation of paths i and i + 1, each within 5 sigma.
        n = 10_000
        z = np.array([path_generator(4, DOMAIN_SPDE, i).standard_normal()
                      for i in range(n)])
        assert abs(z.mean()) < 5.0 / np.sqrt(n)
        assert abs(z.var() - 1.0) < 5.0 * np.sqrt(2.0 / n)
        assert abs(np.mean(z[:-1] * z[1:])) < 5.0 / np.sqrt(n - 1)

    def test_uniform_half_is_the_top_bit_of_each_word(self):
        # The SPDE engine's sign, u >= 1/2, is bit 63 of the SFC64 word the
        # uniform is made from: exactly half of all words, so P(+) = 1/2.
        u = path_generator(1011, DOMAIN_SPDE, 3).random(4096)
        raw = path_generator(1011, DOMAIN_SPDE, 3).bit_generator \
            .random_raw(4096)
        assert np.array_equal(u >= 0.5, (raw >> np.uint64(63)) == 1)

    def test_bit_generator_names(self):
        assert BIT_GENERATORS == {DOMAIN_SPDE: "SFC64",
                                  DOMAIN_FK_OCC: "SFC64",
                                  DOMAIN_FK: "Philox4x64-10"}
