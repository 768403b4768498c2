import numpy as np
import pytest

from she_moments.rng import (DOMAIN_FK, DOMAIN_SPDE, path_generator, path_key,
                             philox4x64, uniforms_at)


class TestPhiloxBlock:
    @pytest.mark.parametrize("key", [(0, 0), (123, 456),
                                     (0xDEADBEEF, 0xFFFFFFFFFFFFFFFF)])
    def test_matches_numpy_keystream(self, key):
        bg = np.random.Philox(key=np.array(key, dtype=np.uint64))
        raw = bg.random_raw(12)
        for block in range(3):
            counter = np.array([[block + 1, 0, 0, 0]], dtype=np.uint64)
            key_arr = np.array([key], dtype=np.uint64)
            words = philox4x64(counter, key_arr)[0]
            assert np.array_equal(words, raw[4 * block:4 * block + 4])

    def test_random_keys_match_numpy_keystream(self):
        rng = np.random.default_rng(20261018)
        keys = rng.integers(0, 2**64, size=(256, 2), dtype=np.uint64)
        counters = np.zeros((4, 4), dtype=np.uint64)
        counters[:, 0] = np.arange(1, 5, dtype=np.uint64)
        for key in keys:
            raw = np.random.Philox(key=key).random_raw(16).reshape(4, 4)
            assert np.array_equal(philox4x64(counters, key[None, :]), raw)

    def test_counter_low_word_carry(self):
        # numpy's counter increments from (2**64 - 1, 0, 0, 0) to
        # (0, 1, 0, 0): the low word wraps and carries into the next word.
        key = np.array([0x0123456789ABCDEF, 0xFEDCBA9876543210],
                       dtype=np.uint64)
        bg = np.random.Philox(counter=np.array([2**64 - 2, 0, 0, 0],
                                               dtype=np.uint64), key=key)
        raw = bg.random_raw(8)
        counters = np.array([[2**64 - 1, 0, 0, 0], [0, 1, 0, 0]],
                            dtype=np.uint64)
        assert np.array_equal(philox4x64(counters, key).ravel(), raw)

    def test_broadcast_key(self):
        key = np.array([77, 88], dtype=np.uint64)
        counters = np.array([[k, 3 * k, 0, 2**63 + k] for k in range(6)],
                            dtype=np.uint64)
        batch = philox4x64(counters, key)
        assert batch.shape == (6, 4)
        tiled = philox4x64(counters, np.tile(key, (6, 1)))
        assert np.array_equal(batch, tiled)
        for i in range(6):
            assert np.array_equal(batch[i],
                                  philox4x64(counters[i], key))

    def test_vectorised_consistency(self):
        keys = np.array([[1, 2], [3, 4], [5, 6]], dtype=np.uint64)
        counters = np.tile(np.array([7, 0, 0, 0], dtype=np.uint64), (3, 1))
        batch = philox4x64(counters, keys)
        for i in range(3):
            single = philox4x64(counters[i:i + 1], keys[i:i + 1])[0]
            assert np.array_equal(batch[i], single)


class TestPathStreams:
    def test_uniforms_in_open_interval(self):
        u = uniforms_at(42, DOMAIN_FK, np.arange(10_000), 5)
        assert u.shape == (10_000, 5)
        assert np.all(u > 0.0) and np.all(u < 1.0)

    def test_random_access_is_stateless(self):
        full = uniforms_at(7, DOMAIN_FK, np.arange(100), 8)
        subset = uniforms_at(7, DOMAIN_FK, np.array([3, 17, 56]), 8)
        assert np.array_equal(subset, full[[3, 17, 56]])

    def test_streams_differ_across_paths_and_seeds(self):
        a = uniforms_at(1, DOMAIN_FK, np.array([0]), 4)
        b = uniforms_at(1, DOMAIN_FK, np.array([1]), 4)
        c = uniforms_at(2, DOMAIN_FK, np.array([0]), 4)
        assert not np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_domains_are_independent(self):
        a = uniforms_at(1, DOMAIN_FK, np.array([0]), 4)
        b = uniforms_at(1, DOMAIN_SPDE, np.array([0]), 4)
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
        u = uniforms_at(3, DOMAIN_SPDE, np.arange(50_000), 4).ravel()
        assert abs(u.mean() - 0.5) < 0.005
        assert abs(u.var() - 1.0 / 12.0) < 0.002
