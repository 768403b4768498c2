"""Counter-based random streams for reproducible parallel Monte Carlo.

Two needs, two tools, one keying discipline:

* :func:`path_key` derives a per-path 2-word Philox key from
  ``(seed, domain, path_index)``.  Engines that consume large per-path
  blocks (the SPDE solver) wrap it in numpy's native Philox bit generator
  via :func:`path_generator` and draw sequentially -- fast, and the stream
  depends only on the key, never on batching or worker assignment.

* :func:`uniforms_at` evaluates Philox4x64-10 directly so cheap consumers
  (the Feynman-Kac sampler) can address "uniform block j of path i" as pure
  random access.  It runs one in-place pass over all (path, block) lanes of
  a request, and its output is word-for-word numpy's Philox keystream,
  which the test suite checks.

Either way, path ``i``'s draws are a pure function of ``(seed, i)``:
results are reproducible across any worker count or batch split.
"""

from __future__ import annotations

import numpy as np

_MASK32 = np.uint64(0xFFFFFFFF)
_SH32 = np.uint64(32)
_SH11 = np.uint64(11)
_INV53 = float(2.0 ** -53)

# Philox4x64-10: the multipliers as (m, m_hi, m_lo), split into 32-bit
# halves once, and the Weyl key increments.
_ROUNDS = 10
_M0 = np.uint64(0xD2E7470EE14C6C93)
_M1 = np.uint64(0xCA5A826395121157)
_M0_SPLIT = (_M0, _M0 >> _SH32, _M0 & _MASK32)
_M1_SPLIT = (_M1, _M1 >> _SH32, _M1 & _MASK32)
_W0 = np.uint64(0x9E3779B97F4A7C15)
_W1 = np.uint64(0xBB67AE8584CAA73B)

# Domain tags keep independent consumers off each other's streams.
DOMAIN_SPDE = 0x53504445        # "SPDE"
DOMAIN_FK = 0x464B5341          # "FKSA"
DOMAIN_FK_OCC = 0x464B4F43      # "FKOC"


def _mix64(x) -> np.ndarray:
    """splitmix64 finaliser; whitens structured seeds into key words."""
    with np.errstate(over="ignore"):
        z = np.asarray(x, dtype=np.uint64) + np.uint64(0x9E3779B97F4A7C15)
        z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
        return z ^ (z >> np.uint64(31))


def path_key(seed: int, domain: int, index) -> np.ndarray:
    """2-word uint64 Philox key for one path (or an array of paths)."""
    idx = np.asarray(index, dtype=np.uint64)
    with np.errstate(over="ignore"):
        seed_w = _mix64(np.uint64(seed & 0xFFFFFFFFFFFFFFFF))
        dom_w = _mix64(seed_w ^ np.uint64(domain))
        k0 = _mix64(dom_w + idx)
        k1 = _mix64(k0 ^ np.uint64(0xD6E8FEB86659FD93))
    return np.stack(np.broadcast_arrays(k0, k1), axis=-1)


def path_generator(seed: int, domain: int, index: int) -> np.random.Generator:
    """numpy Generator on the path's own Philox stream (sequential use)."""
    key = path_key(seed, domain, int(index))
    return np.random.Generator(np.random.Philox(key=key))


def _mulhilo(m_split: tuple, b: np.ndarray, hi: np.ndarray, lo: np.ndarray,
             s: np.ndarray, t: np.ndarray) -> None:
    """``hi, lo = divmod(m * b, 2**64)``, written into ``hi`` and ``lo``.

    ``m_split`` is ``(m, m_hi, m_lo)``; ``s`` and ``t`` are scratch rows.
    32-bit schoolbook product: the middle sum
    ``x = b_lo m_hi + (b_lo m_lo >> 32) + (b_hi m_lo mod 2**32)`` is at most
    ``2**64 - 1``, so no carry test is needed.
    """
    m, m_hi, m_lo = m_split
    np.bitwise_and(b, _MASK32, out=s)          # b_lo
    np.right_shift(b, _SH32, out=t)            # b_hi
    np.multiply(s, m_lo, out=hi)
    np.right_shift(hi, _SH32, out=hi)          # b_lo m_lo >> 32
    np.multiply(s, m_hi, out=s)
    np.add(s, hi, out=s)
    np.multiply(t, m_lo, out=lo)               # b_hi m_lo
    np.bitwise_and(lo, _MASK32, out=hi)
    np.add(s, hi, out=s)                       # x
    np.right_shift(s, _SH32, out=s)
    np.right_shift(lo, _SH32, out=lo)
    np.multiply(t, m_hi, out=hi)
    np.add(hi, lo, out=hi)
    np.add(hi, s, out=hi)
    np.multiply(b, m, out=lo)


def _philox_lanes(ctr: np.ndarray, key: np.ndarray) -> tuple[np.ndarray, ...]:
    """Philox4x64-10 over independent lanes, in place.

    ``ctr`` is a (4, lanes) uint64 array of counter words and ``key`` a
    (2, lanes) uint64 array of key words; both are overwritten.  Returns the
    four keystream words as (lanes,) rows, views into ``ctr`` and the round
    buffers.
    """
    c0, c1, c2, c3 = ctr
    k0, k1 = key
    hi0, lo0, hi1, lo1, s, t = (np.empty_like(c0) for _ in range(6))
    for r in range(_ROUNDS):
        _mulhilo(_M0_SPLIT, c0, hi0, lo0, s, t)
        _mulhilo(_M1_SPLIT, c2, hi1, lo1, s, t)
        np.bitwise_xor(hi1, c1, out=c0)
        np.bitwise_xor(c0, k0, out=c0)
        np.bitwise_xor(hi0, c3, out=c2)
        np.bitwise_xor(c2, k1, out=c2)
        c1, lo1 = lo1, c1
        c3, lo0 = lo0, c3
        if r < _ROUNDS - 1:
            np.add(k0, _W0, out=k0)
            np.add(k1, _W1, out=k1)
    return c0, c1, c2, c3


def philox4x64(counter: np.ndarray, key: np.ndarray) -> np.ndarray:
    """Philox4x64-10 block function.

    ``counter``: uint64 array (..., 4); ``key``: uint64 array (..., 2); the
    leading shapes broadcast.  Returns the (..., 4) keystream block.  Matches
    numpy's Philox: numpy's n-th raw block equals
    ``philox4x64([n + 1, 0, 0, 0], key)`` (numpy increments the counter
    before generating).
    """
    counter = np.asarray(counter, dtype=np.uint64)
    key = np.asarray(key, dtype=np.uint64)
    shape = np.broadcast_shapes(counter.shape[:-1], key.shape[:-1])
    ctr = np.broadcast_to(counter, shape + (4,)).reshape(-1, 4).T.copy()
    k = np.broadcast_to(key, shape + (2,)).reshape(-1, 2).T.copy()
    return np.stack(_philox_lanes(ctr, k), axis=-1).reshape(shape + (4,))


def uniforms_at(seed: int, domain: int, path_index: np.ndarray,
                n_uniforms: int) -> np.ndarray:
    """The first ``n_uniforms`` uniforms of each path's substream.

    ``path_index`` is an integer array of shape (n,); returns floats in the
    open interval (0, 1) of shape (n, n_uniforms) (53-bit grid centred away
    from the endpoints, so inverse-CDF maps never see 0 or 1).  Uniform
    ``j`` of path ``i`` is a fixed function of ``(seed, domain, i, j)``:
    random access, no state.

    Block ``j`` of path ``i`` is one lane of a single Philox pass, lane
    ``i * n_blocks + j`` with counter ``(j, 0, 0, 0)``, so the lanes' words
    land in the output in row-major order.
    """
    path_index = np.atleast_1d(np.asarray(path_index, dtype=np.uint64))
    n = path_index.shape[0]
    n_blocks = (n_uniforms + 3) // 4
    lanes = n * n_blocks
    key = np.repeat(path_key(seed, domain, path_index), n_blocks, axis=0)
    ctr = np.zeros((4, lanes), dtype=np.uint64)
    ctr[0] = np.tile(np.arange(n_blocks, dtype=np.uint64), n)
    words = _philox_lanes(ctr, key.T.copy())
    out = np.empty((n, 4 * n_blocks), dtype=float)
    by_lane = out.reshape(lanes, 4)
    for w, word in enumerate(words):
        np.right_shift(word, _SH11, out=word)
        np.add(word, 0.5, out=by_lane[:, w])
    np.multiply(out, _INV53, out=out)
    return out[:, :n_uniforms]
