"""Keyed random streams for reproducible parallel Monte Carlo.

Two needs, two tools, one keying rule: :func:`path_key` whitens
``(seed, domain, path_index)`` into two uint64 words by splitmix64, and
each engine's domain tag is used with one of the two tools only
(:data:`BIT_GENERATORS` names which):

* :func:`path_generator` serves engines that draw large per-path blocks in
  order.  It seeds numpy's SFC64 from the path's two key words through
  ``np.random.SeedSequence`` and draws sequentially; SFC64 has no counter
  to address, and generates words faster than Philox.  It serves raw
  64-bit words to the SPDE solver, one bit per node and step (its
  two-point noise; ceil(nodes / 64) words a step through
  ``bit_generator.random_raw``), and normals to the occupation-time
  engine.  The stream depends only on the key, never on batching or
  worker assignment.

* :func:`uniforms_at` serves cheap consumers (the Feynman-Kac sampler) that
  address "uniform block j of path i" as pure random access, which needs
  a counter-based generator: numpy's Philox4x64-10 (Salmon et al., SC'11).
  The whole domain shares one key, ``path_key(seed, domain, 0)``, and
  block ``j`` of path ``i`` is the Philox block at counter ``(i, j, 0, 0)``.
  The paths of a range are then consecutive counters for each block, so
  one call of numpy's compiled Philox per block fills a whole batch.

Either way, path ``i``'s draws are a pure function of ``(seed, domain, i)``:
results are reproducible across any worker count or batch split.
"""

from __future__ import annotations

import numpy as np

_SH11 = np.uint64(11)
_INV53 = float(2.0 ** -53)

# Domain tags keep independent consumers off each other's streams.
DOMAIN_SPDE = 0x53504445        # "SPDE"
DOMAIN_FK = 0x464B5341          # "FKSA"
DOMAIN_FK_OCC = 0x464B4F43      # "FKOC"

# The bit generator behind each domain's draws, as a run manifest names it.
BIT_GENERATORS = {
    DOMAIN_SPDE: "SFC64",
    DOMAIN_FK_OCC: "SFC64",
    DOMAIN_FK: "Philox4x64-10",
}


def _mix64(x) -> np.ndarray:
    """splitmix64 finaliser; whitens structured seeds into key words."""
    with np.errstate(over="ignore"):
        z = np.asarray(x, dtype=np.uint64) + np.uint64(0x9E3779B97F4A7C15)
        z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
        return z ^ (z >> np.uint64(31))


def path_key(seed: int, domain: int, index) -> np.ndarray:
    """2-word uint64 key for one path (or an array of paths)."""
    idx = np.asarray(index, dtype=np.uint64)
    with np.errstate(over="ignore"):
        seed_w = _mix64(np.uint64(seed & 0xFFFFFFFFFFFFFFFF))
        dom_w = _mix64(seed_w ^ np.uint64(domain))
        k0 = _mix64(dom_w + idx)
        k1 = _mix64(k0 ^ np.uint64(0xD6E8FEB86659FD93))
    return np.stack(np.broadcast_arrays(k0, k1), axis=-1)


def path_generator(seed: int, domain: int, index: int) -> np.random.Generator:
    """numpy Generator on the path's own SFC64 stream (sequential use),
    seeded by ``SeedSequence`` over the two words of its :func:`path_key`."""
    key = path_key(seed, domain, int(index))
    seq = np.random.SeedSequence([int(word) for word in key])
    return np.random.Generator(np.random.SFC64(seq))


def uniforms_at(seed: int, domain: int, lo: int, hi: int,
                n_uniforms: int) -> np.ndarray:
    """The first ``n_uniforms`` uniforms of paths ``lo, ..., hi - 1``.

    Returns floats in the open interval (0, 1) of shape
    ``(hi - lo, n_uniforms)`` (53-bit grid centred away from the endpoints,
    so inverse-CDF maps never see 0 or 1).  Uniform ``j`` of path ``i`` is
    a fixed function of ``(seed, domain, i, j)``: random access, no state,
    and the same whatever ``n_uniforms`` or range is asked for.

    The domain's key is ``path_key(seed, domain, 0)``.  Block ``j`` of path
    ``i`` is the Philox block at counter ``(i, j, 0, 0)``; numpy's Philox
    steps the counter before each block, so a generator set one counter
    before ``(lo, j, 0, 0)`` yields block ``j`` of every path in the range.
    """
    n = hi - lo
    n_blocks = (n_uniforms + 3) // 4
    key = path_key(seed, domain, 0)
    out = np.empty((n, n_blocks, 4), dtype=float)
    for j in range(n_blocks):
        start = ((j << 64) + int(lo) - 1) % (1 << 256)
        words = np.random.Philox(key=key, counter=start).random_raw(4 * n)
        np.right_shift(words, _SH11, out=words)
        np.add(words.reshape(n, 4), 0.5, out=out[:, j])
    np.multiply(out, _INV53, out=out)
    return out.reshape(n, 4 * n_blocks)[:, :n_uniforms]
