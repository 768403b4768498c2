"""Bit-identity pins for the explicit SPDE stencil.

The digests below were computed from the two-copy stencil that preceded the
shared in-place step function.  Monte Carlo value fields are part of the
reproducibility contract, so any rewrite of the step has to reproduce them
bit for bit.  If one of these fails, the stepping arithmetic changed: either
restore the old order of operations or bump the library version and record
the change.  The noise-bearing batch pins were last re-pinned for version
0.4.0, whose per-path streams are SFC64.
"""

import hashlib

import numpy as np
import pytest

from she_moments import simulate
from she_moments.measures import LebesgueScaled, gaussian_density
from she_moments.simulate import (RhoSpec, SpdeGrid, _initial_field,
                                  _run_spde_batch, spde_lattice_second_moment,
                                  spde_solve_path)

RHOS = {
    "linear": RhoSpec.linear(1.0),
    "clipped": RhoSpec.clipped(1.5, 0.8),
    "zero": RhoSpec.zero(),
}


def _sha1(a: np.ndarray) -> str:
    return hashlib.sha1(np.ascontiguousarray(a, dtype=np.float64)
                        .tobytes()).hexdigest()


def _batch_grid(boundary: str) -> SpdeGrid:
    # 41 nodes: a 4-path batch draws its noise in chunks of
    # _NOISE_BUFFER_BYTES // (8 * 4 * 41) = 12,787 steps, so the 1,700 steps
    # are one partial chunk.  test_noise_chunking_leaves_fields_unchanged
    # crosses chunk boundaries.
    return SpdeGrid(L=1.0, dx=0.05, dt=1e-3, t_final=1.7, boundary=boundary)


def _chunk_steps(grid: SpdeGrid, n_paths: int) -> int:
    return simulate._NOISE_BUFFER_BYTES // (8 * n_paths * grid.n_nodes)


def _batch_fields(boundary: str, rho: str) -> np.ndarray:
    grid = _batch_grid(boundary)
    u0 = _initial_field(grid, gaussian_density(0.1, 0.2, 2.0))
    return _run_spde_batch(grid, u0, RHOS[rho], 1.0, seed=17, lo=3, hi=7)


BATCH_DIGESTS = {
    ("neumann0", "linear"): "6bc8747848188c9b645ad2dbbff18efa2246504c",
    ("neumann0", "clipped"): "f04cfd8c9d98431a75862e96fab982162c1bb7a8",
    ("neumann0", "zero"): "ebb458cd201cd791ffdb57de7ab75ae37935364f",
    ("dirichlet0", "linear"): "363cfb1b59af2cd12731c91a93a848a3a7431752",
    ("dirichlet0", "clipped"): "6becb099ac98eb2dcb7c695f059094a66d45a295",
    ("dirichlet0", "zero"): "c664b170bb1d9131dbd38481c28e7dc0442858d7",
}


@pytest.mark.parametrize("boundary,rho", sorted(BATCH_DIGESTS))
def test_run_spde_batch_fields_are_pinned(boundary, rho):
    grid = _batch_grid(boundary)
    assert grid.n_time_steps % _chunk_steps(grid, 4) != 0
    fields = _batch_fields(boundary, rho)
    assert fields.shape == (4, grid.n_nodes)
    assert _sha1(fields) == BATCH_DIGESTS[(boundary, rho)]


@pytest.mark.parametrize("boundary", ["neumann0", "dirichlet0"])
@pytest.mark.parametrize("rho", ["linear", "clipped"])
def test_noise_chunking_leaves_fields_unchanged(monkeypatch, boundary, rho):
    # One stream drawn in chunks gives the same normals as one long draw:
    # 7-step chunks (243 of them, the last one partial) reproduce the
    # single-chunk fields bit for bit.
    default = _batch_fields(boundary, rho)
    grid = _batch_grid(boundary)
    monkeypatch.setattr(simulate, "_NOISE_BUFFER_BYTES",
                        7 * 8 * 4 * grid.n_nodes)
    assert _chunk_steps(grid, 4) == 7
    assert grid.n_time_steps % 7 != 0
    assert np.array_equal(_batch_fields(boundary, rho), default)


SOLVE_DIGESTS = {
    ("neumann0", "linear", "gaussian"):
        "3a2b56bd815f9f29abde6fce459d8012022ea2c0",
    ("neumann0", "clipped", "lebesgue"):
        "83e4d7b4bb0592519a1884f530b9b9075908b3ce",
    ("dirichlet0", "linear", "lebesgue"):
        "c2519097654559ee9500e4c4cfb0d9f3af4f55b7",
    ("dirichlet0", "clipped", "gaussian"):
        "8e251106a0744b03211bb44f072a9e520cfbcb6f",
}

MEASURES = {"gaussian": gaussian_density(-0.2, 0.1),
            "lebesgue": LebesgueScaled(1.5)}


@pytest.mark.parametrize("boundary,rho,measure", sorted(SOLVE_DIGESTS))
def test_spde_solve_path_field_is_pinned(boundary, rho, measure):
    grid = SpdeGrid(L=1.0, dx=0.05, dt=1e-3, t_final=0.05, boundary=boundary)
    field = spde_solve_path(grid, MEASURES[measure], RHOS[rho], 1.0,
                            np.random.default_rng(5))
    assert _sha1(field) == SOLVE_DIGESTS[(boundary, rho, measure)]


# The exact second-moment recursion steps the rows of M and then its
# columns, a transposed view: the one caller of the step whose fields are
# not C-contiguous.  Pinned before the step went over flattened rows.
LATTICE_DIGESTS = {
    "neumann0": "93650dca22dab8ad68634e303ea452558ce3c234",
    "dirichlet0": "d6c511fe7565ca414dfa99d413eb3147c585725e",
}


@pytest.mark.parametrize("boundary", sorted(LATTICE_DIGESTS))
def test_lattice_second_moment_is_pinned(boundary):
    grid = SpdeGrid(L=1.0, dx=0.05, dt=1e-3, t_final=0.2, boundary=boundary)
    m = spde_lattice_second_moment(grid, gaussian_density(0.1, 0.2, 2.0),
                                   1.3, 1.0)
    assert m.shape == (grid.n_nodes, grid.n_nodes)
    assert _sha1(m) == LATTICE_DIGESTS[boundary]
