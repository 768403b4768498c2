"""Bit-identity pins for the explicit SPDE stencil.

The digests below were computed from the two-copy stencil that preceded the
shared in-place step function.  Monte Carlo value fields are part of the
reproducibility contract, so any rewrite of the step has to reproduce them
bit for bit.  If one of these fails, the stepping arithmetic changed: either
restore the old order of operations or bump the library version and record
the change.  The noise-bearing batch pins were last re-pinned for version
0.5.0, whose noise is two-point: ±sqrt(dt/dx), one SFC64 uniform's sign
per node and step.
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
    ("neumann0", "linear"): "35b04220bb4c0af09e75913260e0d938347e53a5",
    ("neumann0", "clipped"): "e062a1949e4737d4d04e0bb3b0bf01b6d6c33029",
    ("neumann0", "zero"): "ebb458cd201cd791ffdb57de7ab75ae37935364f",
    ("dirichlet0", "linear"): "045edcaaf6de92c270a7474f40a1e464df28c321",
    ("dirichlet0", "clipped"): "41a4ab729213b708f689b39e3bcaf5c28e031916",
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
        "56191413b80fb8a6979868111a5def4dd8138f28",
    ("neumann0", "clipped", "lebesgue"):
        "ea93ec393ca1c252d580ccda4f84ddc62d63c9b1",
    ("dirichlet0", "linear", "lebesgue"):
        "b690323fcd11cfc815f43b32c96137fcb61e8320",
    ("dirichlet0", "clipped", "gaussian"):
        "10e30e56d38f270bc57cce26096e74ca0e37826b",
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
