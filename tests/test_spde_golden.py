"""Bit-identity pins for the explicit SPDE stencil.

Monte Carlo value fields are part of the reproducibility contract, so any
rewrite of the step has to reproduce these digests bit for bit.  If one of
them fails, the stepping arithmetic or the noise draw changed: either
restore the old order of operations or bump the library version and record
the change.  All were last re-pinned for version 0.6.0, whose noise is one
bit of the path's SFC64 stream per node and step (ceil(nodes / 64) raw
words a step), and whose every step, the exact lattice recursion's
included, is the one multiply-add ``u <- u*m + r*(u_left + u_right)``.
The heat and lattice pins moved only by rounding.
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
    # 41 nodes, one word a step: a 4-path batch draws its noise in chunks of
    # _NOISE_BUFFER_BYTES // (8 * 4 * 1) = 32,768 steps, so the 1,700 steps
    # are one partial chunk.  test_noise_chunking_leaves_fields_unchanged
    # crosses chunk boundaries.
    return SpdeGrid(L=1.0, dx=0.05, dt=1e-3, t_final=1.7, boundary=boundary)


def _words_per_step(grid: SpdeGrid) -> int:
    return -(-grid.n_nodes // 64)


def _chunk_steps(grid: SpdeGrid, n_paths: int) -> int:
    return simulate._NOISE_BUFFER_BYTES // (8 * n_paths
                                            * _words_per_step(grid))


def _batch_fields(boundary: str, rho: str) -> np.ndarray:
    grid = _batch_grid(boundary)
    u0 = _initial_field(grid, gaussian_density(0.1, 0.2, 2.0))
    return _run_spde_batch(grid, u0, RHOS[rho], 1.0, seed=17, lo=3, hi=7)


BATCH_DIGESTS = {
    ("neumann0", "linear"): "a4158fa1e27e4d2df593b737baeeace87efd9fab",
    ("neumann0", "clipped"): "a07c7418f4532fa2bcfd40e935eabb718c7ddd44",
    ("neumann0", "zero"): "9144dbde724206c23b8d7f81efd15ed1c3af8915",
    ("dirichlet0", "linear"): "6345ce411fbfc43a645d193496c7b5c702973fe5",
    ("dirichlet0", "clipped"): "624e7a726bea2f7011b469792ff8a6a08ff1e967",
    ("dirichlet0", "zero"): "4bb5077ac4fe35f4d413d0f22e707ebfc02ebf85",
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
    # One stream drawn in chunks gives the same words as one long draw:
    # 7-step chunks (243 of them, the last one partial) reproduce the
    # single-chunk fields bit for bit.
    default = _batch_fields(boundary, rho)
    grid = _batch_grid(boundary)
    monkeypatch.setattr(simulate, "_NOISE_BUFFER_BYTES",
                        7 * 8 * 4 * _words_per_step(grid))
    assert _chunk_steps(grid, 4) == 7
    assert grid.n_time_steps % 7 != 0
    assert np.array_equal(_batch_fields(boundary, rho), default)


def test_benchmark_batch_spans_chunks_unchanged(monkeypatch):
    # The criterion-11 grid (331 nodes, 6 words a step) and batch (250
    # paths, linear rho), cut to 200 steps: chunks of 87, 87 and 26 steps
    # give the same fields bit for bit as one 200-step chunk.
    grid = SpdeGrid(L=3.3, dx=0.02, dt=2e-4, t_final=0.04)
    u0 = _initial_field(grid, LebesgueScaled(1.0))

    def fields():
        return _run_spde_batch(grid, u0, RHOS["linear"], 1.0, seed=1011,
                               lo=0, hi=250)
    assert (grid.n_nodes, grid.n_time_steps) == (331, 200)
    assert _chunk_steps(grid, 250) == 87
    chunked = fields()
    monkeypatch.setattr(simulate, "_NOISE_BUFFER_BYTES",
                        200 * 8 * 250 * _words_per_step(grid))
    assert _chunk_steps(grid, 250) == 200
    assert np.array_equal(fields(), chunked)


SOLVE_DIGESTS = {
    ("neumann0", "linear", "gaussian"):
        "cbe943c63a284abe885d7e7e3c24c50c2bfde6fd",
    ("neumann0", "clipped", "lebesgue"):
        "312628406151f9579b6ff01c1bc1bd606774c0ec",
    ("dirichlet0", "linear", "lebesgue"):
        "b3c6f9e6f7ce2b3de1817cec1ce6814f4394ebbd",
    ("dirichlet0", "clipped", "gaussian"):
        "5b29a0e750fda5affc8c7138b9c65e755513f3c7",
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
# not C-contiguous.
LATTICE_DIGESTS = {
    "neumann0": "fb829354b46ae8afe2ac3929086ce1885f15ec88",
    "dirichlet0": "f7bb416242c2c98b0edbe52b65ce0034f8c71f6e",
}


@pytest.mark.parametrize("boundary", sorted(LATTICE_DIGESTS))
def test_lattice_second_moment_is_pinned(boundary):
    grid = SpdeGrid(L=1.0, dx=0.05, dt=1e-3, t_final=0.2, boundary=boundary)
    m = spde_lattice_second_moment(grid, gaussian_density(0.1, 0.2, 2.0),
                                   1.3, 1.0)
    assert m.shape == (grid.n_nodes, grid.n_nodes)
    assert _sha1(m) == LATTICE_DIGESTS[boundary]
