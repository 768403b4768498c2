"""Bit-identity pins for the explicit SPDE stencil.

The digests below were computed from the two-copy stencil that preceded the
shared in-place step function.  Monte Carlo value fields are part of the
reproducibility contract, so any rewrite of the step has to reproduce them
bit for bit.  If one of these fails, the stepping arithmetic changed: either
restore the old order of operations or bump the library version and record
the change.
"""

import hashlib

import numpy as np
import pytest

from she_moments.measures import LebesgueScaled, gaussian_density
from she_moments.simulate import (RhoSpec, SpdeGrid, _initial_field,
                                  _run_spde_batch, spde_solve_path)

RHOS = {
    "linear": RhoSpec.linear(1.0),
    "clipped": RhoSpec.clipped(1.5, 0.8),
    "zero": RhoSpec.zero(),
}


def _sha1(a: np.ndarray) -> str:
    return hashlib.sha1(np.ascontiguousarray(a, dtype=np.float64)
                        .tobytes()).hexdigest()


def _batch_grid(boundary: str) -> SpdeGrid:
    # 41 nodes -> noise chunks of 65536 // 41 = 1598 steps; 1700 steps is one
    # full chunk plus a partial one.
    return SpdeGrid(L=1.0, dx=0.05, dt=1e-3, t_final=1.7, boundary=boundary)


BATCH_DIGESTS = {
    ("neumann0", "linear"): "2ea545bc7a9b9bfa562de0026f09daebf37a6061",
    ("neumann0", "clipped"): "45587a8d7dfc0ae91891db1c05e055a2083a940e",
    ("neumann0", "zero"): "ebb458cd201cd791ffdb57de7ab75ae37935364f",
    ("dirichlet0", "linear"): "e71352fa762ab036446d5a3a421129bb93b6d300",
    ("dirichlet0", "clipped"): "df32e8b1924cce633738b368b12981c7937994e4",
    ("dirichlet0", "zero"): "c664b170bb1d9131dbd38481c28e7dc0442858d7",
}


@pytest.mark.parametrize("boundary,rho", sorted(BATCH_DIGESTS))
def test_run_spde_batch_fields_are_pinned(boundary, rho):
    grid = _batch_grid(boundary)
    assert grid.n_time_steps % (65536 // grid.n_nodes) != 0
    u0 = _initial_field(grid, gaussian_density(0.1, 0.2, 2.0))
    fields = _run_spde_batch(grid, u0, RHOS[rho], 1.0, seed=17, lo=3, hi=7)
    assert fields.shape == (4, grid.n_nodes)
    assert _sha1(fields) == BATCH_DIGESTS[(boundary, rho)]


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
