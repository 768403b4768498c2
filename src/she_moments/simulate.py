"""Stochastic verifiers: direct SPDE Monte Carlo and Feynman-Kac sampling.

Two independent estimators of the same two-point moments:

* ``spde_estimate_two_point`` integrates the equation itself with an
  explicit Euler scheme on a finite grid (biased by discretisation,
  oblivious to the closed forms being checked).  Its noise is two-point:
  each node and step draws ``+-sqrt(dt / dx)`` with probability 1/2 each,
  one bit of the path's stream (the simplified weak Euler scheme; Kloeden
  & Platen 1992, section 14.1).  Each step is one multiply-add per node,
  ``u <- u*m + r*(u_left + u_right)``, with the noise of linear ``rho``
  folded into the node weight ``m``; the exact lattice second moment
  runs the same step.  The scheme's second moment under linear ``rho``
  uses only E xi = 0 and E xi^2 = 1 of its noise, so it is the one
  Gaussian noise would give;

* ``fk_two_point`` averages the path functional

      u0(x1 + (W1 + W2)/2) * u0(x2 + (W2 - W1)/2)
          * exp((lam^2 / 2 nu) * L),

  where ``W1, W2`` are independent N(0, 2 nu t) endpoints and ``(W1, L)``
  is drawn *exactly* from the joint law of a Brownian endpoint and its
  local time at level ``x2 - x1`` (time ``2 nu t``).  No path
  discretisation: the only error is statistical.

``fk_two_point_occupation`` is a third, deliberately cruder route that
discretises the Brownian pair and mollifies the interaction clock with a
narrow Gaussian; it converges to the same numbers as the mollification
width and time step shrink.

Reproducibility contract: every path's randomness is a pure function of
``(seed, path index)`` (see :mod:`she_moments.rng`), and per-path results
are reduced in path order with a fixed pairwise-summation tree.  Identical
(seed, n_paths) therefore give bit-identical estimates for any worker
count.
"""

from __future__ import annotations

import math
import mmap
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy import special

from .errors import ConfigError, DivergenceError, DomainError
from .kernels import TwoPointQuery
from .local_time import JointLocalTimeLaw
from .measures import (DensityMeasure, DiracAtoms, InitialMeasure,
                       LebesgueScaled)
from .rng import (DOMAIN_FK, DOMAIN_FK_OCC, DOMAIN_SPDE, path_generator,
                  uniforms_at)

__all__ = [
    "Estimate", "SpdeGrid", "McConfig", "RhoSpec",
    "spde_solve_path", "spde_estimate_two_point",
    "spde_lattice_second_moment", "fk_two_point",
    "fk_two_point_occupation",
]

MAX_DIVERGENT_FRACTION = 1e-3

_trapezoid = getattr(np, "trapezoid", None) or np.trapz


@dataclass(frozen=True)
class Estimate:
    """Monte Carlo result: sample mean, standard error, and path counts."""

    value: float
    std_error: float
    n: int
    n_divergent: int = 0


@dataclass(frozen=True)
class McConfig:
    """Path count, seed, and work partitioning.

    ``batch_size`` only controls memory/scheduling granularity; results are
    independent of it and of ``workers``.
    """

    n_paths: int
    seed: int = 0
    batch_size: int = 256
    workers: int = 1

    def __post_init__(self):
        if self.n_paths < 1:
            raise ConfigError(f"n_paths must be >= 1, got {self.n_paths}")
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.workers < 1:
            raise ConfigError(f"workers must be >= 1, got {self.workers}")


@dataclass(frozen=True)
class SpdeGrid:
    """Uniform space-time grid on ``[-L, L] x [0, t_final]``.

    ``L`` is rounded up to the nearest multiple of ``dx``.  Stability of the
    explicit stencil requires ``dt <= dx^2 / nu``, checked against the
    diffusion coefficient at solve time.
    """

    L: float
    dx: float
    dt: float
    t_final: float
    boundary: str = "neumann0"

    def __post_init__(self):
        if self.L <= 0 or self.dx <= 0 or self.dt <= 0 or self.t_final <= 0:
            raise ConfigError("SpdeGrid requires positive L, dx, dt, t_final")
        if self.boundary not in ("dirichlet0", "neumann0"):
            raise ConfigError(f"unknown boundary {self.boundary!r}")

    @property
    def n_cells(self) -> int:
        return max(2, int(math.ceil(2.0 * self.L / self.dx - 1e-9)))

    @property
    def half_width(self) -> float:
        return 0.5 * self.n_cells * self.dx

    @property
    def n_nodes(self) -> int:
        return self.n_cells + 1

    @property
    def nodes(self) -> np.ndarray:
        return -self.half_width + self.dx * np.arange(self.n_nodes)

    @property
    def n_time_steps(self) -> int:
        return max(1, int(round(self.t_final / self.dt)))

    def index_of(self, x: float) -> int:
        idx = int(round((x + self.half_width) / self.dx))
        if not (0 <= idx < self.n_nodes):
            raise ConfigError(f"point x={x} lies outside the grid")
        return idx

    def check_cfl(self, nu: float) -> None:
        if not (nu > 0):
            raise DomainError(f"the SPDE scheme requires nu > 0, got {nu}")
        if self.dt > self.dx ** 2 / nu * (1.0 + 1e-12):
            raise ConfigError(
                f"CFL violation: dt={self.dt} exceeds dx^2/nu="
                f"{self.dx ** 2 / nu:.6g}")


class RhoSpec:
    """Named noise-coupling presets (picklable, vectorised).

    ``linear(lam)``:    rho(u) = lam * u
    ``clipped(lam, c)``: rho(u) = lam * clip(u, -c, c)   (Lipschitz lam)
    ``zero()``:          rho == 0, the linear preset at lam = 0
    """

    def __init__(self, kind: str, lam: float = 0.0, clip: float = 0.0):
        if kind not in ("linear", "clipped", "zero"):
            raise ConfigError(f"unknown rho preset {kind!r}")
        if kind == "clipped" and clip <= 0:
            raise ConfigError("clipped rho requires clip > 0")
        self.kind = kind
        self.lam = 0.0 if kind == "zero" else float(lam)
        self.clip = float(clip)

    @classmethod
    def linear(cls, lam: float) -> "RhoSpec":
        return cls("linear", lam=lam)

    @classmethod
    def clipped(cls, lam: float, clip: float) -> "RhoSpec":
        return cls("clipped", lam=lam, clip=clip)

    @classmethod
    def zero(cls) -> "RhoSpec":
        return cls("zero")

    @property
    def lip_upper(self) -> float:
        return abs(self.lam)

    @property
    def is_zero(self) -> bool:
        return self.lam == 0.0

    def __call__(self, u: np.ndarray, out: np.ndarray | None = None
                 ) -> np.ndarray:
        if self.kind == "clipped":
            clipped = np.clip(u, -self.clip, self.clip, out=out)
            return np.multiply(clipped, self.lam, out=clipped)
        return np.multiply(u, self.lam, out=out)


# ---------------------------------------------------------------------------
# SPDE engine
# ---------------------------------------------------------------------------

def _initial_field(grid: SpdeGrid, mu: InitialMeasure) -> np.ndarray:
    u = np.zeros(grid.n_nodes)
    for term in mu.primitive_terms():
        if isinstance(term, DiracAtoms):
            for loc, mass in term.atoms:
                u[grid.index_of(loc)] += mass / grid.dx
        else:
            u += np.asarray(term.f(grid.nodes), dtype=float)
    if grid.boundary == "dirichlet0":
        u[0] = u[-1] = 0.0
    return u


def _spde_step(u: np.ndarray, m, r: float, dirichlet: bool,
               work: np.ndarray) -> None:
    """One explicit Euler step of the fields ``u`` (rows), in place:
    ``u <- u*m + r*(u_left + u_right)``.

    ``m`` is the node's own weight: ``1 - 2r`` for the heat step, or per
    node ``1 - 2r +- lam*sqrt(dt / dx)`` under linear ``rho``.  A Neumann
    end's two neighbours are its inner neighbour twice (ghost nodes
    ``2 u_1`` and ``2 u_{n-2}``); Dirichlet ends are set to 0.  ``work`` is
    a C-contiguous buffer shaped like ``u``.  The order of operations is
    part of the reproducibility contract.

    The neighbour sums run over the rows laid end to end, one long
    contiguous pass instead of one short one per row; the entries that
    straddle two rows are the end entries, set just after.  A ``u`` that is
    not C-contiguous (a transposed view) is read through a copy.
    """
    flat = u.reshape(-1)
    np.add(flat[:-2], flat[2:], out=work.reshape(-1)[1:-1])
    if dirichlet:
        work[:, 0] = work[:, -1] = 0.0
    else:
        np.multiply(u[:, 1], 2.0, out=work[:, 0])
        np.multiply(u[:, -2], 2.0, out=work[:, -1])
    work *= r
    u *= m
    u += work
    if dirichlet:
        u[:, 0] = u[:, -1] = 0.0


# Bytes of the noise words buffer shared by one batch's fields: a 250-path
# batch on 331 nodes (6 words a step) draws 87 steps at a time.
_NOISE_BUFFER_BYTES = 1 << 20


def _noise_bits(gens: list, n_steps: int, nx: int):
    """Yield, step by step, the bits of the two-point noise of the fields
    driven by ``gens``: a (fields, nx) uint8 array, 1 for ``+sqrt(dt/dx)``
    and 0 for ``-sqrt(dt/dx)``.

    Each step takes ceil(nx / 64) raw 64-bit words from each field's stream
    (``bit_generator.random_raw``); bit j of word w, least significant
    first, drives node 64w + j, whatever the host's byte order, and the
    bits past nx are discarded.  Words are drawn in chunks of steps into
    one buffer; one stream drawn in chunks gives the same words as per-step
    draws.
    """
    n_words = -(-nx // 64)
    chunk = max(1, _NOISE_BUFFER_BYTES // (8 * len(gens) * n_words))
    # Step-major, so that each step reads one contiguous (fields, words)
    # slab.  The buffer is an anonymous mapping of its own, returned to the
    # OS when the batch frees it: a malloc'd block this size stays resident
    # in the arena of the worker thread that freed it, and the fresh threads
    # of each request may take fresh arenas, each of which then keeps one.
    shape = (min(chunk, n_steps), len(gens), n_words)
    words = np.frombuffer(mmap.mmap(-1, 8 * math.prod(shape)),
                          dtype=np.uint64).reshape(shape)
    for start in range(0, n_steps, chunk):
        steps = words[:min(chunk, n_steps - start)]
        for p, g in enumerate(gens):
            steps[:, p] = g.bit_generator.random_raw(
                steps.shape[0] * n_words).reshape(-1, n_words)
        for step in steps:
            yield np.unpackbits(step.astype("<u8", copy=False).view(np.uint8),
                                axis=-1, count=nx, bitorder="little")


def _evolve(grid: SpdeGrid, u: np.ndarray, rho: RhoSpec, nu: float,
            gens: list) -> None:
    """Evolve the fields ``u`` (row ``p`` driven by ``gens[p]``) to t_final,
    in place.  Each node and step takes one bit b of the field's stream
    (:func:`_noise_bits`), and its noise is ``(2b - 1) sqrt(dt / dx)``:
    exactly ``+-sqrt(dt / dx)`` with probability 1/2 each.  Every step is
    :func:`_spde_step`: linear ``rho`` folds its noise into the node weight,
    ``m = (1 - 2r - lam s) + b (2 lam s)`` with ``s = sqrt(dt / dx)``, one
    multiply and one add; clipped ``rho`` takes the heat step and adds
    ``rho(u) (2b - 1) s``.  Zero ``rho`` draws nothing."""
    r = nu * grid.dt / (2.0 * grid.dx ** 2)
    scale = math.sqrt(grid.dt) / math.sqrt(grid.dx)
    heat = 1.0 - 2.0 * r
    dirichlet = grid.boundary == "dirichlet0"
    work = np.empty_like(u)
    with np.errstate(over="ignore", invalid="ignore"):
        if rho.is_zero:
            for _ in range(grid.n_time_steps):
                _spde_step(u, heat, r, dirichlet, work)
            return
        linear = rho.kind == "linear"
        jump, base = ((2.0 * rho.lam * scale, heat - rho.lam * scale)
                      if linear else (2.0 * scale, -scale))
        gain = np.empty_like(u)
        kick = None if linear else np.empty_like(u)
        for bits in _noise_bits(gens, grid.n_time_steps, grid.n_nodes):
            np.multiply(bits, jump, out=gain)
            gain += base
            if linear:
                _spde_step(u, gain, r, dirichlet, work)
            else:
                rho(u, out=kick)
                kick *= gain
                _spde_step(u, heat, r, dirichlet, work)
                u += kick


def _run_spde_batch(grid: SpdeGrid, u0_field: np.ndarray, rho: RhoSpec,
                    nu: float, seed: int, lo: int, hi: int) -> np.ndarray:
    """Evolve paths [lo, hi) to t_final; returns fields (hi-lo, n_nodes)."""
    u = np.tile(u0_field, (hi - lo, 1))
    _evolve(grid, u, rho, nu,
            [path_generator(seed, DOMAIN_SPDE, i) for i in range(lo, hi)])
    return u


def spde_solve_path(grid: SpdeGrid, mu: InitialMeasure, rho: RhoSpec,
                    nu: float, rng: np.random.Generator) -> np.ndarray:
    """One field sample at ``t_final`` on the grid nodes.

    Explicit Euler with space-time white noise discretised as two-point
    noise: ``+-sqrt(dt / dx)`` per node and step, with probability 1/2
    each, one bit of the raw words of ``rng``'s bit generator (see
    :func:`_noise_bits`).  Raises
    DivergenceError if the field leaves double precision (coarse grids with
    strong coupling can blow up; this is reported, never clipped).  A
    non-finite interior node stays non-finite, so checking the final field
    suffices.
    """
    grid.check_cfl(nu)
    u = _initial_field(grid, mu)[None, :]
    _evolve(grid, u, rho, nu, [rng])
    if not np.all(np.isfinite(u)):
        raise DivergenceError(
            f"field diverged within {grid.n_time_steps} steps",
            n_divergent=1, n_total=1)
    return u[0]


def spde_lattice_second_moment(grid: SpdeGrid, mu: InitialMeasure,
                               lam: float, nu: float) -> np.ndarray:
    """Exact second-moment matrix ``M[i, j] = E[u_i u_j]`` of the explicit
    scheme at ``t_final`` for the linear coupling ``rho(u) = lam * u``.

    One step is ``u <- B u + lam * u * xi * sqrt(dt / dx)`` with iid ``xi``,
    E xi = 0 and E xi^2 = 1, so
    ``M <- B M B^T + (lam^2 dt / dx) diag(diag M)``: the same recursion for
    the engine's two-point ``xi = +-1`` as for standard normals.
    ``B`` is the noise-free step, the engine's own :func:`_spde_step` at
    ``m = 1 - 2r``, applied to the rows of ``M`` and then to its columns.
    ``M[i1, i2]`` is the exact mean of the SPDE Monte Carlo
    estimator on the same grid, discretisation bias included; it tends to
    the continuum two-point function at O(dx) (Walsh 1986; Bertini &
    Cancrini, J. Stat. Phys. 78, 1995).
    """
    grid.check_cfl(nu)
    u0 = _initial_field(grid, mu)
    m = np.outer(u0, u0)
    work = np.empty_like(m)
    r = nu * grid.dt / (2.0 * grid.dx ** 2)
    heat = 1.0 - 2.0 * r
    gain = lam * lam * grid.dt / grid.dx
    dirichlet = grid.boundary == "dirichlet0"
    diag = np.diag_indices_from(m)
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(grid.n_time_steps):
            # Zero on Dirichlet boundary nodes: the field is zero there.
            noise_var = gain * m[diag]
            _spde_step(m, heat, r, dirichlet, work)
            _spde_step(m.T, heat, r, dirichlet, work)
            m[diag] += noise_var
    return m


def _estimate_from_values(values: np.ndarray, n_total: int) -> Estimate:
    finite = np.isfinite(values)
    n_div = int(n_total - finite.sum())
    if n_div > MAX_DIVERGENT_FRACTION * n_total:
        raise DivergenceError(
            f"{n_div} of {n_total} paths diverged "
            f"(> {MAX_DIVERGENT_FRACTION:.1%})",
            n_divergent=n_div, n_total=n_total)
    good = values if n_div == 0 else values[finite]
    n = good.size
    value = float(np.mean(good))
    std_error = float(np.std(good, ddof=1) / math.sqrt(n)) if n > 1 else 0.0
    return Estimate(value=value, std_error=std_error, n=n, n_divergent=n_div)


def _parallel_values(n_paths: int, batch_size: int, workers: int,
                     task: Callable[[int, int], np.ndarray]) -> np.ndarray:
    """Fill a path-indexed value array batch by batch; order-independent."""
    values = np.empty(n_paths)
    ranges = [(lo, min(lo + batch_size, n_paths))
              for lo in range(0, n_paths, batch_size)]
    if workers <= 1 or len(ranges) == 1:
        for lo, hi in ranges:
            values[lo:hi] = task(lo, hi)
        return values
    with ThreadPoolExecutor(max_workers=workers) as pool:
        futures = {pool.submit(task, lo, hi): (lo, hi) for lo, hi in ranges}
        for fut, (lo, hi) in futures.items():
            values[lo:hi] = fut.result()
    return values


def spde_estimate_two_point(q: TwoPointQuery, mu: InitialMeasure,
                            rho: RhoSpec, nu: float, grid: SpdeGrid,
                            mc: McConfig) -> Estimate:
    """Monte Carlo estimate of E[u(t,x1) u(t,x2)] by direct simulation.

    Observation points are read at the nearest grid node.  Paths whose field
    leaves double precision are counted as divergent and excluded; more than
    0.1% divergent rejects the whole estimate.
    """
    grid.check_cfl(nu)
    if abs(grid.t_final - q.t) > 1e-12 * max(1.0, q.t):
        raise ConfigError(f"grid.t_final={grid.t_final} != query t={q.t}")
    margin = 4.0 * math.sqrt(nu * q.t)
    if not (-grid.half_width + margin < q.x1 < grid.half_width - margin
            and -grid.half_width + margin < q.x2 < grid.half_width - margin):
        raise ConfigError("observation points must sit at least "
                          "4 sqrt(nu t) inside the domain")
    needed = 6.0 * math.sqrt(nu * q.t) + mu.support_extent()
    if grid.half_width < needed:
        raise ConfigError(f"domain half-width {grid.half_width:.4g} < "
                          f"required {needed:.4g} (boundary contamination)")

    u0_field = _initial_field(grid, mu)
    i1, i2 = grid.index_of(q.x1), grid.index_of(q.x2)

    def task(lo: int, hi: int) -> np.ndarray:
        fields = _run_spde_batch(grid, u0_field, rho, nu, mc.seed, lo, hi)
        with np.errstate(over="ignore", invalid="ignore"):
            return fields[:, i1] * fields[:, i2]

    values = _parallel_values(mc.n_paths, mc.batch_size, mc.workers, task)
    return _estimate_from_values(values, mc.n_paths)


# ---------------------------------------------------------------------------
# Feynman-Kac engines
# ---------------------------------------------------------------------------

def _bounded_function(u0: InitialMeasure) -> Callable[[np.ndarray],
                                                     np.ndarray]:
    """``u0`` as a function of position, for the Feynman-Kac engines: a
    constant (``LebesgueScaled``), or a density whose growth certificate
    bounds it.  Atoms, sums and growing envelopes are a ConfigError."""
    if isinstance(u0, (LebesgueScaled, DensityMeasure)):
        cert = u0.certificate
        if cert.degree == 0 and (cert.rate <= 0 or cert.power == 0):
            return u0.f
    raise ConfigError("Feynman-Kac engines require a constant (lebesgue) u0 "
                      "or a density with a bounded certificate, got "
                      f"{type(u0).__name__}")


def fk_two_point(q: TwoPointQuery, u0: InitialMeasure, nu: float,
                 lam: float, mc: McConfig) -> Estimate:
    """Unbiased Feynman-Kac estimate of E[u(t,x1) u(t,x2)] for bounded
    function initial data, via exact joint (endpoint, local time) sampling.
    ``u0`` is a ``LebesgueScaled`` constant or a ``DensityMeasure`` whose
    certificate bounds it; anything else is a ConfigError.

    Each path reads one Philox block of four uniforms from its
    counter-based substream: three for ``(W1, L)`` and one for ``W2``.  A
    constant u0 ≡ c weighs a path by ``c² exp(rate L)`` alone, so it reads
    only the block's first two uniforms, the local time's, and skips the
    endpoints; its values are those of the full draw, bit for bit.  The
    estimate is reproducible across any partitioning.
    """
    if not (nu > 0):
        raise DomainError(f"fk_two_point requires nu > 0, got {nu}")
    f = _bounded_function(u0)
    law = JointLocalTimeLaw(t=2.0 * nu * q.t, a=q.x2 - q.x1)
    scale = math.sqrt(2.0 * nu * q.t)
    rate = lam * lam / (2.0 * nu)

    if isinstance(u0, LebesgueScaled):
        c2 = u0.scale * u0.scale

        def task(lo: int, hi: int) -> np.ndarray:
            v = law.local_time_from_uniforms(
                uniforms_at(mc.seed, DOMAIN_FK, lo, hi, 2))
            return c2 * np.exp(rate * v)
    else:
        def task(lo: int, hi: int) -> np.ndarray:
            u = uniforms_at(mc.seed, DOMAIN_FK, lo, hi, 4)
            y, v = law.sample_from_uniforms(u[:, :3])
            w2 = scale * special.ndtri(u[:, 3])
            vals = (np.asarray(f(q.x1 + 0.5 * (w2 + y)), dtype=float)
                    * np.asarray(f(q.x2 + 0.5 * (w2 - y)), dtype=float))
            return vals * np.exp(rate * v)

    values = _parallel_values(mc.n_paths, mc.batch_size, mc.workers, task)
    return _estimate_from_values(values, mc.n_paths)


def fk_two_point_occupation(q: TwoPointQuery, u0: InitialMeasure,
                            nu: float, lam: float, mc: McConfig,
                            eps: float, n_steps: int) -> Estimate:
    """Feynman-Kac estimate with a discretised interaction clock.

    The pair difference ``B1 - B2`` is simulated by Euler steps; the
    singular interaction is replaced by a Gaussian of variance ``eps`` and
    the occupation integral by a trapezoid sum.  Biased (bias -> 0 as
    ``eps`` and ``t / n_steps`` -> 0); serves as a third, independent check.
    """
    if not (nu > 0):
        raise DomainError(f"fk_two_point_occupation requires nu > 0, "
                          f"got {nu}")
    if not (eps > 0):
        raise ConfigError(f"eps must be > 0, got {eps}")
    if n_steps < 1:
        raise ConfigError(f"n_steps must be >= 1, got {n_steps}")
    f = _bounded_function(u0)
    a = q.x2 - q.x1
    dt_s = q.t / n_steps
    inc_scale = math.sqrt(2.0 * nu * dt_s)
    end_scale = math.sqrt(2.0 * nu * q.t)
    lam2 = lam * lam
    inv_norm = 1.0 / math.sqrt(2.0 * math.pi * eps)

    def task(lo: int, hi: int) -> np.ndarray:
        out = np.empty(hi - lo)
        for i in range(lo, hi):
            gen = path_generator(mc.seed, DOMAIN_FK_OCC, i)
            steps = gen.standard_normal(n_steps) * inc_scale
            d = np.empty(n_steps + 1)
            d[0] = 0.0
            np.cumsum(steps, out=d[1:])
            weights = inv_norm * np.exp(-(d - a) ** 2 / (2.0 * eps))
            occ = _trapezoid(weights, dx=dt_s)
            s_t = gen.standard_normal() * end_scale
            b1 = 0.5 * (s_t + d[-1])
            b2 = 0.5 * (s_t - d[-1])
            out[i - lo] = (float(f(q.x1 + b1)) * float(f(q.x2 + b2))
                           * math.exp(lam2 * occ))
        return out

    values = _parallel_values(mc.n_paths, mc.batch_size, mc.workers, task)
    return _estimate_from_values(values, mc.n_paths)
