"""Quadrature helpers.

Two rules with one error contract: both raise
:class:`~she_moments.errors.QuadratureError` instead of returning a number
their own error test did not pass.

* :func:`integrate_1d` makes one QUADPACK call (Gauss-Kronrod panels with
  the standard rational map for infinite tails) per piece between given cut
  points, each on a fixed budget of 200 subintervals, with a scalar Python
  integrand; a QUADPACK warning raises.  Every integrand in this package is
  Gaussian-dominated or exponentially decaying, which is exactly the regime
  it converges fast in.
* :func:`integrate_panels` is a fixed-order tensor Gauss-Legendre rule on
  caller-chosen panels, called once per block of nodes with a vectorised
  integrand.  It fits integrands that are smooth inside each panel, with
  any kinks on panel edges and negligible mass outside them.
"""

from __future__ import annotations

import functools
import importlib
import warnings
from typing import Callable

import numpy as np
from scipy import special

from .errors import QuadratureError


class _Deferred:
    """A module imported on its first attribute access.  Two threads that
    make that access at once import it once: the second waits on
    importlib's lock for the module and then sees it whole.  An attribute
    read once is kept, so later reads are plain lookups."""

    def __init__(self, name: str):
        self._name = name

    def __getattr__(self, attr):
        value = getattr(importlib.import_module(self._name), attr)
        setattr(self, attr, value)
        return value


# scipy.integrate brings in scipy.optimize and scipy.sparse.linalg, about
# 250 modules and 20 MB, which only a QUADPACK call needs.
integrate = _Deferred("scipy.integrate")

ABS_TOL = 1e-12
REL_TOL = 1e-10
# QUADPACK's budget of subintervals, the same for every integral.
QUADPACK_LIMIT = 200

# Gauss-Legendre orders of the panel rule: the value comes from the first,
# the error estimate from its difference to the second.
PANEL_ORDERS = (24, 12)
# Times every panel may be halved before the panel rule gives up.
MAX_DOUBLINGS = 4
# Integrand evaluations per block, which bounds the rule's working memory.
BLOCK = 1 << 12


def integrate_1d(f: Callable[[float], float], a: float, b: float,
                 *breaks: float, abs_tol: float = ABS_TOL,
                 rel_tol: float = REL_TOL) -> float:
    """Integrate ``f`` over ``[a, b]`` (either end may be infinite) in one
    QUADPACK call, on the budget of ``QUADPACK_LIMIT`` subintervals, per
    piece between the points of ``breaks`` inside ``(a, b)``, so that kinks
    and narrow peaks of ``f`` fall on piece edges.  The pieces' values are
    summed in order; a single piece's value is returned as QUADPACK gave it.

    QUADPACK's own convergence test is the only one: any warning it issues
    (the budget spent, roundoff, a divergent integral) raises
    QuadratureError at once, as does a non-finite value.
    """
    cuts = [a, *sorted({p for p in breaks if a < p < b}), b]
    values = []
    with warnings.catch_warnings():
        warnings.simplefilter("error", integrate.IntegrationWarning)
        for lo, hi in zip(cuts[:-1], cuts[1:]):
            try:
                val, err = integrate.quad(f, lo, hi, epsabs=abs_tol,
                                          epsrel=rel_tol, limit=QUADPACK_LIMIT)
            except integrate.IntegrationWarning as exc:
                raise QuadratureError(f"quadrature did not converge on "
                                      f"[{lo}, {hi}]: {exc}") from exc
            if not np.isfinite(val):
                raise QuadratureError(f"quadrature returned non-finite value "
                                      f"on [{lo}, {hi}]",
                                      achieved=err, requested=abs_tol)
            values.append(val)
    return sum(values[1:], values[0])


@functools.lru_cache(maxsize=None)
def _legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    nodes, weights = special.roots_legendre(n)
    nodes.flags.writeable = False
    weights.flags.writeable = False
    return nodes, weights


def panel_nodes(edges, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the ``n``-point Gauss-Legendre rule on every
    panel ``[edges[i], edges[i+1]]``."""
    edges = np.asarray(edges, dtype=float)
    x0, w0 = _legendre(n)
    half = 0.5 * np.diff(edges)[:, None]
    mid = 0.5 * (edges[:-1] + edges[1:])[:, None]
    return (mid + half * x0).ravel(), (half * w0).ravel()


def _halve(edges: np.ndarray) -> np.ndarray:
    return np.insert(edges, np.arange(1, edges.size),
                     0.5 * (edges[:-1] + edges[1:]))


def _tensor_sum(f, edges: list[np.ndarray], n: int) -> tuple[float, float]:
    """``(sum of w f, sum of w |f|)`` of the order-``n`` tensor rule,
    evaluating ``f`` on at most about BLOCK nodes at a time.  A 1-D rule
    has a one-node inner rule of weight 1; its ``f`` takes 1-D nodes."""
    (x, wx), *inner = [panel_nodes(e, n) for e in edges]
    y, wy = inner[0] if inner else (None, np.ones(1))
    rows = max(1, BLOCK // wy.size)
    total = mag = 0.0
    for lo in range(0, x.size, rows):
        xb, wb = x[lo:lo + rows], wx[lo:lo + rows]
        vals = (np.asarray(f(xb))[..., None] if y is None
                else f(xb[:, None], y[None, :]))
        vals = np.broadcast_to(vals, (wb.size, wy.size))
        total += float(wb @ vals @ wy)
        mag += float(wb @ np.abs(vals) @ wy)
    return total, mag


def integrate_panels(f: Callable[..., np.ndarray], *edges,
                     abs_tol: float = ABS_TOL,
                     rel_tol: float = REL_TOL) -> tuple[float, float]:
    """Tensor Gauss-Legendre integral of ``f`` over the panels given by one
    (1-D) or two (2-D) increasing edge arrays.

    ``f(x)`` or ``f(x, y)`` is called on broadcastable node arrays and
    returns their broadcast shape.  The value is the order
    ``PANEL_ORDERS[0]`` rule; the error estimate is its distance to the
    order ``PANEL_ORDERS[1]`` rule, floored at the rounding error of the
    sum.  While the estimate exceeds ``max(abs_tol, rel_tol * |value|)``,
    every panel is halved, at most ``MAX_DOUBLINGS`` times; then
    QuadratureError carries the achieved estimate.  Nothing outside the
    outermost edges is integrated.  Returns ``(value, error_estimate)``.
    """
    if len(edges) not in (1, 2):
        raise ValueError("integrate_panels takes one or two edge arrays")
    grids = [np.asarray(e, dtype=float) for e in edges]
    if any(g.size < 2 or not np.all(np.diff(g) > 0)
           or not np.all(np.isfinite(g)) for g in grids):
        raise ValueError("panel edges must be finite and strictly increasing")
    n_hi, n_lo = PANEL_ORDERS
    for _level in range(MAX_DOUBLINGS + 1):
        value, mag = _tensor_sum(f, grids, n_hi)
        low, _ = _tensor_sum(f, grids, n_lo)
        err = max(abs(value - low), 64.0 * np.finfo(float).eps * mag)
        tol = max(abs_tol, rel_tol * abs(value))
        if not (np.isfinite(value) and np.isfinite(low)):
            raise QuadratureError("panel quadrature met a non-finite "
                                  "integrand value", achieved=np.inf,
                                  requested=tol)
        if err <= tol:
            return value, err
        grids = [_halve(g) for g in grids]
    raise QuadratureError(
        f"panel quadrature did not converge after halving every panel "
        f"{MAX_DOUBLINGS} times: error estimate {err:.3g} > {tol:.3g}",
        achieved=err, requested=tol)
