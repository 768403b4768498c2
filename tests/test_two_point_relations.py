"""Relations of the two-point function that need no oracle, on each route
of ``measures``: the closed form (``mixture_two_point``), the split form
and the direct form of ``two_point``.

E[u(t,x1) u(t,x2)] is a quadratic form in the initial measure, so a term
split into two terms of masses a and c - a, at the same locations, gives
the unsplit value.  Each route expands a sum into pairs of its terms, and a
pair of distinct terms counts twice: with weight 1 off the diagonal, two
equal halves would keep only 3/4 of their cross term.  For a nonnegative
measure the value does not decrease in lambda, and every route refuses a
query whose nu * t is 0 or inf.
"""

import math
from functools import partial

import numpy as np
import pytest

from she_moments.errors import DomainError
from she_moments.kernels import KernelParams, TwoPointQuery
from she_moments.measures import (DensityMeasure, DiracAtoms,
                                  GrowthCertificate, LebesgueScaled,
                                  MeasureSum, closed_two_point,
                                  gaussian_density, mixture_two_point,
                                  two_point)

SPLIT_TOL = 1e-9
MASS_SHARE = 0.3

ATOMS = DiracAtoms(((-0.7, 0.8), (0.4, 1.3)))
GAUSS = gaussian_density(0.2, 0.6, 1.4)
LEBESGUE = LebesgueScaled(0.9)
CAUCHY = DensityMeasure(lambda x: 1.0 / (1.0 + np.asarray(x) ** 2),
                        GrowthCertificate(amplitude=1.0), nonnegative=True)

QUERIES = [(TwoPointQuery(0.8, -0.2, 0.6), KernelParams(nu=1.0, lam=1.1)),
           (TwoPointQuery(1.3, 0.9, -0.5), KernelParams(nu=0.7, lam=0.8))]


def _rel(a, b):
    return abs(a - b) / max(abs(a), abs(b), 1e-300)


def _split(term, share=MASS_SHARE):
    """``term`` as two terms of the same kind, holding ``share`` and
    ``1 - share`` of its mass."""
    if isinstance(term, DiracAtoms):
        return tuple(DiracAtoms(tuple((x, s * m) for x, m in term.atoms))
                     for s in (share, 1.0 - share))
    if isinstance(term, LebesgueScaled):
        return (LebesgueScaled(share * term.scale),
                LebesgueScaled((1.0 - share) * term.scale))
    return tuple(gaussian_density(term.mean, term.var, s * term.mass)
                 for s in (share, 1.0 - share))


ROUTES = {"closed": mixture_two_point,
          "split": partial(two_point, formula="split"),
          "direct": partial(two_point, formula="direct")}

# (route, split term, other term).  The direct route splits only atom
# terms: a density x density pair costs 35-290 ms there.
CASES = [("closed", ATOMS, GAUSS), ("closed", GAUSS, ATOMS),
         ("split", ATOMS, GAUSS), ("split", GAUSS, ATOMS),
         ("split", LEBESGUE, GAUSS), ("split", ATOMS, LEBESGUE),
         ("direct", ATOMS, GAUSS)]


@pytest.mark.parametrize("qi", range(len(QUERIES)))
@pytest.mark.parametrize(
    "route,split,other", CASES,
    ids=[f"{r}-{type(a).__name__}-with-{type(b).__name__}"
         for r, a, b in CASES])
def test_splitting_a_term_keeps_the_value(route, split, other, qi):
    q, params = QUERIES[qi]
    value = ROUTES[route]
    whole = value(q, MeasureSum((split, other)), params)
    parts = value(q, MeasureSum((*_split(split), other)), params)
    assert _rel(parts, whole) <= SPLIT_TOL, (parts, whole)


LAMBDAS = [0.0, 0.3, 0.6, 0.9, 1.2, 1.6, 2.0]


@pytest.mark.parametrize("route,mu", [
    ("closed", MeasureSum((ATOMS, GAUSS))),
    ("closed", GAUSS),
    ("split", MeasureSum((LEBESGUE, GAUSS))),
    ("split", MeasureSum((ATOMS, CAUCHY))),
], ids=["closed-atoms-gaussian", "closed-gaussian",
        "split-lebesgue-gaussian", "split-atoms-cauchy"])
@pytest.mark.parametrize("qi", range(len(QUERIES)))
def test_nonnegative_data_do_not_decrease_in_lambda(route, mu, qi):
    q, params = QUERIES[qi]
    values = [ROUTES[route](q, mu, KernelParams(nu=params.nu, lam=lam))
              for lam in LAMBDAS]
    assert all(b > a for a, b in zip(values, values[1:])), values


@pytest.mark.parametrize("t,nu", [(1e-320, 1e-20), (10.0, 1e308)],
                         ids=["nu_t_zero", "nu_t_inf"])
@pytest.mark.parametrize("route", [*ROUTES.values(), closed_two_point],
                         ids=[*ROUTES, "closed_two_point"])
def test_every_route_refuses_nu_t_outside_the_doubles(route, t, nu):
    assert nu * t in (0.0, math.inf)
    with pytest.raises(DomainError):
        route(TwoPointQuery(t, 0.3, -0.4), gaussian_density(0.0, 1.0),
              KernelParams(nu=nu, lam=1.0))
