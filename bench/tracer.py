"""In-memory tracing of she_moments layers, installed from outside the package.

The package binds names with ``from .x import y``, so wrapping a function
means rebinding every module attribute that refers to it.  ``instrument``
does that for the layer boundaries listed in ``_SPANS`` and ``_LEAVES`` and
restores the originals on exit.  Wrappers return exactly what the wrapped
call returned, so traced runs produce the same values as untraced ones.

Coarse boundaries (one CLI request, an engine batch, an RNG call, a
two-point query, the outermost integral) each record a span: name, start,
end, parent span, thread and request id.  Hot leaves (kernel and Gaussian
primitives, nested integrals, local-time densities) run ~1e5 times per
query, so they only add to an aggregate per (name, parent name).  Self time
is a frame's duration minus that of its children on the same thread; a
child's tracing bookkeeping, including a calibrated estimate of the part no
clock read can see, counts as child time, so it is in no self time.
"""

from __future__ import annotations

import contextlib
import importlib
import itertools
import statistics
import sys
import threading
import time
import warnings
from collections import defaultdict

import numpy as np

_perf = time.perf_counter


class _Frame:
    __slots__ = ("name", "span_id", "parent", "request", "child")

    def __init__(self, name, span_id, parent, request):
        self.name = name
        self.span_id = span_id
        self.parent = parent
        self.request = request
        self.child = 0.0


class _ThreadState:
    def __init__(self):
        self.stack: list[_Frame] = []
        # (name, parent name) -> [calls, total_s, self_s, items]
        self.agg: dict = defaultdict(lambda: [0, 0.0, 0.0, 0])
        self.counts: dict = defaultdict(int)


class Tracer:
    """Spans and per-(name, parent) aggregates, kept in memory."""

    def __init__(self, calibrate: bool = True):
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._requests = itertools.count(1)
        self._lock = threading.Lock()
        self._states: list[_ThreadState] = []
        self.spans: list[dict] = []
        # Seconds per traced call spent before ``t_in`` or after the last
        # clock read in ``call``; added to the parent's child time.
        self.uncaptured_s = _uncaptured_s() if calibrate else 0.0

    def _state(self) -> _ThreadState:
        state = getattr(self._local, "state", None)
        if state is None:
            state = _ThreadState()
            with self._lock:
                self._states.append(state)
            self._local.state = state
        return state

    def current(self) -> _Frame | None:
        stack = self._state().stack
        return stack[-1] if stack else None

    def call(self, name, fn, args, kwargs, *, span=True, parent=None,
             items=None, attr=None, new_request=False, t_in=None):
        """Run ``fn(*args, **kwargs)`` inside a frame called ``name``.

        ``parent`` names a frame on another thread (work handed to a pool);
        it sets the span's parent and request but takes no child time.
        ``items(args, kwargs, result)`` counts the work units of the call.
        The frame's own time runs from just before to just after ``fn``.
        Everything from ``t_in`` (a wrapper's entry time, else entry here)
        to the return is counted as child time of the parent, so this
        bookkeeping is in neither self time.  What runs before ``t_in`` --
        the calls into the wrapper and into this method -- is estimated
        once per tracer (``uncaptured_s``) and taken off the caller too.
        """
        if t_in is None:
            t_in = _perf()
        state = self._state()
        stack = state.stack
        up = stack[-1] if stack else parent
        request = (next(self._requests) if new_request
                   else (up.request if up is not None else 0))
        frame = _Frame(name, next(self._ids) if span else 0, up, request)
        stack.append(frame)
        t0 = _perf()
        try:
            result = fn(*args, **kwargs)
        finally:
            t1 = _perf()
            stack.pop()
        dur = t1 - t0
        n = items(args, kwargs, result) if items is not None else 0
        self_s = dur - frame.child
        if span:
            self.spans.append({
                "id": frame.span_id, "name": name,
                "parent": up.span_id if up is not None else 0,
                "request": request, "thread": threading.get_ident(),
                "start": t0, "end": t1, "self_s": self_s, "items": n,
                "attr": attr})
        else:
            entry = state.agg[(name, up.name if up is not None else None)]
            entry[0] += 1
            entry[1] += dur
            entry[2] += self_s
            entry[3] += n
        if stack:
            stack[-1].child += _perf() - t_in + self.uncaptured_s
        return result

    def count(self, name: str, n: int = 1) -> None:
        """Add ``n`` work units to ``name`` without timing anything."""
        self._state().counts[name] += n

    def totals(self) -> dict:
        """name -> {"calls", "s", "self_s", "items"} over spans and aggregates."""
        out: dict = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0,
                                         "items": 0})
        for sp in self.spans:
            row = out[sp["name"]]
            row["calls"] += 1
            row["s"] += sp["end"] - sp["start"]
            row["self_s"] += sp["self_s"]
            row["items"] += sp["items"]
        for state in self._states:
            for (name, _parent), (calls, tot, self_s, items) in state.agg.items():
                row = out[name]
                row["calls"] += calls
                row["s"] += tot
                row["self_s"] += self_s
                row["items"] += items
            for name, n in state.counts.items():
                out[name]["items"] += n
        return out

    def dump(self) -> dict:
        """Everything recorded, as plain JSON-ready data."""
        aggregates = []
        for state in self._states:
            for (name, parent), (calls, tot, self_s, items) in state.agg.items():
                aggregates.append({"name": name, "parent": parent,
                                   "calls": calls, "s": tot,
                                   "self_s": self_s, "items": items})
            for name, n in state.counts.items():
                aggregates.append({"name": name, "items": n})
        return {"uncaptured_s_per_call": self.uncaptured_s,
                "spans": self.spans, "aggregates": aggregates}


def wrap(tracer: Tracer, name: str, fn, **opts):
    """``fn`` traced as ``name``; ``opts`` go to ``Tracer.call``."""
    def wrapper(*args, **kwargs):
        return tracer.call(name, fn, args, kwargs, **opts)
    return wrapper


def _uncaptured_s(n: int = 50_000, samples: int = 7) -> float:
    """Caller-side cost of one traced call that ``Tracer.call`` cannot
    time itself: the self time a loop of ``n`` traced no-op calls has
    beyond an empty loop, per call; the median of ``samples`` tries."""
    def noop():
        return None

    def loop(f):
        for _ in range(n):
            f()

    estimates = []
    for _ in range(samples):
        probe = Tracer(calibrate=False)
        t0 = _perf()
        for _ in range(n):
            pass
        empty = _perf() - t0
        probe.call("probe", loop, (wrap(probe, "leaf", noop, span=False,
                                        items=_result_size),), {})
        estimates.append((probe.spans[-1]["self_s"] - empty) / n)
    return max(0.0, statistics.median(estimates))


# ---------------------------------------------------------------------------
# Work-unit counters
# ---------------------------------------------------------------------------

def _result_size(args, kwargs, result) -> int:
    return 1 if isinstance(result, (float, int)) else int(np.size(result))


def _sample_count(args, kwargs, result) -> int:
    return int(np.shape(args[1])[0])


def _measure_kind(mu) -> str:
    name = type(mu).__name__
    return {"DiracAtoms": "atoms", "LebesgueScaled": "lebesgue",
            "DensityMeasure": "gaussian", "MeasureSum": "sum"}.get(name, name)


# ---------------------------------------------------------------------------
# Installation
# ---------------------------------------------------------------------------

class _GeneratorProxy:
    """A numpy Generator whose ``standard_normal`` draws are timed."""

    def __init__(self, gen, tracer: Tracer):
        self._gen = gen
        self._tracer = tracer

    def standard_normal(self, *args, **kwargs):
        return self._tracer.call("rng.standard_normal",
                                 self._gen.standard_normal, args, kwargs,
                                 items=_result_size)

    def __getattr__(self, name):
        return getattr(self._gen, name)


class _IntegrateProxy:
    """Stands in for ``scipy.integrate`` inside the quadrature module and
    counts calls to ``quad`` (retries included) and integrand evaluations."""

    def __init__(self, module, tracer: Tracer):
        self._module = module
        self._tracer = tracer

    def quad(self, *args, **kwargs):
        """``quad`` with ``full_output`` on, which gives QUADPACK's own count
        of integrand evaluations without wrapping the integrand.  The
        warning plain ``quad`` would have issued is issued here instead."""
        result = self._module.quad(*args, full_output=1, **kwargs)
        self._tracer.count("scipy.quad")
        self._tracer.count("quadrature.integrand", result[2]["neval"])
        if len(result) > 3:
            warnings.warn(result[3], self._module.IntegrationWarning,
                          stacklevel=2)
        return result[:2]

    def __getattr__(self, name):
        return getattr(self._module, name)


# Coarse boundaries: one span per call.  (module, attribute, span name)
_SPANS = [
    ("cli", "main", "cli.main"),
    ("simulate", "spde_estimate_two_point", "simulate.spde_estimate"),
    ("simulate", "fk_two_point", "simulate.fk_estimate"),
    ("rng", "uniforms_at", "rng.uniforms_at"),
    ("measures", "mean_field", "measures.mean_field"),
    ("transforms", "laplace_numeric", "transforms.laplace_numeric"),
    ("verify", "suite_laplace", "verify.suite.laplace"),
    ("verify", "suite_identities", "verify.suite.identities"),
    ("verify", "suite_local_time", "verify.suite.local-time"),
]

# Hot leaves: aggregated per (name, parent).  (module, attribute, name)
_LEAVES = [
    ("kernels", "covariance_kernel", "kernels.covariance_kernel"),
    ("kernels", "two_point_kernel", "kernels.two_point_kernel"),
    ("kernels", "two_point_lebesgue", "kernels.two_point_lebesgue"),
    ("gaussian", "exp_phi", "gaussian.exp_phi"),
    ("gaussian", "heat_kernel", "gaussian.heat_kernel"),
]

BATCH_NAMES = {"simulate.spde_estimate": "simulate.spde_batch",
                "simulate.fk_estimate": "simulate.fk_batch"}


LAYERS = ("cli", "simulate", "rng", "local_time", "measures", "quadrature",
          "kernels", "gaussian", "transforms", "verify")


@contextlib.contextmanager
def instrument(tracer: Tracer):
    """Wrap the layer boundaries of she_moments for the duration of the block."""
    mods = {name: importlib.import_module(f"she_moments.{name}")
            for name in LAYERS}
    modules = [m for name, m in list(sys.modules.items())
               if m is not None and name.split(".")[0] == "she_moments"]
    restore: list[tuple[object, str, object]] = []

    def rebind(original, wrapper):
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    restore.append((module, attr, value))
                    setattr(module, attr, wrapper)

    for mod, attr, name in _SPANS:
        fn = getattr(mods[mod], attr)
        opts = {"new_request": True} if name == "cli.main" else {}
        if name == "rng.uniforms_at":
            opts["items"] = _result_size
        rebind(fn, wrap(tracer, name, fn, **opts))
    for mod, attr, name in _LEAVES:
        fn = getattr(mods[mod], attr)
        rebind(fn, wrap(tracer, name, fn, span=False, items=_result_size))

    two_point = mods["measures"].two_point

    def traced_two_point(q, mu, params, *args, **kwargs):
        return tracer.call("measures.two_point", two_point,
                           (q, mu, params) + args, kwargs,
                           attr=_measure_kind(mu))
    rebind(two_point, traced_two_point)

    path_generator = mods["rng"].path_generator

    def traced_path_generator(*args, **kwargs):
        gen = tracer.call("rng.path_generator", path_generator, args, kwargs)
        return _GeneratorProxy(gen, tracer)
    rebind(path_generator, traced_path_generator)

    integrate_1d = mods["quadrature"].integrate_1d

    def traced_integrate_1d(*args, **kwargs):
        t_in = _perf()
        frame = tracer.current()
        while frame is not None and frame.name != "quadrature.integrate_1d":
            frame = frame.parent
        return tracer.call("quadrature.integrate_1d", integrate_1d, args,
                           kwargs, span=frame is None, t_in=t_in)
    rebind(integrate_1d, traced_integrate_1d)

    parallel_values = mods["simulate"]._parallel_values

    def traced_parallel_values(n_paths, batch_size, workers, task):
        owner = tracer.current()
        name = BATCH_NAMES.get(owner.name if owner else "", "simulate.batch")

        def batch(lo, hi):
            return tracer.call(name, task, (lo, hi), {}, parent=owner,
                               items=lambda a, k, r: a[1] - a[0])
        return parallel_values(n_paths, batch_size, workers, batch)
    rebind(parallel_values, traced_parallel_values)

    law = mods["local_time"].JointLocalTimeLaw
    for attr, name, opts in (
            ("sample_from_uniforms", "local_time.sample_from_uniforms",
             {"items": _sample_count}),
            ("density_cont", "local_time.density",
             {"span": False, "items": _result_size}),
            ("atom_profile", "local_time.density",
             {"span": False, "items": _result_size})):
        fn = vars(law)[attr]
        restore.append((law, attr, fn))
        setattr(law, attr, wrap(tracer, name, fn, **opts))

    quadrature = mods["quadrature"]
    restore.append((quadrature, "integrate", quadrature.integrate))
    quadrature.integrate = _IntegrateProxy(quadrature.integrate, tracer)

    try:
        yield tracer
    finally:
        for owner, attr, value in reversed(restore):
            setattr(owner, attr, value)
