"""she-moments benchmark: drives ``she_moments.cli.main`` in-process.

    python3 bench/run.py --workload spde-mc --seed 1 --seconds 16 --trace 0

Run from the repository root.  The package is imported from ``src/`` of the
checkout this file sits in.

``--trace 0`` measures the end-to-end metrics: set-up time of a fresh
process (median of ``SETUP_PROBES`` child processes), throughput over the
whole rounds run in ``--seconds``, and peak RSS.
``--trace 1`` runs the same rounds twice, untraced then traced, checks the
two give bit-identical value fields, and reports per-layer metrics and the
tracing overhead.  Spans go to ``.bench_out/trace-<workload>-<seed>.json``.

The last line of stdout is the result: ``correct``, ``attempted``,
``failed`` and ``metrics``.  The line before it records the environment.
See ``bench/README.md`` for what each workload and metric is for.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

from tracer import BATCH_NAMES, Tracer, instrument
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
SETUP_PROBES = 3
PROBE_TIMEOUT_S = 120


def _import_package():
    """Import she_moments from this checkout's ``src/`` and nowhere else."""
    if not (SRC / "she_moments" / "__init__.py").is_file():
        raise FileNotFoundError(f"no she_moments package under {SRC}")
    sys.path.insert(0, str(SRC))
    import she_moments.cli
    if Path(she_moments.__file__).resolve().parent != SRC / "she_moments":
        raise ImportError(f"she_moments imported from {she_moments.__file__}")
    return she_moments


# ---------------------------------------------------------------------------
# Requests
# ---------------------------------------------------------------------------

def call_cli(argv: list[str]) -> tuple[int | None, str, float]:
    """One CLI request: (exit code or None if it raised, stdout, seconds)."""
    import she_moments.cli as cli
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(argv)
    except SystemExit as exc:
        rc = exc.code if isinstance(exc.code, int) else 2
    except Exception:
        rc = None
        err.write(traceback.format_exc())
    dt = time.perf_counter() - t0
    if rc != 0:
        sys.stderr.write(f"request {argv} exited {rc}: {err.getvalue()}\n")
    return rc, out.getvalue(), dt


def run_rounds(wl, seconds: float | None = None, rounds: int | None = None):
    """Whole rounds 0, 1, ... until ``seconds`` have passed (at least one
    round), or exactly ``rounds`` of them.  Each round is a list of
    (request, exit code, stdout, seconds)."""
    done = []
    t0 = time.perf_counter()
    while (len(done) < rounds if rounds is not None
           else not done or time.perf_counter() - t0 < seconds):
        done.append([(req,) + call_cli(req.argv)
                     for req in wl.round(len(done))])
    return done


def check_rounds(wl, done) -> tuple[int, list[str]]:
    """Check every request of ``done``, then run the workload's post-checks."""
    failures = []
    ok = []
    attempted = 0
    for rnd in done:
        for req, rc, out, _dt in rnd:
            attempted += 1
            reason = f"exit code {rc}" if rc != 0 else wl.check(req, out)
            if reason:
                failures.append(f"{' '.join(req.argv)}: {reason}")
            else:
                ok.append((req, out))
    for argv, checker in wl.post_checks(ok):
        attempted += 1
        rc, out, _dt = call_cli(argv)
        try:
            reason = f"exit code {rc}" if rc != 0 else checker(out)
        except (ValueError, IndexError) as exc:
            reason = f"unreadable output: {exc}"
        if reason:
            failures.append(f"{' '.join(argv)}: {reason}")
    return attempted, failures


def value_fields(out: str):
    """A request's output minus what may differ between identical runs
    (the manifest timestamp)."""
    try:
        doc = json.loads(out)
    except json.JSONDecodeError:
        return out
    if isinstance(doc, dict) and isinstance(doc.get("manifest"), dict):
        doc["manifest"].pop("timestamp", None)
    return doc


def throughput(done) -> float:
    """Work units per second of request time over all rounds.  Rounds cover
    the same input strata on every seed (see ``Workload.stratified``), so
    the total depends little on the seed; one round's rate would not."""
    units = sum(r[0].units for rnd in done for r in rnd)
    return units / sum(r[3] for rnd in done for r in rnd)


# ---------------------------------------------------------------------------
# Environment
# ---------------------------------------------------------------------------

def _read(path: str) -> str | None:
    try:
        with open(path) as fh:
            return fh.read()
    except OSError:
        return None


def _cpu_model() -> str:
    for line in (_read("/proc/cpuinfo") or "").splitlines():
        if line.startswith("model name"):
            return line.split(":", 1)[1].strip()
    return platform.processor() or "unknown"


def _cache_sizes() -> dict:
    sizes = {}
    base = "/sys/devices/system/cpu/cpu0/cache"
    for i in range(8):
        level = _read(f"{base}/index{i}/level")
        size = _read(f"{base}/index{i}/size")
        kind = _read(f"{base}/index{i}/type")
        if level and size and kind and kind.strip() != "Instruction":
            sizes[f"L{level.strip()}"] = size.strip()
    return sizes


def environment(wl) -> dict:
    import numpy
    import scipy
    from she_moments import __version__
    from she_moments.rng import path_generator
    bitgen = type(path_generator(0, 0, 0).bit_generator).__name__
    caches = _cache_sizes()
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "l2_cache": caches.get("L2", "unknown"),
        "l3_cache": caches.get("L3", "unknown"),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "she_moments": __version__,
        "platform": platform.platform(),
        "bit_generator": "Philox4x64-10" if bitgen == "Philox" else bitgen,
        "workload": wl.name,
        "ops_per_s_counts": wl.unit,
        "seed": wl.seed,
        "workers": wl.workers,
        "computed": wl.computed_counts(),
    }


# ---------------------------------------------------------------------------
# Set-up
# ---------------------------------------------------------------------------

def setup_probe(workload: str, seed: int, tiny: bool) -> int:
    """Child-process body: import, generate inputs, warm up, say ready."""
    OUT_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(prefix="work-", dir=OUT_DIR) as tmp:
        wl = WORKLOADS[workload](seed, Path(tmp), tiny=tiny)
        for argv in wl.warmup():
            rc, _out, _dt = call_cli(argv)
            if rc != 0:
                return 1
        sys.stdout.write("ready\n")
        sys.stdout.flush()
    return 0


def measure_setup(workload: str, seed: int, tiny: bool, probes: int):
    """Seconds from starting a fresh process to its 'ready' line."""
    times = []
    for _ in range(probes):
        argv = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
                "--workload", workload, "--seed", str(seed)]
        if tiny:
            argv.append("--tiny")
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, text=True)
        try:
            line = proc.stdout.readline()
            t1 = time.perf_counter()
            _rest, err = proc.communicate(timeout=PROBE_TIMEOUT_S)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        if line.strip() != "ready" or proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed ({proc.returncode}): "
                               f"{err.strip()[-2000:]}")
        times.append(t1 - t0)
    return times


# ---------------------------------------------------------------------------
# Per-layer metrics
# ---------------------------------------------------------------------------

def layer_metrics(tracer, wl, plain, traced, overhead_pct: float) -> dict:
    n_req = sum(len(rnd) for rnd in traced)
    tot = tracer.totals()
    spans = tracer.spans
    name_of = {sp["id"]: sp["name"] for sp in spans}

    def rate(n, secs):
        return n / secs if secs > 0 else 0.0

    def per_req(name, key="s"):
        return tot[name][key] / n_req

    def span_s(pred):
        return sum(sp["end"] - sp["start"] for sp in spans if pred(sp))

    sn = tot["rng.standard_normal"]
    ua = tot["rng.uniforms_at"]
    sfu = tot["local_time.sample_from_uniforms"]
    spde = tot["simulate.spde_batch"]
    quad = tot["quadrature.integrate_1d"]
    cov, tpk = tot["kernels.covariance_kernel"], tot["kernels.two_point_kernel"]
    leb = tot["kernels.two_point_lebesgue"]
    ephi, heat = tot["gaussian.exp_phi"], tot["gaussian.heat_kernel"]
    counts = wl.computed_counts()
    node_updates = spde["items"] * counts.get("nodes", 0) * counts.get("steps", 0)
    batch_s = span_s(lambda sp: sp["name"] in BATCH_NAMES.values())
    engine_s = span_s(lambda sp: sp["name"] in BATCH_NAMES)
    divergent = 0
    for rnd in traced:
        for _req, _rc, out, _dt in rnd:
            doc = value_fields(out)
            if isinstance(doc, dict):
                divergent += doc.get("divergent_paths", 0) or 0

    m = {
        "rng.path_generator.calls": (per_req("rng.path_generator", "calls"),
                                     "count/req"),
        "rng.standard_normal.s": (per_req("rng.standard_normal"), "s/req"),
        "rng.normals_per_s": (rate(sn["items"], sn["s"]), "1/s"),
        "rng.uniforms_at.s": (per_req("rng.uniforms_at"), "s/req"),
        "rng.uniforms_per_s": (rate(ua["items"], ua["s"]), "1/s"),
        "simulate.spde_batch.s": (per_req("simulate.spde_batch"), "s/req"),
        "simulate.spde_batch.self_s": (per_req("simulate.spde_batch", "self_s"),
                                       "s/req"),
        "simulate.node_updates_per_s": (rate(node_updates, spde["self_s"]),
                                        "1/s"),
        "simulate.noise_bytes_computed": (8 * sn["items"] / n_req, "B/req"),
        "simulate.worker_busy_frac": (rate(batch_s, wl.workers * engine_s),
                                      "fraction"),
        "simulate.fk_batch.self_s": (per_req("simulate.fk_batch", "self_s"),
                                     "s/req"),
        "simulate.divergent_paths": (divergent / n_req, "count/req"),
        "local_time.sample_from_uniforms.s": (
            per_req("local_time.sample_from_uniforms"), "s/req"),
        "local_time.samples_per_s": (rate(sfu["items"], sfu["s"]), "1/s"),
        "local_time.density.calls": (per_req("local_time.density", "calls"),
                                     "count/req"),
        "local_time.density.s": (per_req("local_time.density"), "s/req"),
    }
    for kind in ("atoms", "lebesgue", "gaussian", "sum"):
        tp = [sp for sp in spans
              if sp["name"] == "measures.two_point" and sp["attr"] == kind]
        m[f"measures.two_point.s.{kind}"] = (
            rate(sum(sp["end"] - sp["start"] for sp in tp), len(tp)), "s/call")
    # Share of request time per measure type, from the untraced requests.
    plain_s = sum(r[3] for rnd in plain for r in rnd)
    for kind in ("atoms", "lebesgue", "gaussian", "sum"):
        m[f"mix.time_share.{kind}"] = (sum(
            dt for rnd in plain for req, _rc, _out, dt in rnd
            if req.info.get("kind") == kind) / plain_s, "fraction")
    m["measures.mean_field.s"] = (span_s(
        lambda sp: sp["name"] == "measures.mean_field"
        and name_of.get(sp["parent"]) != "measures.mean_field") / n_req,
        "s/req")
    m.update({
        "quadrature.integrate_1d.calls": (quad["calls"] / n_req, "count/req"),
        "quadrature.integrand_evals": (
            tot["quadrature.integrand"]["items"] / n_req, "count/req"),
        "quadrature.self_s": (quad["self_s"] / n_req, "s/req"),
        "quadrature.first_try_ratio": (
            rate(quad["calls"], tot["scipy.quad"]["items"]), "ratio"),
        "kernels.covariance_kernel.calls": (cov["calls"] / n_req, "count/req"),
        "kernels.two_point_kernel.calls": (tpk["calls"] / n_req, "count/req"),
        "kernels.ns_per_call": (1e9 * rate(cov["self_s"] + tpk["self_s"],
                                           cov["calls"] + tpk["calls"]), "ns"),
        "kernels.two_point_lebesgue.ns_per_call": (
            1e9 * rate(leb["s"], leb["calls"]), "ns"),
        "gaussian.exp_phi.calls": (ephi["calls"] / n_req, "count/req"),
        "gaussian.exp_phi.elements": (ephi["items"] / n_req, "count/req"),
        "gaussian.exp_phi.ns_per_element": (1e9 * rate(ephi["s"],
                                                       ephi["items"]), "ns"),
        "gaussian.heat_kernel.ns_per_element": (
            1e9 * rate(heat["s"], heat["items"]), "ns"),
        "transforms.laplace_numeric.s": (per_req("transforms.laplace_numeric"),
                                         "s/req"),
    })
    for suite in ("laplace", "identities", "local-time"):
        m[f"verify.suite_s.{suite}"] = (per_req(f"verify.suite.{suite}"),
                                        "s/req")
    m["cli.self_s"] = (per_req("cli.main", "self_s"), "s/req")
    m["trace.requests"] = (n_req, "count")
    m["trace.overhead_pct"] = (overhead_pct, "%")
    m["trace.uncaptured_ns_per_call"] = (1e9 * tracer.uncaptured_s, "ns")
    return m


# ---------------------------------------------------------------------------
# Runs
# ---------------------------------------------------------------------------

def _traced(wl, seconds: float):
    """Untraced rounds for ``seconds / 3``, then the same rounds traced
    (which takes up to three times as long on the quadrature workloads)."""
    plain = run_rounds(wl, seconds=seconds / 3)
    tracer = Tracer()
    with instrument(tracer):
        traced = run_rounds(wl, rounds=len(plain))
    attempted, failed = check_rounds(wl, plain)
    for rnd_p, rnd_t in zip(plain, traced):
        for (req, rc_p, out_p, _), (_, rc_t, out_t, _) in zip(rnd_p, rnd_t):
            attempted += 1
            if rc_p != rc_t or value_fields(out_p) != value_fields(out_t):
                failed.append(f"{' '.join(req.argv)}: traced output differs "
                              "from untraced output")
    plain_s = sum(r[3] for rnd in plain for r in rnd)
    traced_s = sum(r[3] for rnd in traced for r in rnd)
    metrics = layer_metrics(tracer, wl, plain, traced,
                            100.0 * (traced_s / plain_s - 1.0))
    return attempted, failed, metrics, tracer.dump()


def run(workload: str, seed: int, seconds: float, trace: bool,
        tiny: bool = False, probes: int = SETUP_PROBES):
    """One benchmark run; returns (result, environment, trace dump or None)."""
    setup = None if trace else measure_setup(workload, seed, tiny, probes)
    OUT_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(prefix="work-", dir=OUT_DIR) as tmp:
        wl = WORKLOADS[workload](seed, Path(tmp), tiny=tiny)
        env = environment(wl)
        warmup = wl.warmup()
        failed = [f"warm-up {' '.join(argv)} failed"
                  for argv in warmup if call_cli(argv)[0] != 0]
        if trace:
            attempted, failed_run, metrics, dump = _traced(wl, seconds)
        else:
            done = run_rounds(wl, seconds=seconds)
            attempted, failed_run = check_rounds(wl, done)
            metrics = {
                "ops_per_s": (throughput(done), "1/s"),
                "setup_s": (statistics.median(setup), "s"),
                "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF)
                                .ru_maxrss / 1024.0, "MB"),
            }
            dump = None
    failed += failed_run
    attempted += len(warmup)

    for reason in failed:
        sys.stderr.write(f"FAILED {reason}\n")
    result = {
        "correct": not failed,
        "attempted": attempted,
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return result, env, dump


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=16.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--tiny", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")

    try:
        _import_package()
    except (ImportError, FileNotFoundError) as exc:
        print(f"bench: cannot import she_moments from this checkout: {exc}",
              file=sys.stderr)
        return 2
    if args.setup_probe:
        return setup_probe(args.workload, args.seed, args.tiny)

    result, env, dump = run(args.workload, args.seed, args.seconds,
                            bool(args.trace), tiny=args.tiny)
    if dump is not None:
        path = OUT_DIR / f"trace-{args.workload}-{args.seed}.json"
        path.write_text(json.dumps({"environment": env, **dump}))
    print(json.dumps({"environment": env}, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
