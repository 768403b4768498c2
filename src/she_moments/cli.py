"""Command-line surface: kernel tables, two-point evaluation, verification
suites, Monte Carlo runs, and local-time tables, all with reproducible
manifests.

Conventions:

* grids are ``start:stop:count`` with inclusive endpoints (or a single
  number), so table shapes are deterministic;
* CSV output is RFC-4180 (CRLF rows); JSON output has sorted keys;
* every stochastic output embeds a manifest (command, full config echo,
  seed, library version, timestamp); rerunning from the manifest
  reproduces the value fields bit-exactly;
* exit codes: 0 ok, 1 verification failure, 2 usage/config, 3 domain,
  4 inadmissible measure, 5 divergence.

Which number came from which route is always explicit (``--method``,
``--engine``); nothing falls back silently.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import sys
from datetime import datetime, timezone

import numpy as np

from . import __version__
from .errors import (ConfigError, DivergenceError, DomainError,
                     InadmissibleMeasureError, KernelOverflowError, PoleError,
                     QuadratureError)
from .kernels import (KernelParams, TwoPointQuery, covariance_kernel,
                      mgf_local_time, second_moment_kernel,
                      second_moment_time_factor, two_point_kernel,
                      two_point_time_factor)
from .local_time import JointLocalTimeLaw
from .measures import (DensityMeasure, GrowthCertificate, LebesgueScaled,
                       closed_two_point, parse_measure, two_point)
from .simulate import (McConfig, RhoSpec, SpdeGrid, fk_two_point,
                       fk_two_point_occupation, spde_estimate_two_point)
from .verify import SUITE_NAMES, run_suite

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_USAGE = 2
EXIT_DOMAIN = 3
EXIT_MEASURE = 4
EXIT_DIVERGENCE = 5

REL_DIFF_GATE = 1e-6


def _parse_grid(text: str) -> np.ndarray:
    """``start:stop:count`` (inclusive) or a single float."""
    parts = text.split(":")
    if len(parts) not in (1, 3):
        raise ConfigError(f"grid must be start:stop:count, got {text!r}")
    try:
        if len(parts) == 1:
            start = stop = float(text)
            count = 1
        else:
            start, stop, count = (float(parts[0]), float(parts[1]),
                                  int(parts[2]))
    except ValueError as exc:
        raise ConfigError(f"grid must be start:stop:count or a number, "
                          f"got {text!r}") from exc
    if not (math.isfinite(start) and math.isfinite(stop)):
        raise ConfigError(f"grid values must be finite, got {text!r}")
    if count < 1:
        raise ConfigError(f"grid count must be >= 1, got {count}")
    return np.linspace(start, stop, count)


def _write_csv(rows: list[dict], path: str | None) -> None:
    """Write ``rows`` as CSV, or nothing at all if a value is not finite: a
    kernel or moment that overflows (or an inf * 0) is an error, not output."""
    for row in rows:
        for key, value in row.items():
            if isinstance(value, float) and not math.isfinite(value):
                raise KernelOverflowError(f"{key} is not finite: {value}")
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=list(rows[0].keys()))
    writer.writeheader()
    writer.writerows(rows)
    _write(buf.getvalue(), path)


def _write_json(obj, path: str | None) -> None:
    _write(json.dumps(obj, sort_keys=True, indent=2) + "\n", path)


def _write(data: str, path: str | None) -> None:
    """``data`` as it is to the file ``path`` (``--out``), or to stdout."""
    if path:
        with open(path, "w", newline="") as fh:
            fh.write(data)
    else:
        sys.stdout.write(data)


def _read_json(path: str):
    """The JSON document in the UTF-8 file ``path``."""
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _manifest(command: str, config_echo: dict, seed: int | None) -> dict:
    return {
        "command": command,
        "config_echo": config_echo,
        "seed": seed,
        "library_version": __version__,
        "timestamp": datetime.now(timezone.utc).isoformat(),
    }


# ---------------------------------------------------------------------------
# kernel
# ---------------------------------------------------------------------------

def _cmd_kernel(args) -> int:
    # Every grid is parsed, whichever kernel reads it: a malformed grid is
    # exit 2 for every --which.
    xs, z1s, z2s, ys = (_parse_grid(g)
                        for g in (args.x, args.z1, args.z2, args.y))
    params = KernelParams(nu=args.nu, lam=args.lam)
    t = args.t
    rows: list[dict] = []
    base = {"t": t, "nu": args.nu, "lambda": args.lam}
    if args.which == "H":
        rows.append(dict(base, value=second_moment_time_factor(t, params)))
    elif args.which in ("K", "Htilde"):
        fn = (second_moment_kernel if args.which == "K"
              else two_point_time_factor)
        for x in xs:
            rows.append(dict(base, x=float(x),
                             value=float(fn(t, float(x), params))))
    else:
        kern = covariance_kernel if args.which == "Kdagger" else two_point_kernel
        for z1 in z1s:
            for z2 in z2s:
                for y in ys:
                    rows.append(dict(base, z1=float(z1), z2=float(z2),
                                     y=float(y),
                                     value=float(kern(t, float(z1), float(z2),
                                                      float(y), params))))
    _write_csv(rows, args.out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# two-point / second-moment
# ---------------------------------------------------------------------------

def _cmd_two_point(args) -> int:
    """``two-point``, and ``second-moment`` as its diagonal x1 = x2 = x
    (reported in one ``x`` column)."""
    mu = parse_measure(_read_json(args.measure))
    params = KernelParams(nu=args.nu, lam=args.lam)
    if args.command == "second-moment":
        points = {"x": args.x}
        q = TwoPointQuery(t=args.t, x1=args.x, x2=args.x)
    else:
        points = {"x1": args.x1, "x2": args.x2}
        q = TwoPointQuery(t=args.t, x1=args.x1, x2=args.x2)
    row = {"t": args.t, **points, "nu": args.nu, "lambda": args.lam,
           "method": args.method}
    code = EXIT_OK
    if args.method == "quadrature":
        row["value"] = two_point(q, mu, params, formula="direct")
    else:
        row["value"] = closed = closed_two_point(q, mu, params)
    if args.method == "both":
        quad = two_point(q, mu, params, formula="direct")
        rel = abs(closed - quad) / max(abs(closed), abs(quad), 1e-300)
        row.update(value_quadrature=quad, rel_diff=rel)
        if rel > REL_DIFF_GATE:
            code = EXIT_VERIFY_FAIL
    _write_csv([row], args.out)
    return code


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def _cmd_verify(args) -> int:
    checks = run_suite(args.suite)
    all_pass = all(c["status"] == "pass" for c in checks)
    report = {"suite": args.suite, "library_version": __version__,
              "all_pass": all_pass, "checks": checks}
    _write_json(report, args.out)
    return EXIT_OK if all_pass else EXIT_VERIFY_FAIL


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

def _field(cfg: dict, key: str, kind=float, default=None):
    """``kind(cfg[key])``, or of ``default`` when the key is absent and a
    default is given.  Anything but a finite JSON number (a numeric string
    or a bool included), and for a count (``kind=int``) anything but an
    integral one, is a ConfigError."""
    value = cfg[key] if default is None else cfg.get(key, default)
    try:
        number = kind(value)
        if (type(value) in (int, float) and math.isfinite(number)
                and (kind is float or number == value)):
            return number
    except (TypeError, ValueError, OverflowError):
        pass
    raise ConfigError(f"config field {key!r} must be a finite"
                      f"{' integral' if kind is int else ''} JSON number, "
                      f"got {value!r}")


def _section(cfg: dict, key: str, default=None) -> dict:
    """``cfg[key]``, or ``default`` when the key is absent and a default is
    given.  A section that is not a JSON object is a ConfigError."""
    value = cfg[key] if default is None else cfg.get(key, default)
    if not isinstance(value, dict):
        raise ConfigError(f"config section {key!r} must be an object, "
                          f"got {value!r}")
    return value


def _simulation(engine: str, config: dict, overrides: dict):
    """Read every field of a simulate config once, with ``overrides``
    replacing entries of its ``mc`` section.  Returns the Monte Carlo
    settings and two thunks over the same typed objects: the closed-form
    oracle, whose own requirements wait until it is called, and the run."""
    if not isinstance(config, dict):
        raise ConfigError(f"simulate config must be an object, got {config!r}")
    mc_cfg = dict(_section(config, "mc", {}), **overrides)
    mc = McConfig(n_paths=_field(mc_cfg, "n_paths", int, 10000),
                  seed=_field(mc_cfg, "seed", int, 0),
                  batch_size=_field(mc_cfg, "batch_size", int, 256),
                  workers=_field(mc_cfg, "workers", int, 1))
    q = TwoPointQuery(t=_field(config, "t"),
                      x1=_field(config, "x1", default=0.0),
                      x2=_field(config, "x2", default=0.0))
    nu = _field(config, "nu", default=1.0)
    lam = _field(config, "lambda", default=0.0)  # spde couples via rho.lam

    if engine == "spde":
        gcfg = _section(config, "grid")
        grid = SpdeGrid(L=_field(gcfg, "L"), dx=_field(gcfg, "dx"),
                        dt=_field(gcfg, "dt"), t_final=q.t,
                        boundary=gcfg.get("boundary", "neumann0"))
        mu = parse_measure(config["measure"])
        rcfg = _section(config, "rho")
        rho = RhoSpec(rcfg["kind"], lam=_field(rcfg, "lam", default=0.0),
                      clip=_field(rcfg, "clip", default=0.0))

        def spde_oracle() -> float:
            if rho.kind != "linear":
                raise ConfigError("--oracle requires a linear rho preset")
            return closed_two_point(q, mu, KernelParams(nu=nu, lam=rho.lam))
        return mc, spde_oracle, lambda: spde_estimate_two_point(
            q, mu, rho, nu, grid, mc)

    ucfg = _section(config, "u0", {"kind": "constant", "value": 1.0})
    kind = ucfg.get("kind")
    if kind == "constant":
        u0 = LebesgueScaled(_field(ucfg, "value"))
    elif kind == "indicator":
        lo, hi = _field(ucfg, "lo"), _field(ucfg, "hi")
        if not lo < hi:
            raise ConfigError("indicator requires lo < hi")
        u0 = DensityMeasure(
            lambda x: ((np.asarray(x) >= lo)
                       & (np.asarray(x) <= hi)).astype(float),
            GrowthCertificate(1.0), nonnegative=True, support=(lo, hi))
    else:
        raise ConfigError(f"unknown u0 kind {kind!r}")

    def fk_oracle() -> float:
        # An indicator's jumps run diagonally across the split route's
        # rotated panels, where it raises QuadratureError.
        if kind != "constant":
            raise ConfigError("--oracle for fk engines requires constant u0")
        return closed_two_point(q, u0, KernelParams(nu=nu, lam=lam))
    if engine == "fk":
        return mc, fk_oracle, lambda: fk_two_point(q, u0, nu, lam, mc)
    if engine == "fk-occupation":
        eps, n_steps = _field(config, "eps"), _field(config, "n_steps", int)
        return mc, fk_oracle, lambda: fk_two_point_occupation(
            q, u0, nu, lam, mc, eps=eps, n_steps=n_steps)
    raise ConfigError(f"unknown engine {engine!r}")


def _cmd_simulate(args) -> int:
    if args.from_manifest:
        previous = _read_json(args.from_manifest)
        if not isinstance(previous, dict):
            raise ConfigError(f"a run file must be an object, got {previous!r}")
        manifest = _section(previous, "manifest")
        echo = _section(manifest, "config_echo")
        engine, config, seed = echo["engine"], echo["config"], manifest["seed"]
    else:
        if not args.config:
            raise ConfigError("either --config or --from-manifest is required")
        config = _read_json(args.config)
        engine = args.engine
        seed = args.seed
    overrides = {"seed": seed, "n_paths": args.paths, "workers": args.workers}
    mc, oracle, run = _simulation(engine, config, {
        key: value for key, value in overrides.items() if value is not None})

    # The oracle is cheap and may be out of range (exp overflow at large
    # lambda); find that out before paying for the Monte Carlo.
    oracle_value = oracle() if args.oracle else None
    estimate = run()

    echo = {"engine": engine, "config": config,
            "mc": {"n_paths": mc.n_paths, "seed": mc.seed,
                   "batch_size": mc.batch_size, "workers": mc.workers}}
    out = {
        "value": estimate.value,
        "std_error": estimate.std_error,
        "n": estimate.n,
        "divergent_paths": estimate.n_divergent,
        "config_echo": echo,
        "manifest": _manifest("simulate", echo, mc.seed),
    }
    if oracle_value is not None:
        # With no spread there is nothing to scale the difference by.
        z = ((estimate.value - oracle_value) / estimate.std_error
             if estimate.std_error > 0 else None)
        out["oracle"] = {"value": oracle_value, "z_score": z}
    _write_json(out, args.out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# local-time
# ---------------------------------------------------------------------------

def _cmd_local_time(args) -> int:
    if args.lt_command == "mgf":
        rows = [{"t": args.t, "a": args.a, "lambda": args.lam,
                 "value": mgf_local_time(args.t, args.a, args.lam)}]
    else:
        law = JointLocalTimeLaw(t=args.t, a=args.a)
        if args.lt_command == "density":
            rows = [{"y": float(y), "v": float(v),
                     "f": law.density_cont(float(y), float(v))}
                    for y in _parse_grid(args.y) for v in _parse_grid(args.v)]
        else:
            if args.n < 1:
                raise ConfigError(f"sample requires --n >= 1, got {args.n}")
            y, v = law.sample(np.random.default_rng(args.seed), size=args.n)
            rows = [{"y": float(yi), "v": float(vi)} for yi, vi in zip(y, v)]
    _write_csv(rows, args.out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser / entry point
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: building it costs more
    than a closed-form query, and parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="she-moments",
        description="Moment kernels of the multiplicative stochastic heat "
                    "equation, the Brownian local-time law, and Monte Carlo "
                    "cross-verifiers.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    k = sub.add_parser("kernel", help="tabulate a closed-form kernel")
    k.add_argument("--which", required=True,
                   choices=["K", "Kdagger", "Kstar", "H", "Htilde"])
    k.add_argument("--t", type=float, required=True)
    k.add_argument("--nu", type=float, default=1.0)
    k.add_argument("--lambda", dest="lam", type=float, default=1.0)
    k.add_argument("--x", default="0")
    k.add_argument("--z1", default="0")
    k.add_argument("--z2", default="0")
    k.add_argument("--y", default="0")
    k.add_argument("--out")
    k.set_defaults(func=_cmd_kernel)

    for name, what, points in (("two-point", "two-point correlation",
                                ("--x1", "--x2")),
                               ("second-moment", "second moment", ("--x",))):
        tp = sub.add_parser(name, help=f"{what} for a measure file")
        tp.add_argument("--measure", required=True)
        tp.add_argument("--t", type=float, required=True)
        for flag in points:
            tp.add_argument(flag, type=float, required=True)
        tp.add_argument("--nu", type=float, default=1.0)
        tp.add_argument("--lambda", dest="lam", type=float, default=1.0)
        tp.add_argument("--method", choices=["closed", "quadrature", "both"],
                        default="closed")
        tp.add_argument("--out")
        tp.set_defaults(func=_cmd_two_point)

    v = sub.add_parser("verify", help="run a deterministic verification suite")
    v.add_argument("--suite", required=True, choices=list(SUITE_NAMES))
    v.add_argument("--out")
    v.set_defaults(func=_cmd_verify)

    s = sub.add_parser("simulate", help="run a Monte Carlo engine")
    s.add_argument("--engine", choices=["spde", "fk", "fk-occupation"],
                   default="fk")
    s.add_argument("--config")
    s.add_argument("--from-manifest")
    s.add_argument("--seed", type=int)
    s.add_argument("--paths", type=int)
    s.add_argument("--workers", type=int)
    s.add_argument("--oracle", action="store_true")
    s.add_argument("--out")
    s.set_defaults(func=_cmd_simulate)

    lt = sub.add_parser("local-time", help="joint local-time law tables")
    lt_sub = lt.add_subparsers(dest="lt_command", required=True)
    ltd = lt_sub.add_parser("density")
    ltd.add_argument("--t", type=float, required=True)
    ltd.add_argument("--a", type=float, required=True)
    ltd.add_argument("--y", default="-2:2:9")
    ltd.add_argument("--v", default="0.1:2:5")
    ltd.add_argument("--out")
    lts = lt_sub.add_parser("sample")
    lts.add_argument("--t", type=float, required=True)
    lts.add_argument("--a", type=float, required=True)
    lts.add_argument("--n", type=int, required=True)
    lts.add_argument("--seed", type=int, default=0)
    lts.add_argument("--out")
    ltm = lt_sub.add_parser("mgf")
    ltm.add_argument("--t", type=float, required=True)
    ltm.add_argument("--a", type=float, required=True)
    ltm.add_argument("--lambda", dest="lam", type=float, required=True)
    ltm.add_argument("--out")
    lt.set_defaults(func=_cmd_local_time)

    return parser


_VALUE_FLAGS = {"--x", "--z1", "--z2", "--y", "--v", "--x1", "--x2", "--a",
                "--t", "--lambda", "--nu"}
_GRID_CHARS = set("0123456789.:eE+-")


def _normalise_argv(argv: list[str]) -> list[str]:
    """Join flag/value pairs whose value starts with '-' (e.g. --x -2:2:5),
    which argparse would otherwise read as an option."""
    out: list[str] = []
    skip = False
    for i, tok in enumerate(argv):
        if skip:
            skip = False
            continue
        nxt = argv[i + 1] if i + 1 < len(argv) else None
        if (tok in _VALUE_FLAGS and nxt is not None and nxt.startswith("-")
                and set(nxt) <= _GRID_CHARS and any(c.isdigit() for c in nxt)):
            out.append(f"{tok}={nxt}")
            skip = True
        else:
            out.append(tok)
    return out


def main(argv=None) -> int:
    parser = build_parser()
    if argv is None:
        argv = sys.argv[1:]
    args = parser.parse_args(_normalise_argv(list(argv)))
    try:
        return args.func(args)
    except InadmissibleMeasureError as exc:
        print(f"inadmissible measure: {exc}", file=sys.stderr)
        return EXIT_MEASURE
    # OSError: an --out, --measure, --config or --from-manifest path that
    # cannot be opened; MemoryError: a grid, --n or --paths too large.
    except (ConfigError, KeyError, OSError, UnicodeDecodeError, MemoryError,
            json.JSONDecodeError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (DomainError, PoleError, KernelOverflowError,
            QuadratureError) as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except DivergenceError as exc:
        print(f"divergence: {exc}", file=sys.stderr)
        return EXIT_DIVERGENCE


if __name__ == "__main__":
    sys.exit(main())
