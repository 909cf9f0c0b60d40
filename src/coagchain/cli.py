"""Command-line interface.

Subcommands: ``spectrum``, ``gap-impurity``, ``gap-quench``, ``verify``,
``simulate``; each declares only the options it reads.  Exit codes: 0
success (``--help`` too); 1 validation failure: a chain that breaks the
rate bounds, the only gate (p*q = 0 chains get their spectrum too), or a
usage error (an unknown option, a count like ``--points`` that is not a
whole number >= 1, an ``--out`` path that cannot be written); 2 internal
consistency failure, a failed ``verify`` check included; 3 size guard.
All numeric output uses 12 significant digits so runs are byte-for-byte
reproducible and tolerances are auditable.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from .errors import (ChainValidationError, ConsistencyError,
                     DegenerateModeError, SizeLimitError)
from .gillespie import (_HISTOGRAM_MAX_SITES, LatticeState,
                        run as run_simulation)
from .model import RateTriple, load_chain
from .report import spectrum_report
from .sweeps import impurity_gap_sweep, quench_gap_sweep, sweep_rows
from .verify import run_verification

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_CONSISTENCY = 2
EXIT_SIZE = 3

FIG3_THETAS = (0.1, 0.5, 0.6, 0.65)
FIG5_DELTAS1 = (0.5, 1.0, 2.0)


def _fmt(x) -> str:
    if x is None:
        return ""
    if isinstance(x, float):
        return f"{x:.12g}"
    return str(x)


def _csv(header, rows) -> str:
    lines = [",".join(header)]
    lines += [",".join(_fmt(row[h]) for h in header) for row in rows]
    return "\n".join(lines) + "\n"


def _write(text, out, name="", mode="w"):
    """Write to the file ``out + name``, or to stdout when ``out`` is None."""
    if out is None:
        sys.stdout.write(text)
        return
    try:
        with open(out + name, mode) as fh:
            fh.write(text)
    except OSError as exc:
        raise ChainValidationError(
            f"cannot write {out + name}: {exc.strerror or exc}") from exc


def _check_writable(out, names):
    """Fail as ``_write`` would, before any work; probe files are removed."""
    for name in names if out is not None else ():
        created = not os.path.exists(out + name)
        _write("", out, name, mode="a")
        if created:
            os.remove(out + name)


def _checked(rule, ok, convert=float):
    """An argparse action storing ``convert(value)`` if ``ok(value)``."""
    class Checked(argparse.Action):
        def __call__(self, parser, namespace, value, option_string=None):
            if not ok(value):
                parser.error(f"{option_string} must be {rule}, got {value:g}")
            setattr(namespace, self.dest, convert(value))
    return Checked


# counts accept 1e6 too; NaN fails every comparison, so it is no number > 0
_Count = _checked(">= 1 and whole", lambda v: v.is_integer() and v >= 1, int)
_Positive = _checked("a number > 0", lambda v: v > 0)


def cmd_spectrum(args) -> int:
    _check_writable(args.out, ["spectrum.json"]
                    + ["one_particle.csv"] * args.one_particle)
    report = spectrum_report(load_chain(args.spec), include_full=args.full)
    _write(json.dumps(report.to_dict(), indent=2, sort_keys=True,
                      default=float) + "\n", args.out, "spectrum.json")
    if args.one_particle:
        values, labels = report.one_particle.excitations()
        route = report.one_particle.route
        rows = [{"label": "zero", "lambda": 0.0, "route": route}]
        rows += [{"label": "bulk" if lab.startswith("bulk") else lab,
                  "lambda": float(lam), "route": route}
                 for lab, lam in zip(labels, values)]
        _write(_csv(["label", "lambda", "route"], rows), args.out,
               "one_particle.csv")
    return EXIT_OK


def _write_sweep(points, x_name, out, name):
    """Report skipped grid points on stderr and write the sweep CSV."""
    rows = sweep_rows(points, x_name)
    for r in rows:
        if r["error"]:
            print(f"# skipped {x_name}={_fmt(r[x_name])}: {r['error']}",
                  file=sys.stderr)
    _write(_csv([x_name, "gap", "omega", "pair", "route"], rows), out, name)


def cmd_gap_impurity(args) -> int:
    thetas = args.theta if args.theta else list(FIG3_THETAS)
    names = [f"gap_impurity_theta{theta:g}.csv" for theta in thetas]
    _check_writable(args.out, names)
    s_lo = args.s_min if args.s_min is not None else -min(args.p, args.q)
    s_grid = np.linspace(s_lo, args.s_max, args.points)
    for theta, name in zip(thetas, names):
        rates = RateTriple.from_theta(args.p, args.q, theta)
        _write_sweep(impurity_gap_sweep(rates, args.length, s_grid), "s",
                     args.out, name)
    return EXIT_OK


def cmd_gap_quench(args) -> int:
    deltas1 = args.delta1 if args.delta1 else list(FIG5_DELTAS1)
    names = [f"gap_quench_delta1_{d1:g}.csv" for d1 in deltas1]
    _check_writable(args.out, names)
    for d1, name in zip(deltas1, names):
        grid = np.linspace(args.d2_lo_factor * d1, args.d2_hi_factor * d1,
                           args.points)
        points = quench_gap_sweep(args.p1, args.q1, args.p2, args.q2,
                                  d1, args.length, grid)
        _write_sweep(points, "delta2", args.out, name)
    return EXIT_OK


def cmd_verify(args) -> int:
    spec = load_chain(args.spec)
    results = run_verification(spec, level=args.level)
    not_run = [r.name for r in results if r.detail.startswith("skipped")]
    for res in results:
        status = ("skipped" if res.name in not_run
                  else "ok" if res.passed else "FAIL")
        resid = "" if res.residual is None else f" residual={_fmt(res.residual)}"
        print(f"[{status}] {res.name}{resid}  {res.detail}")
    if all(res.passed for res in results):
        print("all checks that ran passed; not run: " + ", ".join(not_run)
              if not_run else "all checks passed")
        return EXIT_OK
    return EXIT_CONSISTENCY if results[0].passed else EXIT_VALIDATION


def cmd_simulate(args) -> int:
    _check_writable(args.out, [""])
    spec = load_chain(args.spec)
    n = spec.n_sites
    if args.initial == "full":
        initial = LatticeState.full(n)
    elif args.initial == "empty":
        initial = LatticeState.empty(n)
    else:
        if len(args.initial) != n or set(args.initial) - {"0", "1"}:
            raise ChainValidationError(
                f"--initial must be 'full', 'empty', or {n} binary digits")
        initial = LatticeState.from_bits([int(c) for c in args.initial])
    result = run_simulation(spec, initial, args.events, seed=args.seed,
                            t_max=args.t_max)
    if result.stop == "absorbed":
        print(f"# absorbed after {result.n_events} events", file=sys.stderr)
    elif result.stop == "t_max":
        print(f"# t_max reached after {result.n_events} events",
              file=sys.stderr)
    if args.profile or n > _HISTOGRAM_MAX_SITES:
        profile = result.density_profile()
        rows = [{"site": k + 1, "density": float(profile[k])}
                for k in range(n)]
        _write(_csv(["site", "density"], rows), args.out)
    else:
        hist = result.histogram()
        rows = [{"config": format(c, f"0{n}b"), "weight": w}
                for c, w in sorted(hist.items())]
        _write(_csv(["config", "weight"], rows), args.out)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="coagchain",
        description="Exact spectra of coagulation/decoagulation chains "
                    "with an impurity bond")
    sub = parser.add_subparsers(dest="command", required=True)
    spec_help = "chain definition (JSON file)"
    out_help = "output path or prefix (default: stdout)"
    length_help = "sites per segment"

    p = sub.add_parser("spectrum", help="spectral report for one chain")
    p.add_argument("--spec", required=True, help=spec_help)
    p.add_argument("--out", help=out_help)
    p.add_argument("--one-particle", action="store_true",
                   help="also emit the labeled one-particle energies as CSV")
    p.add_argument("--full", action="store_true",
                   help="include all 2^N assembled eigenvalues (N <= 20)")
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("gap-impurity",
                       help="gap vs junction shift s for the impurity chain")
    p.add_argument("--out", help=out_help)
    p.add_argument("--length", type=float, action=_Count, default=60,
                   help=length_help)
    p.add_argument("--p", type=float, default=0.5)
    p.add_argument("--q", type=float, default=3.0)
    p.add_argument("--theta", type=float, action="append",
                   help="may repeat; default 0.1 0.5 0.6 0.65")
    p.add_argument("--points", type=float, action=_Count, default=200)
    p.add_argument("--s-min", type=float, default=None,
                   help="default -min(p, q)")
    p.add_argument("--s-max", type=float, default=3.0)
    p.set_defaults(func=cmd_gap_impurity)

    p = sub.add_parser("gap-quench",
                       help="gap vs delta2 for the spatial-quench chain")
    p.add_argument("--out", help=out_help)
    p.add_argument("--length", type=float, action=_Count, default=60,
                   help=length_help)
    p.add_argument("--p1", type=float, default=0.6)
    p.add_argument("--q1", type=float, default=6.0)
    p.add_argument("--p2", type=float, default=6.0)
    p.add_argument("--q2", type=float, default=0.2)
    p.add_argument("--delta1", type=float, action="append",
                   help="may repeat; default 0.5 1.0 2.0")
    p.add_argument("--points", type=float, action=_Count, default=200)
    p.add_argument("--d2-lo-factor", type=float, default=0.2,
                   help="grid start as a multiple of delta1")
    p.add_argument("--d2-hi-factor", type=float, default=2.0,
                   help="grid end as a multiple of delta1")
    p.set_defaults(func=cmd_gap_quench)

    p = sub.add_parser("verify", help="run the consistency-check battery")
    p.add_argument("--spec", required=True, help=spec_help)
    p.add_argument("--level", choices=("quick", "full"), default="full")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("simulate", help="stochastic simulation of one chain")
    p.add_argument("--spec", required=True, help=spec_help)
    p.add_argument("--out", help=out_help)
    p.add_argument("--seed", type=int, default=42, help="RNG seed")
    p.add_argument("--events", type=float, action=_Count, default=1_000_000,
                   help="number of transitions to simulate")
    p.add_argument("--t-max", type=float, action=_Positive, default=None,
                   help="stop at this simulated time (a number > 0)")
    p.add_argument("--initial", default="full",
                   help="'full', 'empty', or an explicit bitstring")
    p.add_argument("--profile", action="store_true",
                   help="emit the site-density profile instead of the "
                        "configuration histogram")
    p.set_defaults(func=cmd_simulate)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse: 0 after --help, 2 on misuse
        return EXIT_VALIDATION if exc.code else EXIT_OK
    try:
        return args.func(args)
    except ChainValidationError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except (ConsistencyError, DegenerateModeError) as exc:
        print(f"internal consistency error: {exc}", file=sys.stderr)
        return EXIT_CONSISTENCY
    except SizeLimitError as exc:
        print(f"size guard: {exc}", file=sys.stderr)
        return EXIT_SIZE


def entry() -> None:  # console-script wrapper
    sys.exit(main())


if __name__ == "__main__":
    entry()
