"""Command-line interface.

Subcommands: ``spectrum``, ``gap-impurity``, ``gap-quench``, ``verify``,
``simulate``.  Exit codes: 0 success, 1 validation failure, 2 internal
consistency failure, 3 size guard.  All numeric output uses 12
significant digits so runs are byte-for-byte reproducible and tolerances
are auditable.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from .errors import (AnalyticPathError, ChainValidationError,
                     ConsistencyError, DegenerateModeError, SizeLimitError)
from .gillespie import LatticeState, run as run_simulation
from .generator import assemble_generator, brute_force_spectrum
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


def _write_csv(path, header, rows):
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(row[h]) for h in header))
    text = "\n".join(lines) + "\n"
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


def _emit_json(doc, path):
    text = json.dumps(doc, indent=2, sort_keys=True,
                      default=lambda v: float(v)) + "\n"
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


def _add_common(parser, spec_required=False):
    parser.add_argument("--spec", required=spec_required,
                        help="chain definition (JSON file)")
    parser.add_argument("--out", default=None,
                        help="output path or prefix (default: stdout)")
    parser.add_argument("--seed", type=int, default=42, help="RNG seed")
    parser.add_argument("--length", type=int, default=None,
                        help="sites per segment for generated chains")


def cmd_spectrum(args) -> int:
    spec = load_chain(args.spec)
    report = spectrum_report(spec, include_full=args.full,
                             brute_force=args.brute_force)
    prefix = args.out
    _emit_json(report.to_dict(),
               None if prefix is None else f"{prefix}spectrum.json")
    if args.one_particle:
        values, labels = report.one_particle.excitations()
        route = report.one_particle.route
        rows = [{"label": "zero", "lambda": 0.0, "route": route}]
        rows += [{"label": "bulk" if lab.startswith("bulk") else lab,
                  "lambda": float(lam), "route": route}
                 for lab, lam in zip(labels, values)]
        _write_csv(None if prefix is None else f"{prefix}one_particle.csv",
                   ["label", "lambda", "route"], rows)
    if args.brute_force:
        ev = brute_force_spectrum(assemble_generator(spec))
        rows = [{"re": float(v.real), "im": float(v.imag)} for v in ev]
        _write_csv(None if prefix is None else f"{prefix}brute_force.csv",
                   ["re", "im"], rows)
    return EXIT_OK


def _write_sweep(points, x_name, path):
    """Report skipped grid points on stderr and write the sweep CSV."""
    rows = sweep_rows(points, x_name)
    for r in rows:
        if r["error"]:
            print(f"# skipped {x_name}={_fmt(r[x_name])}: {r['error']}",
                  file=sys.stderr)
    _write_csv(path, [x_name, "gap", "omega", "pair", "route"], rows)


def _sweep_length(args) -> int:
    """Sites per segment; a bad value fails the whole sweep, not each point."""
    L = args.length or 60
    if L < 1:
        raise ChainValidationError(f"--length must be >= 1, got {L}")
    return L


def cmd_gap_impurity(args) -> int:
    thetas = args.theta if args.theta else list(FIG3_THETAS)
    L = _sweep_length(args)
    s_lo = args.s_min if args.s_min is not None else -min(args.p, args.q)
    s_grid = np.linspace(s_lo, args.s_max, args.points)
    for theta in thetas:
        rates = RateTriple.from_theta(args.p, args.q, theta)
        path = None
        if args.out is not None:
            path = f"{args.out}gap_impurity_theta{theta:g}.csv"
        _write_sweep(impurity_gap_sweep(rates, L, s_grid), "s", path)
    return EXIT_OK


def cmd_gap_quench(args) -> int:
    deltas1 = args.delta1 if args.delta1 else list(FIG5_DELTAS1)
    L = _sweep_length(args)
    for d1 in deltas1:
        grid = np.linspace(args.d2_lo_factor * d1, args.d2_hi_factor * d1,
                           args.points)
        points = quench_gap_sweep(args.p1, args.q1, args.p2, args.q2,
                                  d1, L, grid)
        path = None
        if args.out is not None:
            path = f"{args.out}gap_quench_delta1_{d1:g}.csv"
        _write_sweep(points, "delta2", path)
    return EXIT_OK


def cmd_verify(args) -> int:
    spec = load_chain(args.spec)
    results = run_verification(spec, level=args.level)
    all_ok = True
    for res in results:
        status = "ok" if res.passed else "FAIL"
        resid = "" if res.residual is None else f" residual={_fmt(res.residual)}"
        print(f"[{status}] {res.name}{resid}  {res.detail}")
        all_ok = all_ok and res.passed
    if all_ok:
        print("all checks passed")
        return EXIT_OK
    if not results[0].passed:
        return EXIT_VALIDATION
    return EXIT_CONSISTENCY


def cmd_simulate(args) -> int:
    spec = load_chain(args.spec)
    n = spec.n_sites
    if args.initial == "full":
        initial = LatticeState.full(n)
    elif args.initial == "empty":
        initial = LatticeState.empty(n)
    else:
        bits = [int(c) for c in args.initial]
        if len(bits) != n or any(b not in (0, 1) for b in bits):
            raise ChainValidationError(
                f"initial state must be 'full', 'empty', or {n} binary digits")
        initial = LatticeState.from_bits(bits)
    result = run_simulation(spec, initial, int(float(args.events)),
                            seed=args.seed, t_max=args.t_max)
    if args.profile or n > 16:
        profile = result.density_profile()
        rows = [{"site": k + 1, "density": float(profile[k])}
                for k in range(n)]
        _write_csv(args.out, ["site", "density"], rows)
    else:
        hist = result.histogram()
        rows = [{"config": format(c, f"0{n}b"), "weight": w}
                for c, w in sorted(hist.items())]
        _write_csv(args.out, ["config", "weight"], rows)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="coagchain",
        description="Exact spectra of coagulation/decoagulation chains "
                    "with an impurity bond")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("spectrum", help="spectral report for one chain")
    _add_common(p, spec_required=True)
    p.add_argument("--one-particle", action="store_true",
                   help="also emit the labeled one-particle energies as CSV")
    p.add_argument("--full", action="store_true",
                   help="include all 2^N assembled eigenvalues (N <= 20)")
    p.add_argument("--brute-force", action="store_true",
                   help="also diagonalize the full generator and compare")
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("gap-impurity",
                       help="gap vs junction shift s for the impurity chain")
    _add_common(p)
    p.add_argument("--p", type=float, default=0.5)
    p.add_argument("--q", type=float, default=3.0)
    p.add_argument("--theta", type=float, action="append",
                   help="may repeat; default 0.1 0.5 0.6 0.65")
    p.add_argument("--points", type=int, default=200)
    p.add_argument("--s-min", type=float, default=None,
                   help="default -min(p, q)")
    p.add_argument("--s-max", type=float, default=3.0)
    p.set_defaults(func=cmd_gap_impurity)

    p = sub.add_parser("gap-quench",
                       help="gap vs delta2 for the spatial-quench chain")
    _add_common(p)
    p.add_argument("--p1", type=float, default=0.6)
    p.add_argument("--q1", type=float, default=6.0)
    p.add_argument("--p2", type=float, default=6.0)
    p.add_argument("--q2", type=float, default=0.2)
    p.add_argument("--delta1", type=float, action="append",
                   help="may repeat; default 0.5 1.0 2.0")
    p.add_argument("--points", type=int, default=200)
    p.add_argument("--d2-lo-factor", type=float, default=0.2,
                   help="grid start as a multiple of delta1")
    p.add_argument("--d2-hi-factor", type=float, default=2.0,
                   help="grid end as a multiple of delta1")
    p.set_defaults(func=cmd_gap_quench)

    p = sub.add_parser("verify", help="run the consistency-check battery")
    _add_common(p, spec_required=True)
    p.add_argument("--level", choices=("quick", "full"), default="full")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("simulate", help="stochastic simulation of one chain")
    _add_common(p, spec_required=True)
    p.add_argument("--events", default="1e6",
                   help="number of transitions to simulate")
    p.add_argument("--t-max", type=float, default=None)
    p.add_argument("--initial", default="full",
                   help="'full', 'empty', or an explicit bitstring")
    p.add_argument("--profile", action="store_true",
                   help="emit the site-density profile instead of the "
                        "configuration histogram")
    p.set_defaults(func=cmd_simulate)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ChainValidationError, AnalyticPathError) as exc:
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
