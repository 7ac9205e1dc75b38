"""Command-line interface.

Commands: beta, local-h, chain-h, ed, solve, state, verify, aba-compare.
JSON (default) or CSV goes to stdout, diagnostics to stderr.  Exit codes:
0 success, 1 verification failure, 2 usage error, 3 resource cap exceeded.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys

import numpy as np
import numpy.random  # noqa: F401  (NumPy imports it lazily, on first use)

from . import verify
from .bethe import build_bethe_state
from .errors import ChainError, InputRangeError, ResourceCapError
from .hamiltonian import ChainHamiltonian, build_beta_table, local_h
from .solver import STRATEGIES, SolverOptions, solve_sector
from .su2 import DEFAULT_CAP, Spin, check_length

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2
EXIT_RESOURCE = 3


def _emit(args, payload, header, rows):
    """Write `payload()` as JSON, or with --format csv the header and `rows`,
    an iterable read only for CSV; `payload` is called only for JSON."""
    if args.format == "csv":
        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
    else:
        json.dump(payload(), sys.stdout, indent=2, sort_keys=True, allow_nan=False)
        sys.stdout.write("\n")


def _spin(args, parser) -> Spin:
    try:
        return Spin.parse(args.spin)
    except (ValueError, ZeroDivisionError) as exc:
        parser.error(f"invalid --spin {args.spin!r}: {exc}")


def _cap(args) -> int:
    env = os.environ.get("BETHE_CAP")
    if args.cap is None and not env:
        return DEFAULT_CAP
    try:
        cap = args.cap if args.cap is not None else int(env)
    except ValueError:
        raise InputRangeError(f"BETHE_CAP must be an integer, got {env!r}") from None
    if cap < 1:
        raise InputRangeError(f"the dimension cap must be at least 1, got {cap}")
    return cap


def _solver_options(args) -> SolverOptions:
    """SolverOptions from the tolerance, seed and strategy flags; the
    constructor rejects out-of-range values with an InputRangeError."""
    overrides = {}
    if args.tol_newton is not None:
        overrides["tol_newton"] = args.tol_newton
    if args.tol_eigen is not None:
        overrides["tol_eigen"] = overrides["tol_hw"] = args.tol_eigen
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.strategy:
        overrides["strategies"] = tuple(args.strategy)
    return SolverOptions(**overrides)


def _matrix_rows(matrix):
    """CSV header and rows of a dense matrix, as Python floats' reprs."""
    return ([f"c{j}" for j in range(matrix.shape[1])],
            ([repr(v) for v in row.tolist()] for row in matrix))


def cmd_beta(args, parser):
    spin = _spin(args, parser)
    entries = sorted(build_beta_table(spin).items())
    _emit(args, lambda: {"two_s": spin.two_s,
                         "entries": [{"m1": m1, "m2": m2, "n": n, "value": v}
                                     for (m1, m2, n), v in entries]},
          ["m1", "m2", "n", "value"],
          ((m1, m2, n, repr(v)) for (m1, m2, n), v in entries))
    return EXIT_OK


def cmd_local_h(args, parser):
    spin = _spin(args, parser)
    matrix = local_h(spin)
    _emit(args, lambda: {"two_s": spin.two_s, "matrix": [list(row) for row in matrix]},
          *_matrix_rows(matrix))
    return EXIT_OK


def cmd_chain_h(args, parser):
    spin = _spin(args, parser)
    ham = ChainHamiltonian(spin, args.length, cap=_cap(args))
    matrix = ham.dense()
    _emit(args, lambda: {"two_s": spin.two_s, "L": args.length,
                         "matrix": [list(row) for row in matrix]}, *_matrix_rows(matrix))
    return EXIT_OK


def cmd_ed(args, parser):
    spin = _spin(args, parser)
    ham = ChainHamiltonian(spin, args.length, cap=_cap(args))
    report = verify.exact_diagonalize(spin, args.length, m=args.sector, hamiltonian=ham)
    out = {"two_s": spin.two_s, "L": args.length,
           "ed": [{"m": m, "eigenvalues": [float(v) for v in vals]}
                  for m, vals in sorted(report.ed.items())]}
    if args.sector is None:
        out["eigenvalues"] = sorted(float(v) for vals in report.ed.values() for v in vals)
    else:
        out["m"] = args.sector
        out["eigenvalues"] = [float(v) for v in report.ed[args.sector]]
    _emit(args, lambda: out, ["m", "eigenvalue"],
          ((m, repr(float(v))) for m, vals in sorted(report.ed.items()) for v in vals))
    return EXIT_OK


def cmd_solve(args, parser):
    spin = _spin(args, parser)
    if args.sector is None:
        parser.error("solve requires -m/--sector")
    ham = ChainHamiltonian(spin, args.length, cap=_cap(args))
    opts = _solver_options(args)
    certs = solve_sector(spin, args.length, args.sector, opts, ham)
    _emit(args, lambda: {"two_s": spin.two_s, "L": args.length, "m": args.sector,
                         "certificates": [c.to_json() for c in certs]},
          ["energy_re", "energy_im", "bethe_residual", "eigen_residual",
           "hw_residual", "iterations", "singular", "lambda"],
          ((repr(c.energy.real), repr(c.energy.imag), repr(c.bethe_residual),
            repr(c.eigen_residual), repr(c.hw_residual), c.iterations,
            int(c.singular), ";".join(f"{z.real}{z.imag:+}j" for z in c.lam))
           for c in certs))
    return EXIT_OK


def _parse_complex_list(text, parser, flag):
    try:
        return [complex(part.replace(" ", "")) for part in text.split(",") if part.strip()]
    except ValueError as exc:
        parser.error(f"invalid {flag} {text!r}: {exc}")


def cmd_state(args, parser):
    spin = _spin(args, parser)
    if (args.roots is None) == (args.momenta is None):
        parser.error("state requires exactly one of --lambda or --k")
    # the cap is checked before the sector is enumerated
    ham = ChainHamiltonian(spin, args.length, cap=_cap(args))
    if args.roots is not None:
        state = build_bethe_state(spin, args.length,
                                  lam=_parse_complex_list(args.roots, parser, "--lambda"))
    else:
        state = build_bethe_state(spin, args.length,
                                  k=_parse_complex_list(args.momenta, parser, "--k"))
    residual = verify.eigen_residual(state, ham)
    _emit(args, lambda: state.to_json(residual=residual), ["index", "amplitude_re", "amplitude_im"],
          ((i, repr(z.real), repr(z.imag)) for i, z in enumerate(map(complex, state.vector))))
    return EXIT_OK


def cmd_aba_compare(args, parser):
    spin = _spin(args, parser)
    check_length(args.length)
    rng = np.random.default_rng(args.seed if args.seed is not None else 0)
    if args.roots is not None:
        lams = _parse_complex_list(args.roots, parser, "--lambda")
    else:
        lams = []
        while len(lams) < args.count:
            z = complex(rng.normal(scale=1.5), rng.normal(scale=1.5))
            if min(abs(z - 1j * spin.s), abs(z + 1j * spin.s)) > 0.1:
                lams.append(z)
    if not lams:
        raise InputRangeError("aba-compare needs at least one rapidity: "
                              "a positive --count or a non-empty --lambda")
    rows = []
    for lam in lams:
        # the state build validates the rapidity before the monodromy uses it
        psi = build_bethe_state(spin, args.length, lam=[lam])
        phi = verify.aba_phi1(spin, args.length, lam)
        rows.append({"lambda": [lam.real, lam.imag],
                     "overlap": verify.overlap(phi, psi.vector)})
    out = {"two_s": spin.two_s, "L": args.length, "count": len(rows),
           "overlaps": rows, "min_overlap": min(r["overlap"] for r in rows)}
    _emit(args, lambda: out, ["lambda_re", "lambda_im", "overlap"],
          ((repr(r["lambda"][0]), repr(r["lambda"][1]), repr(r["overlap"])) for r in rows))
    return EXIT_OK


def _verify_checks(args, parser):
    """Invariant suite over the default grid, extendable by --spin/-L."""
    from . import suite

    chain = None
    if args.spin is not None or args.length is not None:
        if args.spin is None or args.length is None:
            parser.error("verify needs both --spin and -L to extend the chain grid")
        chain = (_spin(args, parser), args.length)
        # a usage or cap error here, not a failed check; the suite's bound is DEFAULT_CAP
        ChainHamiltonian(*chain, cap=min(_cap(args), DEFAULT_CAP))
    return suite.run_all(seed=args.seed if args.seed is not None else 0, chain=chain)


def cmd_verify(args, parser):
    checks = _verify_checks(args, parser)
    if args.only:
        checks = [c for c in checks if args.only in c[0]]
        if not checks:
            parser.error(f"--only {args.only!r} matches no checks")
    failed = [c for c in checks if not c[1]]
    payload = {
        "checks": [{"name": name, "passed": ok, "detail": detail}
                   for name, ok, detail in checks],
        "passed": not failed,
    }
    _emit(args, lambda: payload, ["name", "passed", "detail"],
          ((name, int(ok), detail) for name, ok, detail in checks))
    for name, ok, detail in failed:
        print(f"FAILED {name}: {detail}", file=sys.stderr)
    return EXIT_VERIFY_FAILED if failed else EXIT_OK


def _seed(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"seed must be non-negative, got {value}")
    return value


def _add_common(sub, *flags):
    """--spin and --format, plus the named flags among length, cap, sector,
    tolerances and seed; a command gets only the flags it reads."""
    sub.add_argument("--spin", required=True, help="spin as rational in halves, e.g. 1/2, 1, 3/2")
    sub.add_argument("--format", choices=("json", "csv"), default="json")
    if "length" in flags:
        sub.add_argument("-L", "--length", type=int, required=True)
    if "cap" in flags:
        sub.add_argument("--cap", type=int, default=None)
    if "sector" in flags:
        sub.add_argument("-m", "--sector", type=int, default=None)
    if "tolerances" in flags:
        for name in ("newton", "eigen"):
            sub.add_argument(f"--tol-{name}", dest=f"tol_{name}", type=float, default=None)
    if "seed" in flags:
        sub.add_argument("--seed", type=_seed, default=None)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="xxxchain",
        description="Spin-s XXX chain: Hamiltonian, Bethe states, solver, verification",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    sub = subs.add_parser("beta", help="dump the beta coefficient table")
    _add_common(sub)
    sub.set_defaults(func=cmd_beta)

    sub = subs.add_parser("local-h", help="dump the local two-site Hamiltonian")
    _add_common(sub)
    sub.set_defaults(func=cmd_local_h)

    sub = subs.add_parser("chain-h", help="dump the dense chain Hamiltonian")
    _add_common(sub, "length", "cap")
    sub.set_defaults(func=cmd_chain_h)

    sub = subs.add_parser("ed", help="exact diagonalization per sector")
    _add_common(sub, "length", "cap", "sector")
    sub.set_defaults(func=cmd_ed)

    sub = subs.add_parser("solve", help="solve the Bethe equations in one sector")
    _add_common(sub, "length", "cap", "sector", "tolerances", "seed")
    sub.add_argument("--strategy", action="append",
                     choices=STRATEGIES,
                     help="seeding strategy (repeatable; default: all; random runs last)")
    sub.set_defaults(func=cmd_solve)

    sub = subs.add_parser("state", help="build a Bethe state from roots or momenta")
    _add_common(sub, "length", "cap")
    sub.add_argument("--lambda", dest="roots", default=None,
                     help="comma-separated complex rapidities, e.g. '0.5+0j,-0.5+0j'; "
                          "a list that starts with '-' needs the = form, --lambda=-0.5,0.5")
    sub.add_argument("--k", dest="momenta", default=None,
                     help="comma-separated complex momenta; a list that starts with '-' "
                          "needs the = form, --k=-0.3,0.3")
    sub.set_defaults(func=cmd_state)

    sub = subs.add_parser("verify", help="run the invariant suite")
    sub.add_argument("--spin", default=None, help="extend the chain checks to this spin (with -L)")
    sub.add_argument("-L", "--length", type=int, default=None)
    sub.add_argument("--only", default=None, help="substring filter on check names")
    sub.add_argument("--format", choices=("json", "csv"), default="json")
    sub.add_argument("--seed", type=_seed, default=None)
    sub.set_defaults(func=cmd_verify, cap=None)

    sub = subs.add_parser("aba-compare", help="overlap of the monodromy one-magnon state with Psi_1")
    _add_common(sub, "length", "seed")
    sub.add_argument("--lambda", dest="roots", default=None,
                     help="comma-separated rapidities (default: random sample); a list "
                          "that starts with '-' needs the = form, --lambda=-0.5,0.5")
    sub.add_argument("--count", type=int, default=20)
    sub.set_defaults(func=cmd_aba_compare)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args, parser)
    except ResourceCapError as exc:
        print(f"resource cap: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except ChainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
