"""The benchmark's workloads, written against xxxchain's public API.

A workload turns a seed into a list of operations.  An operation is one
`solve_sector`, `reconcile_spectrum` or `cli.main` call: `run` is the timed
call, `check` returns the failure messages for its output (run untimed, after
the pass), and `tally` counts what the output certifies.  The seed reaches the
program only as `SolverOptions.seed`.

Four parts make up two workloads:

- `solver` = solve_grid + reconcile.  Many small sectors with many cheap,
  mostly failing Newton seeds, and whole spectra matched against ED, where
  sectors past the equator hold no highest-weight state so every seed there
  must fail.  Newton (residual plus Jacobian) is nearly all of the time.
- `states` = wide_sector + verify.  Few seeds in big sectors, each success
  paying for a Bethe vector (the only place that build is heavy), then the
  invariant suite through the CLI on full spaces of up to 19,683 states:
  sector matrices and full-space H application, almost no Newton.

Each part runs in its own fresh interpreter.  Two workloads rather than
four: the benchmark's time budget then allows 60-second runs, which average
out more of the noise a shared host adds.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from collections import Counter
from typing import Any, Callable, NamedTuple

import numpy as np

from xxxchain import ChainHamiltonian, SolverOptions, Spin, cli, sector_eigh, solver, verify

BETHE_TOL = 1e-10
STATE_TOL = 1e-8
ENERGY_TOL = 1e-7


class Op(NamedTuple):
    label: str
    run: Callable[[], Any]
    check: Callable[[Any], list]
    tally: Callable[[Any], Counter]


def _roots_tally(certs) -> Counter:
    return Counter(certified=len(certs), roots=len(certs))


def _check_certs(certs, spectrum, label, tol_bethe, tol_state, tol_energy) -> list:
    errors = []
    for cert in certs:
        if not cert.bethe_residual <= tol_bethe:
            errors.append(f"{label}: Bethe residual {cert.bethe_residual:.3e}")
        if not (cert.eigen_residual < tol_state and cert.hw_residual < tol_state):
            errors.append(f"{label}: eigen/hw residual {cert.eigen_residual:.3e}/"
                          f"{cert.hw_residual:.3e}")
        gap = float(np.min(np.abs(np.asarray(spectrum) - cert.energy.real)))
        if not gap < tol_energy:
            errors.append(f"{label}: energy {cert.energy.real!r} is {gap:.3e} from ED")
    return errors


def solve_grid(seed: int) -> list:
    """The acceptance-criterion-6 grid: 15 `solve_sector` calls with the state
    thresholds switched off, so the checks below cannot pass vacuously."""
    opts = SolverOptions(tol_eigen=math.inf, tol_hw=math.inf, seed=seed)
    ops = []
    for spin, length in ((Spin(1), 4), (Spin(1), 5), (Spin(1), 6), (Spin(2), 4), (Spin(2), 5)):
        ham = ChainHamiltonian(spin, length)
        for m in (1, 2, 3):
            label = f"solve s={spin} L={length} m={m}"

            def check(certs, spin=spin, length=length, m=m, ham=ham, label=label):
                spectrum = sector_eigh(spin, length, m, hamiltonian=ham)
                errors = _check_certs(certs, spectrum, label, BETHE_TOL, STATE_TOL, ENERGY_TOL)
                if m == 1 and len(certs) != length - 1:
                    errors.append(f"{label}: {len(certs)} one-magnon roots, expected {length - 1}")
                return errors

            ops.append(Op(label, lambda spin=spin, length=length, m=m, ham=ham:
                          solver.solve_sector(spin, length, m, opts, hamiltonian=ham),
                          check, _roots_tally))
    return ops


def _deficit_errors(entries, report, label) -> list:
    errors = []
    for entry in entries:
        m, energy = entry.get("m"), entry.get("energy")
        if m not in report.ed or energy is None or not math.isfinite(energy):
            errors.append(f"{label}: deficit without sector and energy: {entry}")
    return errors


def reconcile(seed: int) -> list:
    """`reconcile_spectrum` on three chains that between them show a singular
    string, a repeated root and the injected singular pair."""
    opts = SolverOptions(seed=seed)
    ops = []
    for spin, length, m_max in ((Spin(1), 6, 3), (Spin(2), 3, 6), (Spin(3), 3, 4)):
        label = f"reconcile s={spin} L={length} m_max={m_max}"

        def check(report, label=label):
            errors = []
            if report.matched_levels + len(report.unmatched) != report.total_levels:
                errors.append(f"{label}: matched {report.matched_levels} + unmatched "
                              f"{len(report.unmatched)} != total {report.total_levels}")
            errors += _deficit_errors(report.unmatched, report, label)
            for match in report.matches:
                errors += _deficit_errors(match["missing"], report, label)
            for entry in report.unmatched:
                levels = report.ed.get(entry["m"], ())
                if not any(abs(v - entry["energy"]) <= opts.tol_match for v in levels):
                    errors.append(f"{label}: unmatched level {entry} is not an ED level")
            return errors

        def tally(report):
            return Counter(certified=report.matched_levels, levels_matched=report.matched_levels,
                           levels=report.total_levels, unmatched=len(report.unmatched),
                           multiplets=len(report.bethe))

        ops.append(Op(label, lambda spin=spin, length=length, m_max=m_max:
                      verify.reconcile_spectrum(spin, length, m_max, opts), check, tally))
    return ops


def wide_sector(seed: int) -> list:
    """Free-momenta roots in the two widest sectors of spin 1/2, L=12 (dims
    495 and 792), where each certified root set needs a costly Bethe vector.
    The free-momenta catalog does not draw random seeds, so the seed is
    passed but changes nothing."""
    spin, length = Spin(1), 12
    opts = SolverOptions(strategies=("free-momenta",), seed=seed)
    ham = ChainHamiltonian(spin, length)
    ops = []
    for m in (4, 5):
        label = f"solve s={spin} L={length} m={m} free-momenta"

        def check(certs, m=m, label=label):
            spectrum = sector_eigh(spin, length, m, hamiltonian=ham)
            return _check_certs(certs, spectrum, label, opts.tol_newton, opts.tol_eigen,
                                opts.tol_match)

        ops.append(Op(label, lambda m=m: solver.solve_sector(spin, length, m, opts,
                                                             hamiltonian=ham),
                      check, _roots_tally))
    return ops


def _run_cli(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


def verify_cli(seed: int) -> list:
    """`xxxchain verify` extended to spin 1/2, L=14 and spin 1, L=9 (full
    spaces of 16,384 and 19,683 states), at the command's default seed.

    The workload seed is not passed on: at a few seeds (40, 74, 111 and 190
    of 0-199) the suite's own `sigma-rapidity-form` check fails, its worst
    violation just above an absolute tolerance of 1e-12, so a seeded run
    would fail on them whatever the change measured.  The seed only moves
    the suite's random samples, not the work it does."""
    ops = []
    for spin, length in (("1/2", 14), ("1", 9)):
        argv = ["verify", "--spin", spin, "-L", str(length)]
        label = "cli " + " ".join(argv)

        def check(output, label=label):
            code, text = output
            failed = [c["name"] for c in json.loads(text)["checks"] if not c["passed"]]
            if code != 0 or failed:
                return [f"{label}: exit code {code}, failed checks {failed}"]
            return []

        def tally(output):
            passed = sum(1 for c in json.loads(output[1])["checks"] if c["passed"])
            return Counter(certified=passed, checks_passed=passed)

        ops.append(Op(label, lambda argv=argv: _run_cli(argv), check, tally))
    return ops


PARTS = {
    "solve_grid": solve_grid,
    "reconcile": reconcile,
    "wide_sector": wide_sector,
    "verify": verify_cli,
}
