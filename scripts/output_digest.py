"""Digests of the benchmark operations' outputs, for comparing two source trees.

Runs the operations of `perfbench/workloads.py` (imported, never changed)
for the given parts (by default all four, the whole benchmark: the Newton
parts and `verify`'s H apply, ladders and suite) and seeds and prints one
line per operation:

    PART SEED LABEL exact=SHA certified=N rounded=SHA regular=SHA

`exact` is a SHA-256 over the bytes of every `newton_batch` return (roots,
iterations, reasons, best residuals) and every certificate (roots, the three
residuals, energy, iterations, Bethe vector) the operation made, and of its
own result.  `rounded` is a SHA-256 over what the operation certifies,
rounded: root sets to 7 digits and energies to 9 (a reconcile adds its
matched and unmatched levels, `verify` its pass flags); `certified` is the
workload's tally.  `regular` is a SHA-256 over the exact bytes of the
certificates that are not singular, in the order `solve_sector` returns them.
Two trees that give the same Newton bits give the same `exact` digests; two
that certify the same root sets give the same `rounded` ones; a tree that adds
singular sets and leaves every regular certificate as it was gives the same
`regular` ones.  Run it from each tree's sources, e.g.

    PYTHONPATH=src python scripts/output_digest.py --seeds 0-29
"""

import argparse
import hashlib
import importlib.util
import json
from pathlib import Path

import numpy as np

from xxxchain import solver

WORKLOADS = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"


def _load_workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _seeds(text):
    first, _, last = text.partition("-")
    return range(int(first), int(last or first) + 1)


def _round(z, digits):
    # + 0.0 turns a rounded -0.0 into 0.0
    return (round(z.real, digits) + 0.0, round(z.imag, digits) + 0.0)


def _root_set(lam):
    return sorted(_round(z, 7) for z in lam)


def _rounded(result):
    """What one operation certifies, rounded, as a JSON-able value."""
    if isinstance(result, list):  # solve_sector's certificates
        return sorted((_round(c.energy, 9), _root_set(c.lam)) for c in result)
    if isinstance(result, tuple):  # verify's (exit code, stdout)
        return result[0], [(c["name"], c["passed"]) for c in json.loads(result[1])["checks"]]
    return (sorted((rec.m, _round(rec.energy, 9), _root_set(rec.lam), rec.multiplicity,
                    rec.singular) for rec in result.bethe),
            [(rec["m"], round(rec["energy"], 9) + 0.0, rec["multiplicity"],
              [(miss["m"], round(miss["energy"], 9) + 0.0) for miss in rec["missing"]])
             for rec in result.matches],
            [(rec["m"], round(rec["energy"], 9) + 0.0) for rec in result.unmatched])


def _exact_result(result):
    """The bytes of an operation's own result beyond its certificates."""
    if isinstance(result, list):
        return b""
    if isinstance(result, tuple):
        return repr(result).encode()
    return repr((result.matches, result.unmatched,
                 [rec.to_json() for rec in result.bethe])).encode()


def _certificate_bytes(cert):
    state = cert.state
    return b"".join((np.array(cert.lam, dtype=complex).tobytes(),
                     np.array([cert.bethe_residual, cert.eigen_residual, cert.hw_residual,
                               cert.energy.real, cert.energy.imag]).tobytes(),
                     repr((cert.iterations, cert.singular)).encode(),
                     b"" if state is None else np.asarray(state.vector).tobytes()))


def digest_lines(parts, seeds):
    """One digest line per operation of each part at each seed."""
    workloads = _load_workloads()
    newton_batch, solve_sector = solver.newton_batch, solver.solve_sector

    def traced_newton(*args, **kwargs):
        roots, iterations, reasons, best = out = newton_batch(*args, **kwargs)
        exact.update(roots.tobytes() + iterations.tobytes() + best.tobytes())
        exact.update(repr(reasons.tolist()).encode())
        return out

    def traced_solve(*args, **kwargs):
        certs = solve_sector(*args, **kwargs)
        for cert in certs:
            exact.update(_certificate_bytes(cert))
            if not cert.singular:
                regular.update(_certificate_bytes(cert))
        return certs

    lines = []
    solver.newton_batch, solver.solve_sector = traced_newton, traced_solve
    try:
        for part in parts:
            for seed in seeds:
                for op in workloads.PARTS[part](seed):
                    # the wrappers above feed this operation's digests
                    exact, regular = hashlib.sha256(), hashlib.sha256()
                    result = op.run()
                    exact.update(_exact_result(result))
                    rounded = json.dumps(_rounded(result)).encode()
                    lines.append(f"{part} {seed} {op.label} exact={exact.hexdigest()} "
                                 f"certified={op.tally(result)['certified']} "
                                 f"rounded={hashlib.sha256(rounded).hexdigest()} "
                                 f"regular={regular.hexdigest()}")
    finally:
        solver.newton_batch, solver.solve_sector = newton_batch, solve_sector
    return lines


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parts", nargs="+",
                        default=["solve_grid", "reconcile", "wide_sector", "verify"],
                        help="parts of perfbench/workloads.py (default: all four)")
    parser.add_argument("--seeds", type=_seeds, default=range(1),
                        help="a seed or an inclusive range FIRST-LAST (default 0)")
    args = parser.parse_args()
    for line in digest_lines(args.parts, args.seeds):
        print(line, flush=True)


if __name__ == "__main__":
    main()
