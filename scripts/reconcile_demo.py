"""Reconcile certified Bethe multiplets against exact diagonalization.

Prints a human-readable table plus the machine-readable report, e.g.

    python scripts/reconcile_demo.py --spin 1/2 -L 4 -m 2
    python scripts/reconcile_demo.py --spin 1 -L 3 -m 3 --json
"""

import argparse
import json

from xxxchain.su2 import Spin
from xxxchain.verify import reconcile_spectrum


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--spin", default="1/2")
    parser.add_argument("-L", "--length", type=int, default=4)
    parser.add_argument("-m", "--m-max", type=int, default=2)
    parser.add_argument("--json", action="store_true", help="dump the full report as JSON")
    args = parser.parse_args()

    spin = Spin.parse(args.spin)
    report = reconcile_spectrum(spin, args.length, args.m_max)

    if args.json:
        print(json.dumps(report.to_json(), indent=2, sort_keys=True))
        return

    print(f"spin {spin}, L = {args.length}, sectors up to m = {args.m_max}")
    print(f"{'m':>3} {'energy':>16} {'mult':>5} {'max gap':>10}  roots")
    # report.matches holds one entry per multiplet, in the order of report.bethe
    for rec, match in zip(report.bethe, report.matches):
        roots = ", ".join(f"{z.real:+.4f}{z.imag:+.4f}i" for z in rec.lam)
        tag = "  (exact string)" if rec.singular else ""
        print(f"{rec.m:>3} {rec.energy.real:>16.10f} {rec.multiplicity:>5} "
              f"{match['max_gap']:>10.2e}  [{roots}]{tag}")
    print(f"matched {report.matched_levels} / {report.total_levels} ED levels "
          f"({100 * report.matched_fraction:.2f}%)")
    for item in report.unmatched:
        print(f"  deficit: sector m={item['m']}, energy {item['energy']:+.10f}")


if __name__ == "__main__":
    main()
