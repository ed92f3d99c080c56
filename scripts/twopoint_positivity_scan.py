#!/usr/bin/env python3
"""Scan the two-point kernel coupling and report the spectrum of its finite
sections against the unit interval.

The kernel is admissible as a one-particle symbol only while its sections
stay inside [0, 1]; this sweep locates the rough boundary. Advisory only.

Usage: python scripts/twopoint_positivity_scan.py [LO..HI] [DIAGONAL]
"""

import sys

from spreadlab.car import TwoPointFunction, check_index_square, positivity_probe
from spreadlab.cli import parse_window

COUPLINGS = (0.0, 0.01, 0.05, 0.1, 0.2, 0.5, 1.0, 2.0, 5.0)

if __name__ == "__main__":
    lo, hi = parse_window(sys.argv[1]) if len(sys.argv) > 1 else (-8, 8)
    diagonal = float(sys.argv[2]) if len(sys.argv) > 2 else 0.5
    try:
        check_index_square(lo, hi)  # the same budget for every coupling
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        sys.exit(2)
    print(f"window [{lo}, {hi}], diagonal {diagonal}")
    print(f"{'coupling':>10}  {'min eig':>12}  {'max eig':>12}  in [0,1]")
    for coupling in COUPLINGS:
        report = positivity_probe(TwoPointFunction(coupling, diagonal), lo, hi)
        print(
            f"{coupling:>10.3g}  {report.eigenvalues[0]:>12.6f}  "
            f"{report.eigenvalues[-1]:>12.6f}  {report.in_unit_interval}"
        )
