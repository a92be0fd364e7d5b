"""Dimension table for the spaces of fully-derivational polylinear elements.

For each arity n this solves the exact linear system over the basis of
polylinear normal words ((2n-3)!! of them) and reports the dimension and
a basis.  The expected table is 1, 1, 0, 0, ...: only the plain bracket
and the bracket jacobiator survive.  The exit status is 1 when a
dimension differs from that table.
"""

import argparse
import sys
import time

from freegp.identities import jacobian_space


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-n", type=int, default=6)
    args = parser.parse_args()
    status = 0
    for n in range(2, args.max_n + 1):
        start = time.perf_counter()
        basis = jacobian_space(n)
        elapsed = time.perf_counter() - start
        print(f"n={n}: dimension {len(basis)}  ({elapsed:.2f}s)")
        for element in basis:
            print(f"  {element!r}")
        expected = 1 if n <= 3 else 0
        if len(basis) != expected:
            print(f"  expected dimension {expected}")
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
