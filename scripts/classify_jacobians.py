"""Dimension table for the spaces of fully-derivational polylinear elements.

For each arity n this solves the exact linear system "D(w, xi, xi, z)
vanishes for each xi" over the W = (2n-3)!! polylinear normal words, in
two stages: the rows of x1 alone, then every other variable's rows in
the K coordinates of the kernel of x1 (`identities.jacobian_space`).  It
reports the dimension, a basis, K of W, the time of each stage and the
peak resident memory of the process so far.  The expected table is
1, 1, 0, 0, ...: only the plain bracket and the bracket jacobiator
survive.  The exit status is 1 when a dimension differs from that table.
"""

import argparse
import resource
import sys
import time

from freegp.identities import _x1_kernel_space, _x1_reducer


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-n", type=int, default=6)
    args = parser.parse_args()
    status = 0
    for n in range(2, args.max_n + 1):
        start = time.perf_counter()
        words, x1_rows = _x1_reducer(n)
        middle = time.perf_counter()
        basis = _x1_kernel_space(n, words, x1_rows)
        end = time.perf_counter()
        # ru_maxrss is in kilobytes on Linux
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        print(
            f"n={n}: dimension {len(basis)}  ({end - start:.2f}s: x1 {middle - start:.2f}s,"
            f" kernel {end - middle:.2f}s; K {len(words) - x1_rows.rank:,} of W {len(words):,}"
            f" words; peak RSS {peak_mb:.0f} MB)"
        )
        for element in basis:
            print(f"  {element!r}")
        expected = 1 if n <= 3 else 0
        if len(basis) != expected:
            print(f"  expected dimension {expected}")
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
