"""Dimension table for the spaces of fully-derivational polylinear elements.

For each arity n this solves the exact linear system "D(w, xi, xi, z)
vanishes for each xi" over the W = (2n-3)!! polylinear normal words, in
two stages (`identities.jacobian_space`): stage 1 writes down and
reduces the left-normed basis of the kernel of x1, K = (2n-4)!! vectors
by Friedrichs' criterion; stage 2 takes the annihilator of that
kernel, the rows of x1, one row at a time, relabels it to x2, ..., xn
in turn (each word only when a row first holds it),
restricts each relabeled row to the kernel, and adds it only when its
residual against the rows kept so far is nonzero, until the rank is K.
At n=7 this takes 2.7-3.0 s (basis 0.9-1.0 s, stage 2 1.8-2.0 s) and
40-44 MB peak RSS (Python 3.10-3.13) on a shared 2-vCPU VM.  It reports
the dimension, a basis, K of W, the time of each stage and the peak
resident memory of the process so far.  The expected table is 1, 1, 0,
0, ...: only the plain bracket and the bracket jacobiator survive.  The
exit status is 1 when a dimension differs from that table.
"""

import argparse
import resource
import sys
import time

from freegp.identities import _kernel_space, _x1_kernel


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-n", type=int, default=6)
    args = parser.parse_args()
    status = 0
    for n in range(2, args.max_n + 1):
        start = time.perf_counter()
        words, kernel = _x1_kernel(n)
        middle = time.perf_counter()
        basis = _kernel_space(n, words, kernel)
        end = time.perf_counter()
        # ru_maxrss is in kilobytes on Linux
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        print(
            f"n={n}: dimension {len(basis)}  ({end - start:.2f}s: basis {middle - start:.2f}s,"
            f" stage 2 {end - middle:.2f}s; K {kernel.rank:,} of W {len(words):,}"
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
