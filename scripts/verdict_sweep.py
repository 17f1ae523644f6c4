#!/usr/bin/env python3
"""Exhaustive sweep: biconnectivity vs the removal-definition oracle.

Enumerates every labeled graph on 3..max_n vertices, keeps the connected
ones, and confirms that the library's biconnectivity verdict is the one
recomputed from scratch; the z-splitting count is the connected graphs that
are not biconnected, which is the paper's criterion.  Prints one census row
per n.  The rows come from ``raagsplit.cli.census_rows``, the same
cross-check that ``raag census`` runs, so a disagreement raises its
``RuntimeError``.  ``splits_over_z`` itself is swept against the oracle by
acceptance criterion 3 in ``tests/test_acceptance.py``.

Usage: verdict_sweep.py [max_n]   (default 6)
"""

import sys
import time

from raagsplit.cli import census_rows, labeled_graphs


def sweep(max_n: int) -> None:
    for n in range(3, max_n + 1):
        start = time.perf_counter()
        [row] = census_rows({n: labeled_graphs(n)})
        elapsed = time.perf_counter() - start
        print(
            f"n={n}: connected={row['connected']} splits_over_Z={row['splits_over_Z']} "
            f"biconnected={row['biconnected']} ({elapsed:.2f}s)"
        )


if __name__ == "__main__":
    sweep(int(sys.argv[1]) if len(sys.argv) > 1 else 6)
