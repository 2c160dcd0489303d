#!/usr/bin/env python3
"""Classify caps of one dimension and print the full class table.

Usage: python scripts/run_classification.py [DIM] [MAX_SIZE]

Defaults reproduce the dimension-7 catalogue: one class of 8-caps,
two of 9-caps, two of 10-caps, one each of 11- and 12-caps, no 13-caps.
"""

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from capclass.classifier import _census_payload, classify, tait_won_bounds
from capclass.gf2 import Point


def main() -> None:
    dim = int(sys.argv[1]) if len(sys.argv) > 1 else 7
    max_size = int(sys.argv[2]) if len(sys.argv) > 2 else 13

    started = time.perf_counter()
    table = classify(dim, max_size)
    elapsed = time.perf_counter() - started

    lo, hi = tait_won_bounds(dim)
    print(f"caps of dimension {dim}, classified in {elapsed:.2f}s")
    print(f"size bounds: {lo:.3f} <= max <= {hi:.3f}; observed max {table.max_size()}")
    print()
    for size in sorted(table.rows):
        entries = table.entries(size)
        print(f"size {size}: {len(entries)} class(es)")
        for i, entry in enumerate(entries):
            points = " ".join(Point(m, entry.cap.n).to_bits() for m in entry.cap.sorted_masks())
            census = _census_payload(entry.census) or []
            flag = "complete" if entry.complete else "extendable"
            print(f"  class {i} ({flag})")
            print(f"    points: {points}")
            print(f"    basis types: {', '.join(census)}")
    print()
    print("counts:", table.counts())


if __name__ == "__main__":
    main()
