#!/usr/bin/env python3
"""Classify caps of one dimension and print the full class table.

Usage: python scripts/run_classification.py [DIM] [MAX_SIZE]

Defaults reproduce the dimension-7 catalogue: one class of 8-caps,
two of 9-caps, two of 10-caps, one each of 11- and 12-caps, no 13-caps.
DIM and MAX_SIZE are checked as ``capclass classify`` checks them, and
the script exits with its codes: 2 for a bad argument, 141 when the
reader closes stdout early.
"""

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from capclass.classifier import _DESK_LIMIT, _census_payload, classify, tait_won_bounds
from capclass.cli import parse_args, run_command
from capclass.gf2 import Point

DEFAULTS = ["7", "13"]


def print_table(dim: int, max_size: int) -> int:
    started = time.perf_counter()
    table = classify(dim, max_size)
    elapsed = time.perf_counter() - started

    lo, hi = tait_won_bounds(dim)
    top = table.max_size()
    # a non-empty row at max_size means generation was cut before caps ran out
    observed = f"max >= {top} (cut at size {max_size})" if top == max_size else f"observed max {top}"
    print(f"caps of dimension {dim}, classified in {elapsed:.2f}s")
    print(f"size bounds: {lo:.3f} <= max <= {hi:.3f}; {observed}")
    print()
    for size in sorted(table.rows):
        entries = table.entries(size)
        print(f"size {size}: {len(entries)} class(es)")
        for i, entry in enumerate(entries):
            points = " ".join(Point(m, entry.cap.n).to_bits() for m in entry.cap.sorted_masks())
            census = _census_payload(entry.census)
            types = f"not computed above {_DESK_LIMIT} points" if census is None else ", ".join(census)
            flag = "complete" if entry.complete else "extendable"
            print(f"  class {i} ({flag})")
            print(f"    points: {points}")
            print(f"    basis types: {types}")
    print()
    print("counts:", table.counts())
    return 0


def main(argv: list[str]) -> int:
    args = parse_args(["classify", *argv, *DEFAULTS[len(argv):]])
    if args.out is not None:
        print("error: run_classification.py writes no cap files; use capclass classify --out", file=sys.stderr)
        return 2
    return run_command(lambda: print_table(args.dim, args.max_size))


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
