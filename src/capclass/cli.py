"""Command-line front end: cap files, JSON reports, and the verify run.

Cap file format (version 1): a header line ``capfile v1 n=<n>`` followed
by one point per line as an n-character binary string whose leftmost
character is coordinate 1 (bit 0).  Rendered files list points in
ascending integer order with LF endings; duplicate lines are rejected.

Exit codes: 0 success, 1 claim failure or failed internal check, 2 usage
error (an unknown label, a classify dimension outside 1..13 or size
outside dim+1..14, a negative trial count, an equiv of two caps of one
size and affine dimension above the 14-point canonical-form limit, or a
classify --out path that cannot be written),
3 parse error (including a header not exactly ``capfile v1 n=<n>`` and a
file that is not UTF-8), 141 stdout closed early (128 + SIGPIPE).  equiv
decides caps of different sizes or affine dimensions without a canonical
form, so such a pair exits 0 whatever its sizes.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from collections.abc import Callable
from pathlib import Path

from .capset import Cap, find_quad, is_complete, quad_closure_1
from .classifier import (
    DEFAULT_EXCHANGE_TRIALS,
    DEFAULT_INVARIANCE_TRIALS,
    ClassTable,
    _census,
    _census_payload,
    _map_payload,
    classify,
    verify_paper,
)
from .equivalence import _SIZE_LIMIT, are_equivalent, find_isomorphism
from .errors import CapError, CapFileError, InvariantError, NotACapError, TooLargeError, UnknownLabelError
from .gf2 import MAX_DIM, Point, PointSet, affine_dim
from .templates import LABELS, instantiate


def render_capfile(s: PointSet) -> str:
    lines = [f"capfile v1 n={s.n}"]
    lines += [Point(m, s.n).to_bits() for m in s.sorted_masks()]
    return "\n".join(lines) + "\n"


def parse_capfile(text: str) -> PointSet:
    lines = [line for line in text.split("\n") if line != ""]
    if not lines:
        raise CapFileError("empty cap file")
    header = lines[0]
    if not header.startswith("capfile v1 n="):
        raise CapFileError(f"bad header {header!r}")
    try:
        n = int(header[len("capfile v1 n="):])
    except ValueError:
        raise CapFileError(f"bad dimension in header {header!r}") from None
    # only the form render_capfile writes: no sign, padding, spaces or non-ASCII digits
    if header != f"capfile v1 n={n}":
        raise CapFileError(f"bad header {header!r}")
    if not 1 <= n <= MAX_DIM:
        raise CapFileError(f"dimension {n} out of range 1..{MAX_DIM}")
    masks = []
    for line in lines[1:]:
        if len(line) != n or any(c not in "01" for c in line):
            raise CapFileError(f"bad point line {line!r} for n={n}")
        masks.append(Point.from_bits(line).mask)
    if not masks:
        raise CapFileError("cap file lists no points")
    if len(set(masks)) != len(masks):
        raise CapFileError("duplicate point lines")
    return PointSet(n, masks)


def _read_points(path: str) -> PointSet:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise CapFileError(f"cannot read {path}: {exc}") from exc
    return parse_capfile(text)


def _check_payload(s: PointSet) -> dict:
    try:
        cap = Cap(s)
    except NotACapError:
        quad = find_quad(s)
        return {"size": len(s), "dim": affine_dim(s), "is_cap": False, "quad": [p.to_bits() for p in quad]}
    return {
        "size": cap.size,
        "dim": cap.dim,
        "is_cap": True,
        "complete": is_complete(cap),
        "census": _census_payload(_census(cap)),
    }


def _table_payload(table: ClassTable) -> dict:
    sizes = {}
    for size in sorted(table.rows):
        entries = []
        for entry in table.entries(size):
            entries.append(
                {
                    "points": [Point(m, entry.cap.n).to_bits() for m in entry.cap.sorted_masks()],
                    "complete": entry.complete,
                    "census": _census_payload(entry.census),
                }
            )
        sizes[str(size)] = entries
    return {
        "schema": "classtable v1",
        "dim": table.dim,
        "counts": {str(size): count for size, count in sorted(table.counts().items())},
        "sizes": sizes,
    }


def _trial_count(text: str) -> int:
    count = int(text)
    if count < 0:
        raise argparse.ArgumentTypeError(f"must be at least 0, got {count}")
    return count


def _cmd_template(args: argparse.Namespace) -> int:
    sys.stdout.write(render_capfile(instantiate(args.label).points))
    return 0


def _cmd_check(args: argparse.Namespace) -> int:
    print(json.dumps(_check_payload(_read_points(args.file)), indent=2, sort_keys=True))
    return 0


def _cmd_closure(args: argparse.Namespace) -> int:
    sys.stdout.write(render_capfile(quad_closure_1(_read_points(args.file))))
    return 0


def _read_cap(path: str) -> Cap:
    try:
        return Cap(_read_points(path))
    except NotACapError:
        raise CapFileError(f"{path} does not describe a cap") from None


def _cmd_equiv(args: argparse.Namespace) -> int:
    ca, cb = _read_cap(args.file_a), _read_cap(args.file_b)
    if ca.n != cb.n:
        payload: dict = {"equivalent": are_equivalent(ca, cb)}
    else:
        t = find_isomorphism(ca, cb)
        payload = {"equivalent": t is not None}
        if t is not None:
            payload["map"] = _map_payload(t)
    print(json.dumps(payload, indent=2, sort_keys=True))
    return 0


def _cmd_classify(args: argparse.Namespace) -> int:
    out = None if args.out is None else Path(args.out)
    try:
        # the directory comes first, so an unusable path fails before the run
        if out is not None:
            out.mkdir(parents=True, exist_ok=True)
        table = classify(args.dim, args.max_size)
        if out is not None:
            for size in sorted(table.rows):
                for i, entry in enumerate(table.entries(size)):
                    name = f"dim{table.dim}_size{size}_class{i}.cap"
                    (out / name).write_text(render_capfile(entry.cap.points), encoding="utf-8")
    except OSError as exc:
        print(f"error: cannot write {out}: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(_table_payload(table), indent=2, sort_keys=True))
    return 0


def _cmd_verify_paper(args: argparse.Namespace) -> int:
    report = verify_paper(
        invariance_trials=args.fuzz_trials,
        exchange_trials=args.exchange_trials,
    )
    if args.json:
        print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
    else:
        for claim in report.claims:
            status = "pass" if claim.passed else "FAIL"
            print(f"{status}  {claim.claim_id}")
            print(f"      {claim.claim_id}: {claim.elapsed_s:.2f}s", file=sys.stderr)
        print("all claims passed" if report.all_passed else "some claims FAILED")
    return 0 if report.all_passed else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="capclass",
        description="Classify quad-free sets (caps) in the binary affine geometry AG(n,2).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("template", help="emit a named reference cap as a cap file")
    p.add_argument("label", metavar="LABEL", help=f"one of: {', '.join(LABELS)}")
    p.set_defaults(func=_cmd_template)

    p = sub.add_parser("check", help="report size, dimension, cap-ness, completeness, census")
    p.add_argument("file")
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("closure", help="emit the first quad closure of a point set")
    p.add_argument("file")
    p.set_defaults(func=_cmd_closure)

    p = sub.add_parser("equiv", help="test two caps for affine equivalence")
    p.add_argument("file_a")
    p.add_argument("file_b")
    p.set_defaults(func=_cmd_equiv)

    p = sub.add_parser("classify", help="classify caps by size up to affine equivalence")
    p.add_argument("dim", type=int, choices=range(1, _SIZE_LIMIT), metavar="dim",
                   help=f"ambient dimension, 1..{_SIZE_LIMIT - 1}")
    p.add_argument("max_size", type=int, choices=range(1, _SIZE_LIMIT + 1), metavar="max_size",
                   help=f"largest cap size to classify, dim+1..{_SIZE_LIMIT}")
    p.add_argument("--out", help="directory for one cap file per representative")
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("verify-paper", help="re-derive and check the full classification")
    p.add_argument("--json", action="store_true", help="emit the machine-readable report")
    p.add_argument("--fuzz-trials", type=_trial_count, default=DEFAULT_INVARIANCE_TRIALS,
                   help="random maps per template")
    p.add_argument("--exchange-trials", type=_trial_count, default=DEFAULT_EXCHANGE_TRIALS,
                   help="random basis exchanges")
    p.set_defaults(func=_cmd_verify_paper)
    return parser


def parse_args(argv: list[str] | None = None) -> argparse.Namespace:
    """The parsed command line; a usage error exits 2 with one ``error:`` line."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "classify" and args.max_size <= args.dim:
        parser.error(f"classify: max_size must exceed dim, got {args.max_size} <= {args.dim}")
    return args


def run_command(command: Callable[[], int]) -> int:
    """Run a command; a closed stdout and the package's errors become exit codes."""
    try:
        code = command()
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader left: flush the rest into devnull, not the closed pipe, at exit
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except (UnknownLabelError, TooLargeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InvariantError as exc:
        print(f"error: internal check failed: {exc}", file=sys.stderr)
        return 1
    except CapError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    return run_command(lambda: args.func(args))


if __name__ == "__main__":
    raise SystemExit(main())
