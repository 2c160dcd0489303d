"""Check the installed ``capclass`` console script against every output pin.

    python scripts/check_pins.py

tests/pins.json holds each pin: a command, or an ``equiv`` pair of caps
given by their point masks, with the SHA-256 of its stdout and why it is
pinned.  This script writes each pair's cap files itself, by the cap file
rule (the header, then one point per line, coordinate 1 leftmost), and
imports nothing from capclass, so it checks the package as installed
rather than the source tree.  It prints one line per pin and exits 1 if
any command fails or any stdout differs from its pin.

tests/test_golden.py runs the same pins through ``python -m capclass.cli``
against the source tree, with the functions below.
"""

from __future__ import annotations

import hashlib
import json
import subprocess
import sys
import tempfile
from collections.abc import Mapping, Sequence
from pathlib import Path

PINS = Path(__file__).resolve().parents[1] / "tests" / "pins.json"


def load_pins(path: Path = PINS) -> dict[str, list[dict]]:
    """The pins file: ``commands`` (argv) and ``equiv`` (n, masks a, masks b), each with name, sha256 and why."""
    return json.loads(path.read_text(encoding="utf-8"))


def capfile_text(n: int, masks: Sequence[int]) -> str:
    """A cap file written by hand: the header, then each point with coordinate 1 leftmost."""
    return "".join([f"capfile v1 n={n}\n"] + ["".join(str(m >> i & 1) for i in range(n)) + "\n" for m in masks])


def pin_argv(pin: dict, workdir: Path) -> list[str]:
    """The capclass arguments of a pin; an equiv pin's two cap files are written under workdir."""
    if "argv" in pin:
        return pin["argv"]
    paths = []
    for side in ("a", "b"):
        path = workdir / f"{pin['name']}-{side}.cap"
        path.write_text(capfile_text(pin["n"], pin[side]), encoding="utf-8")
        paths.append(str(path))
    return ["equiv", *paths]


def pin_failure(prefix: Sequence[str], pin: dict, workdir: Path, env: Mapping[str, str] | None = None) -> str | None:
    """Why the pin fails when run after the command prefix, or None if its stdout digest matches."""
    done = subprocess.run([*prefix, *pin_argv(pin, workdir)], env=env, capture_output=True)
    if done.returncode != 0:
        return f"exit {done.returncode}: {done.stderr.decode(errors='replace').strip()}"
    digest = hashlib.sha256(done.stdout).hexdigest()
    if digest != pin["sha256"]:
        return f"stdout sha256 {digest}, pinned {pin['sha256']}"
    return None


def check_pins(prefix: Sequence[str] = ("capclass",), path: Path = PINS, env: Mapping[str, str] | None = None) -> int:
    """Run every pin, print one line each, and return 1 if any fails, else 0."""
    pins = load_pins(path)
    failed = 0
    with tempfile.TemporaryDirectory() as tmp:
        for pin in pins["commands"] + pins["equiv"]:
            why = pin_failure(prefix, pin, Path(tmp), env)
            print(f"FAIL {pin['name']}: {why}" if why else f"ok   {pin['name']}", flush=True)
            failed += why is not None
    return 1 if failed else 0


if __name__ == "__main__":
    if len(sys.argv) > 1:
        sys.exit("usage: python scripts/check_pins.py (it takes no arguments)")
    sys.exit(check_pins())
