"""Session fixtures: capclass.cli run against src/ in a fresh process, and
each output pin of tests/pins.json run through it once per session, so the
acceptance criteria read the same default report whose digest
tests/test_golden.py checks."""

import os
import sys
import time
from pathlib import Path

import pytest

from check_pins import load_pins, run_pin

SRC = str(Path(__file__).resolve().parents[1] / "src")
PINS = {pin["name"]: pin for group in load_pins().values() for pin in group}


@pytest.fixture(scope="session")
def source_cli():
    """The command prefix and environment that run capclass.cli against src/."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH")))))
    return (sys.executable, "-m", "capclass.cli"), env


@pytest.fixture(scope="session")
def pin_run(source_cli, tmp_path_factory):
    """Run a pin by name, once per session: (its completed run, its wall time in seconds)."""
    prefix, env = source_cli
    runs = {}

    def run(name):
        if name not in runs:
            started = time.perf_counter()
            done = run_pin(prefix, PINS[name], tmp_path_factory.mktemp("pins"), env)
            runs[name] = done, time.perf_counter() - started
        return runs[name]

    return run
