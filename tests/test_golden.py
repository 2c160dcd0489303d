"""Byte-exact output pins for the two commands that every refactor must keep.

The digests were taken from the stdout of a fresh ``capclass`` process.
A change that alters any output byte, even with the same verdicts, fails
here; update a digest only together with a stated schema or content change.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parents[1] / "src")

GOLDEN = {
    ("classify", "7", "13"): "fcc6f3972ff34be76c05157f3057b50550af704e1c82b95d328a3f89b547b874",
    ("verify-paper", "--json", "--fuzz-trials", "10", "--exchange-trials", "100"):
        "2debcd51095565c152cdd576657a41b64c7b0de7d4ef044d6267b02f20dbf921",
}


@pytest.mark.parametrize("argv", list(GOLDEN), ids=lambda argv: " ".join(argv))
def test_stdout_digest_is_pinned(argv):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH")))))
    done = subprocess.run([sys.executable, "-m", "capclass.cli", *argv], env=env, capture_output=True)
    assert done.returncode == 0, done.stderr.decode()
    assert hashlib.sha256(done.stdout).hexdigest() == GOLDEN[argv]
