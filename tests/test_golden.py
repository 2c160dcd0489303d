"""Byte-exact output pins for the commands that every refactor must keep.

Every pin lives in tests/pins.json: a command, or an ``equiv`` pair of caps
given by their point masks, with the SHA-256 of its stdout (taken from a
fresh ``capclass`` process) and why it is pinned.  These tests run each pin
through ``python -m capclass.cli`` against src/; scripts/check_pins.py runs
the same pins through the installed console script.  A change that alters
any output byte, even with the same verdicts, fails here; update a digest
only together with a stated schema or content change.
"""

import ast
import json
import os
import re
import sys
from pathlib import Path

import pytest

from capclass.classifier import classify
from check_pins import PINS, check_pins, load_pins, pin_failure

ROOT = Path(__file__).resolve().parents[1]
PREFIX = (sys.executable, "-m", "capclass.cli")
ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (str(ROOT / "src"), os.environ.get("PYTHONPATH")))))
PINNED = load_pins()
COMMANDS = {pin["name"]: pin for pin in PINNED["commands"]}
EQUIV = {pin["name"]: pin for pin in PINNED["equiv"]}


@pytest.mark.parametrize("name", COMMANDS)
def test_stdout_digest_is_pinned(name, tmp_path):
    assert pin_failure(PREFIX, COMMANDS[name], tmp_path, ENV) is None


@pytest.mark.parametrize("name", EQUIV)
def test_equiv_digest_is_pinned(name, tmp_path):
    assert pin_failure(PREFIX, EQUIV[name], tmp_path, ENV) is None


def test_checker_names_an_altered_pin(tmp_path, capsys):
    kept, altered = dict(EQUIV["dim7-10cap-0"]), dict(EQUIV["dim7-12cap-0"])
    altered["sha256"] = altered["sha256"][:-1] + ("0" if altered["sha256"][-1] != "0" else "1")
    pins = tmp_path / "pins.json"
    pins.write_text(json.dumps({"commands": [], "equiv": [kept, altered]}), encoding="utf-8")
    assert check_pins(PREFIX, pins, ENV) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "ok   dim7-10cap-0"
    assert lines[1].startswith(f"FAIL dim7-12cap-0: stdout sha256 {EQUIV['dim7-12cap-0']['sha256']}, pinned ")


def test_checker_imports_nothing_from_the_package():
    tree = ast.parse((ROOT / "scripts" / "check_pins.py").read_text(encoding="utf-8"))
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            assert not any(alias.name.split(".")[0] == "capclass" for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            assert node.level == 0 and (node.module or "").split(".")[0] != "capclass"


def test_every_digest_is_defined_once_in_the_pins_file():
    pins_text = PINS.read_text(encoding="utf-8")
    pinned = re.findall(r"\b[0-9a-f]{64}\b", pins_text)
    assert len(pinned) == len(set(pinned)) == len(PINNED["commands"]) + len(PINNED["equiv"])
    for top in ("tests", "scripts", ".github"):
        for path in (ROOT / top).rglob("*"):
            if path.suffix in {".py", ".json", ".yml", ".yaml", ".md"} and path != PINS:
                assert not re.search(r"\b[0-9a-f]{64}\b", path.read_text(encoding="utf-8")), path


def test_benchmark_copy_agrees_with_the_pins():
    # perfbench/ keeps its own copy of two digests and the classify(8, 13) counts
    golden = json.loads((ROOT / "perfbench" / "golden.json").read_text(encoding="utf-8"))
    assert golden["classify_8_13_sha256"] == COMMANDS["classify 8 13"]["sha256"]
    assert golden["verify_paper_json_sha256"] == COMMANDS["verify-paper --json --fuzz-trials 100 --exchange-trials 1000"]["sha256"]
    assert {int(size): count for size, count in golden["classify_8_13_counts"].items()} == classify(8, 13).counts()
