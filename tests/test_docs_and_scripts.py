"""The README's library tour and the bundled script run as documented."""

import ast
import contextlib
import io
import os
import re
import runpy
import subprocess
import sys
from pathlib import Path

import pytest

import capclass
from capclass import capset, decomp, errors, gf2

ROOT = Path(__file__).resolve().parents[1]

# the names 2.0.0 removed, as README's "API changes in 2.0.0" table writes them
REMOVED = {
    "capset.is_quad": (capset, "is_quad"),
    "decomp.support_intersection": (decomp, "support_intersection"),
    "BasisDecomposition.support": (decomp.BasisDecomposition, "support"),
    "gf2.coordinates": (gf2, "coordinates"),
    "gf2.is_affinely_independent": (gf2, "is_affinely_independent"),
    "gf2.xor_sum": (gf2, "xor_sum"),
    "PointSet.from_points": (gf2.PointSet, "from_points"),
    "AffineMap.translation_by": (gf2.AffineMap, "translation_by"),
    "errors.NotInSpanError": (errors, "NotInSpanError"),
    "errors.BadIndexError": (errors, "BadIndexError"),
}


def test_run_classification_script_outside_the_repo_root(tmp_path):
    # no PYTHONPATH: the script must find the package from its own location
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "run_classification.py"), "3", "6"],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
    )
    assert done.returncode == 0, done.stderr
    assert "counts: {4: 1, 5: 0}" in done.stdout.splitlines()
    assert "observed max 4" in done.stdout


def test_run_classification_script_bounds_a_cut_table_below():
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "run_classification.py"), "3", "4"],
        capture_output=True,
        text=True,
    )
    assert done.returncode == 0, done.stderr
    assert "max >= 4 (cut at size 4)" in done.stdout
    assert "observed max" not in done.stdout


def test_run_classification_script_exits_141_when_its_reader_has_left():
    read_end, write_end = os.pipe()
    os.close(read_end)  # the reader is gone before the script writes
    try:
        proc = subprocess.Popen(
            [sys.executable, str(ROOT / "scripts" / "run_classification.py"), "3", "4"],
            stdout=write_end,
            stderr=subprocess.PIPE,
        )
    finally:
        os.close(write_end)
    _, err = proc.communicate(timeout=120)
    assert proc.returncode == 141
    assert b"Traceback" not in err
    assert b"Exception ignored" not in err


def test_run_classification_script_says_when_the_census_is_not_computed(monkeypatch, capsys):
    from capclass import classifier

    monkeypatch.setattr(classifier, "_DESK_LIMIT", 5)
    monkeypatch.setattr(sys, "argv", ["run_classification.py", "4", "6"])
    monkeypatch.setattr(sys, "path", list(sys.path))  # the script prepends its src directory
    with pytest.raises(SystemExit) as exc:
        runpy.run_path(str(ROOT / "scripts" / "run_classification.py"), run_name="__main__")
    assert exc.value.code == 0
    lines = capsys.readouterr().out.splitlines()
    census = [line.strip() for line in lines if line.strip().startswith("basis types:")]
    assert "basis types: not computed above 5 points" in census
    assert "basis types:" not in census
    assert any(line != "basis types: not computed above 5 points" for line in census)


BAD_SCRIPT_ARGUMENTS = (
    ["9", "13"], ["0", "4"], ["3", "15"], ["3", "3"], ["x", "4"], ["3", "4.5"], ["3", "4", "5"], ["3", "4", "--out", "d"]
)


@pytest.mark.parametrize("argv", BAD_SCRIPT_ARGUMENTS)
def test_run_classification_script_rejects_a_bad_argument_with_exit_2(argv):
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "run_classification.py"), *argv],
        capture_output=True,
        text=True,
    )
    assert done.returncode == 2
    assert done.stdout == ""
    assert "Traceback" not in done.stderr
    assert len([line for line in done.stderr.splitlines() if "error:" in line]) == 1


def test_readme_library_tour_prints_what_its_comments_say():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    tour = readme.split("## Library tour", 1)[1]
    code = re.search(r"```python\n(.*?)```", tour, re.S).group(1)
    expected = [
        line.split("#", 1)[1].strip() for line in code.splitlines() if line.startswith("print(")
    ]
    assert len(expected) == 3
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, "README.md", "exec"), {})
    assert out.getvalue().splitlines() == expected


def test_the_version_is_stated_once():
    pyproject = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    assert re.search(r'^dynamic = \["version"\]$', pyproject, re.M)
    assert re.search(r'^version = \{attr = "capclass.__version__"\}$', pyproject, re.M)
    assert not re.search(r'^version = "', pyproject, re.M)
    assert capclass.__version__ == "2.0.0"


@pytest.mark.parametrize("qualname", REMOVED)
def test_a_removed_name_is_gone_and_listed_in_the_api_changes(qualname):
    owner, name = REMOVED[qualname]
    assert not hasattr(owner, name)
    assert not hasattr(capclass, name)
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    note = readme.split("## API changes in 2.0.0", 1)[1].split("\n## ", 1)[0]
    assert f"`{qualname}`" in note
    # no code defines, imports or reads it as an attribute
    for path in [*(ROOT / "src" / "capclass").glob("*.py"), *(ROOT / "scripts").glob("*.py")]:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                assert node.name != name, path
            elif isinstance(node, ast.Attribute):
                assert node.attr != name, path
            elif isinstance(node, ast.alias):
                assert node.name != name, path
