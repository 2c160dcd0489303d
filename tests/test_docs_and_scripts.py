"""The README's library tour runs as documented, the version is stated
once, and no code under src/ or scripts/ keeps a name that 2.0.0 removed."""

import ast
import contextlib
import io
import re
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
