"""Byte-exact output pins for the commands that every refactor must keep.

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
    ("classify", "8", "13"): "87059760b489be185f2d9db4f01a2a57684eb9d1b7de873edf377f624a4bfcb1",
    # five dependents per basis (r = 5), the most the 14-point limit allows
    ("classify", "8", "14"): "312883796f088dcb0a46d6f22b84f9e40d3da02f65ff25a1f67cf158a73314a0",
    ("verify-paper", "--json", "--fuzz-trials", "10", "--exchange-trials", "100"):
        "2debcd51095565c152cdd576657a41b64c7b0de7d4ef044d6267b02f20dbf921",
    # the benchmark's verify-paper operation, whose gate reads this digest from perfbench/golden.json
    ("verify-paper", "--json", "--fuzz-trials", "100", "--exchange-trials", "1000"):
        "58dd6b329767ab842c67cb4b7f549842ca40aa8b6742e1f0e158254b089dfb6d",
}

# `capclass equiv` on a cap and an affine image of it: (n, points of a,
# points of b) -> stdout digest.  Three spanning 12-caps in AG(8,2), of
# three classes, and two spanning 13-caps in AG(9,2); each basis has three
# dependents over 9 or 10 columns.  These caps have non-trivial affine
# groups, so the map printed depends on which minimising column order each
# basis takes; all but the third pair change if the columns of one
# signature class are taken in descending order.  The last pair is T10_55_3
# in AG(7,2) and its image under random_invertible_affine(7, 1): two
# dependents, so the closed-form order fixes the map, and the map changes
# if the least order of _min_column_form is taken instead.  The last two
# pairs have four and five dependents: T12_7555 in AG(7,2) and a 14-cap
# of AG(8,2) (the first of classify(8, 14)'s 14-point row), each against
# its image under random_invertible_affine(n, 1).  Their maps rest on
# which basis wins among the bases reaching the form: both change if the
# last basis in scan order to reach it is taken instead of the first.
EQUIV_GOLDEN = {
    (
        8,
        (9, 27, 31, 51, 100, 124, 140, 141, 143, 145, 196, 253),
        (6, 9, 38, 42, 45, 88, 110, 118, 135, 174, 179, 244),
    ): "93ea0f689227533d34a4b7557ec87912a739f94d4f7dc264e3320baaa277d0b6",
    (
        8,
        (23, 48, 72, 87, 101, 116, 136, 142, 168, 177, 193, 223),
        (33, 71, 83, 90, 99, 120, 139, 152, 176, 208, 228, 236),
    ): "f19ce8748ba675adf134f368a1c30502979f70d34b823ddb10e47ee08465be9c",
    (
        8,
        (2, 47, 63, 65, 87, 97, 120, 133, 153, 158, 159, 161),
        (16, 35, 55, 64, 87, 118, 163, 175, 209, 211, 241, 252),
    ): "efdca56fd94b97a7cb83e76d17ebe28555f784c392e1f00146c05080739a76fb",
    (
        9,
        (40, 52, 94, 181, 233, 252, 312, 316, 351, 439, 447, 473, 511),
        (2, 94, 124, 166, 215, 227, 290, 403, 417, 444, 457, 462, 485),
    ): "67cff9531f3bf7f806ee09bd05e576bd675e2d3d9377e1b504d5a0c2e5574fdc",
    (
        9,
        (121, 150, 174, 183, 192, 212, 222, 265, 312, 358, 386, 408, 417),
        (10, 21, 56, 68, 78, 137, 168, 181, 215, 226, 239, 345, 432),
    ): "f0a080492194114da673b59da8ffa31fa4dc4b6ad6f31840a9b5a5bc17835a97",
    (
        7,
        (0, 1, 2, 4, 8, 15, 16, 32, 62, 64),
        (3, 7, 14, 15, 17, 30, 41, 60, 83, 112),
    ): "d5d2a923f7f9d8cf7c677e18c98f70d19b77391f761623735ca7f8811e0e98cc",
    (
        7,
        (0, 1, 2, 4, 8, 16, 32, 63, 64, 106, 113, 124),
        (3, 7, 14, 15, 17, 30, 41, 83, 93, 97, 99, 102),
    ): "11c086e99eae559a4ca91f11b68a7ce500e74b9887a14462e08b1c3a040ea70d",
    (
        8,
        (0, 1, 2, 4, 8, 15, 16, 32, 51, 64, 85, 106, 128, 150),
        (41, 51, 82, 85, 114, 115, 123, 127, 159, 175, 188, 219, 226, 237),
    ): "08040c2261195c643d0d3b458b9eb182fcb283f15201b7099c12d00b8282d85e",
}


def run_cli(*argv):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH")))))
    done = subprocess.run([sys.executable, "-m", "capclass.cli", *argv], env=env, capture_output=True)
    assert done.returncode == 0, done.stderr.decode()
    return hashlib.sha256(done.stdout).hexdigest()


def capfile_text(n, masks):
    """A cap file written by hand: the header, then each point with coordinate 1 leftmost."""
    return "".join([f"capfile v1 n={n}\n"] + ["".join(str(m >> i & 1) for i in range(n)) + "\n" for m in masks])


@pytest.mark.parametrize("argv", list(GOLDEN), ids=lambda argv: " ".join(argv))
def test_stdout_digest_is_pinned(argv):
    assert run_cli(*argv) == GOLDEN[argv]


@pytest.mark.parametrize("pair", list(EQUIV_GOLDEN), ids=lambda pair: f"dim{pair[0]}-{len(pair[1])}cap-{pair[1][0]}")
def test_equiv_digest_is_pinned(pair, tmp_path):
    n, a, b = pair
    (tmp_path / "a.cap").write_text(capfile_text(n, a), encoding="utf-8")
    (tmp_path / "b.cap").write_text(capfile_text(n, b), encoding="utf-8")
    assert run_cli("equiv", str(tmp_path / "a.cap"), str(tmp_path / "b.cap")) == EQUIV_GOLDEN[pair]
