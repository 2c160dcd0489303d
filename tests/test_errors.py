"""Each failure kind raises one exception type, and the command line gives each type one exit code."""

import inspect
import re
from pathlib import Path

import pytest

from capclass import errors
from capclass.capset import Cap, find_quad, is_cap, quad_closure_1
from capclass.classifier import brute_force_class_counts, classify, tait_won_bounds
from capclass.cli import run_command
from capclass.decomp import decompose
from capclass.equivalence import verify_map
from capclass.errors import CapError, DimensionMismatchError, EmptyInputError, InvalidBasisError, TooLargeError
from capclass.gf2 import (
    AffineMap,
    Point,
    PointSet,
    affine_dim,
    affine_span,
    coordinates,
    extract_basis,
    is_affinely_independent,
)

ROOT = Path(__file__).resolve().parents[1]
EMPTY = PointSet(5)

# every public entry point that takes a point set, called with none (xor_sum's own test is in test_gf2)
EMPTY_INPUT_CALLS = {
    "affine_span": lambda: affine_span(EMPTY),
    "affine_dim": lambda: affine_dim(EMPTY),
    "is_affinely_independent": lambda: is_affinely_independent(EMPTY),
    "extract_basis": lambda: extract_basis(EMPTY),
    "coordinates": lambda: coordinates([], Point(3, 5)),
    "quad_closure_1": lambda: quad_closure_1(EMPTY),
    "Cap": lambda: Cap(EMPTY),
    "decompose": lambda: decompose(EMPTY),
    "is_cap": lambda: is_cap(EMPTY),
    "find_quad": lambda: find_quad(EMPTY),
    "PointSet.from_points": lambda: PointSet.from_points([]),
}


@pytest.mark.parametrize("call", EMPTY_INPUT_CALLS.values(), ids=EMPTY_INPUT_CALLS)
def test_the_empty_set_is_refused(call):
    with pytest.raises(EmptyInputError):
        call()


def test_points_of_different_dimensions_do_not_add():
    with pytest.raises(DimensionMismatchError, match="n=3 and n=4"):
        Point(1, 3) ^ Point(1, 4)


def test_affine_map_needs_one_row_per_coordinate():
    with pytest.raises(ValueError, match="expected 3 matrix rows, got 2"):
        AffineMap(3, (1, 2), 0)


def test_bit_strings_hold_only_zeros_and_ones():
    with pytest.raises(ValueError, match="invalid coordinate character '2'"):
        Point.from_bits("0120")


@pytest.mark.parametrize("call", [lambda: classify(0, 5), lambda: tait_won_bounds(0)], ids=("classify", "tait_won_bounds"))
def test_dimension_zero_is_refused(call):
    with pytest.raises(ValueError, match="dimension must be at least 1"):
        call()


def test_a_map_refuses_a_point_of_another_dimension():
    with pytest.raises(DimensionMismatchError, match="map on n=3 applied to point with n=4"):
        AffineMap.identity(3)(Point(1, 4))


class TestVerifyMap:
    def test_map_of_another_dimension_is_rejected(self):
        cap = Cap(PointSet(3, (0, 1, 2, 4)))
        assert verify_map(AffineMap.identity(3), cap, cap)
        assert not verify_map(AffineMap.identity(4), cap, cap)

    def test_singular_map_is_rejected_even_when_it_hits_every_point(self):
        # x -> (x1, 0) fixes 0 and 1, so only the invertibility test refuses it
        cap = Cap(PointSet(2, (0, 1)))
        singular = AffineMap(2, (1, 0), 0)
        assert {singular.apply_mask(m) for m in cap.sorted_masks()} == cap.points.masks
        assert not verify_map(singular, cap, cap)


class TestDecomposeBasis:
    CUBE = PointSet(3, (0, 1, 2, 4, 7))

    def test_empty_basis(self):
        with pytest.raises(InvalidBasisError, match="empty basis"):
            decompose(self.CUBE, [])

    def test_repeated_point(self):
        basis = [Point(m, 3) for m in (0, 1, 1, 2, 4)]
        with pytest.raises(InvalidBasisError, match="repeated points"):
            decompose(self.CUBE, basis)


class TestExitCodes:
    def test_classify_above_dimension_8_is_a_usage_error(self, capsys):
        with pytest.raises(TooLargeError):
            classify(9, 13)
        assert run_command(lambda: classify(9, 13)) == 2
        assert capsys.readouterr().err == "error: classification supports dim <= 8\n"

    def test_brute_force_above_dimension_4_is_a_usage_error(self, capsys):
        assert run_command(lambda: brute_force_class_counts(5)) == 2
        assert "dim <= 4" in capsys.readouterr().err


def readme_errors():
    """(type name, exit code) for each entry of README's Errors list."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Errors\n", 1)[1].split("\n## ", 1)[0]
    return [(name, int(code)) for name, code in re.findall(r"^- `(\w+)`, exit (\d+):", section, re.M)]


def test_readme_lists_every_error_type_with_its_exit_code(capsys):
    listed = readme_errors()
    declared = [name for name, cls in inspect.getmembers(errors, inspect.isclass) if issubclass(cls, CapError)]
    assert sorted(name for name, _ in listed) == sorted(declared)
    for name, code in listed:
        def fail(cls=getattr(errors, name)):
            raise cls("planted")

        assert run_command(fail) == code, name
    capsys.readouterr()
