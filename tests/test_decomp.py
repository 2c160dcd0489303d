import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from capclass.capset import Cap
from capclass.decomp import (
    ExtendedType,
    decompose,
    exchange_basis,
    extended_type,
    support_intersection,
    type_census,
)
from capclass.errors import (
    BadIndexError,
    ExchangeHypothesisViolated,
    InvalidBasisError,
    TooLargeError,
)
from capclass.gf2 import Point, PointSet
from capclass.templates import FRAME_MASKS, generating_basis, instantiate

FRAME_POINTS = tuple(Point(m, 7) for m in FRAME_MASKS)


def frame_cap(*dependents):
    return Cap(PointSet(7, FRAME_MASKS + dependents))


class TestDecompose:
    def test_default_basis_skips_dependents(self):
        dec = decompose(instantiate("T10_55_2"))
        assert dec.basis_masks() == FRAME_MASKS
        assert [p.mask for p, _ in dec.dependents] == [15, 124]
        assert [m.bit_count() for m in dec.support_masks()] == [5, 5]
        assert support_intersection(dec, [0, 1]).bit_count() == 2

    def test_independent_set_has_no_dependents(self):
        dec = decompose(Cap(PointSet(7, FRAME_MASKS)))
        assert dec.dependents == ()
        assert dec.dim == 7

    def test_explicit_basis_yields_table_supports(self):
        dec = decompose(instantiate("T10_55_3"), generating_basis("T10_55_3"))
        assert dec.support_masks() == (0b00011111, 0b01111100)

    def test_supplied_basis_order_is_kept(self):
        basis = tuple(reversed(FRAME_POINTS))
        dec = decompose(instantiate("T10_55_2"), basis)
        assert dec.basis == basis
        assert dec.support_masks() == (0b11111000, 0b00011111)

    def test_basis_must_be_subset(self):
        with pytest.raises(InvalidBasisError):
            decompose(instantiate("T10_55_2"), FRAME_POINTS[:-1] + (Point(3, 7),))

    def test_basis_must_be_independent(self):
        cap = frame_cap(15, 124)
        bad = FRAME_POINTS[:7] + (Point(15, 7),)  # 15 = a1+..+a5
        with pytest.raises(InvalidBasisError):
            decompose(cap, bad)

    def test_basis_must_span(self):
        with pytest.raises(InvalidBasisError):
            decompose(instantiate("T10_55_2"), FRAME_POINTS[:7])

    def test_plain_point_sets_are_accepted(self):
        dec = decompose(PointSet(3, (0, 1, 2, 3)))
        assert [p.mask for p, _ in dec.dependents] == [3]
        assert dec.support_masks() == (0b111,)


class TestSupportIntersection:
    def test_worked_pair(self):
        # x1 = a1+..+a5, x2 = a3+..+a7 share {a3, a4, a5}
        dec = decompose(instantiate("T10_55_3"), generating_basis("T10_55_3"))
        assert support_intersection(dec, [0, 1]) == 0b00011100

    def test_single_index_is_the_support(self):
        dec = decompose(instantiate("T10_55_3"), generating_basis("T10_55_3"))
        assert support_intersection(dec, [1]) == dec.support(1)

    def test_triple_intersection_for_332(self):
        dec = decompose(instantiate("T11_555_332"), generating_basis("T11_555_332"))
        assert support_intersection(dec, [0, 1, 2]).bit_count() == 1

    def test_bad_index(self):
        dec = decompose(instantiate("T10_55_3"))
        with pytest.raises(BadIndexError):
            support_intersection(dec, [5])
        with pytest.raises(BadIndexError):
            support_intersection(dec, [])


class TestExtendedType:
    def test_pair_example(self):
        dec = decompose(instantiate("T10_55_3"), generating_basis("T10_55_3"))
        assert extended_type(dec) == ExtendedType((5, 5), (3,))

    def test_independent_type_is_empty(self):
        dec = decompose(Cap(PointSet(7, FRAME_MASKS)))
        assert extended_type(dec) == ExtendedType((), ())
        assert str(extended_type(dec)) == "independent"

    def test_table_twelve_cap(self):
        dec = decompose(instantiate("T12_5555_233333"), generating_basis("T12_5555_233333"))
        assert extended_type(dec) == ExtendedType((5, 5, 5, 5), (2, 3, 3, 3, 3, 3))

    def test_dependent_permutations_compare_equal(self):
        assert ExtendedType((5, 5, 5), (3, 3, 2)) == ExtendedType((5, 5, 5), (2, 3, 3))
        assert ExtendedType((5, 5, 5), (3, 2, 3)) == ExtendedType((5, 5, 5), (2, 3, 3))

    def test_sizes_come_out_non_increasing(self):
        t = ExtendedType((5, 7), (4,))
        assert t.sizes == (7, 5)
        assert str(t) == "7-5-(4)"

    def test_pair_count_checked(self):
        with pytest.raises(ValueError):
            ExtendedType((5, 5), (3, 3))

    def test_pair_bound_checked(self):
        with pytest.raises(ValueError):
            ExtendedType((5, 3), (4,))

    @given(st.permutations(range(4)))
    def test_canonicalisation_is_permutation_invariant(self, perm):
        dec = decompose(instantiate("T12_5555_233332"), generating_basis("T12_5555_233332"))
        sups = dec.support_masks()
        shuffled = tuple(sups[i] for i in perm)
        assert ExtendedType.from_supports(shuffled) == ExtendedType.from_supports(sups)


class TestExchangeBasis:
    def worked_example(self):
        x = 0 ^ 1 ^ 2 ^ 4 ^ 8 ^ 16 ^ 32  # a1+..+a7
        y = 0 ^ 1 ^ 2 ^ 4 ^ 64  # a1+a2+a3+a4+a8
        z = 0 ^ 1 ^ 8 ^ 16 ^ 64  # a1+a2+a5+a6+a8
        cap = frame_cap(x, y, z)
        return decompose(cap, FRAME_POINTS), y

    def test_worked_example_changes_type(self):
        dec, y = self.worked_example()
        assert extended_type(dec) == ExtendedType((7, 5, 5), (4, 4, 3))
        swapped = exchange_basis(dec, Point(2, 7), Point(y, 7))  # a3 <-> y
        assert extended_type(swapped) == ExtendedType((5, 5, 5), (2, 3, 3))
        assert swapped.points == dec.points

    def test_seven_five_becomes_five_five(self):
        dec = decompose(instantiate("T10_75_4"), generating_basis("T10_75_4"))
        swapped = exchange_basis(dec, Point(4, 7), Point(124, 7))  # a4 <-> x2
        assert extended_type(swapped) == ExtendedType((5, 5), (2,))

    def test_exchange_is_an_involution_on_the_partition(self):
        dec, y = self.worked_example()
        swapped = exchange_basis(dec, Point(2, 7), Point(y, 7))
        back = exchange_basis(swapped, Point(y, 7), Point(2, 7))
        assert set(back.basis_masks()) == set(dec.basis_masks())
        assert back.points == dec.points

    def test_requires_a_in_support_of_x(self):
        dec = decompose(instantiate("T10_55_2"), generating_basis("T10_55_2"))
        # a8 is not in the support of x1 = a1+..+a5
        with pytest.raises(ExchangeHypothesisViolated):
            exchange_basis(dec, Point(64, 7), Point(15, 7))

    def test_rejects_widely_shared_basis_points(self):
        dec = decompose(instantiate("T12_5555_233333"), generating_basis("T12_5555_233333"))
        # a3 lies in all four supports
        with pytest.raises(ExchangeHypothesisViolated):
            exchange_basis(dec, Point(2, 7), Point(15, 7))

    def test_rejects_non_basis_point(self):
        dec = decompose(instantiate("T10_55_2"), generating_basis("T10_55_2"))
        with pytest.raises(ExchangeHypothesisViolated):
            exchange_basis(dec, Point(15, 7), Point(124, 7))

    def test_rejects_non_dependent_point(self):
        dec = decompose(instantiate("T10_55_2"), generating_basis("T10_55_2"))
        with pytest.raises(ExchangeHypothesisViolated):
            exchange_basis(dec, Point(0, 7), Point(64, 7))

    def test_wrong_support_raises_under_python_O(self):
        # python -O strips assert statements, so the closed-form check of the
        # exchange must raise a typed error to survive it
        script = """
import sys
from capclass.decomp import BasisDecomposition, decompose, exchange_basis
from capclass.errors import InvariantError
from capclass.gf2 import Point, PointSet
from capclass.templates import FRAME_MASKS

if not sys.flags.optimize:
    sys.exit("not running under -O")
y, z = 0 ^ 1 ^ 2 ^ 4 ^ 64, 0 ^ 1 ^ 8 ^ 16 ^ 64
dec = decompose(PointSet(7, FRAME_MASKS + (63, y, z)), [Point(m, 7) for m in FRAME_MASKS])
deps = list(dec.dependents)
if deps[2][0].mask != z:
    sys.exit("dependents are not in ascending point order")
deps[2] = (deps[2][0], deps[2][1] ^ 1 << 6)  # z's support wrongly gains a7
wrong = BasisDecomposition(dec.points, dec.basis, tuple(deps))
try:
    exchange_basis(wrong, Point(2, 7), Point(y, 7))  # a3 <-> y leaves z's support alone
except InvariantError as exc:
    print(exc)
    sys.exit(0)
sys.exit("exchange_basis accepted a wrong support")
"""
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
        done = subprocess.run([sys.executable, "-O", "-c", script], env=env, capture_output=True, text=True)
        assert done.returncode == 0, done.stderr
        assert "exchange prediction failed" in done.stdout


class TestTypeCensus:
    def test_one_class_of_ten_caps_has_two_types(self):
        census = type_census(instantiate("T10_55_2"))
        assert ExtendedType((5, 5), (2,)) in census
        assert ExtendedType((7, 5), (4,)) in census

    def test_other_class_is_pure(self):
        assert type_census(instantiate("T10_55_3")) == frozenset({ExtendedType((5, 5), (3,))})

    def test_twelve_caps_have_the_forced_type(self):
        for label in ("T12_7555", "T12_5555_233333", "T12_5555_233332"):
            census = type_census(instantiate(label))
            assert ExtendedType((5, 5, 5, 5), (2, 3, 3, 3, 3, 3)) in census

    def test_desk_scale_guard(self):
        big = Cap(PointSet(16, tuple(1 << i for i in range(14))))
        with pytest.raises(TooLargeError):
            type_census(big)

    @given(st.integers(0, 60))
    @settings(max_examples=25, deadline=None)
    def test_census_is_an_affine_invariant(self, seed):
        from capclass.gf2 import apply_affine_map, random_invertible_affine

        cap = instantiate("T11_555_333")
        t = random_invertible_affine(7, seed)
        assert type_census(Cap(apply_affine_map(t, cap.points))) == type_census(cap)
