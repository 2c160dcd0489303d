import ast
import gc
import os
import random
import subprocess
import sys
from functools import reduce
from itertools import combinations, permutations
from operator import xor
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from capclass import decomp, equivalence
from capclass.capset import Cap
from capclass.classifier import classify
from capclass.decomp import (
    ExtendedType,
    _basis_scan,
    _canonical_type,
    _every_basis,
    _supports,
    decompose,
    exchange_basis,
    extended_type,
    type_census,
)
from capclass.equivalence import canonical_form
from capclass.errors import (
    EmptyInputError,
    ExchangeHypothesisViolated,
    InvalidBasisError,
    InvariantError,
    TooLargeError,
)
from capclass.gf2 import (
    Point,
    PointSet,
    extract_basis,
)
from capclass.templates import FRAME_MASKS, LABELS, generating_basis, higherdim_pair, instantiate

from oracles import class_key, class_scan_oracle, classify_8_13_caps, image_cap, rank_oracle, scan_oracle
from test_golden import EQUIV

FRAME_POINTS = tuple(Point(m, 7) for m in FRAME_MASKS)


def frame_cap(*dependents):
    return Cap(PointSet(7, FRAME_MASKS + dependents))


class TestDecompose:
    def test_default_basis_skips_dependents(self):
        dec = decompose(instantiate("T10_55_2"))
        assert dec.basis_masks() == FRAME_MASKS
        assert [p.mask for p, _ in dec.dependents] == [15, 124]
        sups = dec.support_masks()
        assert [m.bit_count() for m in sups] == [5, 5]
        assert (sups[0] & sups[1]).bit_count() == 2

    def test_independent_set_has_no_dependents(self):
        dec = decompose(Cap(PointSet(7, FRAME_MASKS)))
        assert dec.dependents == ()
        assert len(dec.basis) - 1 == 7

    @pytest.mark.parametrize("name", ("n", "dim"))
    def test_point_count_and_dimension_properties_are_gone(self, name):
        # dec.points.n and len(dec.basis) - 1 replace them
        assert not hasattr(decomp.BasisDecomposition, name)

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

    def test_spanning_dependent_basis_is_reported_dependent(self):
        cap = instantiate("T10_55_2")
        with pytest.raises(InvalidBasisError, match="dependent"):
            decompose(cap, cap.points.points())

    def test_plain_point_sets_are_accepted(self):
        dec = decompose(PointSet(3, (0, 1, 2, 3)))
        assert [p.mask for p, _ in dec.dependents] == [3]
        assert dec.support_masks() == (0b111,)

    def test_empty_set_has_no_greedy_basis(self):
        with pytest.raises(EmptyInputError):
            decompose(PointSet(3, ()))

    @settings(max_examples=80, deadline=None)
    @given(st.integers(1, 8).flatmap(
        lambda n: st.tuples(st.just(n), st.sets(st.integers(0, (1 << n) - 1), min_size=1, max_size=14))))
    def test_greedy_path_agrees_with_the_supplied_path(self, case):
        # with no basis, decompose takes extract_basis's basis; each support
        # must be an odd subset of it that XORs to its point
        n, masks = case
        pts = PointSet(n, masks)
        dec = decompose(pts)
        assert dec.basis == extract_basis(pts)
        assert decompose(pts, dec.basis) == dec
        for p, sup in dec.dependents:
            chosen = [b.mask for i, b in enumerate(dec.basis) if sup >> i & 1]
            assert len(chosen) % 2 == 1
            assert reduce(xor, chosen) == p.mask


class TestSupportIntersection:
    def test_worked_pair(self):
        # x1 = a1+..+a5, x2 = a3+..+a7 share {a3, a4, a5}
        dec = decompose(instantiate("T10_55_3"), generating_basis("T10_55_3"))
        sups = dec.support_masks()
        assert sups[0] & sups[1] == 0b00011100

    def test_single_index_is_the_support(self):
        # one support alone is its own intersection: x2 = a3+..+a7
        dec = decompose(instantiate("T10_55_3"), generating_basis("T10_55_3"))
        assert dec.support_masks()[1] == 0b01111100

    def test_triple_intersection_for_332(self):
        dec = decompose(instantiate("T11_555_332"), generating_basis("T11_555_332"))
        sups = dec.support_masks()
        assert (sups[0] & sups[1] & sups[2]).bit_count() == 1


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

    @pytest.mark.parametrize("sizes, pairs", [((5, 5), (-1,)), ((-3,), ()), ((0,), ()), ((5, 0), (0,))])
    def test_negative_values_rejected(self, sizes, pairs):
        with pytest.raises(ValueError):
            ExtendedType(sizes, pairs)

    @given(st.permutations(range(4)))
    def test_canonicalisation_is_permutation_invariant(self, perm):
        dec = decompose(instantiate("T12_5555_233332"), generating_basis("T12_5555_233332"))
        sups = dec.support_masks()
        shuffled = tuple(sups[i] for i in perm)
        assert ExtendedType.from_supports(shuffled) == ExtendedType.from_supports(sups)


def brute_force_type(sups):
    """Least (sizes, pair sizes) over the dependent orders that keep the sizes non-increasing."""
    best = None
    for perm in permutations(sups):
        sizes = tuple(s.bit_count() for s in perm)
        if list(sizes) != sorted(sizes, reverse=True):
            continue
        pairs = tuple((a & b).bit_count() for a, b in combinations(perm, 2))
        if best is None or (sizes, pairs) < best:
            best = (sizes, pairs)
    return best


class TestCanonicalTypeAgainstAllOrders:
    def test_seeded_random_supports(self):
        rng = random.Random(7)
        for _ in range(300):
            ncols = rng.randint(3, 9)
            sups = rng.sample(range(1, 1 << ncols), rng.randint(1, 5))
            sizes = tuple(s.bit_count() for s in sups)
            pairs = tuple((a & b).bit_count() for a, b in combinations(sups, 2))
            assert _canonical_type(sizes, pairs) == brute_force_type(sups), sups


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

    @pytest.mark.parametrize(
        "a, x, message",
        [(Point(16, 8), Point(124, 7), "a is not a basis point"), (Point(16, 7), Point(124, 8), "x is not a dependent point")],
        ids=["a", "x"],
    )
    def test_rejects_a_point_of_another_dimension(self, a, x, message):
        # masks 16 and 124 are a5 and x2 of the n = 7 decomposition, an admissible move
        dec = decompose(instantiate("T10_75_4"), generating_basis("T10_75_4"))
        with pytest.raises(ExchangeHypothesisViolated, match=message):
            exchange_basis(dec, a, x)

    # the bases include the frame's own, which has no dependent and no move
    @pytest.mark.parametrize("dim, bases, moves", [(7, 490, 4428), (8, 2590, 23256)])
    def test_every_admissible_move_of_every_basis(self, dim, bases, moves):
        # a move swaps basis position a with a dependent x whose support holds
        # a, when a lies in at most two supports; each exchange checks its
        # supports against the theorem's predictions
        caps = classified_representatives(7, 13) if dim == 7 else classify_8_13_caps()
        seen_bases = seen_moves = 0
        for cap in caps:
            masks = cap.sorted_masks()
            points = [Point(m, cap.n) for m in masks]
            for subset, sups in _every_basis(masks, cap.dim + 1):
                dec = decompose(cap, [points[i] for i in subset])
                assert dec.support_masks() == sups
                seen_bases += 1
                for i, sup in enumerate(sups):
                    for pos in range(len(subset)):
                        if sup >> pos & 1 and sum(s >> pos & 1 for s in sups) <= 2:
                            exchange_basis(dec, dec.basis[pos], dec.dependents[i][0])
                            seen_moves += 1
        assert (seen_bases, seen_moves) == (bases, moves)

    def test_wrong_partner_support_raises_in_dimension_8(self):
        # the frame of AG(8,2) with 15, 51, 85 and 232: a3 (mask 2) lies in
        # the supports of x = 15 and of its partner 51 alone
        cap = classify_8_13_caps()[-1]
        dec = decompose(cap, [Point(m, 8) for m in (0,) + tuple(1 << i for i in range(8))])
        deps = list(dec.dependents)
        assert [p.mask for p, _ in deps] == [15, 51, 85, 232]
        deps[1] = (deps[1][0], deps[1][1] ^ 1 << 8)  # the partner's support wrongly gains a9
        wrong = decomp.BasisDecomposition(dec.points, dec.basis, tuple(deps))
        with pytest.raises(InvariantError, match="exchange prediction failed"):
            exchange_basis(wrong, Point(2, 8), Point(15, 8))

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

    # dependents of the worked example in ascending point order: the partner
    # a1+..+a7 (the other holder of a3), x = y, and z, which lacks a3
    @pytest.mark.parametrize("which, flip", [(0, 1 << 7), (1, 1 << 6)], ids=["partner", "x"])
    def test_wrong_partner_or_x_support_raises(self, which, flip):
        dec, y = self.worked_example()
        deps = list(dec.dependents)
        assert [p.mask for p, _ in deps] == [63, y, 0 ^ 1 ^ 8 ^ 16 ^ 64]
        deps[which] = (deps[which][0], deps[which][1] ^ flip)
        wrong = decomp.BasisDecomposition(dec.points, dec.basis, tuple(deps))
        with pytest.raises(InvariantError, match="exchange prediction failed"):
            exchange_basis(wrong, Point(2, 7), Point(y, 7))


def assert_every_basis_matches_brute_force(cap):
    masks, bc = cap.sorted_masks(), cap.dim + 1
    assert _every_basis(masks, bc) == scan_oracle(cap)


def assert_class_scan_matches_brute_force(cap):
    # per class key, the first basis of class_scan_oracle holding it, named by its complement
    masks, bc = cap.sorted_masks(), cap.dim + 1
    first = {}
    for subset, sups in class_scan_oracle(cap):
        first.setdefault(class_key(sups, bc), (subset, sups))
    every = tuple(range(len(masks)))
    want = {key: tuple(sorted(set(every) - set(subset))) for key, (subset, _) in first.items()}
    assert dict(_basis_scan(masks, bc)) == want
    for key, (subset, sups) in first.items():
        assert _supports([masks[i] for i in subset], [masks[c] for c in want[key]]) == sups


def classified_representatives(dim, max_size):
    table = classify(dim, max_size)
    return [entry.cap for size in sorted(table.rows) for entry in table.entries(size)]


class TestBasisScan:
    """_every_basis lists every basis, as brute force does; _basis_scan
    keeps the first basis of each class key among those that leave out the
    last point of each series class, on the same inputs."""

    @pytest.mark.parametrize("label", LABELS)
    def test_templates_match_brute_force(self, label):
        assert_every_basis_matches_brute_force(instantiate(label))

    def test_higherdim_pair_matches_brute_force(self):
        for cap in higherdim_pair():
            assert_every_basis_matches_brute_force(cap)

    @pytest.mark.parametrize("label", ("T12_7555", "T12_5555_233333", "T12_5555_233332"))
    @pytest.mark.parametrize("seed", (3, 17, 40))
    def test_template_images_match_brute_force(self, label, seed):
        # four dependents
        assert_every_basis_matches_brute_force(image_cap(instantiate(label), seed))

    @pytest.mark.parametrize("dim, max_size", ((6, 10), (8, 12), (8, 13)))
    def test_classified_representatives_match_brute_force(self, dim, max_size):
        # (8, 13) has r = 4 and 13-caps with points in series
        for cap in classified_representatives(dim, max_size):
            assert_every_basis_matches_brute_force(cap)

    def test_golden_fourteen_point_pair_matches_brute_force(self):
        # five dependents, r = 5: the largest r under the form limit
        pin, = (pin for pin in EQUIV.values() if len(pin["a"]) == 14)
        for side in ("a", "b"):
            assert_every_basis_matches_brute_force(Cap(PointSet(pin["n"], pin[side])))

    @pytest.mark.parametrize("label", LABELS)
    def test_templates_keep_the_first_basis_per_class(self, label):
        assert_class_scan_matches_brute_force(instantiate(label))

    def test_higherdim_pair_keeps_the_first_basis_per_class(self):
        for cap in higherdim_pair():
            assert_class_scan_matches_brute_force(cap)

    @pytest.mark.parametrize("label", LABELS)
    def test_template_images_keep_the_first_basis_per_class(self, label):
        for seed in (3, 17, 40):
            assert_class_scan_matches_brute_force(image_cap(instantiate(label), seed))

    @pytest.mark.parametrize("dim, max_size", ((6, 10), (8, 12), (8, 13)))
    def test_classified_representatives_keep_the_first_basis_per_class(self, dim, max_size):
        # (8, 13) has r = 4 and 13-caps with points in series
        for cap in classified_representatives(dim, max_size):
            assert_class_scan_matches_brute_force(cap)

    def test_golden_fourteen_point_pair_keeps_the_first_basis_per_class(self):
        # r = 5: the deepest search under the form limit
        pin, = (pin for pin in EQUIV.values() if len(pin["a"]) == 14)
        for side in ("a", "b"):
            assert_class_scan_matches_brute_force(Cap(PointSet(pin["n"], pin[side])))

    def test_frame_is_its_only_basis(self):
        cap = Cap(PointSet(7, FRAME_MASKS))
        assert _every_basis(cap.sorted_masks(), 8) == scan_oracle(cap) == ((tuple(range(8)), ()),)
        # one class, all eight points of dual value 0
        assert _basis_scan(cap.sorted_masks(), 8) == (((8,), ()),)

    def test_more_basis_points_than_points_gives_nothing(self):
        masks = instantiate("R5").sorted_masks()
        for scan in (_basis_scan, _every_basis):
            assert scan(masks, len(masks) + 1) == ()

    def test_more_basis_points_than_the_rank_allows_gives_nothing(self):
        cap = instantiate("T10_55_2")
        masks = cap.sorted_masks()
        for scan in (_basis_scan, _every_basis):
            for bc in range(cap.dim + 2, len(masks) + 1):
                assert scan(masks, bc) == ()

    def test_too_few_basis_points_raise(self):
        cap = instantiate("T10_55_2")
        for scan in (_basis_scan, _every_basis):
            with pytest.raises(InvariantError):
                scan(cap.sorted_masks(), cap.dim)

    def test_cold_scan_leaves_no_cyclic_garbage(self, monkeypatch):
        # the search holds no self-referring closure, so its leaves die with the scan
        monkeypatch.setattr(decomp, "_TYPE_CACHE", {})
        monkeypatch.setattr(equivalence, "_NORM_FORM_CACHE", {})
        _basis_scan.cache_clear()
        cap = instantiate("T12_7555")
        enabled = gc.isenabled()
        gc.collect()
        gc.disable()
        try:
            canonical_form(cap)
            type_census(cap)
            assert gc.collect() == 0
        finally:
            if enabled:
                gc.enable()

    def test_every_basis_shares_no_code_with_the_value_search(self):
        # the every-basis reference, and each decomp function it reaches,
        # never names the class scan it checks, which holds the value search
        tree = ast.parse(Path(decomp.__file__).read_text(encoding="utf-8"))
        defs = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
        reached, todo = set(), ["_every_basis", "_supports"]
        while todo:
            name = todo.pop()
            if name not in reached:
                reached.add(name)
                todo += [node.id for node in ast.walk(defs[name]) if isinstance(node, ast.Name) and node.id in defs]
        assert {"_has_bases", "_supports"} < reached
        assert "_basis_scan" not in reached


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

    def test_census_reads_the_scan_its_canonical_form_made(self):
        cap = image_cap(instantiate("T11_555_332"), 7)
        _basis_scan.cache_clear()
        canonical_form(cap)
        type_census(cap)
        assert _basis_scan.cache_info().misses == 1

    def test_type_cache_stays_bounded(self, monkeypatch):
        caps = [instantiate(label) for label in LABELS]
        caps += [image_cap(cap, seed) for cap in caps for seed in (1, 2)]
        # the one memo on the census path: class key -> ExtendedType
        monkeypatch.setattr(decomp, "_TYPE_CACHE", {})
        expected = [type_census(cap) for cap in caps]
        limit = 2
        assert len(decomp._TYPE_CACHE) > limit
        monkeypatch.setattr(decomp, "_TYPE_CACHE_LIMIT", limit)
        monkeypatch.setattr(decomp, "_TYPE_CACHE", {})
        for cap, want in zip(caps, expected):
            assert type_census(cap) == want
            assert len(decomp._TYPE_CACHE) <= limit

    @given(st.integers(0, 60))
    @settings(max_examples=25, deadline=None)
    def test_census_is_an_affine_invariant(self, seed):
        cap = instantiate("T11_555_333")
        assert type_census(image_cap(cap, seed)) == type_census(cap)
