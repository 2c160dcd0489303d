import random
from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from capclass import equivalence
from capclass.capset import Cap
from capclass.equivalence import (
    _canonical_scan,
    _map_from_bases,
    _min_column_form,
    _minimal_form_for_supports,
    are_equivalent,
    canonical_form,
    find_isomorphism,
    verify_map,
)
from capclass.errors import DimensionMismatchError, InvariantError, TooLargeError
from capclass.gf2 import AffineMap, Point, PointSet, apply_affine_map, random_invertible_affine
from capclass.templates import higherdim_pair, instantiate

from oracles import equivalent_by_basis_images


def image_cap(cap, seed):
    t = random_invertible_affine(cap.n, seed)
    return Cap(apply_affine_map(t, cap.points))


class TestCanonicalForm:
    def test_fields(self):
        cap = instantiate("T10_55_2")
        form = canonical_form(cap)
        assert form.n == 7
        assert form.size == 10
        assert len(form.dep_masks) == 10 - 8
        assert all(m.bit_count() % 2 == 1 for m in form.dep_masks)
        assert list(form.dep_masks) == sorted(form.dep_masks)

    @given(st.integers(0, 300))
    @settings(max_examples=60, deadline=None)
    def test_invariant_under_affine_maps(self, seed):
        cap = instantiate("T11_555_332")
        assert canonical_form(image_cap(cap, seed)) == canonical_form(cap)

    def test_shared_class_shares_form(self):
        assert canonical_form(instantiate("T10_75_4")) == canonical_form(instantiate("T10_55_2"))

    def test_distinct_classes_differ(self):
        assert canonical_form(instantiate("T10_55_2")) != canonical_form(instantiate("T10_55_3"))

    def test_desk_scale_guard(self):
        big = Cap(PointSet(16, tuple(1 << i for i in range(15))))
        with pytest.raises(TooLargeError):
            canonical_form(big)

    def test_independent_caps_compare_by_shape(self):
        a = Cap(PointSet(7, (0, 1, 2, 4, 8, 16, 32, 64)))
        b = image_cap(a, 17)
        assert canonical_form(a) == canonical_form(b)
        assert canonical_form(a).dep_masks == ()


class TestAreEquivalent:
    def test_twelve_cap_templates(self):
        assert are_equivalent(instantiate("T12_5555_233333"), instantiate("T12_5555_233332"))

    def test_higherdim_pair_differs(self):
        c1, c2 = higherdim_pair()
        assert not are_equivalent(c1, c2)

    @given(st.integers(0, 300))
    @settings(max_examples=30, deadline=None)
    def test_relabelled_cap_is_equivalent_to_itself(self, seed):
        cap = instantiate("T12_7555")
        assert are_equivalent(cap, image_cap(cap, seed))

    def test_size_mismatch_is_never_equivalent(self):
        assert not are_equivalent(instantiate("R5"), instantiate("T10_55_2"))


class TestFindIsomorphism:
    def test_explicit_map_between_ten_cap_templates(self):
        a, b = instantiate("T10_75_4"), instantiate("T10_55_2")
        t = find_isomorphism(a, b)
        assert t is not None
        assert verify_map(t, a, b)

    def test_identity_case_fixes_the_cap_setwise(self):
        cap = instantiate("T11_555_333")
        t = find_isomorphism(cap, cap)
        assert t is not None
        assert verify_map(t, cap, cap)

    def test_no_map_between_distinct_classes(self):
        assert find_isomorphism(instantiate("T10_55_2"), instantiate("T10_55_3")) is None

    def test_no_map_for_higherdim_pair(self):
        c1, c2 = higherdim_pair()
        assert find_isomorphism(c1, c2) is None

    def test_mixed_ambient_dimensions_rejected(self):
        small = Cap(PointSet(6, (0, 1, 2)))
        with pytest.raises(DimensionMismatchError):
            find_isomorphism(small, instantiate("R5"))

    @given(st.integers(0, 200))
    @settings(max_examples=25, deadline=None)
    def test_found_maps_always_verify(self, seed):
        cap = instantiate("T11_755_443")
        other = image_cap(cap, seed)
        t = find_isomorphism(cap, other)
        assert t is not None and verify_map(t, cap, other)

    def test_dependent_source_basis_raises_typed_error(self):
        # 0, 1, 2, 3 is affinely dependent: 3 = 0 ^ 1 ^ 2
        with pytest.raises(InvariantError):
            _map_from_bases((0, 1, 2, 3), (0, 1, 2, 4), 3)


class TestVerifyMap:
    def test_identity(self):
        cap = instantiate("R7")
        assert verify_map(AffineMap.identity(7), cap, cap)

    def test_translation(self):
        cap = instantiate("R7")
        shift = AffineMap.translation_by(Point(33, 7))
        shifted = Cap(apply_affine_map(shift, cap.points))
        assert verify_map(shift, cap, shifted)

    def test_wrong_map_fails(self):
        a, b = instantiate("T10_55_2"), instantiate("T10_55_3")
        assert not verify_map(AffineMap.identity(7), a, b)

    def test_implies_equivalence(self):
        a, b = instantiate("T11_555_333"), instantiate("T11_555_332")
        t = find_isomorphism(a, b)
        assert verify_map(t, a, b)
        assert are_equivalent(a, b)


class TestBruteForceAgreement:
    def caps_of_dim(self, dim, size):
        from capclass.classifier import classify

        return [e.cap for e in classify(dim, size).rows.get(size, ())]

    @given(st.integers(0, 40), st.integers(0, 40))
    @settings(max_examples=20, deadline=None)
    def test_small_caps_agree_with_basis_image_search(self, seed1, seed2):
        base = Cap(PointSet(4, (0, 1, 2, 4, 8, 15)))
        c1 = image_cap(base, seed1)
        other = Cap(PointSet(4, (0, 1, 2, 4, 8)))  # independent 5-set, not equivalent
        c2 = image_cap(other, seed2)
        assert are_equivalent(c1, image_cap(base, seed2))
        assert equivalent_by_basis_images(list(c1.sorted_masks()), list(image_cap(base, seed2).sorted_masks()), 4)
        assert not are_equivalent(c1, c2)
        assert not equivalent_by_basis_images(list(c1.sorted_masks()), list(c2.sorted_masks()), 4)

    def test_dim6_representatives_pairwise(self):
        from capclass.classifier import classify

        table = classify(6, 10)
        reps = [e.cap for size in table.rows for e in table.entries(size)]
        for i, a in enumerate(reps):
            for b in reps[i:]:
                expected = equivalent_by_basis_images(
                    list(a.sorted_masks()), list(b.sorted_masks()), 6
                )
                assert are_equivalent(a, b) == expected


def relabel(mask, order):
    """mask with column order[i] moved to position i."""
    return sum(1 << i for i, c in enumerate(order) if mask >> c & 1)


def random_supports(rng):
    ncols = rng.randint(1, 7)
    r = rng.randint(1, min(4, (1 << ncols) - 1))
    return tuple(rng.sample(range(1, 1 << ncols), r)), ncols


def brute_force_min_form(sups, ncols):
    return min(tuple(sorted(relabel(s, order) for s in sups)) for order in permutations(range(ncols)))


class TestMinimalFormAgainstAllColumnOrders:
    @pytest.mark.parametrize("form_of", (_min_column_form, _minimal_form_for_supports))
    def test_seeded_random_supports(self, form_of):
        rng = random.Random(2024)
        for _ in range(300):
            sups, ncols = random_supports(rng)
            masks, order = form_of(sups, ncols)
            assert sorted(order) == list(range(ncols))
            assert tuple(sorted(relabel(s, order) for s in sups)) == masks
            assert masks == brute_force_min_form(sups, ncols), (sups, ncols)

    def test_single_support_packs_its_columns_first(self):
        # one support: the minimum is its columns packed low, and the order
        # takes its columns ascending, then the rest ascending
        for ncols in range(1, 9):
            for sup in range(1, 1 << ncols):
                cols = [c for c in range(ncols) if sup >> c & 1]
                rest = [c for c in range(ncols) if not sup >> c & 1]
                want = (((1 << len(cols)) - 1,), tuple(cols + rest))
                assert _minimal_form_for_supports((sup,), ncols) == want, (sup, ncols)


def test_form_caches_stay_bounded(monkeypatch):
    caps = [image_cap(instantiate(label), seed) for label in ("T11_555_332", "T11_755_443") for seed in (1, 2)]
    monkeypatch.setattr(equivalence, "_RAW_FORM_CACHE", {})
    monkeypatch.setattr(equivalence, "_NORM_FORM_CACHE", {})
    expected = [_canonical_scan(cap) for cap in caps]
    limit = 3
    assert len(equivalence._NORM_FORM_CACHE) > limit
    monkeypatch.setattr(equivalence, "_RAW_CACHE_LIMIT", limit)
    monkeypatch.setattr(equivalence, "_RAW_FORM_CACHE", {})
    monkeypatch.setattr(equivalence, "_NORM_FORM_CACHE", {})
    for cap, want in zip(caps, expected):
        assert _canonical_scan(cap) == want
        assert len(equivalence._RAW_FORM_CACHE) <= limit
        assert len(equivalence._NORM_FORM_CACHE) <= limit
