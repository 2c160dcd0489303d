import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from capclass import classifier
from capclass.capset import (
    Cap,
    _is_cap_exhaustive,
    extension_candidates,
    find_quad,
    is_cap,
    is_complete,
    quad_closure_1,
)
from capclass.classifier import classify
from capclass.errors import EmptyInputError, NotACapError
from capclass.gf2 import Point, PointSet, affine_span, apply_affine_map, random_invertible_affine
from capclass.templates import LABELS, instantiate

from oracles import has_quad, image_cap

FRAME7 = (0, 1, 2, 4, 8, 16, 32, 64)


def pset(n, *masks):
    return PointSet(n, masks)


@st.composite
def point_sets(draw, min_size=1, max_size=14, min_n=3, max_n=8):
    n = draw(st.integers(max(min_n, (min_size - 1).bit_length()), max_n))
    size = draw(st.integers(min_size, min(max_size, 1 << n)))
    masks = draw(
        st.lists(st.integers(0, (1 << n) - 1), min_size=size, max_size=size, unique=True)
    )
    return PointSet(n, masks)


class TestIsQuad:
    """Four distinct points XORing to zero, as find_quad and is_cap see them."""

    def test_zero_sum_quad(self):
        s = pset(4, 15, 1, 2, 12)
        quad = find_quad(s)
        assert quad is not None and {p.mask for p in quad} == {15, 1, 2, 12}
        assert not is_cap(s)

    def test_nonzero_sum(self):
        s = pset(3, 0, 1, 2, 4)
        assert find_quad(s) is None
        assert is_cap(s)

    def test_repeats_never_form_a_quad(self):
        # 1 ^ 1 ^ 2 ^ 2 == 0, but a point set keeps each point once
        s = PointSet(3, (1, 1, 2, 2))
        assert len(s) == 2
        assert find_quad(s) is None
        assert is_cap(s)

    def test_mixed_dimensions_rejected(self):
        # a point set holds one dimension, so no quad can mix two
        with pytest.raises(ValueError, match="out of range for n=3"):
            PointSet(3, (1, 2, 4, 8))
        assert Point(1, 4) not in pset(3, 1, 2, 4)


class TestIsCap:
    def test_plane_is_not_a_cap(self):
        assert not is_cap(pset(3, 0, 1, 2, 3))

    def test_independent_sets_are_caps(self):
        assert is_cap(PointSet(7, FRAME7))

    def test_ten_cap_template_masks(self):
        assert is_cap(pset(7, *FRAME7, 15, 124))

    def test_empty_rejected(self):
        with pytest.raises(EmptyInputError):
            is_cap(PointSet(5))

    @given(point_sets())
    @settings(max_examples=150)
    def test_pair_form_matches_four_subset_scan(self, s):
        assert is_cap(s) == _is_cap_exhaustive(s.sorted_masks()) == (not has_quad(list(s.sorted_masks())))

    @given(point_sets(min_size=2))
    def test_subsets_of_caps_are_caps(self, s):
        if not is_cap(s):
            return
        smaller = PointSet(s.n, s.sorted_masks()[1:])
        assert is_cap(smaller)

    @given(st.integers(0, 80), point_sets())
    @settings(max_examples=60)
    def test_affine_invariance(self, seed, s):
        t = random_invertible_affine(s.n, seed)
        image = apply_affine_map(t, s)
        assert is_cap(image) == is_cap(s)
        assert quad_closure_1(image) == apply_affine_map(t, quad_closure_1(s))

    def test_find_quad_reports_real_quad(self):
        quad = find_quad(pset(3, 0, 1, 2, 3, 4))
        assert quad is not None
        masks = [p.mask for p in quad]
        assert len(set(masks)) == 4
        assert masks[0] ^ masks[1] ^ masks[2] ^ masks[3] == 0
        assert find_quad(pset(7, *FRAME7)) is None


class TestCap:
    def test_constructor_rejects_quads(self):
        with pytest.raises(NotACapError):
            Cap(pset(3, 0, 1, 2, 3))

    def test_caches_dimension(self):
        c = Cap(pset(7, *FRAME7, 15, 124))
        assert c.dim == 7
        assert c.size == 10
        assert c.n == 7

    def test_immutable(self):
        c = Cap(pset(3, 0, 1))
        with pytest.raises(AttributeError):
            c.dim = 5

    def test_equality_follows_points(self):
        a, b = Cap(pset(7, *FRAME7)), Cap(PointSet(7, reversed(FRAME7)))
        assert a == b
        assert hash(a) == hash(b)
        assert a != Cap(pset(7, *FRAME7, 15))
        assert a != Cap(pset(8, *FRAME7))
        assert a != a.points


class TestQuadClosure:
    def test_plane_closes(self):
        assert quad_closure_1(pset(3, 0, 1, 2)).sorted_masks() == (0, 1, 2, 3)

    def test_singleton_has_no_triples(self):
        assert quad_closure_1(pset(4, 5)).sorted_masks() == (5,)

    @given(point_sets(min_size=10, max_size=10))
    @settings(max_examples=30)
    def test_ten_sets_close_to_at_most_130(self, s):
        closure = quad_closure_1(s)
        assert len(closure) <= 10 + 120
        assert s.masks <= closure.masks
        assert closure.masks <= affine_span(s).masks


class TestCompleteness:
    def test_twelve_cap_is_complete(self):
        assert is_complete(instantiate("T12_5555_233333"))

    def test_ten_cap_is_not(self):
        assert not is_complete(instantiate("T10_55_2"))

    def test_eleven_cap_is_not(self):
        assert not is_complete(instantiate("T11_555_332"))

    @pytest.mark.parametrize("dim", (6, 7, 8))
    def test_closure_count_agrees_with_the_candidates_on_classify_candidates(self, dim, monkeypatch):
        seen = []
        original = classifier.canonical_form
        monkeypatch.setattr(classifier, "canonical_form", lambda cap: seen.append(cap) or original(cap))
        classify(dim, 13)
        assert seen
        for cap in seen:
            assert is_complete(cap) == (len(extension_candidates(cap)) == 0)

    @pytest.mark.parametrize("label", LABELS)
    def test_closure_count_agrees_with_the_candidates_on_template_images(self, label):
        for seed in range(10):
            cap = image_cap(instantiate(label), seed)
            assert is_complete(cap) == (len(extension_candidates(cap)) == 0) == (cap.size == 12)


class TestExtensionCandidates:
    def test_ten_cap_admits_the_named_point(self):
        # a1+a2+a5+a6+a7 under the frame embedding
        witness = 0 ^ 1 ^ 8 ^ 16 ^ 32
        assert witness == 57
        assert 57 in extension_candidates(instantiate("T10_55_2"))

    def test_eleven_cap_admits_the_named_point(self):
        # a2+a3+a4+a6+a8 under the frame embedding
        witness = 1 ^ 2 ^ 4 ^ 16 ^ 64
        assert witness == 87
        assert 87 in extension_candidates(instantiate("T11_555_332"))

    def test_twelve_cap_admits_nothing(self):
        assert len(extension_candidates(instantiate("T12_7555"))) == 0

    @given(st.sampled_from(["T10_55_2", "T10_55_3", "T11_555_332", "T12_7555", "R5"]))
    def test_each_candidate_extends_to_a_cap(self, label):
        cap = instantiate(label)
        candidates = extension_candidates(cap)
        assert (len(candidates) == 0) == is_complete(cap)
        for z in candidates.sorted_masks():
            assert is_cap(PointSet(cap.n, cap.sorted_masks() + (z,)))
